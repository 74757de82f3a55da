"""Experiment configuration: INI-style sections mirroring the module layout.

Every field has a default; the fully resolved configuration (defaults
included) is echoed into each output manifest so results stay reproducible.
Options are read by their dataclass fields: unknown options are refused,
every number must be finite, one ``interior`` count serves every axis, and
``omega`` needs two numbers per axis (it has no 2D default).
"""

from __future__ import annotations

import configparser
import math
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .elliptic import CoefficientField, Mesh, assemble, subdomain_indices
from .errors import ConfigError
from .expressions import ExpressionError, compile_expression
from .solver import SourcePair

__all__ = ["ExperimentConfig", "load_config", "parse_config_text"]

_ROUTES = ("timestep", "resolvent", "spectral")
# coefficient expressions each dimension reads
_COEFFICIENTS = {1: ("a11", "b1", "c"), 2: ("a11", "b1", "c", "a22", "a12", "b2")}


@dataclass
class ProblemConfig:
    kind: str = "elliptic"  # elliptic | jordan (jordan: spectrum diagnostics only)
    dimension: int = 1
    domain: tuple = (0.0, 1.0)
    interior: tuple = (32,)
    a11: str = "1"
    a12: str = "0"
    a22: str = "1"
    b1: str = "0"
    b2: str = "0"
    c: str = "0"
    alpha: float = 1.5
    T: float = 1.0
    K: int = 1024
    a: str = "0"
    b: str = "0"
    jordan_size: int = 2
    jordan_lambda: float = 5.0


@dataclass
class SpectralConfig:
    cluster_tol: float | None = None  # None means 1e-6 * ||A||
    contour_nodes: int = 64


@dataclass
class SolverConfig:
    routes: tuple = ("timestep",)
    talbot_nodes: int = 48
    times: tuple = ()  # empty means (T/4, T/2, T)


@dataclass
class ObservationConfig:
    omega: tuple = (0.0, 0.25)
    times: str = "geometric:64:1e-3"
    horizon: float | None = None  # None means problem T
    route: str = "spectral"
    timestep_K: int = 1024


@dataclass
class InversionConfig:
    method: str = "tikhonov"
    reg_scale: float = 1e-6
    tsvd_rank: int | None = None
    noise: float = 0.0
    seed: int | None = None


@dataclass
class ExperimentConfig:
    problem: ProblemConfig = field(default_factory=ProblemConfig)
    spectral: SpectralConfig = field(default_factory=SpectralConfig)
    solver: SolverConfig = field(default_factory=SolverConfig)
    observation: ObservationConfig = field(default_factory=ObservationConfig)
    inversion: InversionConfig = field(default_factory=InversionConfig)

    def resolved(self) -> dict:
        """Plain-dict echo of every field, defaults included."""
        return asdict(self)

    # -- builders -----------------------------------------------------------

    def build_mesh(self) -> Mesh:
        p = self.problem
        try:
            return Mesh(p.domain[0::2], p.domain[1::2], p.interior)
        except ValueError as exc:
            raise ConfigError(f"[problem] mesh: {exc}") from exc

    def build_operator(self):
        p = self.problem
        if p.kind == "jordan":
            n, lam = p.jordan_size, p.jordan_lambda
            mat = lam * np.eye(n) + np.diag(np.ones(n - 1), 1)
            return mat
        mesh = self.build_mesh()
        names = ("x", "y")[: p.dimension]
        kw = {c: self._expression(c, names) for c in _COEFFICIENTS[p.dimension]}
        coeffs = CoefficientField.from_callables(mesh, **kw)
        return assemble(mesh, coeffs)

    def build_source(self, mesh: Mesh | None = None) -> SourcePair:
        p = self.problem
        if p.kind == "jordan":
            # fixtures carry no geometry; expressions see pseudo-coordinates
            names: tuple = ("x",)
            coords: tuple = (np.linspace(0.0, 1.0, p.jordan_size),)
        else:
            if mesh is None:
                mesh = self.build_mesh()
            names = ("x", "y")[: p.dimension]
            coords = mesh.interior_coordinates()
        fa, fb = self._expression("a", names), self._expression("b", names)
        return SourcePair(fa(*coords), fb(*coords))

    def _expression(self, option: str, names: tuple):
        """The compiled ``[problem]`` expression ``option``; errors name it."""
        try:
            return compile_expression(getattr(self.problem, option), names)
        except ExpressionError as exc:
            raise ConfigError(f"[problem] {option}: {exc}") from exc

    def solver_times(self) -> np.ndarray:
        if self.solver.times:
            return np.asarray(self.solver.times, dtype=float)
        T = self.problem.T
        return np.array([T / 4.0, T / 2.0, T])

    def observation_times(self) -> np.ndarray:
        spec = self.observation.times.strip()
        horizon = self.observation.horizon
        if horizon is None:
            horizon = self.problem.T
        try:
            if spec.startswith("uniform:"):
                count = int(spec.split(":")[1])
                if count < 1:
                    raise ConfigError(
                        f"[observation] times: {spec!r} needs a count of at least 1"
                    )
                return np.arange(1, count + 1) * (horizon / count)
            if spec.startswith("geometric:"):
                parts = spec.split(":")
                count, tmin = int(parts[1]), float(parts[2])
                return np.geomspace(tmin, horizon, count)
            return np.asarray([float(v) for v in spec.split()], dtype=float)
        except (IndexError, ValueError) as exc:
            raise ConfigError(f"[observation] times: cannot parse {spec!r}") from exc

    def observation_omega(self, mesh: Mesh) -> np.ndarray:
        om, d = self.observation.omega, mesh.dimension
        try:
            if len(om) != 2 * d:
                raise ValueError(f"needs {2 * d} numbers for {d}D, got {len(om)}")
            return subdomain_indices(mesh, tuple(zip(om[0::2], om[1::2])))
        except ValueError as exc:
            raise ConfigError(f"[observation] omega: {exc}") from exc


def _get(parser, section: str, option: str) -> str | None:
    """The option's text, or None when it is missing, empty or ``auto`` (the default)."""
    raw = parser.get(section, option, fallback="").strip()
    return None if raw == "" or raw.lower() == "auto" else raw


def _float(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"{raw} is not a finite number")
    return value


def _floats(raw: str) -> tuple:
    return tuple(_float(v) for v in raw.split())


def _ints(raw: str) -> tuple:
    return tuple(int(v) for v in raw.split())


def _routes(raw: str) -> tuple:
    names = [r.strip() for r in raw.replace(",", " ").split()]
    if names == ["all"]:
        return _ROUTES
    for r in names:
        if r not in _ROUTES:
            raise ValueError(f"unknown route {r!r} (choose from {', '.join(_ROUTES)})")
    if not names:
        raise ValueError("no routes given")
    return tuple(names)


# option readers by field annotation (a string under postponed evaluation);
# tuple fields name theirs
_READERS = {"str": str, "int": int, "float": _float, "float | None": _float, "int | None": int}
_TUPLE_READERS = dict(domain=_floats, interior=_ints, routes=_routes, times=_floats, omega=_floats)


def parse_config_text(text: str) -> ExperimentConfig:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config: {exc}") from exc
    cfg = ExperimentConfig()
    unknown = set(parser.sections()) - vars(cfg).keys()
    if unknown:
        raise ConfigError(f"unknown config sections: {sorted(unknown)}")

    errors: list[str] = []
    p = cfg.problem
    p.domain = p.interior = ()  # unless given, set per dimension below
    for name, part in vars(cfg).items():
        options = parser.options(name) if parser.has_section(name) else []
        extra = sorted(set(options) - {f.name.lower() for f in fields(part)})
        if extra:
            errors.append(f"[{name}] unknown options: {', '.join(extra)}")
        for f in fields(part):
            raw = _get(parser, name, f.name)
            if raw is None:
                continue
            read = _TUPLE_READERS[f.name] if f.type == "tuple" else _READERS[f.type]
            try:
                setattr(part, f.name, read(raw))
            except ValueError as exc:
                errors.append(f"[{name}] {f.name} = {raw!r}: {exc}")

    if p.dimension not in (1, 2):
        errors.append(f"[problem] dimension must be 1 or 2, got {p.dimension}")
        p.dimension = 1
    d = p.dimension
    p.domain = p.domain or (0.0, 1.0) * d
    p.interior = p.interior or (32 if d == 1 else 16,)
    if len(p.interior) == 1:
        p.interior *= d
    for option, size in (("domain", 2 * d), ("interior", d)):
        if len(getattr(p, option)) != size:
            errors.append(
                f"[problem] {option} needs {size} numbers for {d}D, got {len(getattr(p, option))}"
            )
    if not 1.0 < p.alpha < 2.0:
        errors.append(f"[problem] alpha must lie in (1, 2), got {p.alpha}")
    if p.T <= 0:
        errors.append(f"[problem] T must be positive, got {p.T}")
    if p.jordan_size < 1:
        errors.append(f"[problem] jordan_size must be at least 1, got {p.jordan_size}")
    if p.kind not in ("elliptic", "jordan"):
        errors.append(f"[problem] kind must be elliptic or jordan, got {p.kind!r}")

    s = cfg.spectral
    if s.cluster_tol is not None and s.cluster_tol < 0:
        errors.append(f"[spectral] cluster_tol must be nonnegative or auto, got {s.cluster_tol}")

    o = cfg.observation
    if o.horizon is not None and o.horizon <= 0:
        errors.append(f"[observation] horizon must be positive, got {o.horizon}")
    if o.route not in _ROUTES:
        errors.append(f"[observation] route must be one of {_ROUTES}, got {o.route!r}")

    i = cfg.inversion
    if i.method not in ("tikhonov", "tsvd"):
        errors.append(f"[inversion] method must be tikhonov or tsvd, got {i.method!r}")
    if i.noise < 0:
        errors.append(f"[inversion] noise must be nonnegative, got {i.noise}")
    if i.reg_scale < 0:  # 0 is the unregularized inverse
        errors.append(f"[inversion] reg_scale must be nonnegative, got {i.reg_scale}")
    if i.tsvd_rank is not None and i.tsvd_rank < 1:
        errors.append(f"[inversion] tsvd_rank must be at least 1, got {i.tsvd_rank}")
    # noise > 0 without a seed is rejected at synthesis time, so the --seed
    # flag can still supply one

    if errors:
        raise ConfigError("; ".join(errors))
    return cfg


def load_config(path) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config_text(text)
