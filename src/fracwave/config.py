"""Experiment configuration: INI-style sections mirroring the module layout.

Every field has a default; the fully resolved configuration (defaults
included) is echoed into each output manifest so results stay reproducible.
"""

from __future__ import annotations

import configparser
from dataclasses import asdict, dataclass, field

import numpy as np

from .elliptic import CoefficientField, Mesh, assemble, subdomain_indices
from .errors import ConfigError
from .expressions import ExpressionError, compile_expression
from .solver import SourcePair

__all__ = ["ExperimentConfig", "load_config", "parse_config_text"]

_ROUTES = ("timestep", "resolvent", "spectral")


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
            if p.dimension == 1:
                return Mesh((p.domain[0],), (p.domain[1],), (p.interior[0],))
            return Mesh(
                (p.domain[0], p.domain[2]),
                (p.domain[1], p.domain[3]),
                (p.interior[0], p.interior[1]),
            )
        except ValueError as exc:
            raise ConfigError(f"[problem] mesh: {exc}") from exc

    def build_operator(self):
        p = self.problem
        if p.kind == "jordan":
            n, lam = p.jordan_size, p.jordan_lambda
            mat = lam * np.eye(n) + np.diag(np.ones(n - 1), 1)
            return mat
        mesh = self.build_mesh()
        names = ("x",) if p.dimension == 1 else ("x", "y")
        try:
            kw = dict(
                a11=compile_expression(p.a11, names),
                b1=compile_expression(p.b1, names),
                c=compile_expression(p.c, names),
            )
            if p.dimension == 2:
                kw.update(
                    a22=compile_expression(p.a22, names),
                    a12=compile_expression(p.a12, names),
                    b2=compile_expression(p.b2, names),
                )
        except ExpressionError as exc:
            raise ConfigError(f"[problem] coefficient expression: {exc}") from exc
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
            names = ("x",) if p.dimension == 1 else ("x", "y")
            coords = mesh.interior_coordinates()
        try:
            fa = compile_expression(p.a, names)
            fb = compile_expression(p.b, names)
        except ExpressionError as exc:
            raise ConfigError(f"[problem] data expression: {exc}") from exc
        return SourcePair(fa(*coords), fb(*coords))

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
        om = self.observation.omega
        try:
            if mesh.dimension == 1:
                return subdomain_indices(mesh, (om[0], om[1]))
            return subdomain_indices(mesh, ((om[0], om[1]), (om[2], om[3])))
        except ValueError as exc:
            raise ConfigError(f"[observation] omega: {exc}") from exc


def _get(parser, section, option, cast, default, errors: list):
    if not parser.has_option(section, option):
        return default
    raw = parser.get(section, option).strip()
    if raw == "" or raw.lower() == "auto":
        return default
    try:
        return cast(raw)
    except (ValueError, ConfigError) as exc:
        errors.append(f"[{section}] {option} = {raw!r}: {exc}")
        return default


def _floats(raw: str) -> tuple:
    return tuple(float(v) for v in raw.split())


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


def parse_config_text(text: str) -> ExperimentConfig:
    parser = configparser.ConfigParser()
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config: {exc}") from exc
    known = {"problem", "spectral", "solver", "observation", "inversion"}
    unknown = set(parser.sections()) - known
    if unknown:
        raise ConfigError(f"unknown config sections: {sorted(unknown)}")

    errors: list[str] = []
    cfg = ExperimentConfig()
    p = cfg.problem
    p.kind = _get(parser, "problem", "kind", str, p.kind, errors)
    p.dimension = _get(parser, "problem", "dimension", int, p.dimension, errors)
    if p.dimension not in (1, 2):
        errors.append(f"[problem] dimension must be 1 or 2, got {p.dimension}")
        p.dimension = 1
    default_domain = (0.0, 1.0) if p.dimension == 1 else (0.0, 1.0, 0.0, 1.0)
    default_interior = (32,) if p.dimension == 1 else (16, 16)
    p.domain = _get(parser, "problem", "domain", _floats, default_domain, errors)
    p.interior = _get(parser, "problem", "interior", _ints, default_interior, errors)
    if len(p.domain) != 2 * p.dimension:
        errors.append(
            f"[problem] domain needs {2 * p.dimension} numbers for {p.dimension}D, "
            f"got {len(p.domain)}"
        )
        p.domain = default_domain
    if len(p.interior) == 1 and p.dimension == 2:
        p.interior = (p.interior[0], p.interior[0])
    if len(p.interior) != p.dimension:
        errors.append(f"[problem] interior needs {p.dimension} counts")
        p.interior = default_interior
    for name in ("a11", "a12", "a22", "b1", "b2", "c", "a", "b"):
        setattr(p, name, _get(parser, "problem", name, str, getattr(p, name), errors))
    p.alpha = _get(parser, "problem", "alpha", float, p.alpha, errors)
    if not 1.0 < p.alpha < 2.0:
        errors.append(f"[problem] alpha must lie in (1, 2), got {p.alpha}")
    p.T = _get(parser, "problem", "T", float, p.T, errors)
    if not 0 < p.T < np.inf:  # NaN fails too
        errors.append(f"[problem] T must be positive and finite, got {p.T}")
    p.K = _get(parser, "problem", "K", int, p.K, errors)
    p.jordan_size = _get(parser, "problem", "jordan_size", int, p.jordan_size, errors)
    if p.jordan_size < 1:
        errors.append(f"[problem] jordan_size must be at least 1, got {p.jordan_size}")
    p.jordan_lambda = _get(parser, "problem", "jordan_lambda", float, p.jordan_lambda, errors)
    if p.kind not in ("elliptic", "jordan"):
        errors.append(f"[problem] kind must be elliptic or jordan, got {p.kind!r}")

    s = cfg.spectral
    s.cluster_tol = _get(parser, "spectral", "cluster_tol", float, None, errors)
    if s.cluster_tol is not None and not 0 <= s.cluster_tol < np.inf:  # NaN fails too
        errors.append(
            f"[spectral] cluster_tol must be a finite nonnegative number or auto, "
            f"got {s.cluster_tol}"
        )
    s.contour_nodes = _get(parser, "spectral", "contour_nodes", int, s.contour_nodes, errors)

    so = cfg.solver
    so.routes = _get(parser, "solver", "routes", _routes, so.routes, errors)
    so.talbot_nodes = _get(parser, "solver", "talbot_nodes", int, so.talbot_nodes, errors)
    so.times = _get(parser, "solver", "times", _floats, so.times, errors)

    o = cfg.observation
    o.omega = _get(parser, "observation", "omega", _floats, o.omega, errors)
    o.times = _get(parser, "observation", "times", str, o.times, errors)
    o.horizon = _get(parser, "observation", "horizon", float, None, errors)
    if o.horizon is not None and not 0 < o.horizon < np.inf:
        errors.append(f"[observation] horizon must be positive and finite, got {o.horizon}")
    o.route = _get(parser, "observation", "route", str, o.route, errors)
    if o.route not in _ROUTES:
        errors.append(f"[observation] route must be one of {_ROUTES}, got {o.route!r}")
    o.timestep_K = _get(parser, "observation", "timestep_K", int, o.timestep_K, errors)

    i = cfg.inversion
    i.method = _get(parser, "inversion", "method", str, i.method, errors)
    if i.method not in ("tikhonov", "tsvd"):
        errors.append(f"[inversion] method must be tikhonov or tsvd, got {i.method!r}")
    i.reg_scale = _get(parser, "inversion", "reg_scale", float, i.reg_scale, errors)
    i.tsvd_rank = _get(parser, "inversion", "tsvd_rank", int, None, errors)
    i.noise = _get(parser, "inversion", "noise", float, i.noise, errors)
    if not i.noise >= 0:
        errors.append(f"[inversion] noise must be nonnegative, got {i.noise}")
    if not i.reg_scale >= 0:  # 0 is the unregularized inverse
        errors.append(f"[inversion] reg_scale must be nonnegative, got {i.reg_scale}")
    if i.tsvd_rank is not None and i.tsvd_rank < 1:
        errors.append(f"[inversion] tsvd_rank must be at least 1, got {i.tsvd_rank}")
    # noise > 0 without a seed is rejected at synthesis time, so the --seed
    # flag can still supply one
    i.seed = _get(parser, "inversion", "seed", int, None, errors)

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
