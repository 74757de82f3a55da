"""Per-layer spans and counters, recorded around the program's public functions.

:meth:`Tracer.install` replaces each function in ``LAYERS``, in every loaded
``fracwave`` module that refers to it, with a wrapper that records a span
(its duration and the part of it covered by child spans) and updates the
layer's counters.  The program itself is not modified, and
:meth:`Tracer.uninstall` puts the originals back.  A function missing from
the program is skipped, and its metrics read 0.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from collections import defaultdict

import numpy as np

# |z| up to which mittag_leffler sums the power series when alpha >= 1; fixed
# here so the regime counts keep their meaning if the program's dispatch moves
SERIES_RADIUS = 10.0


def _riesz_solves(arg, counts):
    # one resolvent solve per contour node per cluster
    counts["spectral.riesz_solves"] += arg["eigsys"].n_clusters * arg["nodes"]


def _ml_regime(arg, counts):
    regime = "series" if abs(arg["z"]) <= SERIES_RADIUS else "large"
    counts[f"fraccalc.ml_{regime}_calls"] += 1


def _quad_calls(arg, counts):
    counts["fraccalc.quad_calls"] += 1


def _timestep_steps(arg, counts):
    counts["solver.timestep_steps"] += arg["grid"].K


def _resolvent_node_solves(arg, counts):
    # conjugate symmetry: nodes / 2 solves per output time
    contour = arg["contour"] or importlib.import_module("fracwave.solver").LaplaceContour()
    counts["solver.resolvent_node_solves"] += np.size(arg["times"]) * (contour.nodes // 2)


# (module, function, span name, counter)
LAYERS = (
    ("cli", "main", "cli", None),
    ("config", "load_config", "config.load", None),
    ("elliptic", "assemble", "elliptic.assemble", None),
    ("spectral", "eigendecompose", "spectral.eigendecompose", None),
    ("spectral", "compute_riesz_data", "spectral.riesz", _riesz_solves),
    ("spectral", "verify_identities", "spectral.verify", None),
    ("fraccalc", "mittag_leffler", "fraccalc.ml", _ml_regime),
    ("fraccalc", "quad", "fraccalc.quad", _quad_calls),
    ("solver", "solve_timestep", "solver.timestep", _timestep_steps),
    ("solver", "solve_resolvent", "solver.resolvent", _resolvent_node_solves),
    ("solver", "solve_spectral_oracle", "solver.spectral", None),
    ("observability", "build_observation_map", "observability.map", None),
    ("observability", "invert_source", "observability.invert", None),
)

# reported metric -> (kind, span or counter); kind "total" is a span's whole
# duration, "self" its duration minus its child spans
METRICS = {
    "config.load_s": ("total", "config.load"),
    "elliptic.assemble_s": ("total", "elliptic.assemble"),
    "spectral.eigendecompose_s": ("total", "spectral.eigendecompose"),
    "spectral.riesz_s": ("total", "spectral.riesz"),
    "spectral.verify_s": ("total", "spectral.verify"),
    "spectral.riesz_solves": ("count", "spectral.riesz_solves"),
    "fraccalc.ml_series_calls": ("count", "fraccalc.ml_series_calls"),
    "fraccalc.ml_large_calls": ("count", "fraccalc.ml_large_calls"),
    "fraccalc.ml_s": ("total", "fraccalc.ml"),
    "fraccalc.quad_calls": ("count", "fraccalc.quad_calls"),
    "solver.timestep_s": ("total", "solver.timestep"),
    "solver.timestep_steps": ("count", "solver.timestep_steps"),
    "solver.resolvent_s": ("total", "solver.resolvent"),
    "solver.resolvent_node_solves": ("count", "solver.resolvent_node_solves"),
    "solver.spectral_s": ("total", "solver.spectral"),
    "observability.map_s": ("total", "observability.map"),
    "observability.map_self_s": ("self", "observability.map"),
    "observability.invert_s": ("total", "observability.invert"),
    "cli.self_s": ("self", "cli"),
}


class Tracer:
    """Spans and counts of the traced layers since the last :meth:`reset`."""

    def __init__(self):
        self._stack: list[list[float]] = []  # child time of each open span
        self._patched: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = defaultdict(int)

    def metrics(self) -> dict[str, float]:
        source = {"total": self.total, "self": self.self_time, "count": self.counts}
        return {name: source[kind][key] for name, (kind, key) in METRICS.items()}

    def _wrap(self, name, fn, counter):
        if counter:
            # cheaper than Signature.bind, which would double the cost of
            # tracing the ~30k Mittag-Leffler and quad calls of a demo-1d pass
            params = inspect.signature(fn).parameters
            names = tuple(params)
            defaults = {k: p.default for k, p in params.items() if p.default is not p.empty}

        def traced(*args, **kwargs):
            if counter:
                counter({**defaults, **dict(zip(names, args)), **kwargs}, self.counts)
            children = [0.0]
            self._stack.append(children)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self._stack.pop()
                if self._stack:
                    self._stack[-1][0] += elapsed
                self.total[name] += elapsed
                self.self_time[name] += elapsed - children[0]

        return traced

    def install(self) -> None:
        owners = {name: importlib.import_module(f"fracwave.{name}") for name, *_ in LAYERS}
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == "fracwave" or key.startswith("fracwave."))
        ]
        for module_name, attr, name, counter in LAYERS:
            original = getattr(owners[module_name], attr, None)
            if original is None:
                continue
            wrapper = self._wrap(name, original, counter)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._patched.append((module, key, original))

    def uninstall(self) -> None:
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()
