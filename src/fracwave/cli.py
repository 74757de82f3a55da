"""Batch experiment driver.

Subcommands: simulate | spectrum | observability | invert | selftest.
Every run writes a manifest.json echoing the fully resolved configuration
(defaults included); identical config and seed give byte-identical CSVs.

Exit codes: 0 success, 1 config error, 2 numerical failure, 3 acceptance failure.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys

import numpy as np

from . import __version__
from .config import ExperimentConfig, load_config
from .errors import ConfigError, FracwaveError, NumericsError
from .fraccalc import TimeGrid
from .observability import (
    ObservationMap,
    ObservationSetup,
    _write_json,
    build_observation_map,
    injectivity_report,
    invert_source,
    synthesize_observations,
    write_recovery_csv,
    write_singular_values_csv,
)
from .solver import LaplaceContour, route_difference, solve
from .spectral import (
    compute_riesz_data,
    contour_difference,
    eigendecompose,
    write_spectrum_csv,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICS = 2
EXIT_ACCEPTANCE = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits with 2; config errors are 1
        raise ConfigError(message)


def _write_manifest(
    outdir: str, command: str, cfg: ExperimentConfig | None, outputs: list, extra: dict | None = None
):
    manifest = {
        "command": command,
        "version": __version__,
        "config": cfg.resolved() if cfg is not None else None,
        "outputs": sorted(os.path.basename(p) for p in outputs),
    }
    if extra:
        manifest.update(extra)
    _write_json(os.path.join(outdir, "manifest.json"), manifest)


def _write_slices(outdir: str, route: str, labels, states) -> list:
    paths = []
    for label, state in zip(labels, states):
        path = os.path.join(outdir, f"u_{route}_t{label}.csv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("node,value\n")
            for i, v in enumerate(state):
                fh.write(f"{i},{v:.17g}\n")
        paths.append(path)
    return paths


def _checked(where: str, build, *args, **kwargs):
    """Build an object from config values; its own ValueError is a config error."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _riesz_data(op, cfg: ExperimentConfig):
    """Riesz data of the operator under the [spectral] settings."""
    eigsys = eigendecompose(op, cfg.spectral.cluster_tol)
    return _checked(
        "[spectral] contour_nodes", compute_riesz_data, op, eigsys, cfg.spectral.contour_nodes
    )


def _route_method(cfg: ExperimentConfig, op, route: str, grid: tuple, grid_fields: str):
    """The object that selects ``route`` in :func:`solve`; Riesz data only for spectral."""
    if route == "spectral":
        return _riesz_data(op, cfg)
    if route == "resolvent":
        return _checked("[solver] talbot_nodes", LaplaceContour, cfg.solver.talbot_nodes)
    return _checked(grid_fields, TimeGrid, *grid)


def cmd_simulate(cfg: ExperimentConfig, outdir: str) -> int:
    op = cfg.build_operator()
    source = cfg.build_source()
    times = cfg.solver_times()
    labels = [f"{t:.6g}" for t in times]  # the time in each slice file's name
    for i, label in enumerate(labels):
        if label in labels[:i]:
            first = times[labels.index(label)]
            raise ConfigError(
                f"[solver] times: {float(first)!r} and {float(times[i])!r} share the slice "
                f"file name u_<route>_t{label}.csv; give times that differ in their first "
                f"6 significant digits"
            )
    grid = (cfg.problem.T, cfg.problem.K)
    outputs = []
    solutions = {}
    for route in dict.fromkeys(cfg.solver.routes):
        method = _route_method(cfg, op, route, grid, "[problem] T, K")
        sol = _checked("[solver] times", solve, op, source, cfg.problem.alpha, times, method)
        solutions[route] = sol
        outputs += _write_slices(outdir, route, labels, sol.states)

    diff_path = os.path.join(outdir, "route_differences.csv")
    with open(diff_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["time", "route_a", "route_b", "relative_l2_difference"])
        names = list(solutions)
        for ia, name_a in enumerate(names):
            for name_b in names[ia + 1:]:
                rel = route_difference(solutions[name_a], solutions[name_b])
                for t, r in zip(times, rel):
                    writer.writerow([f"{t:.17g}", name_a, name_b, f"{r:.6g}"])
    outputs.append(diff_path)
    route_meta = {route: sol.params for route, sol in solutions.items()}
    _write_manifest(outdir, "simulate", cfg, outputs, extra={"solver_metadata": route_meta})
    return EXIT_OK


def cmd_spectrum(cfg: ExperimentConfig, outdir: str) -> int:
    op = cfg.build_operator()
    riesz = _riesz_data(op, cfg)
    path = os.path.join(outdir, "spectrum.csv")
    write_spectrum_csv(riesz, path, contour_difference(op, riesz))
    _write_manifest(outdir, "spectrum", cfg, [path])
    riesz.check()  # after spectrum.csv, which is the diagnosis
    return EXIT_OK


def _observation_map(cfg: ExperimentConfig, op, mesh) -> ObservationMap:
    """The configured observation map; errors name the config fields."""
    route = cfg.observation.route
    omega, times = cfg.observation_omega(mesh), cfg.observation_times()
    # the time-stepping grid ends at the last sample time
    grid = (float(times.max(initial=0.0)), cfg.observation.timestep_K)
    method = _route_method(cfg, op, route, grid, "[observation] times, timestep_K")
    setup = _checked("[observation]", ObservationSetup, omega, times, method)
    where = "[observation] times"
    if route == "timestep":
        where += " (uniform:M times with timestep_K a multiple of M are grid nodes)"
    return _checked(where, build_observation_map, op, cfg.problem.alpha, setup)


def cmd_observability(cfg: ExperimentConfig, outdir: str) -> int:
    if cfg.problem.kind != "elliptic":
        raise ConfigError("observability requires an elliptic problem")
    op = cfg.build_operator()
    obsmap = _observation_map(cfg, op, cfg.build_mesh())
    rep = injectivity_report(obsmap)
    sv_path = os.path.join(outdir, "singular_values.csv")
    mf_path = os.path.join(outdir, "observation_map.json")
    write_singular_values_csv(obsmap, sv_path, mf_path)
    verdict_path = os.path.join(outdir, "verdict.json")
    verdict = {
        "numerical_rank": rep.numerical_rank,
        "expected_rank": rep.expected_rank,
        "sigma_min": rep.sigma_min,
        "sigma_max": rep.sigma_max,
        "condition": rep.condition if np.isfinite(rep.condition) else "inf",
        "rank_threshold": rep.rank_threshold,
        "verdict": "injective" if rep.injective else "rank-deficient",
    }
    _write_json(verdict_path, verdict)
    _write_manifest(outdir, "observability", cfg, [sv_path, mf_path, verdict_path])
    return EXIT_OK


def cmd_invert(cfg: ExperimentConfig, outdir: str) -> int:
    if cfg.problem.kind != "elliptic":
        raise ConfigError("invert requires an elliptic problem")
    op = cfg.build_operator()
    mesh = cfg.build_mesh()
    source = cfg.build_source(mesh)
    obsmap = _observation_map(cfg, op, mesh)
    inv = cfg.inversion
    data = _checked(
        "[inversion] seed", synthesize_observations, obsmap, source, noise=inv.noise, seed=inv.seed
    )
    result = invert_source(
        obsmap, data, method=inv.method, reg_scale=inv.reg_scale, tsvd_rank=inv.tsvd_rank
    )
    rec_path = os.path.join(outdir, "recovery.csv")
    write_recovery_csv(source, result, rec_path)
    truth = np.concatenate([source.a, source.b])
    guess = np.concatenate([result.a_hat, result.b_hat])
    denom = float(np.linalg.norm(truth))
    summary_path = os.path.join(outdir, "recovery_summary.json")
    summary = {
        "relative_error": float(np.linalg.norm(guess - truth)) / denom if denom > 0 else 0.0,
        "data_residual": result.residual,
        "effective_condition": result.effective_condition,
        "noise": inv.noise,
        "seed": inv.seed,
        **result.params,
    }
    _write_json(summary_path, summary)
    _write_manifest(outdir, "invert", cfg, [rec_path, summary_path])
    return EXIT_OK


def cmd_selftest(only: str | None) -> int:
    from .acceptance import run_all

    selection = None
    if only:
        try:
            selection = {int(v) for v in only.replace(",", " ").split()}
        except ValueError as exc:
            raise ConfigError(f"--only expects criterion numbers, got {only!r}") from exc
    ok = run_all(emit=print, only=selection)
    return EXIT_OK if ok else EXIT_ACCEPTANCE


def build_parser() -> _Parser:
    parser = _Parser(
        prog="fracwave",
        description=(
            "Numerical laboratory for time-fractional wave dynamics with "
            "non-symmetric elliptic operators: forward simulation, spectral "
            "projections, subdomain observability, and inverse source recovery."
        ),
    )
    sub = parser.add_subparsers(dest="command")
    for name, doc in [
        ("simulate", "run forward solver routes and cross-route diff report"),
        ("spectrum", "eigenvalue clusters, Riesz projections, identity residuals"),
        ("observability", "build the observation map and report its injectivity"),
        ("invert", "synthesize observations and recover the source pair"),
    ]:
        p = sub.add_parser(name, help=doc)
        p.add_argument("--config", required=True, help="experiment config (INI)")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument(
            "--route",
            choices=["timestep", "resolvent", "spectral", "all"],
            help="override configured route(s)",
        )
        p.add_argument("--seed", type=int, help="override the inversion seed")
    p = sub.add_parser("selftest", help="run the acceptance suite")
    p.add_argument("--only", help="comma-separated criterion numbers to run")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_help()
            return EXIT_OK
        if args.command == "selftest":
            return cmd_selftest(args.only)
        cfg = load_config(args.config)
        if args.route:
            routes = (
                ("timestep", "resolvent", "spectral") if args.route == "all" else (args.route,)
            )
            cfg.solver.routes = routes
            if args.route != "all":
                cfg.observation.route = args.route
        if args.seed is not None:
            cfg.inversion.seed = args.seed
        os.makedirs(args.out, exist_ok=True)
        handler = {
            "simulate": cmd_simulate,
            "spectrum": cmd_spectrum,
            "observability": cmd_observability,
            "invert": cmd_invert,
        }[args.command]
        return handler(cfg, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericsError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICS
    except FracwaveError as exc:  # pragma: no cover - catch-all for package errors
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICS


if __name__ == "__main__":
    sys.exit(main())
