"""Acceptance suite: the package's exit criteria, runnable as a library.

Each criterion is a zero-argument callable returning a CriterionResult; the
pytest wrapper and the command-line ``selftest`` subcommand both execute this
list.  Tolerances are fixed here, not calibrated at run time.

Criterion 6 (full numerical rank of the desk-scale observation map) is
expected to fail in double precision: the map's columns form an analytic
one-parameter family whose singular values decay geometrically (measured
factor ~10^-2.2 per 4 modes), so at N = 32 the smallest ones sit below the
SVD's own rounding floor and no defensible threshold can count 64 of them.
The criterion is still evaluated faithfully and reported honestly; the
companion small-N sweep in ``fracwave.observability`` tests shows the rank
does reach 2N wherever double precision can resolve it (N <= 20).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .config import ExperimentConfig, parse_config_text
from .fraccalc import TimeGrid, TimeSeries, caputo_derivative, mittag_leffler, rl_integral
from .observability import (
    ObservationMap,
    ObservationSetup,
    ProbeVector,
    branch_identity_probe,
    build_observation_map,
    injectivity_report,
    invert_source,
    synthesize_observations,
)
from .solver import (
    LaplaceContour,
    SourcePair,
    growth_probe,
    laplace_identity_check,
    route_difference,
    solve,
)
from .spectral import (
    compute_riesz_data,
    contour_difference,
    eigendecompose,
    lemma3_check,
    verify_identities,
)

__all__ = ["CriterionResult", "CRITERIA", "run_all", "reference_problem"]

ALPHA = 1.5
RECOVERY_SEED = 20240817


@dataclass
class CriterionResult:
    index: int
    name: str
    passed: bool
    details: str
    expected_red: bool = False  # documented-defect criterion; see module docstring
    runtime: float = 0.0


@dataclass
class _Reference:
    """The shared desk-scale problem: 1D, N=32, unit diffusion, unit advection."""

    config: ExperimentConfig
    operator: object
    source: SourcePair
    riesz: object
    _observation: ObservationMap | None = field(default=None, repr=False)

    def observation_map(self) -> ObservationMap:
        """Quarter-domain spectral-route map shared by criteria 6 and 7, built on first use."""
        if self._observation is None:
            cfg = self.config
            omega = cfg.observation_omega(self.operator.mesh)
            setup = ObservationSetup(omega, cfg.observation_times(), self.riesz)
            self._observation = build_observation_map(self.operator, ALPHA, setup)
        return self._observation


_REF: _Reference | None = None


def reference_problem() -> _Reference:
    """The experiment of ``configs/demo.ini``, which the config defaults
    describe apart from the advection and the source pair."""
    global _REF
    if _REF is None:
        cfg = parse_config_text("[problem]\nb1 = 1\na = sin(pi*x)\nb = x*(1 - x)\n")
        op = cfg.build_operator()
        eigsys = eigendecompose(op, cfg.spectral.cluster_tol)
        riesz = compute_riesz_data(op, eigsys, cfg.spectral.contour_nodes)
        _REF = _Reference(cfg, op, cfg.build_source(op.mesh), riesz)
    return _REF


def criterion_1_inverse_pair() -> CriterionResult:
    """caputo(rl_integral(t^3)) recovers t^3, error <= 0.02 at K=512 and
    contracting by at least 0.6 under one refinement."""
    errs = {}
    for K in (512, 1024):
        grid = TimeGrid(1.0, K)
        v = TimeSeries(grid, grid.nodes**3)
        back = caputo_derivative(rl_integral(v, ALPHA), ALPHA)
        errs[K] = float(np.max(np.abs(back.values - v.values)))
    ok = errs[512] <= 0.02 and errs[1024] <= 0.6 * errs[512]
    return CriterionResult(
        1,
        "fractional-calculus inverse pair",
        ok,
        f"sup error K=512: {errs[512]:.3e} (<= 0.02), "
        f"K=1024: {errs[1024]:.3e} (ratio {errs[1024] / errs[512]:.3f} <= 0.6)",
    )


def criterion_2_mittag_leffler() -> CriterionResult:
    e_err = abs(mittag_leffler(1.0, 1.0, 1.0) - math.e)
    cos_err = max(
        abs(mittag_leffler(2.0, 1.0, -(t * t)) - math.cos(t))
        for t in np.arange(1, 31) * 0.1
    )
    ok = e_err <= 1e-12 and cos_err <= 1e-10
    return CriterionResult(
        2,
        "Mittag-Leffler accuracy",
        ok,
        f"|E_11(1) - e| = {e_err:.2e} (<= 1e-12), "
        f"max |E_21(-t^2) - cos t| = {cos_err:.2e} (<= 1e-10)",
    )


def criterion_3_cross_route() -> CriterionResult:
    ref = reference_problem()
    times = [0.25, 0.5, 1.0]
    u_step, u_res, u_spec = (
        solve(ref.operator, ref.source, ALPHA, times, method)
        for method in (TimeGrid(1.0, 1024), LaplaceContour(), ref.riesz)
    )
    d_ts = max(route_difference(u_step, u_res).max(), route_difference(u_step, u_spec).max())
    d_rs = route_difference(u_res, u_spec).max()
    ok = d_ts <= 1e-3 and d_rs <= 1e-6
    return CriterionResult(
        3,
        "cross-route agreement",
        ok,
        f"timestep vs others: {d_ts:.3e} (<= 1e-3), "
        f"resolvent vs spectral: {d_rs:.3e} (<= 1e-6)",
    )


def criterion_4_spectral_identities() -> CriterionResult:
    tol = 1e-8
    worst = 0.0
    pieces = []
    ref = reference_problem()
    fixtures = [
        ("reference operator", ref.operator, ref.riesz),
        ("2x2 Jordan", np.array([[5.0, 1.0], [0.0, 5.0]]), None),
        ("3x3 Jordan", 2.0 * np.eye(3) + np.diag([1.0, 1.0], 1), None),
    ]
    for name, A, riesz in fixtures:
        if riesz is None:
            riesz = compute_riesz_data(A, eigendecompose(A, cluster_tol=1e-6))
        m = verify_identities(A, riesz, tol).worst
        worst = max(worst, m)
        pieces.append(f"{name}: {m:.2e}")
    J = np.array([[5.0, 1.0], [0.0, 5.0]])
    rdj = compute_riesz_data(J, eigendecompose(J, cluster_tol=1e-6))
    lem = lemma3_check(J, 5.0, rdj.projections[0], rdj.nilpotents[0], np.array([0.0, 1.0]))
    # eigenvector projections of the reference operator against the contour,
    # both applied to the cross-check's four unit probes
    contour = float(contour_difference(ref.operator, ref.riesz).max())
    ok = worst <= tol and lem.residual <= tol and lem.k0 == 2 and contour <= tol
    return CriterionResult(
        4,
        "projection-algebra identities",
        ok,
        "; ".join(pieces) + f"; descent residual (Jordan, k0={lem.k0}): {lem.residual:.2e}"
        f"; reference contour difference on 4 unit probes: {contour:.2e} (all <= {tol:.0e})",
    )


def criterion_5_laplace_identity() -> CriterionResult:
    ref = reference_problem()
    grid = TimeGrid(20.0, 2048)
    u = solve(ref.operator, ref.source, ALPHA, grid.nodes, grid)
    rows = laplace_identity_check(u, ref.source, ref.operator, ALPHA, [2.0, 3.0, 4.0])
    worst = max(r.residual for r in rows)
    ok = worst <= 1e-2 and all(r.conclusive for r in rows)
    details = ", ".join(f"p={r.p.real:g}: {r.residual:.2e}" for r in rows)
    return CriterionResult(
        5, "transform-domain identity", ok, details + " (all <= 1e-2, conclusive)"
    )


def criterion_6_observability_rank() -> CriterionResult:
    rep = injectivity_report(reference_problem().observation_map())
    ok = rep.injective and rep.numerical_rank == rep.expected_rank
    return CriterionResult(
        6,
        "observation-map full rank",
        ok,
        f"numerical rank {rep.numerical_rank}/{rep.expected_rank}, "
        f"sigma_min {rep.sigma_min:.3e}, sigma_max {rep.sigma_max:.3e}, "
        f"sigma_min/sigma_max {rep.sigma_min / rep.sigma_max:.3e}, "
        f"verdict {'injective' if rep.injective else 'NOT injective'} "
        f"(documented double-precision limit: the singular spectrum decays "
        f"geometrically and bottoms out at the rounding floor near index 59)",
        expected_red=True,
    )


def criterion_7_recovery() -> CriterionResult:
    ref = reference_problem()
    obsmap = ref.observation_map()
    data = synthesize_observations(obsmap, ref.source, noise=1e-3, seed=RECOVERY_SEED)
    result = invert_source(obsmap, data)  # Tikhonov default
    truth = np.concatenate([ref.source.a, ref.source.b])
    guess = np.concatenate([result.a_hat, result.b_hat])
    rel = float(np.linalg.norm(guess - truth) / np.linalg.norm(truth))
    ok = rel <= 0.05
    return CriterionResult(
        7,
        "inverse-source recovery",
        ok,
        f"relative error {rel:.4f} (<= 0.05) at noise 1e-3, seed {RECOVERY_SEED}, "
        f"lambda_reg = {result.params['lambda_reg']:.3e} (default scale "
        f"{result.params['reg_scale']:.0e} * sigma_1^2); build-time value 0.043",
    )


def criterion_8_branch_probe() -> CriterionResult:
    A = np.array([[1.0]])
    psi = ProbeVector.canonical(1, [0])
    etas = np.linspace(-20.0, -0.5, 20)
    rows = branch_identity_probe(A, [1.0], [0.0], psi, ALPHA, etas)
    res_min = min(r.residual for r in rows)
    rows0 = branch_identity_probe(A, [0.0], [0.0], psi, ALPHA, etas)
    res_zero = max(r.residual for r in rows0)
    ok = res_min >= 0.1 and res_zero == 0.0
    return CriterionResult(
        8,
        "branch-identity probe",
        ok,
        f"min residual over 20 samples: {res_min:.3f} (>= 0.1), "
        f"zero-data residual: {res_zero:.1e} (= 0)",
    )


def criterion_9_growth_bound() -> CriterionResult:
    ref = reference_problem()
    grid = TimeGrid(5.0, 1024)
    u = solve(ref.operator, ref.source, ALPHA, grid.nodes, grid)
    fit = growth_probe(u)
    norms = np.linalg.norm(u.states, axis=1)
    envelope = fit.C1 * np.exp(fit.C2 * u.times)
    holds = bool(np.all(norms <= envelope * (1.0 + 1e-12)))
    ok = holds and fit.C2 <= 0.1
    return CriterionResult(
        9,
        "exponential growth envelope",
        ok,
        f"C1 = {fit.C1:.3f}, C2 = {fit.C2:.3f} (<= 0.1), envelope holds at all "
        f"{len(norms)} samples: {holds}",
    )


CRITERIA = [
    criterion_1_inverse_pair,
    criterion_2_mittag_leffler,
    criterion_3_cross_route,
    criterion_4_spectral_identities,
    criterion_5_laplace_identity,
    criterion_6_observability_rank,
    criterion_7_recovery,
    criterion_8_branch_probe,
    criterion_9_growth_bound,
]

RUNTIME_LIMITS = {1: 5.0, 3: 60.0, 6: 120.0}


def run_criterion(fn) -> CriterionResult:
    start = time.perf_counter()
    result = fn()
    result.runtime = time.perf_counter() - start
    limit = RUNTIME_LIMITS.get(result.index)
    if limit is not None and result.runtime > limit:
        result.passed = False
        result.details += f"; RUNTIME {result.runtime:.1f}s exceeds {limit:.0f}s"
    return result


def run_all(emit=print, only: set[int] | None = None) -> bool:
    """Run the acceptance criteria, one pass/fail line each; True if all pass."""
    all_ok = True
    for pos, fn in enumerate(CRITERIA, start=1):
        if only is not None and pos not in only:
            continue
        result = run_criterion(fn)
        status = "PASS" if result.passed else "FAIL"
        note = " [documented defect]" if (not result.passed and result.expected_red) else ""
        emit(
            f"[{status}] criterion {result.index} ({result.name}): "
            f"{result.details} [{result.runtime:.1f}s]{note}"
        )
        all_ok = all_ok and result.passed
    return all_ok
