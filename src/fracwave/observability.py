"""Subdomain observability and inverse source recovery.

The map (a, b) -> u restricted to omega x sample-times is linear in the data,
so it has a matrix representation M = [S_1 | S_2] restricted to the omega
rows, where u(t) = S_1(t) a + S_2(t) b.  Every route's solution operator is a
function of A, S(t) = f_t(A), and f_t(A)^T = f_t(A^T), so the omega rows of
S(t) are the solutions of A^T from the |omega| unit sources e_i, i in omega:
the map costs 2|omega| forward solves, not 2N.  The setup carries the solver
route as the object that selects it in :func:`fracwave.solver.solve` (a
TimeGrid, a LaplaceContour or RieszData), so the map is one call to it.
Its singular spectrum quantifies, at desk scale, whether observing the
solution on an arbitrary subdomain determines the data pair: trivial kernel
(sigma_min > 0, numerical rank 2N) is the finite-dimensional shadow of the
uniqueness statement for the continuum problem.

Discrete unique continuation is treated as an empirical property: the map's
numerical rank (:func:`injectivity_report`) measures it instead of assuming
it.  The module also carries the branch-identity probe, which links the
resolvents of a and b through the fractional power (-eta)^(1/alpha).
"""

from __future__ import annotations

import csv
import functools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .elliptic import as_matrix
from .errors import ContourError, NumericsError
from .fraccalc import TimeGrid
from .solver import LaplaceContour, SourcePair, _Transposed, solve
from .spectral import RieszData

__all__ = [
    "ObservationSetup",
    "ObservationMap",
    "ProbeVector",
    "InjectivityReport",
    "BranchSample",
    "InversionResult",
    "build_observation_map",
    "injectivity_report",
    "branch_identity_probe",
    "invert_source",
    "synthesize_observations",
    "write_singular_values_csv",
    "write_recovery_csv",
]

# lambda_reg = scale * sigma_1^2; 1e-6 balances bias against noise amplification
# at the per-mille noise levels of the standard recovery experiments (smaller
# scales were measured to amplify 1e-3 relative noise into >10x larger data
# errors on the desk-scale problems)
TIKHONOV_SCALE_DEFAULT = 1e-6


@dataclass
class ObservationSetup:
    """Where and when the solution is observed, and the route that solves it.

    ``method`` is passed to :func:`fracwave.solver.solve`: RieszData for the
    mode sum, a LaplaceContour for Talbot inversion, or a TimeGrid whose
    nodes include the sample times for time stepping.
    """

    omega_indices: np.ndarray
    sample_times: np.ndarray
    method: TimeGrid | LaplaceContour | RieszData

    def __post_init__(self):
        self.omega_indices = np.asarray(self.omega_indices, dtype=int)
        self.sample_times = np.asarray(self.sample_times, dtype=float)
        if self.omega_indices.size == 0:
            raise ValueError("observation subdomain is empty")
        if self.sample_times.size == 0:
            raise ValueError("no sample times")
        if not np.all(np.isfinite(self.sample_times)):
            raise ValueError("sample times must be finite")
        if np.any(self.sample_times <= 0.0) or np.any(np.diff(self.sample_times) <= 0.0):
            raise ValueError("sample times must be strictly increasing and positive")


@dataclass(frozen=True)
class ObservationMap:
    """Matrix of the data-to-observations map.

    Row ordering is time-major: row = time_index * |omega| + omega_position.
    Columns 0..N-1 are unit a-sources, columns N..2N-1 unit b-sources.
    Its readers decompose it only as far as they need:
    :attr:`singular_values` is a values-only SVD, computed on first read and
    kept (the map is frozen, so it cannot go stale), and
    :func:`invert_source` takes the full SVD itself.
    """

    matrix: np.ndarray = field(repr=False)
    setup: ObservationSetup
    n_dof: int  # N; the map has 2N columns
    params: dict = field(default_factory=dict)

    @property
    def shape(self) -> tuple[int, int]:
        return self.matrix.shape

    @functools.cached_property
    def singular_values(self) -> np.ndarray:
        """The map's singular values, largest first (no singular vectors)."""
        return np.linalg.svd(self.matrix, compute_uv=False)


def build_observation_map(A, alpha: float, setup: ObservationSetup) -> ObservationMap:
    """Assemble the (|omega| * |times|) x 2N observation matrix.

    Column j is the forward solution of the j-th unit source (a-basis first,
    then b-basis) restricted to omega x sample-times; linearity of the
    evolution in (a, b) justifies the matrix representation.  Since each
    route's solution operator is f_t(A) and f_t(A)^T = f_t(A^T), the map's
    rows are built as columns of the transposed problem: one call of
    :func:`fracwave.solver.solve` with A^T on the 2|omega| unit sources
    SourcePair([E_w 0], [0 E_w]), E_w holding the unit vectors e_i for i in
    omega, gives states[t, j, i] = M[t * |omega| + i, j] (a-half, likewise
    the b-half).  That is 2|omega| solves instead of 2N.  The spectral route
    solves with the transposed Riesz data P_n^T, D_n^T; the time-step
    stability refusal and the Talbot contour scale are decided from A itself.
    """
    mat = as_matrix(A)
    n = mat.shape[0]
    omega = setup.omega_indices
    if np.any(omega < 0) or np.any(omega >= n):
        raise ValueError("omega indices outside the operator's index range")
    n_times, w = setup.sample_times.size, omega.size
    e_w, zero = np.eye(n)[:, omega], np.zeros((n, w))
    units = SourcePair(np.hstack([e_w, zero]), np.hstack([zero, e_w]))
    method = setup.method.transpose() if isinstance(setup.method, RieszData) else setup.method
    sol = solve(_Transposed.of(mat), units, alpha, setup.sample_times, method)
    # states[t, j, h * w + i] -> M[t * w + i, h * n + j], h = 0 (a) or 1 (b)
    M = sol.states.reshape(n_times, n, 2, w).transpose(0, 3, 2, 1).reshape(n_times * w, 2 * n)

    return ObservationMap(
        matrix=M,
        setup=setup,
        n_dof=n,
        params={
            "alpha": alpha,
            "route": sol.route,
            "row_order": "time-major (row = time_index * |omega| + omega_position)",
            "column_order": "a-basis columns 0..N-1, then b-basis columns N..2N-1",
        },
    )


@dataclass
class InjectivityReport:
    sigma_min: float
    sigma_max: float
    condition: float
    numerical_rank: int
    expected_rank: int
    injective: bool
    rank_threshold: float


def injectivity_report(obsmap: ObservationMap) -> InjectivityReport:
    """Numerical rank of the observation map against the full-rank expectation.

    The threshold is the LAPACK-style max(shape) * eps * sigma_1.  Below full
    rank the condition number is inf: sigma_min is then at rounding level,
    and sigma_1 / sigma_min would report that noise as a figure.
    """
    s = obsmap.singular_values
    smax = float(s[0]) if s.size else 0.0
    thresh = max(obsmap.shape) * np.finfo(float).eps * smax
    rank = int(np.sum(s > thresh))
    expected = 2 * obsmap.n_dof
    # fewer rows than columns: the column map has a genuine kernel
    smin = float(s[-1]) if s.size >= expected else 0.0
    return InjectivityReport(
        sigma_min=smin,
        sigma_max=smax,
        condition=smax / smin if rank == expected else math.inf,
        numerical_rank=rank,
        expected_rank=expected,
        injective=rank == expected,
        rank_threshold=thresh,
    )


# ---------------------------------------------------------------------------
# Branch identity probe
# ---------------------------------------------------------------------------


@dataclass
class ProbeVector:
    """Unit test vector supported on the observation subdomain."""

    values: np.ndarray
    omega_indices: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        self.omega_indices = np.asarray(self.omega_indices, dtype=int)
        mask = np.ones(self.values.shape[0], dtype=bool)
        mask[self.omega_indices] = False
        if np.any(self.values[mask] != 0.0):
            raise ValueError("probe vector has support outside omega")
        nrm = np.linalg.norm(self.values)
        if nrm == 0.0:
            raise ValueError("probe vector is zero")
        self.values = self.values / nrm

    @classmethod
    def canonical(cls, n: int, omega_indices, position: int = 0) -> "ProbeVector":
        v = np.zeros(n)
        v[np.asarray(omega_indices, dtype=int)[position]] = 1.0
        return cls(v, omega_indices)


@dataclass
class BranchSample:
    eta: complex
    f_psi: complex
    g_psi: complex
    residual: float


def branch_identity_probe(A, a, b, psi: ProbeVector, alpha: float, eta_samples) -> list[BranchSample]:
    """Tabulate f, g and the residual of  (-eta)^(1/alpha) f(eta) + g(eta) = 0.

    f(eta) = <(A - eta)^(-1) a, psi> and g likewise for b, with the inner
    product over omega (psi is supported there) and the principal branch of
    the fractional power.  For generic nonzero data the identity can hold on
    an eta-continuum only if f and g both vanish, so a residual bounded away
    from zero is the expected, falsifiable outcome.
    """
    mat = as_matrix(A).astype(complex)
    n = mat.shape[0]
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    eig = np.linalg.eigvals(mat)
    scale = max(1.0, float(np.max(np.abs(eig))))
    rows = []
    eye = np.eye(n, dtype=complex)
    for eta in np.atleast_1d(np.asarray(eta_samples, dtype=complex)):
        if np.min(np.abs(eta - eig)) < 1e-8 * scale:
            raise ContourError(f"eta sample {eta:.6g} too close to the spectrum")
        ra = np.linalg.solve(mat - eta * eye, a)
        rb = np.linalg.solve(mat - eta * eye, b)
        f = complex(np.vdot(psi.values, ra))
        g = complex(np.vdot(psi.values, rb))
        branch = (-eta) ** (1.0 / alpha)
        rows.append(BranchSample(complex(eta), f, g, abs(branch * f + g)))
    return rows


# ---------------------------------------------------------------------------
# Regularized inversion
# ---------------------------------------------------------------------------


@dataclass
class InversionResult:
    a_hat: np.ndarray
    b_hat: np.ndarray
    residual: float
    effective_condition: float
    params: dict = field(default_factory=dict)


def invert_source(
    obsmap: ObservationMap,
    data: np.ndarray,
    method: str = "tikhonov",
    reg_scale: float = TIKHONOV_SCALE_DEFAULT,
    tsvd_rank: int | None = None,
) -> InversionResult:
    """Recover (a, b) from samples observed through ``obsmap`` by regularized least squares.

    Tikhonov: x = argmin ||M x - data||^2 + lambda ||x||^2 with
    lambda = reg_scale * sigma_1^2, solved through the map's full SVD, taken
    here.
    Truncated SVD: pseudo-inverse keeping ``tsvd_rank`` modes.  No automatic
    parameter selection: fixed, logged values keep experiments deterministic.
    """
    data = np.asarray(data, dtype=float).reshape(-1)
    if data.shape[0] != obsmap.shape[0]:
        raise ValueError(
            f"data length {data.shape[0]} does not match map rows {obsmap.shape[0]}"
        )
    u, s, vt = np.linalg.svd(obsmap.matrix, full_matrices=False)
    if s[0] == 0.0:
        raise NumericsError("observation map is identically zero")
    coeffs = u.T @ data
    if method == "tikhonov":
        lam = reg_scale * s[0] ** 2
        filt = s / (s**2 + lam)
        cond_eff = float(s[0] * np.max(filt))
        params = {"method": "tikhonov", "lambda_reg": lam, "reg_scale": reg_scale}
    elif method == "tsvd":
        k = tsvd_rank if tsvd_rank is not None else int(np.sum(s > 1e-10 * s[0]))
        k = max(1, min(k, s.size))
        filt = np.zeros_like(s)
        filt[:k] = 1.0 / s[:k]
        cond_eff = float(s[0] / s[k - 1])
        params = {"method": "tsvd", "rank": k}
    else:
        raise ValueError(f"unknown regularization method {method!r}")
    x = vt.T @ (filt * coeffs)
    n = obsmap.n_dof
    resid = float(np.linalg.norm(obsmap.matrix @ x - data))
    return InversionResult(
        a_hat=x[:n].copy(),
        b_hat=x[n:].copy(),
        residual=resid,
        effective_condition=cond_eff,
        params=params,
    )


def synthesize_observations(
    obsmap: ObservationMap,
    source: SourcePair,
    noise: float = 0.0,
    seed: int | None = None,
) -> np.ndarray:
    """Forward data M (a, b) plus additive Gaussian noise.

    The noise level is relative to the max-norm of the clean data; nonzero
    noise demands an explicit seed so experiments stay reproducible.
    """
    x = np.concatenate([source.a, source.b])
    data = obsmap.matrix @ x
    if noise > 0.0:
        if seed is None:
            raise ValueError("nonzero noise requires an explicit seed")
        rng = np.random.default_rng(seed)
        data = data + noise * np.max(np.abs(data)) * rng.standard_normal(data.shape)
    return data


def write_singular_values_csv(obsmap: ObservationMap, csv_path, manifest_path=None) -> None:
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["index", "sigma"])
        for i, sv in enumerate(obsmap.singular_values):
            writer.writerow([i, f"{sv:.17g}"])
    if manifest_path is not None:
        manifest = {
            "rows": int(obsmap.shape[0]),
            "cols": int(obsmap.shape[1]),
            "n_dof": int(obsmap.n_dof),
            "omega_size": int(obsmap.setup.omega_indices.size),
            "n_times": int(obsmap.setup.sample_times.size),
            **obsmap.params,
        }
        _write_json(manifest_path, manifest)


def _write_json(path, obj) -> None:
    """Every JSON output: indented, sorted keys, a trailing newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")


def write_recovery_csv(source_true: SourcePair, result: InversionResult, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["node", "a_true", "a_hat", "b_true", "b_hat"])
        for i in range(source_true.size):
            writer.writerow(
                [
                    i,
                    f"{source_true.a[i]:.17g}",
                    f"{result.a_hat[i]:.17g}",
                    f"{source_true.b[i]:.17g}",
                    f"{result.b_hat[i]:.17g}",
                ]
            )
