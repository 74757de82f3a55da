"""Forward solvers for  d_t^alpha (u - a - b t) = -A u,  1 < alpha < 2.

Three mutually independent routes are provided and cross-validated against
each other; their agreement is the package's core correctness instrument.

* ``solve_timestep``: implicit product-integration scheme on the shifted
  variable w = u - a - b t.  Since w = J^alpha(-A u) with the fractional
  integral J^alpha, the product-trapezoid quadrature of the convolution
  yields at each step a linear solve with the fixed matrix I + kappa0 A;
  the march advances blocks of steps, one product per block.
* ``solve_resolvent``: Bromwich inversion of
  u_hat(p) = (p^alpha + A)^(-1) (p^(alpha-1) a + p^(alpha-2) b)
  by trapezoid quadrature on a cotangent (Talbot) contour; one complex
  linear solve per contour node per output time, covering every column of a
  source block.
* ``solve_spectral_oracle``: Mittag-Leffler mode sum over the Riesz spectral
  decomposition, summed over the eigenvector factors of the simple clusters
  (:meth:`fracwave.spectral.RieszData.mode_sum`); refuses data that fail the
  reliability rule of :meth:`fracwave.spectral.RieszData.check` and
  defective clusters.

Each route takes one source or a block of sources (see :class:`SourcePair`)
and returns :class:`SolutionSamples` with states shaped ``(times, *a.shape)``.
:func:`solve` dispatches on the type of its ``method``: :class:`TimeGrid`
time stepping, :class:`LaplaceContour` Talbot inversion, :class:`RieszData`
mode sum.

The principal branch of p^alpha is used throughout, matching the branch
structure the resolvent representation relies on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .elliptic import as_matrix
from .errors import ContourError, NumericsError
from .fraccalc import TimeGrid, mittag_leffler_kernel, rl_weights
from .spectral import RieszData

__all__ = [
    "SourcePair",
    "SolutionSamples",
    "LaplaceContour",
    "solve_timestep",
    "solve_resolvent",
    "solve_spectral_oracle",
    "laplace_identity_check",
    "LaplaceIdentitySample",
    "growth_probe",
    "GrowthFit",
    "solve",
    "route_difference",
]

_LOG_EPS = -math.log(np.finfo(float).eps)  # ~36.04

# measured stability boundary of the product-trapezoid step on the scalar
# problem (bisection at K = 400): largest kappa0 * lambda with bounded
# trajectories, per order alpha
_PI_STABILITY_TABLE = (
    (1.05, 24.1),
    (1.20, 6.28),
    (1.35, 3.80),
    (1.50, 2.85),
    (1.65, 2.38),
    (1.80, 2.13),
    (1.95, 2.01),
)

# steps per chunk of the time-step march: on the routes-1d map inputs (N = 32,
# 16 sources, one BLAS thread) 16 / 32 / 64 / 128 took 0.012 / 0.011 / 0.010 /
# 0.012 s at K = 512 and 0.36 / 0.26 / 0.24 / 0.26 s at K = 4,096
_CHUNK = 64
# steps per product within a chunk (see _block_gain), a divisor of _CHUNK.
# Against an 80-bit march (400 draws at alpha 1.85-1.95, kappa0 * ||A|| = 1.8,
# K <= 300) the median error was 1.02 / 1.21 / 1.71 times that of a march
# forming u_k = S r_k and A u_k at every step, for 2 / 4 / 8 steps
_BLOCK = 4
# most rows of the gain: a block of B steps costs B N^2 m flops per step, so
# the march halves B until B * N <= _GAIN_ROWS (at most 295 kB of gain).
# With one BLAS thread (K = 1,024, m = 1 and 16) 4 steps were fastest up to
# N = 48 and 2 at N = 64-96, and at N = 256 4 steps took 2-4x as long as one
_GAIN_ROWS = 192


def _pi_stability_limit(alpha: float) -> float:
    """Interpolated stability bound on kappa0 * ||A||, with a 0.9 margin;
    constant beyond the ends of the table."""
    xs, ys = zip(*_PI_STABILITY_TABLE)
    return 0.9 * float(np.interp(alpha, xs, ys))


@dataclass
class SourcePair:
    """Initial data: u(0) = a and the linear-drift coefficient b.

    Both live on interior nodes, so a vanishes on the boundary by construction.
    Each is a vector (N,) or a block (N, m) whose m columns are m sources.
    Every route solves a block at once: ``solve_timestep`` advances all
    columns with one product per block of steps, and names the lowest
    column whose trajectory turns non-finite.
    """

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        self.a = np.atleast_1d(np.asarray(self.a, dtype=float))
        self.b = np.atleast_1d(np.asarray(self.b, dtype=float))
        if self.a.shape != self.b.shape or self.a.ndim > 2:
            raise ValueError(
                f"a and b must be vectors (N,) or blocks (N, m) of equal shape, "
                f"got {self.a.shape} vs {self.b.shape}"
            )
        if not (np.all(np.isfinite(self.a)) and np.all(np.isfinite(self.b))):
            raise ValueError("source data contain non-finite entries")

    @property
    def size(self) -> int:
        return self.a.shape[0]


@dataclass
class SolutionSamples:
    """States at selected times, as every route returns them."""

    times: np.ndarray
    states: np.ndarray = field(repr=False)  # (len(times), N) or (len(times), N, m)
    route: str = ""
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        if self.states.shape[0] != self.times.shape[0]:
            raise ValueError("states must hold one vector per sample time")


@dataclass(frozen=True)
class _Transposed:
    """A^T, solved with the decisions of A.

    The time-step stability refusal and the Talbot contour scale are decided
    from ||A||_inf.  For A^T that norm is ||A||_1, which differs from it under
    variable coefficients, so the transpose carries A's norm along: a solve
    with A^T refuses a grid and scales its contour exactly as one with A.
    """

    matrix: np.ndarray
    norm_inf: float

    @classmethod
    def of(cls, A) -> "_Transposed":
        mat = as_matrix(A)
        return cls(np.ascontiguousarray(mat.T), float(np.linalg.norm(mat, np.inf)))


def _operator(A, dtype) -> tuple[np.ndarray, float]:
    """The matrix of A as ``dtype`` and the norm ||A||_inf the routes decide from."""
    if isinstance(A, _Transposed):
        return A.matrix.astype(dtype), A.norm_inf
    mat = as_matrix(A).astype(dtype)
    return mat, float(np.linalg.norm(mat, np.inf))


def _check_alpha(alpha: float) -> None:
    if not (1.0 < alpha < 2.0):
        raise ValueError(f"equation order must satisfy 1 < alpha < 2, got {alpha}")


# ---------------------------------------------------------------------------
# Route 1: implicit product-integration time stepping
# ---------------------------------------------------------------------------


def _block_gain(G: np.ndarray, w: np.ndarray, kappa0: float, B: int) -> np.ndarray:
    """The (B N, B N) map from rho to the history rows of B successive steps.

    With S = (I + kappa0 A)^-1 and G = A S, step k of a block that starts at
    step k_b solves u_k = S r_k with r_k = rho_k - kappa0 * sum_{j=k_b}^{k-1}
    w[k-j] A u_j, where rho_k holds everything that does not depend on the
    block.  The rows y_k = A u_k of steps k_b + d, d < B, are then
    Y_d = sum_{e<=d} M_e rho_{k_b+d-e}, with M_0 = G and
    M_d = -kappa0 * G * sum_{e=1}^{d} w[e] M_{d-e}: a block lower-triangular
    Toeplitz matrix.  Its leading (b N, b N) block serves a block of b < B
    steps.
    """
    n = G.shape[0]
    blocks = [G]
    for d in range(1, B):
        acc = w[1] * blocks[d - 1]
        for e in range(2, d + 1):
            acc = acc + w[e] * blocks[d - e]
        blocks.append(-kappa0 * (G @ acc))
    gain = np.zeros((B * n, B * n))
    for r in range(B):
        for c in range(r + 1):
            gain[r * n : (r + 1) * n, c * n : (c + 1) * n] = blocks[r - c]
    return gain


def solve_timestep(A, source: SourcePair, alpha: float, times, grid: TimeGrid) -> SolutionSamples:
    """March the shifted-variable scheme over the grid and sample it at ``times``.

    With w = u - a - b t the problem reads w = J^alpha(-A u); product-trapezoid
    quadrature of the convolution gives, at step k,

        (I + kappa0 A) u_k = a + b t_k - kappa0 * (c0[k] A u_0
                              + sum_{j=1}^{k-1} w[k-j] A u_j),

    i.e. one linear solve per step with a fixed matrix.  The matrix is
    inverted once per call: I + kappa0 A is near the identity on every grid
    the stability bound admits (condition 1.04 on the demo operator).
    The times must be grid nodes k * T / K; that is checked before the first
    step.  All m columns of a block (m = 1 for one source) advance together.
    The A u_j history is the only O(K N m) array, kept newest first: sums
    that run up from the smallest weight w[1] are 2-3x more accurate.  In
    each chunk of ``_CHUNK`` steps the history older than the chunk enters
    all its steps in one product with the Toeplitz block of weights w[k - j].
    Within the chunk, one product with the matrix of :func:`_block_gain`
    advances B steps: it maps their rho_k, which hold the history before the
    block, to their history rows.  B is ``_BLOCK`` = 4 for N <= 48 (a Python
    iteration per step cost more than the O(K^2) history product at
    K = 1,024) and halves until B N <= ``_GAIN_ROWS``, since the gain costs
    B N^2 m flops per step: from N = 97 on each step is one product with
    G = A S.  The state u_k = S r_k is formed only at a sampled step, and
    the sampled states are kept, shaped (times, *source.a.shape).  A
    non-finite history row raises :class:`NumericsError` naming the lowest
    such column and its first bad step.

    The scheme is implicit but only conditionally stable: the most recent
    history weight 2^(alpha+1) - 2 exceeds 1 for orders above 1, and the
    measured stability boundary on kappa0 * |lambda| shrinks from ~24 near
    alpha = 1 to ~2 near alpha = 2.  Grids violating the (margined, measured)
    bound on kappa0 * ||A||_inf are refused together with the grid size that
    would restore stability, rather than marching into blowup.
    """
    _check_alpha(alpha)
    mat, rho = _operator(A, float)
    n = mat.shape[0]
    if source.size != n:
        raise ValueError(f"source length {source.size} does not match operator size {n}")
    times = np.atleast_1d(np.asarray(times, dtype=float))
    idx = np.rint(times / grid.dt).astype(int)
    tol = 1e-9 * max(1.0, grid.T)
    off = (idx < 0) | (idx > grid.K) | (np.abs(idx * grid.dt - times) > tol)
    if np.any(off):
        bad = times[off]
        shown = ", ".join(f"{t:.3g}" for t in bad[:3]) + (", ..." if bad.size > 3 else "")
        raise ValueError(
            f"times [{shown}] ({bad.size} of {times.size}) are not nodes k * T / K of "
            f"the time-stepping grid (T = {grid.T:g}, K = {grid.K})"
        )
    K = grid.K
    w, c0 = rl_weights(alpha, K)
    kappa0 = grid.dt**alpha / math.gamma(alpha + 2.0)
    limit = _pi_stability_limit(alpha)
    if kappa0 * rho > limit:
        dt_max = (limit * math.gamma(alpha + 2.0) / rho) ** (1.0 / alpha)
        raise NumericsError(
            f"product-integration step is unstable at this resolution: "
            f"kappa0 * ||A|| = {kappa0 * rho:.3g} exceeds the measured "
            f"stability bound {limit:.3g} at alpha = {alpha}; "
            f"use K >= {int(math.ceil(grid.T / dt_max))} for T = {grid.T}"
        )

    step = np.linalg.inv(np.eye(n) + kappa0 * mat)
    block = _BLOCK
    while block > 1 and block * n > _GAIN_ROWS:
        block //= 2
    gain = _block_gain(mat @ step, w, kappa0, min(block, K))
    # the weights w[d + 1 + l] of a block's step d and the chunk's row l
    # before the block, newest first (indices past K are never used)
    recent = w[np.minimum(np.arange(1, block + 1)[:, None] + np.arange(min(_CHUNK, K)), K)]
    t = grid.nodes
    a = source.a.reshape(n, -1)
    b = source.b.reshape(n, -1)
    m = a.shape[1]
    states = np.empty((len(times), n, m))
    states[idx == 0] = a
    hist = np.empty((K + 1, n * m))  # A u_j in row K - j: newest first
    finite = np.ones((K + 1, m), dtype=bool)  # per step and column
    with np.errstate(over="ignore", invalid="ignore"):  # reported per column below
        hist[K] = (mat @ a).ravel()
        for k0 in range(1, K + 1, _CHUNK):
            k1 = min(k0 + _CHUNK, K + 1)
            # the history before the chunk for all of its steps: w[k - j] over
            # j = k0-1 .. 1 is the window of w that starts at k - k0 + 1, and
            # c0[k] weighs A u_0
            toeplitz = sliding_window_view(w, k0 - 1)[1 : k1 - k0 + 1]
            older = np.hstack([toeplitz, c0[k0:k1, None]]) @ hist[K - k0 + 1 :]
            rho = a + t[k0:k1, None, None] * b  # each step's rho_k, see _block_gain
            for kb in range(k0, k1, block):
                i, nb = kb - k0, min(block, k1 - kb)
                h = older[i : i + nb]
                if i:  # the chunk's rows before the block, newest first
                    h = h + recent[:nb, :i] @ hist[K - kb + 1 : K - k0 + 1]
                # kappa0 scales the sum: pre-scaled weights lost accuracy
                rho[i : i + nb] -= kappa0 * h.reshape(nb, n, m)
                y = gain[: nb * n, : nb * n] @ rho[i : i + nb].reshape(nb * n, m)
                hist[K - kb - nb + 1 : K - kb + 1] = y.reshape(nb, n * m)[::-1]
            rows = hist[K - k1 + 1 : K - k0 + 1].reshape(k1 - k0, n, m)[::-1]
            finite[k0:k1] = np.isfinite(rows).all(axis=1)
            if not finite[k0:k1].all():
                # the zero blocks above the diagonal of the gain turn an
                # overflow into NaN at the block's earlier steps too
                for k in range(k0, k1):
                    kb = k - (k - k0) % block
                    part = rho[kb - k0 : k - k0 + 1].reshape(-1, m)
                    y = gain[(k - kb) * n : (k - kb + 1) * n, : part.shape[0]] @ part
                    finite[k] = np.isfinite(y).all(axis=0)
            for s in np.flatnonzero((idx >= k0) & (idx < k1)):
                # u_k = S r_k, with r_k = rho_k less the block's earlier steps
                k = idx[s]
                kb = k - (k - k0) % block
                inner = w[1 : k - kb + 1] @ hist[K - k + 1 : K - kb + 1]
                states[s] = step @ (rho[k - k0] - kappa0 * inner.reshape(n, m))
    if not finite.all():
        j = int(np.argmin(finite.all(axis=0)))
        raise NumericsError(
            f"time stepping produced non-finite state at step "
            f"{int(np.argmin(finite[:, j]))} of source column {j}"
        )
    return SolutionSamples(
        times,
        states.reshape(len(times), *source.a.shape),
        route="timestep",
        params={"K": K, "scheme": "product-trapezoid", "kappa0": kappa0},
    )


# ---------------------------------------------------------------------------
# Route 2: Talbot-contour Laplace inversion
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LaplaceContour:
    """Cotangent (Talbot) contour p = sigma * theta * (cot theta + i).

    ``nodes`` counts quadrature points on the full contour (even; conjugate
    symmetry halves the work).  The scale sigma = r/t is chosen per evaluation
    time: r balances three constraints in double precision — enclosing the
    generalized spectrum {p : -p^alpha in sigma(A)} (radius grows with r),
    roundoff amplification e^r * eps of the dominant nodes, and quadrature
    resolution (r <= 0.4 M).
    The missed-pole error of a non-enclosing contour decays like
    e^(-psi |cot psi| r) with psi = pi/alpha, which fixes the balanced r.
    """

    nodes: int = 48

    def __post_init__(self):
        if self.nodes < 4 or self.nodes % 2:
            raise ValueError(f"contour nodes must be even and >= 4, got {self.nodes}")

    def pick_r(self, alpha: float, t: float, rho_bound: float) -> float:
        psi = math.pi / alpha
        g = psi / math.sin(psi)  # crossing radius at the pole angle = sigma * g
        q = psi * abs(math.cos(psi)) / math.sin(psi)
        # crossing radius 1.8x the outermost pole: poles close to the contour
        # slow the trapezoid convergence long before they are missed
        r_all = 1.8 * t * rho_bound ** (1.0 / alpha) / g
        r_bal = _LOG_EPS / (1.0 + q)
        r = min(r_all, r_bal)
        r = max(r, min(0.4 * self.nodes, 9.2))
        return min(r, 0.4 * self.nodes)


def solve_resolvent(
    A,
    source: SourcePair,
    alpha: float,
    times,
    contour: LaplaceContour | None = None,
) -> SolutionSamples:
    """Bromwich inversion of the resolvent representation at the given times.

    For each time the contour is scaled as sigma = r/t, quadrature runs over
    the conjugate-symmetric node pairs, and each node costs one complex solve
    with p^alpha I + A for all columns of the source.  The real part of the
    symmetric-node sum is returned, shaped (times, *source.a.shape).
    """
    _check_alpha(alpha)
    mat, rho = _operator(A, complex)
    n = mat.shape[0]
    if source.size != n:
        raise ValueError(f"source length {source.size} does not match operator size {n}")
    times = np.atleast_1d(np.asarray(times, dtype=float))
    if np.any(times <= 0.0):
        raise ValueError("output times must be strictly positive")
    contour = contour or LaplaceContour()
    M = contour.nodes
    half = M // 2
    theta = (np.arange(half) + 0.5) * (2.0 * np.pi / M)
    rho = max(rho, 1e-30)

    a = source.a.astype(complex)
    b = source.b.astype(complex)
    eye = np.eye(n, dtype=complex)
    states = np.empty((len(times), *a.shape))
    rs = []
    for it, t in enumerate(times):
        r = contour.pick_r(alpha, t, rho)
        rs.append(r)
        sigma = r / t
        p = sigma * theta * (1.0 / np.tan(theta) + 1j)
        dp = sigma * (1.0 / np.tan(theta) - theta / np.sin(theta) ** 2 + 1j)
        pa = p**alpha
        acc = np.zeros(a.shape)
        for m in range(half):
            rhs = p[m] ** (alpha - 1.0) * a + p[m] ** (alpha - 2.0) * b
            try:
                x = np.linalg.solve(pa[m] * eye + mat, rhs)
            except np.linalg.LinAlgError as exc:
                raise ContourError(
                    f"singular resolvent at contour node p={p[m]:.6g} "
                    f"(p^alpha collides with the spectrum of -A)"
                ) from exc
            acc = acc + (np.exp(p[m] * t) * dp[m] * x).imag
        states[it] = (2.0 / M) * acc
        if not np.all(np.isfinite(states[it])):
            raise NumericsError(
                f"contour inversion produced non-finite state at t={t}; "
                f"possible contour collision with the generalized spectrum"
            )
    return SolutionSamples(
        times,
        states,
        route="resolvent",
        params={"nodes": M, "r": rs, "rho_bound": rho},
    )


# ---------------------------------------------------------------------------
# Route 3: Mittag-Leffler mode sum (diagonalizable spectra only)
# ---------------------------------------------------------------------------


def solve_spectral_oracle(
    riesz: RieszData,
    source: SourcePair,
    alpha: float,
    times,
) -> SolutionSamples:
    """Mode-wise solution  u(t) = sum_n [ E_{a,1}(-l_n t^a) P_n a + t E_{a,2}(-l_n t^a) P_n b ].

    Valid only for reliable data of diagonalizable clusters:
    :meth:`RieszData.check_diagonalizable` raises :class:`NumericsError`
    (:class:`DefectiveClusterError` for a defective cluster) instead of
    returning a silently wrong answer.  Complex cluster eigenvalues are
    supported through the Mittag-Leffler function at complex argument.
    The Mittag-Leffler factors of all (time, cluster) pairs come from one
    kernel call; :meth:`RieszData.mode_sum` contracts them with the simple
    clusters' eigenvector factors and the contour clusters' P_n x, in
    O(times N m + times clusters m) memory for m sources.
    States are shaped (times, *source.a.shape).
    """
    _check_alpha(alpha)
    riesz.check_diagonalizable()
    times = np.atleast_1d(np.asarray(times, dtype=float))
    if np.any(times < 0.0):
        raise ValueError("sample times must be nonnegative")
    n = riesz.V.shape[0]
    if source.size != n:
        raise ValueError(f"source length {source.size} does not match operator size {n}")
    # one kernel call for both betas (beta 1 alone when b = 0) over all
    # (time, cluster) arguments, then the mode sums over the clusters n of
    # E_{a,1}(z[:, n]) P_n a and t E_{a,2}(z[:, n]) P_n b
    z = -np.outer(times**alpha, riesz.eigenvalues)
    e = mittag_leffler_kernel(alpha, (1.0, 2.0) if np.any(source.b) else (1.0,), z)
    states_c = riesz.mode_sum(e[0], source.a)
    if len(e) > 1:
        riesz.mode_sum(times[:, None] * e[1], source.b, out=states_c)
    # largest |imaginary| and |real| parts, without |x| temporaries
    imag, real = states_c.imag, states_c.real
    imag_resid = float(max(imag.max(initial=0.0), -imag.min(initial=0.0)))
    scale = max(1.0, float(max(real.max(initial=0.0), -real.min(initial=0.0))))
    if imag_resid > 1e-6 * scale:
        raise NumericsError(
            f"mode sum of real data has imaginary residue {imag_resid:.3g}; "
            f"conjugate clusters do not pair up"
        )
    return SolutionSamples(
        times,
        states_c.real.copy(),
        route="spectral",
        params={"clusters": riesz.n_clusters, "imag_residual": imag_resid},
    )


# ---------------------------------------------------------------------------
# One entry point for the three routes
# ---------------------------------------------------------------------------


def solve(
    A, source: SourcePair, alpha: float, times, method: TimeGrid | LaplaceContour | RieszData
) -> SolutionSamples:
    """States at the given times by the route the type of ``method`` selects.

    :class:`RieszData` runs the mode sum, :class:`LaplaceContour` the Talbot
    inversion and :class:`TimeGrid` time stepping on that grid.
    """
    if isinstance(method, RieszData):
        return solve_spectral_oracle(method, source, alpha, times)
    if isinstance(method, LaplaceContour):
        return solve_resolvent(A, source, alpha, times, contour=method)
    if isinstance(method, TimeGrid):
        return solve_timestep(A, source, alpha, times, grid=method)
    raise TypeError(
        f"unknown solver route {method!r}: pass a TimeGrid, a LaplaceContour or RieszData"
    )


# ---------------------------------------------------------------------------
# Diagnostics
# ---------------------------------------------------------------------------


@dataclass
class LaplaceIdentitySample:
    p: complex
    residual: float
    truncation_bound: float
    conclusive: bool


def laplace_identity_check(
    u: SolutionSamples,
    source: SourcePair,
    A,
    alpha: float,
    p_samples,
    tol: float = 1e-2,
) -> list[LaplaceIdentitySample]:
    """Residual of  p^alpha (Lu) - p^(alpha-1) a - p^(alpha-2) b + A (Lu) = 0.

    The transform is the trapezoid rule over the sample times, truncated at
    the last one, T; each sample reports the relative residual together with
    the truncation bound e^(-Re(p) T) * sup_t ||u(t)||, and is flagged
    inconclusive when that bound is not far below the requested tolerance.
    """
    mat = as_matrix(A).astype(float)
    t = u.times
    sup = float(np.max(np.linalg.norm(u.states, axis=1)))
    rows = []
    for p in np.atleast_1d(p_samples):
        p = complex(p)
        if p.real <= 0.0:
            raise ValueError(f"need Re(p) > 0, got p={p}")
        weights = np.exp(-p * t)
        uhat = np.trapezoid(weights[:, None] * u.states, x=t, axis=0)
        terms = [
            p**alpha * uhat,
            mat @ uhat,
            -(p ** (alpha - 1.0)) * source.a,
            -(p ** (alpha - 2.0)) * source.b,
        ]
        resid = np.linalg.norm(sum(terms))
        denom = max(max(np.linalg.norm(v) for v in terms), 1e-300)
        bound = math.exp(-p.real * t[-1]) * sup
        rel = float(resid / denom)
        conclusive = bound <= 0.1 * tol * denom
        rows.append(LaplaceIdentitySample(p, rel, bound, conclusive))
    return rows


@dataclass
class GrowthFit:
    """Exponential envelope ||u(t)|| <= C1 * exp(C2 t) fitted on the samples.

    C2 and the intercept come from least squares on log||u||; C1 is lifted so
    the envelope holds at every sample (equality at the worst one), and
    ``lsq_excess`` records how far above the raw least-squares line the
    samples reached.
    """

    C1: float
    C2: float
    lsq_excess: float
    degenerate: bool = False


def growth_probe(u: SolutionSamples) -> GrowthFit:
    """Fit the exponential growth envelope of a long-horizon trajectory."""
    horizon = u.times[-1]
    if horizon < 5.0:
        raise ValueError(f"growth probe needs horizon T >= 5, got T={horizon}")
    norms = np.linalg.norm(u.states, axis=1)
    mask = norms > 0.0
    if not np.any(mask):
        return GrowthFit(0.0, 0.0, 0.0, degenerate=True)
    t = u.times[mask]
    logn = np.log(norms[mask])
    slope, intercept = np.polyfit(t, logn, 1)
    excess = float(np.max(logn - (intercept + slope * t)))
    return GrowthFit(math.exp(intercept + excess), float(slope), excess)


def route_difference(u1: SolutionSamples, u2: SolutionSamples) -> np.ndarray:
    """Relative l2 distance between two routes at each of their sample times."""
    if not np.array_equal(u1.times, u2.times):
        raise ValueError(f"the {u1.route} and {u2.route} routes were sampled at different times")
    out = np.empty(len(u1.times))
    for i, (x, y) in enumerate(zip(u1.states, u2.states)):
        scale = max(np.linalg.norm(x), np.linalg.norm(y), 1e-300)
        out[i] = np.linalg.norm(x - y) / scale
    return out
