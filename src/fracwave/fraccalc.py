"""Discrete fractional calculus on uniform time grids.

Provides the fractional integral of Riemann-Liouville type, the Caputo
derivative for orders between 1 and 2, and the two-parameter Mittag-Leffler
function over whole arrays of arguments.  The integral and derivative are
discretized by product integration: the input is reconstructed
piecewise-linearly and the weakly singular kernel is integrated exactly
against that reconstruction, which keeps first-order accuracy near t = 0
where naive quadrature degrades.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import MittagLefflerError

__all__ = [
    "TimeGrid",
    "TimeSeries",
    "rl_weights",
    "rl_integral",
    "caputo_derivative",
    "second_differences",
    "mittag_leffler",
    "mittag_leffler_kernel",
]


@dataclass(frozen=True)
class TimeGrid:
    """Uniform mesh t_k = k*dt on [0, T] with K steps (K+1 nodes)."""

    T: float
    K: int

    def __post_init__(self):
        if not (self.T > 0 and math.isfinite(self.T)):
            raise ValueError(f"final time must be positive and finite, got {self.T}")
        if self.K < 2:
            raise ValueError(f"need at least 2 time steps, got {self.K}")

    @property
    def dt(self) -> float:
        return self.T / self.K

    @property
    def nodes(self) -> np.ndarray:
        return np.linspace(0.0, self.T, self.K + 1)

    def __len__(self) -> int:
        return self.K + 1


@dataclass
class TimeSeries:
    """Samples (real or complex) on the nodes of a :class:`TimeGrid`."""

    grid: TimeGrid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.values = np.asarray(self.values)
        if self.values.shape != (len(self.grid),):
            raise ValueError(
                f"values must have length {len(self.grid)}, got shape {self.values.shape}"
            )
        if not np.all(np.isfinite(self.values)):
            raise ValueError("time series contains non-finite samples")

    @property
    def is_complex(self) -> bool:
        return np.iscomplexobj(self.values)


_gammaln = math.lgamma  # log |Gamma(x)|


def _rgamma(x: float) -> float:
    """1/Gamma(x), 0 at the poles 0, -1, -2, ... and where Gamma(x) overflows.

    Gamma overflows past x = 171.6 (1/Gamma is 0 there) and at subnormal
    x, where 1/Gamma(x) = x to double precision.  Far left of 0 Gamma
    underflows to a signed zero and 1/Gamma is the infinity of that sign.
    """
    x = float(x)
    if x <= 0.0 and x.is_integer():
        return 0.0
    try:
        g = math.gamma(x)
    except OverflowError:
        return 0.0 if x > 1.0 else x
    return 1.0 / g if g else math.copysign(math.inf, g)


def _check_order(alpha: float, lo: float, hi: float, lo_open=True, hi_open=False) -> None:
    ok = (alpha > lo if lo_open else alpha >= lo) and (alpha < hi if hi_open else alpha <= hi)
    if not (math.isfinite(alpha) and ok):
        lob, hib = "(" if lo_open else "[", ")" if hi_open else "]"
        raise ValueError(f"order must lie in {lob}{lo}, {hi}{hib}, got {alpha}")


def rl_weights(alpha: float, K: int) -> tuple[np.ndarray, np.ndarray]:
    """Product-trapezoid weights for the order-``alpha`` fractional integral.

    On a uniform grid the integral of (t_k - s)^(alpha-1)/Gamma(alpha) against
    the piecewise-linear reconstruction of v is

        (dt^alpha / Gamma(alpha+2)) * (c0[k] * v_0 + sum_{j=1..k} w[k-j] * v_j).

    Returns
    -------
    w : ndarray, shape (K+1,)
        Convolution part: w[0] = 1 and
        w[m] = (m+1)^(alpha+1) - 2 m^(alpha+1) + (m-1)^(alpha+1).
    c0 : ndarray, shape (K+1,)
        Boundary weight multiplying v_0; c0[k] = (k-1)^(alpha+1) - k^alpha (k-alpha-1).

    Both arrays are dimensionless; the caller applies the dt^alpha/Gamma(alpha+2)
    scale.  The rule is exact for piecewise-linear v.
    """
    a1 = alpha + 1.0
    m = np.arange(K + 1, dtype=float)
    w = np.empty(K + 1)
    w[0] = 1.0
    if K >= 1:
        w[1:] = (m[1:] + 1.0) ** a1 - 2.0 * m[1:] ** a1 + (m[1:] - 1.0) ** a1
    k = m
    c0 = np.empty(K + 1)
    c0[0] = 0.0
    c0[1:] = (k[1:] - 1.0) ** a1 - k[1:] ** alpha * (k[1:] - alpha - 1.0)
    return w, c0


def rl_integral(v: TimeSeries, alpha: float) -> TimeSeries:
    """Fractional integral of order ``alpha`` in (0, 2] by product integration.

    Node 0 maps to 0 (empty integration range).  Exact for piecewise-linear
    input, second-order accurate for smooth input.
    """
    _check_order(alpha, 0.0, 2.0)
    K = v.grid.K
    w, c0 = rl_weights(alpha, K)
    scale = v.grid.dt**alpha * _rgamma(alpha + 2.0)
    out = np.zeros(K + 1, dtype=v.values.dtype if v.is_complex else float)
    # sum_{j=1..k} w[k-j] v_j is a discrete convolution of w with v[1:]
    if K >= 1:
        conv = np.convolve(w[:K], v.values[1:])[:K]
        out[1:] = scale * (c0[1:] * v.values[0] + conv)
    return TimeSeries(v.grid, out)


def second_differences(v: TimeSeries) -> np.ndarray:
    """Second-difference samples of v on its grid.

    Central stencils at interior nodes, one-sided second-order stencils at the
    two grid ends (no ghost nodes).  Exact for quadratics, annihilates affine
    input exactly.
    """
    K = v.grid.K
    if K < 3:
        raise ValueError("second differences need at least 4 nodes (K >= 3)")
    y = v.values
    dt2 = v.grid.dt**2
    d2 = np.empty_like(y, dtype=complex if v.is_complex else float)
    d2[1:K] = (y[2:] - 2.0 * y[1:K] + y[: K - 1]) / dt2
    d2[0] = (2.0 * y[0] - 5.0 * y[1] + 4.0 * y[2] - y[3]) / dt2
    d2[K] = (2.0 * y[K] - 5.0 * y[K - 1] + 4.0 * y[K - 2] - y[K - 3]) / dt2
    return d2


def caputo_derivative(v: TimeSeries, alpha: float) -> TimeSeries:
    """Caputo derivative of order ``alpha`` in (1, 2).

    Product integration of the kernel (t-s)^(1-alpha)/Gamma(2-alpha) against
    second differences of v.  O(dt) consistent for smooth v with
    v(0) = v'(0) = 0; exactly zero for affine v.
    """
    _check_order(alpha, 1.0, 2.0, hi_open=True)
    d2 = second_differences(v)
    return rl_integral(TimeSeries(v.grid, d2), 2.0 - alpha)


# ---------------------------------------------------------------------------
# Mittag-Leffler function
# ---------------------------------------------------------------------------

_ML_SERIES_RADIUS = 10.0  # safe for alpha >= 1 (cancellation ~ e^10 * eps ~ 2e-12)
# at |z| = 10 the series errs by up to 1e-10 below alpha = 1.5 (6.7e-14 at 1.5), the
# contour by 3e-15 from |z| = 2 on: there it takes |z| > 2 wherever it accepts z
_ML_SERIES_ALPHA, _ML_CONTOUR_FROM = 1.5, 2.0
_ML_MAX_TERMS = 600
_ML_POLE_GUARD = 1e-6  # radians; pole this close to the branch cut is rejected

# Large arguments: trapezoid rule in u on the parabola s(u) = mu (1 + i u)^2
# at u = k h, |k| <= n.  The branch point s = 0 sits at u = i, so the rule
# misses by about e^(-2 pi / h) = e^-40, and e^s has decayed to
# e^(mu (1 - (n h)^2)) < e^-40 at the last node for every mu below.
_ML_STEP = 2.0 * math.pi / 40.0
_ML_NODES = 42
# A pole at parabola level (Re s + |s|) / 2 close to mu lies near the u axis,
# where its correction cancels against the node terms next to it.  Each
# argument takes the first mu that keeps all its poles at |Im u| >= 0.1.  The
# level bands this rejects, mu (1 -+ 0.1)^2, are disjoint, and an argument
# has at most two poles, so one of the three always qualifies.
_ML_PARABOLAS = (1.5, 1.0, 2.25)
_ML_POLE_CLEARANCE = 0.1


def _ml_series_radius(alpha: float) -> float:
    if alpha >= 1.0:
        return _ML_SERIES_RADIUS
    # cancellation grows like exp(|z|^(1/alpha)); keep it below ~1e-12
    return max(0.5, 9.2**alpha)


def _ml_series(alpha: float, beta: float, z: np.ndarray) -> np.ndarray:
    """Power series sum_k z^k / Gamma(alpha*k + beta), term by term.

    Each element stops once it is past its largest term (k >= |z|^(1/alpha))
    and two successive terms fell below 1e-17 of its sum.
    """
    out = np.empty_like(z)
    todo = np.arange(z.size)
    logz = np.log(z)
    hump = np.abs(z) ** (1.0 / alpha)
    total = np.full(z.shape, complex(_rgamma(beta)))
    small = np.zeros(z.shape, dtype=int)
    for k in range(1, _ML_MAX_TERMS + 1):
        x = alpha * k + beta
        if x > 0.0:
            term = np.exp(k * logz - _gammaln(x))
        elif abs(x - round(x)) < 1e-12:
            term = np.zeros_like(total)  # 1/Gamma at a non-positive integer
        else:
            term = np.exp(k * logz) * _rgamma(x)
        total = total + term
        small = np.where(np.abs(term) <= 1e-17 * (1.0 + np.abs(total)), small + 1, 0)
        done = (small >= 2) & (k >= hump)
        if done.any():
            out[todo[done]] = total[done]
            keep = ~done
            todo, logz, hump, total, small = (
                todo[keep], logz[keep], hump[keep], total[keep], small[keep]
            )
            if not todo.size:
                return out
    raise MittagLefflerError(
        f"series did not converge within {_ML_MAX_TERMS} terms for "
        f"alpha={alpha}, beta={beta}, |z|={abs(z[todo[0]]):.3g}"
    )


def _ml_parabola(
    alpha: float, beta: float, z: np.ndarray, poles: np.ndarray, inside: np.ndarray, mu: float
) -> np.ndarray:
    """Pole residues plus the contour integral on the parabola of level ``mu``.

    E = sum of residues R = s*^(1-beta) e^(s*) / alpha at the poles right of
    the parabola, plus (1 / 2 pi i) times the integral of
    e^s s^(alpha-beta) / (s^alpha - z) along it.  The trapezoid sum in u
    misses that integral by an exact amount for each simple pole u* of the
    integrand (Trefethen & Weideman, SIAM Rev. 56, 2014); with the residue
    added for poles right of the parabola, every pole then contributes
    R / (1 - e^(-d)), d = 2 pi (sqrt(s*/mu) - 1) / h, which tends to R far
    right of the parabola and to 0 far left of it.
    """
    w = 1.0 + 1j * _ML_STEP * np.arange(-_ML_NODES, _ML_NODES + 1)
    s = mu * w * w
    weight = (_ML_STEP / (2j * math.pi)) * np.exp(s) * s ** (alpha - beta) * (2j * mu * w)
    total = np.zeros_like(z)
    for p, c in zip(s**alpha, weight):
        total += c / (p - z)
    for row, live in zip(poles, inside):
        if not live.any():
            continue
        sp = row[live]
        res = sp ** (1.0 - beta) * np.exp(sp) / alpha
        d = (2.0 * math.pi / _ML_STEP) * (np.sqrt(sp / mu) - 1.0)
        right = d.real >= 0.0
        e = np.exp(np.where(right, -d, d))  # |e| <= 1
        total[live] += np.where(right, res / (1.0 - e), -res * e / (1.0 - e))
    return total


def _ml_large(alpha: float, beta: float, z: np.ndarray) -> np.ndarray:
    """E_{alpha,beta}(z) for |z| beyond the series radius, 0 < alpha <= 2.

    The inverse-Laplace representation of E_{alpha,beta} has poles at the
    principal-branch roots of s^alpha = z and a branch cut on the negative
    axis; see :func:`_ml_parabola`.
    """
    if alpha > 2.0:
        raise MittagLefflerError(
            f"|z|={abs(z[0]):.3g} exceeds the series radius and the "
            f"large-argument path requires alpha <= 2, got alpha={alpha}"
        )
    theta = np.angle(z)
    out = np.empty_like(z)
    rest = np.ones(z.shape, dtype=bool)
    if alpha == 1.0:
        # the sole pole hugs the branch cut; the closed forms are exact there
        rest = np.abs(np.abs(theta) - math.pi) >= 0.1
        if not rest.all():
            if beta not in (1.0, 2.0):
                raise MittagLefflerError(
                    f"alpha=1 with z near the negative real axis supported only for "
                    f"beta in {{1, 2}}, got beta={beta}"
                )
            zc = z[~rest]
            out[~rest] = np.exp(zc) if beta == 1.0 else (np.exp(zc) - 1.0) / zc
    z, theta = z[rest], theta[rest]
    if beta >= 1.0 + alpha and z.size:
        raise MittagLefflerError(
            f"large-argument evaluation supports beta < 1 + alpha, "
            f"got alpha={alpha}, beta={beta}"
        )
    phi = (theta + 2.0 * math.pi * np.array([[-1.0], [0.0], [1.0]])) / alpha
    on_cut = np.abs(np.abs(phi) - math.pi) < _ML_POLE_GUARD
    if on_cut.any():
        raise MittagLefflerError(
            f"root of s^alpha = z lies on the branch cut "
            f"(alpha={alpha}, arg z={theta[on_cut.any(axis=0)][0]:.6g}); regime boundary"
        )
    inside = np.abs(phi) < math.pi
    poles = np.abs(z) ** (1.0 / alpha) * np.exp(1j * np.where(inside, phi, 0.0))
    level = np.where(inside, (poles.real + np.abs(poles)) / 2.0, np.inf)
    clear = [
        np.all(np.abs(1.0 - np.sqrt(level / mu)) >= _ML_POLE_CLEARANCE, axis=0)
        for mu in _ML_PARABOLAS
    ]
    choice = np.argmax(clear, axis=0)
    part = np.empty_like(z)
    for i, mu in enumerate(_ML_PARABOLAS):
        sel = choice == i
        if sel.any():
            part[sel] = _ml_parabola(alpha, beta, z[sel], poles[:, sel], inside[:, sel], mu)
    out[rest] = part
    return out


def mittag_leffler_kernel(alpha: float, beta: float, z) -> np.ndarray:
    """Two-parameter Mittag-Leffler function E_{alpha,beta} at every element of ``z``.

    Power series for |z| below a cancellation-safe radius (10 for
    alpha >= 1.5, 2 for alpha in [1, 1.5) where the contour accepts z).
    Beyond it, the pole residues of the inverse-Laplace representation plus a
    fixed 85-node trapezoid rule on a parabolic contour, with the rule's exact
    pole corrections, so poles near the contour cost no accuracy.  Absolute
    accuracy ~1e-10 for alpha in [1, 2], |z| <= 50, and well beyond for
    arguments away from the regime boundaries.  Alpha = 1 within 0.1 rad of
    the negative axis uses the closed forms e^z and (e^z - 1)/z for beta 1
    and 2 from |z| = 2 on; other beta there still sum the series up to
    |z| = 10, which cancels (6.6e-11 at beta = 0.5, |z| = 10).  Unsupported
    regimes (for |z| > 10: alpha > 2 or beta >= 1 + alpha outside those
    closed forms, a pole within 1e-6 rad of the branch cut, alpha = 1 near
    the negative axis with beta other than 1 or 2) raise
    :class:`MittagLefflerError` if any element is in them, never NaN.

    Every element is computed on its own, so a result does not depend on the
    other elements, and the temporaries are a few arrays the size of ``z``.

    Parameters
    ----------
    alpha : positive order; large arguments require 0 < alpha <= 2.
    beta : real second parameter; large arguments require beta < 1 + alpha
        except in the alpha = 1 closed forms.
    z : complex argument(s), any shape.

    Returns
    -------
    ndarray of complex, shaped like ``z``.
    """
    if not (math.isfinite(alpha) and alpha > 0.0):
        raise ValueError(f"alpha must be positive and finite, got {alpha}")
    if not math.isfinite(beta):
        raise ValueError(f"beta must be finite, got {beta}")
    z = np.asarray(z, dtype=complex)
    if not np.all(np.isfinite(z)):
        raise ValueError("z must be finite")
    flat = z.ravel()
    out = np.empty_like(flat)
    zero = flat == 0.0
    series = ~zero & (np.abs(flat) <= _ml_series_radius(alpha))
    if 1.0 <= alpha < _ML_SERIES_ALPHA and beta < 1.0 + alpha:
        phi = (np.angle(flat) + 2.0 * math.pi * np.array([[-1.0], [0.0], [1.0]])) / alpha
        guard = 0.1 if alpha == 1.0 else _ML_POLE_GUARD
        clear = np.abs(np.abs(phi) - math.pi).min(axis=0) >= guard
        series &= ~(clear & (np.abs(flat) > _ML_CONTOUR_FROM))
    if alpha == 1.0 and beta in (1.0, 2.0):
        # the closed forms of _ml_large are exact near the negative axis,
        # where the series cancels
        near = np.abs(np.abs(np.angle(flat)) - math.pi) < 0.1
        series &= ~(near & (np.abs(flat) > _ML_CONTOUR_FROM))
    large = ~(zero | series)
    out[zero] = _rgamma(beta)
    if series.any():
        out[series] = _ml_series(alpha, beta, flat[series])
    if large.any():
        with np.errstate(over="ignore", invalid="ignore"):
            out[large] = _ml_large(alpha, beta, flat[large])
        if not np.all(np.isfinite(out[large])):
            raise MittagLefflerError(
                f"E_{{alpha,beta}}(z) overflows double precision for "
                f"alpha={alpha}, beta={beta}"
            )
    return out.reshape(z.shape)


def mittag_leffler(alpha: float, beta: float, z: complex) -> complex:
    """E_{alpha,beta}(z) at one complex argument; see :func:`mittag_leffler_kernel`."""
    return complex(mittag_leffler_kernel(alpha, beta, z)[()])
