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
_ML_SERIES_BLOCK = 16  # series terms summed per array pass
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
# real arguments per pass over the parabola's nodes: (nodes, betas, chunk)
# temporaries of a few hundred kB
_ML_REAL_CHUNK = 128


def _ml_series_radius(alpha: float) -> float:
    if alpha >= 1.0:
        return _ML_SERIES_RADIUS
    # cancellation grows like exp(|z|^(1/alpha)); keep it below ~1e-12
    return max(0.5, 9.2**alpha)


def _ml_series(alpha: float, betas, z: np.ndarray) -> np.ndarray:
    """Power series sum_k z^k / Gamma(alpha*k + beta) for each beta, shape (betas, z).

    Each element stops once it is past its largest term (k >= |z|^(1/alpha))
    and two successive terms fell below 1e-17 of its sum.  A real ``z`` sums
    the real terms |z|^k / Gamma(alpha*k + beta) signed by sign(z)^k.  The
    terms come in blocks of ``_ML_SERIES_BLOCK`` k (an even number, so every
    block starts at an odd k), added one k at a time in order.
    """
    real = not np.iscomplexobj(z)
    logz = np.log(np.abs(z)) if real else np.log(z)
    hump = np.abs(z) ** (1.0 / alpha)
    out = np.empty((len(betas), z.size), dtype=z.dtype)
    for row, beta in zip(out, betas):
        todo, lz, hp = np.arange(z.size), logz, hump
        sign = np.where(z < 0.0, -1.0, 1.0) if real else None
        total = np.full(z.size, _rgamma(beta), dtype=z.dtype)
        small = np.zeros(z.size, dtype=bool)  # the previous term was small
        for k0 in range(1, _ML_MAX_TERMS + 1, _ML_SERIES_BLOCK):
            ks = np.arange(k0, min(k0 + _ML_SERIES_BLOCK, _ML_MAX_TERMS + 1))
            xs = alpha * ks + beta
            lg = np.array([_gammaln(x) if x > 0.0 else 0.0 for x in xs])
            term = np.exp(ks[:, None] * lz - lg[:, None])  # (k, element)
            for j in np.flatnonzero(xs <= 0.0):
                if abs(xs[j] - round(xs[j])) < 1e-12:
                    term[j] = 0.0  # 1/Gamma at a non-positive integer
                else:
                    term[j] = np.exp(ks[j] * lz) * _rgamma(xs[j])
            if real:
                term[::2] *= sign  # the odd k
            sums = np.empty_like(term)
            for j in range(len(ks)):
                total = np.add(total, term[j], out=sums[j])
            tiny = np.abs(term) <= 1e-17 * (1.0 + np.abs(sums))
            done = tiny & np.concatenate([small[None], tiny[:-1]])
            done &= ks[:, None] >= hp
            fin = done.any(axis=0)
            if fin.any():
                row[todo[fin]] = sums[done[:, fin].argmax(axis=0), fin]
                keep = ~fin
                todo, lz, hp, tiny = todo[keep], lz[keep], hp[keep], tiny[:, keep]
                total = total[keep]
                if real:
                    sign = sign[keep]
                if not todo.size:
                    break
            small = tiny[-1]
        else:
            raise MittagLefflerError(
                f"series did not converge within {_ML_MAX_TERMS} terms for "
                f"alpha={alpha}, beta={beta}, |z|={abs(z[todo[0]]):.3g}"
            )
    return out


def _ml_pole_terms(alpha: float, betas, sp: np.ndarray, mu: float) -> np.ndarray:
    """Each pole's residue term R / (1 - e^(-d)) or -R e^d / (1 - e^d) (see
    :func:`_ml_parabola`) for each beta: shape (betas, sp).

    Each beta's products are taken on arrays shaped like ``sp``: numpy may
    round a complex product differently when one operand is broadcast, which
    would tie an element's value to the number of elements.
    """
    ex = np.exp(sp)
    d = (2.0 * math.pi / _ML_STEP) * (np.sqrt(sp / mu) - 1.0)
    right = d.real >= 0.0
    e = np.exp(np.where(right, -d, d))  # |e| <= 1
    terms = []
    for beta in betas:
        res = sp ** (1.0 - beta) * ex / alpha
        terms.append(np.where(right, res / (1.0 - e), -res * e / (1.0 - e)))
    return np.array(terms)


def _tree_sum(t: np.ndarray) -> np.ndarray:
    """Sum over the first axis, adding rows pairwise in a fixed order, so that
    each element's sum does not depend on the other elements."""
    while len(t) > 1:
        h = len(t) // 2
        s = t[:h] + t[h : 2 * h]
        if len(t) % 2:
            s[-1] += t[-1]
        t = s
    return t[0]


def _ml_parabola(
    alpha: float, betas, z: np.ndarray, poles: np.ndarray, inside: np.ndarray, mu: float
) -> np.ndarray:
    """Pole residues plus the contour integral on the parabola of level ``mu``,
    for each beta: shape (betas, z).

    E = sum of residues R = s*^(1-beta) e^(s*) / alpha at the poles right of
    the parabola, plus (1 / 2 pi i) times the integral of
    e^s s^(alpha-beta) / (s^alpha - z) along it.  The trapezoid sum in u
    misses that integral by an exact amount for each simple pole u* of the
    integrand (Trefethen & Weideman, SIAM Rev. 56, 2014); with the residue
    added for poles right of the parabola, every pole then contributes
    R / (1 - e^(-d)), d = 2 pi (sqrt(s*/mu) - 1) / h, which tends to R far
    right of the parabola and to 0 far left of it.

    At a real z = x the nodes u and -u are conjugate, so the sum is node 0
    plus twice the real parts of nodes 1..n, each
    (Re c (Re p - x) + Im c Im p) / ((Re p - x)^2 + (Im p)^2).  Its poles are
    row 1 of ``poles`` and, for x < 0, the conjugate in row 0 (rows 0 and 2
    lie beyond the cut otherwise, as alpha <= 2), so row 1 counts twice there,
    real part only.
    """
    w = 1.0 + 1j * _ML_STEP * np.arange(-_ML_NODES, _ML_NODES + 1)
    s = mu * w * w
    weight = np.array(
        [(_ML_STEP / (2j * math.pi)) * np.exp(s) * s ** (alpha - beta) * (2j * mu * w) for beta in betas]
    )
    p = s**alpha
    real = z.imag == 0.0
    total = np.empty((len(betas), z.size), dtype=complex)
    if not real.all():
        zc = z[~real]
        part = np.zeros((len(betas), zc.size), dtype=complex)
        for pj, c in zip(p, weight.T):
            d = pj - zc  # one node difference for every beta
            for row, cb in zip(part, c):  # unbroadcast, see _ml_pole_terms
                row += cb / d
        for row, live in zip(poles[:, ~real], inside[:, ~real]):
            if live.any():
                part[:, live] += _ml_pole_terms(alpha, betas, row[live], mu)
        total[:, ~real] = part
    if real.any():
        x = z.real[real]
        rp, ip = p.real[_ML_NODES:, None], p.imag[_ML_NODES:, None]  # nodes 0..n
        pair = np.where(np.arange(_ML_NODES + 1) > 0, 2.0, 1.0)[:, None, None]
        rc = pair * weight.real.T[_ML_NODES:, :, None]
        icip = pair * weight.imag.T[_ML_NODES:, :, None] * ip[:, :, None]
        part = np.empty((len(betas), x.size))
        for lo in range(0, x.size, _ML_REAL_CHUNK):
            a = rp - x[lo : lo + _ML_REAL_CHUNK]  # (nodes, chunk), for every beta
            inv = 1.0 / (a * a + ip * ip)  # 0, not inf / inf, where a * a overflows
            part[:, lo : lo + _ML_REAL_CHUNK] = _tree_sum(rc * (a * inv)[:, None] + icip * inv[:, None])
        live = inside[1, real]
        if live.any():
            twice = np.where(x[live] < 0.0, 2.0, 1.0)
            part[:, live] += twice * _ml_pole_terms(alpha, betas, poles[1, real][live], mu).real
        total[:, real] = part
    return total


def _ml_large(alpha: float, betas, z: np.ndarray) -> np.ndarray:
    """E_{alpha,beta}(z) for each beta, |z| beyond the series radius, 0 < alpha <= 2.

    The inverse-Laplace representation of E_{alpha,beta} has poles at the
    principal-branch roots of s^alpha = z and a branch cut on the negative
    axis; see :func:`_ml_parabola`.  The poles and the parabola an argument
    takes do not depend on beta.
    """
    if alpha > 2.0:
        raise MittagLefflerError(
            f"|z|={abs(z[0]):.3g} exceeds the series radius and the "
            f"large-argument path requires alpha <= 2, got alpha={alpha}"
        )
    theta = np.angle(z)
    real = z.imag == 0.0
    theta[real] = np.angle(z.real[real])  # 0 or pi, whatever the sign of the zero
    out = np.empty((len(betas), z.size), dtype=complex)
    rest = np.ones(z.shape, dtype=bool)
    if alpha == 1.0:
        # the sole pole hugs the branch cut; the closed forms are exact there
        rest = np.abs(np.abs(theta) - math.pi) >= 0.1
        if not rest.all():
            for beta in betas:
                if beta not in (1.0, 2.0):
                    raise MittagLefflerError(
                        f"alpha=1 with z near the negative real axis supported only for "
                        f"beta in {{1, 2}}, got beta={beta}"
                    )
            zc = z[~rest]
            for row, beta in zip(out, betas):
                row[~rest] = np.exp(zc) if beta == 1.0 else (np.exp(zc) - 1.0) / zc
            out[:, ~rest & real] = out[:, ~rest & real].real
    z, theta = z[rest], theta[rest]
    for beta in betas:
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
    part = np.empty((len(betas), z.size), dtype=complex)
    for i, mu in enumerate(_ML_PARABOLAS):
        sel = choice == i
        if sel.any():
            part[:, sel] = _ml_parabola(alpha, betas, z[sel], poles[:, sel], inside[:, sel], mu)
    out[:, rest] = part
    return out


def mittag_leffler_kernel(alpha: float, beta, z) -> np.ndarray:
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

    A sequence of betas is evaluated in one pass: the validation, the regime
    masks, the poles, each argument's parabola and its node differences are
    shared, and each row of the result is bitwise the call with that beta
    alone.  An element with ``z.imag == 0`` takes a real-arithmetic path: real
    series terms, and the parabola's conjugate nodes and poles summed in
    pairs, so its value has imaginary part exactly 0 (whatever the sign of
    the zero).  It differs from the complex path by rounding only: at most
    1.9 eps max(1, |E(z)|, E(|z|)), with E(|z|), the sum of the series' term
    moduli, counted up to |z| = 10, where the series cancels (measured on
    90,000 arguments, alpha in [1, 2], beta in [0.5, 2.5], |z| <= 5e3).
    Complex arguments take the complex path.

    Every element is computed on its own, so a result does not depend on the
    other elements.  The temporaries are a few arrays the size of ``z``,
    sixteen series terms per element, and the parabola's nodes for at most
    ``_ML_REAL_CHUNK`` real arguments at a time.

    Parameters
    ----------
    alpha : positive order; large arguments require 0 < alpha <= 2.
    beta : real second parameter, or a sequence of them; large arguments
        require beta < 1 + alpha except in the alpha = 1 closed forms.
    z : complex argument(s), any shape.

    Returns
    -------
    ndarray of complex, shaped like ``z`` for one beta and
    ``(len(beta), *z.shape)`` for a sequence.
    """
    if not (math.isfinite(alpha) and alpha > 0.0):
        raise ValueError(f"alpha must be positive and finite, got {alpha}")
    if np.ndim(beta) > 1:
        raise ValueError(f"beta must be a number or a sequence of numbers, got shape {np.shape(beta)}")
    betas = [float(b) for b in np.atleast_1d(beta)]
    for b in betas:
        if not math.isfinite(b):
            raise ValueError(f"beta must be finite, got {b}")
    z = np.asarray(z, dtype=complex)
    if not np.all(np.isfinite(z)):
        raise ValueError("z must be finite")
    flat = z.ravel()
    real = flat.imag == 0.0
    zero = flat == 0.0
    within = ~zero & (np.abs(flat) <= _ml_series_radius(alpha))
    far = np.abs(flat) > _ML_CONTOUR_FROM
    # betas that share their series/contour split share one pass
    groups = {}
    for i, b in enumerate(betas):
        key = (1.0 <= alpha < _ML_SERIES_ALPHA and b < 1.0 + alpha, alpha == 1.0 and b in (1.0, 2.0))
        groups.setdefault(key, []).append(i)
    out = np.empty((len(betas), flat.size), dtype=complex)
    for (contour, closed), rows in groups.items():
        bs = [betas[i] for i in rows]
        series = within
        if contour:
            phi = (np.angle(flat) + 2.0 * math.pi * np.array([[-1.0], [0.0], [1.0]])) / alpha
            guard = 0.1 if alpha == 1.0 else _ML_POLE_GUARD
            clear = np.abs(np.abs(phi) - math.pi).min(axis=0) >= guard
            series = series & ~(clear & far)
        if closed:
            # the closed forms of _ml_large are exact near the negative axis,
            # where the series cancels
            near = np.abs(np.abs(np.angle(flat)) - math.pi) < 0.1
            series = series & ~(near & far)
        large = ~(zero | series)
        part = np.empty((len(bs), flat.size), dtype=complex)
        part[:, zero] = np.array([[_rgamma(b)] for b in bs])
        if (series & real).any():
            part[:, series & real] = _ml_series(alpha, bs, flat.real[series & real])
        if (series & ~real).any():
            part[:, series & ~real] = _ml_series(alpha, bs, flat[series & ~real])
        if large.any():
            with np.errstate(over="ignore", invalid="ignore"):
                part[:, large] = _ml_large(alpha, bs, flat[large])
            for b, values in zip(bs, part[:, large]):
                if not np.all(np.isfinite(values)):
                    raise MittagLefflerError(
                        f"E_{{alpha,beta}}(z) overflows double precision for "
                        f"alpha={alpha}, beta={b}"
                    )
        out[rows] = part
    if np.ndim(beta) == 0:
        return out[0].reshape(z.shape)
    return out.reshape(len(betas), *z.shape)


def mittag_leffler(alpha: float, beta: float, z: complex) -> complex:
    """E_{alpha,beta}(z) at one complex argument; see :func:`mittag_leffler_kernel`."""
    return complex(mittag_leffler_kernel(alpha, beta, z)[()])
