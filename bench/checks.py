"""Checks of the CLI outputs against independent computations.

Each workload gets one :class:`Reference`, built with numpy before any
timed command, from the workload's config and the operator matrix and source
vectors the program builds from it:

* the closed-form eigenvalues of the constant-coefficient difference
  operator (a Kronecker sum of tridiagonal Toeplitz spectra in 2D);
* the observation map by Talbot inversion of the resolvent, all columns at
  once, so it is a different route from the spectral map and a different
  implementation from the program's column-by-column resolvent route;
* the Tikhonov recovery computed from that map.

The ``check_*`` functions read one command's output directory and return a
list of failure messages, empty when the output is correct.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# criterion 3: time stepping against the other routes, resolvent against spectral
TIMESTEP_ROUTE_TOL = 1e-3
RESOLVENT_SPECTRAL_TOL = 1e-6
# criterion 4: projection-identity residuals
IDENTITY_TOL = 1e-8
EIGENVALUE_TOL = 1e-12  # relative to the largest |lambda|
LEADING_SINGULAR_VALUES = 8
# distance of a recovery from the Tikhonov solution on the Talbot map.  A map
# error of 1e-9 sigma_1 moves a Tikhonov solution at reg_scale 1e-6 by about
# 1e-9 / sqrt(1e-6) = 1e-6 of its norm.  The time-step map of routes-1d
# (dt = 1/1024) is 1.3e-4 sigma_1 off; over 40 noise seeds that moved the
# solution by at most 0.0075 of its norm.
RECOVERY_AGREEMENT_TOL = {"timestep": 0.05, "resolvent": 1e-4, "spectral": 1e-4}
TALBOT_NODES = 64


@dataclass
class Reference:
    eigenvalues: np.ndarray  # closed form, sorted by real part
    singular_values: np.ndarray  # leading singular values of the Talbot map
    truth: np.ndarray  # (a, b) on the interior nodes, stacked
    recovery: np.ndarray  # Tikhonov solution from the Talbot map
    recovery_bound: float | None  # on the relative error against the truth


def closed_form_eigenvalues(problem) -> np.ndarray:
    """Eigenvalues of the assembled operator with constant coefficients.

    In 1D, A is tridiagonal Toeplitz with diagonal 2 a/h^2 - c and
    off-diagonals -(a/h^2 -+ b/(2h)), so
    lambda_k = 2a/h^2 - c - 2 sqrt(a^2/h^4 - b^2/(4h^2)) cos(k pi/(N+1)).
    In 2D (no mixed term) A is the Kronecker sum of the two axis operators.
    """
    coef = {k: float(getattr(problem, k)) for k in ("a11", "a22", "a12", "b1", "b2", "c")}
    if coef["a12"] != 0.0:
        raise ValueError("the closed form needs a12 = 0")

    def axis(n, lo, hi, a, b):
        h = (hi - lo) / (n + 1)
        k = np.arange(1, n + 1)
        root = np.sqrt(complex(a**2 / h**4 - b**2 / (4 * h**2)))
        return 2 * a / h**2 - 2 * root * np.cos(k * np.pi / (n + 1))

    dom, n = problem.domain, problem.interior
    lam = axis(n[0], dom[0], dom[1], coef["a11"], coef["b1"])
    if problem.dimension == 2:
        lam_y = axis(n[1], dom[2], dom[3], coef["a22"], coef["b2"])
        lam = (lam[None, :] + lam_y[:, None]).ravel()
    lam = lam - coef["c"]
    return lam[np.lexsort((lam.imag, lam.real))]


def talbot_map(A: np.ndarray, alpha: float, omega: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Observation map (rows time-major over omega, columns a then b basis).

    u(t) = (1/2 pi i) int e^{pt} (p^alpha + A)^{-1} (p^{alpha-1} a + p^{alpha-2} b) dp
    on the cotangent contour p = (r/t) theta (cot theta + i), trapezoid rule,
    conjugate nodes paired.  r encloses the generalized spectrum
    {p : p^alpha = -lambda} when e^r * eps allows and is otherwise capped
    where the missed poles and the roundoff balance.
    """
    n = A.shape[0]
    rho = float(np.abs(A).sum(axis=1).max())
    psi = math.pi / alpha
    g = psi / math.sin(psi)
    q = psi * abs(math.cos(psi)) / math.sin(psi)
    r_cap = -math.log(np.finfo(float).eps) / (1.0 + q)
    theta = (np.arange(TALBOT_NODES // 2) + 0.5) * (2 * math.pi / TALBOT_NODES)
    cot = 1.0 / np.tan(theta)
    eye = np.eye(n)
    select = eye[omega].T  # n x |omega|
    rows = []
    for t in times:
        r = min(max(1.8 * t * rho ** (1 / alpha) / g, 9.2), r_cap)
        sigma = r / t
        p = sigma * theta * (cot + 1j)
        dp = sigma * (cot - theta / np.sin(theta) ** 2 + 1j)
        pa = p**alpha
        # rows omega of (p^alpha + A)^{-1}, from the transposed systems
        sys_t = pa[:, None, None] * eye + A.T[None, :, :]
        inv_rows = np.linalg.solve(sys_t, np.broadcast_to(select, (len(p), n, omega.size)))
        weight = np.exp(p * t) * dp
        blk_a = np.einsum("m,mji->ij", weight * p ** (alpha - 1), inv_rows).imag
        blk_b = np.einsum("m,mji->ij", weight * p ** (alpha - 2), inv_rows).imag
        rows.append((2.0 / TALBOT_NODES) * np.hstack([blk_a, blk_b]))
    return np.vstack(rows)


def tikhonov(M: np.ndarray, data: np.ndarray, reg_scale: float) -> np.ndarray:
    """argmin ||M x - data||^2 + lambda ||x||^2 with lambda = reg_scale sigma_1^2."""
    u, s, vt = np.linalg.svd(M, full_matrices=False)
    lam = reg_scale * s[0] ** 2
    return vt.T @ ((s / (s**2 + lam)) * (u.T @ data))


def build_reference(cfg, noise_seed: int, recovery_bound: float | None) -> Reference:
    """Reference values for a workload; ``cfg`` is the program's parsed config."""
    p, inv = cfg.problem, cfg.inversion
    mesh = cfg.build_mesh()
    A = np.asarray(cfg.build_operator().matrix, dtype=float)
    source = cfg.build_source(mesh)
    truth = np.concatenate([source.a, source.b])
    M = talbot_map(A, p.alpha, cfg.observation_omega(mesh), cfg.observation_times())
    sv = np.linalg.svd(M, compute_uv=False)[:LEADING_SINGULAR_VALUES]
    # the CLI's synthetic data: Gaussian noise relative to the data max-norm
    data = M @ truth
    rng = np.random.default_rng(noise_seed)
    data = data + inv.noise * np.max(np.abs(data)) * rng.standard_normal(data.shape)
    recovery = tikhonov(M, data, inv.reg_scale)
    return Reference(closed_form_eigenvalues(p), sv, truth, recovery, recovery_bound)


def _rows(path: Path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def check_simulate(outdir: Path, ref: Reference, route: str) -> list[str]:
    rows = _rows(outdir / "route_differences.csv")
    if len(rows) != 9:  # three route pairs at three times
        return [f"simulate: {len(rows)} route-difference rows, expected 9"]
    errs = []
    for row in rows:
        pair = {row["route_a"], row["route_b"]}
        tol = TIMESTEP_ROUTE_TOL if "timestep" in pair else RESOLVENT_SPECTRAL_TOL
        diff = float(row["relative_l2_difference"])
        if not diff <= tol:
            errs.append(
                f"simulate: {sorted(pair)} at t={row['time']} differ by {diff:.3g} > {tol:g}"
            )
    return errs


def check_spectrum(outdir: Path, ref: Reference, route: str) -> list[str]:
    rows = _rows(outdir / "spectrum.csv")
    lam = np.repeat(
        [complex(float(r["re_lambda"]), float(r["im_lambda"])) for r in rows],
        [int(r["multiplicity"]) for r in rows],
    )
    if lam.size != ref.eigenvalues.size:
        return [f"spectrum: multiplicities sum to {lam.size}, expected {ref.eigenvalues.size}"]
    lam = lam[np.lexsort((lam.imag, lam.real))]
    errs = []
    rel = np.max(np.abs(lam - ref.eigenvalues)) / np.max(np.abs(ref.eigenvalues))
    if not rel <= EIGENVALUE_TOL:
        errs.append(f"spectrum: eigenvalues off the closed form by {rel:.3g} > {EIGENVALUE_TOL:g}")
    keys = ("res_idempotent", "res_nilpotent_form", "res_commute", "res_nilpotency")
    worst = max(float(r[k]) for r in rows for k in keys)
    if not worst <= IDENTITY_TOL:
        errs.append(f"spectrum: projection-identity residual {worst:.3g} > {IDENTITY_TOL:g}")
    return errs


def check_observability(outdir: Path, ref: Reference, route: str) -> list[str]:
    k = LEADING_SINGULAR_VALUES
    sv = np.array([float(r["sigma"]) for r in _rows(outdir / "singular_values.csv")])[:k]
    tol = TIMESTEP_ROUTE_TOL if route == "timestep" else RESOLVENT_SPECTRAL_TOL
    dev = np.max(np.abs(sv - ref.singular_values)) / ref.singular_values[0]
    if not dev <= tol:
        return [f"observability: {route} singular values off the Talbot map by {dev:.3g} > {tol:g}"]
    return []


def check_invert(outdir: Path, ref: Reference, route: str) -> list[str]:
    rows = _rows(outdir / "recovery.csv")
    guess = np.array(
        [float(r["a_hat"]) for r in rows] + [float(r["b_hat"]) for r in rows]
    )
    if guess.size != ref.truth.size:
        return [f"invert: {guess.size} recovered values, expected {ref.truth.size}"]
    errs = []
    err = np.linalg.norm(guess - ref.truth) / np.linalg.norm(ref.truth)
    if ref.recovery_bound is not None and not err <= ref.recovery_bound:
        errs.append(f"invert: recovery error {err:.4f} > {ref.recovery_bound:g}")
    dev = np.linalg.norm(guess - ref.recovery) / np.linalg.norm(ref.recovery)
    tol = RECOVERY_AGREEMENT_TOL[route]
    if not dev <= tol:
        errs.append(f"invert: {route} recovery is {dev:.3g} off the Talbot-map Tikhonov solution")
    return errs


CHECKS = {
    "simulate": check_simulate,
    "spectrum": check_spectrum,
    "observability": check_observability,
    "invert": check_invert,
}
