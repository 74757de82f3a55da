"""Non-symmetric eigenstructure via resolvent contour integrals.

Clusters the eigenvalues of a general real or complex matrix, computes the
spectral (Riesz) projection P_n and nilpotent part D_n of each cluster by
trapezoid quadrature of the resolvent on a circle, and verifies the algebra
these objects must satisfy:

    P_n^2 = P_n,   D_n = (A - lambda_n) P_n,   D_n P_n = P_n D_n,
    D_n^{d_n} P_n = 0,   sum_n P_n = I.

All spectral arithmetic is done in complex numbers even for real input: a
non-symmetric real matrix generally has complex conjugate pairs, and the
contour formulas are intrinsically complex.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse.csgraph

from .elliptic import as_matrix
from .errors import ContourError, NumericsError

__all__ = [
    "Eigensystem",
    "RieszData",
    "IdentityReport",
    "Lemma3Result",
    "eigendecompose",
    "riesz_projection",
    "compute_riesz_data",
    "verify_identities",
    "lemma3_check",
    "completeness_defect",
    "write_spectrum_csv",
]

DEFAULT_CONTOUR_NODES = 64
RANK_TOL = 1e-8


@dataclass
class Eigensystem:
    """Clustered spectrum: centers, contour radii, algebraic multiplicities."""

    eigenvalues: np.ndarray  # cluster centers, complex
    radii: np.ndarray
    multiplicities: np.ndarray  # ints, sum equals matrix size
    raw_eigenvalues: np.ndarray = field(repr=False)  # unclustered, length N
    cluster_tol: float = 0.0

    @property
    def n_clusters(self) -> int:
        return len(self.eigenvalues)


@dataclass
class RieszData:
    """Per-cluster projections P_n, nilpotents D_n and numerical ranks d_n."""

    eigenvalues: np.ndarray
    radii: np.ndarray
    projections: list[np.ndarray] = field(repr=False)
    nilpotents: list[np.ndarray] = field(repr=False)
    multiplicities: np.ndarray = field(default=None)

    @property
    def n_clusters(self) -> int:
        return len(self.projections)


def _cluster(values: np.ndarray, tol: float) -> list[np.ndarray]:
    """Single-linkage clustering of complex points at distance <= tol."""
    close = np.abs(values[:, None] - values[None, :]) <= tol
    count, labels = scipy.sparse.csgraph.connected_components(close, directed=False)
    return [np.flatnonzero(labels == k) for k in range(count)]


def eigendecompose(A, cluster_tol: float | None = None) -> Eigensystem:
    """Eigenvalues of a general matrix, merged into clusters.

    Eigenvalues within ``cluster_tol`` of each other (single linkage) become one
    cluster located at their mean, with summed multiplicity.  The contour
    radius of a cluster is half the distance to the nearest other cluster, so
    no two circles overlap (r_i + r_j <= |lambda_i - lambda_j|); a lone
    cluster gets max(1, 10 * cluster_tol).  A cluster whose members spread
    over more than half its radius raises :class:`NumericsError`.

    ``cluster_tol`` defaults to 1e-6 * ||A||_2, the natural size of eigenvalue
    perturbations of discretized non-normal operators.
    """
    mat = as_matrix(A)
    n = mat.shape[0]
    if n < 1:
        raise ValueError("empty matrix")
    if cluster_tol is None:
        scale = scipy.linalg.norm(mat, 2) if n > 1 else abs(mat[0, 0])
        cluster_tol = 1e-6 * max(scale, 1.0)
    try:
        raw = scipy.linalg.eigvals(mat)
    except scipy.linalg.LinAlgError as exc:  # pragma: no cover - rare
        raise NumericsError(f"eigenvalue computation failed: {exc}") from exc
    groups = _cluster(raw, cluster_tol)
    centers = np.array([raw[g].mean() for g in groups])
    mults = np.array([len(g) for g in groups])
    order = np.lexsort((centers.imag, centers.real))
    centers, mults = centers[order], mults[order]
    groups = [groups[i] for i in order]

    if len(centers) == 1:
        radii = np.array([max(1.0, 10.0 * cluster_tol)])
    else:
        gaps = np.abs(centers[:, None] - centers[None, :])
        np.fill_diagonal(gaps, np.inf)
        radii = 0.5 * gaps.min(axis=1)
    for g, lam, rad in zip(groups, centers, radii):
        spread = np.abs(raw[g] - lam).max()
        if spread > 0.5 * rad:
            raise NumericsError(
                f"cluster at {lam:.6g} has spread {spread:.3g} "
                f"comparable to its contour radius {rad:.3g}; "
                f"increase cluster_tol"
            )
    return Eigensystem(centers, radii, mults, raw, cluster_tol)


def riesz_projection(
    A,
    lam: complex,
    radius: float,
    nodes: int = DEFAULT_CONTOUR_NODES,
    eigenvalues: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Spectral projection P and nilpotent D of the cluster inside a circle.

    Trapezoid rule on the circle |z - lam| = radius, spectrally accurate for
    the analytic resolvent; each node costs one linear solve with N right-hand
    sides.  When ``eigenvalues`` is supplied, nodes too close to the spectrum
    raise :class:`ContourError` with the offending distance.
    """
    if nodes < 1:
        raise ValueError(f"contour quadrature needs at least 1 node, got {nodes}")
    mat = as_matrix(A).astype(complex)
    n = mat.shape[0]
    theta = 2.0 * np.pi * (np.arange(nodes) + 0.5) / nodes
    zs = lam + radius * np.exp(1j * theta)
    if eigenvalues is not None:
        # distance of the circle itself (not just the quadrature nodes) to the
        # spectrum: an eigenvalue on or near the contour invalidates the integral
        dist = float(np.min(np.abs(np.abs(np.asarray(eigenvalues) - lam) - radius)))
        if dist < 1e-8 * max(1.0, radius, abs(lam)):
            raise ContourError(
                f"contour around {lam:.6g} (radius {radius:.3g}) passes within "
                f"{dist:.3g} of the spectrum"
            )
    eye = np.eye(n, dtype=complex)
    P = np.zeros((n, n), dtype=complex)
    D = np.zeros((n, n), dtype=complex)
    for z, th in zip(zs, theta):
        try:
            res = scipy.linalg.solve(z * eye - mat, eye)
        except scipy.linalg.LinAlgError as exc:
            raise ContourError(
                f"resolvent solve singular at contour node z={z:.6g}"
            ) from exc
        w = radius * np.exp(1j * th) / nodes
        P += w * res
        D += w * (z - lam) * res
    return P, D


def _numerical_rank(P: np.ndarray, tol: float = RANK_TOL) -> int:
    s = scipy.linalg.svdvals(P)
    if s[0] == 0.0:
        return 0
    return int(np.sum(s > tol * s[0]))


def compute_riesz_data(
    A,
    eigsys: Eigensystem,
    nodes: int = DEFAULT_CONTOUR_NODES,
) -> RieszData:
    """Projections and nilpotents for every cluster of an eigensystem.

    Multiplicities are taken as the numerical rank of each P_n (robust under
    clustering decisions), not from the eigensolver counts.
    """
    Ps, Ds, ranks = [], [], []
    for lam, rad in zip(eigsys.eigenvalues, eigsys.radii):
        P, D = riesz_projection(A, lam, rad, nodes, eigenvalues=eigsys.raw_eigenvalues)
        Ps.append(P)
        Ds.append(D)
        ranks.append(max(_numerical_rank(P), 1))
    return RieszData(
        eigenvalues=eigsys.eigenvalues.copy(),
        radii=eigsys.radii.copy(),
        projections=Ps,
        nilpotents=Ds,
        multiplicities=np.array(ranks),
    )


@dataclass
class IdentityReport:
    """Max-norm residuals of the projection algebra, per cluster."""

    eigenvalues: np.ndarray
    res_idempotent: np.ndarray  # ||P^2 - P||
    res_nilpotent_form: np.ndarray  # ||D - (A - lam) P||
    res_commute: np.ndarray  # ||D P - P D||
    res_nilpotency: np.ndarray  # ||D^{d} P||
    completeness: float  # ||sum P - I||_2
    tol: float

    @property
    def worst(self) -> float:
        """Largest residual over all clusters and identities, completeness included."""
        parts = (self.res_idempotent, self.res_nilpotent_form, self.res_commute, self.res_nilpotency)
        return float(np.max(np.concatenate([*parts, [self.completeness]])))

    @property
    def passed(self) -> bool:
        return bool(self.worst <= self.tol)


def _maxabs(M: np.ndarray) -> float:
    return float(np.max(np.abs(M))) if M.size else 0.0


def verify_identities(A, rd: RieszData, tol: float = 1e-8) -> IdentityReport:
    """Residuals of the four projection identities plus completeness."""
    mat = as_matrix(A).astype(complex)
    nc = rd.n_clusters
    r_idem = np.empty(nc)
    r_form = np.empty(nc)
    r_comm = np.empty(nc)
    r_nilp = np.empty(nc)
    for i in range(nc):
        P, D, lam, d = rd.projections[i], rd.nilpotents[i], rd.eigenvalues[i], int(
            rd.multiplicities[i]
        )
        r_idem[i] = _maxabs(P @ P - P)
        r_form[i] = _maxabs(D - (mat - lam * np.eye(mat.shape[0])) @ P)
        r_comm[i] = _maxabs(D @ P - P @ D)
        r_nilp[i] = _maxabs(np.linalg.matrix_power(D, d) @ P)
    return IdentityReport(
        eigenvalues=rd.eigenvalues.copy(),
        res_idempotent=r_idem,
        res_nilpotent_form=r_form,
        res_commute=r_comm,
        res_nilpotency=r_nilp,
        completeness=completeness_defect(rd),
        tol=tol,
    )


@dataclass
class Lemma3Result:
    k0: int
    residual: float
    degenerate: bool
    note: str


def lemma3_check(
    A,
    lam: complex,
    P: np.ndarray,
    D: np.ndarray,
    phi: np.ndarray,
    tol: float = 1e-8,
) -> Lemma3Result:
    """Minimal k0 with D^{k0} P phi ~ 0, and the residual ||(A - lam) D^{k0-1} P phi||.

    The residual is computed directly from A (not from D), so it genuinely
    tests that annihilation by D at stage k0 forces the previous stage into the
    eigenspace.  P phi ~ 0 is reported as the degenerate case k0 = 0.
    """
    mat = as_matrix(A).astype(complex)
    phi = np.asarray(phi, dtype=complex)
    v = P @ phi
    scale = float(np.linalg.norm(v))
    if scale <= tol * max(1.0, float(np.linalg.norm(phi))):
        return Lemma3Result(0, 0.0, True, "P phi vanishes; cluster orthogonal to probe")
    bound = mat.shape[0]
    prev = v
    for k in range(1, bound + 1):
        cur = D @ prev
        if np.linalg.norm(cur) <= tol * scale:
            shifted = (mat - lam * np.eye(mat.shape[0])) @ prev
            return Lemma3Result(k, float(np.linalg.norm(shifted)), False, "")
        prev = cur
    raise NumericsError(
        f"no k0 <= {bound} annihilates the probe; projection data look broken"
    )


def completeness_defect(rd: RieszData) -> float:
    """Spectral norm of sum_n P_n - I (exact resolution of identity is 0)."""
    n = rd.projections[0].shape[0]
    acc = np.zeros((n, n), dtype=complex)
    for P in rd.projections:
        acc += P
    return float(scipy.linalg.norm(acc - np.eye(n), 2))


def write_spectrum_csv(rd: RieszData, report: IdentityReport, path) -> None:
    """Spectrum report: one row per cluster with identity residuals."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            [
                "re_lambda",
                "im_lambda",
                "multiplicity",
                "radius",
                "res_idempotent",
                "res_nilpotent_form",
                "res_commute",
                "res_nilpotency",
            ]
        )
        for i in range(rd.n_clusters):
            lam = rd.eigenvalues[i]
            writer.writerow(
                [
                    f"{lam.real:.17g}",
                    f"{lam.imag:.17g}",
                    int(rd.multiplicities[i]),
                    f"{rd.radii[i]:.17g}",
                    f"{report.res_idempotent[i]:.6g}",
                    f"{report.res_nilpotent_form[i]:.6g}",
                    f"{report.res_commute[i]:.6g}",
                    f"{report.res_nilpotency[i]:.6g}",
                ]
            )
