"""Non-symmetric eigenstructure: eigenvalue clusters and their Riesz projections.

Clusters the eigenvalues of a general real or complex matrix and computes the
spectral (Riesz) projection P_n and nilpotent part D_n of each cluster, then
verifies the algebra these objects must satisfy:

    P_n^2 = P_n,   D_n = (A - lambda_n) P_n,   D_n P_n = P_n D_n,
    D_n^{d_n} P_n = 0,   sum_n P_n = I.

One eigendecomposition A V = V diag(lambda), with the left eigenvectors read
off inv(V), serves every cluster that is a single well-conditioned
eigenvalue: P_n = v u^T and D_n = r u^T (u.v = 1, r = A v - lambda_n v) are
kept as the three vectors, and each identity residual is an O(N) scalar (the
nilpotent form holds by construction; :func:`verify_identities`).  Clusters
with several members (Jordan blocks, repeated eigenvalues) and
ill-conditioned simple eigenvalues get dense P_n and D_n by trapezoid
quadrature of the resolvent on a circle, kept as two (clusters, N, N)
stacks in cluster order.  The quadrature is also the
cross-check of the eigenvector projections (:func:`contour_difference`), on
a circle 1/128 as wide with an eighth of the nodes: the nearest other
eigenvalue is then at least 256 radii away, so the trapezoid error bound
stays 2^-nodes, at the price of rounding that grows as the circle shrinks.
The quadrature solves its nodes against a block X of right-hand sides and sums
them in groups of ``_STACK``, one matrix product each, giving P X and D X:
X = I builds the dense P_n and D_n, while the cross-check applies both
constructions to ``_PROBES`` fixed unit vectors, one LU and a few
back-solves per node in place of an inverse.  For a real matrix, block and
center it keeps only the upper half of the circle, the lower half being its
complex conjugate.  Both callers hand all their circles to one batched core
(:func:`_contour_sums`), which solves them in pieces of whole circles on one
thread per usable core; LAPACK and BLAS release the interpreter lock, and
the results are bitwise those of one circle at a time.

All spectral arithmetic is done in complex numbers even for real input: a
non-symmetric real matrix generally has complex conjugate pairs, and the
contour formulas are intrinsically complex.

The Riesz data carry their identity report, raw eigenvalues and contour
node count, so :func:`contour_difference` and :func:`write_spectrum_csv`
take them alone.  Whether they can be trusted is decided once, where they
are built: :meth:`RieszData.check` is the one reliability rule, which
``spectrum`` and the mode sum both apply.
"""

from __future__ import annotations

import csv
import itertools
import math
import os
import threading
from dataclasses import dataclass, field, replace

import numpy as np

from .elliptic import as_matrix
from .errors import ContourError, DefectiveClusterError, NumericsError

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
    "contour_difference",
    "write_spectrum_csv",
]

DEFAULT_CONTOUR_NODES = 64
RANK_TOL = 1e-8
# largest eigenvalue condition number ||v|| ||w|| / |w^H v| for which a simple
# cluster's projection comes from its eigenvectors; their error grows with
# kappa much faster than the contour's (demo operator at b1 = 30, kappa
# 2.8e5: 3e-6 against 1.2e-10 for the contour)
KAPPA_MAX = 10.0
# The reliability rule (RieszData.check): simple clusters have condition
# numbers <= CONDITION_MAX, identity residuals are <= IDENTITY_TOL, the
# D-valued ones relative to max(1, |lambda_n|).  On the demo operator the
# relative nilpotency grows with kappa: 4.5e-10 at b1 = 30 (kappa 2.8e5),
# 2.3e-9 at b1 = 32 (9.2e5), 1.3e-8 at b1 = 35 (6e6)
CONDITION_MAX = 1e6
IDENTITY_TOL = 1e-8
DEFECT_TOL = 1e-8  # largest ||D_n||_2 / max(1, |lambda_n|) of a diagonalizable cluster
# kept nodes per group of the quadrature sums: each group adds to P X and
# D X in one product of its (2, group) weights with the flattened solutions,
# so the group size, not the solve batches, fixes their rounding.  A circle
# larger than a piece is solved in stacks of whole groups
_STACK = 8
# largest size of the shifted matrices z I - A that one np.linalg.solve
# takes, whole circles at a time: a piece is 8 of the cross-check's circles
# of 4 kept nodes on the demo operator (N = 32), 3 on riesz-2d (N = 48), 1
# from N = 65, and from N = 91 each circle is a solve of its own.  A full
# circle of 32 kept nodes is solved in stacks of 8 above N = 32.  Pieces of
# 1 MB were no faster and took demo-1d's peak RSS 1.4 MB higher (one BLAS
# thread, 2 cores, with circles of 8 kept nodes).  The calling thread
# allocates each worker's buffer, so no helper thread's malloc arena keeps
# one after the call
_PIECE_BYTES = 1 << 19
# contour_difference re-derives each eigenvector cluster on a circle this
# many times smaller than its own, with nodes / log2(2 * _CHECK_SHRINK) nodes
# (an eighth: 8 of 64, 4 solved for a real center).  Its time and largest
# figure against a circle of r_n / 8 with 16 nodes (fresh processes, 2 cores
# and workers, one BLAS thread; N = 1,024 one run, the old figure
# extrapolated from 4 circles):
#
#                                     r_n / 8, 16 nodes    r_n / 128, 8 nodes
#   demo (N = 32)                     4 ms, 9.7e-15        2.6-3.8 ms, 8.2e-14
#   riesz-2d (N = 48)                 9-15 ms, 4.3e-14     6 ms, 2.5e-13
#   riesz-2d, interior 10 9 (N = 90)  51-91 ms, 3.8e-12    30-38 ms, 9.3e-12
#   interior 16 15 (N = 240)          1.2-1.3 s, 1.6e-13   0.64-0.75 s, 5.3e-13
#   interior 32 32 (N = 1,024)        about 7 min          130 s, 8.5e-12
#   worst of 200 1D and 2D advection-diffusion operators (N 4-25, b1 0-12):
#                                     1.8e-12              6.5e-12
#   worst of 300 random normal 12 x 12 with a pair 1e-5 to 1e-1 ||A|| apart:
#                                     1.1e-11              2.4e-10
#
# The small circle comes too close to its own eigenvalue for the guard of
# riesz_projection, and the cluster keeps its full circle, only where
# r_n < 1.28e-6 max(1, |lambda_n|): with radii of half a gap, only for
# cluster_tol below about 2.6e-6 ||A||, which includes the default 1e-6 ||A||
_CHECK_SHRINK = 128
# contour_difference compares P_n X with v (u.X) for this many seeded Gaussian
# columns X of unit 2-norm: a block of 4 in place of I took the check on the
# riesz-2d operator from 0.31 to 0.13 s at N = 90 and from 8.9 to 2.4 s at
# N = 240 (2 cores, one BLAS thread), with every figure at the same magnitude
# (largest at N = 48 4.95e-14 -> 4.25e-14, at N = 240 1.85e-13 -> 1.64e-13)
_PROBES = 4
_ADVICE = "use the time-stepping route (--route timestep)"


@dataclass
class Eigensystem:
    """Clustered spectrum: centers, contour radii, algebraic multiplicities.

    Also the unit right and left eigenvectors (columns aligned with
    ``raw_eigenvalues``), each cluster's ``members`` (indices into
    ``raw_eigenvalues``) and its eigenvalue ``condition`` number
    ``||v|| ||w|| / |w^H v|``, which is inf for clusters with several
    members.  Built by :func:`eigendecompose`.
    """

    eigenvalues: np.ndarray  # cluster centers, complex
    radii: np.ndarray
    multiplicities: np.ndarray  # ints, sum equals matrix size
    raw_eigenvalues: np.ndarray = field(repr=False)  # unclustered, length N
    cluster_tol: float
    right_vectors: np.ndarray = field(repr=False)
    left_vectors: np.ndarray = field(repr=False)
    members: list = field(repr=False)
    condition: np.ndarray

    @property
    def n_clusters(self) -> int:
        return len(self.eigenvalues)


@dataclass
class RieszData:
    """Per-cluster projections P_n, nilpotents D_n and numerical ranks d_n.

    Built by :func:`compute_riesz_data`, with the eigensystem's
    ``raw_eigenvalues`` and the contour ``nodes``.  The j-th cluster of the
    ``simple`` mask is P_n = v u^T, D_n = r u^T, with v, u, r the columns j
    of V, U, R (u.v = 1, r = A v - lambda_n v): its ``res_nilpotent_form`` is
    0 by construction, and u.v - 1, (u.v) r - (u.r) v and (u.v) r carry the
    check.  The others keep their dense P_n and D_n in order, as the
    (clusters, N, N) stacks ``P`` and ``D`` of :func:`_contour_sums`;
    ``transposed`` marks the data of A^T.  It also keeps what :meth:`check`
    decides from: the eigenvalue ``condition`` numbers (0 for clusters of
    several eigenvalues), the ``identities`` report and the relative
    ``defect`` ||D_n||_2 / max(1, |lambda_n|) of each cluster.
    """

    eigenvalues: np.ndarray
    radii: np.ndarray
    raw_eigenvalues: np.ndarray = field(repr=False)
    nodes: int
    simple: np.ndarray
    V: np.ndarray = field(repr=False)
    U: np.ndarray = field(repr=False)
    R: np.ndarray = field(repr=False)
    P: np.ndarray = field(repr=False)
    D: np.ndarray = field(repr=False)
    multiplicities: np.ndarray
    condition: np.ndarray
    defect: np.ndarray
    identities: IdentityReport | None = field(default=None, repr=False)
    transposed: bool = False

    @property
    def n_clusters(self) -> int:
        return len(self.eigenvalues)

    # every P_n and every D_n as dense matrices, built on each access
    projections = property(lambda self: self._dense(self.V, self.P))
    nilpotents = property(lambda self: self._dense(self.R, self.D))

    def _dense(self, left: np.ndarray, stack: np.ndarray) -> list[np.ndarray]:
        rank_one = (np.outer(a, u) for a, u in zip(left.T, self.U.T))
        contour = iter(stack)
        mats = [next(rank_one) if s else next(contour) for s in self.simple]
        return [M.T for M in mats] if self.transposed else mats

    def apply(self, x: np.ndarray) -> np.ndarray:
        """P_n x of every cluster n for a vector or block x: (n_clusters, *x.shape).

        A simple cluster's v (u.x) costs O(N) per column.  Both orientations
        multiply the v-entry into the u-entry, as P_n does, so a unit x
        selects a column of P_n or of P_n^T bitwise.
        """
        flat = x.reshape(len(x), -1)
        out = np.empty((self.n_clusters, *flat.shape), dtype=complex)
        # the simple clusters' factors scattered to cluster rows, so that one
        # masked product writes every simple block straight into out
        vec = np.zeros((self.n_clusters, len(flat), 1), dtype=complex)
        vec[self.simple, :, 0] = (self.U if self.transposed else self.V).T
        dots = np.zeros((self.n_clusters, 1, flat.shape[1]), dtype=complex)
        dots[self.simple, 0] = (self.V if self.transposed else self.U).T @ flat
        np.multiply(
            *((dots, vec) if self.transposed else (vec, dots)),
            out=out, where=self.simple[:, None, None],
        )
        for i, P in zip(np.flatnonzero(~self.simple), self.P):
            out[i] = (P.T if self.transposed else P) @ flat
        return out.reshape(self.n_clusters, *x.shape)

    def transpose(self) -> "RieszData":
        """The Riesz data of A^T: P_n^T and D_n^T, refused exactly as the data of A."""
        return replace(self, transposed=not self.transposed)

    def check(self) -> None:
        """Raise :class:`NumericsError` unless every simple cluster's condition
        number is at most ``CONDITION_MAX`` and then the identities pass."""
        i = int(np.argmax(self.condition))  # NaN counts as largest
        if not self.condition[i] <= CONDITION_MAX:
            raise NumericsError(
                f"the eigenvalue {self.eigenvalues[i]:.6g} has condition number "
                f"{self.condition[i]:.3g}, above {CONDITION_MAX:.3g}: its spectral "
                f"projection is unreliable, {_ADVICE}"
            )
        report = self.identities
        if not report.passed:
            name, i, value = report.worst_entry()
            where = "" if i is None else f" at the cluster {self.eigenvalues[i]:.6g}"
            raise NumericsError(
                f"Riesz projections fail their identities: {name} {value:.3g}{where} "
                f"exceeds {report.tol:.3g}; the spectral route is unreliable for this "
                f"operator, {_ADVICE}"
            )

    def check_diagonalizable(self) -> None:
        """:meth:`check`, then :class:`DefectiveClusterError` for a cluster
        whose ``defect`` exceeds ``DEFECT_TOL``."""
        self.check()
        i = int(np.argmax(self.defect))  # NaN counts as largest
        if not self.defect[i] <= DEFECT_TOL:
            raise DefectiveClusterError(
                f"cluster at {self.eigenvalues[i]:.6g} has nilpotent part of relative "
                f"size {self.defect[i]:.3g}; the mode-sum oracle is invalid for "
                f"defective clusters, {_ADVICE}"
            )


def _cluster(values: np.ndarray, tol: float) -> list[np.ndarray]:
    """Single-linkage clustering of complex points at distance <= tol.

    Every point takes the smallest label within reach until no label
    changes, so each cluster is labelled by its smallest index; the clusters
    are index arrays in ascending order, listed by their smallest index.
    """
    close = np.abs(values[:, None] - values[None, :]) <= tol
    n = len(values)
    labels = np.arange(n)
    while True:
        reach = np.where(close, labels, n).min(axis=1)
        if np.array_equal(reach, labels):
            break
        labels = reach
    order = np.argsort(labels, kind="stable")
    return np.split(order, np.flatnonzero(np.diff(labels[order])) + 1)


def eigendecompose(A, cluster_tol: float | None = None) -> Eigensystem:
    """Eigenvalues and eigenvectors of a general matrix, merged into clusters.

    One ``np.linalg.eig`` call on the matrix as given (LAPACK ``dgeev`` for
    real input, so conjugate eigenvalues get exactly conjugate vectors)
    supplies the eigenvalues and the unit right eigenvectors V; the left
    eigenvectors are the columns of inv(V)^H, scaled to unit length.  From
    them comes each single-member cluster's condition number.  The
    eigenvalues are complex even when all of them are real.

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
        scale = np.linalg.norm(mat, 2) if n > 1 else abs(mat[0, 0])
        cluster_tol = 1e-6 * max(scale, 1.0)
    try:
        raw, right = np.linalg.eig(mat)
        left = np.linalg.inv(right).conj().T
    except np.linalg.LinAlgError as exc:  # pragma: no cover - rare
        raise NumericsError(f"eigenvalue computation failed: {exc}") from exc
    raw = raw.astype(complex)
    left = left / np.linalg.norm(left, axis=0)
    groups = _cluster(raw, cluster_tol)
    mults = np.array([len(g) for g in groups])
    first = np.array([g[0] for g in groups])
    centers = raw[first]  # a lone eigenvalue is its own mean
    for i in np.flatnonzero(mults > 1):
        centers[i] = raw[groups[i]].mean()
    order = np.lexsort((centers.imag, centers.real))
    centers, mults, first = centers[order], mults[order], first[order]
    groups = [groups[i] for i in order]

    if len(centers) == 1:
        radii = np.array([max(1.0, 10.0 * cluster_tol)])
    else:
        gaps = np.abs(centers[:, None] - centers[None, :])
        np.fill_diagonal(gaps, np.inf)
        radii = 0.5 * gaps.min(axis=1)
    for i in np.flatnonzero(mults > 1):  # a lone eigenvalue has no spread
        g, lam, rad = groups[i], centers[i], radii[i]
        spread = np.abs(raw[g] - lam).max()
        if spread > 0.5 * rad:
            raise NumericsError(
                f"cluster at {lam:.6g} has spread {spread:.3g} "
                f"comparable to its contour radius {rad:.3g}; "
                f"increase cluster_tol"
            )
    with np.errstate(divide="ignore"):  # w^H v = 0 is a defective eigenvalue
        kappa = (
            np.linalg.norm(right, axis=0)
            * np.linalg.norm(left, axis=0)
            / np.abs(np.sum(left.conj() * right, axis=0))
        )
    condition = np.where(mults == 1, kappa[first], np.inf)
    return Eigensystem(
        centers, radii, mults, raw, cluster_tol, right, left, groups, condition
    )


def _near_spectrum(eigenvalues, lam, radius) -> tuple[np.ndarray, np.ndarray]:
    """Whether each circle |z - lam| = radius is too close to the spectrum for
    :func:`riesz_projection`, and its distance to the nearest eigenvalue;
    ``lam`` and ``radius`` broadcast against each other."""
    # distance of the circle itself (not just the quadrature nodes) to the
    # spectrum: an eigenvalue on or near the contour invalidates the integral
    lam, radius = np.asarray(lam), np.asarray(radius)
    gaps = np.abs(np.asarray(eigenvalues) - lam[..., None])
    dist = np.min(np.abs(gaps - radius[..., None]), axis=-1)
    return dist < 1e-8 * np.maximum(np.maximum(1.0, radius), np.abs(lam)), dist


def riesz_projection(
    A,
    lam: complex,
    radius: float,
    nodes: int = DEFAULT_CONTOUR_NODES,
    eigenvalues: np.ndarray | None = None,
    block: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """P X and D X for the spectral projection P and nilpotent D of the
    cluster inside a circle, and a block X of columns (default I: P and D).

    Trapezoid rule on the circle |z - lam| = radius, spectrally accurate for
    the analytic resolvent (Trefethen & Weideman, SIAM Rev. 56, 2014): with
    nodes z_k = lam + radius e^{i theta_k}, theta_k = 2 pi (k + 1/2) / nodes,
    and weights w_k = radius e^{i theta_k} / nodes,

        P = sum_k w_k R(z_k),   D = sum_k w_k (z_k - lam) R(z_k),

    where R(z) = (z I - A)^{-1}.  For real A, real X and real lam,
    R(conj z) X = conj(R(z) X) and node k pairs with node nodes-1-k, so only
    the nodes with theta_k in (0, pi] are solved: each pair counts twice and
    the real part is kept (for odd ``nodes`` the single node at theta = pi
    counts once).  Each kept node costs one LU and one back-solve per column
    of X (for X = I bitwise the inverse), and the sums add groups of
    ``_STACK`` nodes in node order, one product of the (2, group) weights
    with the flattened solutions each.  P X and D X are complex either way.  When ``eigenvalues`` is supplied, a circle too close
    to the spectrum raises :class:`ContourError` with the offending distance;
    a singular node raises it too.  This is the one-circle case of
    :func:`_contour_sums`, which :func:`compute_riesz_data` and
    :func:`contour_difference` call for all their circles at once.
    """
    PX, DX = _contour_sums(A, np.array([lam]), np.array([radius]), nodes, block, eigenvalues)
    return PX[0], DX[0]


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _contour_sums(A, centers, radii, nodes, block=None, eigenvalues=None):
    """(P X, D X) of :func:`riesz_projection` on every circle
    |z - centers[c]| = radii[c] with ``nodes`` nodes (or ``nodes[c]``), as two
    (circles, *X.shape) arrays, bitwise those of one call per circle.

    The guard runs first, for every circle at once: the first circle in
    order that comes too close to ``eigenvalues`` raises.  The kept nodes of
    all circles are laid end to end, and the circles are cut into pieces of
    whole circles whose shifted matrices z I - A take at most
    ``_PIECE_BYTES``; a piece is one ``np.linalg.solve``, and a circle larger
    than that is a piece of its own, solved in stacks of whole groups.
    ``min(usable cores, pieces)`` workers, the calling thread among them,
    take the pieces in order, one at a time (LAPACK and BLAS release the
    interpreter lock), and build the shifted matrices in a stack of -A the
    calling thread allocated for each.  A piece whose solve is singular is
    solved again one circle at a time; the first singular circle in order
    raises.
    """
    if np.any(np.asarray(nodes) < 1):
        raise ValueError(f"contour quadrature needs at least 1 node, got {np.min(nodes)}")
    mat = as_matrix(A)
    n = mat.shape[0]
    rhs = np.eye(n, dtype=complex) if block is None else np.asarray(block, dtype=complex)
    if not len(centers):
        return (np.empty((0, *rhs.shape), dtype=complex),) * 2
    nodes = np.broadcast_to(nodes, centers.shape)
    if eigenvalues is not None:
        near, dist = _near_spectrum(eigenvalues, centers, radii)
        for c in np.flatnonzero(near)[:1]:
            raise ContourError(
                f"contour around {centers[c]:.6g} (radius {radii[c]:.3g}) passes within "
                f"{dist[c]:.3g} of the spectrum"
            )
    # the kept nodes of every circle, end to end, with their (2, nodes) weights
    conjugate = (np.isrealobj(mat) and not np.iscomplexobj(block)) & (np.imag(centers) == 0)
    kept = np.where(conjugate, (nodes + 1) // 2, nodes)
    ends = np.cumsum(kept)
    starts = ends - kept
    circle = np.repeat(np.arange(len(centers)), kept)
    k = np.arange(kept.sum()) - starts[circle]
    per, lam, rad = nodes[circle], centers[circle], radii[circle]
    phase = np.exp(1j * (2.0 * np.pi * (k + 0.5) / per))
    zs = lam + rad * phase
    w = rad * phase / per
    w[conjugate[circle] & (k < per // 2)] *= 2.0  # the mirror node's conjugate term
    weights = np.stack([w, w * (zs - lam)])  # the rows of P and of D
    # pieces: [first, last) circles, and the nodes one solve takes: all of
    # them, or for a circle larger than a piece a stack of whole groups (the
    # whole circle if it is smaller than a group)
    cap = max(1, _PIECE_BYTES // (16 * n * n))
    pieces = []
    for c in range(len(centers)):
        if pieces and ends[c] - starts[pieces[-1][0]] <= cap:
            pieces[-1][1] = c + 1
        else:
            pieces.append([c, c + 1])
    sizes = [ends[b - 1] - starts[a] for a, b in pieces]
    steps = [s if s <= cap else min(s, _STACK * max(1, cap // _STACK)) for s in sizes]
    workers = max(1, min(_usable_cores(), len(pieces)))
    # each worker's stack of -A, whose diagonals each solve sets to z - a_ii
    # (np.linalg.solve leaves its input as it is)
    neg = np.negative(mat).astype(complex)
    buffers = [np.broadcast_to(neg, (max(steps, default=0), n, n)).copy() for _ in range(workers)]
    sums = np.zeros((len(centers), 2, rhs.size), dtype=complex)
    failed = [None] * workers  # a worker's first (circle, exception)
    diag = np.diagonal(neg)

    def solve(buffer, lo, hi):
        stack = buffer[: hi - lo]
        stack.reshape(hi - lo, n * n)[:, :: n + 1] = diag + zs[lo:hi, None]
        return np.linalg.solve(stack, rhs).reshape(hi - lo, rhs.size)

    def singular(buffer, c, step):
        try:
            for lo in range(starts[c], ends[c], step):
                solve(buffer, lo, min(lo + step, ends[c]))
        except np.linalg.LinAlgError:
            return True
        return False

    todo, lock = itertools.count(), threading.Lock()

    def work(w):
        while True:
            with lock:
                p = next(todo)
            if p >= len(pieces):
                return
            (first, last), step = pieces[p], steps[p]
            try:
                for lo in range(starts[first], ends[last - 1], step):
                    hi = min(lo + step, ends[last - 1])
                    res = solve(buffers[w], lo, hi)
                    for c in range(first, last):
                        for a in range(max(starts[c], lo), min(ends[c], hi), _STACK):
                            b = min(a + _STACK, ends[c])
                            sums[c] += weights[:, a:b] @ res[a - lo : b - lo]
            except np.linalg.LinAlgError:
                c = next((c for c in range(first, last) if singular(buffers[w], c, step)), first)
                failed[w] = c, ContourError(
                    f"resolvent solve singular on the contour around {centers[c]:.6g} "
                    f"(radius {radii[c]:.3g})"
                )
                return
            except Exception as exc:  # raised below, in the caller's thread
                failed[w] = first, exc
                return

    helpers = [threading.Thread(target=work, args=(w,)) for w in range(1, workers)]
    for t in helpers:
        t.start()
    try:
        work(0)
    finally:
        for t in helpers:
            t.join()
    errors = [f for f in failed if f is not None]
    if errors:
        raise min(errors, key=lambda f: f[0])[1]
    sums = sums.reshape(len(centers), 2, *rhs.shape)
    sums.imag[conjugate] = 0.0
    return sums[:, 0], sums[:, 1]


def _numerical_rank(P: np.ndarray, tol: float = RANK_TOL) -> np.ndarray:
    """Singular values above ``tol`` times the largest, of each matrix of a stack."""
    s = np.linalg.svd(P, compute_uv=False)
    return np.sum(s > tol * s[..., :1], axis=-1)


def compute_riesz_data(A, eigsys: Eigensystem, nodes: int = DEFAULT_CONTOUR_NODES) -> RieszData:
    """Projections and nilpotents for every cluster of an eigensystem.

    A cluster that is one eigenvalue with condition number at most
    ``KAPPA_MAX`` gets multiplicity 1 and the factors of P = v u^T and
    D = r u^T from the stored eigenvectors, all such clusters at once.
    Every other cluster gets the quadrature of :func:`riesz_projection` with
    ``nodes`` nodes, all such clusters in one :func:`_contour_sums` call,
    and its multiplicity is the numerical rank of P_n (robust under
    clustering decisions), not the eigensolver count.  ``nodes`` is checked
    up front, also when no cluster needs the contour.  It also records the
    single-eigenvalue clusters' condition numbers, the
    :func:`verify_identities` report and the defects; a rank-one D = r u^T
    has ||D||_2 = ||r|| ||u||.
    """
    mat = as_matrix(A)
    simple = eigsys.condition <= KAPPA_MAX
    lam = eigsys.eigenvalues
    k = [eigsys.members[i][0] for i in np.flatnonzero(simple)]
    V = eigsys.right_vectors[:, k].astype(complex)
    U = eigsys.left_vectors[:, k].conj()
    U = U / np.sum(U * V, axis=0)
    R = mat @ V - V * lam[simple]

    contour = np.flatnonzero(~simple)
    raw = eigsys.raw_eigenvalues
    P, D = _contour_sums(A, lam[contour], eigsys.radii[contour], nodes, eigenvalues=raw)
    ranks, defect = np.ones(len(lam), dtype=int), np.empty(len(lam))
    defect[simple] = np.linalg.norm(R, axis=0) * np.linalg.norm(U, axis=0)
    ranks[contour] = np.maximum(_numerical_rank(P), 1)
    defect[contour] = np.linalg.norm(D, 2, axis=(1, 2))
    rd = RieszData(
        eigenvalues=lam.copy(), radii=eigsys.radii.copy(), raw_eigenvalues=raw, nodes=nodes,
        simple=simple, V=V, U=U, R=R, P=P, D=D, multiplicities=ranks,
        condition=np.where(eigsys.multiplicities == 1, eigsys.condition, 0.0),
        defect=defect / np.maximum(1.0, np.abs(lam)),
    )
    rd.identities = verify_identities(A, rd)
    return rd


@dataclass
class IdentityReport:
    """Max-norm residuals of the projection algebra, per cluster.

    :attr:`passed` takes the D-valued ones relative to max(1, |lambda_n|), as
    those of (A - lambda_n) P_n grow with |lambda_n|; the rest are absolute.
    """

    # the P-valued residual first, then the D-valued ones
    NAMES = ("res_idempotent", "res_nilpotent_form", "res_commute", "res_nilpotency")

    eigenvalues: np.ndarray
    res_idempotent: np.ndarray  # ||P^2 - P||
    res_nilpotent_form: np.ndarray  # ||D - (A - lam) P||
    res_commute: np.ndarray  # ||D P - P D||
    res_nilpotency: np.ndarray  # ||D^{d} P||
    completeness: float  # ||sum P - I||_2
    tol: float

    @property
    def worst(self) -> float:
        """Largest absolute residual over all clusters and identities, completeness included."""
        parts = [getattr(self, name) for name in self.NAMES]
        return float(np.max(np.concatenate([*parts, [self.completeness]])))

    @property
    def passed(self) -> bool:
        return bool(self.worst_entry()[2] <= self.tol)

    def worst_entry(self) -> tuple[str, int | None, float]:
        """(residual name, cluster index, value) of the largest residual as
        :attr:`passed` scales it; the index is None for the completeness defect."""
        table = np.array([getattr(self, name) for name in self.NAMES])
        table[1:] /= np.maximum(1.0, np.abs(self.eigenvalues))
        flat = np.append(table.ravel(), self.completeness)
        k = int(np.argmax(flat))  # NaN counts as largest
        if k == table.size:
            return "completeness", None, self.completeness
        row, col = divmod(k, table.shape[1])
        name = self.NAMES[row] + (" / max(1, |lambda|)" if row else "")
        return name, col, float(flat[k])


def _maxabs(M: np.ndarray) -> float:
    return float(np.max(np.abs(M))) if M.size else 0.0


def verify_identities(A, rd: RieszData, tol: float = IDENTITY_TOL) -> IdentityReport:
    """Residuals of the four projection identities plus completeness.

    A simple cluster's residuals are max norms of rank-one matrices, O(N)
    each: |u.v - 1| max|v| max|u| (idempotence), 0 for the nilpotent form (r
    is (A - lambda) v by definition), max|(u.v) r - (u.r) v| max|u| and
    |u.v| max|r| max|u|.  Contour clusters are checked with dense products.
    """
    uv, u_max = np.sum(rd.U * rd.V, axis=0), np.abs(rd.U).max(axis=0)
    rows = np.zeros((rd.n_clusters, 4))  # a simple cluster's nilpotent form stays 0
    rows[rd.simple, 0] = np.abs(uv - 1.0) * np.abs(rd.V).max(axis=0) * u_max
    rows[rd.simple, 2] = np.abs(uv * rd.R - np.sum(rd.U * rd.R, axis=0) * rd.V).max(axis=0) * u_max
    rows[rd.simple, 3] = np.abs(uv) * np.abs(rd.R).max(axis=0) * u_max
    for i, P, D in zip(np.flatnonzero(~rd.simple), rd.P, rd.D):
        rows[i] = (
            _maxabs(P @ P - P),
            _maxabs(D - (as_matrix(A) - rd.eigenvalues[i] * np.eye(len(P))) @ P),
            _maxabs(D @ P - P @ D),
            _maxabs(np.linalg.matrix_power(D, int(rd.multiplicities[i])) @ P),
        )
    residuals = dict(zip(IdentityReport.NAMES, rows.T))
    return IdentityReport(
        rd.eigenvalues.copy(), **residuals, completeness=completeness_defect(rd), tol=tol
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
    """Spectral norm of V U^T + sum of the contour P_n - I (exact: 0)."""
    acc = rd.V @ rd.U.T
    for P in rd.P:
        acc += P
    return float(np.linalg.norm(acc - np.eye(len(acc)), 2))


def contour_difference(A, rd: RieszData) -> np.ndarray:
    """max|(P_contour - P_n) X| per cluster of the Riesz data ``rd`` of A.

    Recomputes the projections that were built from eigenvectors by the
    quadrature of :func:`riesz_projection`, all of them in one
    :func:`_contour_sums` call, so the two constructions check each other.
    Clusters already built by the contour read 0 and are not recomputed, so
    the quadrature runs exactly once per cluster over both calls.  Circles,
    guard and node count are those ``rd`` was built with.

    Both constructions are applied to the same X of :func:`_probes`:
    ``_PROBES`` fixed Gaussian columns of unit 2-norm, so each node costs
    one LU and ``_PROBES`` back-solves, not an inverse (a randomized check,
    Halko, Martinsson & Tropp, SIAM Rev. 53, 2011).  An entry of (dP) X is
    at most the 2-norm of a row of dP = P_contour - v u^T, hence at most
    sqrt(N) max|dP|, and a nonzero dP that every probe misses has
    probability zero.

    Each recomputed cluster is a single eigenvalue at the center of its
    circle, and every other eigenvalue lies at least twice the radius r_n
    away.  So the check integrates on the circle of radius
    r_n / ``_CHECK_SHRINK`` = r_n / 128, whose nearest outside pole is at
    least 256 times its radius away, with ceil(nodes / 8) nodes: the
    trapezoid rule errs by about (1/256)^(nodes/8) = 2^-nodes, the bound of
    ``nodes`` nodes on r_n, for an eighth of the resolvent solves.  The price
    is rounding, which grows about like eps ||A|| / radius as the circle
    shrinks.  A cluster keeps r_n and ``nodes`` where either circle comes too
    close to the spectrum for :func:`riesz_projection`: the small one only
    when ``cluster_tol`` is below about 2.6e-6 ||A|| (the default 1e-6 ||A||
    among them) and then only for a gap below about 2.6e-6 |lambda_n|, the
    full one (which then raises :class:`ContourError`) only for radii that
    are not half-gaps.
    """
    diff = np.zeros(rd.n_clusters)
    clusters = np.flatnonzero(rd.simple)
    small = rd.radii / _CHECK_SHRINK
    circles = np.stack([rd.radii, small])
    fits = ~_near_spectrum(rd.raw_eigenvalues, rd.eigenvalues, circles)[0].any(axis=0)
    few = math.ceil(rd.nodes / math.log2(2 * _CHECK_SHRINK))
    X = _probes(len(rd.V))
    PX, _ = _contour_sums(
        A, rd.eigenvalues[clusters], np.where(fits, small, rd.radii)[clusters],
        np.where(fits, few, rd.nodes)[clusters], X, rd.raw_eigenvalues,
    )
    # u.X one cluster at a time: one (clusters, N) @ (N, 4) product rounds otherwise
    UX = np.array([u @ X for u in rd.U.T]).reshape(-1, X.shape[1])
    diff[clusters] = np.abs(PX - rd.V.T[:, :, None] * UX[:, None]).max(axis=(1, 2), initial=0.0)
    return diff


def _probes(n: int) -> np.ndarray:
    """The (n, ``_PROBES``) block X of :func:`contour_difference`: Gaussian
    columns from a fixed seed, scaled to unit 2-norm."""
    X = np.random.default_rng(0).standard_normal((n, _PROBES))
    return X / np.linalg.norm(X, axis=0)


def write_spectrum_csv(rd: RieszData, path, contour_diff: np.ndarray) -> None:
    """Spectrum report: one row per cluster with its ``rd.identities``
    residuals and the :func:`contour_difference` of its projection."""
    report = rd.identities
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        columns = ["re_lambda", "im_lambda", "multiplicity", "radius", *report.NAMES]
        writer.writerow([*columns, "contour_difference"])
        for i, lam in enumerate(rd.eigenvalues):
            head = [f"{lam.real:.17g}", f"{lam.imag:.17g}", int(rd.multiplicities[i])]
            residuals = [f"{getattr(report, name)[i]:.6g}" for name in report.NAMES]
            writer.writerow([*head, f"{rd.radii[i]:.17g}", *residuals, f"{contour_diff[i]:.6g}"])
