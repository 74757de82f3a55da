import csv
import dataclasses
import math
import sys
import threading
import tracemalloc
import unittest.mock

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.csgraph
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fracwave import spectral
from fracwave.elliptic import CoefficientField, Mesh, as_matrix, assemble
from fracwave.errors import ContourError, DefectiveClusterError, NumericsError
from fracwave.fraccalc import mittag_leffler_kernel
from fracwave.solver import SourcePair, solve_spectral_oracle
from fracwave.spectral import (
    CONDITION_MAX,
    DEFAULT_CONTOUR_NODES,
    IDENTITY_TOL,
    KAPPA_MAX,
    IdentityReport,
    completeness_defect,
    compute_riesz_data,
    eigendecompose,
    lemma3_check,
    riesz_projection,
    verify_identities,
    write_spectrum_csv,
)


def jordan(lam, n):
    return lam * np.eye(n) + np.diag(np.ones(n - 1), 1)


@pytest.fixture(scope="module")
def advection_operator():
    mesh = Mesh((0.0,), (1.0,), (32,))
    return assemble(mesh, CoefficientField.from_callables(mesh, b1=1.0))


class TestEigendecompose:
    def test_distinct_diagonal(self):
        es = eigendecompose(np.diag([1.0, 2.0, 3.0]), cluster_tol=1e-8)
        np.testing.assert_allclose(es.eigenvalues, [1.0, 2.0, 3.0])
        np.testing.assert_array_equal(es.multiplicities, [1, 1, 1])
        np.testing.assert_allclose(es.radii, 0.5)  # half the unit gaps

    def test_jordan_block_single_cluster(self):
        es = eigendecompose(jordan(5.0, 2), cluster_tol=1e-6)
        assert es.n_clusters == 1
        assert es.eigenvalues[0] == pytest.approx(5.0)
        assert es.multiplicities[0] == 2
        assert es.radii[0] == pytest.approx(1.0)  # lone-cluster default

    def test_dirichlet_laplacian_closed_form(self):
        n = 8
        mesh = Mesh((0.0,), (1.0,), (n,))
        op = assemble(mesh, CoefficientField.from_callables(mesh))
        es = eigendecompose(op)
        h = mesh.spacing[0]
        k = np.arange(1, n + 1)
        np.testing.assert_allclose(
            np.sort(es.eigenvalues.real),
            (2.0 / h**2) * (1.0 - np.cos(k * np.pi * h)),
            rtol=1e-12,
        )
        assert es.n_clusters == n

    def test_multiplicity_sums_to_size(self, advection_operator):
        es = eigendecompose(advection_operator)
        assert int(es.multiplicities.sum()) == 32

    def test_wide_cluster_raises(self):
        # the chain 0, 1, 2 is one cluster at 1 with spread 1, but the next
        # cluster at 3.5 leaves it a radius of only 1.25
        with pytest.raises(NumericsError, match="increase cluster_tol"):
            eigendecompose(np.diag([0.0, 1.0, 2.0, 3.5]), cluster_tol=1.0)

    def test_close_pair_gets_half_gap_radii(self):
        # a gap of 0.05 is below the 10 * cluster_tol = 0.1 that once
        # floored the radii and made these circles overlap
        A = np.diag([0.0, 1.0, 1.05])
        es = eigendecompose(A, cluster_tol=0.01)
        np.testing.assert_allclose(es.radii, [0.5, 0.025, 0.025], rtol=1e-12)
        assert verify_identities(A, compute_riesz_data(A, es)).passed

    def test_square_grid_with_advection(self):
        # near-degenerate pairs of the 2D Kronecker-sum spectrum sit about
        # 0.02 apart here
        mesh = Mesh((0.0, 0.0), (1.0, 1.0), (12, 12))
        op = assemble(mesh, CoefficientField.from_callables(mesh, b1=1.0))
        es = eigendecompose(op)
        assert int(es.multiplicities.sum()) == 144
        assert es.radii.min() < 10.0 * es.cluster_tol

    @settings(max_examples=100, deadline=None)
    @given(
        points=st.lists(
            st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False),
            min_size=1,
            max_size=12,
        ),
        tol=st.floats(1e-3, 0.5),
    )
    def test_circles_never_overlap(self, points, tol):
        try:
            es = eigendecompose(np.diag(np.array(points, dtype=complex)), cluster_tol=tol)
        except NumericsError as exc:
            assert "spread" in str(exc)
            return
        c, r = es.eigenvalues, es.radii
        dist = np.abs(c[:, None] - c[None, :])
        np.fill_diagonal(dist, np.inf)
        assert np.all(r[:, None] + r[None, :] <= dist)

    @settings(max_examples=100, deadline=None)
    @given(
        points=st.lists(
            st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False),
            min_size=1,
            max_size=16,
        ),
        tol=st.floats(1e-3, 1.0),
    )
    def test_cluster_matches_connected_components(self, points, tol):
        values = np.array(points, dtype=complex)
        close = np.abs(values[:, None] - values[None, :]) <= tol
        count, labels = scipy.sparse.csgraph.connected_components(close, directed=False)
        want = [np.flatnonzero(labels == k) for k in range(count)]
        got = spectral._cluster(values, tol)
        assert [g.tolist() for g in got] == [w.tolist() for w in want]

    @pytest.mark.parametrize("b1", [1.0, 10.0, 30.0, 60.0])
    def test_condition_numbers_match_left_eigenvectors(self, b1):
        # the demo operator; its condition numbers grow like e^(b1 / 2)
        mesh = Mesh((0.0,), (1.0,), (32,))
        op = assemble(mesh, CoefficientField.from_callables(mesh, b1=b1))
        es = eigendecompose(op)
        raw, left, right = scipy.linalg.eig(op.matrix, left=True)
        want = (
            np.linalg.norm(right, axis=0)
            * np.linalg.norm(left, axis=0)
            / np.abs(np.sum(left.conj() * right, axis=0))
        )
        assert es.raw_eigenvalues.dtype == complex
        np.testing.assert_array_equal(es.raw_eigenvalues, raw)
        got = np.empty(len(raw))
        for g, kappa in zip(es.members, es.condition):
            got[g] = kappa
        # inv(V) loses accuracy with cond(V): 4e-11 at b1 = 30, 4.5e-4 at b1 = 60
        assert np.max(np.abs(got - want) / want) <= (1e-9 if b1 <= 30 else 1e-2)
        np.testing.assert_array_equal(got <= KAPPA_MAX, want <= KAPPA_MAX)
        np.testing.assert_allclose(np.linalg.norm(es.left_vectors, axis=0), 1.0, rtol=1e-14)


class TestRieszProjection:
    def test_orthogonal_projector_for_diagonal(self):
        P, D = riesz_projection(np.diag([1.0, 2.0]), 1.0, 0.4, 32)
        np.testing.assert_allclose(P, np.diag([1.0, 0.0]), atol=1e-12)
        assert np.max(np.abs(D)) < 1e-12

    def test_jordan_block(self):
        J = jordan(5.0, 2)
        P, D = riesz_projection(J, 5.0, 1.0, 64)
        np.testing.assert_allclose(P, np.eye(2), atol=1e-12)
        np.testing.assert_allclose(D, np.array([[0.0, 1.0], [0.0, 0.0]]), atol=1e-12)

    def test_completeness_random_nonsymmetric(self):
        rng = np.random.default_rng(42)
        A = rng.standard_normal((6, 6))
        rd = compute_riesz_data(A, eigendecompose(A, cluster_tol=1e-9))
        assert completeness_defect(rd) < 1e-8
        # independent oracle: projector from the eigenvector basis
        w, V = np.linalg.eig(A)
        Vi = np.linalg.inv(V)
        sel = np.argmin(np.abs(w - rd.eigenvalues[0]))
        P_ref = np.outer(V[:, sel], Vi[sel, :])
        assert np.max(np.abs(rd.projections[0] - P_ref)) < 1e-10

    def test_contour_independence(self):
        A = np.diag([1.0, 2.0])
        P1, _ = riesz_projection(A, 1.0, 0.3, 64)
        P2, _ = riesz_projection(A, 1.0, 0.45, 64)
        assert np.max(np.abs(P1 - P2)) < 1e-8

    def test_quadrature_convergence_geometric(self):
        rng = np.random.default_rng(7)
        A = rng.standard_normal((6, 6))
        es = eigendecompose(A)
        residuals = []
        for nodes in (8, 16, 32):
            P, _ = riesz_projection(A, es.eigenvalues[0], es.radii[0], nodes)
            residuals.append(np.max(np.abs(P @ P - P)))
        assert residuals[1] < 0.05 * residuals[0] or residuals[1] < 1e-13
        assert residuals[2] < 0.05 * residuals[1] or residuals[2] < 1e-13

    def test_contour_through_spectrum_rejected(self):
        A = np.diag([1.0, 2.0])
        with pytest.raises(ContourError):
            riesz_projection(A, 1.0, 1.0, 32, eigenvalues=np.array([1.0, 2.0]))

    def test_symmetric_gives_hermitian_projectors(self):
        mesh = Mesh((0.0,), (1.0,), (12,))
        op = assemble(mesh, CoefficientField.from_callables(mesh))
        rd = compute_riesz_data(op, eigendecompose(op))
        for P in rd.projections:
            assert np.max(np.abs(P - P.conj().T)) < 1e-8

    def test_rank_matches_multiplicity(self):
        rd = compute_riesz_data(jordan(2.0, 3), eigendecompose(jordan(2.0, 3), cluster_tol=1e-5))
        assert rd.multiplicities[0] == 3

    def test_singular_node_raises_contour_error(self):
        # nodes = 2 puts a node at lam + radius e^{i pi/2}; a complex matrix
        # keeps both nodes, and no eigenvalues are passed, so only the solve sees it
        node = 0.0 + 1.0 * np.exp(1j * (2.0 * np.pi * 0.5 / 2))
        A = np.diag([node, 5.0 + 0j])
        with pytest.raises(ContourError, match=r"around 0 \(radius 1\)"):
            riesz_projection(A, 0.0, 1.0, 2)

    @pytest.mark.parametrize("A, lam, solved", [
        (np.diag([1.0, 2.0]), 1.0, 32),  # real matrix, real center: half the nodes
        (np.diag([1.0, 2.0]), 1.0 + 0.1j, 64),
        (np.diag([1.0, 2.0]).astype(complex), 1.0, 64),
    ])
    def test_solves_within_the_piece_budget(self, monkeypatch, A, lam, solved):
        # the default block is I: each stack is solved against the identity
        stacks = []
        original = np.linalg.solve

        def counted(a, b):
            assert np.array_equal(b, np.eye(2))
            stacks.append((a.shape, a.nbytes))
            return original(a, b)

        def forbidden(*args, **kwargs):
            raise AssertionError("resolvent by an inverse or a scipy solve")

        monkeypatch.setattr(np.linalg, "solve", counted)
        monkeypatch.setattr(np.linalg, "inv", forbidden)
        monkeypatch.setattr(scipy.linalg, "solve", forbidden)
        riesz_projection(A, lam, 0.4, 64)
        assert spectral._STACK == 8
        assert all(shape[1:] == (2, 2) for shape, _ in stacks)
        assert all(nbytes <= spectral._PIECE_BYTES for _, nbytes in stacks)
        assert sum(shape[0] for shape, _ in stacks) == solved


def reference_contour(A, lam, radius, nodes):
    """The plain trapezoid sum: one scipy.linalg.solve per node, all nodes."""
    mat = np.asarray(A).astype(complex)
    n = mat.shape[0]
    theta = 2.0 * np.pi * (np.arange(nodes) + 0.5) / nodes
    eye = np.eye(n, dtype=complex)
    P = np.zeros((n, n), dtype=complex)
    D = np.zeros((n, n), dtype=complex)
    for th in theta:
        z = lam + radius * np.exp(1j * th)
        res = scipy.linalg.solve(z * eye - mat, eye)
        w = radius * np.exp(1j * th) / nodes
        P += w * res
        D += w * (z - lam) * res
    return P, D


@st.composite
def contour_problems(draw):
    """(A, lam, radius, nodes): small real or complex A, circle well off its spectrum."""
    n = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A = rng.standard_normal((n, n))
    if draw(st.booleans()):
        A = A + 1j * rng.standard_normal((n, n))
    eig = np.linalg.eigvals(A)
    lam = complex(eig[draw(st.integers(0, n - 1))].real, 0.0)
    if draw(st.booleans()):
        lam += 1j * draw(st.floats(0.1, 2.0)) * draw(st.sampled_from([-1, 1]))
    # a radius inside a gap of at least 0.4 between the spectrum's distances
    # to lam: a node near an eigenvalue would magnify rounding in both sums
    dist = np.concatenate([[0.0], np.sort(np.abs(eig - lam)), [np.abs(eig - lam).max() + 2.0]])
    gaps = [(lo, hi) for lo, hi in zip(dist[:-1], dist[1:]) if hi - lo >= 0.4]
    lo, hi = draw(st.sampled_from(gaps))
    radius = lo + (hi - lo) * draw(st.floats(0.25, 0.75))
    nodes = draw(st.one_of(st.sampled_from([1, 2, 3]), st.integers(1, 80)))
    return A, lam, radius, nodes


def inverse_contour(A, lam, radius, nodes, block=None):
    """The quadrature of riesz_projection with each node's resolvent by its
    own np.linalg.inv (or its own solve against ``block``), summed in the
    same groups of 8."""
    mat = np.asarray(A)
    n = mat.shape[0]
    size = n * n if block is None else block.size
    conjugate = np.isrealobj(mat) and not np.iscomplexobj(block) and np.imag(lam) == 0
    k = np.arange((nodes + 1) // 2 if conjugate else nodes)
    phase = np.exp(1j * (2.0 * np.pi * (k + 0.5) / nodes))
    zs = lam + radius * phase
    w = radius * phase / nodes
    if conjugate:
        w[: nodes // 2] *= 2.0
    weights = np.stack([w, w * (zs - lam)])
    sums = np.zeros((2, size), dtype=complex)
    for start in range(0, len(k), 8):
        res = []
        for z in zs[start : start + 8]:
            shifted = np.negative(mat).astype(complex)
            shifted[np.diag_indices(n)] += z
            if block is None:
                res.append(np.linalg.inv(shifted))
            else:
                res.append(np.linalg.solve(shifted, block.astype(complex)))
        sums += weights[:, start : start + 8] @ np.reshape(res, (len(res), size))
    P, D = sums.reshape(2, n, size // n)
    if conjugate:
        P, D = P.real.astype(complex), D.real.astype(complex)
    return P, D


class TestHalvedBatchedQuadrature:
    """riesz_projection against the per-node reference sum."""

    @settings(max_examples=150, deadline=None)
    @given(problem=contour_problems())
    def test_matches_reference_loop(self, problem):
        A, lam, radius, nodes = problem
        P, D = riesz_projection(A, lam, radius, nodes)
        P_ref, D_ref = reference_contour(A, lam, radius, nodes)
        scale = max(1.0, np.max(np.abs(P_ref)))
        assert P.dtype == D.dtype == complex and P.shape == D.shape == A.shape
        if np.isrealobj(A) and lam.imag == 0:
            assert not P.imag.any() and not D.imag.any()
        assert np.max(np.abs(P - P_ref)) <= 1e-12 * scale
        assert np.max(np.abs(D - D_ref)) <= 1e-12 * scale

    @settings(max_examples=100, deadline=None)
    @given(problem=contour_problems())
    def test_identity_block_is_the_inverse_bitwise(self, problem):
        A, lam, radius, nodes = problem
        P, D = riesz_projection(A, lam, radius, nodes, block=np.eye(len(A)))
        P_inv, D_inv = inverse_contour(A, lam, radius, nodes)
        assert np.array_equal(P, P_inv) and np.array_equal(D, D_inv)

    @settings(max_examples=60, deadline=None)
    @given(problem=contour_problems(), columns=st.integers(1, 4), complex_block=st.booleans())
    def test_block_is_applied_to_p_and_d(self, problem, columns, complex_block):
        A, lam, radius, nodes = problem
        rng = np.random.default_rng(nodes)
        X = rng.standard_normal((len(A), columns))
        if complex_block:
            X = X + 1j * rng.standard_normal((len(A), columns))
        PX, DX = riesz_projection(A, lam, radius, nodes, block=X)
        P, D = riesz_projection(A, lam, radius, nodes)
        assert PX.shape == DX.shape == X.shape
        scale = max(1.0, np.max(np.abs(P))) * np.abs(X).sum(axis=0).max()
        assert np.max(np.abs(PX - P @ X)) <= 1e-12 * scale
        assert np.max(np.abs(DX - D @ X)) <= 1e-12 * scale

    def test_complex_block_on_a_real_matrix_and_center(self):
        # the conjugate rule holds only for a real block: kept for this one,
        # it put P X off by 0.85 against max|P @ X| = 1.31
        A = np.diag([1.0, 2.0, 3.0])
        A[0, 1] = 0.3
        X = np.array([[1.0 + 1.0j], [0.5j], [2.0]])
        PX, DX = riesz_projection(A, 1.0, 0.4, 16, block=X)
        P, D = riesz_projection(A, 1.0, 0.4, 16)
        assert np.max(np.abs(PX - P @ X)) <= 1e-12
        assert np.max(np.abs(DX - D @ X)) <= 1e-12


def contour_projection(A, es, i):
    """Cluster i's projection by quadrature, as compute_riesz_data would call it."""
    P, _ = riesz_projection(
        A, es.eigenvalues[i], es.radii[i], DEFAULT_CONTOUR_NODES, eigenvalues=es.raw_eigenvalues
    )
    return P


def assert_constructions_agree(A, es, rd):
    """Eigenvector projections match the contour; contour-built ones are its own bits."""
    for i, P in enumerate(rd.projections):
        ref = contour_projection(A, es, i)
        if len(es.members[i]) > 1:
            assert np.array_equal(P, ref)
        else:
            assert np.max(np.abs(P - ref)) <= 1e-10 * max(1.0, np.linalg.norm(P, 2))


@st.composite
def diagonalizable_matrices(draw):
    """S B S^-1 with B real block diagonal (integer spectrum) and cond(S) <= 10."""
    pairs = draw(
        st.lists(st.tuples(st.integers(-5, 5), st.integers(1, 4)), max_size=3, unique=True)
    )
    reals = draw(
        st.lists(st.integers(-6, 6), min_size=0 if pairs else 2, max_size=11 - 2 * len(pairs))
    )
    if reals and draw(st.booleans()):
        reals.append(reals[0])  # a repeated, semisimple eigenvalue
    blocks = [np.array([[a, b], [-b, a]], dtype=float) for a, b in pairs]
    B = scipy.linalg.block_diag(np.diag(np.array(reals, dtype=float)), *blocks)
    n = B.shape[0]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    U = np.linalg.qr(rng.standard_normal((n, n)))[0]
    V = np.linalg.qr(rng.standard_normal((n, n)))[0]
    S = U @ np.diag(np.geomspace(1.0, draw(st.floats(1.0, 10.0)), n)) @ V.T
    return S @ B @ np.linalg.inv(S)


class TestTwoConstructions:
    """Eigenvector projections for simple clusters, the contour for the rest."""

    @settings(max_examples=60, deadline=None)
    @given(A=diagonalizable_matrices())
    def test_agree_on_random_diagonalizable_matrices(self, A):
        es = eigendecompose(A)
        rd = compute_riesz_data(A, es)
        assert_constructions_agree(A, es, rd)
        assert verify_identities(A, rd).passed

    def test_ill_conditioned_simple_clusters_use_the_contour(self):
        # strong advection: eigenvalue condition numbers 1.2e4-2.8e5, where
        # eigenvector projections err by ~4e-6
        mesh = Mesh((0.0,), (1.0,), (32,))
        op = assemble(mesh, CoefficientField.from_callables(mesh, b1=30.0))
        es = eigendecompose(op)
        rd = compute_riesz_data(op, es)
        for i, P in enumerate(rd.projections):
            assert np.max(np.abs(P - contour_projection(op, es, i))) <= 1e-9

    def test_square_grid_mixes_both_constructions(self, monkeypatch):
        # without advection the symmetric modes (j, k) and (k, j) coincide
        mesh = Mesh((0.0, 0.0), (1.0, 1.0), (4, 4))
        op = assemble(mesh, CoefficientField.from_callables(mesh))
        es = eigendecompose(op)
        calls = []
        original = spectral._contour_sums

        def counted(*args, **kwargs):
            calls.extend(args[1])
            return original(*args, **kwargs)

        monkeypatch.setattr(spectral, "_contour_sums", counted)
        rd = compute_riesz_data(op, es)
        monkeypatch.undo()
        multi = np.flatnonzero(es.multiplicities > 1)
        assert 0 < len(multi) < es.n_clusters
        np.testing.assert_array_equal(calls, es.eigenvalues[multi])
        np.testing.assert_array_equal(rd.multiplicities, es.multiplicities)
        assert_constructions_agree(op, es, rd)
        assert verify_identities(op, rd).passed

    def test_nodes_checked_without_contour_clusters(self):
        es = eigendecompose(np.diag([1.0, 2.0]), cluster_tol=1e-8)
        assert (es.condition <= KAPPA_MAX).all()
        with pytest.raises(ValueError, match="at least 1 node"):
            compute_riesz_data(np.diag([1.0, 2.0]), es, nodes=0)

    def test_hand_built_eigensystem_uses_the_contour(self):
        A = np.diag([1.0, 2.0])
        es = eigendecompose(A, cluster_tol=1e-8)
        bare = dataclasses.replace(es, condition=np.full(es.n_clusters, np.inf))
        rd = compute_riesz_data(A, bare)
        for i, P in enumerate(rd.projections):
            assert np.array_equal(P, contour_projection(A, es, i))

    def test_contour_difference_only_recomputes_eigenvector_clusters(self, advection_operator):
        es = eigendecompose(advection_operator)
        rd = compute_riesz_data(advection_operator, es)
        diff = spectral.contour_difference(advection_operator, rd)
        assert diff.shape == (es.n_clusters,) and diff.max() < 1e-12
        J = jordan(2.0, 3)
        esj = eigendecompose(J, cluster_tol=1e-5)
        assert spectral.contour_difference(J, compute_riesz_data(J, esj)).tolist() == [0.0]


class TestContourThreads:
    """Contour clusters run on one thread per usable core, bitwise as on one."""

    @pytest.mark.parametrize("grid, b1", [((4, 4), 0.0), ((32,), 30.0)], ids=["2d-mixed", "1d-b1-30"])
    def test_worker_count_leaves_the_bits(self, monkeypatch, grid, b1):
        dim = len(grid)
        mesh = Mesh((0.0,) * dim, (1.0,) * dim, grid)
        op = assemble(mesh, CoefficientField.from_callables(mesh, b1=b1))
        es = eigendecompose(op)
        assert not (es.condition <= KAPPA_MAX).all()
        runs = []
        for cores in (1, 4):
            monkeypatch.setattr(spectral, "_usable_cores", lambda cores=cores: cores)
            rd = compute_riesz_data(op, es)
            runs.append((rd, spectral.contour_difference(op, rd)))
        (rd1, diff1), (rd4, diff4) = runs
        for name in ("projections", "nilpotents"):
            for X1, X4 in zip(getattr(rd1, name), getattr(rd4, name)):
                assert np.array_equal(X1, X4)
        assert np.array_equal(rd1.multiplicities, rd4.multiplicities)
        assert np.array_equal(rd1.defect, rd4.defect)
        assert np.array_equal(diff1, diff4)

    def test_every_cluster_once_under_fast_switching(self, monkeypatch, advection_operator):
        es = eigendecompose(advection_operator)
        rd = compute_riesz_data(advection_operator, es)
        monkeypatch.setattr(spectral, "_usable_cores", lambda: 1)
        serial = spectral.contour_difference(advection_operator, rd)
        # more threads than cores, each piece one circle
        monkeypatch.setattr(spectral, "_PIECE_BYTES", 4 * 16 * len(rd.V) ** 2)
        calls = record_circles(monkeypatch, cores=8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threaded = spectral.contour_difference(advection_operator, rd)
        finally:
            sys.setswitchinterval(interval)
        calls = [c[0] for c in calls if c[3] == 4]  # every node of the circle solved once
        assert sorted(calls, key=lambda z: (z.real, z.imag)) == list(es.eigenvalues)
        assert np.array_equal(threaded, serial)

    def test_first_failing_circle_raises(self, monkeypatch):
        # the circles around 1 and 2 (radius 1) both pass through eigenvalues;
        # the second cluster's error surfaces, as in a serial loop
        A = np.diag([0.0, 1.0, 2.0])
        raw = np.array([0.0, 1.0, 2.0], dtype=complex)
        radii = np.array([0.4, 1.0, 1.0])
        with pytest.raises(ContourError) as serial:
            riesz_projection(A, raw[1], radii[1], 64, eigenvalues=raw)
        monkeypatch.setattr(spectral, "_usable_cores", lambda: 4)
        es = eigendecompose(A, cluster_tol=1e-8)
        assert np.array_equal(es.eigenvalues, raw) and np.array_equal(es.raw_eigenvalues, raw)
        bare = dataclasses.replace(es, radii=radii, condition=np.full(3, np.inf))  # all contour
        with pytest.raises(ContourError) as threaded:
            compute_riesz_data(A, bare)
        assert str(threaded.value) == str(serial.value)
        rd = compute_riesz_data(A, es)  # all eigenvector clusters
        with pytest.raises(ContourError) as threaded:
            spectral.contour_difference(A, dataclasses.replace(rd, radii=radii))
        assert str(threaded.value) == str(serial.value)


def record_circles(monkeypatch, cores=1):
    """Log [center, radius, nodes, solved nodes] of every circle that
    _contour_sums integrates on, in cluster order, with ``cores`` usable
    cores.  A solved shifted matrix z I - A counts for the circle of the
    call that z lies on."""
    calls, circles, lock = [], [], threading.Lock()
    sums, solve = spectral._contour_sums, np.linalg.solve

    def counted(A, centers, radii, nodes, *args, **kwargs):
        nodes = np.broadcast_to(nodes, np.shape(centers))
        circles[:] = [[lam, r, int(k), 0] for lam, r, k in zip(centers, radii, nodes)]
        circles.append(as_matrix(A)[0, 0])
        calls.extend(circles[:-1])
        return sums(A, centers, radii, nodes, *args, **kwargs)

    def solved(a, b):
        *own, corner = circles
        for z in a[:, 0, 0] + corner:
            off = [abs(abs(z - lam) - r) / r for lam, r, _, _ in own]
            with lock:
                own[int(np.argmin(off))][3] += 1
        return solve(a, b)

    monkeypatch.setattr(spectral, "_usable_cores", lambda: cores)
    monkeypatch.setattr(spectral, "_contour_sums", counted)
    monkeypatch.setattr(np.linalg, "solve", solved)
    return calls


def full_circle_difference(A, rd):
    """contour_difference on every cluster's own circle with the default
    nodes and the same probes, the reference the smaller circle stands in for."""
    diff = np.zeros(rd.n_clusters)
    X = spectral._probes(len(A))
    for j, i in enumerate(np.flatnonzero(rd.simple)):
        PX, _ = riesz_projection(
            A, rd.eigenvalues[i], rd.radii[i], DEFAULT_CONTOUR_NODES,
            eigenvalues=rd.raw_eigenvalues, block=X,
        )
        diff[i] = np.abs(PX - rd.V[:, j, None] * (rd.U[:, j] @ X)).max()
    return diff


def near_pair(gap):
    """diag(1, 1 + 3 gap, 2, 3) coupled by gap above the diagonal: a
    well-conditioned upper-triangular pair about gap * ||A||_2 apart."""
    A = np.diag([1.0, 1.0 + 3.0 * gap, 2.0, 3.0])
    A[0, 1] = gap
    return A


@st.composite
def checked_operators(draw):
    """1D or 2D advection-diffusion with N in [4, 16] and b1 in [0, 12], where
    most clusters are built from eigenvectors."""
    b1 = draw(st.floats(0.0, 12.0))
    if draw(st.booleans()):
        mesh = Mesh((0.0,), (1.0,), (draw(st.integers(4, 16)),))
        return assemble(mesh, CoefficientField.from_callables(mesh, b1=b1)).matrix
    nx = draw(st.integers(2, 4))
    mesh = Mesh((0.0, 0.0), (1.0, 0.7), (nx, draw(st.integers(2, 16 // nx))))
    coeffs = CoefficientField.from_callables(mesh, b1=b1, b2=draw(st.floats(-5.0, 5.0)))
    return assemble(mesh, coeffs).matrix


@st.composite
def contour_batches(draw):
    """(A, centers, radii, nodes): the clusters of a checked operator or of a
    random real or complex matrix, each on its own circle or on one an eighth
    as wide, with its own node count."""
    if draw(st.booleans()):
        A = draw(checked_operators())
    else:
        n = draw(st.integers(1, 12))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        A = rng.standard_normal((n, n))
        if draw(st.booleans()):
            A = A + 1j * rng.standard_normal((n, n))
    try:
        es = eigendecompose(A)
    except NumericsError:  # a cluster spread over its radius
        assume(False)
    count = es.n_clusters
    small = np.array(draw(st.lists(st.booleans(), min_size=count, max_size=count)))
    nodes = draw(st.lists(st.sampled_from([1, 3, 8, 16, 64]), min_size=count, max_size=count))
    return A, es.eigenvalues, np.where(small, es.radii / 8, es.radii), np.array(nodes)


class TestContourSums:
    """_contour_sums integrates every circle at once, bitwise one circle at a time."""

    @settings(max_examples=80, deadline=None)
    @given(
        problem=contour_batches(),
        probes=st.booleans(),
        cores=st.sampled_from([1, 4]),
        matrices=st.sampled_from([1, 3, 8, 20, None]),
    )
    def test_equals_one_circle_at_a_time_bitwise(self, problem, probes, cores, matrices):
        # pieces of 1 to 20 shifted matrices, or the default budget
        A, centers, radii, nodes = problem
        X = spectral._probes(len(A)) if probes else None
        budget = spectral._PIECE_BYTES if matrices is None else matrices * 16 * len(A) ** 2
        with unittest.mock.patch.object(spectral, "_usable_cores", lambda: cores), \
                unittest.mock.patch.object(spectral, "_PIECE_BYTES", budget):
            PX, DX = spectral._contour_sums(A, centers, radii, nodes, X)
        assert PX.shape == DX.shape == (len(centers), len(A), len(A) if X is None else 4)
        for c, lam in enumerate(centers):
            P, D = inverse_contour(A, lam, radii[c], nodes[c], X)
            assert np.array_equal(PX[c], P) and np.array_equal(DX[c], D)

    @pytest.mark.parametrize("matrices", [None, 2])
    @pytest.mark.parametrize("cores", [1, 2, 4])
    def test_first_singular_circle_in_order_raises(self, monkeypatch, cores, matrices):
        # the nodes at theta = pi/2 of the circles around 10 and 20 are
        # eigenvalues; with pieces of one circle they can fail in different
        # workers, in either order, and in one piece the re-solve finds them
        centers = np.array([0.0, 10.0, 20.0, 30.0], dtype=complex)
        poles = centers[1:3] + 1.0 * np.exp(1j * (2.0 * np.pi * 0.5 / 2))
        A = np.diag([*poles, 50.0 + 0j])
        with pytest.raises(ContourError) as serial:
            riesz_projection(A, centers[1], 1.0, 2)
        monkeypatch.setattr(spectral, "_usable_cores", lambda: cores)
        if matrices:
            monkeypatch.setattr(spectral, "_PIECE_BYTES", matrices * 16 * len(A) ** 2)
        with pytest.raises(ContourError) as batched:
            spectral._contour_sums(A, centers, np.ones(4), 2)
        assert str(batched.value) == str(serial.value)
        assert "around 10+0j (radius 1)" in str(batched.value)

    def test_check_memory_is_the_pieces_and_its_output(self):
        # the shifted matrices of the 10 x 9 mesh's 90 circles (4 kept nodes
        # each) would take 47 MB at once; each worker's buffer holds one
        # piece, the rest is O(N^2): the (90, 2, 90, 4) sums, 1 MB
        self.assert_check_memory((10, 9))

    def test_check_buffers_hold_a_circle_below_a_group(self):
        # from N = 91 a circle of 4 kept nodes is larger than a piece; its
        # worker's buffer holds those 4 shifted matrices, not a group of 8
        self.assert_check_memory((11, 9))

    @staticmethod
    def assert_check_memory(grid):
        mesh = Mesh((0.0, 0.0), (1.0, 0.7), grid)
        op = assemble(mesh, CoefficientField.from_callables(mesh, b1=1.0, b2=0.5))
        es = eigendecompose(op)
        rd = compute_riesz_data(op, es)
        n = len(rd.V)
        assert rd.simple.all() and n == grid[0] * grid[1]
        spectral.contour_difference(op, rd)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            spectral.contour_difference(op, rd)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        workers = min(spectral._usable_cores(), n)
        buffer = max(spectral._PIECE_BYTES, 4 * 16 * n**2)
        assert peak <= workers * buffer + 16 * 16 * n**2


class TestSmallCircleCheck:
    """contour_difference re-derives each eigenvector cluster on a circle
    1/128 as wide with an eighth of the nodes, applied to fixed probes."""

    def test_demo_operator_solves_4_nodes_per_cluster(self, monkeypatch, advection_operator):
        es = eigendecompose(advection_operator)
        rd = compute_riesz_data(advection_operator, es)
        assert rd.simple.all() and np.all(es.eigenvalues.imag == 0)
        calls = record_circles(monkeypatch)
        spectral.contour_difference(advection_operator, rd)
        assert [c[0] for c in calls] == list(es.eigenvalues)
        assert [c[1] for c in calls] == list(es.radii / spectral._CHECK_SHRINK)
        assert [c[2:] for c in calls] == [[8, 4]] * es.n_clusters

    def test_non_real_centers_keep_every_node(self, monkeypatch):
        A = scipy.linalg.block_diag([[1.0, 2.0], [-2.0, 1.0]], [[3.0]])
        A = A + 0.1 * np.triu(np.ones((3, 3)), 1)
        es = eigendecompose(A)
        rd = compute_riesz_data(A, es)
        assert rd.simple.all()
        calls = record_circles(monkeypatch)
        diff = spectral.contour_difference(A, rd)
        solved = [8 if c[0].imag else 4 for c in calls]
        assert sorted(np.sign(c[0].imag) for c in calls) == [-1.0, 0.0, 1.0]
        assert [c[3] for c in calls] == solved and diff.max() <= 1e-12

    def test_detects_a_perturbed_eigenvector(self, advection_operator):
        es = eigendecompose(advection_operator)
        rd = compute_riesz_data(advection_operator, es)
        j = 13
        V = rd.V.copy()
        V[:, j] += 1e-9
        broken = dataclasses.replace(rd, V=V)
        diff = spectral.contour_difference(advection_operator, broken)
        assert diff[j] >= 0.5e-9 * np.abs(rd.U[:, j]).max()
        assert np.delete(diff, j).max() <= 1e-12

    @settings(max_examples=60, deadline=None)
    @given(A=checked_operators())
    def test_agrees_with_the_full_circle(self, A):
        try:
            es = eigendecompose(A)
        except NumericsError:  # a cluster spread over its radius
            return
        self.assert_agrees_with_the_full_circle(A, es)

    @settings(max_examples=60, deadline=None)
    @given(A=checked_operators())
    def test_probes_see_at_most_sqrt_n_times_the_entrywise_figure(self, A):
        # unit probe columns x give |(dP x)_i| <= ||dP_i,:||_2 <= sqrt(N)
        # max|dP|.  Both figures are rounding, so the computed ones may break
        # this by rounding: in 1,500 draws of this strategy the probe figure
        # never exceeded sqrt(N) times the entrywise one (the ratio reached
        # sqrt(N) only at N = 4, with both figures 2-4 ulps of 1); the slack
        # of 4 eps allows a few more ulps on either side
        try:
            es = eigendecompose(A)
        except NumericsError:  # a cluster spread over its radius
            return
        rd = compute_riesz_data(A, es)
        probe = spectral.contour_difference(A, rd)
        with unittest.mock.patch.object(spectral, "_probes", np.eye):
            entry = spectral.contour_difference(A, rd)
        assert np.all(probe <= np.sqrt(len(A)) * entry + 4 * np.finfo(float).eps)

    @settings(max_examples=60, deadline=None)
    @given(A=checked_operators(), tol=st.sampled_from([None, 0.0, 1e-3]))
    def test_circles_chosen_as_by_the_scalar_guard(self, A, tol):
        # the guard of every (center, radius) pair at once, bit for bit the
        # scalar test riesz_projection once made for one circle
        try:
            es = eigendecompose(A, cluster_tol=tol)
        except NumericsError:
            return
        circles = np.stack([es.radii, es.radii / spectral._CHECK_SHRINK])
        near, dist = spectral._near_spectrum(es.raw_eigenvalues, es.eigenvalues, circles)
        for i, lam in enumerate(es.eigenvalues):
            for c, radius in enumerate(circles[:, i]):
                d = float(np.min(np.abs(np.abs(es.raw_eigenvalues - lam) - radius)))
                assert dist[c, i] == d
                assert near[c, i] == (d < 1e-8 * max(1.0, radius, abs(lam)))

    def test_probes_are_fixed_unit_columns(self):
        X = spectral._probes(48)
        assert X.shape == (48, spectral._PROBES) == (48, 4)
        np.testing.assert_allclose(np.linalg.norm(X, axis=0), 1.0, rtol=1e-15)
        assert np.array_equal(X, spectral._probes(48))

    @pytest.mark.parametrize("gap", [2e-5, 1e-3])
    def test_near_pair_agrees_with_the_full_circle(self, gap):
        es = eigendecompose(near_pair(gap))
        assert (es.condition <= KAPPA_MAX).all() and es.radii.min() < 2 * gap
        self.assert_agrees_with_the_full_circle(near_pair(gap), es)

    @settings(max_examples=80, deadline=None)
    @given(
        size=st.integers(2, 12),
        step=st.integers(-6, 4),
        start=st.integers(-800, 800),
        lattice=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_trapezoid_term_is_below_rounding(self, size, step, start, lattice, seed):
        # exact eigenvectors (a diagonal matrix, its entries in random order)
        # and dyadic eigenvalues h apart on a line or a square lattice, so each
        # has a neighbour at exactly 2 r_n = h, the radius rule's worst case.
        # The trapezoid term there is (1/256)^8 = 2^-64 per neighbour, far
        # below rounding, which grows like eps max(1, |lambda|) / rho with rho
        # = r_n / 128 the check's radius.  Over 800 draws of these matrices
        # the figure reached at most 0.22 of that; the bound allows 4.5 times
        # as much.  With 8 nodes on a circle of r_n / 8 (a trapezoid term of
        # (1/16)^8 = 2.3e-10) or 4 nodes on this one ((1/256)^4), the test
        # fails
        h = 2.0**step
        lam = start / 4.0 + h * np.arange(size)
        if lattice:
            side = math.isqrt(size - 1) + 1
            lam = start / 4.0 + h * (np.arange(size) % side + 1j * (np.arange(size) // side))
        A = np.diag(np.random.default_rng(seed).permutation(lam))
        es = eigendecompose(A)
        rd = compute_riesz_data(A, es)
        assert rd.simple.all() and np.array_equal(rd.radii, np.full(size, h / 2))
        diff = spectral.contour_difference(A, rd)
        rho = rd.radii / spectral._CHECK_SHRINK
        eps = np.finfo(float).eps
        assert np.all(diff <= eps * np.maximum(1.0, np.abs(rd.eigenvalues)) / rho)

    @staticmethod
    def assert_agrees_with_the_full_circle(A, es):
        rd = compute_riesz_data(A, es)
        diff = spectral.contour_difference(A, rd)
        assert diff.max() <= 1e-10
        assert np.abs(diff - full_circle_difference(A, rd)).max() <= 1e-10

    def test_small_circle_too_close_keeps_the_full_circle(self, monkeypatch):
        # at cluster_tol = 0 the pair 4e-8 apart gets radii 2e-8, whose
        # 128th passes within the guard's 1e-8 of its own eigenvalue
        A = np.diag([1.0, 1.0 + 4e-8, 3.0])
        A[0, 2] = 0.3
        es = eigendecompose(A, cluster_tol=0.0)
        rd = compute_riesz_data(A, es)
        assert rd.simple.all()
        with pytest.raises(ContourError):
            riesz_projection(
                A, es.eigenvalues[0], es.radii[0] / spectral._CHECK_SHRINK, 8,
                eigenvalues=es.raw_eigenvalues,
            )
        calls = record_circles(monkeypatch)
        diff = spectral.contour_difference(A, rd)
        monkeypatch.undo()
        assert [c[1:3] for c in calls] == [
            [es.radii[0], 64], [es.radii[1], 64], [es.radii[2] / 128, 8]
        ]
        assert np.array_equal(diff[:2], full_circle_difference(A, rd)[:2])
        assert diff.max() <= 1e-9


class TestIdentities:
    def test_advection_operator_residuals(self, advection_operator):
        rd = compute_riesz_data(advection_operator, eigendecompose(advection_operator))
        rep = verify_identities(advection_operator, rd, tol=1e-8)
        assert rep.passed
        assert rep.completeness < 1e-8

    def test_zero_matrix(self):
        A = np.zeros((3, 3))
        rd = compute_riesz_data(A, eigendecompose(A, cluster_tol=1e-8))
        rep = verify_identities(A, rd)
        np.testing.assert_allclose(rd.projections[0], np.eye(3), atol=1e-12)
        assert np.max(np.abs(rd.nilpotents[0])) < 1e-12
        assert rep.passed

    def test_defective_three_by_three(self):
        J = jordan(2.0, 3)
        rd = compute_riesz_data(J, eigendecompose(J, cluster_tol=1e-5))
        rep = verify_identities(J, rd)
        assert rd.multiplicities[0] == 3
        assert rep.res_nilpotency[0] < 1e-8  # D^3 P = 0
        assert rep.passed

    def test_dropped_cluster_defect(self):
        A = np.diag([1.0, 2.0, 3.0])
        rd = compute_riesz_data(A, eigendecompose(A, cluster_tol=1e-8))
        assert rd.simple.all()
        rd = dataclasses.replace(
            rd, simple=rd.simple[:-1], V=rd.V[:, :-1], U=rd.U[:, :-1], R=rd.R[:, :-1]
        )
        assert len(rd.projections) == 2
        assert completeness_defect(rd) >= 1.0  # spectral norm of a lost projector

    def test_single_cluster_identity(self):
        A = np.eye(4)
        rd = compute_riesz_data(A, eigendecompose(A, cluster_tol=1e-8))
        assert completeness_defect(rd) < 1e-12


def report(eigenvalues, completeness=0.0, **residuals):
    """An IdentityReport with zero residuals except the given ones."""
    zeros = {name: np.zeros(len(eigenvalues)) for name in IdentityReport.NAMES}
    fields = {**zeros, **{k: np.asarray(v, dtype=float) for k, v in residuals.items()}}
    lams = np.asarray(eigenvalues, dtype=complex)
    return IdentityReport(lams, **fields, completeness=completeness, tol=1e-8)


class TestReliabilityRule:
    """One rule decides whether Riesz data can be trusted (RieszData.check)."""

    def test_d_valued_residuals_are_relative_to_the_eigenvalue(self):
        # the demo operator at b1 = 32: absolute nilpotency 4.8e-6 at |lambda| ~ 2e3
        assert report([1.0, 2000.0], res_nilpotency=[0.0, 5e-7]).passed
        assert report([1.0, 2000.0], res_nilpotent_form=[0.0, 1.9e-5]).passed
        assert not report([1.0, 2000.0], res_commute=[0.0, 2.1e-5]).passed
        # below |lambda| = 1 the residuals stay absolute
        assert not report([0.5, 2.0], res_nilpotency=[2e-8, 0.0]).passed

    def test_p_valued_residuals_are_absolute(self):
        rep = report([1.0, 2000.0], res_idempotent=[0.0, 5e-7])
        assert not rep.passed
        assert rep.worst_entry() == ("res_idempotent", 1, 5e-7)
        rep = report([1.0, 2000.0], completeness=2e-8)
        assert not rep.passed and rep.worst_entry() == ("completeness", None, 2e-8)

    def test_worst_entry_names_the_scaled_residual(self):
        name, i, value = report([1.0, 2000.0], res_nilpotency=[0.0, 5e-5]).worst_entry()
        assert (name, i) == ("res_nilpotency / max(1, |lambda|)", 1)
        assert value == pytest.approx(2.5e-8)

    def test_nan_fails(self):
        assert not report([1.0, 2.0], res_commute=[np.nan, 0.0]).passed
        assert not report([1.0, 2.0], completeness=np.nan).passed

    def test_worst_stays_absolute(self):
        # criterion 4 prints the absolute residuals
        assert report([1.0, 2000.0], res_nilpotency=[0.0, 5e-7]).worst == 5e-7

    def test_built_data_carry_the_rule(self, advection_operator):
        es = eigendecompose(advection_operator)
        rd = compute_riesz_data(advection_operator, es)
        np.testing.assert_array_equal(rd.condition, es.condition)
        assert rd.identities.worst == verify_identities(advection_operator, rd).worst
        rd.check_diagonalizable()
        # the rank-one defect ||r|| ||u|| is the spectral norm of D = r u^H
        norms = [np.linalg.norm(D, 2) for D in rd.nilpotents]
        want = norms / np.maximum(1.0, np.abs(rd.eigenvalues))
        np.testing.assert_allclose(rd.defect, want, rtol=1e-10, atol=1e-300)

    def test_refuses_the_condition_number_first(self, advection_operator):
        rd = compute_riesz_data(advection_operator, eigendecompose(advection_operator))
        bad = report(rd.eigenvalues, res_idempotent=np.full(rd.n_clusters, 1.0))
        condition = rd.condition.copy()
        condition[3] = 2e6
        with pytest.raises(NumericsError, match="fail their identities: res_idempotent 1 at"):
            dataclasses.replace(rd, identities=bad).check()
        with pytest.raises(NumericsError, match=r"has condition number 2e\+06, above 1e\+06"):
            dataclasses.replace(rd, identities=bad, condition=condition).check()
        condition[3] = np.nan
        with pytest.raises(NumericsError, match="use the time-stepping route"):
            dataclasses.replace(rd, condition=condition).check()

    def test_jordan_block_is_reliable_but_not_diagonalizable(self):
        J = jordan(5.0, 2)
        rd = compute_riesz_data(J, eigendecompose(J, cluster_tol=1e-6))
        assert rd.condition.tolist() == [0.0]  # a cluster of two eigenvalues
        rd.check()
        with pytest.raises(DefectiveClusterError, match="relative size 0.2"):
            rd.check_diagonalizable()

    def test_transpose_is_refused_as_the_original(self):
        # without advection the 4 x 4 square has both kinds of cluster
        mesh = Mesh((0.0, 0.0), (1.0, 1.0), (4, 4))
        op = assemble(mesh, CoefficientField.from_callables(mesh))
        rd = compute_riesz_data(op, eigendecompose(op))
        assert 0 < rd.simple.sum() < rd.n_clusters
        rdt = rd.transpose()
        assert rdt.condition is rd.condition and rdt.defect is rd.defect
        assert rdt.identities is rd.identities
        for name in ("projections", "nilpotents"):
            for X, Xt in zip(getattr(rd, name), getattr(rdt, name), strict=True):
                np.testing.assert_array_equal(Xt, X.T)
        np.testing.assert_array_equal(rdt.transpose().projections[0], rd.projections[0])
        # a unit source selects a column of each P_n^T, bitwise
        cols = rdt.apply(np.eye(len(op.matrix)))
        for i, P in enumerate(rd.projections):
            np.testing.assert_array_equal(cols[i], P.T)


def dense_riesz(A, es):
    """Every P_n and D_n as compute_riesz_data built them as dense matrices:
    np.outer of the eigenvector factors, or the contour."""
    mat = as_matrix(A)
    Ps, Ds = [], []
    for i, lam in enumerate(es.eigenvalues):
        if es.condition[i] <= KAPPA_MAX:
            k = es.members[i][0]
            v = es.right_vectors[:, k].astype(complex)
            wh = es.left_vectors[:, k].conj()
            u = wh / (wh @ v)
            P, D = np.outer(v, u), np.outer(mat @ v - lam * v, u)
        else:
            P, D = riesz_projection(
                A, lam, es.radii[i], DEFAULT_CONTOUR_NODES, eigenvalues=es.raw_eigenvalues
            )
        Ps.append(P)
        Ds.append(D)
    return Ps, Ds


def dense_identities(A, Ps, Ds, rd):
    """verify_identities as it was: matrix products of the dense P_n and D_n."""
    mat = as_matrix(A).astype(complex)
    eye = np.eye(mat.shape[0])
    rows = []
    for P, D, lam, d in zip(Ps, Ds, rd.eigenvalues, rd.multiplicities):
        DP = D @ P
        rows.append((
            np.abs(P @ P - P).max(),
            np.abs(D - (mat - lam * eye) @ P).max(),
            np.abs(DP - P @ D).max(),
            np.abs(np.linalg.matrix_power(D, int(d)) @ P).max(),
        ))
    completeness = np.linalg.norm(sum(Ps) - eye, 2)
    residuals = dict(zip(IdentityReport.NAMES, np.array(rows).T))
    return IdentityReport(rd.eigenvalues, **residuals, completeness=completeness, tol=IDENTITY_TOL)


@st.composite
def advection_operators(draw):
    """1D or 2D advection-diffusion with N in [4, 16] and b1 in [0, 40], some
    of them with a 2 x 2 Jordan block at 1 appended below the spectrum."""
    b1 = draw(st.floats(0.0, 40.0))
    if draw(st.booleans()):
        mesh = Mesh((0.0,), (1.0,), (draw(st.integers(4, 16)),))
        coeffs = CoefficientField.from_callables(mesh, b1=b1)
    else:
        nx = draw(st.integers(2, 4))
        mesh = Mesh((0.0, 0.0), (1.0, 0.7), (nx, draw(st.integers(2, 16 // nx))))
        coeffs = CoefficientField.from_callables(mesh, b1=b1, b2=draw(st.floats(-5.0, 5.0)))
    mat = assemble(mesh, coeffs).matrix
    if draw(st.booleans()):
        mat = scipy.linalg.block_diag(mat[:-2, :-2], jordan(1.0, 2))
    return mat


class TestFactoredStorage:
    """Rank-one factors in place of dense matrices, against the dense construction."""

    @settings(max_examples=80, deadline=None)
    @given(A=advection_operators(), seed=st.integers(0, 2**32 - 1))
    def test_matches_the_dense_construction(self, A, seed):
        try:
            es = eigendecompose(A)
        except NumericsError:  # a cluster spread over its radius
            return
        rd = compute_riesz_data(A, es)
        Ps, Ds = dense_riesz(A, es)
        for i, (P, D, lam) in enumerate(zip(rd.projections, rd.nilpotents, rd.eigenvalues)):
            assert np.abs(P - Ps[i]).max() <= 1e-13
            assert np.abs(D - Ds[i]).max() <= 1e-13 * max(1.0, abs(lam))
        dense = dense_identities(A, Ps, Ds, rd)
        assert rd.identities.passed == dense.passed
        try:
            rd.check()
            accepted = True
        except NumericsError:
            accepted = False
        assert accepted == (bool(np.all(rd.condition <= CONDITION_MAX)) and dense.passed)
        try:
            rd.check_diagonalizable()
        except NumericsError:
            return
        rng = np.random.default_rng(seed)
        source = SourcePair(rng.uniform(-1, 1, len(A)), rng.uniform(-1, 1, len(A)))
        times = np.array([0.1, 0.5, 1.0])
        states = solve_spectral_oracle(rd, source, 1.5, times).states
        z = -np.outer(times**1.5, rd.eigenvalues)
        proj = np.asarray(Ps)
        want = np.tensordot(mittag_leffler_kernel(1.5, 1.0, z), proj @ source.a, axes=1)
        te2 = times[:, None] * mittag_leffler_kernel(1.5, 2.0, z)
        want = (want + np.tensordot(te2, proj @ source.b, axes=1)).real
        assert np.abs(states - want).max() <= 1e-13 * np.abs(want).max()

    @settings(max_examples=40, deadline=None)
    @given(A=advection_operators(), columns=st.integers(1, 5))
    def test_apply_is_the_masked_broadcast_bitwise(self, A, columns):
        # the product written in place against the broadcast product copied
        # in through the mask, the same multiplications in the same order
        try:
            es = eigendecompose(A)
        except NumericsError:  # a cluster spread over its radius
            return
        rd = compute_riesz_data(A, es)
        x = np.random.default_rng(columns).standard_normal((len(A), columns))
        for r in (rd, rd.transpose()):
            want = np.empty((r.n_clusters, len(A), columns), dtype=complex)
            if r.transposed:
                want[r.simple] = (r.V.T @ x)[:, None] * r.U.T[:, :, None]
            else:
                want[r.simple] = r.V.T[:, :, None] * (r.U.T @ x)[:, None]
            for i, P in zip(np.flatnonzero(~r.simple), r.P):
                want[i] = (P.T if r.transposed else P) @ x
            assert np.array_equal(r.apply(x), want)

    def test_memory_stays_linear_per_cluster(self):
        # dense storage would hold 100 x 2 matrices of 160 kB, about 32 MB
        mesh = Mesh((0.0, 0.0), (1.0, 0.7), (10, 10))
        op = assemble(mesh, CoefficientField.from_callables(mesh, b1=1.0, b2=0.5))
        es = eigendecompose(op)
        assert (es.condition <= KAPPA_MAX).all() and es.n_clusters == 100
        compute_riesz_data(op, es)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            compute_riesz_data(op, es)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < 4e6

    def test_mode_sum_holds_one_cluster_block(self):
        # the 90 unit sources of an observation map on the 10 x 9 mesh: each
        # simple cluster's v (u.x) goes straight into the (clusters, N, m)
        # block of P_n x, which is 11.7 MB: the peak is 12.2 MB, where a
        # broadcast temporary copied in through the mask took it to 23.7 MB
        mesh = Mesh((0.0, 0.0), (1.0, 0.7), (10, 9))
        op = assemble(mesh, CoefficientField.from_callables(mesh, b1=1.0, b2=0.5))
        rd = compute_riesz_data(op, eigendecompose(op))
        assert rd.simple.all() and rd.n_clusters == 90
        source = SourcePair(np.eye(90), np.zeros((90, 90)))
        solve_spectral_oracle(rd, source, 1.5, [0.5, 1.0])
        block = 90 * 90 * 90 * 16
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            solve_spectral_oracle(rd, source, 1.5, [0.5, 1.0])
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert block < peak < 1.2 * block


def parent_rank(P, tol=spectral.RANK_TOL):
    """The numerical rank of one matrix, with its former branch for P = 0."""
    s = np.linalg.svd(P, compute_uv=False)
    if s[0] == 0.0:
        return 0
    return int(np.sum(s > tol * s[0]))


def square_4x4():
    mesh = Mesh((0.0, 0.0), (1.0, 1.0), (4, 4))
    op = assemble(mesh, CoefficientField.from_callables(mesh))
    return op, eigendecompose(op)


def demo_b1_30():
    mesh = Mesh((0.0,), (1.0,), (32,))
    op = assemble(mesh, CoefficientField.from_callables(mesh, b1=30.0))
    return op, eigendecompose(op)


STACK_FIXTURES = {
    "square-4x4": square_4x4,  # clusters of both kinds
    "demo-b1-30": demo_b1_30,  # every cluster on the contour
    "jordan-2": lambda: (jordan(5.0, 2), eigendecompose(jordan(5.0, 2), cluster_tol=1e-6)),
    "jordan-3": lambda: (jordan(2.0, 3), eigendecompose(jordan(2.0, 3), cluster_tol=1e-6)),
}


class TestContourStacks:
    """The contour clusters kept as the quadrature's (c, N, N) stacks, bitwise
    the construction one cluster at a time."""

    @pytest.mark.parametrize("fixture", STACK_FIXTURES)
    def test_match_the_per_cluster_construction_bitwise(self, fixture):
        A, es = STACK_FIXTURES[fixture]()
        rd = compute_riesz_data(A, es)
        mat = as_matrix(A)
        n = len(mat)
        contour = np.flatnonzero(~rd.simple)
        assert len(contour) and rd.P.shape == rd.D.shape == (len(contour), n, n)
        assert rd.nodes == DEFAULT_CONTOUR_NODES
        assert np.array_equal(rd.raw_eigenvalues, es.raw_eigenvalues)
        x = np.random.default_rng(3).standard_normal((n, 3))
        applied = rd.apply(x), rd.transpose().apply(x)
        acc = rd.V @ rd.U.T
        for j, i in enumerate(contour):
            lam = es.eigenvalues[i]
            P, D = riesz_projection(
                A, lam, es.radii[i], DEFAULT_CONTOUR_NODES, eigenvalues=es.raw_eigenvalues
            )
            assert np.array_equal(rd.P[j], P) and np.array_equal(rd.D[j], D)
            rank = max(parent_rank(P), 1)
            assert rd.multiplicities[i] == rank
            assert rd.defect[i] == np.linalg.norm(D, 2) / np.maximum(1.0, np.abs(lam))
            rows = [
                P @ P - P,
                D - (mat - lam * np.eye(n)) @ P,
                D @ P - P @ D,
                np.linalg.matrix_power(D, rank) @ P,
            ]
            got = [getattr(rd.identities, name)[i] for name in IdentityReport.NAMES]
            assert got == [float(np.max(np.abs(M))) for M in rows]
            assert np.array_equal(applied[0][i], P @ x)
            assert np.array_equal(applied[1][i], P.T @ x)
            acc += P
        assert rd.identities.completeness == float(np.linalg.norm(acc - np.eye(n), 2))

    def test_rank_of_a_stack_is_the_rank_of_each_matrix(self):
        rng = np.random.default_rng(5)
        stack = rng.standard_normal((6, 5, 3)) @ rng.standard_normal((6, 3, 5))
        stack[2] = 0.0  # no singular value above tol * 0
        stack[4, :, 1:] = 0.0
        ranks = spectral._numerical_rank(stack)
        assert ranks.tolist() == [parent_rank(P) for P in stack] == [3, 3, 0, 3, 1, 3]
        assert spectral._numerical_rank(np.empty((0, 5, 5))).shape == (0,)


class TestLemma3:
    def test_diagonalizable_cluster(self):
        A = np.diag([1.0, 2.0])
        rd = compute_riesz_data(A, eigendecompose(A, cluster_tol=1e-8))
        res = lemma3_check(A, 1.0, rd.projections[0], rd.nilpotents[0], np.array([1.0, 1.0]))
        assert res.k0 == 1 and res.residual < 1e-8 and not res.degenerate

    def test_jordan_chain(self):
        J = jordan(5.0, 2)
        rd = compute_riesz_data(J, eigendecompose(J, cluster_tol=1e-6))
        res = lemma3_check(J, 5.0, rd.projections[0], rd.nilpotents[0], np.array([0.0, 1.0]))
        assert res.k0 == 2 and res.residual < 1e-8

    def test_orthogonal_probe_degenerate(self):
        A = np.diag([1.0, 2.0])
        rd = compute_riesz_data(A, eigendecompose(A, cluster_tol=1e-8))
        res = lemma3_check(A, 1.0, rd.projections[0], rd.nilpotents[0], np.array([0.0, 1.0]))
        assert res.k0 == 0 and res.degenerate

    def test_broken_data_raises(self):
        # D that never annihilates anything signals broken projection data
        with pytest.raises(NumericsError):
            lemma3_check(np.eye(2), 1.0, np.eye(2), np.eye(2), np.array([1.0, 0.0]))


def test_spectrum_csv(tmp_path, advection_operator):
    rd = compute_riesz_data(advection_operator, eigendecompose(advection_operator))
    path = tmp_path / "spectrum.csv"
    write_spectrum_csv(rd, path, np.zeros(rd.n_clusters))
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == rd.n_clusters
    assert sum(int(r["multiplicity"]) for r in rows) == 32
    assert all(float(r["res_idempotent"]) < 1e-8 for r in rows)
