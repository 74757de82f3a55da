import functools
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fracwave import solver as solver_module
from fracwave.config import load_config
from fracwave.elliptic import CoefficientField, Mesh, as_matrix, assemble
from fracwave.errors import DefectiveClusterError, NumericsError
from fracwave.fraccalc import TimeGrid, mittag_leffler, rl_weights
from fracwave.observability import ObservationSetup, build_observation_map
from fracwave.solver import (
    _CHUNK,
    _PI_STABILITY_TABLE,
    LaplaceContour,
    SourcePair,
    _block_gain,
    _pi_stability_limit,
    _Transposed,
    growth_probe,
    laplace_identity_check,
    route_difference,
    solve,
    solve_resolvent,
    solve_spectral_oracle,
    solve_timestep,
)
from fracwave.spectral import compute_riesz_data, eigendecompose
from march_reference import march_reference

ALPHA = 1.5
ROOT = Path(__file__).resolve().parent.parent


def scalar_exact(lam, alpha, a, b, t):
    z = -lam * t**alpha
    return a * mittag_leffler(alpha, 1.0, z).real + b * t * mittag_leffler(alpha, 2.0, z).real


@pytest.fixture(scope="module")
def reference():
    """1D advection-diffusion problem shared by the route tests."""
    mesh = Mesh((0.0,), (1.0,), (32,))
    op = assemble(mesh, CoefficientField.from_callables(mesh, b1=1.0))
    x = mesh.axis_nodes(0)
    source = SourcePair(np.sin(np.pi * x), x * (1.0 - x))
    riesz = compute_riesz_data(op, eigendecompose(op))
    return op, source, riesz


@pytest.fixture(scope="module")
def reference_2d():
    """Advection-diffusion on a 4x4 interior grid of the unit square."""
    mesh = Mesh((0.0, 0.0), (1.0, 1.0), (4, 4))
    op = assemble(mesh, CoefficientField.from_callables(mesh, b1=1.0, b2=0.5))
    x, y = mesh.interior_coordinates()
    source = SourcePair(np.sin(np.pi * x) * np.sin(np.pi * y), x * (1 - x) * y * (1 - y))
    riesz = compute_riesz_data(op, eigendecompose(op))
    return op, source, riesz


# bound between the chunked block march and a plain column-by-column march,
# relative to the largest state; 1.6e-13 was measured on the routes-1d map
# inputs at K = 4,096
MARCH_RTOL = 1e-12


def assert_within_rounding(got, want, scale=None, rtol=MARCH_RTOL):
    """``got`` within ``rtol`` of ``want``, relative to ``scale`` (default
    the largest entry of ``want``)."""
    scale = np.max(np.abs(want)) if scale is None else scale
    assert np.max(np.abs(got - want)) <= rtol * scale


class TestTimestep:
    def test_zero_operator_exact(self):
        grid = TimeGrid(2.0, 16)
        src = SourcePair(np.arange(1.0, 5.0), np.ones(4))
        u = solve_timestep(np.zeros((4, 4)), src, ALPHA, grid.nodes, grid)
        exact = src.a[None, :] + src.b[None, :] * grid.nodes[:, None]
        np.testing.assert_array_equal(u.states, exact)

    def test_initial_state_exact(self, reference):
        op, src, _ = reference
        grid = TimeGrid(1.0, 128)
        u = solve_timestep(op, src, ALPHA, grid.nodes, grid)
        np.testing.assert_array_equal(u.states[0], src.a)

    def test_scalar_mittag_leffler_refinement(self):
        A = np.array([[1.0]])
        src = SourcePair([1.0], [0.0])
        exact = scalar_exact(1.0, ALPHA, 1.0, 0.0, 1.0)
        errs = []
        for K in (256, 512):
            grid = TimeGrid(1.0, K)
            u = solve_timestep(A, src, ALPHA, grid.nodes, grid)
            errs.append(abs(u.states[-1, 0] - exact))
        assert errs[0] < 1e-5
        assert errs[1] < 0.6 * errs[0]

    def test_wave_limit_surrogate(self):
        # alpha -> 2 with lambda = 4: the classical limit is cos(2 t)
        grid = TimeGrid(1.0, 2048)
        u = solve_timestep(np.array([[4.0]]), SourcePair([1.0], [0.0]), 1.99, grid.nodes, grid)
        assert abs(u.states[-1, 0] - np.cos(2.0)) < 0.05 * abs(np.cos(2.0))

    def test_initial_slope_approaches_b(self):
        A = np.array([[2.0]])
        src = SourcePair([1.0], [3.0])
        errs = []
        for K in (512, 1024):
            grid = TimeGrid(1.0, K)
            u = solve_timestep(A, src, ALPHA, grid.nodes, grid)
            slope = (u.states[1, 0] - u.states[0, 0]) / grid.dt
            errs.append(abs(slope - 3.0))
        assert errs[1] < 0.85 * errs[0]  # O(dt^(alpha-1)) vanishing slope defect

    def test_stiff_mode_guard_and_resolution_fix(self):
        # a huge eigenvalue on a coarse grid would blow up; the solver refuses
        # and names a grid size that restores stability
        from fracwave.errors import NumericsError

        A = np.array([[1e6]])
        src = SourcePair([1.0], [0.0])
        coarse, fine = TimeGrid(1.0, 200), TimeGrid(1.0, 12000)
        with pytest.raises(NumericsError, match="K >="):
            solve_timestep(A, src, ALPHA, coarse.nodes, coarse)
        u = solve_timestep(A, src, ALPHA, fine.nodes, fine)
        assert np.all(np.isfinite(u.states))
        assert np.max(np.abs(u.states[1:, 0])) <= 1.0

    def test_linearity(self, reference):
        op, src, _ = reference
        grid = TimeGrid(1.0, 128)
        u_both = solve_timestep(op, src, ALPHA, grid.nodes, grid)
        u_a = solve_timestep(op, SourcePair(src.a, np.zeros(32)), ALPHA, grid.nodes, grid)
        u_b = solve_timestep(op, SourcePair(np.zeros(32), src.b), ALPHA, grid.nodes, grid)
        np.testing.assert_allclose(u_a.states + u_b.states, u_both.states, atol=1e-13)

    def test_alpha_validation(self):
        grid = TimeGrid(1.0, 8)
        with pytest.raises(ValueError):
            solve_timestep(np.eye(2), SourcePair([1, 0.0], [0, 0.0]), 2.0, grid.nodes, grid)

    def test_source_size_mismatch(self):
        grid = TimeGrid(1.0, 8)
        with pytest.raises(ValueError):
            solve_timestep(np.eye(3), SourcePair([1.0, 0.0], [0.0, 0.0]), ALPHA, grid.nodes, grid)
        # each column of a block marches as it would alone, up to the rounding
        # of a different summation order
        rng = np.random.default_rng(3)
        block = SourcePair(rng.standard_normal((3, 3)), rng.standard_normal((3, 3)))
        A = np.diag([1.0, 2.0, 3.0]) + 0.5 * np.eye(3, k=1)
        got = solve_timestep(A, block, ALPHA, grid.nodes, grid).states
        assert got.shape == (9, 3, 3)
        for j in range(3):
            column = SourcePair(block.a[:, j], block.b[:, j])
            assert_within_rounding(
                got[:, :, j], solve_timestep(A, column, ALPHA, grid.nodes, grid).states
            )


def routes_1d_map_inputs():
    """The time-step observation map of the demo operator (b1 = 1, N = 32,
    K = 512, omega = [0, 0.25]): the 2|omega| unit sources of A^T, sampled at
    8 times up to 0.5."""
    mesh = Mesh((0.0,), (1.0,), (32,))
    op = assemble(mesh, CoefficientField.from_callables(mesh, b1=1.0))
    x = mesh.axis_nodes(0)
    e_w = np.eye(32)[:, (x >= 0.0) & (x <= 0.25)]
    zero = 0.0 * e_w
    source = SourcePair(np.hstack([e_w, zero]), np.hstack([zero, e_w]))
    grid = TimeGrid(0.5, 512)
    op_t = np.ascontiguousarray(as_matrix(op).T)
    return op_t, source, grid, grid.nodes[64::64]


def reference_march(A, source, alpha, times, grid, lu=False):
    """The time-stepping march written plainly: a ``tensordot`` history and
    a product with the inverse step matrix, or with ``lu=True`` the
    ``lu_solve`` step the march used before."""
    mat = as_matrix(A).astype(float)
    n, K = mat.shape[0], grid.K
    w, c0 = rl_weights(alpha, K)
    kappa0 = grid.dt**alpha / math.gamma(alpha + 2.0)
    if lu:
        factors = scipy.linalg.lu_factor(np.eye(n) + kappa0 * mat)
        step = functools.partial(scipy.linalg.lu_solve, factors)
    else:
        step = functools.partial(np.matmul, np.linalg.inv(np.eye(n) + kappa0 * mat))
    idx = np.rint(np.asarray(times) / grid.dt).astype(int)
    a = source.a.reshape(n, -1)
    b = source.b.reshape(n, -1)
    states = np.empty((len(idx), n, a.shape[1]))
    u = np.empty((K + 1, n))
    gu = np.empty((K + 1, n))  # A u_j, oldest first
    for j, (aj, bj) in enumerate(zip(a.T, b.T)):
        u[0] = aj
        gu[0] = mat @ aj
        for k in range(1, K + 1):
            hist = c0[k] * gu[0]
            if k >= 2:
                hist = hist + np.tensordot(w[1:k], gu[k - 1:0:-1], axes=1)
            u[k] = step(aj + bj * grid.nodes[k] - kappa0 * hist)
            gu[k] = mat @ u[k]
        states[:, :, j] = u[idx]
    return states.reshape(len(idx), *source.a.shape)


def _pi_stability_limit_by_loop(alpha):
    """The table interpolation as a loop over its intervals."""
    pts = _PI_STABILITY_TABLE
    if alpha <= pts[0][0]:
        return 0.9 * pts[0][1]
    if alpha >= pts[-1][0]:
        return 0.9 * pts[-1][1]
    for (a0, v0), (a1, v1) in zip(pts, pts[1:]):
        if a0 <= alpha <= a1:
            frac = (alpha - a0) / (a1 - a0)
            return 0.9 * (v0 + frac * (v1 - v0))


def test_stability_limit_interpolates_the_table():
    xs = np.array([a for a, _ in _PI_STABILITY_TABLE])
    mids = 0.5 * (xs[1:] + xs[:-1])
    for alpha in [1.0, 1.01, *xs, *mids, 1.999, 2.5]:
        want = _pi_stability_limit_by_loop(alpha)
        assert _pi_stability_limit(alpha) == pytest.approx(want, rel=1e-15, abs=0.0)


class TestTimestepMarch:
    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 10),
        m=st.integers(1, 20),
        alpha=st.floats(1.05, 1.95),
        K=st.integers(2, 300),
        margin=st.floats(0.05, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    # the first step of the third chunk, and five chunks with 20 columns
    @example(n=10, m=1, alpha=1.5, K=2 * _CHUNK + 1, margin=1.0, seed=0)
    @example(n=10, m=20, alpha=1.95, K=300, margin=1.0, seed=1)
    def test_equals_reference_march(self, n, m, alpha, K, margin, seed):
        rng = np.random.default_rng(seed)
        grid = TimeGrid(1.0, K)
        A = rng.standard_normal((n, n)) + n * np.eye(n)
        # kappa0 * ||A|| up to 1.8, below the stability bound at every order in range
        kappa0 = grid.dt**alpha / math.gamma(alpha + 2.0)
        A *= 1.8 * margin / (kappa0 * np.linalg.norm(A, np.inf))
        source = SourcePair(rng.standard_normal((n, m)), rng.standard_normal((n, m)))
        with np.errstate(over="ignore", invalid="ignore"):
            ref = reference_march(A, source, alpha, grid.nodes, grid)
        # a negative eigenvalue (n = 1, b < -1) grows past the largest double
        # from K of about 200 on
        assume(np.all(np.isfinite(ref)))
        idx = np.sort(rng.choice(K + 1, size=min(K + 1, 5), replace=False))
        got = solve_timestep(A, source, alpha, grid.nodes[idx], grid).states
        # rounding grows with the number of steps, fastest near alpha = 2 at
        # the stability bound: at alpha = 1.95, margin = 1 the largest
        # differences seen were 2.3e-13 for K <= 32, 1.0e-12 for K <= 64,
        # 2.7e-12 for K = 100-128 and 1.9e-11 for K = 250-300; the bound is
        # at least 3.5x every difference in 6,900 draws of this strategy
        rtol = MARCH_RTOL * max(1.0, K / 32) ** 2
        assert_within_rounding(got, ref[idx], scale=np.max(np.abs(ref)), rtol=rtol)

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(1, 10),
        m=st.integers(1, 20),
        alpha=st.floats(1.85, 1.95),
        K=st.integers(2, 300),
        seed=st.integers(0, 2**32 - 1),
    )
    # A = -6.05e5: the states stay below 7.2e302, but A u_294 overflows
    @example(n=1, m=1, alpha=1.9375, K=294, seed=8)
    def test_within_rounding_of_the_80_bit_march(self, n, m, alpha, K, seed):
        # near alpha = 2 at kappa0 * ||A|| = 1.8 the scheme amplifies rounding
        # most; there the block march stays within the bound that the
        # plain double-precision march is held to
        rng = np.random.default_rng(seed)
        grid = TimeGrid(1.0, K)
        A = rng.standard_normal((n, n)) + n * np.eye(n)
        kappa0 = grid.dt**alpha / math.gamma(alpha + 2.0)
        A *= 1.8 / (kappa0 * np.linalg.norm(A, np.inf))
        source = SourcePair(rng.standard_normal((n, m)), rng.standard_normal((n, m)))
        with np.errstate(over="ignore", invalid="ignore"):
            ref = march_reference(A, source, alpha, grid.nodes, grid)
        assume(np.all(np.isfinite(ref)))
        # the march keeps the history A u_k in doubles: where the 80-bit
        # A u_k leaves the double range it raises, as documented
        history = np.abs(A.astype(np.longdouble) @ ref.astype(np.longdouble))
        if history.max() > np.finfo(float).max:
            with pytest.raises(NumericsError, match="non-finite state"):
                solve_timestep(A, source, alpha, grid.nodes, grid)
            return
        got = solve_timestep(A, source, alpha, grid.nodes, grid).states
        rtol = MARCH_RTOL * max(1.0, K / 32) ** 2
        assert_within_rounding(got, ref, rtol=rtol)

    @pytest.mark.parametrize("n, steps", [(48, 4), (49, 2), (96, 2), (97, 1)])
    def test_larger_operators_take_fewer_steps_per_product(self, n, steps, monkeypatch):
        # a gain of B steps costs B N^2 m flops per step, so B halves until
        # B N <= _GAIN_ROWS; each B stays within rounding of the 80-bit march
        taken = []

        def spy(G, w, kappa0, B):
            taken.append(B)
            return _block_gain(G, w, kappa0, B)

        monkeypatch.setattr(solver_module, "_block_gain", spy)
        rng = np.random.default_rng(n)
        grid, alpha = TimeGrid(1.0, 2 * _CHUNK + 3), 1.95
        A = rng.standard_normal((n, n)) + n * np.eye(n)
        kappa0 = grid.dt**alpha / math.gamma(alpha + 2.0)
        A *= 1.8 / (kappa0 * np.linalg.norm(A, np.inf))
        source = SourcePair(rng.standard_normal((n, 3)), rng.standard_normal((n, 3)))
        got = solve_timestep(A, source, alpha, grid.nodes, grid).states
        assert taken == [steps]
        ref = march_reference(A, source, alpha, grid.nodes, grid)
        assert_within_rounding(got, ref, rtol=MARCH_RTOL * (grid.K / 32) ** 2)

    def test_equals_reference_march_2d(self):
        # the 2N unit sources of an observation map on the non-square 4x3 grid
        mesh = Mesh((0.0, 0.0), (1.0, 0.7), (4, 3))
        op = assemble(mesh, CoefficientField.from_callables(mesh, b1=1.0, b2=0.5))
        eye = np.eye(mesh.size)
        source = SourcePair(np.hstack([eye, 0 * eye]), np.hstack([0 * eye, eye]))
        grid = TimeGrid(1.0, 256)
        times = grid.nodes[::32]
        got = solve_timestep(op, source, ALPHA, times, grid).states
        assert_within_rounding(got, reference_march(op, source, ALPHA, times, grid))

    def test_overflow_raises_numerics_error_at_step_1(self, reference):
        op, src, _ = reference
        grid = TimeGrid(1.0, 128)
        with pytest.raises(NumericsError, match="non-finite state at step 1 of source column 0"):
            solve_timestep(op, SourcePair(1e308 * src.a, src.b), ALPHA, grid.nodes, grid)
        block = SourcePair(np.stack([src.a, 1e308 * src.a], axis=1), np.stack([src.b] * 2, 1))
        with pytest.raises(NumericsError, match="step 1 of source column 1"):
            solve_timestep(op, block, ALPHA, grid.nodes, grid)

    @settings(max_examples=25, deadline=None)
    @given(
        K=st.integers(150, 300),
        targets=st.lists(st.integers(_CHUNK + 1, 400), min_size=1, max_size=6),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_overflow_past_the_first_chunk_names_the_lowest_column(self, K, targets, seed):
        # on the grid t_k = k a drift b = DBL_MAX / (s - 1/2) overflows b t_k
        # first at step s; targets beyond K never overflow.  A is tiny, so the
        # history moves no state across that threshold.
        rng = np.random.default_rng(seed)
        grid = TimeGrid(float(K), K)
        A = 1e-9 * rng.standard_normal((3, 3))
        drift = np.finfo(float).max / (np.array(targets) - 0.5)
        source = SourcePair(rng.standard_normal((3, drift.size)), np.ones((3, 1)) * drift)
        j = next((j for j, s in enumerate(targets) if s <= K), None)
        with np.errstate(over="ignore", invalid="ignore"):
            ref = reference_march(A, source, ALPHA, grid.nodes, grid)
        # the column-by-column march turns non-finite where the drift overflows
        bad = [np.flatnonzero(~np.isfinite(ref[:, :, c]).all(axis=1)) for c in range(drift.size)]
        assert [c[0] if c.size else None for c in bad] == [s if s <= K else None for s in targets]
        if j is None:
            assert np.all(np.isfinite(solve_timestep(A, source, ALPHA, grid.nodes, grid).states))
            return
        with pytest.raises(NumericsError, match=f"at step {targets[j]} of source column {j}$"):
            solve_timestep(A, source, ALPHA, grid.nodes, grid)

    def test_memory_is_the_history_and_chunk_buffers(self):
        # a full (K+1, N, m) trajectory or a (K, K) index matrix would each
        # add 2.1 MB to the peak on these inputs
        op_t, source, grid, times = routes_1d_map_inputs()
        n, m, K = 32, 16, grid.K
        solve_timestep(op_t, source, ALPHA, times, grid)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            solve_timestep(op_t, source, ALPHA, times, grid)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        history = (K + 1) * n * m * 8
        assert peak <= history + 3 * 8 * (_CHUNK * K + _CHUNK * n * m)

    def test_one_inverse_per_call(self, reference, monkeypatch):
        op, src, _ = reference
        inverses = []
        inv = np.linalg.inv

        def counted(a):
            inverses.append(a.shape)
            return inv(a)

        monkeypatch.setattr(np.linalg, "inv", counted)
        block = SourcePair(np.stack([src.a] * 3, axis=1), np.stack([src.b] * 3, axis=1))
        grid = TimeGrid(1.0, 64)
        u = solve_timestep(op, block, ALPHA, grid.nodes, grid)
        assert u.states.shape == (65, 32, 3)
        assert inverses == [(32, 32)]

    def test_inverse_step_within_rounding_of_lu_solve(self):
        # the inverse step moved the routes-1d map by 2.3e-14
        op_t, source, grid, times = routes_1d_map_inputs()
        got = solve_timestep(op_t, source, ALPHA, times, grid).states
        old = reference_march(op_t, source, ALPHA, times, grid, lu=True)
        assert np.max(np.abs(got - old)) <= 1e-12 * np.max(np.abs(old))


class TestResolvent:
    def test_scalar_a_source(self):
        u = solve_resolvent(np.array([[1.0]]), SourcePair([1.0], [0.0]), ALPHA, [1.0])
        assert abs(u.states[0, 0] - scalar_exact(1.0, ALPHA, 1.0, 0.0, 1.0)) < 1e-10

    def test_scalar_b_source(self):
        u = solve_resolvent(np.array([[1.0]]), SourcePair([0.0], [1.0]), ALPHA, [1.0])
        assert abs(u.states[0, 0] - scalar_exact(1.0, ALPHA, 0.0, 1.0, 1.0)) < 1e-10

    def test_zero_data(self):
        u = solve_resolvent(np.eye(3), SourcePair(np.zeros(3), np.zeros(3)), ALPHA, [0.5, 1.0])
        np.testing.assert_allclose(u.states, 0.0, atol=1e-14)

    def test_node_doubling_gains_accuracy_until_floor(self):
        A = np.array([[1.0]])
        src = SourcePair([1.0], [0.0])
        exact = scalar_exact(1.0, ALPHA, 1.0, 0.0, 1.0)
        errs = []
        for nodes in (8, 16, 32, 64):
            u = solve_resolvent(A, src, ALPHA, [1.0], contour=LaplaceContour(nodes))
            errs.append(abs(u.states[0, 0] - exact))
        floor = 1e-11
        for coarse, fine in zip(errs, errs[1:]):
            assert fine <= 0.1 * coarse or fine < floor

    def test_positive_times_required(self):
        with pytest.raises(ValueError):
            solve_resolvent(np.eye(2), SourcePair([1, 0.0], [0, 0.0]), ALPHA, [0.0, 1.0])

    def test_contour_node_count_validation(self):
        with pytest.raises(ValueError):
            LaplaceContour(nodes=7)

    def test_wave_limit_surrogate(self):
        u = solve_resolvent(np.array([[4.0]]), SourcePair([1.0], [0.0]), 1.99, [1.0])
        assert abs(u.states[0, 0] - np.cos(2.0)) < 0.03 * abs(np.cos(2.0))


class TestSpectralOracle:
    def test_diagonal_matches_scalar_formula(self):
        A = np.diag([1.0, 4.0, 9.0])
        rd = compute_riesz_data(A, eigendecompose(A, cluster_tol=1e-8))
        src = SourcePair([1.0, 2.0, -1.0], [0.5, 0.0, 1.0])
        times = [0.3, 1.2]
        u = solve_spectral_oracle(rd, src, ALPHA, times)
        for it, t in enumerate(times):
            for i, lam in enumerate([1.0, 4.0, 9.0]):
                assert abs(
                    u.states[it, i] - scalar_exact(lam, ALPHA, src.a[i], src.b[i], t)
                ) < 1e-11

    def test_initial_limit_recovers_a(self, reference):
        op, src, riesz = reference
        u = solve_spectral_oracle(riesz, SourcePair(src.a, np.zeros(32)), ALPHA, [0.0, 1e-8])
        np.testing.assert_allclose(u.states[0], src.a, atol=1e-12)
        np.testing.assert_allclose(u.states[1], src.a, atol=1e-6)

    def test_refuses_defective_cluster(self):
        J = np.array([[5.0, 1.0], [0.0, 5.0]])
        rd = compute_riesz_data(J, eigendecompose(J, cluster_tol=1e-6))
        with pytest.raises(DefectiveClusterError):
            solve_spectral_oracle(rd, SourcePair([1.0, 0.0], [0.0, 0.0]), ALPHA, [1.0])

    def test_library_callers_get_the_cli_refusal(self):
        # the demo operator at b1 = 34: largest eigenvalue condition number 3.2e6
        mesh = Mesh((0.0,), (1.0,), (32,))
        op = assemble(mesh, CoefficientField.from_callables(mesh, b1=34.0))
        x = mesh.axis_nodes(0)
        src = SourcePair(np.sin(np.pi * x), x * (1.0 - x))
        riesz = compute_riesz_data(op, eigendecompose(op))
        refusal = r"has condition number 3\.\d+e\+06, above 1e\+06"
        with pytest.raises(NumericsError, match=refusal):
            solve(op, src, ALPHA, [0.25, 0.5, 1.0], riesz)
        setup = ObservationSetup(np.arange(8), np.geomspace(1e-3, 1.0, 16), riesz)
        with pytest.raises(NumericsError, match=refusal):
            build_observation_map(op, ALPHA, setup)

    def test_complex_pair_real_output(self):
        # rotation-like block has complex conjugate eigenvalues
        A = np.array([[2.0, 1.0], [-1.0, 2.0]])
        rd = compute_riesz_data(A, eigendecompose(A, cluster_tol=1e-8))
        src = SourcePair([1.0, 0.0], [0.0, 0.0])
        u = solve_spectral_oracle(rd, src, ALPHA, [0.7])
        ref = solve_resolvent(A, src, ALPHA, [0.7])
        np.testing.assert_allclose(u.states, ref.states, atol=1e-9)


class TestCrossRoute:
    @pytest.mark.parametrize("problem", ["reference", "reference_2d"], ids=["1d", "2d"])
    def test_three_routes_agree(self, request, problem):
        op, src, riesz = request.getfixturevalue(problem)
        times = [0.25, 0.5, 1.0]
        u_step, u_res, u_spec = (
            solve(op, src, ALPHA, times, method)
            for method in (TimeGrid(1.0, 1024), LaplaceContour(), riesz)
        )
        assert [u.route for u in (u_step, u_res, u_spec)] == ["timestep", "resolvent", "spectral"]
        assert route_difference(u_step, u_res).max() < 1e-3
        assert route_difference(u_step, u_spec).max() < 1e-3
        assert route_difference(u_res, u_spec).max() < 1e-6

    @pytest.mark.parametrize("sources", ["own", "map"], ids=["own source", "map unit block"])
    def test_riesz2d_routes_agree(self, sources):
        # the 2D benchmark operator (8 x 6 nodes, b = (1, 0.5)) at its
        # [solver] times, within criterion 3's bounds: its own source, and the
        # 48 unit sources of A^T that its observation map solves for
        cfg = load_config(ROOT / "bench" / "riesz2d.ini")
        mesh, op = cfg.build_mesh(), cfg.build_operator()
        riesz = compute_riesz_data(
            op, eigendecompose(op, cfg.spectral.cluster_tol), cfg.spectral.contour_nodes
        )
        source = cfg.build_source(mesh)
        if sources == "map":
            e_w = np.eye(mesh.size)[:, cfg.observation_omega(mesh)]
            source = SourcePair(np.hstack([e_w, 0 * e_w]), np.hstack([0 * e_w, e_w]))
            assert source.a.shape == (48, 48)
            op, riesz = _Transposed.of(op), riesz.transpose()
        grid = TimeGrid(cfg.problem.T, cfg.problem.K)
        methods = grid, LaplaceContour(cfg.solver.talbot_nodes), riesz
        u_step, u_res, u_spec = (
            solve(op, source, cfg.problem.alpha, cfg.solver_times(), method) for method in methods
        )
        assert route_difference(u_step, u_res).max() <= 1e-3
        assert route_difference(u_step, u_spec).max() <= 1e-3
        assert route_difference(u_res, u_spec).max() <= 1e-6

    def test_timestep_samples_are_trajectory_nodes(self, reference):
        op, src, _ = reference
        grid = TimeGrid(1.0, 128)
        u = solve(op, src, ALPHA, [0.25, 0.5, 1.0], grid)
        trajectory = solve_timestep(op, src, ALPHA, grid.nodes, grid).states
        np.testing.assert_array_equal(u.states, trajectory[[32, 64, 128]])

    def test_states_at_rejects_off_grid_times(self, reference):
        op, src, _ = reference
        with pytest.raises(ValueError, match="not nodes"):
            solve(op, src, ALPHA, [0.3], TimeGrid(1.0, 128))

    @pytest.mark.parametrize("t", [2.0, -0.5])
    def test_states_at_rejects_times_outside_horizon(self, reference, t):
        op, src, _ = reference
        with pytest.raises(ValueError, match="not nodes"):
            solve(op, src, ALPHA, [0.5, t], TimeGrid(1.0, 128))

    def test_off_grid_error_is_short(self, reference):
        # 63 of 64 geometric times miss the grid; the message shows three and a count
        op, src, _ = reference
        with pytest.raises(ValueError, match="not nodes") as info:
            solve(op, src, ALPHA, np.geomspace(1e-3, 1.0, 64), TimeGrid(1.0, 128))
        message = str(info.value)
        assert "(63 of 64)" in message and "..." in message
        assert len(message) < 300

    def test_unknown_method_rejected(self, reference):
        op, src, _ = reference
        with pytest.raises(TypeError, match="unknown solver route"):
            solve(op, src, ALPHA, [0.5], "magic")

    def test_route_difference_needs_common_times(self, reference):
        op, src, _ = reference
        u1 = solve(op, src, ALPHA, [0.5, 1.0], LaplaceContour())
        u2 = solve(op, src, ALPHA, [0.25, 1.0], LaplaceContour())
        np.testing.assert_array_equal(route_difference(u1, u1), 0.0)
        with pytest.raises(ValueError, match="different times"):
            route_difference(u1, u2)


@functools.lru_cache(maxsize=None)
def advection_problem(n):
    mesh = Mesh((0.0,), (1.0,), (n,))
    op = assemble(mesh, CoefficientField.from_callables(mesh, b1=1.0))
    return op, compute_riesz_data(op, eigendecompose(op))


class TestSourceBlocks:
    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(2, 6),
        m=st.integers(1, 4),
        route=st.sampled_from(["resolvent", "spectral", "timestep"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_block_equals_stacked_columns(self, n, m, route, seed):
        op, riesz = advection_problem(n)
        times = [0.1, 0.5, 1.0]
        methods = {"resolvent": LaplaceContour(), "spectral": riesz, "timestep": TimeGrid(1.0, 20)}
        method = methods[route]
        rng = np.random.default_rng(seed)
        block = SourcePair(rng.standard_normal((n, m)), rng.standard_normal((n, m)))
        got = solve(op, block, ALPHA, times, method)
        want = np.stack(
            [
                solve(op, SourcePair(a, b), ALPHA, times, method).states
                for a, b in zip(block.a.T, block.b.T)
            ],
            axis=-1,
        )
        assert got.states.shape == (len(times), n, m)
        tol = 1e-13
        if route == "resolvent":
            # threaded BLAS may round a block solve and a one-column solve
            # differently, and the Talbot sum amplifies rounding by e^r
            tol = max(tol, math.exp(max(got.params["r"])) * np.finfo(float).eps)
        assert np.max(np.abs(got.states - want)) <= tol * np.max(np.abs(want))

    def test_source_shapes_validated(self):
        with pytest.raises(ValueError):
            SourcePair(np.zeros((3, 2)), np.zeros((3, 3)))
        with pytest.raises(ValueError):
            SourcePair(np.zeros((2, 2, 2)), np.zeros((2, 2, 2)))


class TestLaplaceIdentity:
    def test_zero_operator(self):
        grid = TimeGrid(20.0, 2000)
        src = SourcePair([2.0], [1.0])
        u = solve_timestep(np.zeros((1, 1)), src, ALPHA, grid.nodes, grid)
        rows = laplace_identity_check(u, src, np.zeros((1, 1)), ALPHA, [2.0])
        assert rows[0].residual < 1e-4  # transform quadrature accuracy at K=2000
        assert rows[0].conclusive

    def test_scalar(self):
        grid = TimeGrid(20.0, 2048)
        src = SourcePair([1.0], [0.0])
        A = np.array([[1.0]])
        u = solve_timestep(A, src, ALPHA, grid.nodes, grid)
        rows = laplace_identity_check(u, src, A, ALPHA, [3.0])
        assert rows[0].residual < 1e-2

    def test_random_operator_with_transform_cross_check(self):
        rng = np.random.default_rng(12)
        mesh = Mesh((0.0,), (1.0,), (16,))
        op = assemble(mesh, CoefficientField.from_callables(mesh, b1=lambda x: 1 + x))
        x = mesh.axis_nodes(0)
        src = SourcePair(np.sin(np.pi * x), rng.standard_normal(16) * x * (1 - x))
        grid = TimeGrid(20.0, 2048)
        u = solve_timestep(op, src, ALPHA, grid.nodes, grid)
        rows = laplace_identity_check(u, src, op, ALPHA, [2.0, 3.0, 4.0])
        assert all(r.residual < 1e-2 for r in rows)
        # transform of the trajectory vs the resolvent formula evaluated directly
        for p in (2.0, 3.0):
            t = grid.nodes
            uhat = np.trapezoid(np.exp(-p * t)[:, None] * u.states, dx=grid.dt, axis=0)
            direct = np.linalg.solve(
                p**ALPHA * np.eye(16) + op.matrix,
                p ** (ALPHA - 1.0) * src.a + p ** (ALPHA - 2.0) * src.b,
            )
            assert np.linalg.norm(uhat - direct) / np.linalg.norm(direct) < 1e-3

    def test_truncation_flagged_inconclusive(self):
        # short horizon: the tail bound dominates the requested tolerance
        grid = TimeGrid(1.0, 64)
        src = SourcePair([1.0], [0.0])
        A = np.array([[1.0]])
        u = solve_timestep(A, src, ALPHA, grid.nodes, grid)
        rows = laplace_identity_check(u, src, A, ALPHA, [0.5], tol=1e-6)
        assert not rows[0].conclusive


class TestGrowthProbe:
    def test_zero_solution_degenerate(self):
        grid = TimeGrid(5.0, 64)
        u = solve_timestep(np.eye(2), SourcePair(np.zeros(2), np.zeros(2)), ALPHA, grid.nodes, grid)
        fit = growth_probe(u)
        assert fit.degenerate and fit.C1 == 0.0 and fit.C2 == 0.0

    def test_dissipative_envelope(self, reference):
        op, src, _ = reference
        grid = TimeGrid(5.0, 512)
        u = solve_timestep(op, src, ALPHA, grid.nodes, grid)
        fit = growth_probe(u)
        norms = np.linalg.norm(u.states, axis=1)
        assert fit.C2 <= 0.1
        assert np.all(norms <= fit.C1 * np.exp(fit.C2 * grid.nodes) * (1 + 1e-12))

    def test_unstable_mode_rate(self):
        # -A with positive eigenvalue mu: the envelope rate approaches mu^(1/alpha)
        mu = 2.0
        grid = TimeGrid(8.0, 1024)
        u = solve_timestep(np.array([[-mu]]), SourcePair([1.0], [0.0]), ALPHA, grid.nodes, grid)
        fit = growth_probe(u)
        assert fit.C2 == pytest.approx(mu ** (1.0 / ALPHA), rel=0.2)
        assert fit.C2 > 0

    def test_horizon_precondition(self):
        grid = TimeGrid(2.0, 32)
        u = solve_timestep(np.eye(1), SourcePair([1.0], [0.0]), ALPHA, grid.nodes, grid)
        with pytest.raises(ValueError):
            growth_probe(u)
