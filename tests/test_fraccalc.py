import cmath
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import gamma, gammaln, rgamma

from fracwave import fraccalc
from fracwave.errors import MittagLefflerError
from fracwave.fraccalc import (
    TimeGrid,
    TimeSeries,
    caputo_derivative,
    mittag_leffler,
    mittag_leffler_kernel,
    rl_integral,
    second_differences,
)
from ml_reference import (
    DEMO_LARGEST,
    LARGE_NEGATIVE,
    NEAR_CUT,
    NEAR_ENDS,
    NEGATIVE_AXIS,
    POINTS,
    SERIES_EDGE,
    load_table,
    ml_reference,
)


def series(grid, fn):
    return TimeSeries(grid, fn(grid.nodes))


class TestTimeGrid:
    def test_nodes(self):
        g = TimeGrid(2.0, 4)
        assert g.dt == 0.5
        np.testing.assert_allclose(g.nodes, [0, 0.5, 1.0, 1.5, 2.0])
        assert len(g) == 5

    @pytest.mark.parametrize("T,K", [(0.0, 4), (-1.0, 4), (1.0, 1), (math.inf, 4)])
    def test_invalid(self, T, K):
        with pytest.raises(ValueError):
            TimeGrid(T, K)

    def test_series_length_mismatch(self):
        with pytest.raises(ValueError):
            TimeSeries(TimeGrid(1.0, 4), np.zeros(4))

    def test_series_nonfinite(self):
        with pytest.raises(ValueError):
            TimeSeries(TimeGrid(1.0, 4), np.array([0, 1, np.nan, 3, 4.0]))


class TestGammaHelpers:
    """The scalar gamma helpers against ``scipy.special``."""

    @pytest.mark.parametrize(
        "x",
        [0.0, -1.0, -2.0, -170.0]  # poles
        + [-0.5, -1.5, -2.25, -170.5, -171.5, -200.5, -1000.5, -1001.5]  # negative non-integers
        + [171.5, 171.6, 171.62, 171.63, 171.7, 172.0]  # Gamma overflows near 171.6
        + [200.0, 1e6, 1e300]  # large
        + [1e-300, 1e-310, 5e-324, 0.5, 1.0, 2.5, 3.5, 10.25, 60.0],
    )
    def test_rgamma(self, x):
        got, want = fraccalc._rgamma(x), float(rgamma(x))
        if math.isinf(want):
            assert got == want
        else:
            assert got == pytest.approx(want, rel=4e-16, abs=1e-322)

    @pytest.mark.parametrize("x", [1e-300, 1e-3, 0.5, 1.0, 1.5, 2.0, 3.75, 10.5, 171.7, 1e6, 1e300])
    def test_gammaln(self, x):
        assert fraccalc._gammaln(x) == pytest.approx(float(gammaln(x)), rel=4e-16)


class TestRLIntegral:
    def test_order_one_is_plain_integration(self):
        g = TimeGrid(1.0, 64)
        out = rl_integral(series(g, np.ones_like), 1.0)
        np.testing.assert_allclose(out.values, g.nodes, atol=1e-14)

    def test_zero_input(self):
        g = TimeGrid(1.0, 16)
        out = rl_integral(series(g, np.zeros_like), 0.7)
        assert np.all(out.values == 0.0)

    def test_node_zero_maps_to_zero(self):
        g = TimeGrid(1.0, 16)
        out = rl_integral(series(g, lambda t: 1 + t), 1.3)
        assert out.values[0] == 0.0

    def test_halforder_of_t_analytic_and_quadrature(self):
        # analytic kernel moment: integral of (t-s)^(-1/2) s ds = (4/3) t^(3/2),
        # so the half-order integral of t is t^1.5 / Gamma(2.5)
        g = TimeGrid(1.0, 512)
        out = rl_integral(series(g, lambda t: t), 0.5)
        assert abs(out.values[-1] - 0.7522527780636751) < 2e-5
        # independent oracle: substitute s = t - u^2 to remove the singularity,
        # then plain trapezoid of the smooth integrand 2*(t - u^2)
        t = 1.0
        u = np.linspace(0.0, math.sqrt(t), 20001)
        oracle = np.trapezoid(2.0 * (t - u**2), u) / gamma(0.5)
        assert abs(oracle - 0.7522527780636751) < 1e-9
        assert abs(out.values[-1] - oracle) < 2e-5

    def test_exact_for_piecewise_linear(self):
        # hat-function input: the product rule integrates the reconstruction exactly
        g = TimeGrid(1.0, 8)
        v = np.maximum(0.0, 1.0 - np.abs(g.nodes - 0.5) * 4.0)
        coarse = rl_integral(TimeSeries(g, v), 0.5)
        g2 = TimeGrid(1.0, 64)
        v2 = np.maximum(0.0, 1.0 - np.abs(g2.nodes - 0.5) * 4.0)
        fine = rl_integral(TimeSeries(g2, v2), 0.5)
        np.testing.assert_allclose(coarse.values[-1], fine.values[-1], atol=1e-12)

    def test_order_two_endpoint(self):
        g = TimeGrid(1.0, 32)
        out = rl_integral(series(g, lambda t: t), 2.0)
        np.testing.assert_allclose(out.values[-1], 1.0 / 6.0, atol=1e-14)

    @pytest.mark.parametrize("alpha", [-0.5, 0.0, 2.5])
    def test_order_range(self, alpha):
        g = TimeGrid(1.0, 8)
        with pytest.raises(ValueError):
            rl_integral(series(g, np.ones_like), alpha)

    def test_linearity(self):
        g = TimeGrid(2.0, 40)
        rng = np.random.default_rng(3)
        u = rng.standard_normal(len(g))
        v = rng.standard_normal(len(g))
        lhs = rl_integral(TimeSeries(g, 2.0 * u - 3.0 * v), 0.8).values
        rhs = 2.0 * rl_integral(TimeSeries(g, u), 0.8).values - 3.0 * rl_integral(
            TimeSeries(g, v), 0.8
        ).values
        np.testing.assert_allclose(lhs, rhs, atol=1e-13)

    def test_semigroup_under_refinement(self):
        errs = []
        for K in (64, 128):
            g = TimeGrid(1.0, K)
            v = series(g, np.cos)
            two_step = rl_integral(rl_integral(v, 0.6), 0.7).values
            one_step = rl_integral(v, 1.3).values
            errs.append(np.max(np.abs(two_step - one_step)))
        assert errs[1] <= 0.7 * errs[0]

    def test_complex_input(self):
        g = TimeGrid(1.0, 32)
        v = TimeSeries(g, (1 + 2j) * g.nodes)
        out = rl_integral(v, 1.0)
        np.testing.assert_allclose(out.values, (1 + 2j) * g.nodes**2 / 2, atol=1e-12)


class TestCaputoDerivative:
    def test_annihilates_affine(self):
        g = TimeGrid(1.0, 32)
        out = caputo_derivative(series(g, lambda t: 3.0 - 2.0 * t), 1.5)
        np.testing.assert_allclose(out.values, 0.0, atol=1e-11)

    @pytest.mark.parametrize("alpha", [1.2, 1.5, 1.8])
    def test_quadratic_closed_form(self, alpha):
        # second differences are exact for t^2; the product rule integrates the
        # constant reconstruction exactly, so the result is exact to rounding
        g = TimeGrid(1.0, 64)
        out = caputo_derivative(series(g, lambda t: t**2), alpha)
        ref = 2.0 * g.nodes ** (2.0 - alpha) / gamma(3.0 - alpha)
        np.testing.assert_allclose(out.values, ref, atol=1e-11)

    def test_left_inverse_refinement(self):
        # w(0) = w'(0) = 0, so the derivative undoes the integral
        errs = []
        for K in (256, 512):
            g = TimeGrid(1.0, K)
            w = series(g, lambda t: t**2 * (1.0 - t))
            back = caputo_derivative(rl_integral(w, 1.5), 1.5)
            errs.append(np.max(np.abs(back.values - w.values)))
        assert errs[0] < 1e-4
        assert errs[1] <= 0.6 * errs[0]

    @pytest.mark.parametrize("alpha", [1.0, 2.0, 0.5])
    def test_order_range(self, alpha):
        g = TimeGrid(1.0, 8)
        with pytest.raises(ValueError):
            caputo_derivative(series(g, np.ones_like), alpha)

    def test_grid_too_short(self):
        with pytest.raises(ValueError):
            caputo_derivative(series(TimeGrid(1.0, 2), np.ones_like), 1.5)

    def test_second_differences_exact_for_quadratic(self):
        g = TimeGrid(1.0, 8)
        d2 = second_differences(series(g, lambda t: 1 + t + 4 * t**2))
        np.testing.assert_allclose(d2, 8.0, atol=1e-10)

    def test_linearity(self):
        g = TimeGrid(1.0, 32)
        rng = np.random.default_rng(9)
        u = rng.standard_normal(len(g))
        v = rng.standard_normal(len(g))
        lhs = caputo_derivative(TimeSeries(g, 0.5 * u + 2.0 * v), 1.5).values
        rhs = 0.5 * caputo_derivative(TimeSeries(g, u), 1.5).values + 2.0 * (
            caputo_derivative(TimeSeries(g, v), 1.5).values
        )
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)


class TestMittagLeffler:
    def test_value_at_zero(self):
        assert mittag_leffler(1.7, 2.3, 0.0) == pytest.approx(1.0 / gamma(2.3))

    def test_exponential_identity(self):
        assert abs(mittag_leffler(1.0, 1.0, 1.0) - math.e) < 1e-12

    def test_cosine_identity(self):
        assert abs(mittag_leffler(2.0, 1.0, -1.0) - math.cos(1.0)) < 1e-12

    def test_matches_plain_series_small_arguments(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            alpha = rng.uniform(1.0, 2.0)
            beta = rng.uniform(0.5, 2.5)
            z = rng.uniform(-5, 5) + 1j * rng.uniform(-5, 5)
            if abs(z) > 5:
                z = 4.9 * z / abs(z)
            direct = sum(z**k / gamma(alpha * k + beta) for k in range(200))
            assert abs(mittag_leffler(alpha, beta, z) - direct) < 1e-12

    @pytest.mark.parametrize("alpha", [1.2, 1.5, 1.9])
    @pytest.mark.parametrize("beta", [1.0, 2.0])
    def test_large_negative_arguments(self, alpha, beta):
        table = load_table()
        for q in (15.0, 50.0, 400.0, 4000.0):
            ref = table[alpha, beta, -q]
            assert abs(mittag_leffler(alpha, beta, -q) - ref) < 1e-10

    @pytest.mark.parametrize("alpha, beta, z", NEAR_ENDS + NEAR_CUT + DEMO_LARGEST)
    def test_kernel_regimes(self, alpha, beta, z):
        # alpha near 1 and 2, poles 0.01-0.05 rad from the branch cut, and the
        # largest argument of the demo observation map
        assert abs(mittag_leffler(alpha, beta, z) - load_table()[alpha, beta, z]) < 1e-10

    @pytest.mark.parametrize("alpha, beta, z", SERIES_EDGE)
    def test_contour_inside_the_series_radius(self, alpha, beta, z):
        # for alpha below 1.5 the contour serves |z| > 2, where the series
        # erred by up to 8e-11
        assert abs(mittag_leffler(alpha, beta, z) - load_table()[alpha, beta, z]) < 1e-13

    @pytest.mark.parametrize("alpha, beta, z", NEGATIVE_AXIS)
    def test_closed_forms_near_the_negative_axis(self, alpha, beta, z):
        # for alpha = 1 and beta 1 or 2 the closed forms serve |z| > 2 within
        # 0.1 rad of the negative axis, where the series erred by up to 1e-11
        assert abs(mittag_leffler(alpha, beta, z) - load_table()[alpha, beta, z]) < 1e-13

    def test_reference_table_matches_live_values(self):
        # the entries cheap enough to recompute; the rest cost minutes
        table = load_table()
        assert set(table) == set(POINTS)
        for alpha, beta, z in POINTS:
            if abs(z) <= 50.0:
                assert table[alpha, beta, z] == ml_reference(alpha, beta, z)

    def test_complex_ray(self):
        for mod in (12.0, 60.0):
            z = mod * np.exp(1j * 0.85 * np.pi)
            ref = ml_reference(1.5, 1.0, z)
            assert abs(mittag_leffler(1.5, 1.0, z) - ref) < 1e-10

    def test_continuity_across_series_switch(self):
        # same function on both sides of the series/contour switch radius
        for z in (-9.9, -10.1, 9.9 * np.exp(0.7j * np.pi), 10.1 * np.exp(0.7j * np.pi)):
            ref = ml_reference(1.5, 1.0, z)
            assert abs(mittag_leffler(1.5, 1.0, complex(z)) - ref) < 1e-11

    def test_positive_axis_growth(self):
        ref = ml_reference(1.5, 1.0, 40.0)
        val = mittag_leffler(1.5, 1.0, 40.0)
        assert abs(val - ref) / abs(ref) < 1e-12

    def test_conjugate_symmetry(self):
        z = 30.0 * np.exp(1j * 0.9 * np.pi)
        v1 = mittag_leffler(1.5, 1.0, z)
        v2 = mittag_leffler(1.5, 1.0, np.conj(z))
        assert abs(v1 - np.conj(v2)) < 1e-13

    def test_unsupported_regimes_raise(self):
        with pytest.raises(MittagLefflerError):
            mittag_leffler(2.5, 1.0, -100.0)  # alpha > 2 at large argument
        with pytest.raises(MittagLefflerError):
            mittag_leffler(1.5, 3.0, -100.0)  # beta >= 1 + alpha
        with pytest.raises(MittagLefflerError):
            # root of s^alpha = z lands exactly on the branch cut
            mittag_leffler(1.25, 1.0, 50.0 * np.exp(0.75j * np.pi))
        with pytest.raises(MittagLefflerError, match="overflows"):
            mittag_leffler(0.5, 1.0, 1000.0)  # E ~ 2 e^(10^6)
        with pytest.raises(MittagLefflerError, match="beta < 1 \\+ alpha"):
            mittag_leffler(1.0, 2.0, 50.0)  # beta = 1 + alpha away from the closed form

    @pytest.mark.parametrize("z", [-50.0, -400.0])
    def test_alpha_one_beta_two_closed_form(self, z):
        assert mittag_leffler(1.0, 2.0, z) == pytest.approx((math.exp(z) - 1.0) / z, rel=1e-15)

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan])
    def test_alpha_validation(self, bad):
        with pytest.raises(ValueError):
            mittag_leffler(bad, 1.0, 1.0)

    def test_mittag_leffler_transform_pair(self):
        # transform of E_{a,1}(-t^a) is p^(a-1) / (p^a + 1); trapezoid over [0, 20]
        alpha, p = 1.5, 2.0
        g = TimeGrid(20.0, 4000)
        vals = np.array(
            [mittag_leffler(alpha, 1.0, -(t**alpha)).real for t in g.nodes]
        )
        value = np.trapezoid(np.exp(-p * g.nodes) * vals, dx=g.dt)
        ref = p ** (alpha - 1.0) / (p**alpha + 1.0)
        assert abs(value - ref) < 1e-5


# arguments on both sides of the series radius, at any angle
moduli = st.floats(0.0, 300.0)
angles = st.floats(-math.pi, math.pi)
orders = st.floats(1.0, 2.0)


def _supported(alpha, beta, z):
    try:
        mittag_leffler(alpha, beta, z)
    except MittagLefflerError:
        return False
    return True


class TestMittagLefflerKernel:
    @settings(max_examples=60, deadline=None)
    @given(
        orders,
        st.floats(0.5, 2.5),
        st.lists(st.tuples(moduli, angles), min_size=1, max_size=12),
    )
    def test_elements_are_independent(self, alpha, beta, polar):
        # chunking and order cannot matter: each element of an array result
        # is bitwise the kernel on that element alone
        z = np.array([cmath.rect(r, phi) for r, phi in polar])
        if not all(_supported(alpha, beta, v) for v in z):
            with pytest.raises(MittagLefflerError):
                mittag_leffler_kernel(alpha, beta, z)
            return
        values = mittag_leffler_kernel(alpha, beta, z)
        assert values.shape == z.shape
        for v, e in zip(z, values):
            assert mittag_leffler_kernel(alpha, beta, v) == e
        np.testing.assert_array_equal(mittag_leffler_kernel(alpha, beta, z[::-1]), values[::-1])
        np.testing.assert_array_equal(
            mittag_leffler_kernel(alpha, beta, np.tile(z, (2, 1))), np.tile(values, (2, 1))
        )

    @settings(max_examples=60, deadline=None)
    @given(orders, st.floats(0.5, 2.5), moduli, angles)
    def test_conjugate_symmetry(self, alpha, beta, r, phi):
        z = cmath.rect(r, phi)
        assume(_supported(alpha, beta, z))
        e, e_conj = mittag_leffler_kernel(alpha, beta, np.array([z, z.conjugate()]))
        assert abs(e_conj - e.conjugate()) <= 1e-14 * max(1.0, abs(e))

    @settings(max_examples=60, deadline=None)
    @given(orders, st.floats(0.5, 2.5), angles)
    def test_continuity_across_series_radius(self, alpha, beta, phi):
        # the series serves |z| <= 10, the contour beyond; for alpha below
        # 1.5 the contour already serves |z| > 2 wherever it accepts the
        # argument.  The jump is the series' own rounding error at |z| = 10
        # where it still serves: against mpmath up to 8e-14 for alpha >= 1.5
        inner, outer = cmath.rect(10.0 - 1e-12, phi), cmath.rect(10.0 + 1e-12, phi)
        assume(_supported(alpha, beta, outer))
        e_in, e_out = mittag_leffler_kernel(alpha, beta, np.array([inner, outer]))
        assert abs(e_in - e_out) <= 2e-10 * max(1.0, abs(e_in))

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(st.floats(0.0, 1000.0), min_size=1, max_size=12),
        st.integers(0, 12),
        st.floats(10.5, 1000.0),
    )
    def test_one_unsupported_element_raises(self, moduli, at, bad):
        z = -np.array(moduli, dtype=complex)
        mittag_leffler_kernel(1.5, 1.0, z)
        # arg z = pi/2 puts a root of s^1.5 = z on the branch cut
        with pytest.raises(MittagLefflerError, match="branch cut"):
            mittag_leffler_kernel(1.5, 1.0, np.insert(z, min(at, z.size), 1j * bad))
        # past the series radius, alpha must be at most 2
        small = np.minimum(np.abs(z), 10.0) * -1.0
        mittag_leffler_kernel(2.5, 1.0, small)
        with pytest.raises(MittagLefflerError, match="alpha <= 2"):
            mittag_leffler_kernel(2.5, 1.0, np.insert(small, min(at, z.size), -bad))

    def test_shape_and_scalar_wrapper(self):
        z = -np.geomspace(1e-3, 4e3, 24).reshape(2, 3, 4)
        values = mittag_leffler_kernel(1.5, 1.0, z)
        assert values.shape == (2, 3, 4) and values.dtype == complex
        assert mittag_leffler_kernel(1.5, 1.0, np.empty((0, 3))).shape == (0, 3)
        assert all(mittag_leffler(1.5, 1.0, v) == e for v, e in zip(z.ravel(), values.ravel()))
        with pytest.raises(ValueError, match="finite"):
            mittag_leffler_kernel(1.5, 1.0, np.array([1.0, np.nan]))


def series_by_terms(alpha, beta, x):
    """The real-axis series one term at a time: sign(x)^k |x|^k / Gamma(alpha k + beta)
    with the kernel's stopping rule (past the hump, two small terms in a row)."""
    out = np.empty_like(x)
    todo = np.arange(x.size)
    logx, hump, sign = np.log(np.abs(x)), np.abs(x) ** (1.0 / alpha), np.where(x < 0.0, -1.0, 1.0)
    total = np.full(x.size, fraccalc._rgamma(beta))
    small = np.zeros(x.size, dtype=bool)
    for k in range(1, 601):
        term = np.exp(k * logx - math.lgamma(alpha * k + beta)) * sign**k
        total = total + term
        tiny = np.abs(term) <= 1e-17 * (1.0 + np.abs(total))
        done = tiny & small & (k >= hump)
        out[todo[done]] = total[done]
        keep = ~done
        todo, logx, hump, sign, total, small = (
            todo[keep], logx[keep], hump[keep], sign[keep], total[keep], tiny[keep]
        )
        if not todo.size:
            return out
    raise AssertionError("no convergence")


EPS = np.finfo(float).eps
# the real axis up to |x| = 5e3, with the series radius 10 and alpha < 1.5's
# switch to the contour at 2 on both sides
real_args = st.one_of(
    st.floats(-5e3, 5e3),
    st.floats(-12.0, 12.0),
    st.sampled_from([s * v for s in (1.0, -1.0) for v in (2.0, 10.0, 10.0 - 1e-12, 10.0 + 1e-12)]),
)
any_args = st.one_of(
    real_args,
    st.tuples(moduli, angles).map(lambda polar: cmath.rect(*polar)),
)
betas = st.one_of(st.floats(0.5, 2.5), st.sampled_from([1.0, 2.0, 3.5]))


class TestRealAxisAndBetaStacks:
    @settings(max_examples=300, deadline=None)
    @given(orders, st.floats(0.5, 2.5), real_args)
    def test_real_path_agrees_with_the_complex_path(self, alpha, beta, x):
        # the complex path at x + 1e-300 i, where E differs from E(x) by
        # about 1e-300.  Measured on 90,000 arguments: at most 1.9 eps times
        # max(1, |E(x)|, E(|x|)), E(|x|) (the sum of the series' term
        # moduli) counted up to |x| = 10, where the series cancels; a 4x margin
        try:
            near = mittag_leffler_kernel(alpha, beta, complex(x, 1e-300))
        except MittagLefflerError:
            with pytest.raises(MittagLefflerError):
                mittag_leffler_kernel(alpha, beta, x)
            return
        value = mittag_leffler_kernel(alpha, beta, x)
        assert value.imag == 0.0
        assert mittag_leffler_kernel(alpha, beta, complex(x, -0.0)).tobytes() == value.tobytes()
        moduli_sum = abs(mittag_leffler_kernel(alpha, beta, abs(x))) if abs(x) <= 10.0 else 0.0
        assert abs(value - near) <= 8 * EPS * max(1.0, abs(near), moduli_sum)

    @settings(max_examples=100, deadline=None)
    @given(orders, st.floats(0.5, 2.5), st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=12))
    def test_real_series_is_the_term_by_term_sum(self, alpha, beta, x):
        x = np.array(x)
        x = x[x != 0.0]
        assume(x.size)
        got = fraccalc._ml_series(alpha, [beta], x)[0]
        assert got.tobytes() == series_by_terms(alpha, beta, x).tobytes()

    @settings(max_examples=80, deadline=None)
    @given(orders, st.lists(betas, min_size=1, max_size=4), st.lists(any_args, min_size=1, max_size=10))
    def test_stacked_betas_are_the_single_calls(self, alpha, bs, z):
        z = np.array(z, dtype=complex)
        singles, errors = [], []
        for b in bs:
            try:
                singles.append(mittag_leffler_kernel(alpha, b, z))
            except MittagLefflerError as exc:
                errors.append(str(exc))
        if errors:
            # one of the messages the single calls raise
            with pytest.raises(MittagLefflerError) as info:
                mittag_leffler_kernel(alpha, bs, z)
            assert str(info.value) in errors
            return
        stacked = mittag_leffler_kernel(alpha, bs, z)
        assert stacked.shape == (len(bs), z.size)
        for row, single in zip(stacked, singles):
            assert row.tobytes() == single.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(orders, st.lists(betas, min_size=1, max_size=3), st.lists(any_args, min_size=1, max_size=10))
    def test_stacked_elements_are_independent(self, alpha, bs, z):
        z = np.array(z, dtype=complex)
        try:
            values = mittag_leffler_kernel(alpha, bs, z)
        except MittagLefflerError:
            return
        for i, v in enumerate(z):
            assert mittag_leffler_kernel(alpha, bs, v).tobytes() == values[:, i].tobytes()
        assert mittag_leffler_kernel(alpha, bs, z[::-1]).tobytes() == values[:, ::-1].tobytes()
        tiled = mittag_leffler_kernel(alpha, bs, np.tile(z, (2, 1)))
        assert tiled.shape == (len(bs), 2, z.size)
        assert tiled.tobytes() == np.stack([values, values], axis=1).tobytes()

    @pytest.mark.parametrize(
        "alpha, bs, z, bad",
        [
            (2.5, (1.0, 2.0), -100.0, 1.0),  # alpha > 2 at large argument
            (1.5, (1.0, 3.0), -100.0, 3.0),  # beta >= 1 + alpha
            (1.25, (1.0, 2.0), 50.0 * np.exp(0.75j * np.pi), 1.0),  # root on the branch cut
            (0.5, (1.0, 1.25), 1000.0, 1.0),  # E ~ 2 e^(10^6)
            (1.0, (1.0, 2.0, 0.5), -50.0, 0.5),  # alpha = 1 near the negative axis
            (1.0, (2.0, 1.0), 50.0, 2.0),  # beta = 1 + alpha off the closed form
        ],
    )
    def test_unsupported_regimes_raise_as_the_single_call(self, alpha, bs, z, bad):
        with pytest.raises(MittagLefflerError) as single:
            mittag_leffler_kernel(alpha, bad, z)
        with pytest.raises(MittagLefflerError) as stacked:
            mittag_leffler_kernel(alpha, bs, np.array([0.5, z]))
        assert str(stacked.value) == str(single.value)

    def test_reference_rows_by_stacked_calls(self):
        # each (alpha, z) of the table with all its betas in one call: every
        # row is bitwise its single call and within the loosest tolerance of
        # the table tests above
        table = load_table()
        groups = {}
        for alpha, beta, z in table:
            groups.setdefault((alpha, z), []).append(beta)
        for (alpha, z), bs in groups.items():
            stacked = mittag_leffler_kernel(alpha, bs, z)
            for beta, value in zip(bs, stacked):
                assert value.tobytes() == mittag_leffler_kernel(alpha, beta, z).tobytes()
                assert abs(value - table[alpha, beta, z]) < 1e-10

    def test_shapes_and_validation(self):
        z = -np.geomspace(1e-3, 4e3, 6).reshape(2, 3)
        assert mittag_leffler_kernel(1.5, 1.0, z).shape == (2, 3)
        assert mittag_leffler_kernel(1.5, [1.0], z).shape == (1, 2, 3)
        assert mittag_leffler_kernel(1.5, np.array([1.0, 2.0]), z).shape == (2, 2, 3)
        assert mittag_leffler_kernel(1.5, (1.0, 2.0), np.empty(0)).shape == (2, 0)
        assert mittag_leffler_kernel(1.5, (1.0, 2.0), 3.0).shape == (2,)
        with pytest.raises(ValueError, match="finite"):
            mittag_leffler_kernel(1.5, (1.0, math.inf), z)
        with pytest.raises(ValueError, match="sequence"):
            mittag_leffler_kernel(1.5, [[1.0, 2.0]], z)
