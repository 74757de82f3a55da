import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracwave.elliptic import (
    CoefficientField,
    Mesh,
    as_matrix,
    assemble,
    check_ellipticity,
    subdomain_indices,
)
from fracwave.errors import EllipticityError


def unit_interval(n):
    return Mesh((0.0,), (1.0,), (n,))


def unit_square(nx, ny=None):
    ny = ny or nx
    return Mesh((0.0, 0.0), (1.0, 1.0), (nx, ny))


class TestMesh:
    def test_spacing_and_size(self):
        m = unit_square(3, 4)
        assert m.spacing == (0.25, 0.2)
        assert m.size == 12

    def test_flat_ordering_x_fastest(self):
        m = unit_square(3, 2)
        xs, ys = m.interior_coordinates()
        np.testing.assert_allclose(xs[:3], [0.25, 0.5, 0.75])
        assert ys[0] == ys[1] == ys[2]
        assert ys[3] > ys[0]

    @pytest.mark.parametrize(
        "lo,hi,interior",
        [((0.0,), (0.0,), (4,)), ((0.0,), (1.0,), (1,)), ((0.0,), (1.0, 2.0), (4,))],
    )
    def test_invalid(self, lo, hi, interior):
        with pytest.raises(ValueError):
            Mesh(lo, hi, interior)


class TestEllipticity:
    def test_identity(self):
        m = unit_square(3)
        cf = CoefficientField.from_callables(m)
        assert check_ellipticity(cf) == pytest.approx(1.0)

    def test_constant_offdiagonal(self):
        m = unit_square(3)
        cf = CoefficientField.from_callables(m, a11=2.0, a22=2.0, a12=1.0)
        assert check_ellipticity(cf) == pytest.approx(1.0)  # eigenvalues 1 and 3

    def test_indefinite_flagged(self):
        m = unit_square(3)
        cf = CoefficientField.from_callables(m, a11=1.0, a22=1.0, a12=2.0)
        assert check_ellipticity(cf) == pytest.approx(-1.0)  # eigenvalues -1 and 3
        with pytest.raises(EllipticityError):
            assemble(m, cf)

    def test_1d_min_over_nodes(self):
        m = unit_interval(9)
        cf = CoefficientField.from_callables(m, a11=lambda x: 1.0 + x)
        assert check_ellipticity(cf) == pytest.approx(1.0)  # boundary node x=0


class TestAssemble1D:
    def test_dirichlet_laplacian_stencil(self):
        m = unit_interval(5)
        h = m.spacing[0]
        A = assemble(m, CoefficientField.from_callables(m)).matrix
        ref = (
            np.diag(2.0 * np.ones(5))
            + np.diag(-np.ones(4), 1)
            + np.diag(-np.ones(4), -1)
        ) / h**2
        np.testing.assert_allclose(A, ref, atol=1e-12)

    def test_constant_advection_skew_part(self):
        m = unit_interval(5)
        h = m.spacing[0]
        lap = assemble(m, CoefficientField.from_callables(m)).matrix
        A = assemble(m, CoefficientField.from_callables(m, b1=1.0)).matrix
        centered = (np.diag(np.ones(4), 1) - np.diag(np.ones(4), -1)) / (2 * h)
        np.testing.assert_allclose(A - lap, -centered, atol=1e-13)
        assert not np.allclose(A, A.T)

    def test_classical_spectrum(self):
        n = 8
        m = unit_interval(n)
        h = m.spacing[0]
        A = assemble(m, CoefficientField.from_callables(m)).matrix
        lam = np.sort(np.linalg.eigvals(A).real)
        k = np.arange(1, n + 1)
        np.testing.assert_allclose(lam, (2.0 / h**2) * (1.0 - np.cos(k * np.pi * h)), atol=1e-10)

    def test_consistency_variable_coefficients(self):
        # -A v for a = 1 + x^2, b = x, c = 2, v = sin(pi x):
        #   d/dx((1+x^2) v') + x v' + 2 v
        def exact_minus_Av(x):
            return (
                2.0 * x * np.pi * np.cos(np.pi * x)
                - (1.0 + x**2) * np.pi**2 * np.sin(np.pi * x)
                + x * np.pi * np.cos(np.pi * x)
                + 2.0 * np.sin(np.pi * x)
            )

        errs = []
        for n in (16, 32, 64):
            m = unit_interval(n)
            cf = CoefficientField.from_callables(
                m, a11=lambda x: 1.0 + x**2, b1=lambda x: x, c=2.0
            )
            A = assemble(m, cf).matrix
            x = m.axis_nodes(0)
            errs.append(np.max(np.abs(A @ np.sin(np.pi * x) + exact_minus_Av(x))))
        assert errs[0] / errs[1] > 3.5  # second order
        assert errs[1] / errs[2] > 3.5


def node_loop_reference(m, cf):
    """The 2D stencil without mixed term, written out node by node."""
    nx, ny = m.interior
    hx, hy = m.spacing
    R = np.zeros((nx * ny, nx * ny))
    for iy in range(ny):
        for ix in range(nx):
            row, gx, gy = iy * nx + ix, ix + 1, iy + 1
            axp = 0.5 * (cf.a11[gy, gx] + cf.a11[gy, gx + 1])
            axm = 0.5 * (cf.a11[gy, gx] + cf.a11[gy, gx - 1])
            ayp = 0.5 * (cf.a22[gy, gx] + cf.a22[gy + 1, gx])
            aym = 0.5 * (cf.a22[gy, gx] + cf.a22[gy - 1, gx])
            bx, by = cf.b1[gy, gx], cf.b2[gy, gx]
            R[row, row] = -(axp + axm) / hx**2 - (ayp + aym) / hy**2 + cf.c[gy, gx]
            if ix + 1 < nx:
                R[row, row + 1] = axp / hx**2 + bx / (2 * hx)
            if ix > 0:
                R[row, row - 1] = axm / hx**2 - bx / (2 * hx)
            if iy + 1 < ny:
                R[row, row + nx] = ayp / hy**2 + by / (2 * hy)
            if iy > 0:
                R[row, row - nx] = aym / hy**2 - by / (2 * hy)
    return -R


class TestAssemble2D:
    def test_five_point_laplacian(self):
        m = unit_square(3)
        h = m.spacing[0]
        A = assemble(m, CoefficientField.from_callables(m)).matrix
        assert A.shape == (9, 9)
        center = 4
        assert A[center, center] == pytest.approx(4.0 / h**2)
        for nb in (1, 3, 5, 7):
            assert A[center, nb] == pytest.approx(-1.0 / h**2)
        assert A[center, 0] == 0.0  # no diagonal coupling in the five-point stencil

    def test_consistency_advection_and_mixed(self):
        # v = sin(pi x) sin(2 pi y), a11 = a22 = 1, a12 = 0.2, b = (1, -1):
        # -A v = -5 pi^2 v + 0.4 vxy + vx - vy
        def exact_minus_Av(x, y):
            sx, cx = np.sin(np.pi * x), np.cos(np.pi * x)
            sy, cy = np.sin(2 * np.pi * y), np.cos(2 * np.pi * y)
            return (
                -5.0 * np.pi**2 * sx * sy
                + 0.4 * 2.0 * np.pi**2 * cx * cy
                + np.pi * cx * sy
                - 2.0 * np.pi * sx * cy
            )

        errs = []
        for n in (12, 24, 48):
            m = unit_square(n)
            cf = CoefficientField.from_callables(m, a12=0.2, b1=1.0, b2=-1.0)
            A = assemble(m, cf).matrix
            xs, ys = m.interior_coordinates()
            v = np.sin(np.pi * xs) * np.sin(2 * np.pi * ys)
            errs.append(np.max(np.abs(A @ v + exact_minus_Av(xs, ys))))
        assert errs[0] / errs[1] > 3.5  # second order
        assert errs[1] / errs[2] > 3.5

    def test_symmetric_iff_no_advection(self):
        m = unit_square(6)
        rng = np.random.default_rng(5)
        bump = rng.uniform(0.5, 1.5, (8, 8))
        sym = assemble(
            m,
            CoefficientField(
                m, a11=bump, a22=1.0 + 0.1 * bump, a12=0.2 * (bump - 1.0), c=bump
            ),
        ).matrix
        assert np.max(np.abs(sym - sym.T)) == 0.0
        askew = assemble(m, CoefficientField.from_callables(m, b2=1.0)).matrix
        assert np.max(np.abs(askew - askew.T)) > 0.1

    @settings(max_examples=60, deadline=None)
    @given(
        nx=st.integers(2, 6),
        ny=st.integers(2, 6),
        advection=st.sampled_from([0.0, 1.0, 300.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_sum_of_line_assemblies(self, nx, ny, advection, seed):
        # with a12 = 0 the 2D operator equals its node-by-node stencil, and the
        # 1D operators of its x-lines and y-lines plus the reaction term, bit
        # for bit
        rng = np.random.default_rng(seed)
        lo = rng.uniform(-1.0, 0.0, 2)
        m = Mesh(tuple(lo), tuple(lo + rng.uniform(0.3, 2.0, 2)), (nx, ny))
        shape = (ny + 2, nx + 2)
        a11, a22 = rng.uniform(0.01, 2.0, (2, *shape))
        b1, b2 = advection * rng.standard_normal((2, *shape))
        c = rng.standard_normal(shape)
        cf = CoefficientField(m, a11=a11, a22=a22, b1=b1, b2=b2, c=c)
        A = assemble(m, cf).matrix
        np.testing.assert_array_equal(A, node_loop_reference(m, cf))

        def line(axis, a, b):
            m1 = Mesh((m.lo[axis],), (m.hi[axis],), (m.interior[axis],))
            return assemble(m1, CoefficientField(m1, a11=a, b1=b)).matrix

        want = np.zeros_like(A)
        for iy in range(ny):
            rows = iy * nx + np.arange(nx)
            want[np.ix_(rows, rows)] += line(0, a11[iy + 1], b1[iy + 1])
        for ix in range(nx):
            rows = ix + nx * np.arange(ny)
            want[np.ix_(rows, rows)] += line(1, a22[:, ix + 1], b2[:, ix + 1])
        want[np.diag_indices(nx * ny)] -= c[1:-1, 1:-1].ravel()
        np.testing.assert_array_equal(A, want)


class TestSubdomain:
    def test_whole_domain(self):
        m = unit_interval(10)
        np.testing.assert_array_equal(subdomain_indices(m, (0.0, 1.0)), np.arange(10))

    def test_left_quarter(self):
        m = unit_interval(10)
        np.testing.assert_array_equal(subdomain_indices(m, (0.0, 0.25)), [0, 1])

    def test_disjoint_box_errors(self):
        m = unit_interval(10)
        with pytest.raises(ValueError):
            subdomain_indices(m, (2.0, 3.0))

    def test_2d_box(self):
        m = unit_square(4)
        idx = subdomain_indices(m, ((0.0, 0.5), (0.0, 0.5)))
        xs, ys = m.interior_coordinates()
        assert np.all(xs[idx] <= 0.5) and np.all(ys[idx] <= 0.5)
        assert idx.size == 4


class TestExportAndHelpers:
    def test_as_matrix_accepts_scalars_and_operators(self):
        m = unit_interval(4)
        op = assemble(m, CoefficientField.from_callables(m))
        assert as_matrix(op) is op.matrix
        np.testing.assert_array_equal(as_matrix([[2.0]]), [[2.0]])
        with pytest.raises(ValueError):
            as_matrix(np.zeros((2, 3)))

    def test_coefficient_shape_mismatch(self):
        m = unit_interval(4)
        with pytest.raises(ValueError):
            CoefficientField(m, a11=np.ones(3))

    def test_mesh_mismatch(self):
        cf = CoefficientField.from_callables(unit_interval(4))
        with pytest.raises(ValueError):
            assemble(unit_interval(5), cf)
