import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fracwave.fraccalc
import fracwave.observability
import fracwave.solver
from fracwave.cli import main
from fracwave.config import parse_config_text
from fracwave.elliptic import CoefficientField, Mesh, assemble, subdomain_indices
from fracwave.errors import ContourError, NumericsError
from fracwave.fraccalc import TimeGrid, mittag_leffler
from fracwave.observability import (
    ObservationMap,
    ObservationSetup,
    ProbeVector,
    branch_identity_probe,
    build_observation_map,
    injectivity_report,
    invert_source,
    synthesize_observations,
    write_recovery_csv,
    write_singular_values_csv,
)
from fracwave.solver import LaplaceContour, SourcePair, solve, solve_resolvent, solve_timestep
from fracwave.spectral import compute_riesz_data, eigendecompose

ALPHA = 1.5


@pytest.fixture
def riesz():
    """Riesz data of an operator: the method that selects the spectral route."""
    return lambda op: compute_riesz_data(op, eigendecompose(op))


def make_operator(n, advection=1.0):
    mesh = Mesh((0.0,), (1.0,), (n,))
    op = assemble(mesh, CoefficientField.from_callables(mesh, b1=advection))
    return mesh, op


def make_operator_2d(hi=(1.0, 0.7), cells=(4, 3)):
    # non-square 4x3 grid by default, with advection in both directions
    mesh = Mesh((0.0, 0.0), hi, cells)
    op = assemble(mesh, CoefficientField.from_callables(mesh, b1=1.0, b2=0.5))
    return mesh, op


def make_operator_2d_square():
    return make_operator_2d((1.0, 1.0), (4, 4))


def smooth_source(mesh):
    # a = prod sin(pi (x - lo) / (hi - lo)), b = prod (x - lo) (hi - x) over the axes
    a, b = np.ones(mesh.size), np.ones(mesh.size)
    for x, lo, hi in zip(mesh.interior_coordinates(), mesh.lo, mesh.hi):
        a *= np.sin(np.pi * (x - lo) / (hi - lo))
        b *= (x - lo) * (hi - x)
    return SourcePair(a, b)


class TestBuildObservationMap:
    def test_diagonal_closed_form(self, riesz):
        # diagonal operator, full observation, one time: the a-block is
        # diag(E_{a,1}(-lam t^a)) and the b-block diag(t E_{a,2}(-lam t^a))
        lams = np.array([1.0, 2.0, 3.0])
        t1 = 0.8
        op = np.diag(lams)
        setup = ObservationSetup(np.arange(3), np.array([t1]), riesz(op))
        M = build_observation_map(op, ALPHA, setup)
        e1 = np.array([mittag_leffler(ALPHA, 1.0, -lam * t1**ALPHA).real for lam in lams])
        e2 = np.array(
            [t1 * mittag_leffler(ALPHA, 2.0, -lam * t1**ALPHA).real for lam in lams]
        )
        np.testing.assert_allclose(M.matrix[:, :3], np.diag(e1), atol=1e-11)
        np.testing.assert_allclose(M.matrix[:, 3:], np.diag(e2), atol=1e-11)
        assert M.singular_values[-1] > 0

    def test_a_block_approaches_identity_at_small_times(self, riesz):
        mesh, op = make_operator(6)
        omega = np.arange(6)
        setup = ObservationSetup(omega, np.array([1e-7]), riesz(op))
        M = build_observation_map(op, ALPHA, setup)
        np.testing.assert_allclose(M.matrix[:, :6], np.eye(6), atol=1e-4)

    def test_rank_bounded_by_rows(self, riesz):
        _, op = make_operator(4)
        setup = ObservationSetup([2], np.array([0.5]), riesz(op))
        M = build_observation_map(op, ALPHA, setup)
        rep = injectivity_report(M)
        assert M.shape == (1, 8)
        assert rep.numerical_rank <= 1
        assert rep.sigma_min == 0.0  # second singular value of the column map
        assert not rep.injective

    @pytest.mark.parametrize(
        "mesh, op, box",
        [
            (*make_operator(6), (0.0, 0.5)),
            (*make_operator_2d(), ((0.0, 0.5), (0.0, 0.7))),
            (*make_operator_2d_square(), ((0.0, 0.5), (0.0, 1.0))),
        ],
        ids=["1d", "2d", "2d-square"],
    )
    def test_routes_agree_on_map(self, mesh, op, box, riesz):
        omega = subdomain_indices(mesh, box)
        times = np.array([0.25, 0.5, 0.75, 1.0])
        maps = {}
        for route, method in [
            ("spectral", riesz(op)),
            ("resolvent", LaplaceContour(48)),
            ("timestep", TimeGrid(1.0, 2048)),
        ]:
            setup = ObservationSetup(omega, times, method)
            maps[route] = build_observation_map(op, ALPHA, setup).matrix
        assert np.max(np.abs(maps["spectral"] - maps["resolvent"])) < 1e-8
        assert np.max(np.abs(maps["spectral"] - maps["timestep"])) < 1e-3

    @pytest.mark.parametrize("route", ["spectral", "resolvent", "timestep"])
    def test_linearity_against_direct_solve(self, route, riesz):
        mesh, op = make_operator(8)
        omega = subdomain_indices(mesh, (0.0, 0.5))
        times = np.array([0.2, 0.6, 1.0])
        method = {
            "spectral": riesz(op),
            "resolvent": LaplaceContour(48),
            "timestep": TimeGrid(1.0, 1000),
        }[route]
        M = build_observation_map(op, ALPHA, ObservationSetup(omega, times, method))
        x = mesh.axis_nodes(0)
        src = SourcePair(np.sin(np.pi * x), x * (1 - x))
        direct = solve(op, src, ALPHA, times, method).states[:, omega].reshape(-1)
        via_map = M.matrix @ np.concatenate([src.a, src.b])
        assert np.max(np.abs(direct - via_map)) < 1e-8

    def test_demo_map_calls_kernel_once_for_both_betas(self, monkeypatch, tmp_path):
        # the spectral map of configs/demo.ini: 64 times x 32 clusters, both betas
        calls = []
        kernel = fracwave.fraccalc.mittag_leffler_kernel

        def counted(alpha, beta, z):
            calls.append((tuple(beta), np.shape(z)))
            return kernel(alpha, beta, z)

        def scalar(*args):
            raise AssertionError("scalar mittag_leffler called")

        monkeypatch.setattr(fracwave.solver, "mittag_leffler_kernel", counted)
        monkeypatch.setattr(fracwave.fraccalc, "mittag_leffler", scalar)
        demo = Path(__file__).resolve().parent.parent / "configs" / "demo.ini"
        argv = ["observability", "--config", str(demo), "--out", str(tmp_path)]
        assert main(argv) == 0
        assert calls == [((1.0, 2.0), (64, 32))]

    def test_omega_out_of_range(self, riesz):
        _, op = make_operator(4)
        setup = ObservationSetup([7], np.array([0.5]), riesz(op))
        with pytest.raises(ValueError):
            build_observation_map(op, ALPHA, setup)

    def test_setup_validation(self):
        with pytest.raises(ValueError):
            ObservationSetup([], np.array([0.5]), LaplaceContour())
        with pytest.raises(ValueError):
            ObservationSetup([0], np.array([0.5, 0.5]), LaplaceContour())  # not increasing


def full_block_map(op, times, omega, method):
    """The map as the omega rows of the forward solve of all 2N unit sources."""
    n = op.matrix.shape[0]
    eye, zero = np.eye(n), np.zeros((n, n))
    units = SourcePair(np.hstack([eye, zero]), np.hstack([zero, eye]))
    states = solve(op, units, ALPHA, times, method).states
    return states[:, omega, :].reshape(len(times) * len(omega), 2 * n)


# a variable-coefficient operator whose ||A||_1 (346.2) exceeds ||A||_inf (324)
SPLIT_NORMS = "[problem]\ninterior = 8\nb1 = 40*(1 - x)*x\n"


class TestAdjointMap:
    """The map is built from A^T on the 2|omega| unit sources of omega."""

    @settings(max_examples=40, deadline=None)
    @given(
        two_d=st.booleans(),
        strength=st.floats(0.5, 20.0),
        route=st.sampled_from(["spectral", "resolvent", "timestep"]),
        data=st.data(),
    )
    def test_map_matches_forward_solve(self, two_d, strength, route, data):
        if two_d:
            cells = (data.draw(st.integers(2, 5)), data.draw(st.integers(2, 4)))
            mesh = Mesh((0.0, 0.0), (1.0, 0.7), cells)
            coeffs = CoefficientField.from_callables(
                mesh, b1=lambda x, y: strength * x * y, b2=lambda x, y: 0.5 - x
            )
        else:
            mesh = Mesh((0.0,), (1.0,), (data.draw(st.integers(2, 10)),))
            coeffs = CoefficientField.from_callables(
                mesh, a11=lambda x: 1.0 + x, b1=lambda x: strength * x * x
            )
        op = assemble(mesh, coeffs)
        n = mesh.size
        omega = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
        times = np.array([0.25, 0.5, 1.0])
        method = {
            "spectral": lambda: compute_riesz_data(op, eigendecompose(op)),
            "resolvent": lambda: LaplaceContour(48),
            "timestep": lambda: TimeGrid(1.0, 256),
        }[route]()
        M = build_observation_map(op, ALPHA, ObservationSetup(omega, times, method)).matrix
        assert M.shape == (len(times) * len(omega), 2 * n)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        src = SourcePair(rng.uniform(-1, 1, n), rng.uniform(-1, 1, n))
        direct = solve(op, src, ALPHA, times, method).states[:, omega].reshape(-1)
        assert np.max(np.abs(M @ np.concatenate([src.a, src.b]) - direct)) < 1e-8
        if route == "spectral":
            assert np.array_equal(M, full_block_map(op, times, omega, method))

    @pytest.mark.parametrize("k", [45, 46])
    def test_timestep_refusal_decided_from_a(self, tmp_path, capsys, k):
        # at T = 4, A's norm asks for K >= 46; A^T's own norm would ask for K >= 48
        A = parse_config_text(SPLIT_NORMS).build_operator().matrix
        quiet = SourcePair(np.zeros(8), np.zeros(8))
        advice = {}
        for name, mat in [("A", A), ("A^T", A.T)]:
            with pytest.raises(NumericsError, match=r"K >= \d+") as err:
                solve_timestep(mat, quiet, ALPHA, [4.0], TimeGrid(4.0, 4))
            advice[name] = re.search(r"K >= \d+", str(err.value)).group()
        assert advice == {"A": "K >= 46", "A^T": "K >= 48"}

        text = SPLIT_NORMS + (
            f"T = 4\nK = {k}\n\n[solver]\nroutes = timestep\ntimes = 4\n\n"
            f"[observation]\nroute = timestep\ntimes = uniform:1\ntimestep_K = {k}\n"
        )
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(text)
        outcome = {}
        for command in ("simulate", "observability"):
            argv = [command, "--config", str(cfg), "--out", str(tmp_path / command)]
            outcome[command] = (main(argv), capsys.readouterr().err)
        assert outcome["observability"] == outcome["simulate"]
        assert outcome["simulate"][0] == (2 if k < 46 else 0)
        if k < 46:
            assert "use K >= 46 for T = 4.0" in outcome["simulate"][1]

    def test_resolvent_contour_scaled_from_a(self, monkeypatch):
        A = parse_config_text(SPLIT_NORMS).build_operator().matrix
        times = np.array([0.2, 0.3, 0.35, 0.5])
        quiet = SourcePair(np.zeros(8), np.zeros(8))
        forward = solve_resolvent(A, quiet, ALPHA, times, LaplaceContour(48)).params
        own_norm = solve_resolvent(A.T, quiet, ALPHA, times, LaplaceContour(48)).params
        assert forward["r"] != own_norm["r"]  # the two norms scale the contour apart

        seen = []

        def recorded(*args):
            sol = solve(*args)
            seen.append(sol.params)
            return sol

        monkeypatch.setattr(fracwave.observability, "solve", recorded)
        setup = ObservationSetup([0, 3], times, LaplaceContour(48))
        build_observation_map(A, ALPHA, setup)
        assert [p["r"] for p in seen] == [forward["r"]]
        assert seen[0]["rho_bound"] == forward["rho_bound"]


def assert_full_rank(op, omega, method):
    setup = ObservationSetup(omega, np.geomspace(1e-2, 1.0, 16), method)
    rep = injectivity_report(build_observation_map(op, ALPHA, setup))
    assert rep.numerical_rank == 2 * op.matrix.shape[0] and rep.injective
    assert rep.sigma_min > 0 and rep.condition < 1e12


class TestInjectivity:
    def test_full_rank_small_problem(self, riesz):
        mesh, op = make_operator(6)
        assert_full_rank(op, np.arange(6), riesz(op))

    @pytest.mark.parametrize(
        "mesh, op, box",
        [
            (*make_operator_2d(), ((0.0, 0.5), (0.0, 0.7))),
            (*make_operator_2d_square(), ((0.0, 0.5), (0.0, 1.0))),
        ],
        ids=["2d", "2d-square"],
    )
    def test_full_rank_small_problem_2d(self, mesh, op, box, riesz):
        # the subdomain claim in 2D: observing half the box determines (a, b)
        assert_full_rank(op, subdomain_indices(mesh, box), riesz(op))

    def test_quarter_domain_rank_2n_through_n20(self, riesz):
        # double precision resolves full rank up to N ~ 20 and provably cannot
        # beyond: the singular values of the observation family decay
        # geometrically (analytic one-parameter kernel)
        for n in (8, 12):
            mesh, op = make_operator(n)
            omega = subdomain_indices(mesh, (0.0, 0.25))
            setup = ObservationSetup(
                omega, np.geomspace(1e-3, 1.0, max(32, 2 * n)), riesz(op)
            )
            rep = injectivity_report(build_observation_map(op, ALPHA, setup))
            assert rep.numerical_rank == 2 * n, f"N={n}"

    def test_rank_deficient_map_has_no_condition_number(self):
        # sigma_min is positive but below the rank threshold 2 eps sigma_1
        s = np.array([1.0, 1e-20])
        rep = injectivity_report(ObservationMap(np.diag(s), None, 1, singular_values=s))
        assert rep.numerical_rank == 1 and not rep.injective
        assert rep.sigma_min == 1e-20 and rep.condition == math.inf

    def test_injective_map_keeps_its_condition_number(self):
        s = np.array([2.0, 0.5])
        rep = injectivity_report(ObservationMap(np.diag(s), None, 1, singular_values=s))
        assert rep.injective and rep.condition == 4.0

    def test_duplicated_rows_leave_rank_unchanged(self, riesz):
        mesh, op = make_operator(6)
        setup = ObservationSetup(np.arange(6), np.geomspace(0.1, 1.0, 4), riesz(op))
        M = build_observation_map(op, ALPHA, setup)
        doubled = np.vstack([M.matrix, M.matrix])
        assert np.linalg.matrix_rank(doubled) == np.linalg.matrix_rank(M.matrix)

    def test_monotonicity_in_rows(self, riesz):
        # sigma_min never decreases when sample times or omega nodes are added
        # (configurations sized so every map has at least 2N rows)
        mesh, op = make_operator(6)
        omega_small = subdomain_indices(mesh, (0.0, 0.5))  # 3 nodes
        omega_big = np.arange(6)
        times_few = np.array([0.2, 0.4, 0.6, 0.8])
        times_many = np.array([0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8])
        method = riesz(op)

        def smin(omega, times):
            setup = ObservationSetup(omega, times, method)
            return injectivity_report(build_observation_map(op, ALPHA, setup)).sigma_min

        assert smin(omega_small, times_many) >= smin(omega_small, times_few) - 1e-12
        assert smin(omega_big, times_few) >= smin(omega_small, times_few) - 1e-12


class TestBranchProbe:
    def test_zero_data_identically_zero(self):
        psi = ProbeVector.canonical(1, [0])
        rows = branch_identity_probe(np.array([[1.0]]), [0.0], [0.0], psi, ALPHA, [-1.0, -2.0])
        assert all(r.residual == 0.0 for r in rows)

    def test_scalar_closed_form(self):
        psi = ProbeVector.canonical(1, [0])
        etas = np.array([-0.5, -2.0, -10.0])
        rows = branch_identity_probe(np.array([[1.0]]), [1.0], [0.0], psi, ALPHA, etas)
        for eta, row in zip(etas, rows):
            expected = abs((-eta) ** (1.0 / ALPHA) / (1.0 - eta))
            assert row.residual == pytest.approx(expected, rel=1e-12)
            assert row.residual > 0.1

    def test_generic_operator_bounded_away_from_zero(self):
        mesh, op = make_operator(16)
        omega = subdomain_indices(mesh, (0.0, 0.5))
        x = mesh.axis_nodes(0)
        v = np.zeros(16)
        v[omega] = np.random.default_rng(0).standard_normal(omega.size)
        psi = ProbeVector(v, omega)
        k = np.arange(20)  # Chebyshev points on [-60, -1], ascending
        etas = np.sort(-30.5 + 29.5 * np.cos((2 * k + 1) * np.pi / 40))
        rows = branch_identity_probe(op, np.sin(np.pi * x), x * (1 - x), psi, ALPHA, etas)
        res = np.array([r.residual for r in rows])
        assert res.min() > 1e-4

    def test_eta_near_spectrum_rejected(self):
        with pytest.raises(ContourError):
            branch_identity_probe(
                np.array([[1.0]]), [1.0], [0.0], ProbeVector.canonical(1, [0]), ALPHA, [1.0]
            )

    def test_probe_vector_validation(self):
        with pytest.raises(ValueError):
            ProbeVector(np.array([1.0, 1.0]), [0])  # support leaks outside omega
        with pytest.raises(ValueError):
            ProbeVector(np.zeros(2), [0])
        psi = ProbeVector(np.array([3.0, 0.0]), [0])
        assert np.linalg.norm(psi.values) == pytest.approx(1.0)


class TestInversion:
    @pytest.mark.parametrize(
        "mesh, op",
        [make_operator(32), make_operator_2d(), make_operator_2d_square()],
        ids=["1d", "2d", "2d-square"],
    )
    def test_noiseless_full_domain_recovery(self, mesh, op, riesz):
        src = smooth_source(mesh)
        setup = ObservationSetup(np.arange(mesh.size), np.geomspace(1e-3, 1.0, 8), riesz(op))
        M = build_observation_map(op, ALPHA, setup)
        data = synthesize_observations(M, src)
        result = invert_source(M, data, reg_scale=1e-14)
        truth = np.concatenate([src.a, src.b])
        got = np.concatenate([result.a_hat, result.b_hat])
        assert np.linalg.norm(got - truth) / np.linalg.norm(truth) < 1e-6

    def test_zero_data_gives_zero_minimizer(self, riesz):
        mesh, op = make_operator(6)
        setup = ObservationSetup(np.arange(6), np.array([0.5, 1.0]), riesz(op))
        M = build_observation_map(op, ALPHA, setup)
        result = invert_source(M, np.zeros(M.shape[0]))
        assert np.all(result.a_hat == 0.0) and np.all(result.b_hat == 0.0)

    def test_one_percent_noise_quarter_domain(self, riesz):
        # fixed-seed experiment; achieved value at build time: 0.125
        mesh, op = make_operator(32)
        x = mesh.axis_nodes(0)
        src = SourcePair(np.sin(np.pi * x), x * (1 - x))
        omega = subdomain_indices(mesh, (0.0, 0.25))
        setup = ObservationSetup(omega, np.geomspace(3e-3, 2.0, 16), riesz(op))
        M = build_observation_map(op, ALPHA, setup)
        data = synthesize_observations(M, src, noise=1e-2, seed=77)
        result = invert_source(M, data, reg_scale=3e-4)
        truth = np.concatenate([src.a, src.b])
        got = np.concatenate([result.a_hat, result.b_hat])
        assert np.linalg.norm(got - truth) / np.linalg.norm(truth) < 0.15

    def test_tsvd_route(self, riesz):
        mesh, op = make_operator(8)
        x = mesh.axis_nodes(0)
        src = SourcePair(np.sin(np.pi * x), np.zeros(8))
        setup = ObservationSetup(np.arange(8), np.geomspace(1e-2, 1.0, 8), riesz(op))
        M = build_observation_map(op, ALPHA, setup)
        data = synthesize_observations(M, src)
        result = invert_source(M, data, method="tsvd", tsvd_rank=16)
        truth = np.concatenate([src.a, src.b])
        got = np.concatenate([result.a_hat, result.b_hat])
        assert np.linalg.norm(got - truth) / np.linalg.norm(truth) < 1e-6
        assert result.params["method"] == "tsvd"

    def test_shape_mismatch(self, riesz):
        mesh, op = make_operator(6)
        setup = ObservationSetup(np.arange(6), np.array([0.5]), riesz(op))
        M = build_observation_map(op, ALPHA, setup)
        with pytest.raises(ValueError):
            invert_source(M, np.zeros(5))

    def test_zero_map_rejected(self, riesz):
        mesh, op = make_operator(6)
        setup = ObservationSetup(np.arange(6), np.array([0.5]), riesz(op))
        M = build_observation_map(op, ALPHA, setup)
        M.matrix = np.zeros_like(M.matrix)
        M.singular_values = np.zeros_like(M.singular_values)
        with pytest.raises(NumericsError):
            invert_source(M, np.zeros(M.shape[0]))

    def test_noise_without_seed_rejected(self, riesz):
        mesh, op = make_operator(6)
        src = SourcePair(np.ones(6), np.zeros(6))
        setup = ObservationSetup(np.arange(6), np.array([0.5]), riesz(op))
        M = build_observation_map(op, ALPHA, setup)
        with pytest.raises(ValueError):
            synthesize_observations(M, src, noise=0.01)

    def test_unknown_method(self, riesz):
        mesh, op = make_operator(6)
        setup = ObservationSetup(np.arange(6), np.array([0.5]), riesz(op))
        M = build_observation_map(op, ALPHA, setup)
        with pytest.raises(ValueError):
            invert_source(M, np.zeros(M.shape[0]), method="magic")


class TestExports:
    def test_json_outputs_are_indented_sorted_with_a_trailing_newline(self, tmp_path):
        path = tmp_path / "out.json"
        fracwave.observability._write_json(path, {"rank": 3, "alpha": 1.5, "route": None})
        assert path.read_text() == '{\n  "alpha": 1.5,\n  "rank": 3,\n  "route": null\n}\n'

    def test_singular_values_and_recovery_csv(self, tmp_path, riesz):
        mesh, op = make_operator(6)
        x = mesh.axis_nodes(0)
        src = SourcePair(np.sin(np.pi * x), np.zeros(6))
        setup = ObservationSetup(np.arange(6), np.array([0.5, 1.0]), riesz(op))
        M = build_observation_map(op, ALPHA, setup)
        sv = tmp_path / "sv.csv"
        mf = tmp_path / "map.json"
        write_singular_values_csv(M, sv, mf)
        lines = sv.read_text().splitlines()
        assert lines[0] == "index,sigma"
        assert len(lines) == 13
        import json

        manifest = json.loads(mf.read_text())
        assert manifest["rows"] == 12 and manifest["cols"] == 12

        data = synthesize_observations(M, src)
        result = invert_source(M, data)
        rec = tmp_path / "rec.csv"
        write_recovery_csv(src, result, rec)
        rows = rec.read_text().splitlines()
        assert rows[0] == "node,a_true,a_hat,b_true,b_hat"
        assert len(rows) == 7
