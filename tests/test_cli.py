import csv
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fracwave.solver
import fracwave.spectral
from fracwave.cli import main
from fracwave.config import load_config
from fracwave.fraccalc import TimeGrid, mittag_leffler
from fracwave.solver import solve

NEAR_ZERO_OPERATOR = """
[problem]
interior = 8
a11 = 0.000000000001
alpha = 1.5
T = 2.0
K = 256
a = 1 + x
b = 1

[solver]
routes = timestep
times = 0.5 1.0 2.0
"""

SCALAR_MODE = """
[problem]
kind = jordan
jordan_size = 1
jordan_lambda = 1.0
alpha = 1.5
T = 1.0
K = 1024
a = 1
b = 0

[solver]
routes = timestep,resolvent
times = 0.25 0.5 1.0
"""

REFERENCE = """
[problem]
interior = 16
b1 = 1
alpha = 1.5
T = 1.0
K = 1024
a = sin(pi*x)
b = x*(1 - x)

[solver]
routes = all
times = 0.5 1.0

[observation]
omega = 0 1
times = geometric:40:1e-3

[inversion]
reg_scale = 1e-10
"""


ROOT = Path(__file__).resolve().parent.parent
CHECKED_IN = {"demo": ROOT / "configs" / "demo.ini", "riesz2d": ROOT / "bench" / "riesz2d.ini"}


def write(tmp_path, text, name="cfg.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def read_slice(path):
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return np.array([float(r["value"]) for r in rows])


class TestSimulate:
    def test_near_zero_operator_is_drift(self, tmp_path):
        cfg = write(tmp_path, NEAR_ZERO_OPERATOR)
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        x = np.linspace(0, 1, 10)[1:-1]
        got = read_slice(out / "u_timestep_t2.csv")
        np.testing.assert_allclose(got, (1 + x) + 1.0 * 2.0, atol=1e-8)
        diffs = (out / "route_differences.csv").read_text().splitlines()
        assert diffs[0] == "time,route_a,route_b,relative_l2_difference"

    def test_scalar_mode_matches_mittag_leffler(self, tmp_path):
        cfg = write(tmp_path, SCALAR_MODE)
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        for t in (0.25, 0.5, 1.0):
            ref = mittag_leffler(1.5, 1.0, -(t**1.5)).real
            got = read_slice(out / f"u_resolvent_t{t:g}.csv")
            assert abs(got[0] - ref) < 1e-9
            got_ts = read_slice(out / f"u_timestep_t{t:g}.csv")
            assert abs(got_ts[0] - ref) < 1e-5

    def test_three_routes_cross_agree(self, tmp_path):
        cfg = write(tmp_path, REFERENCE)
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        with open(out / "route_differences.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 6  # 3 pairs x 2 times
        for r in rows:
            assert float(r["relative_l2_difference"]) < 1e-3

    def test_manifest_echoes_defaults(self, tmp_path):
        cfg = write(tmp_path, NEAR_ZERO_OPERATOR)
        out = tmp_path / "out"
        main(["simulate", "--config", cfg, "--out", str(out)])
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "simulate"
        assert manifest["config"]["inversion"]["method"] == "tikhonov"
        assert manifest["config"]["problem"]["K"] == 256
        assert "timestep" in manifest["solver_metadata"]

    def test_malformed_alpha_exits_1(self, tmp_path):
        cfg = write(tmp_path, "[problem]\nalpha = 2.5\n")
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 1

    def test_missing_config_exits_1(self, tmp_path):
        assert main(["simulate", "--config", str(tmp_path / "nope.ini"),
                     "--out", str(tmp_path / "o")]) == 1


class TestSpectrum:
    def test_jordan_fixture_multiplicity(self, tmp_path):
        cfg = write(
            tmp_path, "[problem]\nkind = jordan\njordan_size = 2\njordan_lambda = 5\n"
        )
        out = tmp_path / "out"
        assert main(["spectrum", "--config", cfg, "--out", str(out)]) == 0
        with open(out / "spectrum.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1
        assert int(rows[0]["multiplicity"]) == 2
        assert float(rows[0]["re_lambda"]) == pytest.approx(5.0)

    def test_laplacian_closed_form(self, tmp_path):
        cfg = write(tmp_path, "[problem]\ninterior = 8\n")
        out = tmp_path / "out"
        assert main(["spectrum", "--config", cfg, "--out", str(out)]) == 0
        with open(out / "spectrum.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        got = np.sort([float(r["re_lambda"]) for r in rows])
        h = 1.0 / 9.0
        k = np.arange(1, 9)
        np.testing.assert_allclose(got, (2 / h**2) * (1 - np.cos(k * np.pi * h)), rtol=1e-9)

    def test_contour_runs_once_per_cluster_and_agrees(self, tmp_path, monkeypatch):
        calls = []
        original = fracwave.spectral._contour_sums

        def counted(*args, **kwargs):
            calls.extend(args[1])
            return original(*args, **kwargs)

        monkeypatch.setattr(fracwave.spectral, "_contour_sums", counted)
        out = tmp_path / "out"
        assert main(["spectrum", "--config", str(CHECKED_IN["demo"]), "--out", str(out)]) == 0
        with open(out / "spectrum.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(calls) == len(rows) == 32
        assert max(float(r["contour_difference"]) for r in rows) <= 1e-12

    def test_empty_mesh_config_error(self, tmp_path):
        cfg = write(tmp_path, "[problem]\ninterior = 0\n")
        assert main(["spectrum", "--config", cfg, "--out", str(tmp_path / "o")]) == 1

    def test_failed_identities_exit_2_after_writing_the_report(self, tmp_path, capsys):
        # strong advection: eigenvalue condition numbers far beyond what the
        # contour quadrature resolves in double precision
        text = CHECKED_IN["demo"].read_text().replace("b1 = 1\n", "b1 = 60\n")
        cfg = write(tmp_path, text)
        out = tmp_path / "out"
        assert main(["spectrum", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "numerical failure" in err and "time-stepping route" in err
        with open(out / "spectrum.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 32
        assert max(float(r["res_idempotent"]) for r in rows) > 1e-8

    def test_non_square_2d_advection_grid(self, tmp_path):
        cfg = write(
            tmp_path,
            "[problem]\ndimension = 2\ndomain = 0 1 0 0.7\ninterior = 4 3\n"
            "a11 = 1\na22 = 1\nb1 = 1\nb2 = 0.5\n",
        )
        out = tmp_path / "out"
        assert main(["spectrum", "--config", cfg, "--out", str(out)]) == 0
        with open(out / "spectrum.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert sum(int(r["multiplicity"]) for r in rows) == 12
        assert max(float(r["contour_difference"]) for r in rows) <= 1e-12
        residuals = ("res_idempotent", "res_nilpotent_form", "res_commute", "res_nilpotency")
        assert max(float(r[k]) for r in rows for k in residuals) <= 1e-8


class TestObservability:
    def test_full_domain_verdict(self, tmp_path):
        cfg = write(
            tmp_path,
            "[problem]\ninterior = 6\nb1 = 1\n\n"
            "[observation]\nomega = 0 1\ntimes = geometric:16:1e-2\n",
        )
        out = tmp_path / "out"
        assert main(["observability", "--config", cfg, "--out", str(out)]) == 0
        verdict = json.loads((out / "verdict.json").read_text())
        assert verdict["numerical_rank"] == 12
        assert verdict["verdict"] == "injective"
        sv = (out / "singular_values.csv").read_text().splitlines()
        assert len(sv) == 13

    def test_omega_outside_domain(self, tmp_path):
        cfg = write(
            tmp_path, "[problem]\ninterior = 6\n\n[observation]\nomega = 3 4\n"
        )
        assert main(["observability", "--config", cfg, "--out", str(tmp_path / "o")]) == 1

    def test_timestep_route_needs_grid_times(self, tmp_path, capsys):
        text = "[problem]\ninterior = 6\nb1 = 1\n\n[observation]\nomega = 0 1\n"
        off_grid = write(tmp_path, text + "times = geometric:16:1e-2\n")
        argv = ["observability", "--route", "timestep", "--config"]
        assert main([*argv, off_grid, "--out", str(tmp_path / "o")]) == 1
        assert "uniform:M" in capsys.readouterr().err
        on_grid = write(tmp_path, text + "times = uniform:8\ntimestep_K = 512\n", "grid.ini")
        assert main([*argv, on_grid, "--out", str(tmp_path / "g")]) == 0


class TestInvert:
    CFG = (
        "[problem]\ninterior = 8\nb1 = 1\na = sin(pi*x)\nb = x*(1 - x)\n\n"
        "[observation]\nomega = 0 1\ntimes = geometric:20:1e-2\n\n"
        "[inversion]\nreg_scale = 1e-12\n"
    )

    def test_noiseless_recovery(self, tmp_path):
        cfg = write(tmp_path, self.CFG)
        out = tmp_path / "out"
        assert main(["invert", "--config", cfg, "--out", str(out)]) == 0
        summary = json.loads((out / "recovery_summary.json").read_text())
        assert summary["relative_error"] < 1e-6
        with open(out / "recovery.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 8
        worst = max(abs(float(r["a_true"]) - float(r["a_hat"])) for r in rows)
        assert worst < 1e-6

    def test_zero_data_zero_recovery(self, tmp_path):
        cfg = write(tmp_path, self.CFG.replace("a = sin(pi*x)", "a = 0").replace(
            "b = x*(1 - x)", "b = 0"))
        out = tmp_path / "out"
        assert main(["invert", "--config", cfg, "--out", str(out)]) == 0
        with open(out / "recovery.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert all(float(r["a_hat"]) == 0.0 and float(r["b_hat"]) == 0.0 for r in rows)

    def test_noise_without_seed_exits_1(self, tmp_path, capsys):
        cfg = write(tmp_path, self.CFG + "noise = 0.01\n")
        assert main(["invert", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert "config error: [inversion] seed" in capsys.readouterr().err

    def test_seed_flag_and_determinism(self, tmp_path):
        cfg = write(tmp_path, self.CFG + "noise = 0.001\n")
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["invert", "--config", cfg, "--out", str(out1), "--seed", "7"]) == 0
        assert main(["invert", "--config", cfg, "--out", str(out2), "--seed", "7"]) == 0
        assert (out1 / "recovery.csv").read_bytes() == (out2 / "recovery.csv").read_bytes()
        assert (out1 / "manifest.json").read_bytes() == (out2 / "manifest.json").read_bytes()



class TestConfigErrors:
    BASE = "[problem]\ninterior = 8\nb1 = 1\n"

    @pytest.mark.parametrize(
        "command,extra,field",
        [
            ("simulate", "\n[solver]\nroutes = timestep\ntimes = 0.3\n", "[solver] times"),
            ("simulate", "\n[solver]\nroutes = timestep\ntimes = 2.0\n", "[solver] times"),
            ("simulate", "\n[solver]\nroutes = resolvent\ntimes = 0 0.5\n", "[solver] times"),
            ("simulate", "\n[solver]\nroutes = spectral\ntimes = -0.25 0.5\n", "[solver] times"),
            (
                "observability",
                "\n[observation]\nomega = 0 1\ntimes = 0.5 0.2\n",
                "[observation]",
            ),
            (
                "simulate",
                "\n[solver]\nroutes = resolvent\ntalbot_nodes = 3\n",
                "[solver] talbot_nodes",
            ),
            ("simulate", "K = 1\n", "[problem] T, K"),
            ("spectrum", "\n[spectral]\ncontour_nodes = 0\n", "[spectral] contour_nodes"),
            (
                "simulate",
                "\n[spectral]\ncontour_nodes = 0\n\n[solver]\nroutes = spectral\n",
                "[spectral] contour_nodes",
            ),
            ("observability", "\n[spectral]\ncontour_nodes = 0\n", "[spectral] contour_nodes"),
            ("spectrum", "\n[spectral]\ncluster_tol = inf\n", "[spectral] cluster_tol"),
            ("simulate", "\n[spectral]\ncluster_tol = -1\n", "[spectral] cluster_tol"),
            ("observability", "\n[spectral]\ncluster_tol = nan\n", "[spectral] cluster_tol"),
            ("invert", "\n[inversion]\nnoise = -0.001\n", "[inversion] noise"),
            ("invert", "\n[inversion]\nreg_scale = -1\n", "[inversion] reg_scale"),
            (
                "invert",
                "\n[inversion]\nmethod = tsvd\ntsvd_rank = 0\n",
                "[inversion] tsvd_rank",
            ),
            ("observability", "\n[observation]\ntimes = uniform:0\n", "[observation] times"),
            ("spectrum", "kind = jordan\njordan_size = 0\n", "[problem] jordan_size"),
            ("simulate", "kind = jordan\njordan_size = -1\n", "[problem] jordan_size"),
            ("observability", "\n[observation]\nhorizon = -1\n", "[observation] horizon"),
            ("observability", "\n[observation]\nhorizon = nan\n", "[observation] horizon"),
            ("observability", "\n[observation]\nhorizon = inf\n", "[observation] horizon"),
            (
                "observability",
                "\n[observation]\ntimes = 0.1 nan 0.5\n",
                "[observation]: sample times must be finite",
            ),
            (
                "observability",
                "T = inf\n\n[observation]\nroute = resolvent\n",
                "[problem] T",
            ),
            ("simulate", "T = inf\n\n[solver]\nroutes = resolvent\n", "[problem] T"),
            ("simulate", "\n[solver]\nroutes = resolvent\ntimes = 0.1 nan\n", "[solver] times"),
            ("simulate", "\n[solver]\nroutes = spectral\ntimes = 0.1 inf\n", "[solver] times"),
            ("invert", "\n[inversion]\nnoise = inf\nseed = 1\n", "[inversion] noise"),
            ("invert", "\n[inversion]\nreg_scale = inf\n", "[inversion] reg_scale"),
            ("spectrum", "kind = jordan\njordan_lambda = nan\n", "[problem] jordan_lambda"),
            ("spectrum", "domain = 0 inf\n", "[problem] domain"),
            ("observability", "dimension = 2\n", "[observation] omega"),
            ("invert", "dimension = 2\n", "[observation] omega"),
            ("observability", "\n[observation]\nomega = 0.1\n", "[observation] omega"),
            ("observability", "\n[observation]\nomega = 0 0.25 0.9\n", "[observation] omega"),
            ("simulate", "alhpa = 1.9\n", "[problem] unknown options: alhpa"),
            ("simulate", "a = 1 + 100%x\n", "[problem] a: unsupported syntax"),
            ("observability", "\n[observation]\ntimes = 50%\n", "[observation] times"),
        ],
        ids=[
            "off-grid-time",
            "time-past-T",
            "resolvent-time-zero",
            "spectral-negative-time",
            "decreasing-observation-times",
            "odd-talbot-nodes",
            "one-time-step",
            "no-contour-nodes",
            "no-contour-nodes-simulate",
            "no-contour-nodes-observability",
            "infinite-cluster-tol",
            "negative-cluster-tol",
            "nan-cluster-tol",
            "negative-noise",
            "negative-reg-scale",
            "zero-tsvd-rank",
            "zero-uniform-times",
            "zero-jordan-size",
            "negative-jordan-size",
            "negative-horizon",
            "nan-horizon",
            "infinite-horizon",
            "nan-observation-time",
            "infinite-T-observability",
            "infinite-T-simulate",
            "nan-solver-time",
            "infinite-solver-time",
            "infinite-noise",
            "infinite-reg-scale",
            "nan-jordan-lambda",
            "infinite-domain",
            "2d-without-omega-observability",
            "2d-without-omega-invert",
            "one-number-omega",
            "three-number-omega",
            "misspelt-option",
            "percent-in-expression",
            "percent-in-times",
        ],
    )
    def test_exits_1_with_config_error(self, tmp_path, capsys, recwarn, command, extra, field):
        cfg = write(tmp_path, self.BASE + extra)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert f"config error: {field}" in capsys.readouterr().err
        # a bad value is refused before numpy computes with it
        assert [str(w.message) for w in recwarn if w.category is RuntimeWarning] == []

    def test_grid_check_runs_before_stepping(self, tmp_path, capsys, monkeypatch):
        def no_stepping(*args, **kwargs):
            raise AssertionError("time stepping ran before the grid check")

        monkeypatch.setattr(fracwave.solver, "rl_weights", no_stepping)
        cfg = write(tmp_path, self.BASE + "\n[solver]\nroutes = timestep\ntimes = 2.0\n")
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert "config error: [solver] times" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "times, route",
        [("0.5 0.5", "all"), ("0.1234561 0.1234562", "resolvent")],
        ids=["repeated", "equal-to-6-digits"],
    )
    def test_times_sharing_a_slice_file(self, tmp_path, capsys, monkeypatch, times, route):
        def no_solve(*args, **kwargs):
            raise AssertionError("a route ran before the slice names were checked")

        monkeypatch.setattr(fracwave.cli, "solve", no_solve)
        cfg = write(tmp_path, self.BASE + f"\n[solver]\ntimes = {times}\n")
        out = tmp_path / "o"
        assert main(["simulate", "--config", cfg, "--out", str(out), "--route", route]) == 1
        first, second = times.split()
        assert (
            f"config error: [solver] times: {first} and {second} share the slice file name"
            in capsys.readouterr().err
        )
        assert not list(out.glob("u_*.csv"))

    def test_2d_without_omega_simulates(self, tmp_path):
        # omega has no 2D default, but only the observation map needs it
        cfg = write(tmp_path, self.BASE + "dimension = 2\n\n[solver]\nroutes = timestep\n")
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 0

    def test_values_unused_by_the_routes_stay_accepted(self, tmp_path):
        text = self.BASE + "K = 1\n\n[solver]\nroutes = spectral\ntalbot_nodes = 3\n"
        cfg = write(tmp_path, text)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 0


@pytest.mark.parametrize("command", ["simulate", "observability", "invert"])
@pytest.mark.parametrize("config", sorted(CHECKED_IN))
def test_checked_in_configs_need_no_contour(tmp_path, monkeypatch, command, config):
    # every cluster of these operators is simple and well conditioned
    original = fracwave.spectral._contour_sums

    def no_contour(A, centers, *args, **kwargs):
        if len(centers):
            raise AssertionError("contour quadrature ran")
        return original(A, centers, *args, **kwargs)

    monkeypatch.setattr(fracwave.spectral, "_contour_sums", no_contour)
    argv = [command, "--config", str(CHECKED_IN[config]), "--out", str(tmp_path / "o")]
    assert main(argv) == 0


class TestNumericalFailures:
    def test_march_overflow_exits_2(self, tmp_path, capsys):
        # a finite source whose A a overflows: a numerical failure, not a config error
        text = TestConfigErrors.BASE + "a = 1e308*sin(pi*x)\n\n[solver]\ntimes = 0.5\n"
        cfg = write(tmp_path, text)
        argv = ["simulate", "--config", cfg, "--out", str(tmp_path / "o"), "--route", "timestep"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "numerical failure: time stepping produced non-finite state at step 1" in err

    @pytest.mark.parametrize("command", ["simulate", "observability"])
    @pytest.mark.parametrize("b1, code", [("30", 0), ("60", 2)])
    def test_spectral_route_refuses_ill_conditioned_eigenvalues(
        self, tmp_path, capsys, command, b1, code
    ):
        # strong advection makes the simple eigenvalues ill conditioned: the
        # largest condition number is 2.8e5 at b1 = 30 and 1.9e19 at b1 = 60,
        # where the mode sum once called a simple eigenvalue defective
        text = CHECKED_IN["demo"].read_text().replace("b1 = 1\n", f"b1 = {b1}\n")
        cfg = write(tmp_path, text)
        argv = [command, "--config", cfg, "--route", "spectral"]
        assert main([*argv, "--out", str(tmp_path / "o")]) == code
        err = capsys.readouterr().err
        if code:
            assert "has condition number" in err and "above 1e+06" in err
            assert "use the time-stepping route (--route timestep)" in err
            assert "defective" not in err
            argv = ["simulate", "--config", cfg, "--route", "timestep"]
            assert main([*argv, "--out", str(tmp_path / "t")]) == 0


    @pytest.mark.parametrize("b1, code", [("22", 0), ("30", 0), ("32", 0), ("33", 2)])
    def test_spectrum_and_spectral_route_exit_alike(self, tmp_path, capsys, b1, code):
        # both apply one reliability rule to the same Riesz data; spectrum once
        # exited 2 on b1 = 22-32 by absolute residuals that grow with |lambda|
        text = CHECKED_IN["demo"].read_text().replace("b1 = 1\n", f"b1 = {b1}\n")
        cfg = write(tmp_path, text)
        for argv in (["spectrum"], ["simulate", "--route", "spectral"]):
            assert main([*argv, "--config", cfg, "--out", str(tmp_path / argv[0])]) == code
        if code:
            err = capsys.readouterr().err
            assert err.count("has condition number") == 2 and "above 1e+06" in err
            assert err.count("use the time-stepping route (--route timestep)") == 2


@settings(max_examples=25, deadline=None)
@given(b1=st.floats(0.0, 100.0), interior=st.integers(8, 12))
def test_spectral_route_agrees_with_a_fine_march_or_both_commands_refuse(
    tmp_path_factory, b1, interior
):
    # The mode sum's distance to a K = 4096 march is the march's own O(dt^2)
    # error, 1/3 of the K = 2048 vs 4096 difference: measured 0.332-0.335
    # over 80 random (N, b1), with differences from 3e-7 to 5e-3
    tmp = tmp_path_factory.mktemp("sweep")
    text = CHECKED_IN["demo"].read_text().replace("b1 = 1\n", f"b1 = {b1!r}\n")
    cfg = write(tmp, text.replace("interior = 32\n", f"interior = {interior}\n"))
    codes = [
        main([*argv, "--config", cfg, "--out", str(tmp / argv[0])])
        for argv in (["spectrum"], ["simulate", "--route", "spectral"])
    ]
    assert codes[0] == codes[1]
    if codes[0]:
        return
    config = load_config(cfg)
    op, source, times = config.build_operator(), config.build_source(), config.solver_times()
    mode_sum = np.array([read_slice(tmp / "simulate" / f"u_spectral_t{t:.6g}.csv") for t in times])
    fine, coarse = (
        solve(op, source, config.problem.alpha, times, TimeGrid(config.problem.T, K)).states
        for K in (4096, 2048)
    )
    for u, f, c in zip(mode_sum, fine, coarse):
        assert np.linalg.norm(u - f) <= 0.4 * np.linalg.norm(c - f)


class TestSelftestAndUsage:
    def test_no_arguments_prints_usage(self, capsys):
        assert main([]) == 0
        assert "simulate" in capsys.readouterr().out

    def test_selftest_subset_passes(self, capsys):
        assert main(["selftest", "--only", "2,8"]) == 0
        out = capsys.readouterr().out
        assert out.count("[PASS]") == 2

    def test_selftest_documented_defect_fails(self, capsys):
        assert main(["selftest", "--only", "6"]) == 3
        out = capsys.readouterr().out
        assert "[FAIL]" in out and "documented defect" in out

    def test_bad_only_exits_1(self):
        assert main(["selftest", "--only", "abc"]) == 1

    def test_route_override(self, tmp_path):
        cfg = write(tmp_path, SCALAR_MODE)
        out = tmp_path / "out"
        assert main(
            ["simulate", "--config", cfg, "--out", str(out), "--route", "resolvent"]
        ) == 0
        assert (out / "u_resolvent_t1.csv").exists()
        assert not (out / "u_timestep_t1.csv").exists()
