import re
from pathlib import Path

import numpy as np
import pytest

from fracwave.config import load_config, parse_config_text
from fracwave.errors import ConfigError
from fracwave.expressions import ExpressionError, compile_expression


class TestExpressions:
    def test_polynomial(self):
        fn = compile_expression("x*(1 - x)")
        np.testing.assert_allclose(fn(np.array([0.0, 0.5, 1.0])), [0.0, 0.25, 0.0])

    def test_trig_and_pi(self):
        fn = compile_expression("sin(pi*x) + cos(0*x)")
        np.testing.assert_allclose(fn(np.array([0.5])), [2.0])

    def test_two_variables(self):
        fn = compile_expression("x**2 + 3*y", variables=("x", "y"))
        np.testing.assert_allclose(fn(np.array([2.0]), np.array([1.0])), [7.0])

    def test_constant_broadcasts(self):
        fn = compile_expression("2.5")
        np.testing.assert_allclose(fn(np.zeros(4)), 2.5)

    def test_unary_minus_and_division(self):
        fn = compile_expression("-x/2")
        np.testing.assert_allclose(fn(np.array([3.0])), [-1.5])

    @pytest.mark.parametrize(
        "bad",
        [
            "__import__('os')",
            "exp(x)",
            "x @ x",
            "lambda: 1",
            "sin(x, 2)",
            "unknown_name",
            "'str'",
        ],
    )
    def test_grammar_violations(self, bad):
        with pytest.raises(ExpressionError):
            compile_expression(bad)


GOOD = """
[problem]
dimension = 1
domain = 0 1
interior = 32
b1 = 1
alpha = 1.5
T = 1.0
K = 1024
a = sin(pi*x)
b = x*(1 - x)

[solver]
routes = timestep,spectral
times = 0.25 0.5 1.0

[observation]
omega = 0 0.25
times = geometric:64:1e-3

[inversion]
noise = 0.001
seed = 42
"""


class TestConfigParsing:
    def test_good_config(self):
        cfg = parse_config_text(GOOD)
        assert cfg.problem.alpha == 1.5
        assert cfg.solver.routes == ("timestep", "spectral")
        np.testing.assert_allclose(cfg.solver_times(), [0.25, 0.5, 1.0])
        times = cfg.observation_times()
        assert times.size == 64 and times[0] == pytest.approx(1e-3)
        mesh = cfg.build_mesh()
        assert mesh.size == 32
        src = cfg.build_source(mesh)
        assert src.a[0] == pytest.approx(np.sin(np.pi / 33))
        omega = cfg.observation_omega(mesh)
        assert omega.size == 8

    def test_defaults_resolved(self):
        cfg = parse_config_text("[problem]\nalpha = 1.4\n")
        d = cfg.resolved()
        assert d["problem"]["alpha"] == 1.4
        assert d["inversion"]["method"] == "tikhonov"
        assert d["spectral"]["contour_nodes"] == 64

    def test_alpha_out_of_range(self):
        with pytest.raises(ConfigError, match="alpha"):
            parse_config_text("[problem]\nalpha = 2.5\n")

    def test_unknown_route(self):
        with pytest.raises(ConfigError, match="route"):
            parse_config_text("[solver]\nroutes = warp\n")

    def test_routes_all(self):
        cfg = parse_config_text("[solver]\nroutes = all\n")
        assert cfg.solver.routes == ("timestep", "resolvent", "spectral")

    def test_noise_without_seed_parses_but_defers(self):
        # the seed may still arrive via the command-line flag; synthesis
        # enforces the reproducibility rule
        cfg = parse_config_text("[inversion]\nnoise = 0.01\n")
        assert cfg.inversion.noise == 0.01 and cfg.inversion.seed is None

    def test_unknown_section(self):
        with pytest.raises(ConfigError, match="section"):
            parse_config_text("[warp]\nspeed = 9\n")

    def test_uniform_times(self):
        cfg = parse_config_text("[observation]\ntimes = uniform:4\n")
        np.testing.assert_allclose(cfg.observation_times(), [0.25, 0.5, 0.75, 1.0])

    def test_bad_times_spec(self):
        cfg = parse_config_text("[observation]\ntimes = weekly\n")
        with pytest.raises(ConfigError):
            cfg.observation_times()

    def test_2d_domain(self):
        cfg = parse_config_text(
            "[problem]\ndimension = 2\ndomain = 0 1 0 2\ninterior = 4 6\n"
        )
        mesh = cfg.build_mesh()
        assert mesh.size == 24
        assert mesh.spacing == (0.2, 2.0 / 7.0)

    def test_bad_expression_reported_at_build(self):
        cfg = parse_config_text("[problem]\na11 = exp(x)\n")
        with pytest.raises(ConfigError, match="a11|expression"):
            cfg.build_operator()

    def test_degenerate_mesh_reported(self):
        cfg = parse_config_text("[problem]\ninterior = 1\n")
        with pytest.raises(ConfigError, match="mesh"):
            cfg.build_mesh()

    def test_jordan_fixture(self):
        cfg = parse_config_text(
            "[problem]\nkind = jordan\njordan_size = 2\njordan_lambda = 5\n"
        )
        A = cfg.build_operator()
        np.testing.assert_array_equal(A, [[5.0, 1.0], [0.0, 5.0]])
        src = cfg.build_source()
        assert src.size == 2

    def test_unknown_option(self):
        with pytest.raises(ConfigError, match=r"\[problem\] unknown options: alhpa"):
            parse_config_text("[problem]\nalhpa = 1.9\n")

    def test_mixed_case_options(self):
        # configparser lowercases option names; the fields keep their case
        cfg = parse_config_text("[problem]\nT = 2.0\nK = 512\n\n[observation]\ntimestep_K = 256\n")
        assert (cfg.problem.T, cfg.problem.K, cfg.observation.timestep_K) == (2.0, 512, 256)

    def test_one_interior_count_serves_every_axis(self):
        cfg = parse_config_text("[problem]\ndimension = 2\ninterior = 5\n")
        assert cfg.problem.interior == (5, 5)
        assert cfg.problem.domain == (0.0, 1.0, 0.0, 1.0)
        assert cfg.build_mesh().size == 25


ROOT = Path(__file__).resolve().parent.parent


def as_text(resolved: dict) -> str:
    """Config text giving every field of a resolved config: tuples space-separated."""
    lines = []
    for section, values in resolved.items():
        lines.append(f"[{section}]")
        for name, value in values.items():
            if value is None:
                value = "auto"
            elif isinstance(value, tuple):
                value = " ".join(str(v) for v in value)
            lines.append(f"{name} = {value}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("path", ["configs/demo.ini", "bench/riesz2d.ini"])
def test_every_field_round_trips(path):
    resolved = load_config(ROOT / path).resolved()
    assert parse_config_text(as_text(resolved)).resolved() == resolved


def test_readme_config_example_parses():
    # the "Configuration format" block of README.md, parsed as written
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"```ini\n(.*?)```", readme, re.S)
    cfg = parse_config_text(block)
    assert cfg.problem.interior == (32,) and cfg.problem.K == 1024
    assert cfg.spectral.cluster_tol is None and cfg.spectral.contour_nodes == 64
    assert cfg.observation.omega == (0.0, 0.25)
    assert cfg.observation.times == "geometric:64:1e-3"
    assert cfg.inversion.seed == 20240817
    cfg.build_operator()
    cfg.build_source()
