"""The program runs on numpy and the standard library: no scipy import.

A fresh interpreter imports the package, runs every command and route on
small configs, and then must hold no ``scipy`` module in ``sys.modules``.
The tests themselves may use scipy as a reference.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

CONFIG = """
[problem]
interior = 8
b1 = 1
a = sin(pi*x)
b = x*(1 - x)

[solver]
times = 0.25 0.5

[observation]
omega = 0 0.5
times = uniform:4
horizon = 0.5
timestep_K = 64
"""

SCRIPT = """
import sys
import fracwave
import fracwave.acceptance
from fracwave.cli import main

cfg, out = sys.argv[1], sys.argv[2]
runs = [
    ["simulate", "--route", "all"],
    ["spectrum"],
    ["observability", "--route", "spectral"],
    ["observability", "--route", "resolvent"],
    ["observability", "--route", "timestep"],
    ["invert"],
]
for i, argv in enumerate(runs):
    code = main([*argv, "--config", cfg, "--out", f"{out}/{i}"])
    assert code == 0, (argv, code)
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_program_never_imports_scipy(tmp_path):
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(CONFIG)
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    run = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(SCRIPT), str(cfg), str(tmp_path / "out")],
        capture_output=True, text=True, env=env, check=False,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"
