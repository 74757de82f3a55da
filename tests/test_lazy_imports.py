"""Importing the command line loads no thread pool.

The contour quadrature runs its clusters on plain ``threading`` threads,
which numpy loads anyway.  ``concurrent.futures`` would load ``logging``
too, at a cost in start-up time and memory, so a fresh interpreter's
``import fracwave.cli`` must leave it out of ``sys.modules``.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

SCRIPT = """
import sys
import fracwave.cli
print(sorted(m for m in sys.modules if m.split(".")[0] == "concurrent"))
"""


def test_cli_import_leaves_concurrent_futures_out():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    run = subprocess.run(
        [sys.executable, "-c", SCRIPT], capture_output=True, text=True, env=env, check=False
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"
