"""The benchmark harness's own self-check runs as part of the test suite.

Its traced pass reads some solver parameters by name (``grid``, ``contour``,
``times``, ``eigsys``, ``nodes``, ``z``), so renaming one of them fails here.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_selfcheck_passes():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "selfcheck.py")],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert "selfcheck: ok" in proc.stdout
