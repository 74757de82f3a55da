"""SHA-256 digests of everything the usual command-line runs produce.

    python tests/output_digest.py OUTDIR [--threads N]

Runs, each in a fresh interpreter with the program from this checkout's
``src/``:

* the four commands on ``configs/demo.ini`` and on ``bench/riesz2d.ini``;
* ``simulate --route all`` on ``configs/demo.ini``;
* ``observability`` and ``invert`` with ``--route resolvent`` and with
  ``--route timestep`` on ``configs/demo.ini`` with the observation overrides
  of the benchmark's ``routes-1d`` workload.

It prints one line ``<sha256>  <run>/<name>`` per output file, stdout,
stderr and exit code, and writes only into OUTDIR (configs, outputs), which
must not exist yet.  BLAS and OpenMP run on ``--threads`` threads (default 1;
0 leaves the environment's setting).  Running it on two checkouts and
diffing the printed lines shows whether their outputs are byte-identical.
"""

import argparse
import configparser
import hashlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COMMANDS = ("simulate", "spectrum", "observability", "invert")
# [observation] overrides of the routes-1d benchmark workload
ROUTES_1D = {"times": "uniform:8", "horizon": "0.5", "timestep_K": "512"}


def runs() -> list:
    """(run name, config file in OUTDIR, CLI arguments before --config)."""
    out = [(f"demo-{c}", "demo.ini", [c]) for c in COMMANDS]
    out += [(f"riesz2d-{c}", "riesz2d.ini", [c]) for c in COMMANDS]
    out.append(("demo-simulate-all", "demo.ini", ["simulate", "--route", "all"]))
    out += [
        (f"routes1d-{c}-{route}", "routes-1d.ini", [c, "--route", route])
        for route in ("resolvent", "timestep")
        for c in ("observability", "invert")
    ]
    return out


def write_configs(outdir: Path) -> None:
    (outdir / "demo.ini").write_bytes((ROOT / "configs" / "demo.ini").read_bytes())
    (outdir / "riesz2d.ini").write_bytes((ROOT / "bench" / "riesz2d.ini").read_bytes())
    parser = configparser.ConfigParser()
    parser.read(ROOT / "configs" / "demo.ini", encoding="utf-8")
    parser["observation"].update(ROUTES_1D)
    with open(outdir / "routes-1d.ini", "w", encoding="utf-8") as fh:
        parser.write(fh)


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("outdir", type=Path)
    ap.add_argument("--threads", type=int, default=1)
    args = ap.parse_args()
    outdir = args.outdir.resolve()
    outdir.mkdir(parents=True)
    write_configs(outdir)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    if args.threads > 0:
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = str(args.threads)
    for name, config, argv in runs():
        # relative paths, so no checkout or OUTDIR path can reach the outputs
        cmd = [sys.executable, "-m", "fracwave.cli", *argv, "--config", config, "--out", name]
        proc = subprocess.run(cmd, cwd=outdir, env=env, capture_output=True, timeout=600)
        lines = [
            (sha(proc.stdout), "stdout"),
            (sha(proc.stderr), "stderr"),
            (sha(str(proc.returncode).encode()), "exit"),
        ]
        if (outdir / name).is_dir():
            lines += [(sha(p.read_bytes()), p.name) for p in sorted((outdir / name).iterdir())]
        for digest, what in lines:
            print(f"{digest}  {name}/{what}", flush=True)


if __name__ == "__main__":
    main()
