"""SHA-256 digests of everything the usual command-line runs produce.

    python tests/output_digest.py OUTDIR [--threads N]
    python tests/output_digest.py --compare PARENT_OUTDIR CHANGE_OUTDIR

Runs, each in a fresh interpreter with the program from this checkout's
``src/``:

* the four commands on ``configs/demo.ini`` and on ``bench/riesz2d.ini``;
* ``spectrum`` and ``observability`` on ``bench/riesz2d.ini`` with
  ``interior = 10 9`` (N = 90), above the benchmark's sizes;
* ``simulate --route all`` on ``configs/demo.ini``;
* ``simulate --route spectral`` on ``configs/demo.ini`` with ``alpha``
  1.05 and 1.95, so the Mittag-Leffler kernel's regimes near alpha = 1
  and 2 reach the outputs, not only alpha = 1.5;
* ``simulate --route spectral``, ``spectrum``, ``observability`` and
  ``invert`` on ``configs/demo.ini`` with ``b1 = 30``, where every cluster
  is ill-conditioned and so built by contour quadrature: the mode sum and
  the transposed map then run through the contour clusters;
* ``observability`` and ``invert`` with ``--route resolvent`` and with
  ``--route timestep`` on ``configs/demo.ini`` with the observation overrides
  of the benchmark's ``routes-1d`` workload.

It prints one line ``<sha256>  <run>/<name>`` per output file, stdout,
stderr and exit code, and writes only into OUTDIR (configs, outputs), which
must not exist yet.  BLAS and OpenMP run on ``--threads`` threads (default 1;
0 leaves the environment's setting).  Running it on two checkouts and
diffing the printed lines shows whether their outputs are byte-identical.

``--compare`` reads two such OUTDIRs, made from two checkouts, and prints
for every output file whose bytes differ one line per CSV column or JSON
key (lists count one value per element): how many values changed, and for
numeric values the largest absolute and relative difference.  Files and
columns present on one side only are named.  Stdout, stderr and exit codes
are not kept as files; compare them by the digest lines.
"""

import argparse
import configparser
import csv
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COMMANDS = ("simulate", "spectrum", "observability", "invert")
# [observation] overrides of the routes-1d benchmark workload
ROUTES_1D = {"times": "uniform:8", "horizon": "0.5", "timestep_K": "512"}
# [problem] override of the riesz-2d workload for a 10 x 9 mesh
RIESZ2D_90 = {"interior": "10 9"}
# [problem] override of configs/demo.ini that puts every cluster on the contour
DEMO_B1_30 = {"b1": "30"}
# [problem] overrides of configs/demo.ini near the ends of the order range
DEMO_ALPHAS = {"105": {"alpha": "1.05"}, "195": {"alpha": "1.95"}}


def runs() -> list:
    """(run name, config file in OUTDIR, CLI arguments before --config)."""
    out = [(f"demo-{c}", "demo.ini", [c]) for c in COMMANDS]
    out += [(f"riesz2d-{c}", "riesz2d.ini", [c]) for c in COMMANDS]
    out += [(f"riesz2d90-{c}", "riesz2d-90.ini", [c]) for c in ("spectrum", "observability")]
    out.append(("demo-simulate-all", "demo.ini", ["simulate", "--route", "all"]))
    out += [
        (f"demo-a{a}-simulate", f"demo-a{a}.ini", ["simulate", "--route", "spectral"])
        for a in DEMO_ALPHAS
    ]
    out.append(("demo30-simulate", "demo-b1-30.ini", ["simulate", "--route", "spectral"]))
    out += [(f"demo30-{c}", "demo-b1-30.ini", [c]) for c in COMMANDS[1:]]
    out += [
        (f"routes1d-{c}-{route}", "routes-1d.ini", [c, "--route", route])
        for route in ("resolvent", "timestep")
        for c in ("observability", "invert")
    ]
    return out


def write_configs(outdir: Path) -> None:
    (outdir / "demo.ini").write_bytes((ROOT / "configs" / "demo.ini").read_bytes())
    (outdir / "riesz2d.ini").write_bytes((ROOT / "bench" / "riesz2d.ini").read_bytes())
    for name, base, section, overrides in (
        ("routes-1d.ini", ROOT / "configs" / "demo.ini", "observation", ROUTES_1D),
        ("riesz2d-90.ini", ROOT / "bench" / "riesz2d.ini", "problem", RIESZ2D_90),
        ("demo-b1-30.ini", ROOT / "configs" / "demo.ini", "problem", DEMO_B1_30),
        *(
            (f"demo-a{a}.ini", ROOT / "configs" / "demo.ini", "problem", overrides)
            for a, overrides in DEMO_ALPHAS.items()
        ),
    ):
        parser = configparser.ConfigParser()
        parser.read(base, encoding="utf-8")
        parser[section].update(overrides)
        with open(outdir / name, "w", encoding="utf-8") as fh:
            parser.write(fh)


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _leaves(value, key: str, columns: dict) -> None:
    if isinstance(value, dict):
        for k, v in value.items():
            _leaves(v, f"{key}.{k}" if key else str(k), columns)
    elif isinstance(value, list):
        for v in value:
            _leaves(v, key, columns)
    else:
        columns.setdefault(key, []).append(value)


def columns_of(path: Path) -> dict:
    """Column name -> list of values, for a CSV (by header) or JSON file (by key path)."""
    if path.suffix == ".json":
        columns: dict = {}
        _leaves(json.loads(path.read_text(encoding="utf-8")), "", columns)
        return columns
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        return {}
    return {name: [row[i] for row in rows[1:]] for i, name in enumerate(rows[0])}


def _number(value):
    try:
        return float(value)
    except (TypeError, ValueError):
        return None


def column_change(old: list, new: list) -> str:
    """'changed k/n' with the max abs and rel difference of the numeric values."""
    if len(old) != len(new):
        return f"{len(old)} values -> {len(new)}"
    changed = [(a, b) for a, b in zip(old, new) if a != b]
    line = f"changed {len(changed)}/{len(old)}"
    pairs = [(_number(a), _number(b)) for a, b in changed]
    numeric = [(a, b) for a, b in pairs if a is not None and b is not None]
    if numeric:
        diff = [abs(a - b) for a, b in numeric]
        rel = [d / max(abs(a), abs(b)) for d, (a, b) in zip(diff, numeric)]
        line += f"  max_abs {max(diff):.3g}  max_rel {max(rel):.3g}"
    if len(numeric) < len(changed):
        line += f"  non-numeric {len(changed) - len(numeric)}"
    return line


def compare(parent: Path, change: Path) -> None:
    names = sorted(
        {p.relative_to(root) for root in (parent, change) for p in root.glob("*/*")}
    )
    identical = 0
    for name in names:
        old, new = parent / name, change / name
        if not (old.is_file() and new.is_file()):
            print(f"{name}  only in {'parent' if old.is_file() else 'change'}")
            continue
        if old.read_bytes() == new.read_bytes():
            identical += 1
            continue
        before, after = columns_of(old), columns_of(new)
        for column in dict.fromkeys([*before, *after]):
            if column not in after or column not in before:
                side = "parent" if column in before else "change"
                print(f"{name}  {column}  only in {side}")
            elif before[column] != after[column]:
                print(f"{name}  {column}  {column_change(before[column], after[column])}")
    print(f"{identical} of {len(names)} files byte-identical")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("outdir", type=Path, nargs="?")
    ap.add_argument("--threads", type=int, default=1)
    ap.add_argument("--compare", type=Path, nargs=2, metavar=("PARENT", "CHANGE"))
    args = ap.parse_args()
    if args.compare:
        compare(*args.compare)
        return
    if args.outdir is None:
        ap.error("OUTDIR is required unless --compare is given")
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
