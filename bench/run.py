"""Benchmark of the fracwave command line: the four commands on three workloads.

    python3 bench/run.py --workload demo-1d --seed 1 --seconds 27 --trace 0

Run it from the root of a source checkout; the program is imported from
``src/``.  A run times set-up in fresh interpreters (untraced runs only),
makes one untimed warm-up pass over the workload's commands, then repeats
whole passes in this process, one command after another, for as many
passes as fit in --seconds (at least one).  Every command's outputs are
checked (``checks.py``).  With --trace 1 the program's public functions are
wrapped (``spans.py``) and the per-layer metrics are reported instead of the
end-to-end ones.  Progress and
check failures go to stderr; the last line of stdout is the JSON result.
See README.md in this directory.
"""

import os

# one BLAS / OpenMP thread, set before numpy loads; the fresh interpreters
# that time set-up inherit it
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import configparser
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / "work"
SETUP_STARTS = 5  # timed fresh interpreters per run, after one untimed start
COMMANDS = ("simulate", "spectrum", "observability", "invert")

SETUP_CODE = """\
import sys, time
start = time.perf_counter()
import fracwave.cli
from fracwave.config import load_config
load_config(sys.argv[1]).build_operator()
print(time.perf_counter() - start)
"""


@dataclass(frozen=True)
class Workload:
    config: str  # relative to the checkout root
    commands: tuple  # each run with --config and --out appended
    observation: dict = field(default_factory=dict)  # [observation] overrides
    seeded: bool = True  # invert gets --seed from the benchmark's --seed
    recovery_bound: float | None = None  # on the relative recovery error


FOUR = tuple((name,) for name in COMMANDS)
WORKLOADS = {
    # the reference experiment as checked in, its own noise seed included:
    # criterion 7's 0.05 recovery bound holds at that seed
    "demo-1d": Workload("configs/demo.ini", FOUR, seeded=False, recovery_bound=0.05),
    # 8 sample times on the grid of the time-stepping route (dt = 1/1024,
    # criterion 3's step); each map is 64 forward solves of one operator
    "routes-1d": Workload(
        "configs/demo.ini",
        (
            ("simulate", "--route", "all"),
            ("spectrum",),
            ("observability", "--route", "resolvent"),
            ("invert", "--route", "resolvent"),
            ("observability", "--route", "timestep"),
            ("invert", "--route", "timestep"),
        ),
        observation={"times": "uniform:8", "horizon": "0.5", "timestep_K": "512"},
    ),
    "riesz-2d": Workload("bench/riesz2d.ini", FOUR),
}

E2E_UNITS = {f"{name}_s": "s" for name in COMMANDS}
E2E_UNITS.update(setup_s="s", peak_rss_mb="MB")


def _config_path(name: str, workload: Workload, workdir: Path) -> Path:
    path = ROOT / workload.config
    if not workload.observation:
        return path
    parser = configparser.ConfigParser()
    parser.read(path, encoding="utf-8")
    parser["observation"].update(workload.observation)
    derived = workdir / f"{name}.ini"
    with open(derived, "w", encoding="utf-8") as fh:
        parser.write(fh)
    return derived


def time_setup(config: Path) -> float:
    """Seconds a fresh interpreter takes to import the CLI and build the operator."""
    out = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, str(config)],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(out.stdout.split()[-1])


@dataclass
class Step:
    kind: str  # simulate | spectrum | observability | invert
    route: str
    argv: list
    outdir: Path


def plan_pass(workload: Workload, cfg, config: Path, workdir: Path, seed: int) -> list[Step]:
    steps = []
    for i, head in enumerate(workload.commands):
        outdir = workdir / f"{i}-{'-'.join(head).replace('--', '')}"
        argv = [*head, "--config", str(config), "--out", str(outdir)]
        if workload.seeded and head[0] == "invert":
            argv += ["--seed", str(seed)]
        route = head[head.index("--route") + 1] if "--route" in head else cfg.observation.route
        steps.append(Step(head[0], route, argv, outdir))
    return steps


def run_pass(steps: list[Step], ref, checks) -> tuple[dict, int, list[str]]:
    """Run each step once; return wall time per command kind, failures, check errors."""
    import fracwave.cli

    seconds = defaultdict(float)
    failed = 0
    problems = []
    for step in steps:
        shutil.rmtree(step.outdir, ignore_errors=True)
        start = time.perf_counter()
        try:
            code = fracwave.cli.main(step.argv)
        except Exception:  # a real CLI run would end with exit code 1
            traceback.print_exc(file=sys.stderr)
            code = 1
        seconds[step.kind] += time.perf_counter() - start
        if code != 0:
            failed += 1
            print(f"  {' '.join(step.argv[:3])}: exit code {code}", file=sys.stderr)
            continue
        problems += checks.CHECKS[step.kind](step.outdir, ref, step.route)
    return seconds, failed, problems


def run(name: str, workload: Workload, seed: int, seconds: float, trace: bool,
        setup_starts: int = SETUP_STARTS) -> dict:
    """One benchmark run; returns the result object printed by :func:`main`."""
    if not (SRC / "fracwave" / "__init__.py").is_file():
        raise FileNotFoundError(f"no fracwave sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import checks
    import spans
    from fracwave.config import load_config

    workdir = WORK / name
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    config = _config_path(name, workload, workdir)
    cfg = load_config(config)
    noise_seed = seed if workload.seeded else cfg.inversion.seed
    ref = checks.build_reference(cfg, noise_seed, workload.recovery_bound)
    steps = plan_pass(workload, cfg, config, workdir, seed)

    setup = [time_setup(config) for _ in range(setup_starts + 1)][1:] if not trace else []
    if setup:
        print("setup: " + " ".join(f"{v:.3f}" for v in setup), file=sys.stderr)

    tracer = spans.Tracer() if trace else None
    if tracer:
        tracer.install()
    try:
        _, _, problems = run_pass(steps, ref, checks)  # warm-up
        passes, layers = [], []
        attempted = failed = 0
        start = time.perf_counter()
        last = 0.0
        # whole passes, each started only if one more fits in the time left
        while not passes or time.perf_counter() - start + last <= seconds:
            if tracer:
                tracer.reset()
            t0 = time.perf_counter()
            times, n_failed, found = run_pass(steps, ref, checks)
            last = time.perf_counter() - t0
            print(f"pass {len(passes) + 1}: {last:.3f} s "
                  + " ".join(f"{k}={v:.3f}" for k, v in times.items()), file=sys.stderr)
            passes.append(times)
            if tracer:
                layers.append(tracer.metrics())
            attempted += len(steps)
            failed += n_failed
            problems += found
    finally:
        if tracer:
            tracer.uninstall()

    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)

    def median(rows, key):
        return statistics.median(row[key] for row in rows)

    if tracer:
        metrics = {
            key: {"value": median(layers, key), "unit": "s" if key.endswith("_s") else "count"}
            for key in spans.METRICS
        }
    else:
        values = {f"{kind}_s": median(passes, kind) for kind in COMMANDS}
        values["setup_s"] = statistics.median(setup)
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {key: {"value": values[key], "unit": unit} for key, unit in E2E_UNITS.items()}
    return {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = run(args.workload, WORKLOADS[args.workload], args.seed, args.seconds,
                 bool(args.trace))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
