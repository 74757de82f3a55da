"""Quick self-check of the benchmark harness at tiny sizes (a few seconds).

    python3 bench/selfcheck.py

Runs the harness in this process on an 8-node 1D problem, untraced and
traced, and checks that:

* every metric listed in BENCHMARK.json is reported, with its unit, and no
  other;
* a command that exits non-zero, and one that raises, are counted as failed
  and the run still completes, with the other commands' outputs checked.

Exits 0 when all hold and 1 otherwise.
"""

import json
import sys

import run

TINY_CONFIG = """\
[problem]
dimension = 1
interior = 8
b1 = 1
K = 256
a = sin(pi*x)
b = x*(1 - x)

[solver]
routes = all

[observation]
times = geometric:8:1e-2

[inversion]
noise = 0.001
seed = 7
"""

TINY_COMMANDS = (
    *run.FOUR,
    ("simulate", "--route", "nowhere"),  # argument error: exit code 1
    ("observability", "--route", "timestep"),  # geometric times: uncaught ValueError
)


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workdir = run.WORK / "selfcheck"
    workdir.mkdir(parents=True, exist_ok=True)
    config = workdir / "tiny.ini"
    config.write_text(TINY_CONFIG, encoding="utf-8")
    tiny = run.Workload(str(config.relative_to(run.ROOT)), TINY_COMMANDS)

    errors = []
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        result = run.run("tiny", tiny, seed=1, seconds=0.5, trace=trace, setup_starts=1)
        print(json.dumps(result), file=sys.stderr)
        want = {m["name"]: m["unit"] for m in spec[section]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        if got != want:
            errors.append(f"{section}: reported {got}, BENCHMARK.json lists {want}")
        passes, rest = divmod(result["attempted"], len(TINY_COMMANDS))
        if passes < 1 or rest or result["failed"] != 2 * passes:
            errors.append(f"{section}: {result['failed']} of {result['attempted']} failed, "
                          f"expected 2 per pass of {len(TINY_COMMANDS)}")
        if not result["correct"]:
            errors.append(f"{section}: outputs of the succeeding commands failed their checks")
    for error in errors:
        print(f"selfcheck: {error}", file=sys.stderr)
    print("selfcheck: ok" if not errors else "selfcheck: FAILED")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
