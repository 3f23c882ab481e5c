"""Re-measure the single commands of the ROADMAP baseline table.

    python3 perfbench/baseline.py [--repeats 5]

Each repetition of each command is one fresh interpreter that imports
``patterned`` from the checkout's ``src/``, runs the command through
``cli_dispatch`` with its output in memory, and reports the wall time of the
call and its peak resident memory. Prints the median and quartiles of both.
Outputs are not checked here; ``run.py`` checks the same commands at the
benchmark's sizes.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

COMMANDS = [
    ["count", "--limit", "1000000"],
    ["gen", "--limit", "1000000"],
    ["dag", "--limit", "1000000"],
    ["modes", "--sites", "500"],
    ["modes", "--sites", "1000"],
    ["sweep", "--sites", "200", "--s-grid", "0:1:21"],
    ["walk", "--sites", "1000", "--steps", "2000"],
    ["seahorse-scan", "--max-len", "14"],
    ["dragon", "--word", "LLR", "--generations", "17"],
    ["turns", "--k", "100000"],
    ["curve", "--k", "100000"],
    ["primes", "--limit", "1000000"],
]

_CHILD = """
import contextlib, io, json, resource, sys, time
from patterned import cli
argv = json.loads(sys.argv[1])
with contextlib.redirect_stdout(io.StringIO()):
    start = time.perf_counter()
    rc = cli.cli_dispatch(argv)
    wall = time.perf_counter() - start
rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
print(json.dumps({"rc": rc, "wall_s": wall, "peak_rss_mb": rss}))
"""


def measure(argv):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", _CHILD, json.dumps(argv)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{argv} failed:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if result["rc"] != 0:
        raise SystemExit(f"{argv} exited {result['rc']}")
    return result


def _summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return f"{q2:9.3f} [{q1:.3f}, {q3:.3f}]"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()
    print(f"{'command':42s} {'wall s: median [q1, q3]':>28s} {'peak RSS MB':>26s}")
    for argv in COMMANDS:
        runs = [measure(argv) for _ in range(args.repeats)]
        print(f"{' '.join(argv):42s} {_summary([r['wall_s'] for r in runs]):>28s} "
              f"{_summary([r['peak_rss_mb'] for r in runs]):>26s}")


if __name__ == "__main__":
    main()
