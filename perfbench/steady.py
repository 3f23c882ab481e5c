"""Repeat benchmark runs and report each metric's median and quartiles.

    python3 perfbench/steady.py --runs 10 [--first-seed 1]

Runs ``run.py`` once per workload of ``BENCHMARK.json`` and seed, one process
at a time, with the run length from ``BENCHMARK.json``. For every end-to-end metric it prints the
median, the first and third quartiles (``statistics.quantiles(n=4)``), the
spread (q3 - q1) / median, the bound recorded in ``BENCHMARK.json`` and
whether the spread stays below a third of that bound. The suggested bound is
3.5 spreads rounded up to 0.05, at most 0.25: this is how the recorded bounds
were set. The per-command times of ``bulk`` are reported the same way.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def quartiles(values):
    if len(values) < 2:
        return values * 3
    return statistics.quantiles(values, n=4)


def spread(values):
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


def one_run(workload, seed, seconds):
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} failed ({proc.returncode}):\n{proc.stderr}")
    result = json.loads(lines[-1])
    for line in lines:
        if line.startswith("commands "):
            result["commands"] = json.loads(line[len("commands "):])
    return result


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    for workload in (w["name"] for w in bench["workloads"]):
        results = [one_run(workload, args.first_seed + i, bench["run_seconds"])
                   for i in range(args.runs)]
        shares = {r["failed"] / r["attempted"] for r in results}
        print(f"\n{workload}: {len(results)} runs, seeds {args.first_seed}.."
              f"{args.first_seed + args.runs - 1}, correct={all(r['correct'] for r in results)}, "
              f"failed share {sorted(shares)}")
        print(f"  {'metric':34s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'spread':>7s} {'bound':>6s} {'suggest':>7s}")
        names = list(results[0]["metrics"])
        for name in names:
            values = [r["metrics"][name]["value"] for r in results]
            q1, q2, q3 = quartiles(values)
            s = spread(values)
            unit = results[0]["metrics"][name]["unit"]
            line = f"  {name + ' (' + unit + ')':34s} {q2:12.6g} {q1:12.6g} {q3:12.6g} {s:7.3f}"
            if name in bounds:
                suggest = min(0.25, max(0.05, math.ceil(3.5 * s * 20) / 20))
                flag = "ok" if s < bounds[name] / 3 else "WIDE"
                line += f" {bounds[name]:6.2f} {suggest:7.2f} {flag}"
            print(line)
        if "commands" in results[0]:
            for name in results[0]["commands"]:
                values = [r["commands"][name] for r in results]
                q1, q2, q3 = quartiles(values)
                print(f"  {name + ' (s)':34s} {q2:12.6g} {q1:12.6g} {q3:12.6g} "
                      f"{spread(values):7.3f}")


if __name__ == "__main__":
    main()
