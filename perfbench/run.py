"""Benchmark of the ``patterned`` command line, one workload per invocation.

    python3 perfbench/run.py --workload bulk --seed 1 --seconds 55 --trace 0

Run from the root of a checkout. The package is imported from ``src/`` of
that checkout; nothing is installed.

Every round of a workload is one fresh interpreter (``worker.py``) that runs
the workload's operations back to back through ``patterned.cli.cli_dispatch``,
writing each output with ``--out`` into a temporary directory under
``.bench_work/``. Rounds repeat until ``--seconds`` is used up; every round
runs the same operations, so a run attempts whole rounds. Outputs of the first
round are checked by ``checks.py``; every later round must reproduce them
byte for byte. The temporary directory is removed at the end.

With ``--trace 0`` the last line of stdout holds the end-to-end metrics, with
``--trace 1`` the per-layer metrics of ``tracing.py`` (untraced and traced
rounds alternate, and the difference of their wall times is the tracing
overhead). The last line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. Lines before it are for people.

Exit status: 0 when every output checked is correct, 1 when one is not (the
result line is still printed), 2 when the benchmark cannot run at all (no
result line).
"""

import argparse
import contextlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")

# The program is single-threaded; one BLAS thread keeps the numpy the checks
# use from competing with the worker on a small machine.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import checks  # noqa: E402  (after the thread caps, which numpy reads on import)
import tracing  # noqa: E402
import workloads  # noqa: E402

WORKER_TIMEOUT_S = 150

# Best time of ``worker.reference_loop`` on the 2-CPU machine the benchmark was
# built on (Python 3.11.7) in a quiet stretch. Every reported time is scaled
# to this speed: measured time * REFERENCE_LOOP_S / the loop's best time in
# the run. A run that falls in a stretch where other tenants slow the machine
# down slows the loop too, and the scaling takes that out.
REFERENCE_LOOP_S = 0.035

# Workloads with fewer operations than this per round have no latency tail
# with ten operations beyond it; their op_tail_ms is the slowest operation.
TAIL_MIN_OPS = 40


class BenchError(Exception):
    """The benchmark could not run (as opposed to the program being wrong)."""


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


def run_round(work_dir, index, ops, trace, keep):
    """One fresh worker running every operation of a round."""
    out_dir = os.path.join(work_dir, f"round{index}")
    os.mkdir(out_dir)
    plan_path = os.path.join(work_dir, f"plan{index}.json")
    result_path = os.path.join(work_dir, f"result{index}.json")
    with open(plan_path, "w", encoding="utf-8") as fh:
        json.dump({"work_dir": work_dir, "out_dir": out_dir, "ops": ops}, fh)
    argv = [sys.executable, WORKER, SRC, plan_path, result_path,
            "1" if trace else "0", "1" if keep else "0"]
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        _, err = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"round {index} took longer than {WORKER_TIMEOUT_S} s") from exc
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if ready != "ready\n" or proc.returncode != 0:
        raise BenchError(f"round {index} worker failed:\n{err.strip()}")
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)
    result.update(out_dir=out_dir, traced=trace, setup_s=setup_s)
    return result


def run_rounds(work_dir, ops, seconds, trace):
    """Whole rounds until the time is used up; traced runs alternate untraced
    and traced rounds and stop after a whole pair."""
    group = (False, True) if trace else (False,)
    rounds = []
    start = time.perf_counter()
    while True:
        for traced in group:
            rounds.append(run_round(work_dir, len(rounds), ops, traced, keep=not rounds))
        elapsed = time.perf_counter() - start
        if elapsed + elapsed * len(group) / len(rounds) > seconds:
            return rounds


# ---------------------------------------------------------------------------
# checking
# ---------------------------------------------------------------------------

def _read(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return fh.read()


def evaluate(ops, rounds):
    """Why each operation of a round failed, and why outputs are wrong.

    An operation fails when it ends with another exit code than expected
    (raising an exception counts as one) or, for an invalid request, when the
    error does not name the flag."""
    cls = checks.Classifier()
    first = rounds[0]
    problems = []
    failures = []
    for i, (op, rec) in enumerate(zip(ops, first["ops"])):
        name = f"op {i} {op['argv'][:1]}"
        if rec["rc"] != op["expect_rc"]:
            how = rec["error"] or f"exit {rec['rc']}"
            failures.append(f"{name}: {how}, expected exit {op['expect_rc']}")
            continue
        if op["flag"] is not None:
            try:
                checks.check_flag_named(rec["stderr_text"], op["flag"])
            except checks.CheckError as exc:
                failures.append(f"{name}: {exc}")
            continue
        try:
            out = _read(os.path.join(first["out_dir"], f"op{i}"))
            checks.CHECKERS[op["kind"]](cls, op["params"], out, rec["stdout_text"])
        except (checks.CheckError, OSError, ValueError, KeyError) as exc:
            problems.append(f"{name}: {type(exc).__name__}: {exc}")
    keys = ("rc", "error", "stdout", "stderr", "out")
    for r, result in enumerate(rounds[1:], start=1):
        for i, (rec, ref) in enumerate(zip(result["ops"], first["ops"])):
            if any(rec[k] != ref[k] for k in keys):
                problems.append(f"round {r} op {i}: output differs from round 0")
    return failures, problems


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def op_best(rounds):
    """Each operation's shortest latency over the rounds.

    On a shared machine, interference from other tenants only ever adds time
    and comes in bursts shorter than a run, so the best of several rounds
    measures the program's own cost; the median of a run's rounds still moved
    by 15-30% from run to run. Medians across runs are taken by whoever
    repeats the benchmark (``steady.py``)."""
    return [min(r["ops"][i]["latency_s"] for r in rounds) for i in range(len(rounds[0]["ops"]))]


def op_tail(latencies):
    """The highest percentile (at most p99) with ten operations of a round
    beyond it; for workloads with few operations a round, the slowest."""
    if len(latencies) < TAIL_MIN_OPS:
        return max(latencies)
    q = min(99, math.floor(100 * (len(latencies) - 10) / len(latencies)))
    return statistics.quantiles(latencies, n=100, method="inclusive")[q - 1]


def speed_scale(rounds):
    """Factor that brings the run's times to the reference machine speed."""
    return REFERENCE_LOOP_S / min(r["reference_s"] for r in rounds)


def end_to_end(rounds):
    scale = speed_scale(rounds)
    best = op_best(rounds)
    return {
        "setup_s": (scale * statistics.median(r["setup_s"] for r in rounds), "s"),
        "wall_s": (scale * sum(best), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in rounds), "MB"),
        "op_p50_ms": (scale * 1e3 * statistics.median(best), "ms"),
        "op_tail_ms": (scale * 1e3 * op_tail(best), "ms"),
    }


def per_layer(rounds):
    """Per-layer metrics: medians over the traced rounds, and the tracing
    overhead as traced minus untraced wall time."""
    traced = [r for r in rounds if r["traced"]]
    untraced = [r for r in rounds if not r["traced"]]
    values = {}
    for r in traced:
        metrics = tracing.layer_metrics(r["trace"])
        metrics["serialize.bytes_out"] = sum(rec["bytes_out"] for rec in r["ops"])
        for name, value in metrics.items():
            values.setdefault(name, []).append(value)
    values["trace.overhead_s"] = [sum(op_best(traced)) - sum(op_best(untraced))]
    return {name: (statistics.median(values[name]), unit)
            for name, (unit, _) in tracing.LAYER_METRICS.items()}


COMMAND_METRIC = {"seahorse-scan": "seahorse_scan_s"}


def per_command_s(ops, rounds):
    """Best wall time of each command of a bulk workload at the reference
    speed, by metric name."""
    scale = speed_scale(rounds)
    return {COMMAND_METRIC.get(op["kind"], op["kind"] + "_s"): scale * best
            for op, best in zip(ops, op_best(rounds))}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "patterned")):
        print(f"error: no package sources at {SRC}", file=sys.stderr)
        return 2
    ops = workloads.build(args.workload, args.seed)
    bench_root = os.path.join(ROOT, ".bench_work")
    os.makedirs(bench_root, exist_ok=True)
    work_dir = tempfile.mkdtemp(dir=bench_root)
    try:
        workloads.write_fixtures(work_dir)
        rounds = run_rounds(work_dir, ops, args.seconds, args.trace)
        failures, problems = evaluate(ops, rounds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(bench_root)  # left in place while another run uses it

    failed_per_round = len(failures)
    for failure in failures[:20]:
        print(f"failed: {failure}", file=sys.stderr)
    for problem in problems[:20]:
        print(f"incorrect: {problem}", file=sys.stderr)
    print(f"# reference loop best {min(r['reference_s'] for r in rounds):.6f} s, "
          f"times scaled by {speed_scale(rounds):.4f}")
    if args.trace:
        metrics = per_layer(rounds)
    else:
        metrics = end_to_end(rounds)
        if args.workload == "bulk":
            print("commands " + json.dumps(per_command_s(ops, rounds)))
    print(f"# {args.workload} seed={args.seed} rounds={len(rounds)} ops/round={len(ops)} "
          f"failed/round={failed_per_round}")
    result = {
        "correct": not problems,
        "attempted": len(ops) * len(rounds),
        "failed": failed_per_round * len(rounds),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
