"""Self-tests of the benchmark's checkers, tracer and workload generator.

    python3 perfbench/selftest.py

Runs small commands in this process, with ``patterned`` imported from the
checkout's ``src/``, and shows that each checker accepts the real output and
rejects a deliberately corrupted copy. Then it traces a few requests and
shows that spans nest: no self time is negative, and the self times add up
to the time the requests took. Prints one PASS or FAIL line per test and
exits 1 if any failed.
"""

import contextlib
import io
import os
import shutil
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from patterned import cli  # noqa: E402


def run_op(op, work_dir):
    """Run one operation in-process; returns (exit code, output text, stdout)."""
    out_path = os.path.join(work_dir, "out")
    argv = [a.replace("{out}", out_path).replace("{dir}", work_dir) for a in op["argv"]]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        rc = cli.cli_dispatch(argv)
    text = ""
    if os.path.exists(out_path):
        with open(out_path, encoding="utf-8", newline="") as fh:
            text = fh.read()
        os.remove(out_path)
    return rc, text, stdout.getvalue(), stderr.getvalue()


def _replace_line(text, index, edit):
    lines = text.split("\n")
    lines[index] = edit(lines[index])
    return "\n".join(lines)


def _drop_line(text, index):
    lines = text.split("\n")
    return "\n".join(lines[:index] + lines[index + 1:])


def _flip_turn(line):
    return line[:-1] + ("R" if line.endswith("L") else "L")


def _drop_edge(text):
    lines = text.split("\n")
    return _drop_line(text, next(i for i, line in enumerate(lines)
                                 if "->" in line and i > len(lines) // 2))


def _move_eigenvalue(line):
    index, value, ratio = line.split(",")
    return ",".join([index, format(float(value) + 1e-6, ".12g"), ratio])


def _scale_row(line):
    cells = line.split(",")
    return ",".join(cells[:1] + [format(float(c) * 1.001, ".12g") for c in cells[1:]])


def _stdout_field(key, delta):
    def corrupt(out, stdout):
        import json

        stats = json.loads(stdout)
        stats[key] = stats[key] + delta
        return out, json.dumps(stats)
    return corrupt


def _out(edit):
    return lambda out, stdout: (edit(out), stdout)


CHAIN = {"alpha": 1.1, "beta": 0.4, "g_l": 0.9, "g_r": 0.6}
WALK = {"sites": 20, "steps": 30, "theta_l": 0.7, "theta_r": -1.3,
        "initial_site": 4, "initial_coin": "R"}

# (name, operation, corruption of (output, stdout))
CORRUPTIONS = [
    ("turns: one flipped turn label", workloads.turns_op(500),
     _out(lambda t: _replace_line(t, 250, _flip_turn))),
    ("dag: one dropped edge", workloads.dag_op(500), _out(_drop_edge)),
    ("modes: one eigenvalue moved by 1e-6",
     workloads.modes_op(dict(CHAIN, sites=40, s=0.6)),
     _out(lambda t: _replace_line(t, 17, _move_eigenvalue))),
    ("walk: one row scaled by 1.001", workloads.walk_op(WALK),
     _out(lambda t: _replace_line(t, 12, _scale_row))),
    ("gen: one flipped turn", workloads.gen_op(300),
     _out(lambda t: _replace_line(t, 100, _flip_turn))),
    ("count: wrong count", workloads.count_op(777),
     _out(lambda t: t.replace('"count": ', '"count": 1'))),
    ("primes: one dropped prime", workloads.primes_op(400),
     _out(lambda t: _drop_line(t, 30))),
    ("curve: region count off by one", workloads.curve_op("LLRLLRLLRLLRRRLL"),
     _stdout_field("bounded_region_count", 1)),
    ("sweep: ground energy moved by 1e-6",
     workloads.sweep_op(dict(CHAIN, sites=12, points=5)),
     _out(lambda t: _replace_line(t, 3, lambda line: ",".join(
         [line.split(",")[0], format(float(line.split(",")[1]) + 1e-6, ".12g")]
         + line.split(",")[2:])))),
    ("seahorse-scan: one dropped word", workloads.scan_op(12),
     _out(lambda t: _drop_line(t, 1))),
    ("dragon: unique edge count off by one", workloads.dragon_op("LLR", 5),
     _stdout_field("unique_edge_count", 1)),
    ("tessellate: overlap off by one", workloads.tessellate_op("LRRLLRLR"),
     _stdout_field("overlap_count", 1)),
]


def test_checkers(work_dir):
    failures = 0
    cls = checks.Classifier()
    for name, op, corrupt in CORRUPTIONS:
        rc, out, stdout, _ = run_op(op, work_dir)
        checker = checks.CHECKERS[op["kind"]]
        try:
            if rc != 0:
                raise AssertionError(f"exit code {rc}")
            checker(cls, op["params"], out, stdout)
            bad_out, bad_stdout = corrupt(out, stdout)
            if (bad_out, bad_stdout) == (out, stdout):
                raise AssertionError("corruption changed nothing")
            try:
                checker(cls, op["params"], bad_out, bad_stdout)
            except checks.CheckError:
                pass
            else:
                raise AssertionError("corrupted output accepted")
        except (AssertionError, checks.CheckError) as exc:
            failures += 1
            print(f"FAIL {name}: {exc}")
        else:
            print(f"PASS {name}: real output accepted, corrupted output rejected")
    return failures


def test_spans(work_dir):
    ops = [workloads.gen_op(400), workloads.curve_op("LRRLLLRLRRLR" * 5),
           workloads.modes_op(dict(CHAIN, sites=25, s=0.3)), workloads.dag_op(300),
           workloads.walk_op(WALK), workloads.scan_op(5), workloads.primes_op(300),
           {"argv": ["count", "--limit", "0"]}]
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    latency = 0.0
    try:
        for op in ops:
            out_path = os.path.join(work_dir, "out")
            argv = [a.replace("{out}", out_path) for a in op["argv"]]
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                start = time.perf_counter()
                tracer.request(cli.cli_dispatch, argv)
                latency += time.perf_counter() - start
    finally:
        uninstall()
    summary = tracer.summary()
    total_self = tracing.self_time_total_s(summary)
    metrics = tracing.layer_metrics(summary)
    problems = []
    if summary["min_self_ns"] < 0:
        problems.append(f"negative self time {summary['min_self_ns']} ns")
    if abs(total_self - latency) > 0.02 * latency:
        problems.append(f"self times sum to {total_self:.6f} s, requests took {latency:.6f} s")
    if tracer.stack:
        problems.append("spans left open")
    missing = set(tracing.LAYER_METRICS) - set(metrics) - {"serialize.bytes_out",
                                                            "trace.overhead_s"}
    if missing:
        problems.append(f"metrics not derived: {sorted(missing)}")
    if cli.cli_dispatch.__name__ != "cli_dispatch":
        problems.append("uninstall left a wrapper in place")
    if problems:
        print("FAIL spans: " + "; ".join(problems))
        return 1
    print(f"PASS spans: self times >= 0 and sum to {total_self:.4f} s of "
          f"{latency:.4f} s in requests ({summary['requests']} requests)")
    return 0


def test_workloads():
    problems = []
    for name in workloads.WORKLOADS:
        a, b = workloads.build(name, 7), workloads.build(name, 7)
        if a != b:
            problems.append(f"{name}: same seed, different operations")
        if len(workloads.build(name, 8)) != len(a):
            problems.append(f"{name}: round length depends on the seed")
    if problems:
        print("FAIL workloads: " + "; ".join(problems))
        return 1
    print("PASS workloads: same seed gives the same round, every seed the same length")
    return 0


def main():
    bench_root = os.path.join(ROOT, ".bench_work")
    os.makedirs(bench_root, exist_ok=True)
    work_dir = tempfile.mkdtemp(dir=bench_root)
    try:
        workloads.write_fixtures(work_dir)
        failures = test_checkers(work_dir) + test_spans(work_dir) + test_workloads()
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(bench_root)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
