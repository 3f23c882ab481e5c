"""One round of the benchmark in a fresh interpreter.

    worker.py SRC PLAN RESULT TRACE KEEP

The worker imports ``patterned`` (checking that it came from ``SRC``), builds
the CLI parser once, prints ``ready`` (the parent times set-up from spawn to
that line) and then runs every operation of the round through
``patterned.cli.cli_dispatch`` back to back, timing each call. It writes a
JSON result: per-operation latency, exit code (null, with the exception's
text, when ``cli_dispatch`` raised instead of returning one), digests of stdout, stderr and
the output file, the process's peak resident memory, and the best time of a
fixed reference loop run before and after the operations. With TRACE set to 1
it first wraps the package's functions (see ``tracing.py``) and adds the span
summary to the result. With KEEP set to 1 the output files and the captured
text stay for the parent to check; otherwise each output is deleted once
hashed.
"""

import sys
import time


def _import_cli(src_dir):
    from patterned import cli

    if not cli.__file__.startswith(src_dir):
        raise SystemExit(f"patterned was imported from {cli.__file__}, not {src_dir}")
    return cli


def reference_loop():
    """Fixed pure-Python work timed in every round to gauge the machine's
    speed at that moment: digit sets, divisor sets, joins and float
    formatting, like the package's own inner loops. ``run.py`` scales every
    reported time by this loop's best time in the run, so changing the loop
    changes every reported time."""
    count = 0
    for n in range(1, 12001):
        digits = set()
        m = n
        while m:
            m, r = divmod(m, 10)
            digits.add(r)
        divisors = frozenset(d for d in range(1, 10) if n % d == 0)
        count += len("|".join(str(d) for d in sorted(digits & divisors)) + format(n / 7, ".12g"))
    return count


def _best_time(fn, repeats):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _digest(data):
    import hashlib

    return hashlib.sha256(data).hexdigest()


def _round(src_dir, plan_path, result_path, trace, keep):
    cli = _import_cli(src_dir)
    cli.build_parser()
    sys.stdout.write("ready\n")
    sys.stdout.flush()

    import contextlib
    import io
    import json
    import os
    import resource

    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    work_dir, out_dir = plan["work_dir"], plan["out_dir"]
    reference_s = _best_time(reference_loop, 2)
    tracer = None
    if trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    records = []
    clock = time.perf_counter
    for i, op in enumerate(plan["ops"]):
        out_path = os.path.join(out_dir, f"op{i}")
        argv = [a.replace("{out}", out_path).replace("{dir}", work_dir) for a in op["argv"]]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            start = clock()
            error = None
            try:
                if tracer is None:
                    rc = cli.cli_dispatch(argv)
                else:
                    rc = tracer.request(cli.cli_dispatch, argv)
            except Exception as exc:  # a fault of the program fails this operation only
                rc, error = None, f"{type(exc).__name__}: {exc}"
            latency = clock() - start
        record = {
            "latency_s": latency,
            "rc": rc,
            "error": error,
            "stdout": _digest(stdout.getvalue().encode()),
            "stderr": _digest(stderr.getvalue().encode()),
            "out": None,
            "bytes_out": len(stdout.getvalue().encode()),
        }
        if keep:
            record["stdout_text"] = stdout.getvalue()
            record["stderr_text"] = stderr.getvalue()
        if os.path.exists(out_path):
            with open(out_path, "rb") as fh:
                data = fh.read()
            record["out"] = _digest(data)
            record["bytes_out"] += len(data)
            if not keep:
                os.remove(out_path)
        records.append(record)

    result = {
        "reference_s": min(reference_s, _best_time(reference_loop, 2)),
        "ops": records,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        result["trace"] = tracer.summary()
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    src, plan, result, trace, keep = sys.argv[1:]
    _round(src, plan, result, trace=trace == "1", keep=keep == "1")
