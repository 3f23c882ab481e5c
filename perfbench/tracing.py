"""Spans around the package's functions, recorded from outside the package.

``install`` replaces every public function of the package's modules (plus the
CLI's command handlers, ``LatticeCurve.__post_init__`` and the
``PatternedDag.edges`` property, where the package has them) with a wrapper that opens a span on entry
and closes it on exit. Every reference is replaced, including names that
other modules imported with ``from .core import ...``, so calls between
modules are seen too. Nothing under ``src/`` is edited.

Spans are aggregated as they close instead of being stored: a round of the
``numbers`` workload opens millions of them. For each function the tracer
keeps calls, total time and self time (its duration minus the time its child
spans cover); for each module it keeps the time spent inside it, counting a
span only when its parent belongs to another module. Hooks add the work each
call did (integers classified, segments traced, bytes written), so that the
per-layer metrics are ratios measured where the work happens.

Each CLI request is one root span (``bench.request``), so the self times of
all spans add up to the time spent in requests.
"""

import functools
import inspect
import time
from collections import Counter

MODULES = ("cli", "core", "curves", "dynamics", "graphs", "serialize", "tridiag")

_now = time.perf_counter_ns


class Tracer:
    """Aggregating span recorder; one per traced round."""

    def __init__(self):
        self.stack = []            # open spans: [name, module, start_ns, child_ns]
        self.funcs = {}            # name -> [calls, total_ns, self_ns]
        self.module_ns = Counter()
        self.counters = Counter()
        self.command = None        # innermost CLI command handler, for attribution
        self.min_self_ns = 0
        self.requests = 0
        self.edges_seen = {}       # id(dag) -> (dag, last edges), for one request

    def enter(self, name, module):
        self.stack.append([name, module, _now(), 0])

    def exit(self):
        end = _now()
        name, module, start, child = self.stack.pop()
        duration = end - start
        own = duration - child
        rec = self.funcs.get(name)
        if rec is None:
            rec = self.funcs[name] = [0, 0, 0]
        rec[0] += 1
        rec[1] += duration
        rec[2] += own
        if own < self.min_self_ns:
            self.min_self_ns = own
        if self.stack:
            parent = self.stack[-1]
            parent[3] += duration
            if parent[1] != module:
                self.module_ns[module] += duration
        else:
            self.module_ns[module] += duration

    def request(self, dispatch, argv):
        """Run one CLI request as a root span."""
        self.requests += 1
        self.command = None
        self.enter("bench.request", "bench")
        try:
            return dispatch(argv)
        finally:
            self.exit()
            self.edges_seen.clear()

    def summary(self):
        return {
            "funcs": self.funcs,
            "module_ns": dict(self.module_ns),
            "counters": dict(self.counters),
            "min_self_ns": self.min_self_ns,
            "requests": self.requests,
        }


# ---------------------------------------------------------------------------
# work hooks: (tracer, args, kwargs, result) -> None, run after the span closes
# ---------------------------------------------------------------------------

def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _add(key, fn):
    def hook(tracer, args, kwargs, result):
        tracer.counters[key] += fn(args, kwargs, result)
    return hook


def _sieve(tracer, args, kwargs, result):
    tracer.counters["core.sieve_ints"] += _arg(args, kwargs, 0, "limit")
    tracer.counters["sieves:" + str(tracer.command)] += 1


def _eigh(tracer, args, kwargs, result):
    # Computed: the eigenvalues the solver returned, so a solver that returns
    # part of the spectrum lowers it. Used: what the command reads, set by
    # the command: modes writes every eigenvalue and participation ratio;
    # sweep reads the two lowest eigenvalues and the ground state's ratio.
    n = _arg(args, kwargs, 0, "matrix").n
    used = min(n, 2) if tracer.command == "cli._cmd_sweep" else n
    tracer.counters["tridiag.pairs_computed"] += len(result[0])
    tracer.counters["tridiag.pairs_used"] += used


def _edges(tracer, args, kwargs, result):
    # Counts the edge tuples the getter builds: a getter that hands back the
    # tuple it returned before for the same DAG does not count.
    seen = tracer.edges_seen.get(id(args[0]))
    if seen is None or seen[1] is not result:
        tracer.counters["graphs.edge_sorts"] += 1
        tracer.edges_seen[id(args[0])] = (args[0], result)


def _build_dag(tracer, args, kwargs, result):
    tracer.counters["graphs.nodes"] += len(result.nodes)
    tracer.counters["graphs.edges"] += len(result.chain_edges) + len(result.cluster_edges)


_HOOKS = {
    "core.patterned_sequence": _add("core.sequence_ints", lambda a, k, r: _arg(a, k, 0, "limit")),
    "core.count_and_density": _add("core.count_ints", lambda a, k, r: _arg(a, k, 0, "limit")),
    "core.turn_sequence": _add("core.turn_labels", lambda a, k, r: _arg(a, k, 0, "k")),
    "core.primes_up_to": _sieve,
    "curves.trace": _add("curves.trace_segments", lambda a, k, r: len(r.headings)),
    "curves.LatticeCurve.__post_init__": _add("curves.built_segments",
                                              lambda a, k, r: len(a[0].headings)),
    "curves.curve_stats": _add("curves.stats_segments", lambda a, k, r: a[0].segment_count),
    "curves.is_seahorse": _add("curves.seahorses", lambda a, k, r: int(r.is_seahorse)),
    "serialize.curves_svg": _add("serialize.svg_bytes", lambda a, k, r: len(r)),
    "serialize.dag_dot": _add("serialize.dot_bytes", lambda a, k, r: len(r)),
    "graphs.build_dag": _build_dag,
    "graphs.PatternedDag.edges": _edges,
    "tridiag.eigh_tridiagonal": _eigh,
    "dynamics.adiabatic_sweep": _add("dynamics.sweep_points", lambda a, k, r: len(r)),
    "dynamics.run_walk": _add("dynamics.walk_site_steps",
                              lambda a, k, r: _arg(a, k, 0, "n_positions")
                              * _arg(a, k, 1, "steps")),
}


def _counted_rows(tracer, rows):
    for row in rows:
        tracer.counters["serialize.rows"] += 1
        yield row


# Writers whose output goes to a stream: bytes come from the stream position,
# CSV rows from counting the rows iterable as it is consumed.
_STREAM_BYTES = {
    "serialize.write_csv": "serialize.csv_bytes",
    "serialize.write_json": "serialize.json_bytes",
}


# ---------------------------------------------------------------------------
# wrappers
# ---------------------------------------------------------------------------

def _wrap_function(tracer, fn, name, module):
    hook = _HOOKS.get(name)
    byte_key = _STREAM_BYTES.get(name)
    is_command = module == "cli" and fn.__name__.startswith("_cmd_")
    enter, exit_ = tracer.enter, tracer.exit

    if inspect.isgeneratorfunction(fn):
        items = name + ".items"

        def traced_gen(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                enter(name, module)
                try:
                    item = next(it)
                except StopIteration:
                    exit_()
                    return
                except BaseException:
                    exit_()
                    raise
                exit_()
                tracer.counters[items] += 1
                yield item
        return traced_gen

    def traced(*args, **kwargs):
        if byte_key is not None:
            stream = _arg(args, kwargs, 0, "stream")
            position = stream.tell()
            if name == "serialize.write_csv":
                args = args[:2] + (_counted_rows(tracer, args[2]),) + args[3:]
        outer_command = tracer.command
        if is_command:
            tracer.command = name
        enter(name, module)
        try:
            result = fn(*args, **kwargs)
        finally:
            exit_()
        if hook is not None:
            hook(tracer, args, kwargs, result)
        if byte_key is not None:
            tracer.counters[byte_key] += stream.tell() - position
        if is_command:
            tracer.counters["commands:" + name] += 1
            tracer.command = outer_command
        return result

    return traced


def install(tracer):
    """Wrap the package's functions so every call records a span in ``tracer``.

    Returns a function that restores the original functions.
    """
    import importlib

    modules = {m: importlib.import_module("patterned." + m) for m in MODULES}
    package = importlib.import_module("patterned")
    wrappers = {}   # id(original) -> (original, wrapper)
    for short, mod in modules.items():
        for attr, value in vars(mod).items():
            if not inspect.isfunction(value) or value.__module__ != mod.__name__:
                continue
            if attr.startswith("_") and not (short == "cli" and attr.startswith("_cmd_")):
                continue
            if short == "cli" and attr == "main":
                continue
            if id(value) not in wrappers:
                name = f"{short}.{value.__name__}"
                wrappers[id(value)] = (value, _wrap_function(tracer, value, name, short))

    undo = []
    for mod in list(modules.values()) + [package]:
        namespace = vars(mod)
        for attr, value in list(namespace.items()):
            pair = wrappers.get(id(value))
            if pair is not None and pair[0] is value:
                setattr(mod, attr, pair[1])
                undo.append((mod, attr, value))
    # The targets below are looked up, not assumed: one the program no longer
    # has, or has in another form, is left unwrapped and its metrics read 0.
    commands = getattr(modules["cli"], "_COMMANDS", None)
    for key, value in list(commands.items()) if isinstance(commands, dict) else ():
        pair = wrappers.get(id(value))
        if pair is not None:
            commands[key] = pair[1]
            undo.append((commands, key, value))

    curve_cls = getattr(modules["curves"], "LatticeCurve", None)
    post_init = vars(curve_cls).get("__post_init__") if inspect.isclass(curve_cls) else None
    if inspect.isfunction(post_init):
        curve_cls.__post_init__ = _wrap_function(
            tracer, post_init, "curves.LatticeCurve.__post_init__", "curves")
        undo.append((curve_cls, "__post_init__", post_init))

    dag_cls = getattr(modules["graphs"], "PatternedDag", None)
    edges = vars(dag_cls).get("edges") if inspect.isclass(dag_cls) else None
    if isinstance(edges, (property, functools.cached_property)):
        getter = edges.fget if isinstance(edges, property) else edges.func
        wrapped = _wrap_function(tracer, getter, "graphs.PatternedDag.edges", "graphs")
        if isinstance(edges, property):
            dag_cls.edges = property(wrapped)
        else:
            dag_cls.edges = functools.cached_property(wrapped)
            dag_cls.edges.__set_name__(dag_cls, "edges")
        undo.append((dag_cls, "edges", edges))

    def uninstall():
        for target, key, value in reversed(undo):
            if isinstance(target, dict):
                target[key] = value
            else:
                setattr(target, key, value)
    return uninstall


# ---------------------------------------------------------------------------
# per-layer metrics from one traced round
# ---------------------------------------------------------------------------

# Every per-layer metric: name -> (unit, better). Work counts that must not
# move (nodes, edges, rows, points, bytes) are marked "higher" only because
# the field needs a direction. Layers a workload does not exercise read 0.
LAYER_METRICS = {
    "core.sequence_ns_per_int": ("ns", "lower"),
    "core.profile_ns_per_call": ("ns", "lower"),
    "core.count_ns_per_int": ("ns", "lower"),
    "core.turns_ns_per_label": ("ns", "lower"),
    "core.sieve_ns_per_int": ("ns", "lower"),
    "core.is_prime_calls": ("count", "lower"),
    "graphs.sieves_per_command": ("count", "lower"),
    "graphs.build_dag_s": ("s", "lower"),
    "graphs.verify_s": ("s", "lower"),
    "graphs.edge_sorts": ("count", "lower"),
    "graphs.nodes": ("count", "higher"),
    "graphs.edges": ("count", "higher"),
    "curves.trace_ns_per_segment": ("ns", "lower"),
    "curves.curve_build_ns_per_segment": ("ns", "lower"),
    "curves.stats_ns_per_edge": ("ns", "lower"),
    "curves.curves_built": ("count", "lower"),
    "curves.scan_words": ("count", "lower"),
    "curves.scan_words_per_s": ("words/s", "higher"),
    "curves.scan_yield": ("ratio", "higher"),
    "curves.dragon_s": ("s", "lower"),
    "curves.tessellate_s": ("s", "lower"),
    "tridiag.solves": ("count", "lower"),
    "tridiag.eigh_ms_per_solve": ("ms", "lower"),
    "tridiag.eigenpairs_used_ratio": ("ratio", "higher"),
    "dynamics.chain_build_ms": ("ms", "lower"),
    "dynamics.eigensystem_self_ms": ("ms", "lower"),
    "dynamics.sweep_points": ("count", "higher"),
    "dynamics.walk_ns_per_site_step": ("ns", "lower"),
    "serialize.csv_mb_per_s": ("MB/s", "higher"),
    "serialize.rows": ("count", "higher"),
    "serialize.svg_mb_per_s": ("MB/s", "higher"),
    "serialize.dot_mb_per_s": ("MB/s", "higher"),
    "serialize.json_mb_per_s": ("MB/s", "higher"),
    "serialize.bytes_out": ("bytes", "higher"),
    "cli.parser_ms": ("ms", "lower"),
    "cli.dispatch_self_ms": ("ms", "lower"),
}
for _module in MODULES:
    LAYER_METRICS[f"{_module}.calls"] = ("count", "lower")
    LAYER_METRICS[f"{_module}.total_s"] = ("s", "lower")
    LAYER_METRICS[f"{_module}.self_s"] = ("s", "lower")
LAYER_METRICS["trace.overhead_s"] = ("s", "lower")

def _ratio(num, den, scale=1.0):
    return num * scale / den if den else 0.0


def layer_metrics(summary):
    """Per-layer metric values (name -> value) from one round's span summary."""
    funcs = summary["funcs"]
    counters = summary["counters"]
    module_ns = summary["module_ns"]

    def calls(name):
        return funcs.get(name, (0, 0, 0))[0]

    def total_ns(name):
        return funcs.get(name, (0, 0, 0))[1]

    def self_ns(name):
        return funcs.get(name, (0, 0, 0))[2]

    def count(key):
        return counters.get(key, 0)

    def mb_per_s(byte_key, names):
        seconds = sum(total_ns(n) for n in names) / 1e9
        return _ratio(count(byte_key) / 1e6, seconds)

    m = {}
    m["core.sequence_ns_per_int"] = _ratio(total_ns("core.patterned_sequence"),
                                           count("core.sequence_ints"))
    m["core.profile_ns_per_call"] = _ratio(total_ns("core.profile"), calls("core.profile"))
    m["core.count_ns_per_int"] = _ratio(total_ns("core.count_and_density"),
                                        count("core.count_ints"))
    m["core.turns_ns_per_label"] = _ratio(total_ns("core.turn_sequence"),
                                          count("core.turn_labels"))
    m["core.sieve_ns_per_int"] = _ratio(total_ns("core.primes_up_to"), count("core.sieve_ints"))
    m["core.is_prime_calls"] = calls("core.is_prime")

    m["graphs.sieves_per_command"] = _ratio(count("sieves:cli._cmd_primes"),
                                            count("commands:cli._cmd_primes"))
    m["graphs.build_dag_s"] = total_ns("graphs.build_dag") / 1e9
    m["graphs.verify_s"] = total_ns("graphs.verify_acyclic_and_sort") / 1e9
    m["graphs.edge_sorts"] = count("graphs.edge_sorts")
    m["graphs.nodes"] = count("graphs.nodes")
    m["graphs.edges"] = count("graphs.edges")

    m["curves.trace_ns_per_segment"] = _ratio(total_ns("curves.trace"),
                                              count("curves.trace_segments"))
    m["curves.curve_build_ns_per_segment"] = _ratio(
        total_ns("curves.LatticeCurve.__post_init__"), count("curves.built_segments"))
    m["curves.stats_ns_per_edge"] = _ratio(total_ns("curves.curve_stats"),
                                           count("curves.stats_segments"))
    m["curves.curves_built"] = calls("curves.LatticeCurve.__post_init__")
    scan_words = count("curves.scan_turn_words.items")
    m["curves.scan_words"] = scan_words
    m["curves.scan_words_per_s"] = _ratio(scan_words, total_ns("curves.scan_turn_words"), 1e9)
    m["curves.scan_yield"] = _ratio(count("curves.seahorses"), scan_words)
    m["curves.dragon_s"] = total_ns("curves.iterate_dragon") / 1e9
    m["curves.tessellate_s"] = total_ns("curves.tessellate") / 1e9

    m["tridiag.solves"] = calls("tridiag.eigh_tridiagonal")
    m["tridiag.eigh_ms_per_solve"] = _ratio(total_ns("tridiag.eigh_tridiagonal"),
                                            calls("tridiag.eigh_tridiagonal"), 1e-6)
    m["tridiag.eigenpairs_used_ratio"] = _ratio(count("tridiag.pairs_used"),
                                                count("tridiag.pairs_computed"))

    m["dynamics.chain_build_ms"] = total_ns("dynamics.patterned_chain") / 1e6
    # eigensystem minus the eigensolver it calls: participation ratios and wrapping
    m["dynamics.eigensystem_self_ms"] = (
        total_ns("dynamics.eigensystem") - total_ns("tridiag.eigh_tridiagonal")) / 1e6
    m["dynamics.sweep_points"] = count("dynamics.sweep_points")
    m["dynamics.walk_ns_per_site_step"] = _ratio(total_ns("dynamics.run_walk"),
                                                 count("dynamics.walk_site_steps"))

    m["serialize.csv_mb_per_s"] = mb_per_s("serialize.csv_bytes", ["serialize.write_csv"])
    m["serialize.rows"] = count("serialize.rows")
    m["serialize.svg_mb_per_s"] = mb_per_s("serialize.svg_bytes", ["serialize.curves_svg"])
    m["serialize.dot_mb_per_s"] = mb_per_s("serialize.dot_bytes", ["serialize.dag_dot"])
    m["serialize.json_mb_per_s"] = mb_per_s("serialize.json_bytes", ["serialize.write_json"])

    m["cli.parser_ms"] = _ratio(total_ns("cli.build_parser"), calls("cli.build_parser"), 1e-6)
    m["cli.dispatch_self_ms"] = _ratio(self_ns("cli.cli_dispatch"),
                                       calls("cli.cli_dispatch"), 1e-6)

    for module in MODULES:
        names = [n for n in funcs if n.split(".", 1)[0] == module]
        m[f"{module}.calls"] = sum(calls(n) for n in names)
        m[f"{module}.total_s"] = module_ns.get(module, 0) / 1e9
        m[f"{module}.self_s"] = sum(self_ns(n) for n in names) / 1e9
    return m


def self_time_total_s(summary):
    """Sum of every span's self time, the request root spans included."""
    return sum(rec[2] for rec in summary["funcs"].values()) / 1e9
