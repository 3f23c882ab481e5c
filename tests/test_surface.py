"""The library surface: the public names, every function in ``src/`` run by
some command line or on :data:`NOT_RUN_BY_COMMANDS`, so dead code shows, and
the one integer check at every entry that takes a count, size or length."""

import inspect
import json
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import patterned
from patterned import cli, core, curves, dynamics, graphs
from patterned.errors import ResourceLimitError

PUBLIC = [
    "CoinSpec", "CurveStats", "DensityReport", "DigitDivisorProfile", "LatticeCurve",
    "OscillatorChain", "PatternedDag", "RigidMotion", "SeahorseReport", "Spectrum",
    "Tessellation", "adiabatic_sweep", "apply_motion", "build_dag",
    "build_single_excitation_hamiltonian", "count_and_density", "curve_stats",
    "deterministic_walk", "eigensystem", "is_patterned", "is_patterned_prime",
    "is_patterned_two_digit", "is_seahorse", "iterate_dragon", "patterned_sequence", "profile",
    "region_count_flood", "run_walk", "tessellate", "trace", "turn_sequence",
    "verify_acyclic_and_sort",
]

# Functions, or whole classes and functions with what they nest, that no
# command runs, by module-qualified name.
NOT_RUN_BY_COMMANDS = {
    # oracles
    "core.is_patterned_digit_first", "core.is_patterned_divisor_first",
    "core.is_patterned_two_digit", "core.is_patterned_prime", "core.is_prime",
    "core.profile", "core._mask_set",
    "curves.LatticeCurve.__post_init__",  # the checked constructor builders are rebuilt through
    "curves.curve_from_vertices", "curves.bounded_regions_euler", "curves._graph_components",
    "curves.region_count_flood", "curves.bounded_regions_flood", "curves.is_seahorse",
    "dynamics.deterministic_walk", "dynamics.WalkState", "dynamics.localized_state",
    "dynamics.unitary_walk_step",
    # the rest of what c01-c12 import
    "core.patterned_sequence", "core.primes_up_to", "core.turn_sequence",
    "graphs.patterned_primes", "graphs.gap_primes",
    # value equality, which no command compares by, and the curve views that the
    # oracles and c01-c12 read
    "curves.LatticeCurve.__eq__", "dynamics.OscillatorChain.__eq__", "curves.LatticeCurve.vertices",
    "curves.LatticeCurve.headings", "curves.LatticeCurve.start", "curves.LatticeCurve.end",
    "curves.LatticeCurve.edge_set", "curves.Tessellation.edge_set",
}

PLACEMENTS = '[{"rotation": 0}, {"rotation": 90, "reflect": true, "translation": [1, 0]}]'
# Each command with both formats where it has two, and one bad input.
RUNS = [
    (0, "gen", "--limit", "30"), (0, "gen", "--limit", "30", "--format", "json"),
    (2, "gen", "--limit", "0"),
    (0, "count", "--limit", "100"), (2, "count", "--limit", "0"),
    (0, "primes", "--limit", "100"), (0, "primes", "--limit", "100", "--format", "json"),
    (2, "primes", "--limit", "0"),
    (0, "turns", "--k", "20"), (0, "turns", "--k", "20", "--format", "json"),
    (2, "turns", "--k", "0"),
    (0, "curve", "--k", "12"), (0, "curve", "--word", "LLRR"), (2, "curve", "--word", "LXR"),
    (0, "seahorse-scan", "--max-len", "6"),
    (0, "seahorse-scan", "--max-len", "6", "--format", "json"),
    (0, "seahorse-scan", "--max-len", "4", "--all-words"),
    (0, "seahorse-scan", "--max-len", "4", "--all-words", "--format", "json"),
    (2, "seahorse-scan", "--max-len", "0"),
    (0, "dragon", "--word", "LLR", "--generations", "3"),
    (2, "dragon", "--word", "LLR", "--generations", "30", "--max-edges", "64"),
    (0, "tessellate", "--word", "RRLRL", "--placements", PLACEMENTS),
    (2, "tessellate", "--word", "RRLRL", "--placements", "[]"),
    (0, "dag", "--limit", "30", "--gap-primes"), (0, "dag", "--limit", "30", "--no-chain"),
    (2, "dag", "--limit", "1"),
    (0, "walk", "--sites", "5", "--steps", "4"),
    (0, "walk", "--limit", "12", "--steps", "2", "--boundary", "absorbing"),
    (2, "walk", "--sites", "1"),
    (0, "modes", "--sites", "5"), (0, "modes", "--limit", "20", "--omega-mode", "constant"),
    (2, "modes", "--sites", "5", "--alpha", "-5"),
    (0, "sweep", "--sites", "5", "--s-grid", "0:1:3"),
    (0, "sweep", "--sites", "5", "--s-grid", "0,0.5"),
    (2, "sweep", "--sites", "5", "--s-grid", "2"),
]


def test_public_names():
    assert sorted(patterned.__all__) == sorted(PUBLIC) and len(PUBLIC) == 32
    namespace = {}
    exec("from patterned import *", namespace)
    assert {name for name in namespace if name != "__builtins__"} == set(PUBLIC)


def _defined_functions():
    """{(file, first line, name): module-qualified name} of every named function
    in the package, nested ones and methods included, from the source."""
    found = {}

    def walk(code, prefix):
        for const in code.co_consts:
            if isinstance(const, types.CodeType) and not const.co_name.startswith("<"):
                name = prefix + const.co_name
                if const.co_flags & inspect.CO_OPTIMIZED:  # a function, not a class body
                    found[const.co_filename, const.co_firstlineno, const.co_name] = name
                walk(const, name + ".")

    for path in sorted(Path(patterned.__file__).parent.glob("*.py")):
        walk(compile(path.read_text(encoding="utf-8"), str(path), "exec"), path.stem + ".")
    return found


def test_every_function_is_run_by_a_command_or_listed(tmp_path, monkeypatch):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"limit": 20, "format": "json"}))
    runs = [*RUNS, (0, "gen", "--config", str(config))]
    reached, codes = set(), []
    for name, module in list(sys.modules.items()):  # a cached function runs only when cold
        if name.startswith("patterned."):
            for value in vars(module).values():
                if hasattr(value, "cache_clear"):
                    value.cache_clear()

    def record(frame, event, arg):
        if event == "call":
            reached.add(frame.f_code)

    sys.setprofile(record)
    try:
        for expected, *argv in runs:
            for out in ([], ["--out", str(tmp_path / "out")]):
                monkeypatch.setattr(sys, "argv", ["patterned", *argv, *out])
                with pytest.raises(SystemExit) as exit_info:
                    cli.main()
                codes.append((argv[0], expected, exit_info.value.code))
    finally:
        sys.setprofile(None)
    assert [c for c in codes if c[1] != c[2]] == []
    assert {c[0] for c in codes} == set(cli._COMMANDS)
    defined = _defined_functions()
    names = set(defined.values())
    assert NOT_RUN_BY_COMMANDS - names - {name.rsplit(".", 1)[0] for name in names} == set()
    run = {(c.co_filename, c.co_firstlineno, c.co_name) for c in reached}
    unlisted = [name for key, name in defined.items() if key not in run and not any(
        name == listed or name.startswith(listed + ".") for listed in NOT_RUN_BY_COMMANDS)]
    assert unlisted == []


_SEED = curves.trace("LLR")

# Each entry that checks an integer argument with core.check_int: the call, the
# argument it names, its floor and its cap (None where a compound cap follows).
GUARDED = {
    "scan_members(limit=)": (lambda v: core.scan_members(limit=v), "limit", 1, core.MAX_INT),
    "scan_members(k=)": (lambda v: core.scan_members(k=v), "k", 1, core.MAX_MEMBERS),
    "count_patterned": (core.count_patterned, "limit", 1, core.MAX_INT),
    "profile_blocks": (core.profile_blocks, "limit", 1, core.MAX_INT),
    "prime_array": (core.prime_array, "limit", 1, core.MAX_PRIMES_LIMIT),
    "build_dag": (graphs.build_dag, "limit", 2, graphs.MAX_DAG_LIMIT),
    "seahorse_words": (curves.seahorse_words, "max_len", 1, curves.MAX_SEAHORSE_LEN),
    "scan_turn_words": (curves.scan_turn_words, "max_len", 1, curves.MAX_ALL_WORDS_LEN),
    "iterate_dragon(generations)": (lambda v: curves.iterate_dragon(_SEED, v, max_edges=64),
                                    "generations", 0, None),
    "iterate_dragon(max_edges)": (lambda v: curves.iterate_dragon(_SEED, 1, max_edges=v),
                                  "max_edges", 1, core.MAX_INT),
    "run_walk(sites)": (lambda v: dynamics.run_walk(v, 2), "sites", 2, core.MAX_MEMBERS),
    "run_walk(steps)": (lambda v: dynamics.run_walk(5, v), "steps", 0, None),
    "patterned_chain": (lambda v: dynamics.patterned_chain(v, 1.0, 1.0), "sites", 1,
                        core.MAX_MEMBERS),
}


@pytest.mark.parametrize("kind", ["bool", "float", "int64", "below", "past_cap", "2**63"])
@pytest.mark.parametrize("entry", GUARDED)
def test_integer_arguments_checked_at_the_entry(entry, kind):
    call, name, low, cap = GUARDED[entry]
    past = 2**63 if cap is None else cap + 1
    value, error, text = {
        "bool": (True, ValueError, "must be an integer, got bool"),
        "float": (3.0, ValueError, "must be an integer, got float"),
        "int64": (np.int64(3), ValueError, "must be an integer, got int64"),
        "below": (low - 1, ValueError, f"must be >= {low}, got {low - 1}"),
        "past_cap": (past, ResourceLimitError, cap and f"must be <= {cap}, got {past}"),
        "2**63": (2**63, ResourceLimitError, cap and f"must be <= {cap}, got {2**63}"),
    }[kind]
    with pytest.raises(ValueError) as info:
        call(value)
    assert type(info.value) is error
    message = str(info.value)
    # a compound cap words its own message, but names the argument first
    assert message.startswith(f"{name} ") and (text is None or message == f"{name} {text}")


def test_check_int_reports_the_cap_before_the_floor_and_the_width():
    with pytest.raises(ResourceLimitError, match=r"^x must be <= 3, got 5$"):
        core.check_int(5, "x", low=10, cap=3)
    with pytest.raises(ResourceLimitError, match=r"^x must be <= 9223372036854775807, got "):
        core.check_int(2**63, "x")
    assert core.check_int(2**70, "x", 0, None) == 2**70
    assert core.check_int(0, "x", 0) == 0
