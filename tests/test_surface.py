"""The library surface: the public names, and every function in ``src/`` run
by some command line or on :data:`NOT_RUN_BY_COMMANDS`, so dead code shows."""

import inspect
import json
import sys
import types
from pathlib import Path

import pytest

import patterned
from patterned import cli

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
