"""Fuzzing the command line: every command, its flags and its config keys.

Per command, hypothesis draws a set of values, each either a small valid one
or an edge: 0, negatives, 2^63, the value just past the flag's cap, nan,
+-inf, 1e308, -0.0 and non-numeric text. They go in either as flags or as a
``--config`` file. Whatever the values, a run must leave through exit 0, 2 or
3 without a traceback (an exception out of ``cli_dispatch``, or a numpy
warning, which the suite makes an error); a failure prints one stderr line
(argparse's own usage text before it, for a value argparse rejects); and an
SVG from a run that succeeds holds no nan or inf. An error on exit 2 names a
value it was given (or says what is required). The valid values keep every
run small: no flag is drawn at its cap, and ``gen --limit``, which has none,
only up to 500.
"""

import contextlib
import io
import json
import os
import re
import tempfile

from hypothesis import example, given, settings
from hypothesis import strategies as st

from patterned import core, curves, graphs, tridiag
from patterned.cli import cli_dispatch

INF, NAN = float("inf"), float("nan")
EDGE_INTS = (0, -1, -7, 2**63)
EDGE_REALS = (0.0, -0.0, -1.0, 1e308, -1e308, INF, -INF, NAN)
TEXTS = ("abc", "")


def ints(*valid, cap=None):
    past = () if cap is None else (cap + 1,)
    return st.sampled_from(valid + EDGE_INTS + past + TEXTS + (1.5,))


def reals(*valid):
    return st.sampled_from(valid + EDGE_REALS + (2**63,) + TEXTS)


WORD = st.sampled_from(["LLR", "R", "lrRl", "", "LXR", "L" * (curves.DEFAULT_EDGE_CAP + 1)])
FORMAT = st.sampled_from(["csv", "json", "xml"])
SWITCH = st.sampled_from([True, False, 1, "x"])
CURVE = {
    "word": WORD,
    "k": ints(1, 12, cap=curves.DEFAULT_EDGE_CAP),
    "unit": reals(1.0, 0.1, 7.0, 1e-300),
}
MOTION = st.fixed_dictionaries({}, optional={
    "rotation": st.sampled_from([0, 90, 270, 45, -90, 2**63, "90", None, True]),
    "reflect": SWITCH,
    "translation": st.sampled_from([[0, 0], [3, -2], [2**62, 0], [2**62 + 1, 0], [-(2**62), 5],
                                    [5], [1, 2, 3], [1.5, 0], [True, 0], [NAN, 0], "x"]),
})
PLACEMENTS = st.one_of(st.lists(MOTION, min_size=1, max_size=4),
                       st.sampled_from([[], {}, "x", 0, [0], "[{]"]))


def chain(sites_cap):
    return {
        "sites": ints(1, 3, 13, cap=sites_cap),
        "limit": ints(1, 12, 100, 20_000, cap=core.MAX_MEMBERS),
        "alpha": reals(1.0, 0.5),
        "beta": reals(0.5, 2.0),
        "g_l": reals(1.0, 0.3),
        "g_r": reals(1.0, 0.3),
        "omega_mode": st.sampled_from(["energy", "constant", "x"]),
        "omega": reals(1.0, 2.5),
    }


COMMANDS = {
    "gen": {"limit": ints(1, 13, 500), "format": FORMAT},
    "count": {"limit": ints(1, 100, 10**6 + 1, 2**63 - 1)},
    "primes": {"limit": ints(1, 2, 500, cap=core.MAX_PRIMES_LIMIT), "format": FORMAT},
    "turns": {"k": ints(1, 12, 300, cap=core.MAX_MEMBERS), "format": FORMAT},
    "curve": CURVE,
    "seahorse-scan": {"max_len": ints(1, 5, 9, 21, cap=curves.MAX_SEAHORSE_LEN),
                      "all_words": SWITCH, "format": FORMAT},
    "dragon": {**CURVE, "generations": ints(0, 3, 40),
               "max_edges": ints(1, 64, cap=curves.DEFAULT_EDGE_CAP)},
    "tessellate": {**CURVE, "placements": PLACEMENTS},
    "dag": {"limit": ints(2, 19, 300, cap=graphs.MAX_DAG_LIMIT), "gap_primes": SWITCH},
    "walk": {**chain(core.MAX_MEMBERS), "steps": ints(0, 3),
             "theta_l": reals(0.5), "theta_r": reals(-0.5),
             "initial_site": ints(1, 2), "initial_coin": st.sampled_from(["L", "R", "x"]),
             "boundary": st.sampled_from(["reflecting", "absorbing", "x"])},
    "modes": {**chain(tridiag.MAX_DENSE_SITES), "s": reals(0.5, 1.0)},
    "sweep": {**chain(tridiag.MAX_DENSE_SITES),
              "s_grid": st.sampled_from(["0:1:5", "0,0.5,1", "", ",", "0:1:1", "0:1:4000001",
                                         "nan:1:3", "0:inf:3", "x", "1e308,0.5", "0:1:2:3",
                                         "-0.0,1"])},
}
SWITCHES = {"all_words", "gap_primes"}  # flags that take no value


def flag_argv(values):
    argv = []
    for name, value in values.items():
        flag = "--" + name.replace("_", "-")
        if name in SWITCHES:
            argv += [flag] if value is True else []
        else:
            text = json.dumps(value) if isinstance(value, (list, dict)) else str(value)
            argv.append(f"{flag}={text}")  # one token, so a value like -1 is not a flag
    return argv


def dispatch(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_dispatch(argv)
    return code, out.getvalue(), err.getvalue()


def check_run(command, values, as_config):
    with tempfile.TemporaryDirectory() as tmp:
        if as_config:
            config = os.path.join(tmp, "config.json")
            with open(config, "w", encoding="utf-8") as fh:
                json.dump(values, fh)
            argv = [command, "--config", config]
        else:
            argv = [command] + flag_argv(values)
        code, out, err = dispatch(argv)
    assert code in (0, 2, 3), (argv, code, err)
    assert "Traceback" not in err
    if code:
        lines = err.splitlines()
        if err.startswith("usage: "):  # argparse rejected a flag
            assert not as_config and lines[-1].startswith(f"patterned {command}: error: ")
        else:
            assert len(lines) == 1 and lines[0].split(":")[0] in (
                "error", "numerical failure", "internal error"), err
            named = any(re.search(rf"\b{re.escape(n)}\b", err) for n in values)
            assert code == 3 or "required" in err or named, (argv, err)
    elif "<svg" in out:
        assert not re.search(r"\b(nan|inf)\b", out), (argv, out[:300])


def fuzz(command):
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(values=st.fixed_dictionaries({}, optional=COMMANDS[command]), as_config=st.booleans())
    def run(values, as_config):
        check_run(command, values, as_config)
    return run


test_gen = fuzz("gen")
test_count = fuzz("count")
test_primes = fuzz("primes")
test_turns = fuzz("turns")
test_seahorse_scan = fuzz("seahorse-scan")
test_dag = fuzz("dag")
test_walk = fuzz("walk")
test_sweep = fuzz("sweep")
test_dragon = fuzz("dragon")
test_tessellate = fuzz("tessellate")
# the two runs that found the unchecked drawing size and site energies
test_curve = example(values={"word": "LL", "unit": INF}, as_config=False)(
    example(values={"word": "LLLLRR", "unit": 1e308}, as_config=True)(fuzz("curve")))
test_modes = example(values={"sites": 3, "alpha": 1e308, "beta": 1e308}, as_config=False)(
    fuzz("modes"))
