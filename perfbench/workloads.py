"""Seeded operation lists for the four benchmark workloads.

An operation is a plain dict, so the parent can hand a whole round to a
worker process as JSON:

* ``argv``: the command line given to ``patterned.cli.cli_dispatch``. The
  placeholders ``{out}`` and ``{dir}`` stand for the operation's output path
  and the run's work directory.
* ``kind`` and ``params``: what the checker in ``checks.py`` needs to
  recompute the output on its own.
* ``expect_rc`` and ``flag``: the exit code the operation must end with and,
  for an invalid request, the flag its error message must name.

Every input is drawn from ``random.Random("<workload>:<seed>")``. Sizes are
fixed, and only values that do not change the amount of work (limits within
a narrow band, the letters of words, coupling constants and coin angles, the
order of the small requests) depend on the seed, so that runs with different
seeds do the same work.
"""

import json
import math
import random

WORKLOADS = ("bulk", "small-requests")

FOUR_ROTATIONS = [{"rotation": r} for r in (0, 90, 180, 270)]

# The one request that fails on this code: a config value of the wrong type
# is accepted instead of being rejected with exit 2 and the key named.
BAD_CONFIG_NAME = "sites_true.json"
BAD_CONFIG = {"sites": True}

SMALL_REQUESTS_PER_ROUND = 500


def _op(kind, argv, params, expect_rc=0, flag=None):
    return {
        "kind": kind,
        "argv": argv + ["--out", "{out}"],
        "params": params,
        "expect_rc": expect_rc,
        "flag": flag,
    }


def _size(rng, lo, hi):
    """Log-uniform integer in [lo, hi]: most small requests are tiny."""
    return min(hi, int(math.exp(rng.uniform(math.log(lo), math.log(hi + 1)))))


def _word(rng, length):
    return "".join(rng.choice("LR") for _ in range(length))


def _chain_params(rng):
    return {
        "alpha": round(rng.uniform(0.5, 1.5), 6),
        "beta": round(rng.uniform(0.1, 0.9), 6),
        "g_l": round(rng.uniform(0.2, 2.0), 6),
        "g_r": round(rng.uniform(0.2, 2.0), 6),
    }


def _chain_argv(p):
    return [
        "--sites", str(p["sites"]),
        "--alpha", repr(p["alpha"]), "--beta", repr(p["beta"]),
        "--g-l", repr(p["g_l"]), "--g-r", repr(p["g_r"]),
    ]


def count_op(limit):
    return _op("count", ["count", "--limit", str(limit)], {"limit": limit})


def gen_op(limit):
    return _op("gen", ["gen", "--limit", str(limit)], {"limit": limit})


def turns_op(k):
    return _op("turns", ["turns", "--k", str(k)], {"k": k})


def primes_op(limit):
    return _op("primes", ["primes", "--limit", str(limit)], {"limit": limit})


def dag_op(limit):
    return _op("dag", ["dag", "--limit", str(limit)], {"limit": limit})


def curve_op(word):
    return _op("curve", ["curve", "--word", word], {"word": word})


def scan_op(max_len):
    return _op("seahorse-scan", ["seahorse-scan", "--max-len", str(max_len)],
               {"max_len": max_len})


def dragon_op(word, generations):
    return _op("dragon",
               ["dragon", "--word", word, "--generations", str(generations)],
               {"word": word, "generations": generations})


def tessellate_op(word):
    return _op("tessellate",
               ["tessellate", "--word", word,
                "--placements", json.dumps(FOUR_ROTATIONS)],
               {"word": word, "rotations": [0, 90, 180, 270]})


def modes_op(params):
    return _op("modes", ["modes"] + _chain_argv(params) + ["--s", repr(params["s"])],
               params)


def sweep_op(params):
    argv = ["sweep"] + _chain_argv(params) + ["--s-grid", f"0:1:{params['points']}"]
    return _op("sweep", argv, params)


def walk_op(params):
    argv = [
        "walk", "--sites", str(params["sites"]), "--steps", str(params["steps"]),
        "--theta-l", repr(params["theta_l"]), "--theta-r", repr(params["theta_r"]),
        "--initial-site", str(params["initial_site"]),
        "--initial-coin", params["initial_coin"],
    ]
    return _op("walk", argv, params)


def _walk_params(rng, sites, steps):
    # Coin angles away from 0 and +-pi/2 (where the walk barely spreads) and a
    # start in the middle third keep the number of nonzero cells, and so the
    # cost of writing them, alike for every seed.
    return {
        "sites": sites,
        "steps": steps,
        "theta_l": round(rng.choice((-1, 1)) * rng.uniform(0.5, 1.0), 6),
        "theta_r": round(rng.choice((-1, 1)) * rng.uniform(0.5, 1.0), 6),
        "initial_site": rng.randint((sites + 2) // 3, max(1, 2 * sites // 3)),
        "initial_coin": rng.choice("LR"),
    }


def _numbers(rng):
    """Classifier and DAG work; no curve or eigensolver code runs."""
    return [
        gen_op(15_000 + rng.randrange(150)),
        count_op(80_000 + rng.randrange(150)),
        turns_op(8_000 + rng.randrange(150)),
        primes_op(150_000 + rng.randrange(150)),
        dag_op(15_000 + rng.randrange(150)),
    ]


def _geometry(rng):
    """Curve tracing and SVG output on explicit words; no classifier work."""
    return [
        scan_op(12),
        curve_op(_word(rng, 15_000)),
        dragon_op("LLR", 13),
        tessellate_op(_word(rng, 3_000)),
    ]


def _spectra(rng):
    """Eigensolves (every pair for modes, two for sweep) and the coined walk."""
    modes = dict(_chain_params(rng), sites=100, s=round(rng.uniform(0.2, 0.8), 6))
    sweep = dict(_chain_params(rng), sites=30, points=21)
    return [modes_op(modes), sweep_op(sweep), walk_op(_walk_params(rng, 200, 500))]


def bulk(rng):
    """Large single commands: the classifier and DAG group, the curve group
    (no classifier work) and the spectra group, each op timed on its own."""
    return _numbers(rng) + _geometry(rng) + _spectra(rng)


def _invalid(choice, rng):
    """A request that must exit 2 and name the offending flag."""
    if choice == 0:
        return _op("invalid", ["count", "--limit", "0"], {}, 2, "limit")
    if choice == 1:
        return _op("invalid", ["gen", "--limit", str(-rng.randint(1, 999))], {}, 2, "limit")
    if choice == 2:
        return _op("invalid", ["turns", "--k", "0"], {}, 2, "k")
    if choice == 3:
        bad = _word(rng, rng.randint(1, 10)) + rng.choice("XYZ")
        return _op("invalid", ["curve", "--word", bad], {}, 2, "word")
    if choice == 4:
        return _op("invalid", ["primes", "--limit", "many"], {}, 2, "limit")
    if choice == 5:
        return _op("invalid", ["modes", "--sites", "few"], {}, 2, "sites")
    if choice == 6:
        return _op("invalid", ["sweep", "--sites", "5", "--s-grid", "0:1"], {}, 2, "s_grid")
    if choice == 7:
        return _op("invalid", ["dag", "--limit", "1"], {}, 2, "limit")
    if choice == 8:
        return _op("invalid", ["walk", "--sites", "5", "--steps", "-1"], {}, 2, "steps")
    return _op("invalid", ["gen", "--limit", "10", "--format", "xml"], {}, 2, "format")


def _small_shape(shape):
    """Kind and size of one small request, drawn from the fixed mix."""
    roll = shape.random()
    for bound, kind, size in (
        (0.15, "count", lambda: _size(shape, 1, 5000)),
        (0.27, "gen", lambda: _size(shape, 1, 3000)),
        (0.39, "turns", lambda: _size(shape, 1, 2000)),
        (0.47, "primes", lambda: _size(shape, 1, 5000)),
        (0.55, "dag", lambda: _size(shape, 2, 3000)),
        (0.69, "curve", lambda: _size(shape, 1, 64)),
        (0.78, "modes", lambda: _size(shape, 1, 30)),
        (0.81, "sweep", lambda: (shape.randint(2, 12), shape.randint(2, 5))),
        (0.84, "walk", lambda: (shape.randint(2, 30), shape.randint(0, 30))),
        (0.86, "seahorse-scan", lambda: shape.randint(1, 6)),
        (0.88, "dragon", lambda: (shape.randint(1, 4), shape.randint(0, 5))),
        (0.90, "tessellate", lambda: shape.randint(1, 16)),
    ):
        if roll < bound:
            return kind, size()
    return "invalid", shape.randrange(10)


def _jitter(rng, n):
    """n plus up to 2%, so the seed moves limits without moving the work."""
    return n + rng.randrange(max(1, n // 50))


def _small(kind, size, rng):
    """One small request of a given kind and size; the seed fills in the rest."""
    if kind == "count":
        return count_op(_jitter(rng, size))
    if kind == "gen":
        return gen_op(_jitter(rng, size))
    if kind == "turns":
        return turns_op(_jitter(rng, size))
    if kind == "primes":
        return primes_op(_jitter(rng, size))
    if kind == "dag":
        return dag_op(_jitter(rng, size))
    if kind == "curve":
        return curve_op(_word(rng, size))
    if kind == "modes":
        return modes_op(dict(_chain_params(rng), sites=size, s=round(rng.uniform(0.0, 1.0), 6)))
    if kind == "sweep":
        return sweep_op(dict(_chain_params(rng), sites=size[0], points=size[1]))
    if kind == "walk":
        return walk_op(_walk_params(rng, *size))
    if kind == "seahorse-scan":
        return scan_op(size)
    if kind == "dragon":
        return dragon_op(_word(rng, size[0]), size[1])
    if kind == "tessellate":
        return tessellate_op(_word(rng, size))
    return _invalid(size, rng)


def small_requests(rng):
    """One closed-loop client sending small commands back to back.

    The kinds and sizes come from a fixed draw, the same for every seed, so
    that every seed asks for the same work (the slowest requests set the tail
    latency); the seed sets their order, words, limits within 2%, chain and
    coin parameters, and the bad values of invalid requests.
    """
    shape = random.Random("small-requests mix")
    shapes = [_small_shape(shape) for _ in range(SMALL_REQUESTS_PER_ROUND - 1)]
    rng.shuffle(shapes)
    ops = [_small(kind, size, rng) for kind, size in shapes]
    bad_config = _op("config-type", ["modes", "--config", "{dir}/" + BAD_CONFIG_NAME],
                     {}, 2, "sites")
    ops.insert(len(ops) // 2, bad_config)
    return ops


_BUILDERS = {"bulk": bulk, "small-requests": small_requests}


def build(workload, seed):
    """The operations of one round of ``workload`` for ``seed``."""
    return _BUILDERS[workload](random.Random(f"{workload}:{seed}"))


def write_fixtures(work_dir):
    """Files that operations read through the ``{dir}`` placeholder."""
    with open(f"{work_dir}/{BAD_CONFIG_NAME}", "w", encoding="utf-8") as fh:
        json.dump(BAD_CONFIG, fh)
