"""Output checks that share no code with the package under test.

Each checker recomputes what a command must print from the command's
parameters alone, with the benchmark's own code: a numpy digit-divisor
classifier, a numpy sieve, a Gaussian-integer curve tracer with a union-find
Euler count, a pruned seahorse enumeration, dense ``numpy.linalg.eigh``
spectra and a coined-walk step. Nothing is compared with saved program
output. A checker raises ``CheckError`` on the first disagreement.
"""

import io
import json
import math
import re

import numpy as np

TURN_L, TURN_R = "L", "R"


class CheckError(Exception):
    """An output disagrees with the benchmark's own computation."""


def _require(ok, message):
    if not ok:
        raise CheckError(message)


# ---------------------------------------------------------------------------
# digit-divisor classifier
# ---------------------------------------------------------------------------

class Classifier:
    """Digit, divisor and match bit masks of 1..limit, grown on demand."""

    def __init__(self):
        self.limit = 0
        self.digit_mask = np.zeros(0, np.int64)
        self.div_mask = np.zeros(0, np.int64)

    def upto(self, limit):
        if limit > self.limit:
            n = np.arange(1, limit + 1, dtype=np.int64)
            digit_mask = np.zeros(limit, np.int64)
            rest = n.copy()
            while True:
                alive = rest > 0
                if not alive.any():
                    break
                digit_mask[alive] |= np.left_shift(1, rest[alive] % 10)
                rest //= 10
            div_mask = np.zeros(limit, np.int64)
            for d in range(1, 10):
                div_mask |= np.where(n % d == 0, 1 << d, 0)
            self.limit, self.digit_mask, self.div_mask = limit, digit_mask, div_mask
        match = self.digit_mask[:limit] & self.div_mask[:limit] & 0b1111111110
        return self.digit_mask[:limit], self.div_mask[:limit], match

    def qualifying(self, limit):
        """Qualifying numbers <= limit and their match masks."""
        _, _, match = self.upto(limit)
        idx = np.nonzero(match)[0]
        return idx + 1, match[idx]

    def first(self, k):
        """The first k qualifying numbers and their match masks."""
        limit = max(16, 2 * k)
        while True:
            ns, match = self.qualifying(limit)
            if len(ns) >= k:
                return ns[:k], match[:k]
            limit *= 2


def popcount(masks):
    masks = np.asarray(masks, np.int64)
    return sum(((masks >> b) & 1) for b in range(10))


def turn_labels(match_masks):
    """L when the match count is odd, R when it is even."""
    return np.where(popcount(match_masks) % 2 == 1, TURN_L, TURN_R)


def _mask_string(mask):
    return "|".join(str(d) for d in range(10) if mask >> d & 1)


def sieve(limit):
    """Boolean primality of 0..limit."""
    is_prime = np.ones(limit + 1, bool)
    is_prime[:2] = False
    for p in range(2, int(math.isqrt(limit)) + 1):
        if is_prime[p]:
            is_prime[p * p::p] = False
    return is_prime


def _has_digit_one(ns):
    ns = np.asarray(ns, np.int64).copy()
    found = np.zeros(len(ns), bool)
    while (ns > 0).any():
        found |= ns % 10 == 1
        ns //= 10
    return found


def _csv_rows(text, header):
    lines = text.split("\n")
    _require(lines[-1] == "", "output does not end with a newline")
    _require(lines[0] == ",".join(header), f"bad CSV header {lines[0]!r}")
    rows = [line.split(",") for line in lines[1:-1]]
    _require(all(len(row) == len(header) for row in rows), "CSV row with a wrong cell count")
    return rows


def check_count(cls, params, out, stdout):
    limit = params["limit"]
    payload = json.loads(out)
    ns, _ = cls.qualifying(limit)
    _require(payload["limit"] == limit, "count: wrong limit")
    _require(payload["count"] == len(ns), f"count: {payload['count']} != {len(ns)}")
    _require(payload["density"] == len(ns) / limit, "count: wrong density")
    if limit != 100:
        _require(payload["claim"] is None, "count: claim reported off limit 100")


def check_gen(cls, params, out, stdout):
    limit = params["limit"]
    digit_mask, div_mask, match = cls.upto(limit)
    idx = np.nonzero(match)[0]
    rows = _csv_rows(out, ("n", "digits", "small_divisors", "matches",
                           "match_count", "patterned", "turn"))
    _require(len(rows) == len(idx), f"gen: {len(rows)} rows, expected {len(idx)}")
    names = {}
    counts = popcount(match[idx])
    for row, i, c in zip(rows, idx.tolist(), counts.tolist()):
        expected = [str(i + 1)]
        for mask in (int(digit_mask[i]), int(div_mask[i]), int(match[i])):
            text = names.get(mask)
            if text is None:
                text = names[mask] = _mask_string(mask)
            expected.append(text)
        expected += [str(c), "true", TURN_L if c % 2 else TURN_R]
        _require(row == expected, f"gen: row {row} != {expected}")


def check_turns(cls, params, out, stdout):
    k = params["k"]
    ns, match = cls.first(k)
    rows = _csv_rows(out, ("index", "n", "turn"))
    _require(len(rows) == k, f"turns: {len(rows)} rows, expected {k}")
    labels = turn_labels(match)
    for i, (row, n, t) in enumerate(zip(rows, ns.tolist(), labels.tolist())):
        _require(row == [str(i + 1), str(n), t], f"turns: row {row} != {[i + 1, n, t]}")


def _qualifying_primes(cls, limit):
    primes = np.nonzero(sieve(limit))[0]
    closed = (primes <= 9) | _has_digit_one(primes)
    if len(primes):
        _, _, match = cls.upto(limit)
        _require(np.array_equal(closed, match[primes - 1] != 0),
                 "closed form disagrees with the classifier on primes")
    return primes, closed


def check_primes(cls, params, out, stdout):
    limit = params["limit"]
    primes, closed = _qualifying_primes(cls, limit)
    rows = _csv_rows(out, ("p", "group"))
    _require(len(rows) == len(primes), f"primes: {len(rows)} rows, expected {len(primes)}")
    groups = np.where(closed, "patterned", "gap")
    for row, p, g in zip(rows, primes.tolist(), groups.tolist()):
        _require(row == [str(p), g], f"primes: row {row} != {[p, g]}")


_DOT_NODE = re.compile(r"^  (\d+) \[(.*)\];$")
_DOT_EDGE = re.compile(r"^  (\d+) -> (\d+)( \[color=steelblue\])?;$")


def check_dag(cls, params, out, stdout):
    limit = params["limit"]
    ns, _ = cls.qualifying(limit)
    primes, closed = _qualifying_primes(cls, limit)
    pp = primes[closed]
    is_prime = set(primes.tolist())
    lines = out.split("\n")
    _require(lines[:2] == ["digraph patterned {", "  rankdir=LR;"] and lines[-2:] == ["}", ""],
             "dag: bad DOT frame")
    nodes, listed, chain_or_plain, colored = [], [], [], []
    for line in lines[2:-2]:
        m = _DOT_NODE.match(line)
        if m:
            nodes.append((int(m.group(1)), m.group(2)))
            continue
        m = _DOT_EDGE.match(line)
        _require(m is not None, f"dag: unparsable line {line!r}")
        edge = (int(m.group(1)), int(m.group(2)))
        _require(edge[0] < edge[1], f"dag: edge {edge} does not point forward")
        listed.append(edge)
        (colored if m.group(3) else chain_or_plain).append(edge)
    _require([n for n, _ in nodes] == ns.tolist(), "dag: node set is not the qualifying numbers")
    for n, attrs in nodes:
        if n in is_prime:
            _require("circle" in attrs, f"dag: prime {n} not drawn as a circle")
            _require(("filled" in attrs) == (n > 9), f"dag: prime {n} wrongly filled")
        else:
            _require(attrs == "shape=ellipse", f"dag: composite {n} drawn as {attrs}")
    chain = set(zip(ns.tolist(), ns[1:].tolist()))
    cluster = set(zip(pp.tolist(), pp[1:].tolist()))
    _require(set(colored) == cluster and len(colored) == len(cluster),
             f"dag: {len(colored)} cluster edges, expected {len(cluster)}")
    _require(set(chain_or_plain) == chain - cluster and len(chain_or_plain) == len(chain - cluster),
             f"dag: {len(chain_or_plain)} plain chain edges, expected {len(chain - cluster)}")
    _require(listed == sorted(listed), "dag: edges not in ascending order")


# ---------------------------------------------------------------------------
# curves
# ---------------------------------------------------------------------------

_UNITS = np.array([1, 1j, -1, -1j])


def trace_word(word):
    """Vertices of the move-then-turn path from the origin, heading east; the
    heading is a Gaussian integer unit."""
    steps = np.frombuffer(word.encode(), np.uint8)
    quarter = np.where(steps == ord(TURN_L), 1, -1)
    heading_index = np.concatenate(([0], np.cumsum(quarter)[:-1])) % 4
    pos = np.concatenate(([0j], np.cumsum(_UNITS[heading_index])))
    return np.stack([pos.real, pos.imag], axis=1).astype(np.int64)


def _keys(points):
    return (points[:, 0] + (1 << 31)) * (1 << 32) + (points[:, 1] + (1 << 31))


def _edge_keys(path):
    a, b = _keys(path[:-1]), _keys(path[1:])
    return np.stack([np.minimum(a, b), np.maximum(a, b)], axis=1)


def regions_euler(paths):
    """Bounded faces of the union of lattice paths: E - V + C, C by union-find."""
    vertex_keys = np.unique(np.concatenate([_keys(p) for p in paths]))
    edges = np.unique(np.concatenate([_edge_keys(p) for p in paths if len(p) > 1]
                                     or [np.zeros((0, 2), np.int64)]), axis=0)
    parent = list(range(len(vertex_keys)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    components = len(vertex_keys)
    for u, v in np.searchsorted(vertex_keys, edges).tolist():
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            components -= 1
    return len(edges) - len(vertex_keys) + components, len(edges)


def _max_run(word):
    return max((len(m.group(0)) for m in re.finditer(r"L+|R+", word)), default=0)


def curve_stats(path, word):
    regions, unique_edges = regions_euler([path])
    _, visits = np.unique(_keys(path), return_counts=True)
    return {
        "segment_count": len(path) - 1,
        "unique_edge_count": unique_edges,
        "revisited_vertex_count": int(np.sum(visits > 1)),
        "bounded_region_count": regions,
        "bounding_box": [int(path[:, 0].min()), int(path[:, 1].min()),
                         int(path[:, 0].max()), int(path[:, 1].max())],
        "max_turn_run": _max_run(word),
    }


def svg_paths(svg):
    """Vertex arrays of every <path> in an SVG, in document order."""
    paths = []
    for d in re.findall(r'<path id="[^"]*" stroke="[^"]*" d="([^"]*)" />', svg):
        tokens = d.split()
        _require(tokens[0] == "M" and all(t == "L" for t in tokens[3::3]), "svg: bad path")
        coords = np.array([float(t) for t in tokens[1::3]]), np.array(
            [float(t) for t in tokens[2::3]])
        paths.append(np.stack(coords, axis=1))
    _require(svg.startswith("<svg ") and svg.endswith("</svg>\n"), "svg: bad document frame")
    return paths


def _same_path(drawn, expected, what):
    _require(drawn.shape == expected.shape and np.array_equal(drawn, expected),
             f"{what}: drawn vertices differ from the traced path")


def check_curve(cls, params, out, stdout):
    word = params["word"]
    path = trace_word(word)
    (drawn,) = svg_paths(out)
    _same_path(drawn, path, "curve")
    stats = json.loads(stdout)
    _require(stats == curve_stats(path, word), f"curve: stats {stats} disagree")


def double(path, generations):
    """Append a quarter-turned copy whose start lands on the current end."""
    for _ in range(generations):
        rotated = np.stack([-path[:, 1], path[:, 0]], axis=1)
        path = np.concatenate([path, rotated[1:] + (path[-1] - rotated[0])])
    return path


def check_dragon(cls, params, out, stdout):
    word, generations = params["word"], params["generations"]
    path = double(trace_word(word), generations)
    _require(len(path) - 1 == len(word) * 2 ** generations, "dragon: internal segment count")
    (drawn,) = svg_paths(out)
    _same_path(drawn, path, "dragon")
    stats = json.loads(stdout)
    expected = curve_stats(path, "")
    for key in ("segment_count", "unique_edge_count", "revisited_vertex_count",
                "bounded_region_count", "bounding_box"):
        _require(stats[key] == expected[key], f"dragon: {key} {stats[key]} != {expected[key]}")
    _require(stats["generations"] == generations and stats["seed_segments"] == len(word),
             "dragon: wrong generation accounting")


def _rotate(path, degrees):
    for _ in range(degrees // 90):
        path = np.stack([-path[:, 1], path[:, 0]], axis=1)
    return path


def check_tessellate(cls, params, out, stdout):
    base = trace_word(params["word"])
    tiles = [_rotate(base, r) for r in params["rotations"]]
    drawn = svg_paths(out)
    _require(len(drawn) == len(tiles), "tessellate: wrong tile count")
    for d, t in zip(drawn, tiles):
        _same_path(d, t, "tessellate")
    regions, unique_edges = regions_euler(tiles)
    placed = sum(len(np.unique(_edge_keys(t), axis=0)) for t in tiles)
    stats = json.loads(stdout)
    expected = {
        "tiles": len(tiles),
        "unique_edge_count": unique_edges,
        "overlap_count": placed - unique_edges,
        "bounded_region_count": regions,
    }
    _require(stats == expected, f"tessellate: stats {stats} != {expected}")


# Paper: up to length 12 the only seahorses are the two pinwheels.
PINWHEELS = {"LLR" * 4, "RRL" * 4}

_REFLECTIONS = [np.array(m) for m in ([[-1, 0], [0, 1]], [[1, 0], [0, -1]],
                                      [[0, 1], [1, 0]], [[0, -1], [-1, 0]])]


def _head_tail_symmetric(path):
    edges = {tuple(e) for e in _edge_keys(path).tolist()}
    s, e = path[0], path[-1]
    for a in _REFLECTIONS:
        shift = e - a @ s
        if np.any(a @ shift + shift):
            continue  # p -> a p + shift is a glide, not a reflection
        image = path @ a.T + shift
        if {tuple(x) for x in _edge_keys(image).tolist()} == edges:
            return True
    return False


def seahorses(max_len):
    """Seahorse words up to max_len, enumerating only words with no run of 3."""
    found = set()
    stack = ["L", "R"]
    while stack:
        word = stack.pop()
        path = trace_word(word)
        regions, _ = regions_euler([path])
        if regions == 1 and _head_tail_symmetric(path):
            found.add(word)
        if len(word) < max_len:
            for letter in "LR":
                if not word.endswith(letter * 2):
                    stack.append(word + letter)
    return found


def check_seahorse_scan(cls, params, out, stdout):
    max_len = params["max_len"]
    rows = _csv_rows(out, ("word", "length"))
    words = [w for w, _ in rows]
    _require(all(length == str(len(w)) for w, length in rows), "seahorse-scan: wrong length")
    _require(len(set(words)) == len(words), "seahorse-scan: repeated word")
    listed = set(words)
    _require(set("".join(words)) <= {"L", "R"}, "seahorse-scan: bad letter")
    mirrored = {w.translate(str.maketrans("LR", "RL")) for w in listed}
    _require(mirrored == listed, "seahorse-scan: mirror words are not paired")
    _require({w for w in listed if len(w) <= 12} == {w for w in PINWHEELS if len(w) <= max_len},
             "seahorse-scan: words up to length 12 are not the two pinwheels")
    _require(listed == seahorses(max_len), "seahorse-scan: word set differs from enumeration")


# ---------------------------------------------------------------------------
# spectra and walks
# ---------------------------------------------------------------------------

def chain_hamiltonian(cls, params, s):
    """Dense H(s) of the chain over the first N qualifying numbers."""
    n = params["sites"]
    _, match = cls.first(n)
    counts = popcount(match).astype(float)
    labels = turn_labels(match)
    repeat = np.concatenate(([False], labels[1:] == labels[:-1]))
    omega = params["alpha"] * counts + params["beta"] * repeat
    g = np.where(labels[:-1] == TURN_L, params["g_l"], params["g_r"])
    h = np.diag((1.0 - s) * omega)
    idx = np.arange(n - 1)
    h[idx, idx + 1] = h[idx + 1, idx] = s * g
    return h


def _close(actual, expected, scale, rel, what):
    actual, expected = np.asarray(actual, float), np.asarray(expected, float)
    _require(actual.shape == expected.shape, f"{what}: shape {actual.shape} != {expected.shape}")
    err = float(np.max(np.abs(actual - expected), initial=0.0))
    _require(err <= rel * scale, f"{what}: off by {err:.3g} (limit {rel * scale:.3g})")


def _numbers(rows):
    return np.array([[float(x) for x in row] for row in rows], float).reshape(len(rows), -1)


def spectrum(h):
    """Eigenvalues, participation ratios, and which modes are well separated
    from their neighbours (only those have a well-defined eigenvector)."""
    values, vectors = np.linalg.eigh(h)
    scale = max(1.0, float(np.max(np.abs(values))))
    wide = np.diff(values) > 1e-3 * scale
    separated = np.ones(len(values), bool)
    separated[1:] &= wide
    separated[:-1] &= wide
    return values, 1.0 / np.sum(vectors ** 4, axis=0), separated, scale


def check_modes(cls, params, out, stdout):
    n = params["sites"]
    h = chain_hamiltonian(cls, params, params["s"])
    values, ref_ratios, separated, scale = spectrum(h)
    data = _numbers(_csv_rows(out, ("index", "eigenvalue", "participation_ratio")))
    _require(data.shape == (n, 3), f"modes: {data.shape[0]} rows, expected {n}")
    _require(np.array_equal(data[:, 0], np.arange(1, n + 1)), "modes: bad index column")
    _close(data[:, 1], values, scale, 1e-8, "modes eigenvalues")
    _close(data[:, 1].sum(), np.trace(h), scale * n, 1e-10, "modes eigenvalue sum vs trace")
    ratios = data[:, 2]
    _require(np.all(ratios >= 1 - 1e-9) and np.all(ratios <= n + 1e-9),
             "modes: participation ratio outside [1, N]")
    _close(ratios[separated], ref_ratios[separated], np.max(ref_ratios), 1e-6,
           "modes participation ratios")


def check_sweep(cls, params, out, stdout):
    n, points = params["sites"], params["points"]
    data = _numbers(_csv_rows(out, ("s", "ground_energy", "spectral_gap",
                                    "ground_participation_ratio")))
    _require(data.shape == (points, 4), f"sweep: {data.shape[0]} rows, expected {points}")
    _close(data[:, 0], np.linspace(0.0, 1.0, points), 1.0, 1e-11, "sweep s grid")
    for (s, ground, gap, ratio) in data:
        values, ref_ratios, separated, scale = spectrum(chain_hamiltonian(cls, params, s))
        _close(ground, values[0], scale, 1e-8, f"sweep ground energy at s={s}")
        _close(gap, values[1] - values[0], scale, 1e-8, f"sweep gap at s={s}")
        _require(1 - 1e-9 <= ratio <= n + 1e-9, "sweep: participation ratio outside [1, N]")
        if separated[0]:
            _close(ratio, ref_ratios[0], ref_ratios[0], 1e-6, f"sweep ground ratio at s={s}")


def walk_series(cls, params):
    """Position distributions of the coined walk with reflecting ends."""
    n, steps = params["sites"], params["steps"]
    _, match = cls.first(n)
    theta = np.where(turn_labels(match) == TURN_L, params["theta_l"], params["theta_r"])
    cos, sin = np.cos(theta), np.sin(theta)
    down = np.zeros(n, complex)   # coin L moves one site down
    up = np.zeros(n, complex)     # coin R moves one site up
    (down if params["initial_coin"] == TURN_L else up)[params["initial_site"] - 1] = 1.0
    series = np.empty((steps + 1, n))
    series[0] = np.abs(down) ** 2 + np.abs(up) ** 2
    for i in range(1, steps + 1):
        rd = cos * down - sin * up
        ru = sin * down + cos * up
        down = np.concatenate((rd[1:], [ru[-1]]))
        up = np.concatenate(([rd[0]], ru[:-1]))
        series[i] = np.abs(down) ** 2 + np.abs(up) ** 2
    return series


def check_walk(cls, params, out, stdout):
    n, steps = params["sites"], params["steps"]
    header = ["step"] + [f"site_{i}" for i in range(1, n + 1)]
    first_newline = out.index("\n")
    _require(out[:first_newline] == ",".join(header), "walk: bad header")
    _require(out.endswith("\n"), "walk: no final newline")
    data = np.loadtxt(io.StringIO(out[first_newline + 1:]), delimiter=",", ndmin=2)
    _require(data.shape == (steps + 1, n + 1), f"walk: shape {data.shape}")
    _require(np.array_equal(data[:, 0], np.arange(steps + 1)), "walk: bad step column")
    probs = data[:, 1:]
    _require(np.all(probs >= 0), "walk: negative probability")
    _close(probs.sum(axis=1), np.ones(steps + 1), 1.0, 1e-10, "walk row sums")
    expected = walk_series(cls, params)
    _close(probs[-1], expected[-1], 1.0, 1e-9, "walk last row")
    _close(probs, expected, 1.0, 1e-9, "walk rows")


CHECKERS = {
    "count": check_count,
    "gen": check_gen,
    "turns": check_turns,
    "primes": check_primes,
    "dag": check_dag,
    "curve": check_curve,
    "seahorse-scan": check_seahorse_scan,
    "dragon": check_dragon,
    "tessellate": check_tessellate,
    "modes": check_modes,
    "sweep": check_sweep,
    "walk": check_walk,
}


def check_flag_named(stderr, flag):
    """An invalid request's message must name the flag or its config key."""
    names = {flag, flag.replace("_", "-")}
    _require(any(re.search(r"(?<![A-Za-z])(--)?" + re.escape(n) + r"(?![A-Za-z])", stderr)
                 for n in names), f"error message does not name {flag!r}: {stderr!r}")
