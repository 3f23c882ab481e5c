"""Axis-aligned lattice curves driven by L/R turn words.

A turn word is traced as a turtle path on the integer grid: advance one unit,
then rotate the heading 90 degrees left or right. A curve is one read-only
int64 array of its vertices and its turn word ``turns`` as ``core``'s parity.
The module also provides planar statistics, the seahorse classification, rigid
motions of the lattice, the curve-doubling iteration, and tessellations built
from rigid-motion copies. No command calls its oracles: the checked constructor
``LatticeCurve(...)`` with :func:`curve_from_vertices`, the region counters
:func:`bounded_regions_euler` and :func:`region_count_flood`, and
:func:`is_seahorse`.
"""

import operator
from collections import deque
from dataclasses import dataclass
from itertools import product
from typing import Iterable, List, Tuple

import numpy as np

from .core import turn_parity
from .errors import ResourceLimitError

Point = Tuple[int, int]

HEADINGS = ("E", "N", "W", "S")
_STEPS = ((1, 0), (0, 1), (-1, 0), (0, -1))  # unit step of each heading
_STEP_ARRAY = np.array(_STEPS, dtype=np.int64)
# at [dx + 2, dy + 2] of a step clipped to -2..2: its heading, or -1 if not a unit step
_HEADING_OF_STEP = np.full((5, 5), -1)
_HEADING_OF_STEP[_STEP_ARRAY[:, 0] + 2, _STEP_ARRAY[:, 1] + 2] = range(4)
_NO_TURNS = turn_parity("")  # the turn word of a curve built from its geometry

# Cap on curve size for the doubling iteration (design default, overridable)
# and on the segments of a tessellation, all tiles together.
DEFAULT_EDGE_CAP = 2**20
# Bound on every coordinate, so no int64 step, shift or rigid motion wraps.
COORD_BOUND = 2**62


def _step_headings(path: np.ndarray) -> np.ndarray:
    """Heading index of each step of a path, or -1 for a step that is not one axis unit."""
    steps = np.maximum(np.minimum(path[1:] - path[:-1], 2), -2) + 2
    return _HEADING_OF_STEP[steps[:, 0], steps[:, 1]]


def _hold(curve, path: np.ndarray, turns: np.ndarray, final_heading: str):
    """Bound ``path``, make it and ``turns`` read-only and store them, not copies, on ``curve``.
    Builders' int64 arithmetic is exact modulo 2**64, so a wrapped value lands within +-2**62 only
    from a true one >= 3 * 2**62, far past a point within +-2**62 plus a shift or n unit steps."""
    lo, hi = path.min(), path.max()
    if not -COORD_BOUND <= lo <= hi <= COORD_BOUND:
        raise ValueError(f"coordinates must be within +-2**62, got {lo}..{hi}")
    path.flags.writeable = turns.flags.writeable = False
    vars(curve).update(path=path, turns=turns, final_heading=final_heading)
    return curve


@dataclass(frozen=True, eq=False)
class LatticeCurve:
    """Ordered unit-step path on the integer grid.

    ``path`` is the curve: its n + 1 vertices as one read-only ``(n + 1, 2)``
    int64 array. ``turns`` is the turn word, given as labels or ``core``'s parity
    and held as the read-only uint8 parity (1 for L, empty for geometrically built
    curves). ``final_heading`` is the exit heading after the last turn. A curve is
    checked once, where its input enters: ``LatticeCurve(...)`` checks all three and
    keeps its own copies; builders check their arguments and keep the arrays they
    built. ``vertices``, ``headings``, ``start``, ``end`` and ``edge_set()`` are views
    derived on each read. Two curves are equal when their paths, turns and exits are.
    """

    path: np.ndarray
    turns: np.ndarray
    final_heading: str

    def __post_init__(self):
        path = np.array(self.path)
        if not len(path):
            raise ValueError("a curve needs at least one vertex")
        if path.dtype != np.int64 or path.shape[1:] != (2,):
            raise ValueError(f"path must be (n + 1, 2) int64, got {path.shape} {path.dtype}")
        parity = turn_parity(self.turns)
        _hold(self, path, parity, self.final_heading)  # bounded before its steps
        if self.final_heading not in HEADINGS:
            raise ValueError(f"bad final heading {self.final_heading!r}")
        steps = _step_headings(path)
        if (steps < 0).any():
            (ax, ay), (bx, by) = path[np.argmin(steps):][:2].tolist()
            raise ValueError(f"non-unit step ({ax},{ay})->({bx},{by})")
        if len(parity) and len(parity) != len(steps):
            raise ValueError("turn/segment count mismatch")
        exits = np.concatenate((steps[1:], [HEADINGS.index(self.final_heading)]))
        if len(parity) and ((exits - steps) % 4 != 3 - 2 * parity).any():  # +1 for L, +3 for R
            raise ValueError("heading transition inconsistent with turn word")

    def __eq__(self, other):
        return isinstance(other, LatticeCurve) and np.array_equal(self.path, other.path) and (
            np.array_equal(self.turns, other.turns) and self.final_heading == other.final_heading)

    @property
    def vertices(self) -> Tuple[Point, ...]:
        return tuple(map(tuple, self.path.tolist()))

    @property
    def headings(self) -> Tuple[str, ...]:
        """One compass heading per segment."""
        return tuple(map(HEADINGS.__getitem__, _step_headings(self.path).tolist()))

    @property
    def start(self) -> Point:
        return tuple(self.path[0].tolist())

    @property
    def end(self) -> Point:
        return tuple(self.path[-1].tolist())

    @property
    def segment_count(self) -> int:
        return len(self.path) - 1

    def edge_set(self) -> frozenset:
        """The traversed unit edges, each as its (lower, upper) vertex pair."""
        ends = self.path[:-1], self.path[1:]
        lower, upper = np.minimum(*ends).tolist(), np.maximum(*ends).tolist()
        return frozenset(zip(map(tuple, lower), map(tuple, upper)))


@dataclass(frozen=True)
class CurveStats:
    segment_count: int
    unique_edge_count: int
    revisited_vertex_count: int
    bounded_region_count: int
    bounding_box: Tuple[int, int, int, int]  # (min_x, min_y, max_x, max_y)
    max_turn_run: int


@dataclass(frozen=True)
class SeahorseReport:
    max_turn_run_ok: bool
    single_region_ok: bool
    reflection_ok: bool

    @property
    def is_seahorse(self) -> bool:
        return self.max_turn_run_ok and self.single_region_ok and self.reflection_ok


def _norm_edge(a: Point, b: Point) -> Tuple[Point, Point]:
    return (a, b) if a <= b else (b, a)


def trace(turns: Iterable[str]) -> LatticeCurve:
    """Trace a turn word, given as labels or as ``core``'s parity, from (0, 0),
    heading E: per turn, move one unit forward, then rotate. Any other start
    and heading is a rigid motion away (``apply_motion``).

    k turns produce k segments and k+1 vertices. The last rotation only
    sets the exit heading stored on the curve.
    """
    parity = turn_parity(turns)
    # each step's heading, then the exit: +1 per L, +3 per R, in uint8 sums, which wrap at 256
    h = np.concatenate(([0], np.cumsum(3 - 2 * parity, dtype=np.uint8))) & 3
    path = np.concatenate(([(0, 0)], _STEP_ARRAY[h[:-1]])).cumsum(axis=0)
    return _hold(object.__new__(LatticeCurve), path, parity, HEADINGS[h[-1]])


def _last_step_heading(path: np.ndarray) -> str:
    """Exit heading of a curve with no turn word: its last step's, or E."""
    return HEADINGS[_step_headings(path[-2:])[0]] if len(path) > 1 else "E"


def curve_from_vertices(vertices: Iterable[Point]) -> LatticeCurve:
    """Build a curve from an explicit unit-step vertex path (no turn word).

    Coordinates must be integers (numpy integers included); anything else
    raises ``ValueError`` rather than being truncated. Each is read with
    ``operator.index`` and bounded as a Python int, so no numpy type
    promotion can turn integers into floats first.
    """
    vertices = list(vertices)
    try:
        coords = [[operator.index(c) for c in v] for v in vertices]
    except TypeError:
        coords = None
    if coords is None or any(len(v) != 2 for v in coords):
        points = np.array(vertices)
        raise ValueError(f"vertex coordinates must be integers in (x, y) pairs, "
                         f"got {points.dtype} of shape {points.shape}")
    flat = [c for v in coords for c in v]
    if flat and not -COORD_BOUND <= min(flat) <= max(flat) <= COORD_BOUND:
        raise ValueError(f"coordinates must be within +-2**62, got {min(flat)}..{max(flat)}")
    path = np.array(coords, dtype=np.int64).reshape(-1, 2)
    return LatticeCurve(path, _NO_TURNS, _last_step_heading(path))


def max_run_length(parity: np.ndarray) -> int:
    """Length of the longest run of equal adjacent turns in a parity array; 0 for none."""
    ends = np.flatnonzero(parity[1:] != parity[:-1])  # the last index of every run but the last
    return int(np.diff(ends, prepend=-1, append=len(parity) - 1).max())


def _graph_components(adjacency: dict) -> int:
    seen = set()
    count = 0
    for v in adjacency:
        if v in seen:
            continue
        count += 1
        queue = deque([v])
        seen.add(v)
        while queue:
            u = queue.popleft()
            for w in adjacency[u]:
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
    return count


def bounded_regions_euler(edges: Iterable[Tuple[Point, Point]]) -> int:
    """Bounded faces of a planarized lattice-edge set via E - V + C.

    Unit lattice edges can only meet at lattice points, so deduplicating
    vertices and edges is a complete planarization.
    """
    edge_set = {_norm_edge(a, b) for a, b in edges}
    adjacency = {}  # every vertex is an edge end
    for a, b in edge_set:
        adjacency.setdefault(a, []).append(b)
        adjacency.setdefault(b, []).append(a)
    return len(edge_set) - len(adjacency) + _graph_components(adjacency)


def bounded_regions_flood(edges: Iterable[Tuple[Point, Point]]) -> int:
    """Bounded faces counted by flooding unit cells from outside.

    Cells are indexed by their lower-left corner; two side-by-side cells
    communicate unless the lattice edge between them belongs to the curve.
    Cells that the outside flood cannot reach form the bounded regions.
    Independent of the Euler-formula counter by construction.
    """
    edge_set = {_norm_edge(a, b) for a, b in edges}
    if not edge_set:
        return 0
    xs = [p[0] for e in edge_set for p in e]
    ys = [p[1] for e in edge_set for p in e]
    lo_x, hi_x = min(xs) - 1, max(xs)      # cell corner range, box inflated by 1
    lo_y, hi_y = min(ys) - 1, max(ys)

    def blocked(cell, neighbor):
        (cx, cy), (nx, ny) = cell, neighbor
        if nx == cx + 1:    # shared vertical edge
            wall = ((cx + 1, cy), (cx + 1, cy + 1))
        elif nx == cx - 1:
            wall = ((cx, cy), (cx, cy + 1))
        elif ny == cy + 1:  # shared horizontal edge
            wall = ((cx, cy + 1), (cx + 1, cy + 1))
        else:
            wall = ((cx, cy), (cx + 1, cy))
        return wall in edge_set

    def neighbors(cell):
        cx, cy = cell
        for n in ((cx + 1, cy), (cx - 1, cy), (cx, cy + 1), (cx, cy - 1)):
            if lo_x <= n[0] <= hi_x and lo_y <= n[1] <= hi_y and not blocked(cell, n):
                yield n

    def flood(seeds, visited):
        queue = deque(seeds)
        visited.update(seeds)
        while queue:
            cell = queue.popleft()
            for n in neighbors(cell):
                if n not in visited:
                    visited.add(n)
                    queue.append(n)

    border = [(cx, cy) for cx in range(lo_x, hi_x + 1) for cy in (lo_y, hi_y)]
    border += [(cx, cy) for cy in range(lo_y, hi_y + 1) for cx in (lo_x, hi_x)]
    outside = set()
    flood(border, outside)

    regions = 0
    seen = set(outside)
    for cx in range(lo_x, hi_x + 1):
        for cy in range(lo_y, hi_y + 1):
            if (cx, cy) not in seen:
                regions += 1
                flood([(cx, cy)], seen)
    return regions


def _distinct_count(keys: np.ndarray) -> int:
    """The number of distinct values in a sorted array."""
    return keys.size - int(np.count_nonzero(keys[1:] == keys[:-1]))


def distinct_ranks(values: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The distinct values of a 1-D array, ascending, and each value's rank
    among them. A sort: ``np.unique`` hashes first since numpy 2.3 and takes
    about 3.5x as long on a path column."""
    distinct = np.sort(values)
    distinct = distinct[np.concatenate(([True], distinct[1:] != distinct[:-1]))]
    return distinct, distinct.searchsorted(values)


def curve_stats(curve: LatticeCurve) -> CurveStats:
    """Planar statistics of a curve (regions via the Euler relation).

    A curve is one connected path, so E - V + C needs no component search:
    C = 1. V and E count distinct integer keys, by sorting. A vertex's key packs
    its offset from the bounding box's low corner as x * height + y; an edge's
    is twice its lower end's key, plus one when the edge is horizontal. A
    connected path's coordinates fill their range, so these offsets are the
    ranks ``distinct_ranks`` would give, found in O(n) without a sort.
    """
    x, y = curve.path.T  # reduced a column at a time: numpy reduces axis 0 of (n + 1, 2) slowly
    box = x.min(), y.min(), x.max(), y.max()
    x, y = x - box[0], y - box[1]
    keys = x * (box[3] - box[1] + 1) + y
    edges = _distinct_count(np.sort(2 * np.minimum(keys[:-1], keys[1:]) + (y[1:] == y[:-1])))
    keys.sort()
    repeats = keys[1:][keys[1:] == keys[:-1]]  # a vertex's key once per return to it
    revisits = len(repeats) and int(np.count_nonzero(repeats[1:] != repeats[:-1])) + 1
    return CurveStats(
        segment_count=curve.segment_count,
        unique_edge_count=edges,
        revisited_vertex_count=revisits,
        bounded_region_count=edges - (len(keys) - len(repeats)) + 1,
        bounding_box=tuple(map(int, box)),
        max_turn_run=max_run_length(curve.turns),
    )


def region_count_flood(curve: LatticeCurve) -> int:
    """Independent bounded-region count of a curve, by cell flooding."""
    return bounded_regions_flood(curve.edge_set())


# ---------------------------------------------------------------------------
# rigid motions and tessellation
# ---------------------------------------------------------------------------

# the counterclockwise turn by each rotation, as (a, b, c, d) in RigidMotion.matrix
_ROTATIONS = {0: (1, 0, 0, 1), 90: (0, -1, 1, 0), 180: (-1, 0, 0, -1), 270: (0, 1, -1, 0)}


@dataclass(frozen=True)
class RigidMotion:
    """Lattice isometry: optional x-axis reflection, then rotation, then shift."""

    rotation: int = 0            # degrees, multiple of 90
    reflect: bool = False        # reflect across the x-axis before rotating
    translation: Point = (0, 0)

    def __post_init__(self):
        if type(self.rotation) is not int or self.rotation not in _ROTATIONS:
            raise ValueError(f"rotation must be one of 0/90/180/270, got {self.rotation}")
        if type(self.reflect) is not bool:
            raise ValueError(f"reflect must be True or False, got {self.reflect!r}")
        t = self.translation
        if not isinstance(t, (tuple, list)) or len(t) != 2 or any(
                not isinstance(c, int) or isinstance(c, bool) for c in t):
            raise ValueError(f"translation must be an integer vector (x, y), got {t!r}")
        if not all(-COORD_BOUND <= c <= COORD_BOUND for c in t):
            raise ValueError(f"translation coordinates must be within +-2**62, got {t!r}")

    @property
    def matrix(self) -> Tuple[int, int, int, int]:
        """The linear part (a, b, c, d): (x, y) -> (a x + b y, c x + d y)."""
        a, b, c, d = _ROTATIONS[self.rotation]
        return (a, -b, c, -d) if self.reflect else (a, b, c, d)

    def apply_vector(self, p: Point) -> Point:
        a, b, c, d = self.matrix
        x, y = p
        return (a * x + b * y, c * x + d * y)


def _moved(path: np.ndarray, matrix: Tuple[int, int, int, int], shift) -> np.ndarray:
    """The vertices mapped by p -> M p + shift, M given as RigidMotion.matrix."""
    return path @ np.array(matrix).reshape(2, 2).T + shift


def apply_motion(curve: LatticeCurve, motion: RigidMotion) -> LatticeCurve:
    """Transform a curve by a rigid motion; turn chirality flips under reflection."""
    turns = curve.turns ^ 1 if motion.reflect else curve.turns
    dx, dy = motion.apply_vector(_STEPS[HEADINGS.index(curve.final_heading)])
    path = _moved(curve.path, motion.matrix, motion.translation)
    exit_heading = HEADINGS[_HEADING_OF_STEP[dx + 2, dy + 2]]
    return _hold(object.__new__(LatticeCurve), path, turns, exit_heading)


def iterate_dragon(
    curve: LatticeCurve,
    generations: int,
    max_edges: int = DEFAULT_EDGE_CAP,
) -> LatticeCurve:
    """Curve-doubling iteration: append a quarter-turned copy of the curve.

    Each generation rotates the whole curve 90 degrees counterclockwise
    about the origin and translates the rotated copy so its start lands on
    the current end, then concatenates. Raw segment count doubles per
    generation (before any edge deduplication). The result has no turn word.
    A curve with no segments is its own doubling, so it is returned as it is.
    """
    if not isinstance(generations, int) or generations < 0:
        raise ValueError(f"generations must be a non-negative integer, got {generations!r}")
    if generations == 0 or curve.segment_count == 0:
        return curve
    path, quarter = curve.path, RigidMotion(90).matrix
    for _ in range(generations):
        if 2 * (len(path) - 1) > max_edges:
            raise ResourceLimitError(f"generations {generations} would double {len(path) - 1} "
                                     f"segments past the max_edges cap of {max_edges}")
        turned = _moved(path, quarter, 0)
        path = np.concatenate((path, turned[1:] + (path[-1] - turned[0])))
    return _hold(object.__new__(LatticeCurve), path, _NO_TURNS, _last_step_heading(path))


@dataclass(frozen=True)
class Tessellation:
    """Union of rigid-motion copies of a base curve, with overlap accounting.

    ``overlap_count`` is the placed edges (each tile's distinct edges, summed)
    minus the union's distinct edges. ``edge_set()`` is derived from the tiles
    on each read.
    """

    tiles: Tuple[LatticeCurve, ...]       # tile i = placement i applied to the base
    unique_edge_count: int
    overlap_count: int
    bounded_region_count: int

    def edge_set(self) -> frozenset:
        """The union's unit edges, each as its (lower, upper) vertex pair."""
        return frozenset().union(*(tile.edge_set() for tile in self.tiles))


def _group_count(count: int, pairs) -> int:
    """The groups that items 0..count - 1 form when each (a, b) pair joins
    two of them, by a union-find."""
    parent = list(range(count))

    def root(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]  # path halving
            i = parent[i]
        return i

    for a, b in pairs:
        a, b = root(a), root(b)
        if a != b:
            parent[a] = b
            count -= 1
    return count


def tessellate(curve: LatticeCurve, placements: Iterable[RigidMotion]) -> Tessellation:
    """Place copies of a curve and count the union's edges, overlap and regions.

    Every tile is keyed at once, as ``curve_stats`` keys one curve: a vertex
    by x * height + y and an edge by the sum of its ends' keys. Here x and y
    are a coordinate's rank among all the tiles' (``distinct_ranks``), and the
    height is the count of distinct y, rounded up to even. A unit step's ends
    are adjacent integers, both coordinates, so their ranks are adjacent too:
    the sum is odd for a vertical edge and even for a horizontal one. Sorting
    the keys gives the union's edges E and vertices V; a vertex on two tiles
    joins them, and as every tile is connected, the tile groups are the
    components C: regions = E - V + C. A rigid motion keeps distinct edges
    distinct, so each tile places as many edges as the first. The tiles'
    segments, at least one per tile, are capped at ``DEFAULT_EDGE_CAP`` before
    any tile is built, so there are at most 2^21 vertices: keys stay below
    2^42, and keys times the tile count below 2^62.
    """
    motions = list(placements)
    if not motions:
        raise ValueError("tessellate needs at least one placement")
    for i, motion in enumerate(motions):
        if not isinstance(motion, RigidMotion):
            raise ValueError(f"placements[{i}] must be a RigidMotion, got {type(motion).__name__}")
    count = len(motions)
    segments = count * max(curve.segment_count, 1)
    if segments > DEFAULT_EDGE_CAP:
        raise ResourceLimitError(
            f"placements must make <= {DEFAULT_EDGE_CAP} segments, "
            f"got {count} of {curve.segment_count} segments each ({segments})")
    tiles = []
    for i, motion in enumerate(motions):
        try:
            tiles.append(apply_motion(curve, motion))
        except ValueError as exc:  # a translation that moves the tile past the bound
            raise ValueError(f"placements[{i}]: {exc}") from None
    x, y = np.concatenate([tile.path for tile in tiles]).T
    (_, x), (ys, y) = distinct_ranks(x), distinct_ranks(y)
    keys = (x * (len(ys) + len(ys) % 2) + y).reshape(count, -1)
    del x, y
    edges = keys[:, :-1] + keys[:, 1:]
    placed = count * _distinct_count(np.sort(edges[0]))
    edges = edges.ravel()
    edges.sort()
    unique_edges = _distinct_count(edges)
    del edges
    tagged = keys * count  # a vertex's key and its tile, in one sortable integer
    tagged += np.arange(count)[:, None]
    tagged = tagged.ravel()
    tagged.sort()
    vertices = tagged // count
    links = (vertices[1:] == vertices[:-1]) & (tagged[1:] != tagged[:-1])  # a vertex on two tiles
    pairs = zip((tagged[:-1][links] % count).tolist(), (tagged[1:][links] % count).tolist())
    return Tessellation(
        tuple(tiles),
        unique_edge_count=unique_edges,
        overlap_count=placed - unique_edges,
        bounded_region_count=unique_edges - _distinct_count(vertices)
        + _group_count(count, set(pairs)),
    )


# ---------------------------------------------------------------------------
# seahorse classification
# ---------------------------------------------------------------------------

# the lattice reflections, across horizontal, diagonal, vertical and anti-diagonal axes
_REFLECTIONS = tuple(RigidMotion(r, True).matrix for r in _ROTATIONS)


def _reflections_sending(s: Point, e: Point):
    """Lattice reflections p -> R p + t that map point s to point e, as
    (a, b, c, d, tx, ty) with R = RigidMotion.matrix: t = e - R s for each
    reflecting R with (R + I)(e - s) = 0, the condition for an involution.
    s = e admits all four; s != e at most one, across the bisector of s-e."""
    (sx, sy), (ex, ey) = s, e
    dx, dy = ex - sx, ey - sy
    for a, b, c, d in _REFLECTIONS:
        if (a + 1) * dx + b * dy == 0 == c * dx + (d + 1) * dy:
            yield a, b, c, d, ex - a * sx - b * sy, ey - c * sx - d * sy


def _head_tail_symmetric(edge_set, start: Point, end: Point) -> bool:
    """Whether a lattice reflection sending start to end maps the edge set onto itself."""
    return any(
        edge_set == {_norm_edge((a * x + b * y + tx, c * x + d * y + ty),
                                (a * u + b * v + tx, c * u + d * v + ty))
                     for (x, y), (u, v) in edge_set}
        for a, b, c, d, tx, ty in _reflections_sending(start, end)
    )


def is_seahorse(curve: LatticeCurve) -> SeahorseReport:
    """Check the three seahorse conditions on a traced curve.

    1. The turn word has no run of three or more identical turns.
    2. The curve encloses exactly one bounded region.
    3. Some lattice reflection maps the edge set onto itself while sending
       the start vertex to the end vertex (head-tail symmetry).
    """
    if not len(curve.turns):
        raise ValueError("seahorse classification needs a curve traced from a turn word")
    stats = curve_stats(curve)
    return SeahorseReport(
        max_turn_run_ok=stats.max_turn_run <= 2,
        single_region_ok=stats.bounded_region_count == 1,
        reflection_ok=_head_tail_symmetric(curve.edge_set(), curve.start, curve.end),
    )


# Longest words the scans accept, checked before any work: the pruned walk
# takes about 12 s at 30; --all-words lists 2^(max_len+1) - 2 words.
MAX_SEAHORSE_LEN = 30
MAX_ALL_WORDS_LEN = 20


def _check_max_len(max_len: int, cap: int) -> None:
    if not isinstance(max_len, int) or max_len < 1:
        raise ValueError(f"max_len must be a positive integer, got {max_len!r}")
    if max_len > cap:
        raise ResourceLimitError(f"max_len {max_len} exceeds the cap of {cap}")


def _walk_turn_words(max_len: int, prune: bool):
    """Depth-first walk over turn words of length 1..max_len, traced as by ``trace``.

    A word's last turn only sets its exit heading, so p+L and p+R share one
    curve. Once per prefix p (alphabetical within each length) this yields
    ``(p, regions, end, edges, (ok_L, ok_R))``: that curve's bounded-region
    count, last vertex and live edge set, and whether p+c has no run of three.
    On a connected path a step adds a face exactly when it adds a new edge
    ending on a visited vertex, so the count costs O(1) per step. ``prune``
    drops words with a run of three or more than one region; neither rule
    is ever undone by extending a word.
    """
    visited = {(0, 0)}
    edges = set()
    added = []  # per depth: the edge and vertex that step added, or None
    stack = [("", 0, 0, 0, 0, True)]  # prefix, x, y, heading, regions, no triple run
    while stack:
        prefix, x, y, heading, regions, clean = stack.pop()
        while len(added) > len(prefix):
            edge, vertex = added.pop()
            edges.discard(edge)
            visited.discard(vertex)
        dx, dy = _STEPS[heading]
        end = (x + dx, y + dy)
        edge = _norm_edge((x, y), end)
        new_edge, new_vertex = edge not in edges, end not in visited
        if new_edge:
            edges.add(edge)
            regions += not new_vertex
        if new_vertex:
            visited.add(end)
        added.append((edge if new_edge else None, end if new_vertex else None))
        if prune and regions > 1:
            continue
        oks = (clean and not prefix.endswith("LL"), clean and not prefix.endswith("RR"))
        yield prefix, regions, end, edges, oks
        if len(prefix) + 1 < max_len:
            for c, turn, ok in (("R", 3, oks[1]), ("L", 1, oks[0])):  # L is popped first
                if ok or not prune:
                    stack.append((prefix + c, *end, (heading + turn) % 4, regions, ok))


def scan_turn_words(max_len: int) -> List[Tuple[str, SeahorseReport]]:
    """Classify every turn word of length 1..max_len (2^(max_len+1) - 2 words),
    listed by length, then alphabetically."""
    _check_max_len(max_len, MAX_ALL_WORDS_LEN)
    by_length = [[] for _ in range(max_len + 1)]
    # eight shared reports, not one per row: the listing can hold millions of rows
    report = {flags: SeahorseReport(*flags) for flags in product((False, True), repeat=3)}
    for prefix, regions, end, edges, oks in _walk_turn_words(max_len, prune=False):
        symmetric = _head_tail_symmetric(edges, (0, 0), end)
        by_length[len(prefix) + 1].extend(
            (prefix + c, report[ok, regions == 1, symmetric]) for c, ok in zip("LR", oks)
        )
    return [row for rows in by_length for row in rows]


def seahorse_words(max_len: int) -> List[str]:
    """Turn words of length <= max_len whose curves satisfy all three conditions,
    listed by length, then alphabetically; found by the pruned walk, which
    tests the reflection only on curves with exactly one region."""
    _check_max_len(max_len, MAX_SEAHORSE_LEN)
    by_length = [[] for _ in range(max_len + 1)]
    for prefix, regions, end, edges, oks in _walk_turn_words(max_len, prune=True):
        if regions == 1 and _head_tail_symmetric(edges, (0, 0), end):
            by_length[len(prefix) + 1].extend(prefix + c for c, ok in zip("LR", oks) if ok)
    return [word for words in by_length for word in words]
