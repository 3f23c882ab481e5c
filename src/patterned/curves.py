"""Axis-aligned lattice curves driven by L/R turn words.

A turn word is traced as a turtle path on the integer grid: advance one unit,
then rotate the heading 90 degrees left or right. The module also provides
planar statistics (two independent bounded-region counters), the seahorse
classification, rigid motions of the lattice, the curve-doubling iteration,
and tessellations built from rigid-motion copies.
"""

from collections import deque
from dataclasses import dataclass
from itertools import product
from operator import index
from typing import Iterable, List, Tuple

from .core import TURN_LEFT, TURN_RIGHT
from .errors import ResourceLimitError

Point = Tuple[int, int]

HEADINGS = ("E", "N", "W", "S")
_STEPS = ((1, 0), (0, 1), (-1, 0), (0, -1))  # unit step of each heading
_STEP_INDEX = {step: i for i, step in enumerate(_STEPS)}
_TURN = {TURN_LEFT: 1, TURN_RIGHT: 3}  # added to the heading index, mod 4

# Cap on curve size for the doubling iteration (design default, overridable).
DEFAULT_EDGE_CAP = 2**20


def _step_indices(vertices) -> List[int]:
    """Heading index of each step of a vertex path; each step must be one unit along an axis."""
    get = _STEP_INDEX.get
    indices = [get((bx - ax, by - ay)) for (ax, ay), (bx, by) in zip(vertices, vertices[1:])]
    if None in indices:
        i = indices.index(None)
        (ax, ay), (bx, by) = vertices[i], vertices[i + 1]
        raise ValueError(f"non-unit step ({ax},{ay})->({bx},{by})")
    return indices


@dataclass(frozen=True)
class LatticeCurve:
    """Ordered unit-step path on the integer grid.

    ``final_heading`` is the exit heading after the last turn, kept so curves
    can be iterated or composed. ``source_turns`` is empty for geometrically
    built curves. Every curve is checked here, once: the builders compute no
    headings, and ``headings`` is derived from the vertex steps.
    """

    vertices: Tuple[Point, ...]
    source_turns: Tuple[str, ...]
    final_heading: str

    def __post_init__(self):
        if not self.vertices:
            raise ValueError("a curve needs at least one vertex")
        if self.final_heading not in HEADINGS:
            raise ValueError(f"bad final heading {self.final_heading!r}")
        steps = _step_indices(self.vertices)
        turns = self.source_turns
        if turns:
            if len(turns) != len(steps):
                raise ValueError("turn/segment count mismatch")
            exits = steps[1:] + [HEADINGS.index(self.final_heading)]
            turn = _TURN.get
            for h, t, nxt in zip(steps, turns, exits):
                d = turn(t)
                if d is None:
                    raise ValueError(f"turn label must be 'L' or 'R', got {t!r}")
                if nxt != (h + d) % 4:
                    raise ValueError("heading transition inconsistent with turn word")

    @property
    def headings(self) -> Tuple[str, ...]:
        """One compass heading per segment."""
        return tuple(HEADINGS[i] for i in _step_indices(self.vertices))

    @property
    def start(self) -> Point:
        return self.vertices[0]

    @property
    def end(self) -> Point:
        return self.vertices[-1]

    @property
    def segment_count(self) -> int:
        return len(self.vertices) - 1

    def edges(self) -> List[Tuple[Point, Point]]:
        """Traversed unit edges in order, normalized, duplicates kept."""
        return [_norm_edge(a, b) for a, b in zip(self.vertices, self.vertices[1:])]

    def edge_set(self) -> frozenset:
        return frozenset(self.edges())


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


def trace(
    turns: Iterable[str],
    start: Point = (0, 0),
    initial_heading: str = "E",
) -> LatticeCurve:
    """Trace a turn word: per label, move one unit forward, then rotate.

    k labels produce k segments and k+1 vertices. The last rotation only
    sets the exit heading stored on the curve.
    """
    if initial_heading not in HEADINGS:
        raise ValueError(f"bad initial heading {initial_heading!r}")
    x, y = start
    if not isinstance(x, int) or not isinstance(y, int):
        raise ValueError(f"start must be an integer point, got {start!r}")
    word = tuple(turns)
    vertices = [(x, y)]
    append, steps, turn = vertices.append, _STEPS, _TURN.get
    heading = HEADINGS.index(initial_heading)
    for label in word:
        dx, dy = steps[heading]
        x, y = x + dx, y + dy
        append((x, y))
        heading = (heading + turn(label, 0)) % 4  # LatticeCurve rejects a bad label
    return LatticeCurve(tuple(vertices), word, HEADINGS[heading])


def _last_step_heading(vertices) -> str:
    """Exit heading of a curve with no turn word: its last step's, or E."""
    if len(vertices) < 2:
        return "E"
    (ax, ay), (bx, by) = vertices[-2:]
    return HEADINGS[_STEP_INDEX.get((bx - ax, by - ay), 0)]  # LatticeCurve checks the step


def curve_from_vertices(vertices: Iterable[Point]) -> LatticeCurve:
    """Build a curve from an explicit unit-step vertex path (no turn word).

    Coordinates must be integers (numpy integers included); anything else
    raises ``ValueError`` rather than being truncated.
    """
    verts = []
    for x, y in vertices:
        try:
            verts.append((index(x), index(y)))
        except TypeError:
            raise ValueError(f"vertex coordinates must be integers, got ({x!r}, {y!r})") from None
    return LatticeCurve(tuple(verts), (), _last_step_heading(verts))


def max_run_length(labels: Iterable[str]) -> int:
    best = run = 0
    prev = None
    for label in labels:
        run = run + 1 if label == prev else 1
        prev = label
        best = max(best, run)
    return best


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


def curve_stats(curve: LatticeCurve) -> CurveStats:
    """Planar statistics of a curve (regions via the Euler relation).

    A curve is one connected path, so its vertices and edges form a single
    component and E - V + C needs no component search: C = 1.
    """
    edge_set = curve.edge_set()
    xs = [x for x, _ in curve.vertices]
    ys = [y for _, y in curve.vertices]
    visits = {}
    for v in curve.vertices:
        visits[v] = visits.get(v, 0) + 1
    return CurveStats(
        segment_count=curve.segment_count,
        unique_edge_count=len(edge_set),
        revisited_vertex_count=sum(1 for c in visits.values() if c > 1),
        bounded_region_count=len(edge_set) - len(visits) + 1,
        bounding_box=(min(xs), min(ys), max(xs), max(ys)),
        max_turn_run=max_run_length(curve.source_turns),
    )


def region_count_flood(curve: LatticeCurve) -> int:
    """Independent bounded-region count of a curve, by cell flooding."""
    return bounded_regions_flood(curve.edge_set())


# ---------------------------------------------------------------------------
# rigid motions and tessellation
# ---------------------------------------------------------------------------

# the counterclockwise turn by each rotation, as (a, b, c, d) in RigidMotion.matrix
_ROTATIONS = {0: (1, 0, 0, 1), 90: (0, -1, 1, 0), 180: (-1, 0, 0, -1), 270: (0, 1, -1, 0)}
_MIRROR = {TURN_LEFT: TURN_RIGHT, TURN_RIGHT: TURN_LEFT}


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
        if any(not isinstance(c, int) or isinstance(c, bool) for c in self.translation):
            raise ValueError(f"translation must be an integer vector, got {self.translation!r}")

    @property
    def matrix(self) -> Tuple[int, int, int, int]:
        """The linear part (a, b, c, d): (x, y) -> (a x + b y, c x + d y)."""
        a, b, c, d = _ROTATIONS[self.rotation]
        return (a, -b, c, -d) if self.reflect else (a, b, c, d)

    def apply_vector(self, p: Point) -> Point:
        a, b, c, d = self.matrix
        x, y = p
        return (a * x + b * y, c * x + d * y)

    def apply_point(self, p: Point) -> Point:
        x, y = self.apply_vector(p)
        return (x + self.translation[0], y + self.translation[1])


def apply_motion(curve: LatticeCurve, motion: RigidMotion) -> LatticeCurve:
    """Transform a curve by a rigid motion; turn chirality flips under reflection."""
    a, b, c, d = motion.matrix
    tx, ty = motion.translation
    vertices = tuple((a * x + b * y + tx, c * x + d * y + ty) for x, y in curve.vertices)
    turns = curve.source_turns
    if motion.reflect:
        turns = tuple(_MIRROR[t] for t in turns)
    exit_step = motion.apply_vector(_STEPS[HEADINGS.index(curve.final_heading)])
    return LatticeCurve(vertices, turns, HEADINGS[_STEP_INDEX[exit_step]])


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
    """
    if not isinstance(generations, int) or generations < 0:
        raise ValueError(f"generations must be a non-negative integer, got {generations!r}")
    if generations == 0:
        return curve
    vertices = list(curve.vertices)
    for _ in range(generations):
        if 2 * (len(vertices) - 1) > max_edges:
            raise ResourceLimitError(
                f"doubling past {len(vertices) - 1} segments exceeds the "
                f"cap of {max_edges} edges"
            )
        # (x, y) turned a quarter counterclockwise is (-y, x); the shift puts
        # the turned start on the current end
        (sx, sy), (ex, ey) = vertices[0], vertices[-1]
        vx, vy = ex + sy, ey - sx
        vertices.extend([(vx - y, vy + x) for x, y in vertices[1:]])
    return LatticeCurve(tuple(vertices), (), _last_step_heading(vertices))


@dataclass(frozen=True)
class Tessellation:
    """Union of rigid-motion copies of a base curve, with overlap accounting."""

    tiles: Tuple[LatticeCurve, ...]       # tile i = placement i applied to the base
    edges: frozenset
    overlap_count: int


def tessellate(curve: LatticeCurve, placements: Iterable[RigidMotion]) -> Tessellation:
    """Place copies of a curve; overlap = total placed edges - unique edges."""
    tiles = tuple(apply_motion(curve, m) for m in placements)
    if not tiles:
        raise ValueError("tessellate needs at least one placement")
    union = set()
    total = 0
    for tile in tiles:
        tile_edges = tile.edge_set()
        total += len(tile_edges)
        union |= tile_edges
    return Tessellation(tiles=tiles, edges=frozenset(union), overlap_count=total - len(union))


# ---------------------------------------------------------------------------
# seahorse classification
# ---------------------------------------------------------------------------

def _reflections_sending(s: Point, e: Point):
    """Lattice reflections that map point s to point e.

    Yields involutions restricted to the four lattice-compatible axis
    families: vertical, horizontal, diagonal (y = x + c), anti-diagonal
    (x + y = c). For s != e the axis must be the perpendicular bisector of
    the segment s-e, which fits at most one family.
    """
    sx, sy = s
    ex, ey = e
    if s == e:
        yield lambda p: (2 * sx - p[0], p[1])
        yield lambda p: (p[0], 2 * sy - p[1])
        c_diag = sy - sx
        yield lambda p: (p[1] - c_diag, p[0] + c_diag)
        c_anti = sx + sy
        yield lambda p: (c_anti - p[1], c_anti - p[0])
        return
    dx, dy = ex - sx, ey - sy
    if dy == 0:
        t = sx + ex
        yield lambda p: (t - p[0], p[1])
    elif dx == 0:
        t = sy + ey
        yield lambda p: (p[0], t - p[1])
    elif dx == dy:
        c = sx + sy + dx
        yield lambda p: (c - p[1], c - p[0])
    elif dx == -dy:
        c = sy - sx - dx
        yield lambda p: (p[1] - c, p[0] + c)


def _head_tail_symmetric(edge_set, start: Point, end: Point) -> bool:
    """Whether a lattice reflection sending start to end maps the edge set onto itself."""
    return any(
        edge_set == {_norm_edge(refl(a), refl(b)) for a, b in edge_set}
        for refl in _reflections_sending(start, end)
    )


def is_seahorse(curve: LatticeCurve) -> SeahorseReport:
    """Check the three seahorse conditions on a traced curve.

    1. The turn word has no run of three or more identical turns.
    2. The curve encloses exactly one bounded region.
    3. Some lattice reflection maps the edge set onto itself while sending
       the start vertex to the end vertex (head-tail symmetry).
    """
    if not curve.source_turns:
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
