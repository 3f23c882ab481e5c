"""CSV, JSON, SVG and DOT emission for the command-line tools.

All numeric formatting is explicit (reals at 12 significant digits) and all
iteration orders are fixed, so identical inputs serialize to identical bytes.
Each CSV row is formatted whole, by one %-format or one lookup table per
command, not by a Python call per cell; an SVG path formats each distinct
coordinate once and looks the rest up.
"""

import json
import math
from functools import cache
from typing import IO, Iterable, Iterator, Sequence, Tuple

import numpy as np

from .core import BLOCK_MAX, TURN_OF_PARITY
from .curves import LatticeCurve, Tessellation, distinct_ranks
from .graphs import PatternedDag

# The %-format of a real cell: '%.12g' % x is format(float(x), '.12g').
REAL = "%.12g"
BOOL_TEXT = ("false", "true")  # indexed by a bool

PROFILE_CSV_HEADER = (
    "n", "digits", "small_divisors", "matches", "match_count", "patterned", "turn",
)

SVG_PALETTE = ("black", "#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd")


def write_csv(stream: IO[str], header: Sequence[str], rows: Iterable[str]) -> None:
    """Header first, then the rows, each one preformatted line ending in a
    newline; no quoting is needed because no emitted cell contains a comma."""
    stream.write(",".join(header) + "\n")
    stream.writelines(rows)


def write_json(stream: IO[str], payload) -> None:
    json.dump(payload, stream, indent=2)
    stream.write("\n")


def _mask_digits() -> list:
    """The digits of every 10-bit digit mask (bit d for the digit d)."""
    return [[d for d in range(10) if m >> d & 1] for m in range(1024)]


@cache
def _profile_texts() -> Tuple[list, list]:
    """By digit mask: its digits joined by '|', and, as the match mask of a
    number, the `matches,match_count,patterned,turn` tail of its `gen` CSV
    row. Built on the first `gen` call, not at import."""
    digits = _mask_digits()
    texts = ["|".join(map(str, ds)) for ds in digits]
    tails = [f"{t},{len(ds)},true,{TURN_OF_PARITY[len(ds) & 1]}" for t, ds in zip(texts, digits)]
    return texts, tails


def profile_csv_rows(blocks: Iterable[tuple]) -> Iterator[str]:
    """`gen` CSV lines of ``core.profile_blocks``, every cell but n looked up
    by mask; the masks leave out the digit 0, which the text of n shows."""
    texts, tails = _profile_texts()
    for numbers, digits, divisors, matches in blocks:
        yield from (
            f"{n},{texts[d | ('0' in n)]},{texts[s]},{tails[m]}\n"
            for n, d, s, m in zip(map(str, numbers.tolist()), digits.tolist(),
                                  divisors.tolist(), matches.tolist())
        )


def profile_json_entries(blocks: Iterable[tuple]) -> Iterator[dict]:
    """`gen` JSON entries of ``core.profile_blocks``, every field but n looked up
    by mask; entries share the digit lists, which ``json`` writes out each time."""
    digits = _mask_digits()
    for block in blocks:
        for n, d, s, m in zip(*(column.tolist() for column in block)):
            count = len(digits[m])
            yield {"n": n, "digits": digits[d | ("0" in str(n))], "small_divisors": digits[s],
                   "matches": digits[m], "match_count": count, "patterned": True,
                   "turn": TURN_OF_PARITY[count & 1]}


_PRIME_LINES = ("%d,gap\n", "%d,patterned\n")  # by the qualifying flag


def prime_csv_rows(primes: np.ndarray, qualifies: np.ndarray) -> Iterator[str]:
    """`primes` CSV lines in prime order: the line formats of a block of
    primes, joined, are applied once."""
    for start in range(0, len(primes), BLOCK_MAX):
        block = slice(start, start + BLOCK_MAX)
        lines = "".join([_PRIME_LINES[q] for q in qualifies[block].tolist()])
        yield lines % tuple(primes[block].tolist())


# ---------------------------------------------------------------------------
# SVG
# ---------------------------------------------------------------------------

def _svg_path(points, unit: float) -> str:
    """Path data of a polyline of integer points. Each distinct x and y is
    formatted once, into a table of " L x" and " y" texts; the points index
    the table in path order, and the first " L " becomes "M "."""
    x, y = np.asarray(points).T
    (xs, x), (ys, y) = distinct_ranks(x), distinct_ranks(y)
    index = np.empty(2 * len(x), dtype=np.intp)
    index[0::2] = x
    index[1::2] = y + len(xs)
    del x, y  # freed before the lookups: held, they cost 0.3 ms on a 49k-point path
    table = np.array([" L " + REAL % v for v in (xs * unit).tolist()]
                     + [" " + REAL % v for v in (ys * unit).tolist()], dtype=object)
    return "M " + "".join(table[index].tolist())[3:]


def curves_svg(curves: Sequence[Tuple[str, LatticeCurve]], unit: float = 1.0) -> str:
    """SVG document with one path element per (id, curve) pair.

    The viewBox is the joint bounding box inflated by one lattice unit; a
    single top-level transform flips the y-axis so drawn coordinates match
    the mathematical (y up) convention.
    """
    if not curves:
        raise ValueError("nothing to draw")
    if not unit > 0:
        raise ValueError(f"unit must be positive, got {unit}")
    paths = [curve.path for _, curve in curves]
    columns = list(zip(*(p.T for p in paths)))  # every path's x column, then every y column
    x0, y0 = (min(c.min() for c in cs).item() - 1 for cs in columns)
    x1, y1 = (max(c.max() for c in cs).item() + 1 for cs in columns)
    view = [v * unit for v in (x0, y0, x1 - x0, y1 - y0)]
    # y_svg = (y0 + y1)*unit - y_math*unit keeps flipped content inside the box
    flip, stroke = (y0 + y1) * unit, 0.1 * unit
    # the far corners bound every point of the paths
    if not all(map(math.isfinite, [*view, x1 * unit, y1 * unit, flip, stroke])):
        raise ValueError(f"unit must keep the drawing finite, got {unit}")
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{" ".join(REAL % v for v in view)}">',
        f'<g transform="translate(0 {REAL % flip}) scale(1 -1)" fill="none" '
        f'stroke-width="{REAL % stroke}" stroke-linecap="square">',
    ]
    for i, ((path_id, _), path) in enumerate(zip(curves, paths)):
        color = SVG_PALETTE[i % len(SVG_PALETTE)]
        lines.append(f'<path id="{path_id}" stroke="{color}" d="{_svg_path(path, unit)}" />')
    lines.append("</g>")
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def curve_svg(curve: LatticeCurve, unit: float = 1.0) -> str:
    return curves_svg([("curve-0", curve)], unit=unit)


def tessellation_svg(tess: Tessellation, unit: float = 1.0) -> str:
    """One labeled path per placement, preserving the tile indices."""
    return curves_svg(
        [(f"tile-{i}", tile) for i, tile in enumerate(tess.tiles)], unit=unit
    )


# ---------------------------------------------------------------------------
# DOT
# ---------------------------------------------------------------------------

_DOT_NODE_LINES = (  # by kind code, the order of graphs.KINDS
    "  %d [shape=ellipse];\n",
    "  %d [shape=circle];\n",
    "  %d [shape=circle, style=filled, fillcolor=lightblue];\n",
    "  %d [shape=box, style=dashed];\n",
)
_DOT_EDGE_LINES = ("  %d -> %d;\n", "  %d -> %d [color=steelblue];\n")  # by cluster flag


def dag_dot(dag: PatternedDag) -> str:
    """Graphviz digraph; prime-cluster edges are tinted to stand apart. The
    line formats, joined in node and edge order, are applied once each."""
    edges, cluster = dag.edges
    node_lines = "".join([_DOT_NODE_LINES[k] for k in dag.kinds.tolist()])
    edge_lines = "".join([_DOT_EDGE_LINES[c] for c in cluster.tolist()])
    texts = (node_lines % tuple(dag.nodes.tolist()), edge_lines % tuple(edges.ravel().tolist()))
    return "digraph patterned {\n  rankdir=LR;\n%s%s}\n" % texts
