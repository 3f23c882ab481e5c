"""CSV, JSON, SVG and DOT emission for the command-line tools.

All numeric formatting is explicit (reals at 12 significant digits) and all
iteration orders are fixed, so identical inputs serialize to identical bytes.
Each CSV row and SVG path is formatted whole, by one %-format or one lookup
table per command, not by a Python call per cell.
"""

import json
from functools import cache
from typing import IO, Iterable, Iterator, Sequence, Tuple

import numpy as np

from .core import TURN_OF_PARITY
from .curves import LatticeCurve, Tessellation
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


# ---------------------------------------------------------------------------
# SVG
# ---------------------------------------------------------------------------

def _svg_path(points, unit: float) -> str:
    """Path data of a polyline of integer points, by one %-format for all of them."""
    path = f"M {REAL} {REAL}" + f" L {REAL} {REAL}" * (len(points) - 1)
    return path % tuple((np.asarray(points) * unit).ravel().tolist())


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
    x0, y0 = (min(v) - 1 for v in zip(*(p.min(axis=0).tolist() for p in paths)))
    x1, y1 = (max(v) + 1 for v in zip(*(p.max(axis=0).tolist() for p in paths)))
    view = " ".join(REAL % (v * unit) for v in (x0, y0, x1 - x0, y1 - y0))
    # y_svg = (y0 + y1)*unit - y_math*unit keeps flipped content inside the box
    flip = f"translate(0 {REAL % ((y0 + y1) * unit)}) scale(1 -1)"
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{view}">',
        f'<g transform="{flip}" fill="none" stroke-width="{REAL % (0.1 * unit)}" '
        'stroke-linecap="square">',
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
