"""CSV, JSON, SVG and DOT emission for the command-line tools.

All numeric formatting is explicit (reals at 12 significant digits) and all
iteration orders are fixed, so identical inputs serialize to identical bytes.
"""

import json
from typing import IO, Iterable, List, Sequence, Tuple

from .core import DigitDivisorProfile
from .curves import LatticeCurve, Tessellation
from .graphs import (
    KIND_GAP_PRIME,
    KIND_PATTERNED_COMPOSITE,
    KIND_PATTERNED_PRIME_DIGIT1,
    KIND_PATTERNED_PRIME_SMALL,
    PatternedDag,
)

REAL_SIGNIFICANT_DIGITS = 12

PROFILE_CSV_HEADER = (
    "n", "digits", "small_divisors", "matches", "match_count", "patterned", "turn",
)

SVG_PALETTE = ("black", "#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd")


def fmt_real(x: float) -> str:
    return format(float(x), f".{REAL_SIGNIFICANT_DIGITS}g")


def fmt_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return fmt_real(value)
    return str(value)


def write_csv(stream: IO[str], header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Comma-separated, newline-terminated, header first; no quoting needed
    because no emitted cell ever contains a comma."""
    stream.write(",".join(header) + "\n")
    for row in rows:
        stream.write(",".join(fmt_cell(cell) for cell in row) + "\n")


def write_json(stream: IO[str], payload) -> None:
    json.dump(payload, stream, indent=2)
    stream.write("\n")


def profile_row(p: DigitDivisorProfile) -> List:
    return [
        p.n,
        "|".join(str(d) for d in sorted(p.digits)),
        "|".join(str(d) for d in sorted(p.small_divisors)),
        "|".join(str(d) for d in sorted(p.matches)),
        p.match_count,
        p.is_patterned,
        p.turn or "",
    ]


def profile_json(p: DigitDivisorProfile) -> dict:
    return {
        "n": p.n,
        "digits": sorted(p.digits),
        "small_divisors": sorted(p.small_divisors),
        "matches": sorted(p.matches),
        "match_count": p.match_count,
        "patterned": p.is_patterned,
        "turn": p.turn,
    }


def parse_profile_json(obj: dict) -> DigitDivisorProfile:
    return DigitDivisorProfile(
        n=obj["n"],
        digits=frozenset(obj["digits"]),
        small_divisors=frozenset(obj["small_divisors"]),
        matches=frozenset(obj["matches"]),
        match_count=obj["match_count"],
        is_patterned=obj["patterned"],
        turn=obj["turn"],
    )


# ---------------------------------------------------------------------------
# SVG
# ---------------------------------------------------------------------------

def _svg_path(points: Sequence[Tuple[int, int]], unit: float) -> str:
    parts = []
    for i, (x, y) in enumerate(points):
        cmd = "M" if i == 0 else "L"
        parts.append(f"{cmd} {fmt_real(x * unit)} {fmt_real(y * unit)}")
    return " ".join(parts)


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
    xs = [x for _, c in curves for x, _ in c.vertices]
    ys = [y for _, c in curves for _, y in c.vertices]
    x0, x1 = min(xs) - 1, max(xs) + 1
    y0, y1 = min(ys) - 1, max(ys) + 1
    view = " ".join(fmt_real(v * unit) for v in (x0, y0, x1 - x0, y1 - y0))
    # y_svg = (y0 + y1)*unit - y_math*unit keeps flipped content inside the box
    flip = f"translate(0 {fmt_real((y0 + y1) * unit)}) scale(1 -1)"
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{view}">',
        f'<g transform="{flip}" fill="none" stroke-width="{fmt_real(0.1 * unit)}" '
        'stroke-linecap="square">',
    ]
    for i, (path_id, curve) in enumerate(curves):
        color = SVG_PALETTE[i % len(SVG_PALETTE)]
        lines.append(
            f'<path id="{path_id}" stroke="{color}" d="{_svg_path(curve.vertices, unit)}" />'
        )
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

_DOT_NODE_ATTRS = {
    KIND_PATTERNED_PRIME_SMALL: 'shape=circle',
    KIND_PATTERNED_PRIME_DIGIT1: 'shape=circle, style=filled, fillcolor=lightblue',
    KIND_GAP_PRIME: 'shape=box, style=dashed',
    KIND_PATTERNED_COMPOSITE: 'shape=ellipse',
}


def dag_dot(dag: PatternedDag) -> str:
    """Graphviz digraph; prime-cluster edges are tinted to stand apart."""
    lines = ["digraph patterned {", "  rankdir=LR;"]
    for label in dag.nodes:
        lines.append(f"  {label.n} [{_DOT_NODE_ATTRS[label.kind]}];")
    cluster = set(dag.cluster_edges)
    for u, v in dag.edges:
        attr = " [color=steelblue]" if (u, v) in cluster else ""
        lines.append(f"  {u} -> {v}{attr};")
    lines.append("}")
    return "\n".join(lines) + "\n"
