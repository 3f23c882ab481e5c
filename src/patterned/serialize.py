"""CSV, JSON, SVG and DOT emission for the command-line tools.

All numeric formatting is explicit (reals at 12 significant digits) and all
iteration orders are fixed, so identical inputs serialize to identical bytes.
Each CSV row is formatted whole, by one %-format or one lookup table per
command, not by a Python call per cell. Lines of integers go a block of up
to ``core.BLOCK_MAX`` at a time through one writer, ``_coded_lines``: each
line's %-format is picked by a small code (a turn's parity, a prime's
qualifying flag, a DAG node's kind, an edge's cluster flag), and the
block's formats, joined, are applied once to its cells. `turns` CSV and
JSON, `primes` CSV and the DOT of `dag` are written this way, each block
as soon as it is made. `gen` looks its text cells up by mask in per-mask
tables and applies one %-format to a block of rows. `gen` and `turns`
write JSON as the bytes that ``json.dump(indent=2)`` gives. An SVG path
formats each distinct coordinate once and looks the rest up. The walk's
probability table is written a block of cells at a time by
``real_csv_rows``: its zeros and its cells in [1e-99, 1) are formatted in
numpy, exactly as '%.12g' formats them, and the few it cannot place exactly
go to '%.12g' one by one.
"""

import json
import math
from functools import cache
from types import SimpleNamespace
from typing import IO, Iterable, Iterator, Sequence, Tuple

import numpy as np

from .core import BLOCK_MAX, TURN_OF_PARITY, Members
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


# How `gen` writes a profile, by format: the %-format of a row (n, digits,
# divisors, tail); how a digit set is written, before, between and after its
# digits; and the %-format of the tail of a row from its match mask (digits,
# count, turn). JSON is written as json.dump(indent=2) writes it: a row is an
# entry of the "profiles" list, after a comma.
_PROFILE_FORMS = {
    "csv": ("%d,%s,%s,%s\n", ("", "|", ""), "%s,%d,true,%s"),
    "json": (',\n    {\n      "n": %d,\n      "digits": %s,\n      "small_divisors": %s,\n'
             '      %s\n    }', ("[\n        ", ",\n        ", "\n      ]"),
             '"matches": %s,\n      "match_count": %d,\n      "patterned": true,\n'
             '      "turn": "%s"'),
}


@cache
def _profile_texts(fmt: str) -> Tuple[np.ndarray, np.ndarray]:
    """By digit mask, as object arrays in format ``fmt``: the text of its
    digits, and, as the match mask of a number, the tail of the number's row.
    A mask's digits are its lowest digit and then those of the mask without
    it. Built on the first `gen` call in the format, not at import."""
    _, (before, between, after), tail = _PROFILE_FORMS[fmt]
    digits, counts = [""], [0]
    for mask in range(1, 1024):
        rest = mask & (mask - 1)
        lowest = str((mask & -mask).bit_length() - 1)
        digits.append(lowest + between + digits[rest] if rest else lowest)
        counts.append(counts[rest] + 1)
    texts = [before + d + after for d in digits]
    tails = [tail % (t, c, TURN_OF_PARITY[c & 1]) for t, c in zip(texts, counts)]
    return np.array(texts, dtype=object), np.array(tails, dtype=object)


def _profile_rows(fmt: str, blocks: Iterable[tuple]) -> Iterator[str]:
    """The rows of each ``core.profile_blocks`` block in format ``fmt``: every
    cell but n is looked up by mask, and one %-format for the block's rows is
    applied once."""
    row = _PROFILE_FORMS[fmt][0]
    texts, tails = _profile_texts(fmt)
    for numbers, digits, divisors, matches in blocks:
        cells = [None] * (4 * len(numbers))
        cells[0::4] = numbers.tolist()
        cells[1::4] = texts[digits].tolist()
        cells[2::4] = texts[divisors].tolist()
        cells[3::4] = tails[matches].tolist()
        yield row * len(numbers) % tuple(cells)


def profile_csv_rows(blocks: Iterable[tuple]) -> Iterator[str]:
    """`gen` CSV lines of ``core.profile_blocks``, a block at a time."""
    return _profile_rows("csv", blocks)


def _json_list(key: str, blocks: Iterable[str]) -> Iterator[str]:
    """The `"key": [...]` member of a top-level object as json.dump(indent=2)
    writes it, from blocks of items at indent 4, each item after a ",\n"."""
    yield f'  "{key}": ['
    first = True
    for text in blocks:
        if text:
            yield "\n" + text[2:] if first else text
            first = False
    yield "]" if first else "\n  ]"


def profile_json(limit: int, blocks: Iterable[tuple]) -> Iterator[str]:
    """The `gen` JSON document of ``core.profile_blocks(limit)``, a block of
    entries at a time, each block as it is made: the bytes of
    ``json.dump({"limit": limit, "profiles": [...]}, indent=2)`` and a newline."""
    yield '{\n  "limit": %d,\n' % limit
    yield from _json_list("profiles", _profile_rows("json", blocks))
    yield "\n}\n"


def _coded_lines(forms: Sequence[str], codes: np.ndarray, *columns: np.ndarray) -> Iterator[str]:
    """Lines of integer columns, a block of BLOCK_MAX at a time: line i's
    %-format is ``forms[codes[i]]``, for a uint8 or bool array of codes, and
    the block's formats, joined, are applied once to its cells, line by line."""
    forms = np.array(forms, dtype=object)
    for start in range(0, len(codes), BLOCK_MAX):
        block = slice(start, start + BLOCK_MAX)
        cells = np.empty((len(codes[block]), len(columns)), dtype=np.int64)
        for j, column in enumerate(columns):
            cells[:, j] = column[block]
        yield "".join(forms[codes[block].view(np.uint8)].tolist()) % tuple(cells.ravel().tolist())


# By parity, a `turns` CSV line's format and a JSON list item after its comma.
_TURN_LINES = tuple("%%d,%%d,%s\n" % label for label in TURN_OF_PARITY)
_TURN_ITEMS = tuple(',\n    "%s"' % label for label in TURN_OF_PARITY)


def turn_csv_rows(members: Members) -> Iterator[str]:
    """`turns` CSV lines of a member scan, each line's format picked by the
    member's parity."""
    parity = members.turns
    return _coded_lines(_TURN_LINES, parity, np.arange(1, len(parity) + 1), members.numbers)


def turn_json(members: Members) -> Iterator[str]:
    """The `turns` JSON document of a member scan, a block of each list at a
    time: the bytes of ``json.dump({"k": k, "numbers": [...], "turns": [...]},
    indent=2)`` and a newline."""
    parity = members.turns
    yield '{\n  "k": %d,\n' % len(parity)
    yield from _json_list("numbers", _coded_lines((",\n    %d",), np.zeros_like(parity),
                                                  members.numbers))
    yield ",\n"
    yield from _json_list("turns", _coded_lines(_TURN_ITEMS, parity))
    yield "\n}\n"


_PRIME_LINES = ("%d,gap\n", "%d,patterned\n")  # by the qualifying flag


def prime_csv_rows(primes: np.ndarray, qualifies: np.ndarray) -> Iterator[str]:
    """`primes` CSV lines in prime order."""
    return _coded_lines(_PRIME_LINES, qualifies, primes)


# ---------------------------------------------------------------------------
# real tables
# ---------------------------------------------------------------------------

# Every cell of a block is laid out in a slot of SLOT bytes, from which a mask
# keeps the bytes of its text. A cell slot holds ",0.000" (the lead of the fixed
# texts 0.d to 0.000d), the first digit again and "." (the lead of d.de-XX), the
# 12 rounded digits as three 4-byte groups, and "e-XX". Each row has a slot
# before its cells: "\n", ending the row before, at byte 11 and the row index,
# zero-padded to 12 digits, after it.
SLOT = 24
BLOCK_CELLS = 2048  # cells per block: the work arrays take about 250 kB
TINY = 1e-99  # below it the exponent has three digits
GUARD = 2e-3  # the largest error of m is 3e-4
_CELL_LEAD = b",0.000?."
_PADDED_REAL = f",%-{SLOT - 1}.12g"  # '%.12g' padded with spaces to fill a slot
# Slot codes: 12 * form + digits - 1 for a cell of 1-12 significant digits (form
# 0-3 the fixed texts, 4 the exponent text); _ZERO for +0.0; _ROW + d for a row
# index of d digits, _ROW + 12 + d with the newline; _EMPTY for the row slot of
# a row's later blocks; _TEXT + k for k bytes written by '%.12g'.
_ZERO, _ROW, _EMPTY, _TEXT = 60, 60, 85, 85


@cache
def _real_tables() -> SimpleNamespace:
    """The lookups of ``real_csv_rows``, built on its first call. Tables by the
    decimal exponent X of a cell are indexed by X + 100, for X in -100..0."""
    keep = np.zeros((_TEXT + SLOT + 1, SLOT), dtype=bool)
    for d in range(1, 13):
        for form in range(4):
            keep[12 * form + d - 1, [0, 1, 2, *range(3, 3 + form), *range(8, 8 + d)]] = True
        keep[48 + d - 1, [0, 6, *[7] * (d > 1), *range(9, 8 + d), 20, 21, 22, 23]] = True
        keep[_ROW + d, SLOT - d:] = True
        keep[_ROW + 12 + d, [11, *range(SLOT - d, SLOT)]] = True
    keep[_ZERO, :2] = True
    for k in range(1, SLOT + 1):
        keep[_TEXT + k, :k] = True
    quad = np.arange(10_000, dtype=np.uint16)
    digits = np.empty((10_000, 4), dtype=np.uint8)
    for i, place in enumerate((1000, 100, 10, 1)):
        digits[:, i] = quad // place % 10 + ord("0")
    trailing = (quad == 0).astype(np.uint8)
    for place in (10, 100, 1000):
        trailing += quad % place == 0
    exponents = range(-100, 1)
    tables = SimpleNamespace(
        keep=keep,
        quads=digits.view(np.uint32).ravel(),  # the 4-digit text of 0..9999
        trailing=trailing,  # its trailing zeros, 4 for 0
        scale=np.array([float(10 ** (11 - x)) for x in exponents]),  # correctly rounded
        code=np.array([12 * min(4, max(0, -1 - x)) + 11 for x in exponents], dtype=np.intp),
        exp=np.frombuffer(b"".join(b"e-%02d" % min(99, -x) for x in exponents), np.uint32),
    )
    for array in vars(tables).values():
        array.flags.writeable = False  # shared by every call
    return tables


def _round_cells(t: SimpleNamespace, x: np.ndarray, work: tuple) -> tuple:
    """Slot codes and digit groups of a block of cells, held in the work
    arrays: (code, hi, mid, lo, ix, bad). ``bad`` marks the cells that
    '%.12g' must format; hi, mid and lo are the three 4-digit groups of the
    12 rounded digits, ix is X + 100, and code counts their significant
    digits."""
    k = len(x)
    v, m, r = work[0][:, :k]
    ix, hi, mid, lo, code = work[1][:, :k]
    tz, part = work[2][:, :k]
    ok, bad, flag = work[3][:, :k]
    np.greater_equal(x, TINY, out=ok)
    np.less(x, 1.0, out=flag)
    ok &= flag
    v.fill(0.5)
    np.copyto(v, x, where=ok)
    np.log10(v, out=m)
    np.floor(m, out=m)
    m += 100
    np.copyto(ix, m, casting="unsafe")
    np.take(t.scale, ix, out=m, mode="clip")
    m *= v
    np.rint(m, out=r)
    np.subtract(m, r, out=v)
    np.abs(v, out=v)
    np.greater(v, 0.5 - GUARD, out=bad)
    np.less(m, 1e11, out=flag)
    bad |= flag
    np.greater_equal(r, 1e12, out=flag)
    bad |= flag
    np.logical_not(ok, out=flag)
    bad |= flag
    np.copyto(r, 1e11, where=bad)
    np.copyto(hi, r, casting="unsafe")
    np.divmod(hi, 10**8, out=(hi, lo))
    np.divmod(lo, 10**4, out=(mid, lo))
    # 12 digits less the trailing zeros
    np.take(t.trailing, hi, out=tz, mode="clip")
    np.equal(mid, 0, out=flag)
    tz *= flag
    np.take(t.trailing, mid, out=part, mode="clip")
    tz += part
    np.equal(lo, 0, out=flag)
    tz *= flag
    np.take(t.trailing, lo, out=part, mode="clip")
    tz += part
    np.take(t.code, ix, out=code, mode="clip")
    code -= tz
    np.equal(x.view(np.int64), 0, out=flag)  # +0.0, written "0"
    np.copyto(code, _ZERO, where=flag)
    np.greater(bad, flag, out=bad)
    return code, hi, mid, lo, ix, bad


def real_csv_rows(table: np.ndarray) -> Iterator[str]:
    """CSV text of a float table with the row index first: the bytes of
    ``("%d" + ",%.12g" * n + "\\n") % (i, *table[i])`` for every row i, in
    blocks of about BLOCK_CELLS cells.

    A cell x in [TINY, 1) is rounded in numpy. With X = floor(log10(x)), its
    digits are m = x * 10**(11 - X) rounded to an integer. The power and the
    product are each rounded once, so m is within 3e-4 of its exact value, and
    rint(m) are the 12 digits '%.12g' gives when m >= 1e11, rint(m) < 1e12 and
    m is not within GUARD of a tie. (An m within 3e-4 above 1e11 may belong to
    an x just below 10**X, which '%.12g' rounds to 10**X all the same.) The
    other cells, where log10 missed by one, ties and round-ups to 10**(X + 1),
    and all cells outside [TINY, 1) but +0.0, are formatted by '%.12g' one at
    a time. (Adams, "Ryu revisited: printf floating point conversion", OOPSLA
    2019, makes the same conversion exact with wider integers.)
    """
    t = _real_tables()
    table = np.ascontiguousarray(table, dtype=float)
    rows, n = table.shape
    span = min(n, BLOCK_CELLS)  # cells of one row in a block
    per = max(1, min(rows, BLOCK_CELLS // n))  # rows in a block
    # the work arrays, made once for every block
    canvas = np.zeros((per, span + 1, SLOT), dtype=np.uint8)
    canvas[:, 0, 11] = ord("\n")
    canvas[:, 1:, :8] = np.frombuffer(_CELL_LEAD, np.uint8)
    keep = np.empty(canvas.shape, dtype=bool)
    codes = np.empty(canvas.shape[:2], dtype=np.intp)
    size = per * span
    work = (np.empty((3, size)), np.empty((5, size), dtype=np.intp),
            np.empty((2, size), dtype=np.uint8), np.empty((3, size), dtype=bool))
    # a block is whole rows or part of one row, so its slots are contiguous
    for i0 in range(0, rows, per):
        i1 = min(i0 + per, rows)
        for j0 in range(0, n, span):
            j1 = min(j0 + span, n)
            x = table[i0:i1, j0:j1].reshape(-1)
            cells = (i1 - i0, j1 - j0)
            slots = canvas[: cells[0], : cells[1] + 1]
            code, mask = codes[: cells[0], : cells[1] + 1], keep[: cells[0], : cells[1] + 1]
            cell_code, *groups, bad = _round_cells(t, x, work)
            code[:, 1:] = cell_code.reshape(cells)
            quads = slots.view(np.uint32)
            for g, group in enumerate(groups):
                np.take(t.exp if g == 3 else t.quads, group.reshape(cells),
                        out=quads[:, 1:, 2 + g], mode="clip")
            slots[:, 1:, 6] = slots[:, 1:, 8]
            # the row slots
            if j0 == 0:
                index = "".join(["%012d" % i for i in range(i0, i1)]).encode()
                slots[:, 0, 12:] = np.frombuffer(index, np.uint8).reshape(-1, 12)
                code[:, 0] = [_ROW + 12 + len(str(i)) for i in range(i0, i1)]
                if i0 == 0:
                    code[0, 0] -= 12  # no newline before the first row
            else:
                code[:, 0] = _EMPTY
            # '%.12g' writes the cells it must into their slots
            fallback = np.flatnonzero(bad)
            if len(fallback):
                texts = (_PADDED_REAL * len(fallback)) % tuple(x[fallback].tolist())
                texts = np.frombuffer(texts.encode(), np.uint8).reshape(-1, SLOT)
                where = fallback + fallback // cells[1] + 1
                flat = slots.reshape(-1, SLOT)
                flat[where] = texts
                code.reshape(-1)[where] = _TEXT + np.count_nonzero(texts != ord(" "), axis=1)
            np.take(t.keep, code, axis=0, out=mask, mode="clip")
            # a boolean index, not np.compress: compress builds an intp index
            # of 8 bytes per byte kept
            out = slots.reshape(-1)[mask.reshape(-1)]
            if len(fallback):
                flat[where, :8] = np.frombuffer(_CELL_LEAD, np.uint8)
            yield str(out.data, "ascii")
    yield "\n"


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


def dag_dot(dag: PatternedDag) -> Iterator[str]:
    """Graphviz digraph, a block of node or edge lines at a time; prime-cluster
    edges are tinted to stand apart."""
    edges, cluster = dag.edges
    yield "digraph patterned {\n  rankdir=LR;\n"
    yield from _coded_lines(_DOT_NODE_LINES, dag.kinds, dag.nodes)
    yield from _coded_lines(_DOT_EDGE_LINES, cluster, edges[:, 0], edges[:, 1])
    yield "}\n"
