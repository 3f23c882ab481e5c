"""Property tests: row and path formats against the cell-by-cell reference.

A command builds one %-format per row from its column kinds ("%d" for
integers, ``serialize.REAL`` for reals, "%s" for text and for bools looked
up in ``serialize.BOOL_TEXT``); an SVG path looks each point up in a table
of its distinct coordinates' texts. Here hypothesis draws columns, rows,
points, traced words and units and checks that those formats give the bytes
the per-cell reference of ``test_serialize`` gives.
"""

import math
from itertools import groupby
from operator import neg
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from patterned import core, serialize
from patterned.core import MAX_INT, profile
from patterned.curves import (
    COORD_BOUND,
    RigidMotion,
    apply_motion,
    curve_stats,
    max_run_length,
    trace,
)
from test_serialize import member_block, ref_line, ref_path, ref_profile_row

finite = st.floats(allow_nan=False, allow_infinity=False)
int64 = st.integers(min_value=-MAX_INT - 1, max_value=MAX_INT)
cell = st.one_of(int64, finite, st.booleans(), st.sampled_from(["L", "R", "gap", ""]))

# The cell format of each column kind, and how a value enters it.
FORMATS = {
    int: ("%d", int),
    float: (serialize.REAL, float),
    bool: ("%s", serialize.BOOL_TEXT.__getitem__),
    str: ("%s", str),
}


@given(st.integers(min_value=0, max_value=MAX_INT), st.lists(finite, max_size=40))
def test_step_and_reals_row(step, reals):
    line = "%d" + f",{serialize.REAL}" * len(reals) + "\n"
    assert line % (step, *reals) == ref_line([step, *reals])


@given(st.lists(cell, min_size=1, max_size=12))
def test_mixed_columns(row):
    formats = [FORMATS[type(value)] for value in row]
    line = ",".join(f for f, _ in formats) + "\n"
    assert line % tuple(put(v) for (_, put), v in zip(formats, row)) == ref_line(row)


@given(
    st.lists(st.tuples(st.integers(-(2**20), 2**20), st.integers(-(2**20), 2**20)),
             min_size=1, max_size=60),
    st.one_of(st.floats(min_value=1e-300, max_value=1e300), st.sampled_from([1, 0.1, 1 / 3])),
)
def test_svg_path(points, unit):
    assert serialize._svg_path(points, unit) == ref_path(points, unit)


# A start this far inside the coordinate bound keeps every vertex of a word
# of up to 200 letters inside it.
near_bound = st.integers(COORD_BOUND - 1200, COORD_BOUND - 200)
coordinate = st.one_of(st.integers(-(2**20), 2**20), near_bound, near_bound.map(neg))


@given(
    st.text(alphabet="LR", max_size=200),  # the empty word traces a one-vertex path
    st.tuples(coordinate, coordinate),
    st.sampled_from([1, 0.1, 1 / 3, 1e-300, 1e300]),  # 1e300 takes large coordinates to inf
)
def test_traced_svg_path(word, start, unit):
    curve = apply_motion(trace(word), RigidMotion(translation=start))
    with np.errstate(over="ignore"):
        assert serialize._svg_path(curve.path, unit) == ref_path(curve.vertices, unit)
    xs, ys = zip(*curve.vertices)
    assert curve_stats(curve).bounding_box == (min(xs), min(ys), max(xs), max(ys))


def ref_max_run(labels) -> int:
    """The longest run of equal adjacent labels, by ``itertools.groupby``."""
    return max((len(list(run)) for _, run in groupby(labels)), default=0)


@given(st.text(alphabet="LR", max_size=300))
def test_max_run_length(word):
    assert max_run_length(core.turn_parity(word)) == ref_max_run(word)


@settings(max_examples=300)
@given(st.lists(st.integers(min_value=1, max_value=MAX_INT), min_size=1, max_size=20))
def test_gen_rows(numbers):
    block = member_block(sorted(set(numbers)))
    with mock.patch.object(core, "_member_blocks", lambda limit: iter([block])):
        text = "".join(serialize.profile_csv_rows(core.profile_blocks(MAX_INT)))
    expected = [profile(n) for n in block[0].tolist()]
    assert text == "".join(ref_line(ref_profile_row(p)) for p in expected)


def _ulp_neighbours(x: float) -> list:
    return [math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf)]


# Cells where a numpy shortcut to '%.12g' could slip, each with its neighbours
# one ulp away: powers of ten, exact 12-digit ties (a / 2**13 has 13 decimals),
# the doubles nearest decimal ties (some of which round up to a power of ten),
# the edge of the fixed and exponent forms, 1 - eps, subnormals and the largest
# doubles.
EDGE_CELLS = sorted({v for x in (
    *(float(f"1e{e}") for e in range(-101, 2)),
    *(a / 2**13 for a in (819, 1001, 4097, 8191)),
    *(float(f"{digits}5e{e}") for digits in ("123456789012", "999999999999", "100000000000")
      for e in range(-112, -10, 3)),
    9.9999999999995e-5, 9.99999999999949e-5, 1 - 2**-53, 0.5,
    5e-324, 2.2250738585072014e-308, 1e308, 1.7976931348623157e308,
) for v in _ulp_neighbours(x)})
table_cell = st.one_of(
    finite,
    st.floats(min_value=0, max_value=1, exclude_max=True),  # walk probabilities
    st.sampled_from(EDGE_CELLS),
    st.sampled_from(EDGE_CELLS).map(neg),
    st.sampled_from([0.0, -0.0, float("nan"), float("inf"), float("-inf")]),
)


@settings(max_examples=200)
@given(st.integers(1, 12).flatmap(
           lambda n: st.lists(st.lists(table_cell, min_size=n, max_size=n), min_size=1,
                              max_size=8)),
       st.sampled_from([1, 5, serialize.BLOCK_CELLS]))
def test_real_table_rows(rows, block):
    """The table writer against '%.12g' per cell, with blocks of one cell (every
    row split), of a few cells, and of the default size."""
    with mock.patch.object(serialize, "BLOCK_CELLS", block):
        text = "".join(serialize.real_csv_rows(np.array(rows)))
    assert text == "".join(ref_line([i, *row]) for i, row in enumerate(rows))
