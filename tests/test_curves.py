"""Lattice curve, region counting, seahorse, motion and tessellation tests."""

import random
import re
import time
from itertools import product
from operator import neg
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patterned import core, curves
from patterned.curves import (
    LatticeCurve,
    RigidMotion,
    apply_motion,
    bounded_regions_euler,
    bounded_regions_flood,
    curve_from_vertices,
    curve_stats,
    distinct_ranks,
    is_seahorse,
    iterate_dragon,
    max_run_length,
    region_count_flood,
    scan_turn_words,
    seahorse_words,
    tessellate,
    trace,
)
from patterned.errors import ResourceLimitError

GOLDEN = Path(__file__).parent / "goldens" / "seahorse_words_k12.txt"
GOLDEN_K24 = Path(__file__).parent / "goldens" / "seahorse_words_k24.txt"


class TestTrace:
    def test_empty_word(self):
        c = trace([])
        assert c.vertices == ((0, 0),)
        assert c.headings == ()
        assert c.final_heading == "E"

    def test_single_left(self):
        c = trace(["L"])
        assert c.vertices == ((0, 0), (1, 0))
        assert c.final_heading == "N"

    def test_closed_square(self):
        c = trace("RRRR")
        assert c.vertices == ((0, 0), (1, 0), (1, -1), (0, -1), (0, 0))
        assert c.final_heading == "E"

    def test_segment_counts(self):
        for k in range(0, 9):
            c = trace(["L", "R"] * k)
            assert c.segment_count == 2 * k
            assert len(c.vertices) == 2 * k + 1

    def test_deterministic(self):
        word = "LRLLRRLRLLRL"
        assert trace(word) == trace(word)

    def test_custom_start_and_heading(self):
        # a word traced from any other start and heading is a rigid motion away
        c = apply_motion(trace("L"), RigidMotion(270, False, (3, -2)))
        assert c.vertices == ((3, -2), (3, -3))
        assert c.final_heading == "E"

    def test_bad_label_rejected_before_any_curve_is_built(self, monkeypatch):
        monkeypatch.setattr(curves, "_hold", None)
        with pytest.raises(ValueError, match=r"^turn label must be 'L' or 'R', got 'X'$"):
            trace("LXR")

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            trace("X")


class TestCurveValidation:
    """A direct ``LatticeCurve(...)`` checks a curve's steps, labels and bound;
    the builders check their own input and share only the bound test."""

    def test_non_unit_step_rejected(self):
        for x, y in ((2, 0), (-2, 0), (0, -3), (0, -7), (-(2**62), 0)):
            with pytest.raises(ValueError, match=rf"non-unit step \(0,0\)->\({x},{y}\)"):
                curve_from_vertices([(0, 0), (x, y)])
        with pytest.raises(ValueError, match="non-unit step"):
            LatticeCurve(path=((0, 0), (-2, 0)), turns=(), final_heading="W")
        with pytest.raises(ValueError, match="non-unit step"):  # a step of 2**63 wraps to -2**63
            curve_from_vertices([(-(2**62), 0), (2**62, 0)])

    def test_diagonal_step_rejected(self):
        with pytest.raises(ValueError, match=r"non-unit step \(1,0\)->\(2,1\)"):
            curve_from_vertices([(0, 0), (1, 0), (2, 1)])

    def test_no_vertices_rejected(self):
        with pytest.raises(ValueError, match="at least one vertex"):
            LatticeCurve(path=(), turns=(), final_heading="E")
        with pytest.raises(ValueError, match="at least one vertex"):
            curve_from_vertices([])

    def test_direct_non_unit_step_rejected(self):
        for vertices in (((0, 0), (0, 0)), ((0, 0), (1, 0), (1, 2)), ((5, 5), (4, 4))):
            (ax, ay), (bx, by) = vertices[-2:]
            with pytest.raises(ValueError, match=rf"non-unit step \({ax},{ay}\)->\({bx},{by}\)"):
                LatticeCurve(path=vertices, turns=(), final_heading="E")

    def test_bad_turn_label_rejected(self):
        with pytest.raises(ValueError, match="turn label must be 'L' or 'R', got 'X'"):
            LatticeCurve(path=((0, 0), (1, 0)), turns=("X",), final_heading="E")
        with pytest.raises(ValueError, match="got 'X'"):
            trace("LXR")

    def test_turn_heading_inconsistency_rejected(self):
        with pytest.raises(ValueError, match="inconsistent with turn word"):
            LatticeCurve(
                path=((0, 0), (1, 0), (2, 0)),
                turns=("L", "L"),
                final_heading="N",
            )
        # the last turn must give the exit heading
        with pytest.raises(ValueError, match="inconsistent with turn word"):
            LatticeCurve(path=((0, 0), (1, 0)), turns=("L",), final_heading="S")
        with pytest.raises(ValueError, match="turn/segment count mismatch"):
            LatticeCurve(path=((0, 0), (1, 0)), turns=("L", "L"), final_heading="N")

    def test_bad_final_heading_rejected(self):
        for final in ("Q", "e", None):
            with pytest.raises(ValueError, match="bad final heading"):
                LatticeCurve(path=((0, 0),), turns=(), final_heading=final)

    def test_headings_derived_from_vertices(self):
        c = LatticeCurve(path=((0, 0), (1, 0), (1, 1), (0, 1)), turns=(),
                         final_heading="S")
        assert c.headings == ("E", "N", "W")
        assert trace("LLRR").headings == ("E", "N", "W", "N")
        assert curve_from_vertices([(0, 0), (0, -1)]).final_heading == "S"
        assert curve_from_vertices([(3, 4)]).final_heading == "E"

    def test_non_integer_vertices_rejected(self):
        for vertices in ([(0, 0), (1.7, 0.2)], [(0, 0), (1.0, 0)], [("0", 0)], [(None, 0)]):
            with pytest.raises(ValueError, match="vertex coordinates must be integers"):
                curve_from_vertices(vertices)

    def test_numpy_integer_vertices_accepted(self):
        c = curve_from_vertices(np.array([[0, 0], [1, 0], [1, 1]], dtype=np.int64))
        assert c.vertices == ((0, 0), (1, 0), (1, 1))
        assert all(type(v) is int for p in c.vertices for v in p)
        # numpy would hold these together as float64; each is read as an integer
        mixed = curve_from_vertices([(np.uint64(2), -1), (np.uint64(2), 0)])
        assert mixed.vertices == ((2, -1), (2, 0)) and mixed.final_heading == "N"

    def test_vertices_not_in_pairs_rejected(self):
        for vertices in ([(0, 0, 0), (1, 0, 0)], [1, 2]):
            with pytest.raises(ValueError, match=r"in \(x, y\) pairs"):
                curve_from_vertices(vertices)

    def test_path_must_be_an_int64_pair_array(self):
        for path in (np.zeros((2, 2)), np.zeros((2, 3), np.int64), np.zeros(2, np.int64)):
            with pytest.raises(ValueError, match=r"path must be \(n \+ 1, 2\) int64, got"):
                LatticeCurve(path=path, turns=(), final_heading="E")


class TestVertexArray:
    """A curve stores one read-only int64 array; the tuples are views of it."""

    def test_one_read_only_int64_array(self):
        c = trace("LLRLR")
        assert c.path.dtype == np.int64 and c.path.shape == (6, 2)
        assert not c.path.flags.writeable
        with pytest.raises(ValueError):
            c.path[0, 0] = 7
        assert c.vertices == tuple(map(tuple, c.path.tolist()))
        assert (c.start, c.end) == (c.vertices[0], c.vertices[-1]) == ((0, 0), (-1, 2))

    def test_caller_array_cannot_change_the_curve(self):
        path = np.array([[0, 0], [1, 0]], dtype=np.int64)
        c = LatticeCurve(path=path, turns=(), final_heading="E")
        assert path.flags.writeable and not c.path.flags.writeable
        path[1] = (5, 5)
        assert c.vertices == ((0, 0), (1, 0))

    def test_equality_compares_path_turns_and_exit(self):
        c = trace("LRRL")
        assert c == trace("LRRL") and c == LatticeCurve(c.vertices, ("L", "R", "R", "L"), "E")
        assert c != trace("LRRR") and c != apply_motion(c, RigidMotion(translation=(0, 1)))
        assert c != curve_from_vertices(c.vertices) and c != c.vertices

    def test_coordinates_bounded_so_int64_cannot_wrap(self):
        # past 2**62 a shift could wrap int64 into a path whose steps look unit
        assert _traced_from("LR", (2**62 - 1, 0)).end == (2**62, 1)
        corner = RigidMotion(translation=(2**62, -(2**62)))  # the bound itself is inside
        assert apply_motion(_traced_from([], (-(2**62), 0)), corner).vertices == ((0, -(2**62)),)
        for build in (lambda: curve_from_vertices([(-(2**63), 0), (2**63 - 1, 0)]),
                      lambda: _traced_from("LR", (2**62, 0)),
                      lambda: curve_from_vertices(np.array([(2**64 - 1, 0), (2**64 - 2, 0)],
                                                           dtype=np.uint64)),
                      lambda: apply_motion(trace("LR"), RigidMotion(translation=(2**63 - 1, 0))),
                      # a translation of -2**63 would wrap the whole curve back inside
                      lambda: apply_motion(_traced_from([], (-(2**62), 0)),
                                           RigidMotion(translation=(-(2**63), 0))),
                      lambda: apply_motion(curve_from_vertices([(-(2**62), 0), (-(2**62), 1)]),
                                           RigidMotion(translation=(-(2**63), 0))),
                      lambda: RigidMotion(translation=(0, 2**62 + 1)),
                      # Python ints past int64, which numpy would hold as floats or objects
                      lambda: RigidMotion(translation=(2**63, 0)),
                      lambda: RigidMotion(translation=(0, -(2**64))),
                      lambda: curve_from_vertices([(2**64 - 1, 0), (2**64 - 2, 0)]),
                      # numpy holds unsigned and negative integers together as float64
                      lambda: curve_from_vertices([(np.uint64(2**63), -1), (np.uint64(2**63), 0)]),
                      lambda: curve_from_vertices([(0, 2**70), (0, 2**70 + 1)])):
            with pytest.raises(ValueError, match=r"coordinates must be within \+-2\*\*62"):
                build()

    @pytest.mark.parametrize("top", [2**64 - 1, 2**63, 2**62 + 1])
    def test_unsigned_vertices_bounded_as_given(self, top):
        # past int64 they are bounded before the cast; below it, after, with the same digits
        with pytest.raises(ValueError) as info:
            curve_from_vertices(np.array([(top, 5), (top - 1, 5)], dtype=np.uint64))
        assert str(info.value) == f"coordinates must be within +-2**62, got 5..{top}"
        top = np.array([(2**62, 5), (2**62 - 1, 5)], dtype=np.uint64)
        assert curve_from_vertices(top).vertices == ((2**62, 5), (2**62 - 1, 5))

    def test_edge_set_is_the_normalized_steps(self):
        rng = random.Random(4)
        for _ in range(50):
            c = trace("".join(rng.choice("LR") for _ in range(rng.randint(0, 60))))
            v = c.vertices
            assert c.edge_set() == {(min(a, b), max(a, b)) for a, b in zip(v, v[1:])}


# The string-table tracer and point-rotation motion that ``trace`` and
# ``apply_motion`` replaced, kept here as the oracle they are checked against.
_VECTORS = {"E": (1, 0), "N": (0, 1), "W": (-1, 0), "S": (0, -1)}
_LEFT_OF = {"E": "N", "N": "W", "W": "S", "S": "E"}
_RIGHT_OF = {v: k for k, v in _LEFT_OF.items()}
_HEADING_OF = {v: k for k, v in _VECTORS.items()}


def _oracle_trace(word, start, heading):
    x, y = start
    vertices, headings = [(x, y)], []
    for label in word:
        dx, dy = _VECTORS[heading]
        x, y = x + dx, y + dy
        vertices.append((x, y))
        headings.append(heading)
        heading = _LEFT_OF[heading] if label == "L" else _RIGHT_OF[heading]
    return tuple(vertices), tuple(headings), heading


def _traced_from(word, start, heading="E"):
    """``word`` traced from ``start``, heading ``heading``: the traced curve
    rotated from E to that heading and shifted to that start."""
    return apply_motion(trace(word), RigidMotion(90 * "ENWS".index(heading), False, start))


def _oracle_rotate_ccw(p, quarter_turns):
    x, y = p
    for _ in range(quarter_turns % 4):
        x, y = -y, x
    return (x, y)


def _oracle_motion(vertices, final, rotation, reflect, translation):
    def vector(p):
        return _oracle_rotate_ccw((p[0], -p[1] if reflect else p[1]), rotation // 90)

    moved = tuple(
        (x + translation[0], y + translation[1]) for x, y in map(vector, vertices)
    )
    headings = tuple(
        _HEADING_OF[bx - ax, by - ay] for (ax, ay), (bx, by) in zip(moved, moved[1:])
    )
    return moved, headings, _HEADING_OF[vector(_VECTORS[final])]


# A turn word and its parity as core makes it: a random word, or the word of the
# first k members, spelled by turn_sequence.
_word_and_parity = st.one_of(
    st.text(alphabet="LR", max_size=300).map(lambda w: (w, core.turn_parity(w))),
    st.integers(1, 5000).map(
        lambda k: ("".join(core.turn_sequence(k)), core.scan_members(k=k).turns)),
)


class TestParityWord:
    """A turn word given as a str, a list of labels or core's parity array is
    one word: the same curve, runs and mirror image."""

    @settings(max_examples=150, deadline=None)
    @given(_word_and_parity)
    def test_labels_and_parity_are_one_word(self, word_and_parity):
        word, parity = word_and_parity
        assert parity.dtype == np.uint8 and not parity.flags.writeable
        assert parity.tolist() == [int(c == "L") for c in word]
        curves_of_word = [trace(word), trace(list(word)), trace(parity)]
        for c in curves_of_word:
            assert c.path.tobytes() == curves_of_word[0].path.tobytes()
            assert (core.turn_labels(c.turns), c.final_heading) == (
                list(word), curves_of_word[0].final_heading)
        assert max_run_length(parity) == max((len(m.group()) for m in re.finditer("L+|R+", word)),
                                             default=0)
        mirrored = apply_motion(curves_of_word[2], RigidMotion(reflect=True))
        assert mirrored.turns.tolist() == [1 - p for p in parity.tolist()]
        assert core.turn_labels(mirrored.turns) == list(word.translate(str.maketrans("LR", "RL")))

    def test_a_parity_array_is_copied(self):
        parity = np.array([1, 1, 0, 1], dtype=np.uint8)  # a caller's, writable
        expected = trace("LLRL")
        built = [trace(parity), LatticeCurve(expected.path, parity, expected.final_heading)]
        parity[:] = 0
        for c in built:
            assert c == expected and not c.turns.flags.writeable
            with pytest.raises(ValueError):
                c.turns[0] = 0
        members = core.scan_members(k=100).turns
        assert not np.shares_memory(trace(members).turns, members)

    def test_a_generator_of_labels_is_one_word(self):
        expected = trace("LLRL")
        assert trace(c for c in "LLRL") == expected
        assert LatticeCurve(expected.path, (c for c in "LLRL"), expected.final_heading) == expected

    def test_other_arrays_are_read_as_labels(self):
        big = np.array([128], dtype=np.uint8)
        big.flags.writeable = False
        for turns, first in ((np.frombuffer(b"LRL", np.uint8), 76), (big, 128)):
            message = rf"^turn label must be 'L' or 'R', got {re.escape(repr(np.uint8(first)))}$"
            with pytest.raises(ValueError, match=message):
                trace(turns)
            with pytest.raises(ValueError, match=message):
                LatticeCurve(((0, 0), (1, 0)), turns[:1], "S")
        writable = np.array([1, 0], dtype=np.uint8)
        view = writable[:]
        view.flags.writeable = False  # read-only, but its memory is still writable
        for turns in (writable, view):  # 0s and 1s in uint8, writable or not: a parity array
            assert trace(turns) == trace("LR")


class TestAgainstOracle:
    def test_trace_and_motions_match_the_string_table_oracle(self):
        rng = random.Random(8)
        mirror = str.maketrans("LR", "RL")
        for _ in range(300):
            word = "".join(rng.choice("LR") for _ in range(rng.randint(0, 80)))
            start, heading = (rng.randint(-9, 9), rng.randint(-9, 9)), rng.choice("ENWS")
            c = _traced_from(word, start, heading)
            vertices, headings, final = _oracle_trace(word, start, heading)
            assert (c.vertices, c.headings, c.final_heading) == (vertices, headings, final)
            assert core.turn_labels(c.turns) == list(word)
            for rotation, reflect in product((0, 90, 180, 270), (False, True)):
                shift = (rng.randint(-50, 50), rng.randint(-50, 50))
                motion = RigidMotion(rotation, reflect, shift)
                moved = apply_motion(c, motion)
                expected = _oracle_motion(vertices, final, rotation, reflect, shift)
                assert (moved.vertices, moved.headings, moved.final_heading) == expected
                assert core.turn_labels(moved.turns) == list(word.translate(mirror) if reflect
                                                             else word)
                point = (rng.randint(-20, 20), rng.randint(-20, 20))
                assert motion.apply_vector(point) == _oracle_motion(
                    [point], "E", rotation, reflect, (0, 0))[0][0]


def _oracle_dragon(vertices, generations):
    for _ in range(generations):
        turned = [_oracle_rotate_ccw(p, 1) for p in vertices]
        (ex, ey), (sx, sy) = vertices[-1], turned[0]
        vertices = (*vertices, *((x - sx + ex, y - sy + ey) for x, y in turned[1:]))
    return vertices


def _bound_error(vertices):
    """The bound message for a path past +-2**62, from its coordinates as int64
    holds them, or None. A path that leaves the bound must also read past it
    after wrapping, or the one bound test could not see it."""
    true = [c for p in vertices for c in p]
    wrapped = [(c + 2**63) % 2**64 - 2**63 for c in true]
    inside = -curves.COORD_BOUND <= min(true) <= max(true) <= curves.COORD_BOUND
    assert inside == (-curves.COORD_BOUND <= min(wrapped) <= max(wrapped) <= curves.COORD_BOUND)
    return None if inside else (
        f"coordinates must be within +-2**62, got {min(wrapped)}..{max(wrapped)}")


def _check_built(build, error, vertices, turns, final):
    """``build()`` raises ``error`` when one is expected; else its curve has the
    oracle's vertices and equals its rebuild through the checked constructor."""
    if error:
        with pytest.raises(ValueError) as info:
            build()
        assert str(info.value) == error
        return None
    curve = build()
    assert curve.vertices == tuple(vertices) and not curve.path.flags.writeable
    assert (core.turn_labels(curve.turns), curve.final_heading) == (list(turns), final)
    assert curve == LatticeCurve(curve.path.copy(), core.turn_labels(curve.turns),
                                 curve.final_heading)
    return curve


_near_bound = st.one_of(st.integers(curves.COORD_BOUND - 8, curves.COORD_BOUND),
                        st.integers(curves.COORD_BOUND - 64, curves.COORD_BOUND + 64))
_coordinate = st.one_of(st.integers(-64, 64), _near_bound, _near_bound.map(neg))
_lr_words = st.lists(st.sampled_from("LR"), max_size=300)
_shift = st.one_of(st.integers(-64, 64), st.integers(-curves.COORD_BOUND, curves.COORD_BOUND),
                  st.sampled_from((curves.COORD_BOUND, -curves.COORD_BOUND)))
_motions = st.builds(RigidMotion, st.sampled_from((0, 90, 180, 270)), st.booleans(),
                     st.tuples(_shift, _shift))


def _inside(start, word):
    """The nearest start to ``start`` from which ``word`` stays within the bound."""
    reach = curves.COORD_BOUND - len(word)
    return tuple(max(-reach, min(reach, c)) for c in start)


class TestBuildersAgainstCheckedConstructor:
    """``trace``, ``apply_motion``, ``iterate_dragon`` and ``tessellate`` keep
    the array they build, unchecked by ``LatticeCurve``: each output must equal
    the oracle's curve and its own rebuild through the checked constructor, and
    each rejected input must raise the message the checks give."""

    @settings(max_examples=300, deadline=None)
    @given(_lr_words, st.tuples(st.sampled_from(["X", "l", "", "LR", None]), st.integers(0, 300)),
           st.sampled_from([False] * 3 + [True]), st.tuples(_coordinate, _coordinate),
           st.sampled_from("ENWS"))
    def test_trace(self, word, bad, with_bad, start, heading):
        label, at = bad
        word = word[:at] + [label] + word[at:] if with_bad else word
        vertices, final = (), None
        if with_bad:  # found before the path is traced, so before a bound it would cross
            error = f"turn label must be 'L' or 'R', got {label!r}"
        elif max(map(abs, start)) > curves.COORD_BOUND:
            error = f"translation coordinates must be within +-2**62, got {start!r}"
        else:
            vertices, _, final = _oracle_trace(word, start, heading)
            error = _bound_error(vertices)
        _check_built(lambda: _traced_from(word, start, heading), error, vertices, word, final)

    @settings(deadline=None)
    @given(_lr_words, st.tuples(_coordinate, _coordinate), st.sampled_from("ENWS"),
           st.lists(_motions, min_size=1, max_size=4))
    def test_apply_motion_and_tessellate(self, word, start, heading, motions):
        base = _traced_from(word, _inside(start, word), heading)
        vertices, _, final = _oracle_trace(word, base.start, heading)
        error, tiles = None, []
        for i, m in enumerate(motions):
            moved, _, exit_heading = _oracle_motion(vertices, final, m.rotation, m.reflect,
                                                    m.translation)
            turns = "".join(word).translate(str.maketrans("LR", "RL")) if m.reflect else word
            tile_error = _bound_error(moved)
            tile = _check_built(lambda: apply_motion(base, m), tile_error, moved, turns,
                                exit_heading)
            if tile_error and not error:  # tessellate names the first tile past the bound
                error = f"placements[{i}]: {tile_error}"
            tiles.append(tile)
        if error:
            _check_built(lambda: tessellate(base, motions), error, (), (), "")
        else:
            assert tessellate(base, motions).tiles == tuple(tiles)

    @settings(deadline=None)
    @given(st.lists(st.sampled_from("LR"), max_size=40), st.tuples(_coordinate, _coordinate),
           st.integers(0, 8))
    def test_iterate_dragon(self, word, start, generations):
        base = _traced_from(word, _inside(start, word))
        if generations == 0 or not word:
            assert iterate_dragon(base, generations) is base
            return
        vertices = _oracle_dragon(base.vertices, generations)
        final = _HEADING_OF[tuple(np.subtract(vertices[-1], vertices[-2]).tolist())]
        _check_built(lambda: iterate_dragon(base, generations), _bound_error(vertices),
                     vertices, (), final)


class TestRegionCounting:
    def test_unit_square(self):
        sq = trace("RRRR")
        stats = curve_stats(sq)
        assert stats.bounded_region_count == 1
        assert region_count_flood(sq) == 1

    def test_single_segment(self):
        c = trace("L")
        assert curve_stats(c).bounded_region_count == 0
        assert region_count_flood(c) == 0

    def test_single_vertex(self):
        c = trace([])
        assert curve_stats(c).bounded_region_count == 0
        assert region_count_flood(c) == 0

    def test_tree_shaped_figure_path(self):
        # the bent 7-vertex path encloses nothing despite its organic look
        c = curve_from_vertices(
            [(0, 0), (1, 0), (1, 1), (0, 1), (0, 2), (-1, 2), (-1, 3)]
        )
        assert curve_stats(c).bounded_region_count == 0
        assert region_count_flood(c) == 0

    def test_two_stacked_squares(self):
        # euler path over two unit squares sharing an edge
        c = curve_from_vertices(
            [(0, 1), (0, 0), (1, 0), (1, 1), (1, 2), (0, 2), (0, 1), (1, 1)]
        )
        assert region_count_flood(c) == 2
        assert curve_stats(c).bounded_region_count == 2

    def test_euler_flood_agree_exhaustive_k10(self):
        for k in range(1, 11):
            for letters in product("LR", repeat=k):
                c = trace(letters)
                assert curve_stats(c).bounded_region_count == region_count_flood(c), (
                    "".join(letters)
                )

    def test_three_counters_agree_on_random_words_and_dragons(self):
        # curve_stats counts a curve's regions as E - V + 1; both oracles
        # count them with no assumption about the edge set
        rng = random.Random(13)
        words = ["".join(rng.choice("LR") for _ in range(rng.randint(0, 120)))
                 for _ in range(400)]
        shapes = [trace(w) for w in words]
        shapes += [iterate_dragon(trace("LLR"), g) for g in range(9)]
        for c in shapes:
            euler = bounded_regions_euler(c.edge_set())
            assert curve_stats(c).bounded_region_count == euler == region_count_flood(c)

    def test_empty_edge_set(self):
        assert bounded_regions_euler([]) == 0
        assert bounded_regions_flood([]) == 0

    def test_stats_do_not_move_with_the_curve(self):
        # the packed keys are offsets from the bounding box, so any shift, far
        # negative coordinates included, counts the same vertices and edges
        rng = random.Random(21)
        for word in ["RRRR", "LLRLLRLLRLLR"] + [
                "".join(rng.choice("LR") for _ in range(200)) for _ in range(20)]:
            c = trace(word)
            base = curve_stats(c)
            for shift in ((0, -1), (-1, 0), (-5, -3), (-(2**40), 3), (7, -(2**40))):
                moved = curve_stats(apply_motion(c, RigidMotion(translation=shift)))
                assert (moved.unique_edge_count, moved.revisited_vertex_count,
                        moved.bounded_region_count) == (base.unique_edge_count,
                        base.revisited_vertex_count, base.bounded_region_count)


class TestCurveStats:
    def test_square_stats(self):
        stats = curve_stats(trace("RRRR"))
        assert stats.segment_count == 4
        assert stats.unique_edge_count == 4
        assert stats.revisited_vertex_count == 1  # start == end
        assert stats.bounding_box == (0, -1, 1, 0)
        assert stats.max_turn_run == 4

    def test_unique_edges_bounded_by_segments(self):
        for word in ("LL", "LRLR", "RRLLRRLL", "LRLLRLLRLLRR"):
            stats = curve_stats(trace(word))
            assert stats.unique_edge_count <= stats.segment_count

    def test_max_run_length(self):
        assert max_run_length(core.turn_parity("")) == 0
        assert max_run_length(core.turn_parity("LR")) == 1
        assert max_run_length(core.turn_parity("LLRRRL")) == 3


class TestSeahorse:
    def test_square_fails_run_condition(self):
        report = is_seahorse(trace("RRRR"))
        assert not report.max_turn_run_ok
        assert not report.is_seahorse

    def test_single_segment_fails_region_condition(self):
        report = is_seahorse(trace("L"))
        assert not report.single_region_ok
        assert not report.is_seahorse

    def test_open_symmetric_word_has_reflection(self):
        # "LR" is reflection-symmetric start-to-end but encloses nothing
        report = is_seahorse(trace("LR"))
        assert report.reflection_ok
        assert not report.single_region_ok

    def test_pinwheel_dodecagon_is_seahorse(self):
        report = is_seahorse(trace("LLRLLRLLRLLR"))
        assert report.max_turn_run_ok
        assert report.single_region_ok
        assert report.reflection_ok
        assert report.is_seahorse

    def test_mirror_pinwheel_is_seahorse(self):
        assert is_seahorse(trace("RRLRRLRRLRRL")).is_seahorse

    def test_rotated_word_is_not(self):
        # same closed shape, but the start vertex breaks the head-tail symmetry
        assert not is_seahorse(trace("LRLLRLLRLLRL")).is_seahorse

    def test_requires_traced_curve(self):
        with pytest.raises(ValueError):
            is_seahorse(curve_from_vertices([(0, 0), (1, 0)]))

    def test_golden_scan_k12(self):
        expected = GOLDEN.read_text().split()
        assert seahorse_words(12) == expected

    def test_no_seahorses_below_length_12(self):
        assert seahorse_words(11) == []


def _words(max_len):
    return ["".join(w) for k in range(1, max_len + 1) for w in product("LR", repeat=k)]


def _no_triple_run_words(max_len):
    """Words of length <= max_len with no run of three equal turns, pruned only
    by that rule, listed by length, then alphabetically."""
    found, level = [], ["L", "R"]
    while level and len(level[0]) <= max_len:
        found += level
        level = [w + c for w in level for c in "LR" if not w.endswith(c * 2)]
    return found


def _survivors(max_len):
    """Per length, the words the pruned walk keeps: no run of three, at most one region."""
    counts = [0] * max_len
    for prefix, _, _, _, oks in curves._walk_turn_words(max_len, prune=True):
        counts[len(prefix)] += sum(oks)
    return counts


class TestSeahorseScan:
    def test_all_words_match_the_oracle_to_length_14(self):
        expected = [(w, is_seahorse(trace(w))) for w in _words(14)]
        assert scan_turn_words(14) == expected
        for k in range(1, 15):
            assert seahorse_words(k) == [
                w for w, report in expected if len(w) <= k and report.is_seahorse
            ]

    def test_pruned_search_matches_an_enumeration_to_length_18(self):
        assert _no_triple_run_words(12) == [
            w for w in _words(12) if max_run_length(core.turn_parity(w)) <= 2]
        words = _no_triple_run_words(18)
        seahorses, survivors = [], [0] * 18
        for w in words:
            curve = trace(w)
            survivors[len(w) - 1] += curve_stats(curve).bounded_region_count <= 1
            if is_seahorse(curve).is_seahorse:
                seahorses.append(w)
        assert seahorse_words(18) == seahorses
        assert _survivors(18) == survivors

    def test_golden_search_k24(self):
        lines = GOLDEN_K24.read_text().splitlines()
        assert lines[1].startswith("survivors ")
        assert _survivors(24) == [int(n) for n in lines[1].split()[1:]]
        assert seahorse_words(24) == lines[2:]
        assert lines[2:4] == GOLDEN.read_text().split()

    def test_builds_no_curve_per_word(self, monkeypatch):
        def no_curve(*args):
            raise AssertionError("a LatticeCurve was built")

        monkeypatch.setattr(curves, "_hold", no_curve)
        assert seahorse_words(14)
        assert len(scan_turn_words(8)) == 2**9 - 2

    @pytest.mark.parametrize("scan, cap", [
        (seahorse_words, curves.MAX_SEAHORSE_LEN),
        (scan_turn_words, curves.MAX_ALL_WORDS_LEN),
    ])
    def test_cap_checked_before_any_work(self, monkeypatch, scan, cap):
        monkeypatch.setattr(curves, "_walk_turn_words", None)
        with pytest.raises(ResourceLimitError, match="max_len"):
            scan(cap + 1)
        for bad in (0, -1, 2.0, "12"):
            with pytest.raises(ValueError, match="max_len"):
                scan(bad)


def _oracle_reflections_sending(s, e):
    """The lattice reflections sending s to e, written out per axis family:
    vertical, horizontal, diagonal (y = x + c) and anti-diagonal (x + y = c)."""
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


def _table_reflections_sending(s, e):
    """``curves._reflections_sending`` with each (a, b, c, d, tx, ty) as a map."""
    for a, b, c, d, tx, ty in curves._reflections_sending(s, e):
        yield lambda p, a=a, b=b, c=c, d=d, tx=tx, ty=ty: (
            a * p[0] + b * p[1] + tx, c * p[0] + d * p[1] + ty)


class TestReflections:
    SAMPLES = [(0, 0), (1, 0), (0, 1), (3, -2), (-5, 7)]  # images pin an affine map

    def maps(self, reflections):
        return sorted(tuple(refl(p) for p in self.SAMPLES) for refl in reflections)

    def test_table_matches_the_written_out_reflections(self):
        grid = list(product(range(-3, 4), repeat=2))
        for s, e in product(grid, grid):
            found = self.maps(_table_reflections_sending(s, e))
            assert found == self.maps(_oracle_reflections_sending(s, e)), (s, e)
            assert len(found) == (4 if s == e else len(set(found)))

    def test_each_map_is_an_involution_sending_s_to_e(self):
        for s, e in [((0, 0), (0, 0)), ((2, -1), (2, -1)), ((0, 0), (4, 0)),
                     ((1, 1), (1, -3)), ((0, 0), (3, 3)), ((2, 0), (-1, 3))]:
            reflections = list(_table_reflections_sending(s, e))
            assert reflections
            for refl in reflections:
                assert refl(s) == e and refl(e) == s
                assert all(refl(refl(p)) == p for p in self.SAMPLES)

    def test_the_table_is_rigid_motion_reflections(self):
        assert set(curves._REFLECTIONS) == {RigidMotion(r, True).matrix for r in (0, 90, 180, 270)}


class TestRigidMotion:
    ALL_LINEAR = [
        RigidMotion(rotation=r, reflect=f)
        for r in (0, 90, 180, 270)
        for f in (False, True)
    ]

    def test_rejects_bad_rotation(self):
        with pytest.raises(ValueError):
            RigidMotion(rotation=45)

    def test_rejects_non_integer_translation(self):
        with pytest.raises(ValueError):
            RigidMotion(translation=(0.5, 0))

    @pytest.mark.parametrize("rotation", [90.0, True, "90", None])
    def test_rejects_non_int_rotation(self, rotation):
        with pytest.raises(ValueError, match="rotation must be one of 0/90/180/270"):
            RigidMotion(rotation=rotation)

    @pytest.mark.parametrize("reflect", ["no", 0, 1, None, np.bool_(True)])
    def test_rejects_non_bool_reflect(self, reflect):
        with pytest.raises(ValueError, match="reflect must be True or False"):
            RigidMotion(reflect=reflect)

    @pytest.mark.parametrize("translation", [(True, 0), (0, False), (np.int64(1), 0)])
    def test_rejects_bool_or_non_int_translation(self, translation):
        with pytest.raises(ValueError, match="translation must be an integer vector"):
            RigidMotion(translation=translation)

    @pytest.mark.parametrize("translation", [(5,), (1, 2, 3), (), 5, "12", {1: 2, 3: 4}])
    def test_translation_is_exactly_two_integers(self, translation):
        with pytest.raises(ValueError, match=r"translation must be an integer vector \(x, y\)"):
            RigidMotion(translation=translation)

    def test_translation_bounded_where_it_enters(self):
        with pytest.raises(ValueError) as info:
            RigidMotion(translation=[0, -(2**62) - 1])
        assert str(info.value) == ("translation coordinates must be within +-2**62, "
                                   "got [0, -4611686018427387905]")

    def test_translation_list_of_two_accepted(self):
        moved = apply_motion(trace("L"), RigidMotion(translation=[2, -3]))
        assert moved.vertices == ((2, -3), (3, -3))


class TestApplyMotion:
    def test_identity(self):
        c = trace("LRLL")
        assert apply_motion(c, RigidMotion()) == c

    def test_rotation_180_twice_restores(self):
        c = trace("LRLL")
        r180 = RigidMotion(rotation=180)
        assert apply_motion(apply_motion(c, r180), r180) == c

    def test_reflect_twice_restores(self):
        c = trace("LRLL")
        refl = RigidMotion(reflect=True)
        assert apply_motion(apply_motion(c, refl), refl) == c

    def test_reflection_swaps_turn_word(self):
        c = trace("LRLL")
        assert core.turn_labels(apply_motion(c, RigidMotion(reflect=True)).turns) == [
            "R", "L", "R", "R",
        ]

    def test_inverse_restores_curve(self):
        c = trace("LLRLLRLLRLLR")
        for m in TestRigidMotion.ALL_LINEAR:
            moved = RigidMotion(m.rotation, m.reflect, (5, -7))
            # reflect-then-rotate is its own inverse; a pure rotation is undone
            # by the opposite one; the shift is undone after the linear part
            rotation = m.rotation if m.reflect else -m.rotation % 360
            undo = RigidMotion(rotation, m.reflect)
            back = RigidMotion(rotation, m.reflect, undo.apply_vector((-5, 7)))
            assert apply_motion(apply_motion(c, moved), back) == c

    def test_isometry_preserves_stats(self):
        for word in ("RRRR", "LLRLLRLLRLLR", "LRLRLRLL"):
            c = trace(word)
            base = curve_stats(c)
            for m in TestRigidMotion.ALL_LINEAR:
                moved = apply_motion(c, RigidMotion(m.rotation, m.reflect, (3, 9)))
                stats = curve_stats(moved)
                assert stats.bounded_region_count == base.bounded_region_count
                assert stats.unique_edge_count == base.unique_edge_count


class TestIterateDragon:
    def test_zero_generations_identity(self):
        c = trace("LLR")
        assert iterate_dragon(c, 0) == c

    def test_single_segment_one_generation(self):
        c = trace("L")  # (0,0) -> (1,0)
        d = iterate_dragon(c, 1)
        assert d.vertices == ((0, 0), (1, 0), (1, 1))
        assert d.segment_count == 2
        assert core.turn_labels(d.turns) == []

    def test_doubling_law(self):
        seed = trace("LLR")
        for g in range(0, 11):
            assert iterate_dragon(seed, g).segment_count == 3 * 2**g

    def test_rotated_copy_alignment(self):
        seed = trace("LLR")
        prev = seed
        for _ in range(6):
            grown = iterate_dragon(prev, 1)
            k = len(prev.vertices)
            assert grown.vertices[:k] == prev.vertices
            # appended tail is the quarter-turned copy shifted onto the end
            ex, ey = prev.end
            rot = [(-y, x) for x, y in prev.vertices]
            shift = (ex - rot[0][0], ey - rot[0][1])
            expected_tail = tuple((x + shift[0], y + shift[1]) for x, y in rot[1:])
            assert grown.vertices[k:] == expected_tail
            prev = grown

    def test_resource_cap(self):
        with pytest.raises(ResourceLimitError):
            iterate_dragon(trace("LLR"), 5, max_edges=16)

    def test_builds_one_curve(self, monkeypatch):
        seed = trace("LLR")
        built = []
        hold = curves._hold

        def counted(*args):
            curve = hold(*args)
            built.append(curve.segment_count)
            return curve

        monkeypatch.setattr(curves, "_hold", counted)
        assert iterate_dragon(seed, 6).segment_count == 3 * 2**6
        assert built == [3 * 2**6]
        assert iterate_dragon(seed, 0) is seed
        assert built == [3 * 2**6]

    def test_rejects_negative_generations(self):
        with pytest.raises(ValueError):
            iterate_dragon(trace("L"), -1)

    def test_no_segments_returns_at_once(self):
        empty = trace([])
        start = time.perf_counter()
        assert iterate_dragon(empty, 10**6) is empty
        assert time.perf_counter() - start < 0.1


class TestTessellate:
    def test_single_identity_placement(self):
        sq = trace("RRRR")
        tess = tessellate(sq, [RigidMotion()])
        assert tess.overlap_count == 0
        assert tess.edge_set() == sq.edge_set()
        assert tess.unique_edge_count == 4 and tess.bounded_region_count == 1

    def test_two_identity_placements_fully_overlap(self):
        sq = trace("RRRR")
        tess = tessellate(sq, [RigidMotion()] * 2)
        assert tess.overlap_count == len(sq.edge_set())

    def test_four_rotations_about_corner(self):
        sq = trace("RRRR")
        tess = tessellate(sq, [RigidMotion(rotation=r) for r in (0, 90, 180, 270)])
        # four quadrant squares; each axis edge is shared by two placements
        assert bounded_regions_flood(tess.edge_set()) == 4
        assert bounded_regions_euler(tess.edge_set()) == 4
        assert tess.bounded_region_count == 4
        assert tess.overlap_count == sum(
            len(t.edge_set()) for t in tess.tiles
        ) - len(tess.edge_set())
        assert tess.overlap_count == 4

    def test_tile_order_matches_placements(self):
        sq = trace("RRRR")
        shift = RigidMotion(translation=(10, 0))
        tess = tessellate(sq, [RigidMotion(), shift])
        assert tess.tiles[0] == sq
        assert tess.tiles[1] == apply_motion(sq, shift)

    def test_rejects_empty_placements(self):
        with pytest.raises(ValueError):
            tessellate(trace("RRRR"), [])

    @staticmethod
    def assert_counts_match_oracles(tess, flood=True):
        union = tess.edge_set()
        assert tess.unique_edge_count == len(union)
        assert tess.overlap_count == sum(len(t.edge_set()) for t in tess.tiles) - len(union)
        assert tess.bounded_region_count == bounded_regions_euler(union)
        if flood:
            assert tess.bounded_region_count == bounded_regions_flood(union)

    def test_counts_match_union_euler_and_flood_on_random_words(self):
        rng = random.Random(12)
        for _ in range(300):
            word = "".join(rng.choice("LR") for _ in range(rng.randint(0, 24)))
            motions = [
                RigidMotion(rng.choice((0, 90, 180, 270)), rng.random() < 0.5,
                            (rng.randint(-6, 6), rng.randint(-6, 6)))
                for _ in range(rng.randint(1, 5))
            ]
            if rng.random() < 0.3:  # split the tiles apart
                motions.append(RigidMotion(rng.choice((0, 90)), False, (40, rng.randint(-40, 40))))
            if rng.random() < 0.3:  # a repeated tile
                motions.append(rng.choice(motions))
            self.assert_counts_match_oracles(tessellate(trace(word), motions))

    @pytest.mark.parametrize("values", [[5], [3, -1, 3, 2**62, -2**62, 0, -1],
                                        list(range(9, -3, -1))])
    def test_distinct_ranks(self, values):
        values = np.array(values, dtype=np.int64)
        distinct, ranks = distinct_ranks(values)
        assert distinct.tolist() == sorted(set(values.tolist()))
        assert distinct[ranks].tolist() == values.tolist()

    def test_tiles_touching_at_a_vertex_only(self):
        sq = trace("RRRR")  # the unit square [0, 1] x [-1, 0]
        tess = tessellate(sq, [RigidMotion(), RigidMotion(translation=(1, 1))])
        assert (tess.unique_edge_count, tess.overlap_count, tess.bounded_region_count) == (8, 0, 2)
        self.assert_counts_match_oracles(tess)

    def test_separate_tiles_count_their_regions_each(self):
        sq = trace("RRRR")
        for dx in (2, 10**6, 2**62 - 2):
            tess = tessellate(sq, [RigidMotion(), RigidMotion(translation=(dx, 0))])
            assert (tess.unique_edge_count, tess.bounded_region_count) == (8, 2)
            self.assert_counts_match_oracles(tess, flood=dx < 100)
        far = [RigidMotion(r, f, (x, y)) for r, f in ((0, False), (90, True))
               for x, y in ((-2**62 + 40, 3), (0, 2**62 - 40), (7, 7))]
        tess = tessellate(trace("LLRLLRLLRLLR"), far)
        self.assert_counts_match_oracles(tess, flood=False)

    def test_placements_times_segments_capped_before_any_tile(self, monkeypatch):
        def no_tile(*args):
            raise AssertionError("a tile was built before the cap was checked")

        monkeypatch.setattr(curves, "apply_motion", no_tile)
        monkeypatch.setattr(curves, "DEFAULT_EDGE_CAP", 12)
        with pytest.raises(ResourceLimitError, match="placements must make <= 12 segments, "
                                                     r"got 5 of 3 segments each \(15\)"):
            tessellate(trace("LLR"), [RigidMotion()] * 5)
        with pytest.raises(ResourceLimitError, match="placements"):
            tessellate(trace([]), [RigidMotion()] * 13)  # a tile is at least one vertex
        monkeypatch.undo()
        monkeypatch.setattr(curves, "DEFAULT_EDGE_CAP", 12)
        assert len(tessellate(trace("LLR"), [RigidMotion()] * 4).tiles) == 4

    def test_tile_past_the_coordinate_bound_names_its_placement(self):
        motions = [RigidMotion(), RigidMotion(translation=(2**62, 0))]
        with pytest.raises(ValueError, match=r"placements\[1\]: coordinates must be within"):
            tessellate(trace("LLR"), motions)

    @pytest.mark.parametrize("placement, kind", [({"rotation": 90}, "dict"),
                                                 ((90, False, (0, 0)), "tuple"),
                                                 (None, "NoneType")])
    def test_placement_that_is_not_a_motion_is_named_before_any_tile(self, monkeypatch,
                                                                     placement, kind):
        def no_tile(*args):
            raise AssertionError("a tile was built before the placements were checked")

        monkeypatch.setattr(curves, "apply_motion", no_tile)
        with pytest.raises(ValueError,
                           match=rf"^placements\[1\] must be a RigidMotion, got {kind}$"):
            tessellate(trace("L"), [RigidMotion(), placement])
