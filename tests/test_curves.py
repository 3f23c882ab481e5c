"""Lattice curve, region counting, seahorse, motion and tessellation tests."""

import random
from itertools import product
from pathlib import Path

import pytest

from patterned import curves
from patterned.curves import (
    LatticeCurve,
    RigidMotion,
    apply_motion,
    bounded_regions_euler,
    bounded_regions_flood,
    curve_from_vertices,
    curve_stats,
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
        c = trace("L", start=(3, -2), initial_heading="S")
        assert c.vertices == ((3, -2), (3, -3))
        assert c.final_heading == "E"

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            trace("X")
        with pytest.raises(ValueError):
            trace("L", initial_heading="Q")
        with pytest.raises(ValueError):
            trace("L", start=(0.5, 0))


class TestCurveValidation:
    def test_non_unit_step_rejected(self):
        with pytest.raises(ValueError):
            curve_from_vertices([(0, 0), (2, 0)])

    def test_diagonal_step_rejected(self):
        with pytest.raises(ValueError):
            curve_from_vertices([(0, 0), (1, 1)])

    def test_heading_mismatch_rejected(self):
        with pytest.raises(ValueError):
            LatticeCurve(
                vertices=((0, 0), (1, 0)),
                headings=("N",),
                source_turns=(),
                final_heading="E",
            )

    def test_turn_heading_inconsistency_rejected(self):
        with pytest.raises(ValueError):
            LatticeCurve(
                vertices=((0, 0), (1, 0), (2, 0)),
                headings=("E", "E"),
                source_turns=("L", "L"),
                final_heading="N",
            )


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
        assert max_run_length("") == 0
        assert max_run_length("LR") == 1
        assert max_run_length("LLRRRL") == 3


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
        assert _no_triple_run_words(12) == [w for w in _words(12) if max_run_length(w) <= 2]
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
        def no_curve(self):
            raise AssertionError("a LatticeCurve was built")

        monkeypatch.setattr(LatticeCurve, "__post_init__", no_curve)
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
        assert apply_motion(c, RigidMotion(reflect=True)).source_turns == (
            "R", "L", "R", "R",
        )

    def test_inverse_restores_curve(self):
        c = trace("LLRLLRLLRLLR")
        for m in TestRigidMotion.ALL_LINEAR:
            moved = RigidMotion(m.rotation, m.reflect, (5, -7))
            # reflect-then-rotate is its own inverse; a pure rotation is undone
            # by the opposite one; the shift is undone after the linear part
            rotation = m.rotation if m.reflect else -m.rotation % 360
            undo = RigidMotion(rotation, m.reflect)
            back = RigidMotion(rotation, m.reflect, undo.apply_vector((-5, 7)))
            assert back.apply_point(moved.apply_point((2, 3))) == (2, 3)
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
        assert d.source_turns == ()

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
        validate = LatticeCurve.__post_init__

        def counted(curve):
            built.append(curve.segment_count)
            validate(curve)

        monkeypatch.setattr(LatticeCurve, "__post_init__", counted)
        assert iterate_dragon(seed, 6).segment_count == 3 * 2**6
        assert built == [3 * 2**6]
        assert iterate_dragon(seed, 0) is seed
        assert built == [3 * 2**6]

    def test_rejects_negative_generations(self):
        with pytest.raises(ValueError):
            iterate_dragon(trace("L"), -1)


class TestTessellate:
    def test_single_identity_placement(self):
        sq = trace("RRRR")
        tess = tessellate(sq, [RigidMotion()])
        assert tess.overlap_count == 0
        assert tess.edges == sq.edge_set()

    def test_two_identity_placements_fully_overlap(self):
        sq = trace("RRRR")
        tess = tessellate(sq, [RigidMotion()] * 2)
        assert tess.overlap_count == len(sq.edge_set())

    def test_four_rotations_about_corner(self):
        sq = trace("RRRR")
        tess = tessellate(sq, [RigidMotion(rotation=r) for r in (0, 90, 180, 270)])
        # four quadrant squares; each axis edge is shared by two placements
        assert bounded_regions_flood(tess.edges) == 4
        assert bounded_regions_euler(tess.edges) == 4
        assert tess.overlap_count == sum(
            len(t.edge_set()) for t in tess.tiles
        ) - len(tess.edges)
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
