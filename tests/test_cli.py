"""Command-line surface tests: formats, exit codes, config handling, goldens."""

import argparse
import json
import os
import re
import stat
from pathlib import Path

import pytest

from patterned import cli, core, curves, dynamics, graphs, serialize
from patterned.cli import cli_dispatch
from patterned.errors import InvariantError
from patterned.core import profile

GOLDENS = Path(__file__).parent / "goldens"


def run(capsys, *argv):
    code = cli_dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGen:
    def test_csv_header_and_rows(self, capsys):
        code, out, _ = run(capsys, "gen", "--limit", "13")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n,digits,small_divisors,matches,match_count,patterned,turn"
        assert lines[1] == "1,1,1,1,1,true,L"
        assert lines[-1] == "13,1|3,1,1,1,true,L"
        assert len(lines) == 14  # header + the 13 qualifying numbers

    def test_limit_1_single_row(self, capsys):
        code, out, _ = run(capsys, "gen", "--limit", "1")
        assert code == 0
        assert out.splitlines()[1:] == ["1,1,1,1,1,true,L"]

    def test_json_round_trip(self, capsys):
        code, out, _ = run(capsys, "gen", "--limit", "36", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["limit"] == 36
        assert [e["n"] for e in payload["profiles"]] == core.patterned_sequence(36)
        for entry in payload["profiles"]:
            p = profile(entry["n"])
            assert entry == {
                "n": p.n,
                "digits": sorted(p.digits),
                "small_divisors": sorted(p.small_divisors),
                "matches": sorted(p.matches),
                "match_count": p.match_count,
                "patterned": p.is_patterned,
                "turn": p.turn,
            }

    def test_missing_limit_is_validation_error(self, capsys):
        code, _, err = run(capsys, "gen")
        assert code == 2
        assert "limit" in err

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_bad_limit_creates_no_output_file(self, capsys, tmp_path, fmt):
        out_file = tmp_path / "gen.out"
        code, out, err = run(
            capsys, "gen", "--limit", "0", "--format", fmt, "--out", str(out_file)
        )
        assert code == 2 and out == "" and "limit" in err
        assert not out_file.exists()


class TestCount:
    def test_limit_100_reports_claim_side_by_side(self, capsys):
        code, out, _ = run(capsys, "count", "--limit", "100")
        assert code == 0
        payload = json.loads(out)
        assert payload["count"] == 69
        assert payload["density"] == pytest.approx(0.69)
        claim = payload["claim"]
        assert claim["count"] == 72
        assert claim["density"] == pytest.approx(0.72)
        assert claim["matches_computed"] is False
        assert claim["discrepancy"] == -3
        assert "double-counts" in claim["note"]

    def test_other_limits_have_no_claim(self, capsys):
        code, out, _ = run(capsys, "count", "--limit", "50")
        assert code == 0
        assert json.loads(out)["claim"] is None

    def test_largest_limit_counts_without_a_scan_past_the_check(self, capsys, monkeypatch):
        real = core._member_blocks

        def checked_only(limit):
            assert limit <= core.COUNT_CHECK_LIMIT, f"scan up to {limit}"
            return real(limit)

        monkeypatch.setattr(core, "_member_blocks", checked_only)
        code, out, err = run(capsys, "count", "--limit", "9223372036854775807")
        assert code == 0 and err == ""
        payload = json.loads(out)
        assert payload["count"] == 8_966_875_490_664_456_428
        assert payload["density"] == 8_966_875_490_664_456_428 / (2**63 - 1)
        code, out, err = run(capsys, "count", "--limit", "9223372036854775808")
        assert code == 2 and out == ""
        assert err == "error: limit exceeds the supported width (2**63 - 1)\n"


class TestPrimes:
    def test_csv_groups(self, capsys):
        code, out, _ = run(capsys, "primes", "--limit", "100")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "p,group"
        patterned = [int(l.split(",")[0]) for l in lines[1:] if l.endswith("patterned")]
        assert patterned == [2, 3, 5, 7, 11, 13, 17, 19, 31, 41, 61, 71]

    def test_json_partition(self, capsys):
        code, out, _ = run(capsys, "primes", "--limit", "100", "--format", "json")
        payload = json.loads(out)
        assert payload["patterned"] == [2, 3, 5, 7, 11, 13, 17, 19, 31, 41, 61, 71]
        assert payload["gap"] == [23, 29, 37, 43, 47, 53, 59, 67, 73, 79, 83, 89, 97]

    def test_empty_output_keeps_header(self, capsys):
        code, out, _ = run(capsys, "primes", "--limit", "1")
        assert code == 0
        assert out == "p,group\n"


class TestTurns:
    def test_csv(self, capsys):
        code, out, _ = run(capsys, "turns", "--k", "12")
        lines = out.splitlines()
        assert lines[0] == "index,n,turn"
        assert lines[1] == "1,1,L"
        assert lines[12] == "12,12,R"

    def test_enumerates_once(self, capsys, monkeypatch):
        classified = []
        real = core.classify_block
        monkeypatch.setattr(
            core, "classify_block", lambda a: classified.extend(a.tolist()) or real(a)
        )
        code, out, _ = run(capsys, "turns", "--k", "12", "--format", "json")
        assert code == 0 and classified == list(range(1, len(classified) + 1))
        assert json.loads(out)["turns"] == ["L"] * 11 + ["R"]


class TestCurve:
    def test_square_svg_example(self, capsys, tmp_path):
        out_file = tmp_path / "sq.svg"
        code, out, _ = run(capsys, "curve", "--word", "RRRR", "--out", str(out_file))
        assert code == 0
        svg = out_file.read_text()
        assert 'viewBox="-1 -2 3 3"' in svg
        assert svg.count("L ") == 4  # four line segments in the single path
        stats = json.loads(out)
        assert stats["bounded_region_count"] == 1
        assert stats["bounding_box"] == [0, -1, 1, 0]

    def test_svg_to_stdout_without_out(self, capsys):
        code, out, _ = run(capsys, "curve", "--word", "RRRR")
        assert code == 0
        assert out.startswith("<svg")

    def test_golden_curve_k12(self, capsys, tmp_path):
        out_file = tmp_path / "curve.svg"
        code, _, _ = run(capsys, "curve", "--k", "12", "--out", str(out_file))
        assert code == 0
        assert out_file.read_bytes() == (GOLDENS / "curve_k12.svg").read_bytes()

    def test_bad_word_rejected(self, capsys):
        code, _, err = run(capsys, "curve", "--word", "LXR")
        assert code == 2
        assert "word" in err

    @pytest.mark.parametrize("command", [("curve",), ("dragon", "--generations", "2"),
                                         ("tessellate", "--placements", '[{"rotation": 90}]')])
    @pytest.mark.parametrize("unit", ["inf", "1e308", "5e307"])
    def test_unit_must_keep_the_drawing_finite(self, capsys, tmp_path, command, unit):
        out_file = tmp_path / "out.svg"
        code, out, err = run(capsys, *command, "--word", "LLLLRRLR", "--unit", unit,
                             "--out", str(out_file))
        assert code == 2 and out == "" and not out_file.exists()
        assert err == f"error: unit must keep the drawing finite, got {float(unit)}\n"

    @pytest.mark.parametrize("unit, shown", [("1e400", "inf"), ("1e308", "1e+308")])
    def test_unit_from_config_must_keep_the_drawing_finite(self, capsys, tmp_path, unit, shown):
        config = tmp_path / "curve.json"
        config.write_text(f'{{"word": "LL", "unit": {unit}}}')  # JSON reads 1e400 as inf
        code, out, err = run(capsys, "curve", "--config", str(config))
        assert code == 2 and out == ""
        assert err == f"error: unit must keep the drawing finite, got {shown}\n"

    def test_largest_finite_drawing_is_written(self, capsys):
        # the view box of LL is -1 -1 3 3 units wide: 5e307 keeps every corner finite
        code, out, err = run(capsys, "curve", "--word", "LL", "--unit", "5e307")
        assert code == 0 and err == ""
        assert 'viewBox="-5e+307 -5e+307 1.5e+308 1.5e+308"' in out
        assert "inf" not in out and "nan" not in out


WORD_300 = (
    "LRLLRRRLLLLRLRLRRLRRRRRLRLRRRLRLRRRRLRRLRRRRRRLLLLLRRLRLLRRRRRRRRLRRLLLRRRLRRRRR"
    "LRRRLRRRLRRLRRRLLRLRLLLRLLLLLRRLLRRLLRLRLRLLRRRLLRLLRLLRRLLRRRRRLRRLLLRRRLLRLLLL"
    "LRLRLLLLLLRRRRLRRLRLRRRRRRLRRRLRLLLLLRRRLLRLRLLRLRRLLRLRLLLRLLRRLRRLRRLLRRRLLLLL"
    "RLLRRRLRRLRRLRRRRRLRLRRRLRRRLRLLLLLLLLRRLRLRRRRLRLLLLRRLLLLR"
)
# all four rotations, a reflection, negative shifts and a tile overlapping the first
GOLDEN_PLACEMENTS = json.dumps([
    {"rotation": 0},
    {"rotation": 90, "translation": [-7, 3]},
    {"rotation": 180, "reflect": True, "translation": [5, -9]},
    {"rotation": 270, "translation": [-12, -4]},
    {"rotation": 0, "translation": [0, -1]},
])


@pytest.mark.parametrize("name, argv", [
    ("dragon_llr_g8", ("dragon", "--word", "LLR", "--generations", "8")),
    ("curve_w300_unit01", ("curve", "--word", WORD_300, "--unit", "0.1")),
    ("tessellate_w40", ("tessellate", "--word", "RRRRLLLLRRRLLLRLLLRRLRRLRRRRRRLLRLRLRRLL",
                        "--placements", GOLDEN_PLACEMENTS)),
])
def test_curve_goldens(capsys, tmp_path, name, argv):
    """The --out SVG and the stdout statistics, byte for byte."""
    out_file = tmp_path / "out.svg"
    code, out, err = run(capsys, *argv, "--out", str(out_file))
    assert (code, err) == (0, "")
    assert out_file.read_bytes() == (GOLDENS / f"{name}.svg").read_bytes()
    assert out.encode() == (GOLDENS / f"{name}.json").read_bytes()


class TestSeahorseScan:
    def test_scan_finds_the_two_pinwheels(self, capsys):
        code, out, _ = run(capsys, "seahorse-scan", "--max-len", "12")
        assert code == 0
        assert out.splitlines() == [
            "word,length",
            "LLRLLRLLRLLR,12",
            "RRLRRLRRLRRL,12",
        ]

    def test_all_words_listing(self, capsys):
        code, out, _ = run(capsys, "seahorse-scan", "--max-len", "5", "--all-words")
        lines = out.splitlines()
        assert lines[0] == (
            "word,length,max_run_ok,single_region_ok,reflection_ok,is_seahorse"
        )
        assert len(lines) == 1 + (2**6 - 2)  # all words of length 1..5
        assert all(line.endswith("false") for line in lines[1:])

    @pytest.mark.parametrize(
        "argv",
        [
            ("--max-len", "0"),
            ("--max-len", "-2", "--all-words"),
            ("--max-len", str(curves.MAX_SEAHORSE_LEN + 1)),
            ("--max-len", str(curves.MAX_ALL_WORDS_LEN + 1), "--all-words"),
            ("--max-len", "40"),
        ],
    )
    def test_bad_or_oversized_max_len_names_the_flag(self, capsys, monkeypatch, tmp_path, argv):
        def no_walk(*args):
            raise AssertionError("walked past the cap")

        monkeypatch.setattr(curves, "_walk_turn_words", no_walk)
        out_file = tmp_path / "scan.csv"
        code, out, err = run(capsys, "seahorse-scan", *argv, "--out", str(out_file))
        assert code == 2 and out == ""
        assert err.startswith("error: max_len ")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("all_words", [(), ("--all-words",)])
    def test_cap_is_inclusive(self, capsys, monkeypatch, all_words):
        monkeypatch.setattr(curves, "MAX_SEAHORSE_LEN", 4)
        monkeypatch.setattr(curves, "MAX_ALL_WORDS_LEN", 4)
        assert run(capsys, "seahorse-scan", "--max-len", "4", *all_words)[0] == 0
        code, _, err = run(capsys, "seahorse-scan", "--max-len", "5", *all_words)
        assert code == 2 and err == "error: max_len 5 exceeds the cap of 4\n"


class TestDragon:
    def test_doubling_reported(self, capsys, tmp_path):
        out_file = tmp_path / "dragon.svg"
        code, out, _ = run(
            capsys, "dragon", "--word", "LLR", "--generations", "6",
            "--out", str(out_file),
        )
        assert code == 0
        stats = json.loads(out)
        assert stats["seed_segments"] == 3
        assert stats["segment_count"] == 3 * 2**6
        assert out_file.exists()

    def test_cap_exceeded_is_validation_error(self, capsys):
        code, _, err = run(
            capsys, "dragon", "--word", "LLR", "--generations", "10",
            "--max-edges", "64",
        )
        assert code == 2
        assert "cap" in err

    @pytest.mark.parametrize("max_edges", ["0", "-1"])
    def test_max_edges_must_be_positive(self, capsys, monkeypatch, max_edges):
        monkeypatch.setattr(curves, "trace", _no_work)
        code, out, err = run(capsys, "dragon", "--word", "LLR", "--max-edges", max_edges)
        assert code == 2 and out == ""
        assert err == f"error: max_edges must be >= 1, got {max_edges}\n"

    def test_max_edges_cap_is_inclusive(self, capsys, monkeypatch):
        monkeypatch.setattr(curves, "DEFAULT_EDGE_CAP", 24)
        argv = ("dragon", "--word", "LLR", "--generations", "3", "--max-edges")
        assert run(capsys, *argv, "24")[0] == 0
        assert run(capsys, *argv, "25")[2] == "error: max_edges must be <= 24, got 25\n"


class TestTessellate:
    PLACEMENTS = json.dumps(
        [{"rotation": r, "reflect": False, "translation": [0, 0]}
         for r in (0, 90, 180, 270)]
    )

    def test_four_rotations(self, capsys, tmp_path):
        out_file = tmp_path / "tess.svg"
        code, out, _ = run(
            capsys, "tessellate", "--word", "RRRR",
            "--placements", self.PLACEMENTS, "--out", str(out_file),
        )
        assert code == 0
        stats = json.loads(out)
        assert stats["tiles"] == 4
        assert stats["overlap_count"] == 4
        assert stats["bounded_region_count"] == 4
        svg = out_file.read_text()
        for i in range(4):
            assert f'id="tile-{i}"' in svg

    def test_placements_required(self, capsys):
        code, _, err = run(capsys, "tessellate", "--word", "RRRR")
        assert code == 2
        assert "placements" in err

    def test_bad_placement_keys_rejected(self, capsys):
        code, _, err = run(
            capsys, "tessellate", "--word", "RRRR",
            "--placements", '[{"spin": 90}]',
        )
        assert code == 2
        assert "unknown keys" in err

    @pytest.mark.parametrize(
        "translation", ["[1]", "[1.5, 2]", "[true, 2]", "[1, 2, 3]", '"12"', "7"]
    )
    def test_translation_must_be_two_integers(self, capsys, tmp_path, translation):
        out_file = tmp_path / "tess.svg"
        placements = f'[{{"rotation": 0}}, {{"translation": {translation}}}]'
        code, out, err = run(
            capsys, "tessellate", "--word", "RRRR",
            "--placements", placements, "--out", str(out_file),
        )
        assert code == 2 and out == ""
        assert "placements[1] translation must be two integers" in err
        assert not out_file.exists()

    @pytest.mark.parametrize("key, value", [
        ("rotation", "90.0"), ("rotation", "45"), ("rotation", "true"), ("rotation", '"90"'),
        ("rotation", "null"), ("reflect", '"false"'), ("reflect", "0"), ("reflect", "1"),
        ("reflect", "null"),
    ])
    def test_rotation_and_reflect_types_checked(self, capsys, tmp_path, key, value):
        out_file = tmp_path / "tess.svg"
        placements = f'[{{"rotation": 0}}, {{"{key}": {value}}}]'
        code, out, err = run(
            capsys, "tessellate", "--word", "RRRR",
            "--placements", placements, "--out", str(out_file),
        )
        assert code == 2 and out == ""
        assert f"placements[1] {key} must be" in err and value in err
        assert not out_file.exists()

    def test_placements_not_json_names_the_flag(self, capsys):
        code, out, err = run(capsys, "tessellate", "--word", "LLR", "--placements", "[1")
        assert code == 2 and out == ""
        assert err.startswith("error: placements must be valid JSON: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("translation", [[2**62 + 1, 0], [0, -(2**62) - 1],
                                             [9223372036854775807, 0]])
    def test_translation_bounded(self, capsys, tmp_path, translation):
        out_file = tmp_path / "tess.svg"
        placements = json.dumps([{"rotation": 0}, {"translation": translation}])
        code, out, err = run(capsys, "tessellate", "--word", "RRRR",
                             "--placements", placements, "--out", str(out_file))
        assert code == 2 and out == ""
        assert err == (f"error: placements[1] translation must be within +-2**62, "
                       f"got {json.dumps(translation)}\n")
        assert not out_file.exists()

    def test_reflect_false_does_not_reflect(self, capsys):
        outputs = [
            run(capsys, "tessellate", "--word", "LLR", "--placements", placements)
            for placements in ('[{}]', '[{"reflect": false}]', '[{"reflect": true}]')
        ]
        assert all(code == 0 for code, _, _ in outputs)
        assert outputs[0] == outputs[1] != outputs[2]


class TestDag:
    def test_contains_cluster_edge(self, capsys):
        code, out, _ = run(capsys, "dag", "--limit", "19")
        assert code == 0
        assert "11 -> 13" in out
        assert "fillcolor=lightblue" in out

    def test_golden_dag_limit19(self, capsys, tmp_path):
        out_file = tmp_path / "dag.dot"
        code, _, _ = run(capsys, "dag", "--limit", "19", "--out", str(out_file))
        assert code == 0
        assert out_file.read_bytes() == (GOLDENS / "dag_limit19.dot").read_bytes()

    def test_no_edges_flags(self, capsys):
        code, out, _ = run(capsys, "dag", "--limit", "19", "--no-chain", "--no-cluster")
        assert code == 0
        assert "->" not in out

    def test_gap_primes_flag(self, capsys):
        code, out, _ = run(capsys, "dag", "--limit", "30", "--gap-primes")
        assert code == 0
        assert "23 [shape=box, style=dashed];" in out


class TestWalk:
    def test_distribution_rows(self, capsys):
        code, out, _ = run(capsys, "walk", "--sites", "5", "--steps", "3")
        lines = out.splitlines()
        assert lines[0] == "step,site_1,site_2,site_3,site_4,site_5"
        assert len(lines) == 5  # header + steps 0..3
        for line in lines[1:]:
            cells = line.split(",")
            assert sum(float(c) for c in cells[1:]) == pytest.approx(1.0)

    def test_sites_from_limit(self, capsys):
        code, out, _ = run(capsys, "walk", "--limit", "12", "--steps", "0")
        assert out.splitlines()[0].count("site_") == 12

    def test_sites_or_limit_required(self, capsys):
        code, _, err = run(capsys, "walk", "--steps", "1")
        assert code == 2
        assert "sites or limit" in err

    @pytest.mark.parametrize("flag", ["--theta-l", "--theta-r"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_coin_angle_names_the_flag(self, capsys, flag, value):
        code, out, err = run(capsys, "walk", "--sites", "5", "--steps", "3", f"{flag}={value}")
        assert code == 2 and out == ""
        assert f"{flag[2:].replace('-', '_')} must be finite" in err

    def test_oversized_walk_names_steps(self, capsys):
        code, out, err = run(capsys, "walk", "--sites", "100", "--steps", "1000000000000")
        assert code == 2 and out == ""
        assert err.startswith("error: steps must keep ") and err.count("\n") == 1

    @pytest.mark.parametrize("steps", ["0", "1"])
    def test_unknown_boundary_from_config_names_boundary(self, capsys, tmp_path, steps):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"boundary": "periodic"}))
        code, out, err = run(capsys, "walk", "--sites", "3", "--steps", steps,
                             "--config", str(cfg))
        assert code == 2 and out == ""
        assert err == "error: boundary must be 'reflecting' or 'absorbing', got 'periodic'\n"

    def test_initial_site_out_of_range_names_the_flag(self, capsys):
        code, out, err = run(capsys, "walk", "--sites", "5", "--initial-site", "9")
        assert code == 2 and out == ""
        assert err == "error: initial_site must be in 1..5, got 9\n"

    def test_initial_coin_from_config_names_the_key(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"initial_coin": "X"}))
        code, out, err = run(capsys, "walk", "--sites", "5", "--config", str(cfg))
        assert code == 2 and out == ""
        assert err == "error: initial_coin must be 'L' or 'R', got 'X'\n"

    @pytest.mark.parametrize("name, argv", [
        ("walk_s69_t200", ("--sites", "69", "--steps", "200")),
        # exponent cells down to e-47, exact zeros and the 1 of step 0
        ("walk_absorbing_s40_t120", ("--sites", "40", "--steps", "120", "--boundary", "absorbing",
                                     "--theta-l", "1.5", "--theta-r", "-1.55",
                                     "--initial-site", "20", "--initial-coin", "L")),
    ])
    def test_golden(self, capsys, tmp_path, name, argv):
        out_file = tmp_path / "walk.csv"
        code, out, err = run(capsys, "walk", *argv, "--out", str(out_file))
        assert (code, out, err) == (0, "", "")
        assert out_file.read_bytes() == (GOLDENS / f"{name}.csv").read_bytes()

    def test_norm_drift_exits_3(self, capsys, monkeypatch, tmp_path):
        real = dynamics._step_real

        def drifting(a_l, a_r, *rest):  # every step scales the amplitudes by 1.001
            real(a_l, a_r, *rest)
            a_l *= 1.001
            a_r *= 1.001

        monkeypatch.setattr(dynamics, "_step_real", drifting)
        out_file = tmp_path / "walk.csv"
        code, out, err = run(capsys, "walk", "--sites", "5", "--steps", "3",
                             "--out", str(out_file))
        assert code == 3 and out == ""
        assert err.startswith("internal error: walk norm drifted") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []


class TestModes:
    def test_spectrum_rows(self, capsys):
        code, out, _ = run(
            capsys, "modes", "--sites", "5", "--s", "0.5", "--g-l", "1", "--g-r", "0.5"
        )
        lines = out.splitlines()
        assert lines[0] == "index,eigenvalue,participation_ratio"
        assert len(lines) == 6
        values = [float(line.split(",")[1]) for line in lines[1:]]
        assert values == sorted(values)

    def test_byte_identical_across_runs(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            code, _, _ = run(
                capsys, "modes", "--sites", "20", "--s", "0.7",
                "--g-l", "1", "--g-r", "0.5", "--out", str(path),
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("argv, message", [
        (("--g-l", "nan"), "g_l must be finite, got nan"),
        (("--g-r", "inf"), "g_r must be finite, got inf"),
        (("--omega-mode", "constant", "--omega", "-1"), "omega must be finite and > 0, got -1.0"),
    ])
    def test_bad_coupling_or_omega_names_the_flag(self, capsys, argv, message):
        code, out, err = run(capsys, "modes", "--sites", "4", *argv)
        assert code == 2 and out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("argv, message", [
        (("--alpha", "-5"), "alpha -5.0 and beta 0.5 give a site energy of -5.0"),
        (("--beta", "-50"), "alpha 1.0 and beta -50.0 give a site energy of -49.0"),
        (("--alpha", "0.5", "--beta", "-0.5"), "alpha 0.5 and beta -0.5 give a site energy of 0.0"),
    ])
    def test_non_positive_site_energy_names_alpha_and_beta(self, capsys, argv, message):
        code, out, err = run(capsys, "modes", "--sites", "5", *argv)
        assert code == 2 and out == ""
        assert err == f"error: {message}; site energies must be positive\n"

    @pytest.mark.parametrize("command", ["modes", "sweep"])
    @pytest.mark.parametrize("argv, message", [
        (("--alpha", "1e308", "--beta", "1e308"), "alpha 1e+308 and beta 1e+308"),
        (("--alpha", "1e308"), "alpha 1e+308 and beta 0.5"),  # the 12th site matches twice
    ])
    def test_infinite_site_energy_names_alpha_and_beta(self, capsys, tmp_path, command, argv,
                                                       message):
        out_file = tmp_path / "out.csv"
        code, out, err = run(capsys, command, "--sites", "12", *argv, "--out", str(out_file))
        assert code == 2 and out == "" and not out_file.exists()
        assert err == f"error: {message} give a site energy of inf; site energies must be finite\n"

    def test_infinite_site_energy_from_config(self, capsys, tmp_path):
        config = tmp_path / "chain.json"
        config.write_text('{"sites": 3, "alpha": 1e308, "beta": 1e308}')
        code, out, err = run(capsys, "sweep", "--config", str(config))
        assert code == 2 and out == ""
        assert err == ("error: alpha 1e+308 and beta 1e+308 give a site energy of inf; "
                       "site energies must be finite\n")


class TestSpectrumBound:
    """A chain whose Gershgorin radius max(max omega, 2 max |g|) passes 2**500
    exits 2 before any eigensolve, naming the flag that set the radius."""

    RADIUS = "must keep the spectrum's Gershgorin radius max(max omega, 2 max |g|) within 2**500"

    @pytest.mark.parametrize("argv, message", [
        (("sweep", "--sites", "30", "--g-l", "-1e308", "--omega-mode", "constant",
          "--s-grid", "0.5,1"), "g_l"),
        (("modes", "--sites", "5", "--g-l", "1e308", "--g-r", "1e308",
          "--omega-mode", "constant"), "g_l"),
        (("modes", "--sites", "5", "--g-r", "-1.6366953039480735e+150"), "g_r"),
        (("sweep", "--sites", "5", "--omega-mode", "constant", "--omega", "1e200"), "omega"),
        (("modes", "--sites", "5", "--alpha", "1e300"), "alpha 1e+300 and beta 0.5"),
    ])
    def test_radius_past_the_bound_names_the_flag(self, capsys, tmp_path, argv, message):
        out_file = tmp_path / "out.csv"
        code, out, err = run(capsys, *argv, "--out", str(out_file))
        assert code == 2 and out == "" and not out_file.exists()
        assert re.fullmatch(rf"error: {re.escape(message)} {re.escape(self.RADIUS)}, got \S+\n",
                            err)

    def test_radius_at_the_bound_is_accepted(self, capsys):
        half = repr(2.0**499)  # 2 |g| is the bound itself
        code, out, err = run(capsys, "modes", "--sites", "5", "--g-l", half, "--g-r", "-" + half,
                             "--omega-mode", "constant", "--omega", repr(2.0**500))
        assert (code, err) == (0, "")
        values = [float(line.split(",")[1]) for line in out.splitlines()[1:]]
        assert len(values) == 5 and all(abs(v) <= 2.0**500 for v in values)


class TestSweep:
    def test_grid_rows(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--sites", "6", "--s-grid", "0,0.5,1",
            "--g-l", "1", "--g-r", "0.5",
        )
        lines = out.splitlines()
        assert lines[0] == "s,ground_energy,spectral_gap,ground_participation_ratio"
        assert len(lines) == 4
        assert [line.split(",")[0] for line in lines[1:]] == ["0", "0.5", "1"]

    def test_linspace_grid(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--sites", "4", "--s-grid", "0:1:5",
            "--g-l", "1", "--g-r", "1",
        )
        assert len(out.splitlines()) == 6

    def test_bad_grid_rejected(self, capsys):
        code, _, err = run(capsys, "sweep", "--sites", "4", "--s-grid", "0:1")
        assert code == 2

    @pytest.mark.parametrize("grid, shown", [("0:inf:3", "inf"), ("-1e308:1e308:3", "-1e308"),
                                             ("nan:1:3", "nan")])
    def test_non_finite_range_is_one_error_line(self, capsys, grid, shown):
        # the range's ends are checked as given, before numpy could overflow between them
        code, out, err = run(capsys, "sweep", "--sites", "4", f"--s-grid={grid}")
        assert code == 2 and out == ""
        assert err == f"error: s_grid values must lie in [0, 1], got {shown}\n"

    @pytest.mark.parametrize("grid, shown", [("0:1.5:3", "1.5"), ("-0.25:1:3", "-0.25"),
                                             ("0.5, +2", "+2"), ("0,1,1.0000001", "1.0000001")])
    def test_grid_value_outside_0_1_named_as_given(self, capsys, monkeypatch, tmp_path, grid,
                                                   shown):
        monkeypatch.setattr(cli.np, "linspace", _no_work)
        monkeypatch.setattr(dynamics, "adiabatic_sweep", _no_work)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"s_grid": grid}))
        for argv in (("--s-grid", grid), ("--config", str(cfg))):
            code, out, err = run(capsys, "sweep", "--sites", "4", *argv)
            assert (code, out) == (2, "")
            assert err == f"error: s_grid values must lie in [0, 1], got {shown}\n"

    @pytest.mark.parametrize("grid", ["0:1:x", "0:y:5", "0:1:5.0"])
    def test_unparsable_range_names_s_grid(self, capsys, grid):
        code, out, err = run(capsys, "sweep", "--sites", "4", "--s-grid", grid)
        assert code == 2 and out == ""
        assert err == f"error: s_grid range must be start:stop:count, got {grid!r}\n"

    @pytest.mark.parametrize("grid", [",", "", " , "])
    def test_empty_grid_rejected(self, capsys, grid):
        code, out, err = run(capsys, "sweep", "--sites", "4", "--s-grid", grid)
        assert code == 2 and out == ""
        assert err == f"error: s_grid must hold at least one value, got {grid!r}\n"

    def test_range_count_capped_before_allocation(self, capsys, monkeypatch):
        monkeypatch.setattr(cli.np, "linspace", _no_work)
        monkeypatch.setattr(dynamics, "adiabatic_sweep", _no_work)
        for count in (cli.MAX_S_GRID_POINTS + 1, 10**15):
            code, out, err = run(capsys, "sweep", "--sites", "4", "--s-grid", f"0:1:{count}")
            assert code == 2 and out == ""
            assert err == f"error: s_grid must be <= {cli.MAX_S_GRID_POINTS} points, got {count}\n"

    def test_range_count_cap_is_inclusive(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "MAX_S_GRID_POINTS", 3)
        assert len(run(capsys, "sweep", "--sites", "4", "--s-grid", "0:1:3")[1].splitlines()) == 4
        code, _, err = run(capsys, "sweep", "--sites", "4", "--s-grid", "0:1:4")
        assert code == 2 and err == "error: s_grid must be <= 3 points, got 4\n"

    def test_list_from_config_capped_before_parsing(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setattr(cli, "MAX_S_GRID_POINTS", 3)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"s_grid": "0,0.5,1"}))
        assert len(run(capsys, "sweep", "--sites", "4", "--config", str(cfg))[1].splitlines()) == 4
        monkeypatch.setattr(dynamics, "adiabatic_sweep", _no_work)
        for grid in ("0,0.25,0.5,1", "x,y,z,w"):  # counted, not parsed
            cfg.write_text(json.dumps({"s_grid": grid}))
            code, out, err = run(capsys, "sweep", "--sites", "4", "--config", str(cfg))
            assert code == 2 and out == ""
            assert err == "error: s_grid must be <= 3 points, got 4\n"


class TestConfig:
    def test_config_file_supplies_values(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"limit": 12}))
        code, out, _ = run(capsys, "gen", "--config", str(cfg))
        assert code == 0
        assert len(out.splitlines()) == 13

    def test_flag_overrides_config(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"limit": 12}))
        code, out, _ = run(capsys, "gen", "--config", str(cfg), "--limit", "1")
        assert code == 0
        assert len(out.splitlines()) == 2

    def test_unknown_config_key_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"limmit": 12}))
        code, _, err = run(capsys, "gen", "--config", str(cfg))
        assert code == 2
        assert "limmit" in err

    def test_missing_config_file(self, capsys, tmp_path):
        code, _, _ = run(capsys, "gen", "--config", str(tmp_path / "nope.json"))
        assert code == 2

    @pytest.mark.parametrize(
        "values, key",
        [
            ({"sites": True}, "sites"),
            ({"sites": 3.0}, "sites"),
            ({"sites": 3, "s": True}, "s"),
            ({"sites": 3, "g_l": "1"}, "g_l"),
            ({"sites": 3, "omega_mode": 1}, "omega_mode"),
        ],
    )
    def test_config_value_type_checked(self, capsys, tmp_path, values, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(values))
        code, out, err = run(capsys, "modes", "--config", str(cfg))
        assert code == 2 and out == ""
        assert f"config key {key!r}" in err

    def test_config_bool_field_takes_only_bool(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"limit": 19, "chain": 1}))
        code, _, err = run(capsys, "dag", "--config", str(cfg))
        assert code == 2 and "'chain'" in err

    def test_config_int_accepted_for_float(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sites": 4, "s": 1, "g_l": 2, "g_r": 1}))
        code, from_file, _ = run(capsys, "modes", "--config", str(cfg))
        assert code == 0
        code, from_flags, _ = run(
            capsys, "modes", "--sites", "4", "--s", "1", "--g-l", "2", "--g-r", "1"
        )
        assert code == 0 and from_file == from_flags


class TestExitCodes:
    def test_validation_error_names_parameter(self, capsys):
        code, _, err = run(capsys, "gen", "--limit", "0")
        assert code == 2
        assert "limit" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("walk", "--sites", "1"),
            ("walk", "--sites", "0"),
            ("modes", "--sites", "0"),
            ("modes", "--sites", "-3"),
            ("sweep", "--sites", "1"),
        ],
    )
    def test_too_few_sites_names_the_flag(self, capsys, argv):
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert re.search(r"\bsites must be >= \d", err)

    @pytest.mark.parametrize("argv, message", [
        (("walk", "--limit", "1"), "limit must give >= 2 chain sites, got 1, which gives 1"),
        (("sweep", "--limit", "1"), "limit must give >= 2 chain sites, got 1, which gives 1"),
        (("modes", "--limit", "20000"),
         "limit must give <= 5000 chain sites, got 20000, which gives 17579"),
        (("dragon", "--word", "LLR", "--generations", "9223372036854775808", "--max-edges", "64"),
         "generations 9223372036854775808 would double 48 segments past the max_edges cap of 64"),
    ])
    def test_derived_sizes_name_the_flag_given(self, capsys, argv, message):
        assert run(capsys, *argv) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("argv, message", [
        (("modes", "--sites", "13", "--alpha", "-1e308"),
         "alpha -1e+308 and beta 0.5 give a site energy of -inf; site energies must be positive"),
        (("modes", "--sites", "13", "--beta", "-inf"), "beta must be finite, got -inf"),
        (("sweep", "--sites", "4", "--s-grid", "-1e308:1e308:3"),
         "s_grid values must lie in [0, 1], got -1e308"),
        (("sweep", "--sites", "4", "--s-grid", "-1e-9,0.5"),
         "s_grid values must lie in [0, 1], got -1e-9"),
        # after a flag abbreviated as argparse allows: a prefix of one long flag
        (("modes", "--sites", "13", "--alp", "-1e308"),
         "alpha -1e+308 and beta 0.5 give a site energy of -inf; site energies must be positive"),
        (("sweep", "--sites", "4", "--s-g", "-1e-9,0.5"),
         "s_grid values must lie in [0, 1], got -1e-9"),
    ])
    def test_negative_exponents_and_inf_are_values(self, capsys, argv, message):
        assert run(capsys, *argv) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("argv, joined", [
        (("sweep", "--sites", "4", "--s-grid", "-0e0:1:3"),
         ("sweep", "--sites", "4", "--s-grid=-0e0:1:3")),
        (("walk", "--sites", "4", "--steps", "3", "--theta-l", "-1e-1", "--theta-r", "-.5"),
         ("walk", "--sites", "4", "--steps", "3", "--theta-l=-1e-1", "--theta-r=-.5")),
        (("sweep", "--si", "4", "--s-g", "-0e0:1:3"),
         ("sweep", "--sites", "4", "--s-grid=-0e0:1:3")),
    ])
    def test_negative_value_reads_as_the_joined_flag(self, capsys, argv, joined):
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "") and run(capsys, *joined) == (0, out, "")

    @pytest.mark.parametrize("argv, error", [
        (("gen", "--limit"), "argument --limit: expected one argument"),
        (("gen", "--limit", "-5e3"), "argument --limit: invalid int value: '-5e3'"),
        (("seahorse-scan", "--all-words", "-1e5"), "unrecognized arguments: -1e5"),
        (("walk", "--sites", "4", "--", "-1e5"), "unrecognized arguments: -- -1e5"),
        # a negative value stays apart from an ambiguous prefix, or one of a flag taking none
        (("walk", "--sites", "4", "--theta", "-1e-1"),
         "ambiguous option: --theta could match --theta-l, --theta-r"),
        (("seahorse-scan", "--all", "-1e5"), "unrecognized arguments: -1e5"),
        (("dag", "--ch", "-1e5"), "unrecognized arguments: -1e5"),
    ])
    def test_other_argparse_errors_stay(self, capsys, argv, error):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "") and err.startswith("usage: patterned ")
        assert err.endswith(f": error: {error}\n")

    @staticmethod
    def flags(parser, takes_a_value):
        """(command, flag, action) of every option of every subcommand that takes
        one value, or of every one that takes none other than --help."""
        commands, = (a.choices for a in parser._actions
                     if isinstance(a, argparse._SubParsersAction))
        return [(name, flag, action)
                for name, sub in commands.items() for action in sub._actions
                if (action.nargs is None) == takes_a_value
                and not isinstance(action, argparse._HelpAction)
                for flag in action.option_strings]

    @pytest.mark.parametrize("value", ["-1e308", "-inf"])
    def test_every_flag_taking_a_value_reads_a_negative_one(self, capsys, monkeypatch, value):
        # types and choices are dropped, so the command gets the token as parsed
        real = cli.build_parser

        def untyped():
            parser = real()
            for _, _, action in self.flags(parser, True):
                action.type = action.choices = None
            return parser

        got = []
        monkeypatch.setattr(cli, "build_parser", untyped)
        monkeypatch.setattr(cli, "_resolve_config", lambda args: args)
        for name in cli._COMMANDS:
            monkeypatch.setitem(cli._COMMANDS, name, lambda args: got.append(args) or 0)
        flags = self.flags(real(), True)
        assert len(flags) == 78
        for name, flag, action in flags:
            got.clear()
            assert run(capsys, name, flag, value) == (0, "", "")
            assert getattr(got[0], action.dest) == value and got[0].command == name

    def test_no_flag_taking_no_value_reads_a_negative_one(self, capsys):
        flags = self.flags(cli.build_parser(), False)
        assert len(flags) == 6
        for name, flag, _ in flags:
            code, out, err = run(capsys, name, flag, "-1e5")
            assert (code, out) == (2, "")
            assert err.endswith(": error: unrecognized arguments: -1e5\n")

    def test_argparse_rejects_unknown_flag(self, capsys):
        assert cli_dispatch(["gen", "--frobnicate"]) == 2
        capsys.readouterr()

    def test_help_exits_zero(self, capsys):
        assert cli_dispatch(["--help"]) == 0
        capsys.readouterr()

    def test_invariant_error_exits_3(self, capsys, monkeypatch):
        real = core._member_blocks  # a classifier that misses 13
        monkeypatch.setattr(core, "_member_blocks",
                            lambda limit: ((b[b != 13],) for b, _, _ in real(limit)))
        with pytest.raises(InvariantError):
            core.count_and_density(20)
        code, out, err = run(capsys, "count", "--limit", "20")
        assert code == 3 and out == ""
        assert err == "internal error: predicate implementations disagree at limit 20: 20 vs 19\n"

    def test_memory_error_exits_2(self, capsys, monkeypatch):
        def exhausted(limit):
            raise MemoryError("Unable to allocate 8.00 EiB")

        monkeypatch.setattr(core, "count_and_density", exhausted)
        code, out, err = run(capsys, "count", "--limit", "20")
        assert code == 2 and out == ""
        assert err == "error: out of memory: Unable to allocate 8.00 EiB\n"

    def test_unwritable_path(self, capsys):
        code, _, err = run(capsys, "gen", "--limit", "5", "--out", "/nonexistent/dir/x.csv")
        assert code == 2
        assert err == "error: [Errno 2] No such file or directory: '/nonexistent/dir/x.csv'\n"


class TestAtomicOut:
    @staticmethod
    def fail_after_header(stream, header, rows):
        stream.write(",".join(header) + "\n")
        raise OSError(28, "No space left on device")

    def test_failed_write_leaves_no_file(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setattr(serialize, "write_csv", self.fail_after_header)
        out_file = tmp_path / "gen.csv"
        code, out, err = run(capsys, "gen", "--limit", "50", "--out", str(out_file))
        assert code == 2 and out == ""
        assert err == "error: [Errno 28] No space left on device\n"
        assert list(tmp_path.iterdir()) == []

    def test_failed_write_keeps_earlier_file(self, capsys, monkeypatch, tmp_path):
        out_file = tmp_path / "turns.csv"
        assert run(capsys, "turns", "--k", "30", "--out", str(out_file))[0] == 0
        before = out_file.read_bytes()
        monkeypatch.setattr(serialize, "write_csv", self.fail_after_header)
        code, _, _ = run(capsys, "turns", "--k", "40", "--out", str(out_file))
        assert code == 2
        assert out_file.read_bytes() == before
        assert list(tmp_path.iterdir()) == [out_file]

    def test_success_replaces_earlier_file(self, capsys, tmp_path):
        out_file = tmp_path / "turns.csv"
        out_file.write_text("stale contents that are longer than the new file\n" * 40)
        assert run(capsys, "turns", "--k", "3", "--out", str(out_file))[0] == 0
        assert out_file.read_text() == "index,n,turn\n1,1,L\n2,2,L\n3,3,L\n"
        assert list(tmp_path.iterdir()) == [out_file]

    def test_symlink_is_kept_and_its_target_written(self, capsys, monkeypatch, tmp_path):
        target, link = tmp_path / "target.csv", tmp_path / "link.csv"
        target.write_text("earlier\n")
        link.symlink_to(target.name)
        expected = run(capsys, "turns", "--k", "10")[1]
        assert run(capsys, "turns", "--k", "10", "--out", str(link)) == (0, "", "")
        assert link.is_symlink() and os.readlink(link) == target.name
        assert target.read_text() == expected
        monkeypatch.setattr(serialize, "write_csv", self.fail_after_header)
        code, out, err = run(capsys, "turns", "--k", "20", "--out", str(link))
        assert (code, out, err) == (2, "", "error: [Errno 28] No space left on device\n")
        assert link.is_symlink() and target.read_text() == expected
        assert sorted(tmp_path.iterdir()) == [link, target]

    def test_error_names_the_path_given_not_its_target(self, capsys, tmp_path):
        link = tmp_path / "link.csv"
        link.symlink_to(tmp_path / "missing" / "x.csv")
        code, out, err = run(capsys, "turns", "--k", "3", "--out", str(link))
        assert (code, out) == (2, "")
        assert err == f"error: [Errno 2] No such file or directory: {str(link)!r}\n"

    def test_fifo_is_written_not_replaced(self, capsys, tmp_path):
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)  # so opening to write does not block
        try:
            assert run(capsys, "turns", "--k", "3", "--out", str(fifo)) == (0, "", "")
            assert os.read(reader, 1 << 16) == b"index,n,turn\n1,1,L\n2,2,L\n3,3,L\n"
        finally:
            os.close(reader)
        assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
        assert list(tmp_path.iterdir()) == [fifo]


def _no_work(*args, **kwargs):
    raise AssertionError("work started before the size cap was checked")


ROTATIONS = '[{"rotation": 0}, {"rotation": 90}]'


class TestSizeCaps:
    @pytest.fixture(autouse=True)
    def no_work(self, monkeypatch):
        for module, name in ((core, "_member_blocks"), (core, "classify_block"),
                             (core, "prime_array"), (graphs, "prime_array"),
                             (core, "profile_blocks"), (curves, "trace"), (graphs, "build_dag"),
                             (dynamics, "run_walk"), (dynamics, "patterned_chain")):
            monkeypatch.setattr(module, name, _no_work)

    @pytest.mark.parametrize(
        "argv, flag, cap",
        [
            (("turns", "--k"), "k", core.MAX_MEMBERS),
            (("curve", "--k"), "k", curves.DEFAULT_EDGE_CAP),
            (("dragon", "--generations", "2", "--k"), "k", curves.DEFAULT_EDGE_CAP),
            (("tessellate", "--placements", ROTATIONS, "--k"), "k", curves.DEFAULT_EDGE_CAP),
            (("dag", "--limit"), "limit", cli.MAX_DAG_LIMIT),
            (("walk", "--steps", "0", "--limit"), "limit", core.MAX_MEMBERS),
            (("modes", "--limit"), "limit", core.MAX_MEMBERS),
            (("sweep", "--limit"), "limit", core.MAX_MEMBERS),
            (("walk", "--steps", "0", "--sites"), "sites", core.MAX_MEMBERS),
            (("modes", "--sites"), "sites", 5000),
            (("sweep", "--sites"), "sites", 5000),
            (("primes", "--limit"), "limit", cli.MAX_PRIMES_LIMIT),
            (("turns", "--format", "json", "--k"), "k", core.MAX_MEMBERS),
            (("dragon", "--word", "LLR", "--max-edges"), "max_edges", curves.DEFAULT_EDGE_CAP),
        ],
    )
    @pytest.mark.parametrize("over", [1, 10**12])
    def test_cap_checked_before_any_work(self, capsys, tmp_path, argv, flag, cap, over):
        out_file = tmp_path / "out"
        code, out, err = run(capsys, *argv, str(cap + over), "--out", str(out_file))
        assert code == 2 and out == ""
        assert err == f"error: {flag} must be <= {cap}, got {cap + over}\n"
        assert list(tmp_path.iterdir()) == []

    def test_caps_are_inclusive(self, capsys, monkeypatch):
        monkeypatch.undo()
        monkeypatch.setattr(core, "MAX_MEMBERS", 12)
        monkeypatch.setattr(cli, "MAX_DAG_LIMIT", 19)
        monkeypatch.setattr(cli, "MAX_PRIMES_LIMIT", 19)
        monkeypatch.setattr(curves, "DEFAULT_EDGE_CAP", 12)
        for argv, flag, cap in (
            (("turns", "--k"), "k", 12),
            (("curve", "--k"), "k", 12),
            (("dag", "--limit"), "limit", 19),
            (("primes", "--limit"), "limit", 19),
            (("walk", "--steps", "3", "--sites"), "sites", 12),
            (("walk", "--steps", "3", "--limit"), "limit", 12),
        ):
            assert run(capsys, *argv, str(cap))[0] == 0
            code, _, err = run(capsys, *argv, str(cap + 1))
            assert code == 2 and err == f"error: {flag} must be <= {cap}, got {cap + 1}\n"
        for fmt in ("csv", "json"):  # gen streams: no cap
            assert run(capsys, "gen", "--limit", "14", "--format", fmt)[0] == 0

    @pytest.mark.parametrize("command", [("curve",), ("dragon",), ("tessellate", "--placements",
                                                                  ROTATIONS)])
    def test_word_capped_before_parsing(self, capsys, tmp_path, command):
        out_file = tmp_path / "out"
        word = "LR" * (curves.DEFAULT_EDGE_CAP // 2) + "X"
        code, out, err = run(capsys, *command, "--word", word, "--out", str(out_file))
        assert code == 2 and out == ""
        assert err == f"error: word must be <= {curves.DEFAULT_EDGE_CAP} letters, got {len(word)}\n"
        assert list(tmp_path.iterdir()) == []

    def test_tessellation_capped_before_any_tile(self, capsys, tmp_path, monkeypatch):
        monkeypatch.undo()
        monkeypatch.setattr(curves, "apply_motion", _no_work)
        monkeypatch.setattr(curves, "DEFAULT_EDGE_CAP", 12)
        out_file = tmp_path / "out"
        placements = json.dumps([{"rotation": r} for r in (0, 90, 180, 270, 0)])
        code, out, err = run(capsys, "tessellate", "--word", "LLR", "--placements", placements,
                             "--out", str(out_file))
        assert code == 2 and out == ""
        assert err == "error: placements must make <= 12 segments, got 5 of 3 segments each (15)\n"
        assert list(tmp_path.iterdir()) == []


class TestOraclesStayOutOfCommands:
    """The closed-form prime rule and the two region counters are test oracles:
    no command may depend on them."""

    def test_commands_succeed_with_the_oracles_broken(self, capsys, monkeypatch):
        for module in (core, graphs, curves, cli, serialize):
            for name in ("is_patterned_prime", "bounded_regions_euler", "bounded_regions_flood"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, _no_work)
        for argv in (("primes", "--limit", "500"), ("primes", "--limit", "500", "--format", "json"),
                     ("dag", "--limit", "500", "--gap-primes"),
                     ("tessellate", "--word", "LLRLRRL", "--placements", ROTATIONS)):
            code, out, err = run(capsys, *argv)
            assert code == 0 and out and err == ""
