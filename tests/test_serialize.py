"""Byte-identity of the row and path writers against a cell-by-cell reference.

The reference below formats every cell with its own call, the way the writers
did before they formatted whole rows: reals with ``format(float(x), ".12g")``,
bools as ``true``/``false``, everything else with ``str``. Each test runs a
command (or a writer) and compares its bytes with the reference's.
"""

import io
import json
import sys
from types import SimpleNamespace

import numpy as np
import pytest

from patterned import core, curves, dynamics, serialize
from patterned.cli import cli_dispatch
from patterned.core import MAX_INT, patterned_sequence, profile

UNITS = (1.0, 0.1, 1 / 3, 1e-7, 1e20)


def ref_real(x) -> str:
    return format(float(x), ".12g")


def ref_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return ref_real(value)
    return str(value)


def ref_line(row) -> str:
    return ",".join(ref_cell(c) for c in row) + "\n"


def ref_csv(header, rows) -> str:
    return ",".join(header) + "\n" + "".join(map(ref_line, rows))


def ref_profile_row(p):
    return [
        p.n,
        "|".join(str(d) for d in sorted(p.digits)),
        "|".join(str(d) for d in sorted(p.small_divisors)),
        "|".join(str(d) for d in sorted(p.matches)),
        p.match_count,
        p.is_patterned,
        p.turn or "",
    ]


def ref_profile_json(p):
    return {
        "n": p.n,
        "digits": sorted(p.digits),
        "small_divisors": sorted(p.small_divisors),
        "matches": sorted(p.matches),
        "match_count": p.match_count,
        "patterned": p.is_patterned,
        "turn": p.turn,
    }


def ref_gen(fmt, limit, numbers) -> str:
    profiles = [profile(n) for n in numbers]
    if fmt == "csv":
        return ref_csv(serialize.PROFILE_CSV_HEADER, map(ref_profile_row, profiles))
    payload = {"limit": limit, "profiles": [ref_profile_json(p) for p in profiles]}
    return json.dumps(payload, indent=2) + "\n"


def ref_path(points, unit) -> str:
    return " ".join(
        f"{'M' if i == 0 else 'L'} {ref_real(x * unit)} {ref_real(y * unit)}"
        for i, (x, y) in enumerate(points)
    )


def ref_svg(curve_list, unit) -> str:
    xs = [x for _, c in curve_list for x, _ in c.vertices]
    ys = [y for _, c in curve_list for _, y in c.vertices]
    x0, x1 = min(xs) - 1, max(xs) + 1
    y0, y1 = min(ys) - 1, max(ys) + 1
    view = " ".join(ref_real(v * unit) for v in (x0, y0, x1 - x0, y1 - y0))
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{view}">',
        f'<g transform="translate(0 {ref_real((y0 + y1) * unit)}) scale(1 -1)" fill="none" '
        f'stroke-width="{ref_real(0.1 * unit)}" stroke-linecap="square">',
    ]
    for i, (path_id, c) in enumerate(curve_list):
        color = serialize.SVG_PALETTE[i % len(serialize.SVG_PALETTE)]
        lines.append(f'<path id="{path_id}" stroke="{color}" d="{ref_path(c.vertices, unit)}" />')
    return "\n".join(lines + ["</g>", "</svg>"]) + "\n"


def run(capsys, *argv):
    code = cli_dispatch([str(a) for a in argv])
    out, err = capsys.readouterr()
    assert code == 0, err
    return out


def member_block(numbers):
    """One ``_member_blocks`` block holding the qualifying numbers given."""
    numbers = np.array(numbers, dtype=np.int64)
    digits, matches = core.classify_block(numbers)
    keep = matches != 0
    return numbers[keep], digits[keep], matches[keep]


# Numbers with interior and trailing zeros, and the widest numbers supported.
WIDE = sorted(
    {10**j + d for j in range(1, 19) for d in (-3, -1, 0, 1, 3)}
    | {MAX_INT - i for i in range(40)}
)


class TestGen:
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("limit", [1, 1023, 1024, 1025, 5119, 5120, 5121, 21503, 21504,
                                       21505, 37887, 37888, 37889])
    def test_block_edges(self, capsys, fmt, limit):
        out = run(capsys, "gen", "--limit", limit, "--format", fmt)
        assert out == ref_gen(fmt, limit, patterned_sequence(limit))

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_zeros_and_the_widest_numbers(self, capsys, monkeypatch, fmt):
        block = member_block(WIDE)
        assert 0 < block[0].size < len(WIDE)
        monkeypatch.setattr(core, "_member_blocks", lambda limit: iter([block]))
        out = run(capsys, "gen", "--limit", MAX_INT, "--format", fmt)
        assert out == ref_gen(fmt, MAX_INT, block[0].tolist())

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_blocks_are_written_as_they_are_made(self, monkeypatch, fmt):
        """The second block is made only once the first block's last entry is
        out, and an empty block between them changes no byte."""
        expected = ref_gen(fmt, 79, patterned_sequence(79))
        stdout = io.StringIO()
        monkeypatch.setattr(sys, "stdout", stdout)
        first, second = member_block(range(1, 40)), member_block(range(40, 80))
        last = f'"n": {first[0][-1]},' if fmt == "json" else f"\n{first[0][-1]},"

        def blocks(limit):
            yield first
            assert last in stdout.getvalue()
            yield member_block([23])
            yield second

        monkeypatch.setattr(core, "_member_blocks", blocks)
        assert cli_dispatch(["gen", "--limit", "79", "--format", fmt]) == 0
        assert stdout.getvalue() == expected


class TestFloatRows:
    def test_walk(self, capsys):
        out = run(capsys, "walk", "--sites", 30, "--steps", 40, "--theta-l", 0.7,
                  "--theta-r", -0.9, "--initial-site", 15)
        series = dynamics.run_walk(30, 40, dynamics.CoinSpec(0.7, -0.9), initial_site=15)
        header = ["step"] + [f"site_{i}" for i in range(1, 31)]
        assert out == ref_csv(header, ([s, *row.tolist()] for s, row in enumerate(series)))
        assert "e-" in out  # small probabilities take exponents

    @pytest.mark.parametrize("shape", [(10_050, 1), (3, 2 * serialize.BLOCK_CELLS + 7)])
    def test_real_table_shapes(self, shape):
        """Row indices of 1-5 digits, and rows split over three blocks."""
        table = np.random.default_rng(5).random(shape) ** 9
        text = "".join(serialize.real_csv_rows(table))
        assert text == "".join(ref_line([i, *row]) for i, row in enumerate(table.tolist()))

    @pytest.mark.parametrize("shift", [-1, 1])
    def test_exponent_missed_by_one_costs_no_bytes(self, monkeypatch, shift):
        """A log10 one off for every cell sends every cell to '%.12g'."""
        tables = serialize._real_tables()
        scale = np.concatenate([tables.scale[shift:], tables.scale[:shift]])
        missed = SimpleNamespace(**{**vars(tables), "scale": scale})
        monkeypatch.setattr(serialize, "_real_tables", lambda: missed)
        table = dynamics.run_walk(30, 40, dynamics.CoinSpec(0.7, -0.9), initial_site=15)
        text = "".join(serialize.real_csv_rows(table))
        assert text == "".join(ref_line([i, *row]) for i, row in enumerate(table.tolist()))

    @pytest.mark.parametrize("s, g_l", [(1.0, 1.0), (0.5, -2.0), (0.0, 1.0)])
    def test_modes(self, capsys, s, g_l):
        out = run(capsys, "modes", "--sites", 21, "--s", s, "--g-l", g_l, "--g-r", 1)
        chain = dynamics.patterned_chain(21, g_L=g_l, g_R=1.0, s=s)
        spectrum = dynamics.eigensystem(dynamics.build_single_excitation_hamiltonian(chain))
        values = spectrum.eigenvalues.tolist()
        rows = zip(range(1, 22), values, spectrum.participation_ratios.tolist())
        assert out == ref_csv(("index", "eigenvalue", "participation_ratio"), rows)
        if s == 1.0:  # a uniform chain of odd length: a zero mode in floating point
            assert min(values) < 0 and min(abs(v) for v in values) < 1e-14
            assert "e-" in out

    def test_sweep(self, capsys):
        out = run(capsys, "sweep", "--sites", 12, "--s-grid", "0:1:7", "--g-l", 1.3, "--g-r", 0.2)
        chain = dynamics.patterned_chain(12, g_L=1.3, g_R=0.2)
        points = dynamics.adiabatic_sweep(chain, np.linspace(0, 1, 7).tolist())
        header = ("s", "ground_energy", "spectral_gap", "ground_participation_ratio")
        assert out == ref_csv(header, ([*vars(p).values()] for p in points))


@pytest.fixture(scope="module")
def first_members():
    """The numbers and turn labels of the first 32769 members."""
    members = core.scan_members(k=32769)
    return members.numbers.tolist(), core.turn_labels(members.turns)


class TestOtherRows:
    def test_turns(self, capsys):
        members = core.scan_members(k=300)
        rows = zip(range(1, 301), members.numbers.tolist(), core.turn_labels(members.turns))
        assert run(capsys, "turns", "--k", 300) == ref_csv(("index", "n", "turn"), rows)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("k", [1, 16383, 16384, 16385, 32767, 32768, 32769])
    def test_turns_block_edges(self, capsys, first_members, fmt, k):
        numbers, turns = (column[:k] for column in first_members)
        if fmt == "csv":
            rows = "".join("%d,%d,%s\n" % row for row in zip(range(1, k + 1), numbers, turns))
            expected = "index,n,turn\n" + rows
        else:
            expected = json.dumps({"k": k, "numbers": numbers, "turns": turns}, indent=2) + "\n"
        assert run(capsys, "turns", "--k", k, "--format", fmt) == expected

    def test_primes(self, capsys):
        rows = sorted([(p, "patterned") for p in (2, 3, 5, 7, 11, 13, 17, 19)]
                      + [(p, "gap") for p in (23, 29)])
        assert run(capsys, "primes", "--limit", 30) == ref_csv(("p", "group"), rows)

    @pytest.mark.parametrize("count", [16383, 16384, 16385, 32769])
    def test_primes_block_edges(self, capsys, count):
        """The lines are written a block of BLOCK_MAX primes at a time; the
        limit is the count-th prime, so the last block is one short of full,
        full, or one prime long."""
        primes = core.primes_up_to(400_000)[:count]
        assert len(primes) == count
        lines = "".join("%d,%s\n" % (p, "patterned" if core.is_patterned_prime(p, True) else "gap")
                        for p in primes)
        assert run(capsys, "primes", "--limit", primes[-1]) == "p,group\n" + lines

    def test_seahorse_flags(self, capsys):
        rows = [(w, len(w), r.max_turn_run_ok, r.single_region_ok, r.reflection_ok,
                 r.is_seahorse) for w, r in curves.scan_turn_words(6)]
        header = ("word", "length", "max_run_ok", "single_region_ok", "reflection_ok",
                  "is_seahorse")
        out = run(capsys, "seahorse-scan", "--max-len", 6, "--all-words")
        assert out == ref_csv(header, rows)
        assert ",true," in out and ",false," in out


class TestSvg:
    WORD = "LLRRLRLLLRRRLR"

    @pytest.mark.parametrize("unit", UNITS)
    def test_curve_with_negative_coordinates(self, unit):
        motion = curves.RigidMotion(270, False, (-5, -7))  # from (-5, -7), heading S
        curve = curves.apply_motion(curves.trace(self.WORD), motion)
        assert min(min(v) for v in curve.vertices) < 0
        assert serialize.curve_svg(curve, unit) == ref_svg([("curve-0", curve)], unit)

    @pytest.mark.parametrize("unit", UNITS)
    def test_cli_commands(self, capsys, unit):
        out = run(capsys, "curve", "--word", self.WORD, "--unit", unit)
        assert out == ref_svg([("curve-0", curves.trace(self.WORD))], unit)
        out = run(capsys, "dragon", "--word", "LLR", "--generations", 7, "--unit", unit)
        grown = curves.iterate_dragon(curves.trace("LLR"), 7)
        assert min(min(v) for v in grown.vertices) < 0
        assert out == ref_svg([("curve-0", grown)], unit)
        placements = [{"rotation": 0}, {"rotation": 90, "translation": [-3, 5]},
                      {"rotation": 180, "reflect": True, "translation": [-7, -11]}]
        out = run(capsys, "tessellate", "--word", "RRLRL", "--unit", unit,
                  "--placements", json.dumps(placements))
        motions = [curves.RigidMotion(rotation=0),
                   curves.RigidMotion(rotation=90, translation=(-3, 5)),
                   curves.RigidMotion(rotation=180, reflect=True, translation=(-7, -11))]
        tess = curves.tessellate(curves.trace("RRLRL"), motions)
        assert out == ref_svg([(f"tile-{i}", t) for i, t in enumerate(tess.tiles)], unit)

    @pytest.mark.parametrize("start, finite", [((10, 0), False), ((0, 10), False), ((0, 0), True)])
    def test_unit_checked_at_every_far_corner(self, start, finite):
        # LL from (10, 0): x spans 9..12 with its margin, and of the view box and
        # far corners only 12 * unit overflows; from (0, 10) y and the flip offset do
        curve = curves.apply_motion(curves.trace("LL"), curves.RigidMotion(translation=start))
        if finite:
            assert "inf" not in serialize.curve_svg(curve, 1.6e307)
        else:
            with pytest.raises(ValueError, match="unit must keep the drawing finite, got 1.6e"):
                serialize.curve_svg(curve, 1.6e307)

    def test_single_vertex_path(self):
        assert serialize._svg_path([(-2, 3)], 0.5) == ref_path([(-2, 3)], 0.5) == "M -1 1.5"
