"""Core predicate, sequence, turn and energy tests.

Expected values here were frozen from independent brute-force scans (naive
string-digit trial division), not from the implementation under test.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from patterned import core
from patterned.core import (
    MAX_INT,
    classify_block,
    count_and_density,
    is_patterned,
    is_patterned_digit_first,
    is_patterned_divisor_first,
    is_patterned_prime,
    is_patterned_two_digit,
    is_prime,
    patterned_sequence,
    prime_array,
    primes_up_to,
    profile,
    scan_members,
    site_energies,
    turn_sequence,
)
from patterned.errors import ResourceLimitError


def oracle_patterned(n):
    """Most naive possible reference predicate."""
    return any(int(c) != 0 and n % int(c) == 0 for c in str(n))


class TestProfile:
    def test_13_is_patterned(self):
        assert profile(13).is_patterned

    def test_1_fields(self):
        p = profile(1)
        assert p.matches == frozenset({1})
        assert p.match_count == 1
        assert p.turn == "L"

    def test_36_fields(self):
        p = profile(36)
        assert p.matches == frozenset({3, 6})
        assert p.match_count == 2
        assert p.turn == "R"

    def test_23_not_patterned(self):
        p = profile(23)
        assert not p.is_patterned
        assert p.turn is None
        assert p.matches == frozenset()

    def test_set_containments(self):
        for n in range(1, 500):
            p = profile(n)
            assert p.matches <= p.digits
            assert p.matches <= p.small_divisors
            assert 0 not in p.matches
            assert p.is_patterned == (len(p.matches) > 0)

    @pytest.mark.parametrize("bad", [0, -1, -100])
    def test_rejects_nonpositive(self, bad):
        with pytest.raises(ValueError):
            profile(bad)

    def test_rejects_oversized(self):
        with pytest.raises(ValueError):
            profile(2**63)

    def test_rejects_non_integer(self):
        with pytest.raises(ValueError):
            profile(3.0)

    @pytest.mark.parametrize("bad", [1.5, True, 0, -7, 2**63])
    def test_rejects_values_an_int64_array_would_convert(self, bad):
        with pytest.raises(ValueError):
            profile(bad)


class TestPredicate:
    def test_paper_examples(self):
        assert is_patterned(11)
        assert is_patterned(10)
        assert not is_patterned(27)

    def test_dual_implementations_agree_sample(self):
        for n in range(1, 20001):
            assert is_patterned_digit_first(n) == is_patterned_divisor_first(n)

    def test_against_naive_oracle(self):
        for n in range(1, 5000):
            assert is_patterned(n) == oracle_patterned(n)

    def test_numbers_with_digit_one(self):
        for n in range(1, 10000):
            if "1" in str(n):
                assert is_patterned(n)

    def test_two_digit_multiples_of_ten(self):
        for n in range(10, 100, 10):
            assert is_patterned(n)

    def test_multiples_of_ten_do_not_generalize(self):
        # 10a has its tens digit a as a divisor only while a stays a digit;
        # 370 (digits 3, 7, 0) is the least multiple of 10 left out
        assert not is_patterned(370)
        assert min(n for n in range(10, 10001, 10) if not is_patterned(n)) == 370


class TestTwoDigitRule:
    def test_examples(self):
        assert is_patterned_two_digit(2, 4)
        assert is_patterned_two_digit(4, 2)
        assert not is_patterned_two_digit(2, 3)

    def test_exhaustive_equivalence(self):
        for a in range(1, 10):
            for b in range(0, 10):
                assert is_patterned_two_digit(a, b) == is_patterned(10 * a + b)

    @pytest.mark.parametrize("a,b", [(0, 5), (10, 0), (5, 10), (5, -1), (2.0, 3)])
    def test_rejects_bad_digits(self, a, b):
        with pytest.raises(ValueError):
            is_patterned_two_digit(a, b)


class TestPrimes:
    def test_examples(self):
        assert is_patterned_prime(31)
        assert not is_patterned_prime(23)
        assert is_patterned_prime(7)

    def test_rejects_composite_unless_assumed(self):
        with pytest.raises(ValueError):
            is_patterned_prime(12)
        # with the check skipped the closed form just runs
        assert is_patterned_prime(12, assume_prime=True)

    def test_theorem_exhaustive_1e4(self):
        for p in primes_up_to(10000):
            assert is_patterned(p) == is_patterned_prime(p, assume_prime=True)

    def test_sieve_matches_trial_division(self):
        sieved = set(primes_up_to(2000))
        for n in range(1, 2001):
            assert (n in sieved) == is_prime(n)

    @pytest.mark.parametrize("limit", [1, 2, 3, 4, 10**4])
    def test_prime_array_matches_trial_division(self, limit):
        primes = prime_array(limit)
        assert primes.dtype == np.int64
        assert primes.tolist() == [n for n in range(1, limit + 1) if is_prime(n)]
        assert primes_up_to(limit) == primes.tolist()

    def test_sieve_small_limits(self):
        assert primes_up_to(1) == []
        assert primes_up_to(2) == [2]
        assert primes_up_to(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]

    def test_sieve_out_of_memory_names_the_limit(self):
        # in a child process whose address space is capped at 4 GB: a 10^12
        # sieve must fail cleanly, with no stray SystemError on stderr
        pytest.importorskip("resource")
        script = (
            "import resource\n"
            "from patterned import core\n"
            "resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30))\n"
            "try:\n"
            "    core.primes_up_to(10**12)\n"
            "except MemoryError as exc:\n"
            "    print(exc)\n"
        )
        src = str(Path(core.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert "SystemError" not in proc.stderr
        assert "limit 1000000000000" in proc.stdout


class TestSequence:
    def test_first_twelve(self):
        assert patterned_sequence(12) == list(range(1, 13))

    def test_limit_one(self):
        assert patterned_sequence(1) == [1]

    def test_exclusions_to_30(self):
        seq = patterned_sequence(30)
        assert 23 not in seq and 27 not in seq and 29 not in seq
        assert set(range(1, 31)) - set(seq) == {23, 27, 29}

    def test_strictly_increasing(self):
        seq = patterned_sequence(500)
        assert all(a < b for a, b in zip(seq, seq[1:]))

    def test_first_k_prefix(self):
        for k in (1, 12, 69, 733, 734, 2000):
            first = scan_members(k=k).numbers.tolist()
            assert len(first) == k
            assert first == patterned_sequence(first[-1])

    def test_first_k_bounded_before_any_block(self, monkeypatch):
        def classify(numbers):
            raise AssertionError("a block was classified before k was checked")

        monkeypatch.setattr(core, "classify_block", classify)
        for k in (core.MAX_MEMBERS + 1, 10**12):
            with pytest.raises(ResourceLimitError) as info:
                scan_members(k=k)
            assert str(info.value) == f"k must be <= 6000000, got {k}"
        monkeypatch.undo()
        monkeypatch.setattr(core, "MAX_MEMBERS", 12)
        assert scan_members(k=12).numbers.tolist() == list(range(1, 13))
        with pytest.raises(ResourceLimitError, match="k must be <= 12, got 13"):
            scan_members(k=13)


class TestCountAndDensity:
    def test_limit_100(self):
        report = count_and_density(100)
        assert report.count == 69
        assert report.density == pytest.approx(0.69)

    def test_limit_9(self):
        report = count_and_density(9)
        assert report.count == 9
        assert report.density == 1.0

    def test_limit_1(self):
        report = count_and_density(1)
        assert report.count == 1
        assert report.density == 1.0

    def test_count_matches_sequence_length(self):
        for limit in (7, 50, 333):
            assert count_and_density(limit).count == len(patterned_sequence(limit))


class TestTurn:
    def test_examples(self):
        assert profile(11).turn == "L"
        assert profile(12).turn == "R"
        assert profile(36).turn == "R"

    def test_undefined_off_sequence(self):
        assert profile(23).turn is None

    def test_total_on_sequence(self):
        for n in patterned_sequence(1000):
            assert profile(n).turn in ("L", "R")

    def test_turn_sequence_first_three(self):
        assert turn_sequence(3) == ["L", "L", "L"]

    def test_turn_sequence_k1(self):
        assert turn_sequence(1) == ["L"]

    def test_turn_sequence_k12(self):
        assert turn_sequence(12) == ["L"] * 11 + ["R"]

    def test_turn_sequence_elementwise(self):
        labels = turn_sequence(200)
        members = patterned_sequence(1000)[:200]
        assert labels == [profile(n).turn for n in members]


class TestSiteEnergy:
    """The energy of one member, read from ``site_energies`` along a scan."""

    def test_repeat_turn_penalty(self):
        # 2 turns L, as 1 before it does
        assert site_energies(scan_members(limit=2), alpha=1, beta=1)[0] == [1.0, 2.0]

    def test_no_predecessor(self):
        assert site_energies(scan_members(k=1), alpha=1, beta=1)[0] == [1.0]

    def test_beta_zero_disables_penalty(self):
        assert site_energies(scan_members(limit=12), alpha=1, beta=0)[0][-1] == 2.0

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite_weights(self, bad):
        with pytest.raises(ValueError, match="^alpha must be finite"):
            site_energies(scan_members(k=3), alpha=bad)
        with pytest.raises(ValueError, match="^beta must be finite"):
            site_energies(scan_members(k=3), beta=bad)

    def test_monotone_in_alpha_and_beta(self):
        members = scan_members(limit=100)
        base = site_energies(members, alpha=1.0, beta=1.0)[0]
        for alpha, beta in ((2.0, 1.0), (1.0, 2.0)):
            energies = site_energies(members, alpha=alpha, beta=beta)[0]
            assert all(e >= b for e, b in zip(energies, base))


class TestSiteEnergies:
    @pytest.mark.parametrize("alpha, beta", [(1.0, 0.5), (0.3, 1.7), (2, 0)])
    def test_matches_naive_energies(self, alpha, beta):
        members = patterned_sequence(500)
        energies, turns = site_energies(scan_members(limit=500), alpha, beta)
        prev = None
        for n, energy, label in zip(members, energies, turns):
            matches = sum(1 for c in set(str(n)) if c != "0" and n % int(c) == 0)
            expected_turn = "L" if matches % 2 else "R"
            assert label == expected_turn
            assert energy == alpha * matches + beta * (1.0 if prev == label else 0.0)
            prev = label

    def test_one_profile_per_member(self, monkeypatch):
        # the scan classifies each member once; the energies read its masks
        members = scan_members(limit=100)
        monkeypatch.setattr(core, "classify_block", None)
        energies, turns = site_energies(members)
        assert len(energies) == len(turns) == len(members.numbers) == 69


def oracle_match_count(n):
    return sum(1 for c in set(str(n)) if c != "0" and n % int(c) == 0)


def block_boundaries(limit):
    """First numbers of the scan's blocks after the first, up to limit."""
    low, size, bounds = 1, core.BLOCK_FIRST, []
    while low + size <= limit:
        low, size = low + size, min(4 * size, core.BLOCK_MAX)
        bounds.append(low)
    return bounds


class TestBlockClassifier:
    def test_agrees_with_both_oracles_to_1e6(self):
        members = set(patterned_sequence(10**6))
        for n in range(1, 10**6 + 1):
            expected = n in members
            assert is_patterned_digit_first(n) == expected
            assert is_patterned_divisor_first(n) == expected

    def test_match_counts_and_turns_against_string_oracle(self):
        numbers = np.arange(1, 30001, dtype=np.int64)
        _, matches = classify_block(numbers)
        for n, mask in zip(numbers.tolist(), matches.tolist()):
            assert bin(mask).count("1") == oracle_match_count(n)
        first = scan_members(k=5000)
        counts = [bin(m).count("1") for m in first.matches.tolist()]
        assert counts == [oracle_match_count(n) for n in first.numbers.tolist()]
        assert first.turns.tolist() == [c % 2 for c in counts]
        assert core.turn_labels(first.turns) == ["L" if c % 2 else "R" for c in counts]

    def test_windows_around_block_boundaries(self):
        members = set(patterned_sequence(10**6))
        bounds = block_boundaries(10**6)
        assert len(bounds) > 50
        for b in bounds:
            assert all((n in members) == oracle_patterned(n) for n in range(b - 5, b + 6))
        for b in bounds[:4]:
            for limit in (b - 1, b, b + 1):
                tail = [n for n in range(limit - 40, limit + 1) if oracle_patterned(n)]
                assert patterned_sequence(limit)[-len(tail):] == tail
        for k in (733, 734, 735):  # 733 qualifying numbers fill the first block
            assert scan_members(k=k).numbers[-1] == patterned_sequence(2000)[k - 1]

    def test_digit_chunk_windows_up_to_the_largest_int(self):
        windows = [np.arange(10**j - 3, 10**j + 4) for j in range(1, 19)]
        windows.append(np.arange(MAX_INT - 20, MAX_INT + 1, dtype=np.int64))
        numbers = np.concatenate(windows).astype(np.int64)
        digits, matches = classify_block(numbers)
        for n, d, m in zip(numbers.tolist(), digits.tolist(), matches.tolist()):
            p = profile(n)
            assert d == sum(1 << int(c) for c in set(str(n)))
            assert p.digits == {int(c) for c in str(n)}
            assert (m != 0) == is_patterned_digit_first(n) == is_patterned_divisor_first(n)
            assert bin(m).count("1") == oracle_match_count(n) == p.match_count
        assert profile(MAX_INT).matches == frozenset({7})

    def test_count_cross_check_raises_on_disagreement(self, monkeypatch):
        from patterned.errors import InvariantError

        monkeypatch.setattr(core, "count_patterned", lambda limit: limit)
        with pytest.raises(InvariantError, match="disagree at limit 23: 23 vs 22"):
            count_and_density(23)
        with pytest.raises(InvariantError, match="disagree at limit 1000000: 1000000 vs 8"):
            count_and_density(MAX_INT)


def classifier_counts(limits):
    """The block classifier's cumulative counts at ascending limits, scanned
    in chunks of 10^6 numbers."""
    limits = np.array(limits)
    counts, done = np.zeros(len(limits), dtype=np.int64), 0
    for low in range(1, int(limits[-1]) + 1, 10**6):
        high = min(low + 10**6 - 1, int(limits[-1]))
        running = done + np.cumsum(classify_block(np.arange(low, high + 1))[1] != 0)
        inside = (limits >= low) & (limits <= high)
        counts[inside] = running[limits[inside] - low]
        done = int(running[-1])
    return counts.tolist()


_SMALL_DIVISORS = np.array([sum(1 << d - 2 for d in range(2, 10) if r % d == 0)
                            for r in range(2520)])
_QUALIFIES = (_SMALL_DIVISORS[:, None] & np.arange(256)) != 0  # [n mod 2520, digit set]
_HALF = np.arange(126)


def _bit(d):
    """The digit d's bit in a set of digits 2..9."""
    return 1 << d - 2 if d > 1 else 0


def _with_digit(table, d):
    """``table`` with the digit d appended to every prefix: set s moves to s | bit."""
    if d == 0:
        return table
    bit = _bit(d)
    split = table.reshape(len(table), 128 // bit, 2, bit)
    moved = np.zeros_like(split)
    np.add(split[:, :, 0], split[:, :, 1], out=moved[:, :, 1])
    return moved.reshape(table.shape)


def forward_count(limits, weights=(1,), modulus=None):
    """sum(w * #{qualifying n <= limit}) over limits and weights, modulo
    ``modulus`` if given: a forward digit DP, the second oracle of
    :func:`core.count_patterned`, sharing none of its code.

    Reads the limits, zero-padded to one width, from the top digit down.
    ``below[r, s]`` holds the weighted count of the prefixes already below
    their limit's prefix of the same length, by value r mod 252 and set s of
    their digits 2..9 (bit d - 2); ``ones`` holds those with a 1, which
    qualifies them whatever follows. Appending a digit needs only a
    prefix's value mod 252, since 10 * 252 = 2520 = lcm(1..9), so the table
    is folded to 252 rows per digit, except after the last digit, where the
    value mod 2520 decides. Weights let one pass check many limits at once.
    """
    width = len(str(max(limits)))
    tight = [[0, 0, False, w] for w in weights]  # each limit's own prefix: value, set, 1
    below, ones = np.zeros((252, 256), dtype=np.int64), 0
    for i in range(width):
        last = i == width - 1
        ones = 10 * ones + int(below.sum())  # appending a 1 to any prefix
        if last:
            grown = np.zeros((252, 10, 256), dtype=np.int64)  # row 10 r + d
            for d in (0, 2, 3, 4, 5, 6, 7, 8, 9):
                grown[:, d] = _with_digit(below, d)
            grown = grown.reshape(2520, 256)
        else:
            half = below[:126] + below[126:]  # rows r and r + 126 grow alike
            grown = np.zeros((252, 256), dtype=np.int64)
            for d in (0, 2, 3, 4, 5, 6, 7, 8, 9):
                grown[(10 * _HALF + d) % 252] += _with_digit(half, d)
        for limit, state in zip(limits, tight):
            value, digit_set, has_one, w = state
            top = int(str(limit).zfill(width)[i])
            for d in range(top):
                if has_one or d == 1:
                    ones += w
                else:
                    grown[(10 * value + d) % len(grown), digit_set | _bit(d)] += w
            state[:3] = (10 * value + top) % 2520, digit_set | _bit(top), has_one or top == 1
        below = grown % modulus if modulus else grown
        ones = ones % modulus if modulus else ones
    total = ones + int(below[_QUALIFIES].sum())
    for value, digit_set, has_one, w in tight:  # each limit itself
        total += w * (has_one or bool(digit_set & _SMALL_DIVISORS[value]))
    return total % modulus if modulus else total


class TestCountDP:
    def test_every_limit_to_1e5_and_every_997th_to_1e7(self):
        limits = list(range(1, 10**5 + 1)) + list(range(10**5 + 997, 10**7 + 1, 997))
        assert [core.count_patterned(n) for n in limits] == classifier_counts(limits)

    def test_around_block_boundaries_and_powers_of_ten(self):
        centres = block_boundaries(10**7) + [10**j for j in range(1, 8)]
        limits = sorted({c + o for c in centres for o in range(-3, 4)})
        assert len(limits) > 100
        assert [core.count_patterned(n) for n in limits] == classifier_counts(limits)

    def test_forward_dp_agrees_to_the_largest_int(self):
        limits = [10**j + o for j in range(1, 19) for o in (-3, -1, 0, 1, 3)] + [MAX_INT]
        assert [core.count_patterned(n) for n in limits] == [forward_count([n]) for n in limits]

    def test_forward_dp_agrees_at_random_limits(self):
        # A forward pass per limit takes about 20 ms, so the 2,000 limits
        # are checked in one pass, each with its own random weight modulo a
        # prime: one wrong count changes the weighted sum.
        import random

        rng = random.Random(2520)
        prime = 2**42 - 11  # keeps every table sum below 2**63
        limits = [rng.randrange(1, MAX_INT + 1) for _ in range(2000)]
        weights = [rng.randrange(1, prime) for _ in limits]
        expected = sum(w * core.count_patterned(n) for n, w in zip(limits, weights)) % prime
        assert forward_count(limits, weights, prime) == expected
        for n in limits[:20]:
            assert forward_count([n]) == core.count_patterned(n)

    def test_pinned_counts(self):
        assert core.count_patterned(10**12) == 932_113_080_564
        assert core.count_patterned(10**18) == 967_997_194_404_428_276
        assert core.count_patterned(MAX_INT) == 8_966_875_490_664_456_428
        assert count_and_density(10**18).density == 0.967997194404428276

    def test_tables_built_only_as_far_as_the_limit_needs(self, monkeypatch):
        monkeypatch.setattr(core, "_SUFFIX_COUNTS", [])
        assert core.count_patterned(99_999) == classifier_counts([99_999])[0]
        assert [t.shape for t in core._SUFFIX_COUNTS] == [(252, 256), (126, 256), (63, 256),
                                                          (63, 256)]
        assert sum(t.nbytes for t in core._SUFFIX_COUNTS) == 161_280
        core.count_patterned(MAX_INT)
        assert [t.dtype for t in core._SUFFIX_COUNTS] == (
            [np.uint8] * 2 + [np.uint16] * 2 + [np.uint32] * 5 + [np.uint64] * 9)

    def test_rejects_bad_limits(self):
        for bad in (0, -5, MAX_INT + 1, 1.0, True):
            with pytest.raises(ValueError):
                core.count_patterned(bad)
