"""Core predicate, sequence, turn and energy tests.

Expected values here were frozen from independent brute-force scans (naive
string-digit trial division), not from the implementation under test.
"""

import pytest

from patterned import core
from patterned.core import (
    count_and_density,
    is_patterned,
    is_patterned_digit_first,
    is_patterned_divisor_first,
    is_patterned_prime,
    is_patterned_two_digit,
    is_prime,
    patterned_sequence,
    primes_up_to,
    profile,
    site_energies,
    site_energy,
    turn,
    turn_sequence,
)


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

    def test_sieve_small_limits(self):
        assert primes_up_to(1) == []
        assert primes_up_to(2) == [2]
        assert primes_up_to(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


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

    def test_iter_patterned_prefix(self):
        from itertools import islice

        assert list(islice(core.iter_patterned(), 12)) == patterned_sequence(12)


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
        assert turn(11) == "L"
        assert turn(12) == "R"
        assert turn(36) == "R"

    def test_undefined_off_sequence(self):
        with pytest.raises(ValueError):
            turn(23)

    def test_total_on_sequence(self):
        for n in patterned_sequence(1000):
            assert turn(n) in ("L", "R")

    def test_turn_sequence_first_three(self):
        assert turn_sequence(3) == ["L", "L", "L"]

    def test_turn_sequence_k1(self):
        assert turn_sequence(1) == ["L"]

    def test_turn_sequence_k12(self):
        assert turn_sequence(12) == ["L"] * 11 + ["R"]

    def test_turn_sequence_elementwise(self):
        labels = turn_sequence(200)
        members = patterned_sequence(1000)[:200]
        assert labels == [turn(n) for n in members]


class TestSiteEnergy:
    def test_repeat_turn_penalty(self):
        assert site_energy(36, prev_turn="R", alpha=1, beta=1) == 3.0

    def test_no_predecessor(self):
        assert site_energy(1, prev_turn=None, alpha=1, beta=1) == 1.0

    def test_beta_zero_disables_penalty(self):
        assert site_energy(12, prev_turn="L", alpha=1, beta=0) == 2.0

    def test_undefined_off_sequence(self):
        with pytest.raises(ValueError):
            site_energy(23)

    def test_rejects_bad_prev_turn(self):
        with pytest.raises(ValueError):
            site_energy(12, prev_turn="X")

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite_weights(self, bad):
        with pytest.raises(ValueError):
            site_energy(12, alpha=bad)
        with pytest.raises(ValueError):
            site_energy(12, beta=bad)

    def test_monotone_in_alpha_and_beta(self):
        for n in (1, 12, 36, 100):
            for prev in (None, "L", "R"):
                base = site_energy(n, prev, alpha=1.0, beta=1.0)
                assert site_energy(n, prev, alpha=2.0, beta=1.0) >= base
                assert site_energy(n, prev, alpha=1.0, beta=2.0) >= base


class TestSiteEnergies:
    @pytest.mark.parametrize("alpha, beta", [(1.0, 0.5), (0.3, 1.7), (2, 0)])
    def test_matches_naive_energies(self, alpha, beta):
        members = patterned_sequence(500)
        energies, turns = site_energies(members, alpha, beta)
        prev = None
        for n, energy, label in zip(members, energies, turns):
            matches = sum(1 for c in set(str(n)) if c != "0" and n % int(c) == 0)
            expected_turn = "L" if matches % 2 else "R"
            assert label == expected_turn
            assert energy == alpha * matches + beta * (1.0 if prev == label else 0.0)
            prev = label

    def test_one_profile_per_member(self, monkeypatch):
        calls = []
        real = core.profile
        monkeypatch.setattr(core, "profile", lambda n: calls.append(n) or real(n))
        site_energies(patterned_sequence(100))
        assert calls == patterned_sequence(100)

    def test_rejects_non_patterned_and_non_finite(self):
        with pytest.raises(ValueError):
            site_energies([1, 23])
        with pytest.raises(ValueError):
            site_energies([1], alpha=float("nan"))
