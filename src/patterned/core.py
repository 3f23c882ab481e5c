"""Digit-divisor classification of positive integers.

A number qualifies ("is patterned") when one of its nonzero decimal digits
divides it. Everything else in the package is built on this predicate: the
ordered sequence of qualifying numbers, their counting density, a closed-form
prime characterization, the L/R turn operator driven by the parity of the
digit-divisor matches, and a per-number site energy.

All functions are pure and operate on exact integers. Two independent
implementations of the predicate are exposed so tests can cross-check them
against each other.
"""

from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Iterator, List, Optional, Tuple

from .errors import InvariantError

# Core arithmetic targets 64-bit-capable integers; larger inputs are rejected.
MAX_INT = 2**63 - 1

TURN_LEFT = "L"
TURN_RIGHT = "R"


@dataclass(frozen=True)
class DigitDivisorProfile:
    """Full digit/divisor record for one integer."""

    n: int
    digits: frozenset
    small_divisors: frozenset
    matches: frozenset
    match_count: int
    is_patterned: bool
    turn: Optional[str]  # "L" or "R"; None when not patterned


@dataclass(frozen=True)
class DensityReport:
    limit: int
    count: int
    density: float


def _check_positive(n: int, name: str = "n") -> None:
    if not isinstance(n, int) or isinstance(n, bool):
        raise ValueError(f"{name} must be an integer, got {type(n).__name__}")
    if n < 1:
        raise ValueError(f"{name} must be >= 1, got {n}")
    if n > MAX_INT:
        raise ValueError(f"{name} exceeds the supported width (2**63 - 1)")


def digit_set(n: int) -> frozenset:
    """Decimal digits present in n, extracted arithmetically."""
    _check_positive(n)
    digits = set()
    while n:
        n, r = divmod(n, 10)
        digits.add(r)
    return frozenset(digits)


def small_divisor_set(n: int) -> frozenset:
    """Divisors of n in 1..9, by trial division."""
    _check_positive(n)
    return frozenset(d for d in range(1, 10) if n % d == 0)


def profile(n: int) -> DigitDivisorProfile:
    """Classify n and report every intermediate quantity.

    The digit 0 can never witness the property (nothing is divisible by 0),
    so matches are always drawn from 1..9.
    """
    digits = digit_set(n)
    divisors = small_divisor_set(n)
    matches = digits & divisors
    count = len(matches)
    patterned = count > 0
    if patterned:
        turn_label = TURN_LEFT if count % 2 == 1 else TURN_RIGHT
    else:
        turn_label = None
    return DigitDivisorProfile(
        n=n,
        digits=digits,
        small_divisors=divisors,
        matches=matches,
        match_count=count,
        is_patterned=patterned,
        turn=turn_label,
    )


def is_patterned_digit_first(n: int) -> bool:
    """Predicate via a scan over the digits of n (arithmetic extraction)."""
    _check_positive(n)
    m = n
    while m:
        m, d = divmod(m, 10)
        if d and n % d == 0:
            return True
    return False


def is_patterned_divisor_first(n: int) -> bool:
    """Predicate via a scan over candidate divisors 1..9 (string digits).

    Deliberately shares no logic with :func:`is_patterned_digit_first`; the
    two exist so exhaustive cross-checks can treat one as an oracle for the
    other.
    """
    _check_positive(n)
    rep = str(n)
    for d in range(1, 10):
        if n % d == 0 and str(d) in rep:
            return True
    return False


# Public predicate: the digit-first scan.
is_patterned = is_patterned_digit_first


def is_patterned_two_digit(a: int, b: int) -> bool:
    """Closed form for two-digit numbers n = 10a + b.

    Patterned(10a + b) holds exactly when a | b (so the tens digit divides n)
    or b is nonzero and b | (10a + b). The a | 0 case is true: n ends in 0
    and the tens digit divides it.
    """
    if not isinstance(a, int) or isinstance(a, bool) or not 1 <= a <= 9:
        raise ValueError(f"tens digit must be in 1..9, got {a}")
    if not isinstance(b, int) or isinstance(b, bool) or not 0 <= b <= 9:
        raise ValueError(f"units digit must be in 0..9, got {b}")
    if b % a == 0:
        return True
    return b != 0 and (10 * a + b) % b == 0


def is_prime(n: int) -> bool:
    """Deterministic trial-division primality test."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def primes_up_to(limit: int) -> list:
    """Sieve of Eratosthenes; all primes <= limit in ascending order."""
    _check_positive(limit, "limit")
    if limit < 2:
        return []
    sieve = bytearray([1]) * (limit + 1)
    sieve[0] = sieve[1] = 0
    for i in range(2, int(limit**0.5) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
    return [i for i in range(2, limit + 1) if sieve[i]]


def is_patterned_prime(p: int, assume_prime: bool = False) -> bool:
    """Closed-form predicate for primes: p <= 9, or p contains the digit 1.

    No divisor search is performed. Unless ``assume_prime`` is set, p is
    verified to be prime first (callers iterating over a sieve should set it
    and skip the redundant check).
    """
    _check_positive(p, "p")
    if not assume_prime and not is_prime(p):
        raise ValueError(f"{p} is not prime; pass assume_prime=True to skip the check")
    if p <= 9:
        return True
    m = p
    while m:
        m, d = divmod(m, 10)
        if d == 1:
            return True
    return False


def iter_patterned() -> Iterator[int]:
    """Yield the qualifying numbers in increasing order, without bound."""
    n = 1
    while n <= MAX_INT:
        if is_patterned(n):
            yield n
        n += 1


def patterned_sequence(limit: int) -> list:
    """All qualifying n <= limit, ascending."""
    _check_positive(limit, "limit")
    return [n for n in range(1, limit + 1) if is_patterned(n)]


def count_and_density(limit: int) -> DensityReport:
    """Count qualifying numbers <= limit and their density.

    The count is computed with both independent predicate implementations;
    disagreement is a bug and raises :class:`InvariantError`.
    """
    _check_positive(limit, "limit")
    count = sum(1 for n in range(1, limit + 1) if is_patterned_digit_first(n))
    check = sum(1 for n in range(1, limit + 1) if is_patterned_divisor_first(n))
    if count != check:
        raise InvariantError(
            f"predicate implementations disagree at limit {limit}: {count} vs {check}"
        )
    return DensityReport(limit=limit, count=count, density=count / limit)


def turn(n: int) -> str:
    """Turn label of a qualifying number: L for odd match count, R for even.

    Undefined (raises ValueError) off the qualifying sequence.
    """
    prof = profile(n)
    if not prof.is_patterned:
        raise ValueError(f"turn is undefined for {n}: no digit-divisor match")
    return prof.turn


def first_patterned(k: int) -> list:
    """The first k qualifying numbers, ascending."""
    _check_positive(k, "k")
    return list(islice(iter_patterned(), k))


def turn_sequence(k: int) -> list:
    """Turn labels of the first k qualifying numbers."""
    return [turn(n) for n in first_patterned(k)]


def site_energy(
    n: int,
    prev_turn: Optional[str] = None,
    alpha: float = 1.0,
    beta: float = 0.5,
) -> float:
    """Per-site energy: alpha * match_count + beta * repeat-turn penalty.

    The penalty term is 1 when the site's turn equals ``prev_turn`` (a
    straight run of identical turns, used as a curvature proxy), else 0.
    """
    return site_energies([n], alpha, beta, prev_turn)[0][0]


def site_energies(
    members: Iterable[int],
    alpha: float = 1.0,
    beta: float = 0.5,
    prev_turn: Optional[str] = None,
) -> Tuple[List[float], List[str]]:
    """Site energies and turn labels along qualifying numbers, one profile each.

    Each member's repeat-penalty context is the turn of the member before it;
    the first member's is ``prev_turn``.
    """
    if prev_turn not in (None, TURN_LEFT, TURN_RIGHT):
        raise ValueError(f"prev_turn must be 'L', 'R' or None, got {prev_turn!r}")
    for name, value in (("alpha", alpha), ("beta", beta)):
        if not (value == value and abs(value) != float("inf")):
            raise ValueError(f"{name} must be finite, got {value}")
    energies: List[float] = []
    turns: List[str] = []
    for n in members:
        prof = profile(n)
        if not prof.is_patterned:
            raise ValueError(f"site energy is undefined for {n}: no digit-divisor match")
        repeat = 1.0 if prev_turn == prof.turn else 0.0
        energies.append(alpha * prof.match_count + beta * repeat)
        turns.append(prof.turn)
        prev_turn = prof.turn
    return energies, turns
