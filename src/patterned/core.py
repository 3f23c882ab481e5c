"""Digit-divisor classification of positive integers.

A number qualifies ("is patterned") when one of its nonzero decimal digits
divides it. Everything else in the package is built on this predicate: the
ordered sequence of qualifying numbers, their counting density, a closed-form
prime characterization, the L/R turn operator driven by the parity of the
digit-divisor matches, and the site energies along the sequence.

A turn word travels as one read-only uint8 array, the match-count parity with
1 for L; only :func:`turn_parity` and :func:`turn_labels` map labels to it and back.

Every caller classifies through one numpy block classifier,
:func:`classify_block`, and counts come from a digit DP,
:func:`count_patterned`, that is checked against it. No command calls the
scalar oracles that tests check them against: the independent predicates
:func:`is_patterned_digit_first` and :func:`is_patterned_divisor_first`, the
closed forms :func:`is_patterned_two_digit` and :func:`is_patterned_prime`
(with :func:`is_prime`), and :func:`profile`, one number's digit sets.
"""

from dataclasses import dataclass
from itertools import repeat
from math import gcd, isqrt
from typing import Iterable, Iterator, List, NamedTuple, Optional, Tuple

import numpy as np

from .errors import InvariantError, ResourceLimitError

# Core arithmetic targets 64-bit-capable integers; larger inputs are rejected.
MAX_INT = 2**63 - 1

TURN_LEFT = "L"
TURN_RIGHT = "R"

# Scans classify 1, 2, 3, ... in blocks that start small, so a short scan
# stays short, and grow to a fixed size, so a long one runs in bounded memory.
BLOCK_FIRST = 1024
BLOCK_MAX = 1 << 14

# The most members a scan of the first k may take, checked before it starts: a
# walk on that many sites, the largest use of a scan, takes about 1 GB at 150
# bytes a site.
MAX_MEMBERS = 6_000_000

# The largest sieve, checked before it is allocated: `primes` takes about 3.1
# bytes per integer, 406 MB for JSON at the cap.
MAX_PRIMES_LIMIT = 130_000_000


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


class Members(NamedTuple):
    """Qualifying numbers, ascending, as int64, with their uint16 match masks:
    the classifier's blocks joined."""

    numbers: np.ndarray
    matches: np.ndarray

    @property
    def turns(self) -> np.ndarray:
        """The turn word: each member's match-count parity, 1 for L, read-only."""
        parity = _PARITY[self.matches]
        parity.flags.writeable = False
        return parity


def check_int(value: int, name: str, low: int = 1, cap: Optional[int] = MAX_INT) -> int:
    """``value``, once it is checked to be an int (not a bool) in low..cap: the one
    check of every count, size and length the package takes. The cap is checked
    before the floor; ``cap=None`` leaves it to a compound cap the caller checks."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {type(value).__name__}")
    if cap is not None and value > cap:
        raise ResourceLimitError(f"{name} must be <= {cap}, got {value}")
    if value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")
    return value


# Sets of digits are 10-bit masks, bit d standing for the digit d. Whether a
# digit d divides n depends only on n mod 2520 = lcm(1..9), so one 2520-entry
# table holds the divisors in 1..9 of every n; bit 0 is never set in it,
# since nothing is divisible by 0. A second table holds the digits of each
# three-digit chunk c of a number's text: at index c the top chunk, as it is
# written (the chunk 0 past the top holds none), and at index c + 1000 a chunk
# below the top, with its leading zeros. The tables are built in plain Python,
# which leaves numpy code that the classifier does not run out of memory.
_DIVISORS = [0] * 2520
for _d in range(1, 10):
    for _r in range(0, 2520, _d):
        _DIVISORS[_r] |= 1 << _d
_CHUNK_DIGITS = [0]
for _r in range(1, 1000):
    _CHUNK_DIGITS.append(_CHUNK_DIGITS[_r // 10] | 1 << _r % 10)
_CHUNK_DIGITS += [digits | (r < 100) for r, digits in enumerate(_CHUNK_DIGITS)]
_DIVISOR_MASKS = np.array(_DIVISORS, dtype=np.uint16)
_CHUNK_MASKS = np.array(_CHUNK_DIGITS, dtype=np.uint16)
_POPCOUNT = np.array([bin(m).count("1") for m in range(1024)], dtype=np.uint16)
_PARITY = (_POPCOUNT & 1).astype(np.uint8)
TURN_OF_PARITY = (TURN_RIGHT, TURN_LEFT)  # indexed by match-count parity
_PARITY_OF_LABEL = {label: parity for parity, label in enumerate(TURN_OF_PARITY)}
_LABEL_BYTES = np.frombuffer("".join(TURN_OF_PARITY).encode(), np.uint8)  # by parity
del _DIVISORS, _CHUNK_DIGITS, _d, _r


def classify_block(numbers: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Digit masks and match masks of an int64 array of 1..MAX_INT.

    A number qualifies when its match mask (its digits that divide it) is
    nonzero; its turn is L when the mask has an odd number of bits, else R.
    The digit 0 is in a digit mask but in no match mask.
    """
    rest, chunk = np.divmod(numbers, 1000)
    np.add(chunk, 1000, out=chunk, where=rest != 0)  # a chunk below the top
    digits = _CHUNK_MASKS[chunk]
    while np.count_nonzero(rest):
        rest, chunk = np.divmod(rest, 1000)
        np.add(chunk, 1000, out=chunk, where=rest != 0)
        digits |= _CHUNK_MASKS[chunk]
    return digits, digits & _DIVISOR_MASKS[numbers % 2520]


# Counting needs no scan: whether n qualifies depends only on n mod 2520 and
# the set of its digits, so the qualifying n <= limit are counted digit by
# digit (the (mod 2520, digit set) DP of Codeforces 55D "Beautiful numbers").
# The digit 1 divides everything, so once a prefix holds a 1 every completion
# qualifies, and the tables track digit sets of 2..9 only: 256 columns, bit
# d - 2 for the digit d. _SUFFIX_COUNTS[k - 1][x // gcd(10^k, 2520), mask]
# counts the k-digit suffixes s (leading zeros allowed) for which x + s
# qualifies with the digits of mask added to its own. A prefix before k free
# digits is a multiple of 10^k, so x is a multiple of that gcd: 252, 126 and
# then 63 rows. The tables are built as far as a limit needs and kept.
COUNT_CHECK_LIMIT = 10**6  # count_and_density checks the DP by a scan up to here
_SET_DIVISORS = (_DIVISOR_MASKS >> 2).astype(np.uint8)  # divisors in 2..9, bit d - 2 for d
_DIGIT_BITS = (0, 0) + tuple(1 << d - 2 for d in range(2, 10))
_SUFFIX_COUNTS: List[np.ndarray] = []


def _suffix_counts(k: int) -> np.ndarray:
    """The count table for k free digits, 1 <= k <= 18."""
    masks = np.arange(256, dtype=np.uint8)
    while len(_SUFFIX_COUNTS) < k:
        free = len(_SUFFIX_COUNTS)  # the new table puts one digit before `free` digits
        step = 10**free
        x = np.arange(0, 2520, gcd(10 * step, 2520))
        # counts reach 10 * step; the narrowest type that holds them keeps the
        # tables small (160 KB for limits below 10^5)
        total = np.full((x.size, 256), step, dtype=np.min_scalar_type(10 * step))
        for d in (0, 2, 3, 4, 5, 6, 7, 8, 9):  # total starts with the digit 1's count
            after, seen = (x + d * step) % 2520, masks | _DIGIT_BITS[d]
            if free:
                total += np.take(_SUFFIX_COUNTS[-1][after // gcd(step, 2520)], seen, axis=1)
            else:
                total += (_SET_DIVISORS[after, None] & seen) != 0
        _SUFFIX_COUNTS.append(total)
    return _SUFFIX_COUNTS[k - 1]


def count_patterned(limit: int) -> int:
    """Number of qualifying n <= limit, exactly, for any limit up to MAX_INT.

    Walks the digits of limit from the top; each smaller digit at a place
    with k digits after it adds one table count of its completions, at most
    nine lookups per digit.
    """
    check_int(limit, "limit")
    places = str(limit)
    count, prefix, seen, has_one = 0, 0, 0, False
    for k in range(len(places) - 1, -1, -1):
        top = int(places[-k - 1])
        step = 10**k
        table = _suffix_counts(k) if k else None
        for d in range(top + (k == 0)):  # the last place also counts limit itself
            if has_one or d == 1:
                count += step
            elif k:
                row = (prefix * 10 + d) * step % 2520 // gcd(step, 2520)
                count += int(table[row, seen | _DIGIT_BITS[d]])
            else:
                count += bool((seen | _DIGIT_BITS[d]) & _SET_DIVISORS[(prefix * 10 + d) % 2520])
        prefix = (prefix * 10 + top) % 2520
        seen |= _DIGIT_BITS[top]
        has_one = has_one or top == 1
    return count


def _member_blocks(limit: int) -> Iterator[Tuple[np.ndarray, ...]]:
    """(numbers, digit masks, match masks) of the qualifying n <= limit."""
    low, size = 1, BLOCK_FIRST
    while low <= limit:
        high = min(low + size - 1, limit)
        numbers = np.arange(low, high + 1, dtype=np.int64)
        digits, matches = classify_block(numbers)
        keep = matches != 0
        yield numbers[keep], digits[keep], matches[keep]
        low, size = high + 1, min(4 * size, BLOCK_MAX)


def _mask_set(mask: int) -> frozenset:
    return frozenset(d for d in range(10) if mask >> d & 1)


def profile(n: int) -> DigitDivisorProfile:
    """Classify n and report every intermediate quantity.

    The digit 0 can never witness the property (nothing is divisible by 0),
    so matches are always drawn from 1..9.
    """
    check_int(n, "n")
    digits, matches = (int(m[0]) for m in classify_block(np.array([n], dtype=np.int64)))
    count = bin(matches).count("1")
    return DigitDivisorProfile(
        n=n,
        digits=_mask_set(digits),
        small_divisors=_mask_set(int(_DIVISOR_MASKS[n % 2520])),
        matches=_mask_set(matches),
        match_count=count,
        is_patterned=count > 0,
        turn=TURN_OF_PARITY[count % 2] if count else None,
    )


def profile_blocks(limit: int) -> Iterator[Tuple[np.ndarray, ...]]:
    """(numbers, digit masks, divisor masks, match masks) of the
    qualifying n <= limit, one block at a time: :func:`profile` as masks.
    ``limit`` is checked at the call, the blocks are made as they are read."""
    check_int(limit, "limit")
    return (
        (numbers, digits, _DIVISOR_MASKS[numbers % 2520], matches)
        for numbers, digits, matches in _member_blocks(limit)
    )


def is_patterned_digit_first(n: int) -> bool:
    """Predicate via a scan over the digits of n (arithmetic extraction)."""
    check_int(n, "n")
    m = n
    while m:
        m, d = divmod(m, 10)
        if d and n % d == 0:
            return True
    return False


def is_patterned_divisor_first(n: int) -> bool:
    """Predicate via a scan over candidate divisors 1..9 (string digits).

    Deliberately shares no logic with :func:`is_patterned_digit_first` or the
    block classifier; the three exist so exhaustive cross-checks can treat
    one as an oracle for the others.
    """
    check_int(n, "n")
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


def prime_array(limit: int) -> np.ndarray:
    """Sieve of Eratosthenes on a bool array; all primes <= limit, ascending, as int64."""
    check_int(limit, "limit", cap=MAX_PRIMES_LIMIT)
    try:
        sieve = np.ones(limit + 1, dtype=bool)
        sieve[:2] = False
        for i in range(2, isqrt(limit) + 1):
            if sieve[i]:
                sieve[i * i :: i] = False
        return np.flatnonzero(sieve)
    except MemoryError:
        raise MemoryError(f"the sieve up to limit {limit} does not fit in memory") from None


def primes_up_to(limit: int) -> list:
    """All primes <= limit in ascending order, as a list: :func:`prime_array`."""
    return prime_array(limit).tolist()


def is_patterned_prime(p: int, assume_prime: bool = False) -> bool:
    """Closed-form predicate for primes: p <= 9, or p contains the digit 1.

    No divisor search is performed. Unless ``assume_prime`` is set, p is
    verified to be prime first (callers iterating over a sieve should set it
    and skip the redundant check).
    """
    check_int(p, "p")
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


def scan_members(limit: Optional[int] = None, k: Optional[int] = None) -> Members:
    """The qualifying numbers <= limit or, without a limit, the first k, for k
    up to MAX_MEMBERS."""
    if limit is not None:
        check_int(limit, "limit")
    else:
        check_int(k, "k", cap=MAX_MEMBERS)
    numbers, matches, found = [], [], 0
    for block, _, block_matches in _member_blocks(limit or MAX_INT):
        numbers.append(block)
        matches.append(block_matches)
        found += block.size
        if limit is None and found >= k:
            break
    return Members(np.concatenate(numbers)[:k], np.concatenate(matches)[:k])


def turn_parity(turns: Iterable[str]) -> np.ndarray:
    """The parity of a turn word, read-only: the one way labels enter. A 1-D uint8
    array of 0s and 1s is a parity array and is copied; anything else is read as
    "L"/"R" labels, a str or any iterable, so a byte string's letters fail."""
    if (isinstance(turns, np.ndarray) and turns.ndim == 1 and turns.dtype == np.uint8
            and not (turns.size and turns.max() > 1)):
        parity = turns.copy()
    else:
        labels = tuple(turns)
        try:
            parity = np.fromiter(map(_PARITY_OF_LABEL.get, labels, repeat(2)), np.uint8,
                                 len(labels))
        except TypeError:  # an unhashable label; only a str can be "L" or "R"
            parity = np.array([_PARITY_OF_LABEL.get(x, 2) if isinstance(x, str) else 2
                               for x in labels], np.uint8)
        if len(labels) and parity.max() > 1:  # 2 marks a label that is neither; argmax the first
            raise ValueError(f"turn label must be 'L' or 'R', got {labels[parity.argmax()]!r}")
    parity.flags.writeable = False
    return parity


def turn_labels(parity: np.ndarray) -> List[str]:
    """The labels of a parity array, by ``TURN_OF_PARITY``: the one way labels leave."""
    return list(_LABEL_BYTES[parity].tobytes().decode())


def patterned_sequence(limit: int) -> list:
    """All qualifying n <= limit, ascending."""
    return scan_members(limit=limit).numbers.tolist()


def turn_sequence(k: int) -> list:
    """Turn labels of the first k qualifying numbers."""
    return turn_labels(scan_members(k=k).turns)


def count_and_density(limit: int) -> DensityReport:
    """Count qualifying numbers <= limit and their density.

    The count is the digit DP's. On every call the DP is checked against the
    block classifier's scan up to min(limit, COUNT_CHECK_LIMIT); the two share
    only the divisor table, so disagreement is a bug and raises
    :class:`InvariantError`.
    """
    count = count_patterned(limit)
    checked = min(limit, COUNT_CHECK_LIMIT)
    expected = count if checked == limit else count_patterned(checked)
    scanned = sum(block[0].size for block in _member_blocks(checked))
    if expected != scanned:
        raise InvariantError(
            f"predicate implementations disagree at limit {checked}: {expected} vs {scanned}"
        )
    return DensityReport(limit=limit, count=count, density=count / limit)


def site_energies(members: Members, alpha: float = 1.0, beta: float = 0.5) -> List[float]:
    """Site energies along a :class:`Members` scan.

    Each member's energy is alpha * match_count, plus beta when its turn
    repeats the turn of the member before it (a straight run of identical
    turns, used as a curvature proxy); the first member has no predecessor.
    """
    for name, value in (("alpha", alpha), ("beta", beta)):
        if not (value == value and abs(value) != float("inf")):
            raise ValueError(f"{name} must be finite, got {value}")
    counts, parity = _POPCOUNT[members.matches], members.turns
    # the parity of the turn before each member; 2, matching none, for the first
    before = np.concatenate(([2], parity[:-1]))
    with np.errstate(over="ignore"):  # as in float arithmetic, a sum past the range is inf
        energies = float(alpha) * counts + float(beta) * (parity == before)
    return energies.tolist()
