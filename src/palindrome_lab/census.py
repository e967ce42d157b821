"""Square-free censuses over palindrome sets.

The central identity (a Mobius inversion): the number of square-free
restricted palindromes <= x equals

    sum over d <= sqrt(x), gcd(d, b^3-b) = 1 of mu(d) * #{n palindromic,
    restricted, <= x, d^2 | n}

which this module evaluates by two routes in one pass over the palindromes
(a square-free test per element, and an explicit sum of mu over its square
divisors) so that each run cross-checks the other. The censuses take their
palindromes as numpy batches (streams.batches_up_to): the first route tests
a whole batch with arith.squarefree_mask, the second runs
_square_divisor_mobius_sum on each element. Below 2**63 the two share only
arith's prime table; the second route's own trial division, cube-root bound
(arith._icbrt) and cofactor test (arith._cofactor_exponents) are not used by
the mask. Values of 2**63 and above go through arith.is_squarefree, which
shares all three. ROADMAP item 3 replaces the second route with a residue
count that shares none of this.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

import numpy as np

from . import arith
from .digits import is_palindrome
from .parallel import map_in_order
from .streams import batches_fixed_length, batches_up_to, count_up_to

ZETA2_INV = 6 / math.pi**2

# residue histograms larger than this are refused
_DISCREPANCY_CELL_LIMIT = 10**7


@dataclass(frozen=True)
class CensusRecord:
    """One row of a square-free census."""

    base: int
    scope_kind: str  # "up_to" | "fixed_length"
    scope: int
    restricted: bool
    total: int
    squarefree: int
    ratio: float
    predicted: float
    abs_error: float


def density_constant(b: int) -> tuple[float, Fraction]:
    """Predicted square-free density among restricted palindromes.

    Returns (value, R) where value = (6/pi^2) * R and R is the exact rational
    product of p^2/(p^2-1) over the primes dividing b^3 - b.
    """
    if b < 2:
        raise ValueError("base must be >= 2")
    r = Fraction(1)
    for p in arith.factorize(b**3 - b):
        r *= Fraction(p * p, p * p - 1)
    return ZETA2_INV * float(r), r


def q_star_direct(b: int, x: int) -> int:
    """#(square-free restricted palindromes <= x), by the batch square-free
    test."""
    return census_up_to(b, x, check_identity=False).squarefree


def _square_divisor_mobius_sum(n: int) -> int:
    """sum of mu(d) over all d with d^2 | n, via the square part of n."""
    if n < 4:
        return 1
    # count the primes of s = prod p^floor(a_p/2); d^2 | n iff d | s
    square_primes = 0
    m = n
    for p in arith._primes_at_least(min(arith._icbrt(n) + 1, 10**6)):
        if p * p * p > n:
            break
        if m % p == 0:
            a = 1
            m //= p
            while m % p == 0:
                a += 1
                m //= p
            if a >= 2:
                square_primes += 1
    if m > 1:
        # a square cofactor counts once even if its root is composite; the
        # sum below only tells s = 1 from s > 1
        square_primes += sum(1 for e in arith._cofactor_exponents(m, count_primes=False)
                             if e >= 2)
    # mu vanishes off squarefree d, so sum over subsets of the primes of s
    return sum((-1) ** k * math.comb(square_primes, k) for k in range(square_primes + 1))


def q_star_mobius(b: int, x: int) -> int:
    """Same census as q_star_direct, evaluated through the Mobius identity:
    each palindrome contributes sum of mu(d) over its square
    divisors d^2 | n. Must agree with q_star_direct exactly."""
    return sum(_square_divisor_mobius_sum(n) for batch in batches_up_to(b, x, True)
               for n in batch.tolist())


def _census(b: int, batches, restricted: bool, scope_kind: str, scope: int,
            predicted: float, check_identity: bool) -> CensusRecord:
    """Count palindrome batches in one pass: their total, their square-free
    members and, with check_identity, the Mobius sum that must equal the
    latter."""
    total = squarefree = via_mobius = 0
    for batch in batches:
        total += len(batch)
        squarefree += int(np.count_nonzero(arith.squarefree_mask(batch)))
        if check_identity:
            via_mobius += sum(map(_square_divisor_mobius_sum, batch.tolist()))
    if check_identity and via_mobius != squarefree:
        raise ArithmeticError(
            f"mobius census identity failed at b={b}, x={scope}: "
            f"direct={squarefree} mobius={via_mobius}"
        )
    ratio = squarefree / total if total else 0.0
    return CensusRecord(
        base=b,
        scope_kind=scope_kind,
        scope=scope,
        restricted=restricted,
        total=total,
        squarefree=squarefree,
        ratio=ratio,
        predicted=predicted,
        abs_error=abs(ratio - predicted),
    )


def census_up_to(b: int, x: int, threads: int = 1, check_identity: bool = True) -> CensusRecord:
    """Restricted census at x with the predicted density and its error.

    With check_identity the Mobius route is evaluated in the same pass and
    must agree exactly, else ArithmeticError. threads is accepted for
    compatibility and ignored: the census is serial.
    """
    return _census(b, batches_up_to(b, x, True), True, "up_to", x,
                   density_constant(b)[0], check_identity)


def q_fixed_length(b: int, n_digits: int) -> CensusRecord:
    """Unrestricted fixed-length census against the 1/zeta(2) density."""
    return _census(b, batches_fixed_length(b, n_digits, False), False, "fixed_length",
                   n_digits, ZETA2_INV, False)


# ---------------------------------------------------------------------------
# palindromes with a square divisor in a dyadic range
# ---------------------------------------------------------------------------

def _s_b_stream(b: int, x: int, d_lo: int, d_hi: int) -> int:
    squares = [d * d for d in range(d_lo, d_hi + 1) if d * d <= x]
    if not squares:
        return 0
    count = 0
    for batch in batches_up_to(b, x, True):
        hit = np.zeros(len(batch), dtype=bool)
        for dd in squares:
            hit |= batch % dd == 0
        count += int(np.count_nonzero(hit))
    return count


def _s_b_multiples(b: int, x: int, d_lo: int, d_hi: int) -> int:
    coprime_to = b**3 - b
    runs = []
    for d in range(d_lo, d_hi + 1):
        dd = d * d
        if dd > x:
            break
        hits = []
        for n in range(dd, x + 1, dd):
            if n % b and gcd(n, coprime_to) == 1 and is_palindrome(n, b):
                hits.append(n)
        if hits:
            runs.append(hits)
    # deduplicate by sorted merge: one n may have several qualifying d
    count = 0
    previous = None
    for n in heapq.merge(*runs):
        if n != previous:
            count += 1
            previous = n
    return count


def s_b_costs(b: int, x: int, d_dyadic: int) -> tuple[int, int]:
    """Probe counts of the two S_b strategies, (stream, multiples): every
    palindrome <= x against each of the D + 1 squares, and every multiple of
    each d^2 <= x."""
    cost_stream = count_up_to(b, x) * (d_dyadic + 1)
    cost_multiples = sum(x // (d * d) + 1 for d in range(d_dyadic, 2 * d_dyadic + 1)
                         if d * d <= x)
    return cost_stream, cost_multiples


def s_b(b: int, x: int, d_dyadic: int, strategy: str = "auto") -> int:
    """#(restricted palindromes <= x divisible by d^2 for some d in
    [D, 2D]); each n counted once.

    strategy "stream" scans palindromes and tests each square (cost about
    sqrt(x) * D); "multiples" walks multiples of each d^2 (cost about x/D);
    "auto" picks the cheaper, "both" runs the two and insists they agree.
    """
    if x < 1 or d_dyadic < 1:
        raise ValueError("x and D must be >= 1")
    d_lo, d_hi = d_dyadic, 2 * d_dyadic
    if strategy == "auto":
        cost_stream, cost_multiples = s_b_costs(b, x, d_dyadic)
        strategy = "stream" if cost_stream < cost_multiples else "multiples"
    if strategy == "stream":
        return _s_b_stream(b, x, d_lo, d_hi)
    if strategy == "multiples":
        return _s_b_multiples(b, x, d_lo, d_hi)
    if strategy == "both":
        via_stream = _s_b_stream(b, x, d_lo, d_hi)
        via_multiples = _s_b_multiples(b, x, d_lo, d_hi)
        if via_stream != via_multiples:
            raise ArithmeticError(
                f"s_b strategies disagree at b={b}, x={x}, D={d_dyadic}: "
                f"stream={via_stream} multiples={via_multiples}"
            )
        return via_stream
    raise ValueError(f"unknown strategy {strategy!r}")


# ---------------------------------------------------------------------------
# equidistribution in residue classes mod d^2
# ---------------------------------------------------------------------------

def equidistribution_discrepancy(b: int, x: int, d_max: int, threads: int = 1) -> float:
    """sum over squarefree d <= d_max coprime to b^3 - b of

        sup_{y <= x} max_a | #{n <= y : n = a mod d^2} - #{n <= y} / d^2 |

    over restricted palindromes n. The counting function is a step function,
    so the supremum is realized at palindrome breakpoints; deviations are
    tracked as exact integers scaled by d^2. threads is accepted for
    compatibility and ignored.
    """
    if d_max < 1:
        raise ValueError("d_max must be >= 1")
    if d_max * d_max > x:
        raise ValueError("d_max must be <= sqrt(x)")
    coprime_to = b**3 - b
    eligible = [
        d
        for d in range(2, d_max + 1)
        if gcd(d, coprime_to) == 1 and arith.is_squarefree(d)
    ]
    for d in eligible:
        if d * d > _DISCREPANCY_CELL_LIMIT:
            raise MemoryError(f"residue histogram of size {d*d} exceeds the budget")
    pals = np.concatenate(list(batches_up_to(b, x, True)))  # holds 1, so never empty

    def worst_for(d: int) -> Fraction:
        # counts only grow by one, so the largest count is tracked as it
        # grows and the smallest through the number of cells holding it
        dd = d * d
        counts = [0] * dd
        top = low = 0
        at_low = dd
        best_scaled = 0  # max over breakpoints of dd*|count_a - seen/dd|
        for seen, residue in enumerate((pals % dd).tolist(), 1):
            c = counts[residue] + 1
            counts[residue] = c
            if c > top:
                top = c
            if c == low + 1:
                at_low -= 1
                if at_low == 0:
                    low = c
                    at_low = counts.count(low)
            hi = top * dd - seen
            lo = seen - low * dd
            step_best = hi if hi > lo else lo
            if step_best > best_scaled:
                best_scaled = step_best
        return Fraction(best_scaled, dd)

    worsts = map_in_order(worst_for, eligible)
    return float(sum(worsts, Fraction(0)))
