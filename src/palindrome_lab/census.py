"""Square-free censuses over palindrome sets.

The central identity (a Mobius inversion): the number of square-free
restricted palindromes <= x equals

    sum over d <= sqrt(x), gcd(d, b^3-b) = 1 of mu(d) * N_d(x),
    N_d(x) = #{n palindromic, restricted, <= x, d^2 | n}.

A checked census counts the left side and evaluates the right side in one
pass over the palindromes, which come as numpy batches
(streams.batches_up_to); the two must agree exactly. The left side is
arith.squarefree_mask on each batch. The right side splits d at a crossover
D, as the paper's argument does: each d <= D counts the multiples of d^2 in
every batch, and each d > D walks the restricted multiples m*d^2 <= x and
keeps the palindromes among them. D balances the two costs, about
#palindromes * D residue tests against x / D walked multiples. mu comes
from a sieve of this module and the palindromes of the walk from a digit
test of its own, so the right side shares no code with arith's square-free
test. The walk runs in int64, so a checked census needs x < 2**63.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

import numpy as np

from . import arith
from .digits import is_palindrome  # noqa: F401  (perfbench's recorder wraps this name)
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
    for p in _restricting_primes(b):
        r *= Fraction(p * p, p * p - 1)
    return ZETA2_INV * float(r), r


def q_star_direct(b: int, x: int) -> int:
    """#(square-free restricted palindromes <= x), by the batch square-free
    test."""
    return census_up_to(b, x, check_identity=False).squarefree


def q_star_mobius(b: int, x: int) -> int:
    """Same census as q_star_direct, evaluated through the Mobius identity
    alone (see the module docstring). Must agree with q_star_direct exactly."""
    d_split, squares, mu = _mobius_plan(b, x)
    return (sum(_mobius_multiples(batch, squares, mu) for batch in batches_up_to(b, x, True))
            + _mobius_walk(b, x, d_split))


def _census(b: int, batches, restricted: bool, scope_kind: str, scope: int,
            predicted: float, check_identity: bool) -> CensusRecord:
    """Count palindrome batches in one pass: their total, their square-free
    members and, with check_identity, the Mobius sum that must equal the
    latter (scope is then the cutoff x)."""
    if check_identity:
        d_split, squares, mu = _mobius_plan(b, scope)
    total = squarefree = via_mobius = 0
    for batch in batches:
        total += len(batch)
        squarefree += int(np.count_nonzero(arith.squarefree_mask(batch)))
        if check_identity:
            via_mobius += _mobius_multiples(batch, squares, mu)
    if check_identity:
        via_mobius += _mobius_walk(b, scope, d_split)
        if via_mobius != squarefree:
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
    must agree exactly, else ArithmeticError; it needs x < 2**63, else
    OverflowError before the pass. threads is accepted for compatibility and
    ignored: the census is serial.
    """
    return _census(b, batches_up_to(b, x, True), True, "up_to", x,
                   density_constant(b)[0], check_identity)


def q_fixed_length(b: int, n_digits: int) -> CensusRecord:
    """Unrestricted fixed-length census against the 1/zeta(2) density."""
    return _census(b, batches_fixed_length(b, n_digits, False), False, "fixed_length",
                   n_digits, ZETA2_INV, False)


# ---------------------------------------------------------------------------
# the Mobius side: multiples of d^2 by residues and by walks
# ---------------------------------------------------------------------------

_INT64_LIMIT = 1 << 63

# The (palindrome, d^2) pairs of one 2-D residue block, and the multiples
# (and the d of one mu segment) of one walk block. A walk block keeps a few
# arrays of its size alive at once, so it is the smaller. At these sizes
# the peak memory of a census-scan pass is still set by the prime tables
# of its wide square-free tests.
_RESIDUE_BLOCK = 1 << 16
_WALK_BLOCK = 1 << 14

# The weight of one walked multiple against one residue test in the
# crossover model. On a 2-core x86 host a residue test took 8-9 ns and a
# walked multiple 31-40 ns in base 10 and 75 ns in base 2 (whose palindrome
# test compares more digit pairs); the weight also takes in that the model
# counts every palindrome, not only the restricted ones, and every m, not
# only those coprime to b^3 - b. Weights from 4 to 9 timed within 10% of
# each other in bases 2, 3, 7 and 10.
_WALK_COST = 6


def _primes(limit: int) -> np.ndarray:
    """The primes <= limit, by the sieve of Eratosthenes."""
    sieve = np.ones(limit + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    return np.flatnonzero(sieve)


def _restricting_primes(b: int) -> list[int]:
    """The primes of b^3 - b = (b - 1) * b * (b + 1); none exceeds b + 1."""
    return [p for p in _primes(b + 1).tolist() if (b**3 - b) % p == 0]


def _squarefree_coprime(b: int, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """The d in [lo, hi) with mu(d) != 0 and gcd(d, b^3 - b) = 1, with mu(d).

    A sieve of the segment: each prime p <= sqrt(hi) flips the sign of mu on
    its multiples and clears it on those of p^2. A square-free d whose small
    primes multiply to less than d has one prime factor above sqrt(hi).
    """
    d = np.arange(lo, hi, dtype=np.int64)
    mu = np.ones(len(d), dtype=np.int64)
    small_part = np.ones(len(d), dtype=np.int64)
    for p in _primes(isqrt(hi - 1)).tolist():
        mu[-lo % p :: p] *= -1
        small_part[-lo % p :: p] *= p
        mu[-lo % (p * p) :: p * p] = 0
    mu[small_part < d] *= -1
    for p in _restricting_primes(b):
        mu[-lo % p :: p] = 0
    keep = np.flatnonzero(mu)
    return d[keep], mu[keep]


def _mobius_plan(b: int, x: int) -> tuple[int, np.ndarray, np.ndarray]:
    """The crossover D for x, and d^2 and mu(d) for the d <= D of the
    Mobius sum.

    About #palindromes * D residue tests count the d <= D and about x / D
    walked multiples the d > D (both times the same density of eligible d),
    so D = sqrt(_WALK_COST * x / #palindromes) balances them.
    """
    if x >= _INT64_LIMIT:
        raise OverflowError(f"the Mobius route needs x < 2**63, got {x}")
    d_split = min(isqrt(_WALK_COST * x // max(count_up_to(b, x), 1)), isqrt(x))
    d, mu = _squarefree_coprime(b, 1, d_split + 1)
    return d_split, d * d, mu


def _mobius_multiples(batch: np.ndarray, squares: np.ndarray, mu: np.ndarray) -> int:
    """sum of mu[j] * #{n in batch : squares[j] | n}, by 2-D residue blocks."""
    step = max(1, _RESIDUE_BLOCK // len(batch))
    out = 0
    for start in range(0, len(squares), step):
        divides = batch[:, None] % squares[None, start : start + step] == 0
        out += int(np.count_nonzero(divides, axis=0) @ mu[start : start + step])
    return out


def _mobius_walk(b: int, x: int, d_split: int) -> int:
    """sum of mu(d) * N_d(x) over the d in (d_split, sqrt(x)], by walking
    the restricted multiples of each d^2 a segment of d at a time."""
    out = 0
    for lo in range(d_split + 1, isqrt(x) + 1, _WALK_BLOCK):
        d, mu = _squarefree_coprime(b, lo, min(lo + _WALK_BLOCK, isqrt(x) + 1))
        for rows, values in _restricted_multiples(b, x, d * d):
            out += int(mu[rows[_palindrome_mask(values, b)]].sum())
    return out


def _restricted_multiples(b: int, x: int, squares: np.ndarray):
    """The multiples m * s <= x of each s in squares with m coprime to
    b^3 - b, in blocks of at most _WALK_BLOCK: pairs (rows, values) where
    values[i] is a multiple of squares[rows[i]].

    The m coprime to b^3 - b are q*r + u, where r is the product of the
    primes of b^3 - b and u runs over the units mod r; so m is computed
    from its index among them, and no block holds more than its share of a
    row.
    """
    if x >= _INT64_LIMIT:
        raise OverflowError(f"the multiples walk needs x < 2**63, got {x}")
    r = math.prod(_restricting_primes(b))
    units = np.flatnonzero(np.gcd(np.arange(r), r) == 1)
    last = x // squares  # the largest m of each row
    counts = last // r * len(units) + np.searchsorted(units, last % r, side="right")
    ends = np.cumsum(counts)
    starts = ends - counts
    total = int(ends[-1]) if len(ends) else 0
    for s in range(0, total, _WALK_BLOCK):
        e = min(s + _WALK_BLOCK, total)
        i0 = int(np.searchsorted(ends, s, side="right"))
        i1 = int(np.searchsorted(ends, e - 1, side="right")) + 1
        rows = np.repeat(np.arange(i0, i1),
                         np.minimum(ends[i0:i1], e) - np.maximum(starts[i0:i1], s))
        # in place, so that few block-sized arrays are alive at once
        index = np.arange(s, e)
        index -= starts[rows]
        m = index // len(units)
        index -= m * len(units)
        m *= r
        m += units[index]
        del index
        m *= squares[rows]
        yield rows, m


def _palindrome_mask(values: np.ndarray, b: int) -> np.ndarray:
    """digits.is_palindrome over an int64 array, as a boolean array.

    Digit pairs are compared from the outside in, each round on the values
    still in the running: top and low are the places of the next pair, and a
    value whose places have met or crossed has matched every pair.
    """
    places = [1]  # b**k for every k with b**k < 2**63
    while places[-1] * b < _INT64_LIMIT:
        places.append(places[-1] * b)
    places = np.array(places, dtype=np.int64)
    out = np.zeros(len(values), dtype=bool)
    top = places[np.searchsorted(places, values, side="right") - 1]
    # the leading digit is never 0, so matching it also rules out b | n
    left = np.flatnonzero((values // top == values % b) & (values > 0))
    v, top, low = values[left], top[left] // b, b
    while len(left):
        done = top <= low
        if done.any():
            out[left[done]] = True
            live = np.flatnonzero(~done)
            left, v, top = left[live], v[live], top[live]
        same = np.flatnonzero(v // top % b == v // low % b)
        left, v, top = left[same], v[same], top[same] // b
        low *= b
    return out


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
    hits = []
    d_top = min(d_hi, isqrt(x))
    for lo in range(d_lo, d_top + 1, _WALK_BLOCK):
        d = np.arange(lo, min(lo + _WALK_BLOCK, d_top + 1), dtype=np.int64)
        # a d sharing a prime with b^3 - b has no restricted multiple of d^2
        d = d[np.gcd(d, b**3 - b) == 1]
        hits += [values[_palindrome_mask(values, b)]
                 for _, values in _restricted_multiples(b, x, d * d)]
    # one n may have several qualifying d
    return len(np.unique(np.concatenate(hits))) if hits else 0


def s_b_costs(b: int, x: int, d_dyadic: int) -> tuple[int, int]:
    """Probe counts of the two S_b strategies, (stream, multiples): every
    palindrome <= x against each of the D + 1 squares, and every multiple of
    each d^2 <= x (an upper bound for the walk, which visits only the
    restricted ones)."""
    cost_stream = count_up_to(b, x) * (d_dyadic + 1)
    cost_multiples = sum(x // (d * d) + 1 for d in range(d_dyadic, 2 * d_dyadic + 1)
                         if d * d <= x)
    return cost_stream, cost_multiples


def s_b(b: int, x: int, d_dyadic: int, strategy: str) -> int:
    """#(restricted palindromes <= x divisible by d^2 for some d in
    [D, 2D]); each n counted once.

    strategy "stream" scans palindromes and tests each square (cost about
    sqrt(x) * D); "multiples" walks the restricted multiples of each d^2 in
    int64 blocks and keeps those that the vectorized palindrome test of the
    Mobius route accepts (cost about x/D; x < 2**63, else OverflowError);
    "both" runs the two and insists they agree.
    """
    if x < 1 or d_dyadic < 1:
        raise ValueError("x and D must be >= 1")
    d_lo, d_hi = d_dyadic, 2 * d_dyadic
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
    eligible = _squarefree_coprime(b, 2, d_max + 1)[0].tolist()
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
