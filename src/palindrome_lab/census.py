"""Square-free censuses over palindrome sets.

The central identity (a Mobius inversion): the number of square-free
restricted palindromes <= x equals

    sum over d <= sqrt(x), gcd(d, b^3-b) = 1 of mu(d) * N_d(x),
    N_d(x) = #{n palindromic, restricted, <= x, d^2 | n}.

A checked census counts the left side and evaluates the right side, and the
two must agree exactly, as must the two counts of the palindromes. The left
side is arith.squarefree_grid on the digit-weight grids of the palindromes
(streams.grids_up_to). The right side finds, for each d <= sqrt(x), d = 1
included, the palindromes among the multiples n = m * d^2 of each odd
length N (_palindrome_multiples); N_1 is the second count of the
palindromes. This is the step of Cilleruelo, Luca and Shparlinski that fixes
the end digits: the first k digits H of n fix its last k, so m is one
residue mod b**k, rev_k(H) / d^2, in the range of the n that start with H.
With b**k near b**(N/2) / d each d costs about 2 * b**(N/2) / d tops and
candidates, and the whole about sqrt(x) * log(x). mu comes from a sieve of
this module and the palindromes from a digit test of its own: the right
side shares no code with arith's square-free test nor with the grids, and
cuts at x by value. It needs x < 2**63.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

import numpy as np

from . import arith
from .digits import _check_base
from .digits import is_palindrome  # noqa: F401  (perfbench's recorder wraps this name)
from .parallel import map_in_order
from .streams import batches_up_to, count_up_to, grids_fixed_length, grids_up_to

ZETA2_INV = 6 / math.pi**2


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
    _check_base(b)
    r = Fraction(1)
    for p in _restricting_primes(b):
        r *= Fraction(p * p, p * p - 1)
    return ZETA2_INV * float(r), r


def q_star_direct(b: int, x: int) -> int:
    """#(square-free restricted palindromes <= x), by the square-free kernel
    on the palindrome grids."""
    return census_up_to(b, x, check_identity=False).squarefree


def q_star_mobius(b: int, x: int) -> int:
    """Same census as q_star_direct, evaluated through the Mobius identity
    alone (see the module docstring). Must agree with q_star_direct exactly."""
    return _mobius_census(b, x)[1]


def _mobius_census(b: int, x: int) -> tuple[int, int]:
    """(#restricted palindromes <= x, the Mobius sum): mu(d) * N_d(x) summed
    over segments of the d <= sqrt(x) from d = 1, whose N_1 is the count."""
    _check_base(b)
    if x < 1:
        raise ValueError("x must be >= 1")
    if x >= _INT64_LIMIT:
        raise OverflowError(f"the Mobius route needs x < 2**63, got {x}")
    total = out = 0
    for lo in range(1, isqrt(x) + 1, _BLOCK):
        d, mu = _squarefree_coprime(b, lo, min(lo + _BLOCK, isqrt(x) + 1))
        for rows, _ in _palindrome_multiples(b, 1, x, d):
            total += int(np.count_nonzero(d[rows] == 1))
            out += int(mu[rows].sum())
    return total, out


def _census(b: int, grids, restricted: bool, scope_kind: str, scope: int,
            predicted: float) -> CensusRecord:
    """Count the palindromes of the grids and their square-free members."""
    coprime_to = b**3 - b if restricted else 1
    total = squarefree = 0
    for high, low, keep in grids:
        mask = arith.squarefree_grid(high, low, coprime_to)
        if keep is None:
            total += len(mask)
        else:
            mask &= keep
            total += int(np.count_nonzero(keep))
        squarefree += int(np.count_nonzero(mask))
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

    With check_identity the Mobius route counts the palindromes and their
    square-free members again, and both counts must agree exactly, else
    ArithmeticError; it needs x < 2**63, else OverflowError before the
    count. threads is accepted for compatibility and ignored: the census is
    serial.
    """
    if check_identity:
        summed, via_mobius = _mobius_census(b, x)
    rec = _census(b, grids_up_to(b, x, True), True, "up_to", x, density_constant(b)[0])
    if check_identity:
        if summed != rec.total:
            raise ArithmeticError(
                f"palindrome counts disagree at b={b}, x={x}: "
                f"grids={rec.total} mobius={summed}"
            )
        if via_mobius != rec.squarefree:
            raise ArithmeticError(
                f"mobius census identity failed at b={b}, x={x}: "
                f"direct={rec.squarefree} mobius={via_mobius}"
            )
    return rec


def q_fixed_length(b: int, n_digits: int) -> CensusRecord:
    """Unrestricted fixed-length census against the 1/zeta(2) density."""
    return _census(b, grids_fixed_length(b, n_digits, False), False, "fixed_length",
                   n_digits, ZETA2_INV)


# ---------------------------------------------------------------------------
# the Mobius side: the palindromes among the multiples of d^2
# ---------------------------------------------------------------------------

_INT64_LIMIT = 1 << 63

# The d of one mu segment, and the tops, the (d, top) pairs and the
# candidates of one block of the kernel, which keeps a few arrays of this
# size alive at once. At this size the peak memory of a census-scan pass is
# still set by the prime tables of its square-free tests.
_BLOCK = 1 << 14


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


def _palindrome_multiples(b: int, lo: int, hi: int, d: np.ndarray):
    """Blocks (rows, n) of the restricted palindromes n in [lo, hi] with
    d[rows]^2 | n, each (row, n) once; every d is coprime to b^3 - b, and
    d^2 <= hi < 2**63.

    Per odd length N and per d, the first k digits of n = m * d^2, its top H,
    fix its last k digits, rev_k(H), and so m = rev_k(H) * d^-2 mod b**k;
    k is set by _end_digits. Per top, the candidates are those m in the
    range of the n that start with H, and the kept n are those coprime to
    b^3 - b whose digits k .. N-1-k read the same both ways.
    """
    all_squares, primes = d * d, _restricting_primes(b)
    for n_digits in range(1, _INT64_LIMIT.bit_length(), 2):
        if b ** (n_digits - 1) > hi:
            break
        w_lo, w_hi = max(lo, b ** (n_digits - 1)), min(hi, b**n_digits - 1)
        if w_lo > w_hi:
            continue
        fits = np.flatnonzero(all_squares <= w_hi)
        ends = _end_digits(b, n_digits, all_squares[fits])
        for k in np.unique(ends).tolist():
            rows = fits[ends == k]
            squares, mod = all_squares[rows], b**k
            inverse = _inverse_squares(b, squares, k)
            for rev, low, high in _tops(b, n_digits, k, w_lo, w_hi):
                step = max(1, _BLOCK // max(len(rev), 1))
                for i in range(0, len(rows), step):
                    s = squares[i : i + step, None]
                    first = -(-low // s)
                    # no wrap: rev and the inverse are below b**k, and
                    # b**(2k) <= b**(N-1) <= hi
                    first += (inverse[i : i + step, None] * rev - first) % mod
                    count = np.maximum((high // s - first) // mod + 1, 0)
                    for pair, m in _progressions(first.ravel(), count.ravel(), mod):
                        row = i + pair // len(rev)
                        n = m * squares[row]
                        hit = np.flatnonzero(_inner_palindromes(n, b, n_digits, k))
                        for p in primes:  # a mod per prime is some 5 times cheaper than np.gcd
                            hit = hit[n[hit] % p != 0]
                        yield rows[row[hit]], n[hit]


def _end_digits(b: int, n_digits: int, squares: np.ndarray) -> np.ndarray:
    """Per d^2, the number k <= (N - 1) / 2 of end digits that makes the
    tops plus the candidates, about T_k * (1 + b**(N - 2k) / d^2), least:
    T_0 = 1, and T_k is the count of k-digit tops with a leading digit
    coprime to b. So b**k lands near b**(N/2) / d."""
    leads = sum(math.gcd(lead, b) == 1 for lead in range(1, b))
    tops = [1] + [leads * b ** (k - 1) for k in range(1, (n_digits + 1) // 2)]
    # k + 1 digits cost less than k where d^2 is below cuts[k]; the cost is
    # convex in k, so the cuts fall
    cuts = [(tops[k] * b ** (n_digits - 2 * k) - tops[k + 1] * b ** (n_digits - 2 * k - 2))
            / (tops[k + 1] - tops[k]) if tops[k + 1] > tops[k] else math.inf
            for k in range(len(tops) - 1)]
    return np.searchsorted(-np.array(cuts), -squares.astype(float))


def _inverse_squares(b: int, squares: np.ndarray, k: int) -> np.ndarray:
    """Each d^2 inverted mod b**k: Newton's step y * (2 - d^2 * y) doubles
    the digits of y from its inverse mod b; every product stays below
    b**(2k)."""
    units = np.array([pow(u, -1, b) if math.gcd(u, b) == 1 else 0 for u in range(b)])
    inverse, mod = units[squares % b], b
    while mod < b**k:
        mod = min(mod * mod, b**k)
        inverse = inverse * (2 - squares % mod * inverse % mod) % mod
    return inverse % b**k


def _tops(b: int, n_digits: int, k: int, lo: int, hi: int):
    """Blocks (rev, low, high) of the k-digit tops H of the N-digit numbers
    in [lo, hi] with a leading digit coprime to b: rev_k(H), the k digits of
    H reversed, and the range [low, high] of [lo, hi] that starts with H.
    The one top of k = 0 is empty."""
    if k == 0:
        yield np.zeros(1, dtype=np.int64), np.array([lo]), np.array([hi])
        return
    place, leads = b ** (n_digits - k), np.gcd(np.arange(b), b) == 1
    for h in range(lo // place, hi // place + 1, _BLOCK):
        top = np.arange(h, min(h + _BLOCK, hi // place + 1), dtype=np.int64)
        top = top[leads[top // b ** (k - 1)]]
        rev, rest = np.zeros_like(top), top
        for _ in range(k):
            rest, digit = np.divmod(rest, b)
            rev = rev * b + digit
        start = top * place
        # no wrap: place <= lo <= hi
        yield rev, np.maximum(start, lo), np.minimum(start, hi - place + 1) + (place - 1)


def _progressions(first: np.ndarray, count: np.ndarray, step: int):
    """Blocks (i, first[i] + j * step) over the j < count[i], of at most
    _BLOCK values each."""
    ends = np.cumsum(count)
    starts = ends - count
    total = int(ends[-1]) if len(ends) else 0
    for s in range(0, total, _BLOCK):
        e = min(s + _BLOCK, total)
        i0 = int(np.searchsorted(ends, s, side="right"))
        i1 = int(np.searchsorted(ends, e - 1, side="right")) + 1
        i = np.repeat(np.arange(i0, i1),
                      np.minimum(ends[i0:i1], e) - np.maximum(starts[i0:i1], s))
        yield i, first[i] + (np.arange(s, e) - starts[i]) * step


def _inner_palindromes(values: np.ndarray, b: int, n_digits: int, k: int) -> np.ndarray:
    """Whether the digits k .. N-1-k of each N-digit value read the same both
    ways, as a boolean array: digit j against digit N-1-j from j = k inward,
    each round on the values still in the running. At k = 0 this is
    digits.is_palindrome."""
    out = np.zeros(len(values), dtype=bool)
    left, v = np.arange(len(values)), values
    for j in range(k, n_digits // 2):
        same = np.flatnonzero(v // b**j % b == v // b ** (n_digits - 1 - j) % b)
        left, v = left[same], v[same]
    out[left] = True
    return out


# ---------------------------------------------------------------------------
# palindromes with a square divisor in a dyadic range
# ---------------------------------------------------------------------------

def _s_b_stream(b: int, x: int, d_lo: int, d_hi: int) -> int:
    squares = [d * d for d in range(d_lo, min(d_hi, isqrt(x)) + 1)]
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
    for lo in range(d_lo, d_top + 1, _BLOCK):
        d = np.arange(lo, min(lo + _BLOCK, d_top + 1), dtype=np.int64)
        # a d sharing a prime with b^3 - b has no restricted multiple of d^2
        d = d[np.gcd(d, b**3 - b) == 1]
        hits += [n for _, n in _palindrome_multiples(b, 1, x, d)]
    # one n may have several qualifying d
    return len(np.unique(np.concatenate(hits))) if hits else 0


def s_b_costs(b: int, x: int, d_dyadic: int) -> tuple[int, int]:
    """Probe counts of the two S_b strategies, (stream, multiples): every
    palindrome <= x against each of the D + 1 squares, and every multiple of
    each d^2 <= x (an upper bound on the candidates of the multiples
    strategy, a subset of those multiples)."""
    cost_stream = count_up_to(b, x) * (d_dyadic + 1)
    cost_multiples = sum(x // (d * d) + 1
                         for d in range(d_dyadic, min(2 * d_dyadic, isqrt(x)) + 1))
    return cost_stream, cost_multiples


def s_b(b: int, x: int, d_dyadic: int, strategy: str) -> int:
    """#(restricted palindromes <= x divisible by d^2 for some d in
    [D, 2D]); each n counted once.

    strategy "stream" scans palindromes and tests each square (cost about
    sqrt(x) * D); "multiples" finds the palindromes among the multiples of
    each d^2 by the kernel of the Mobius route, which fixes their end digits
    (cost about sqrt(x) per length; x < 2**63, else OverflowError); "both"
    runs the two and insists they agree.
    """
    _check_base(b)
    if x < 1 or d_dyadic < 1:
        raise ValueError("x and D must be >= 1")
    if strategy in ("multiples", "both") and x >= _INT64_LIMIT:
        raise OverflowError(f"the multiples strategy needs x < 2**63, got {x}")
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

    over restricted palindromes n, at each palindrome's step t, scaled by
    d^2 to integers. A stable sort of the residues ranks each palindrome in
    its class: the excess c*d^2 - t peaks where a class's c-th member comes,
    and t - (least count)*d^2 just before every class gains one more. Time
    O(N log N) per d, memory O(N) for N palindromes whatever d^2 is, so
    every d_max <= sqrt(x) is answered; threads is ignored.
    """
    _check_base(b)
    if d_max < 1:
        raise ValueError("d_max must be >= 1")
    if d_max * d_max > x:
        raise ValueError("d_max must be <= sqrt(x)")
    eligible = _squarefree_coprime(b, 2, d_max + 1)[0].tolist()
    pals = np.concatenate(list(batches_up_to(b, x, True)))  # holds 1, so never empty

    def worst_for(d: int) -> Fraction:
        dd = d * d
        residues = (pals % dd).astype(np.int64, copy=False)
        order = np.argsort(residues, kind="stable")
        starts = np.flatnonzero(np.diff(residues[order], prepend=-1))
        sizes = np.diff(starts, append=len(pals))
        rank = np.arange(len(pals)) - np.repeat(starts, sizes)
        high = int(((rank + 1) * dd - order).max()) - 1
        steps = np.arange(sizes.min() if len(starts) == dd else 0)
        before = order[starts[:, None] + steps].max(axis=0)
        low = max([len(pals) - len(steps) * dd, *(before - steps * dd).tolist()])
        return Fraction(max(high, low), dd)

    worsts = map_in_order(worst_for, eligible)
    return float(sum(worsts, Fraction(0)))
