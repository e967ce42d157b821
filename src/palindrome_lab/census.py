"""Square-free censuses over palindrome sets.

The central identity (a Mobius inversion): the number of square-free
restricted palindromes <= x equals

    sum over d <= sqrt(x), gcd(d, b^3-b) = 1 of mu(d) * N_d(x),
    N_d(x) = #{n palindromic, restricted, <= x, d^2 | n}.

A checked census counts the left side and evaluates the right side, and the
two must agree exactly, as must the two counts of the palindromes. The left
side is arith.squarefree_grid on the digit-weight grids of the palindromes
(streams.grids_up_to). The right side writes each odd length's palindromes
as the sums A + B of two halves, A over the leading digits of a half-prefix
and B over the rest (the digit-weight factorization of Banks, Hart and
Sakata). N_1 counts the sums <= x coprime to b^3 - b, tested by value; it
is also the second count of the palindromes. The d > 1 fall in two regimes
at a crossover D that a cost model picks (_mobius_plan):

- d <= D: N_d counts the pairs with A = -B mod d^2, found by one sort of
  both halves' residues for a block of d; the few matched pairs are then cut
  at x and tested for the restriction by value.
- d > D: the walk over the restricted multiples m*d^2 <= x keeps the
  palindromes among them.

The pairs cost about x^(1/4) per d and the walk about x / d^2, so the whole
costs about x^(5/8), and N_1 about x^(1/2). mu comes from a sieve of this
module, the halves from a mirror of its own and the palindromes of the walk
from a digit test of its own: the right side shares no code with arith's
square-free test, and with the grids nothing but the idea of digit weights,
neither their weights nor their cut at x. It needs x < 2**63.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

import numpy as np

from . import arith
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
    if b < 2:
        raise ValueError("base must be >= 2")
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
    return _mobius_census(b, x, _mobius_plan(b, x))[1]


def _mobius_census(b: int, x: int, d_split: int) -> tuple[int, int]:
    """(#restricted palindromes <= x, the Mobius sum) at a crossover
    d_split >= 1: the count of the halves' sums is the d = 1 term, pairs of
    the halves give the d in (1, d_split], the walk the d > d_split."""
    halves = _pair_halves(b, x)
    total = _pair_total(b, x, halves)
    d, mu = _squarefree_coprime(b, 2, min(d_split, isqrt(x)) + 1)
    return total, total + _mobius_pairs(b, x, halves, d * d, mu) + _mobius_walk(b, x, d_split)


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
        d_split = _mobius_plan(b, x)
    rec = _census(b, grids_up_to(b, x, True), True, "up_to", x, density_constant(b)[0])
    if check_identity:
        summed, via_mobius = _mobius_census(b, x, d_split)
        if summed != rec.total:
            raise ArithmeticError(
                f"palindrome counts disagree at b={b}, x={x}: "
                f"grids={rec.total} halves={summed}"
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
# the Mobius side: pairs of halves and walks over multiples of d^2
# ---------------------------------------------------------------------------

_INT64_LIMIT = 1 << 63

# The sums of a block of the halves' rows or the keys of a pair block, and
# the multiples (and the d of one mu segment) of a walk block, which keeps a
# few arrays of its size alive at once. At these sizes the peak memory of a
# census-scan pass is still set by the prime tables of its square-free tests.
_PAIR_KEYS = 1 << 15
_WALK_BLOCK = 1 << 14

# The weights of the cost model of _mobius_plan, in residue tests (one
# d^2 | n test of a palindrome); fitted by timing (see there).
_KEY_COST = 4
_PAIR_COST = 16
_WALK_COST = 4


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


def _mobius_plan(b: int, x: int) -> int:
    """The crossover D of the Mobius sum at x: pairs of halves count the
    d in (1, D], the walk the d > D.

    Per eligible d, the pairs sort the K keys of the halves and test the
    about H / d^2 pairs that match (H the pairs of the halves); the walk
    visits about M / d^2 multiples (M = x times the share of m coprime to
    b^3 - b). The cost of the d > 1 is then about

        k*K*D + h*H*(1 - 1/D) + w*M/D

    residue tests, least at D = sqrt((w*M - h*H) / (k*K)), capped to
    [1, sqrt(x)].

    The weights k = _KEY_COST = 4, h = _PAIR_COST = 16 and w = _WALK_COST
    = 4 were fitted by timing bases 2, 3, 7, 10, 16 and 64 at x = 10^6 to
    10^12 on a 2-core x86 host (a residue test 6-10 ns, a sort key 30-38 ns,
    a matched pair 90-140 ns, a walked multiple 30-95 ns, base 2 the
    slowest), with a third regime below the pairs that tested each
    palindrome for the d^2 up to a crossover under 10. Of the weights tried
    (k 3-6, h 8-32, w 4-9), these planned within 5% of the best time in 12
    of 15 cases and within 22% in all: the cost is flat near its least.
    They put D near x^(3/8) from x = 10^8 on.
    """
    if x < 1:
        raise ValueError("x must be >= 1")
    if x >= _INT64_LIMIT:
        raise OverflowError(f"the Mobius route needs x < 2**63, got {x}")
    lengths = _pair_lengths(b, x)
    keys = _KEY_COST * sum(rows + b**k for _, _, k, rows in lengths)
    matched = _PAIR_COST * sum(rows * b**k for _, _, k, rows in lengths)
    walked = _WALK_COST * x * math.prod(1 - 1 / p for p in _restricting_primes(b))
    return max(1, min(int(math.sqrt(max(walked - matched, 0) / keys)), isqrt(x)))


def _mirror(h: np.ndarray, b: int, n_digits: int) -> tuple[np.ndarray, np.ndarray]:
    """(h * b**(m - 1), the reversal of h // b over m - 1 digits): their sum
    is the palindrome of odd length 2m - 1 mirrored from each m-digit
    half-prefix h, leading zeros included; both are additive over digits."""
    low = np.zeros_like(h)
    rest = h // b  # the middle digit is not mirrored
    for _ in range(n_digits // 2):
        rest, digit = np.divmod(rest, b)
        low = low * b + digit
    return h * b ** (n_digits // 2), low


def _pair_lengths(b: int, x: int) -> list[tuple[int, int, int, int]]:
    """(N, top, k, rows) for each odd length N with b**(N-1) <= x: the
    half-prefixes h < top (the first h with h * b**(N - m) > x) split as
    high * b**k + low, with rows values of high whose leading digit is
    coprime to b; k makes rows + b**k, the size of the halves, least."""
    leads = [lead for lead in range(1, b) if math.gcd(lead, b) == 1]
    lengths = []
    for n_digits in range(1, _INT64_LIMIT.bit_length(), 2):
        if b ** (n_digits - 1) > x:
            break
        m = (n_digits + 1) // 2
        top = min(b**m, x // b ** (n_digits - m) + 1)

        def rows(k):
            # the high in [place, end): whole runs of the leads below the
            # lead of end, and part of its own run
            place = b ** (m - k - 1)
            lead, part = divmod(-(-top // b**k), place)
            return place * bisect_left(leads, lead) + (part if lead in leads else 0)

        k = min(range(m), key=lambda k: rows(k) + b**k)
        lengths.append((n_digits, top, k, rows(k)))
    return lengths


def _pair_halves(b: int, x: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per length of _pair_lengths, int64 halves (A, B) whose sums
    A[i] + B[j] hold each N-digit palindrome <= x with its leading digit
    coprime to b once, and otherwise only palindromes above x.

    The palindrome of h = high * b**k + low is the mirror of high * b**k
    plus that of low (both are sums of digits times the weights
    W_j = b**(N-1-j) + b**j). A holds the first for each high whose leading
    digit is coprime to b and whose mirror is <= x, B the second for each
    low < b**k.
    """
    halves = []
    for n_digits, top, k, _ in _pair_lengths(b, x):
        place = b ** ((n_digits + 1) // 2 - k - 1)
        high = np.arange(place, -(-top // b**k), dtype=np.int64)
        high, low = _mirror(high[np.gcd(high // place, b) == 1] * b**k, b, n_digits)
        keep = low <= x - high  # no wrap: high <= x
        halves.append((high[keep] + low[keep],
                       np.add(*_mirror(np.arange(b**k, dtype=np.int64), b, n_digits))))
    return halves


def _pair_total(b: int, x: int, halves) -> int:
    """#{(A[i], B[l]) of one length's halves : A[i] + B[l] <= x,
    gcd(A[i] + B[l], b^3 - b) = 1} over the lengths, the restricted
    palindromes <= x, in blocks of rows of about _PAIR_KEYS sums."""
    out = 0
    for a, c in halves:
        step = max(1, _PAIR_KEYS // len(c))
        for i in range(0, len(a), step):
            high = a[i : i + step, None]
            # a sum that passes 2**63 wraps silently in int64; it is then
            # above x, and c <= x - high drops it without reading it
            out += int(np.count_nonzero((c <= x - high) & (np.gcd(high + c, b**3 - b) == 1)))
    return out


def _mobius_pairs(b: int, x: int, halves, squares: np.ndarray, mu: np.ndarray) -> int:
    """sum of mu[j] * #{(A[i], B[l]) of one length's halves : squares[j] |
    A[i] + B[l] <= x, gcd(A[i] + B[l], b^3 - b) = 1}, squares increasing.

    A group is one square with one length. In a block of consecutive groups
    every A[i] gets the key (group, A[i] mod d^2, 0) and every B[l] the key
    (group, -B[l] mod d^2, 1), packed into one uint64; one sort of the block
    puts each B right after the A of its key, those with d^2 | A + B. The
    block holds about _PAIR_KEYS keys, and at most 2**63 // d^2 groups so
    that the packed key cannot wrap. The matched pairs, about #pairs / d^2
    per square, are then tested by value, about _PAIR_KEYS at a time.
    """
    sides = [_pair_side([a for a, _ in halves]), _pair_side([-c for _, c in halves])]
    (a, _, _), (c, _, _) = sides
    n_parts, n_groups = len(halves), len(squares) * len(halves)
    modulus = int(squares.max(initial=1))  # the last square, if any
    step = max(1, min(_PAIR_KEYS * n_parts // (len(a) + len(c)), _INT64_LIMIT // modulus))
    out = 0
    for g0 in range(0, n_groups, step):
        g1 = min(g0 + step, n_groups)
        (ka, fa), (kb, fb) = (_pair_keys(*side, squares, g0, g1, modulus) for side in sides)
        n_a = len(ka)
        # both sides' keys in one array, shifted in place for the side bit
        keys = np.concatenate([ka, kb])
        del ka, kb
        keys <<= 1
        keys[n_a:] |= 1
        order = np.argsort(keys)
        keys = keys[order]
        # the sorted places of the B that follow an entry of their own key
        hit = np.flatnonzero(((keys[1:] ^ keys[:-1]) < 2) & (keys[1:] & 1 == 1)) + 1
        first = np.searchsorted(keys, keys[hit] - 1)
        count = np.searchsorted(keys, keys[hit]) - first  # the A of that key
        ends = np.cumsum(count)
        offset = first - ends + count  # a pair's place in keys, less its index
        # the pairs of whole hits, a run from each hit holding pair r * _PAIR_KEYS
        cuts = np.searchsorted(ends, np.arange(0, int(count.sum()), _PAIR_KEYS), side="right")
        cuts = np.unique(cuts).tolist()
        for h0, h1 in zip(cuts, [*cuts[1:], len(hit)]):
            run = count[h0:h1]
            pairs = np.arange(ends[h0] - run[0], ends[h1 - 1])
            # each pair's A and B as places in their sides' (square, value) grids
            i = order[np.repeat(offset[h0:h1], run) + pairs] + fa
            l = order[np.repeat(hit[h0:h1], run)] - n_a + fb
            high, low = a[i % len(a)], -c[l % len(c)]
            ok = (low <= x - high) & (np.gcd(high + low, b**3 - b) == 1)
            out += int(mu[g0 // n_parts + i[ok] // len(a)].sum())
    return out


def _pair_side(parts: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The parts concatenated, with the part of each value and the start of
    each part."""
    sizes = [len(part) for part in parts]
    starts = np.concatenate([[0], np.cumsum(sizes)])
    return np.concatenate(parts), np.repeat(np.arange(len(parts)), sizes), starts


def _pair_keys(values, part, starts, squares, g0, g1, modulus):
    """The keys (g - g0) * modulus + value mod squares[j] of the groups g in
    [g0, g1) as uint64, group g = j * #parts + s standing for the values of
    part s mod squares[j]; and the place of the first key in the grid of
    (square, value) from square g0 // #parts on, where the groups are a run."""
    n, n_parts = len(values), len(starts) - 1
    j0, j1 = g0 // n_parts, -(-g1 // n_parts)
    first = int(starts[g0 % n_parts])
    last = (g1 // n_parts - j0) * n + int(starts[g1 % n_parts])
    groups = (np.arange(j1 - j0)[:, None] * n_parts + part).ravel()[first:last]
    groups -= g0 - j0 * n_parts
    keys = groups * modulus
    keys += (values % squares[j0:j1, None]).ravel()[first:last]
    return keys.view(np.uint64), first


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
    cost_multiples = sum(x // (d * d) + 1
                         for d in range(d_dyadic, min(2 * d_dyadic, isqrt(x)) + 1))
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
