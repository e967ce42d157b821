import ast
import functools
import math
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from palindrome_lab import arith, census, stream_up_to, streams
from palindrome_lab.arith import is_squarefree
from palindrome_lab.census import (
    ZETA2_INV,
    census_up_to,
    density_constant,
    equidistribution_discrepancy,
    q_fixed_length,
    q_star_direct,
    q_star_mobius,
    s_b,
)
from palindrome_lab.digits import is_palindrome, to_digits
from palindrome_lab.streams import grids_up_to, palindrome_from_half


def test_density_constant_values():
    value10, r10 = density_constant(10)
    assert r10 == Fraction(605, 384)
    assert value10 == pytest.approx(0.957801814118974, abs=1e-12)
    value2, r2 = density_constant(2)
    assert r2 == Fraction(3, 2)
    assert value2 == pytest.approx(9 / math.pi**2, abs=1e-12)
    # b=3 shares the same prime set {2, 3}
    assert density_constant(3)[1] == Fraction(3, 2)
    assert ZETA2_INV == pytest.approx(0.607927101854, abs=1e-10)


def test_density_constant_is_the_product_over_factorize():
    # the census takes the primes of b^3 - b from its own sieve
    for b in range(2, 65):
        r = Fraction(1)
        for p in arith.factorize(b**3 - b):
            r *= Fraction(p * p, p * p - 1)
        assert density_constant(b) == (ZETA2_INV * float(r), r), b


def test_q_star_direct_examples():
    assert q_star_direct(10, 100) == 2
    assert q_star_direct(10, 1) == 1
    # frozen by exhaustive scans of [1, x]
    assert q_star_direct(2, 10**4) == 77
    assert q_star_direct(3, 10**5) == 118
    assert q_star_direct(10, 10**6) == 254
    assert census_up_to(10, 10**6).squarefree == 254


@pytest.mark.parametrize(
    "b,x",
    [(2, 10**3), (2, 10**5), (3, 10**4), (10, 10**4), (10, 10**6), (7, 10**5)],
)
def test_mobius_identity(b, x):
    assert q_star_direct(b, x) == q_star_mobius(b, x)


def _squarefree_count_by_trial_division(b, x):
    pals = np.array(list(stream_up_to(b, x, True)), dtype=np.int64)
    squarefree = np.ones(len(pals), dtype=bool)
    for d in range(2, math.isqrt(x) + 1):
        squarefree &= pals % (d * d) != 0
    return len(pals), int(np.count_nonzero(squarefree))


@settings(max_examples=30)
@given(st.integers(2, 64), st.integers(1, 2 * 10**5))
@example(10, 10**5)
@example(64, 2 * 10**5)
def test_mobius_route_matches_trial_division(b, x):
    total, squarefree = _squarefree_count_by_trial_division(b, x)
    assert q_star_mobius(b, x) == squarefree
    rec = census_up_to(b, x, check_identity=True)
    assert (rec.total, rec.squarefree) == (total, squarefree)


def test_checked_census_pinned():
    rec = census_up_to(10, 10_500_000_000, check_identity=True)
    assert (rec.total, rec.squarefree) == (29961, 28723)
    rec = census_up_to(2, 5 * 2**28, check_identity=True)
    assert (rec.total, rec.squarefree) == (27307, 24881)


def test_mobius_route_refuses_int64_overflow():
    with pytest.raises(OverflowError):
        census_up_to(10, 2**63, check_identity=True)
    with pytest.raises(OverflowError):
        q_star_mobius(10, 2**63)
    # its own mirror has no segment list to refuse x < 1, as the grids do
    for x in (0, -3):
        with pytest.raises(ValueError, match="x must be >= 1"):
            q_star_mobius(10, x)
    with pytest.raises(OverflowError):
        s_b(10, 2**63, 10**9, strategy="multiples")
    # the largest int64 cutoff is accepted by the walk; from d = root - 1000
    # on, 2 * d^2 passes 2**63, so each d^2 is its only multiple
    x = 2**63 - 1
    root = math.isqrt(x)
    expected = sum(1 for d in range(root - 1000, root + 1)
                   if math.gcd(d, 990) == 1 and is_palindrome(d * d, 10))
    assert s_b(10, x, root - 1000, strategy="multiples") == expected


@pytest.mark.parametrize("call", [
    lambda: census_up_to(0, 100),
    lambda: q_star_mobius(1, 100),
    lambda: q_star_mobius(65, 10**6),
    lambda: s_b(65, 10**6, 3, "multiples"),
    lambda: s_b(1, 100, 2, "multiples"),
    lambda: s_b(65, 10**6, 3, "stream"),
    lambda: density_constant(65),
    lambda: density_constant(1),
])
def test_routes_check_the_base(call):
    # bases outside [2, 64] are refused before any work, not answered (65
    # gave 910 and 0) nor run on (base 1 ran past 20 s, base 0 divided by 0)
    start = time.perf_counter()
    with pytest.raises(ValueError, match=r"base must be in \[2, 64\]"):
        call()
    assert time.perf_counter() - start < 1


def _mu_by_trial_division(n):
    k = 0
    for p in range(2, math.isqrt(n) + 1):
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            k += 1
    return (-1) ** (k + (n > 1))


def test_squarefree_coprime_matches_mobius():
    # a segment from 1 and one away from it
    for b, lo, hi in ((10, 1, 2000), (2, 1, 500), (64, 10**6 - 500, 10**6 + 500)):
        d, mu_d = census._squarefree_coprime(b, lo, hi)
        expected = [(n, _mu_by_trial_division(n)) for n in range(lo, hi)
                    if math.gcd(n, b**3 - b) == 1 and _mu_by_trial_division(n) != 0]
        assert list(zip(d.tolist(), mu_d.tolist())) == expected


def _multiples_by_division(b, x, d):
    """The (row, n) with n a restricted palindrome <= x and d[row]^2 | n,
    sorted, from the palindromes themselves."""
    pals = np.array(list(stream_up_to(b, x, True)), dtype=np.int64)
    return sorted((row, n) for row, dd in enumerate((d * d).tolist())
                  for n in pals[pals % dd == 0].tolist())


def _kernel_pairs(b, lo, hi, d):
    """The (row, n) the kernel yields over [lo, hi], sorted and checked to
    be int64."""
    found = []
    for rows, n in census._palindrome_multiples(b, lo, hi, d):
        assert n.dtype == np.int64
        found += zip(rows.tolist(), n.tolist())
    return sorted(found)


def _eligible(b, lo, hi):
    """The d in [lo, hi] coprime to b^3 - b, square-free or not."""
    d = np.arange(lo, hi + 1, dtype=np.int64)
    return d[np.gcd(d, b**3 - b) == 1]


def _forced_end_digits(monkeypatch, k):
    """Make the kernel take k end digits, or (N - 1) / 2 where N is shorter."""
    monkeypatch.setattr(census, "_end_digits", lambda b, n_digits, squares:
                        np.full(len(squares), min(k, (n_digits - 1) // 2)))


@pytest.mark.parametrize("b,x", [(10, 10**5), (2, 2 * 10**4), (3, 10**4)])
def test_mobius_walk_at_every_crossover(b, x):
    # the kernel over the d of each segment [lo, sqrt(x)] (the segments of
    # _mobius_census need not start at 1) against mu(d) * N_d(x) summed from
    # the palindromes themselves
    pals = np.array(list(stream_up_to(b, x, True)), dtype=np.int64)
    terms = {d: _mu_by_trial_division(d) * int(np.count_nonzero(pals % (d * d) == 0))
             for d in range(1, math.isqrt(x) + 1) if math.gcd(d, b**3 - b) == 1}
    for lo in range(1, math.isqrt(x) + 1):
        d, mu = census._squarefree_coprime(b, lo, math.isqrt(x) + 1)
        got = sum(int(mu[rows].sum()) for rows, _ in census._palindrome_multiples(b, 1, x, d))
        assert got == sum(t for d, t in terms.items() if d >= lo), lo


def _direct(b, x):
    rec = census_up_to(b, x, check_identity=False)
    return rec.total, rec.squarefree


@pytest.mark.parametrize("b", range(2, 65))
def test_mobius_census_at_every_split(monkeypatch, b):
    # every split of the palindromes into k end digit pairs and inner
    # digits, k forced from 0 to (N - 1) / 2 for every length N: the same
    # (d, palindrome) pairs as division finds, for every d coprime to
    # b^3 - b (square-free or not), and the same palindrome count and
    # Mobius sum as the direct census
    x = 10**5 + b
    d = _eligible(b, 1, math.isqrt(x))
    expected = _multiples_by_division(b, x, d)
    assert len({n for row, n in expected if d[row] > 1}) > 0
    for k in range((len(to_digits(x, b)) - 1) // 2 + 1):
        _forced_end_digits(monkeypatch, k)
        assert _kernel_pairs(b, 1, x, d) == expected, k
        assert census._mobius_census(b, x) == _direct(b, x), k


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 64), st.integers(0, 8).flatmap(lambda e: st.integers(10**e, 10 ** (e + 1))),
       st.integers(-1, 2))
@example(10, 10**9, -1)
@example(2, 10**9, 2)
@example(64, 10**9, -1)
def test_mobius_splits_match_the_direct_count(b, x, shift):
    # the chosen end digits, and one fewer (b times the candidates) or up to
    # two more (b or b^2 times the tops), at x up to 10**9
    real = census._end_digits
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(census, "_end_digits", lambda b, n_digits, squares: np.clip(
            real(b, n_digits, squares) + shift, 0, (n_digits - 1) // 2))
        assert census._mobius_census(b, x) == _direct(b, x)


def test_end_digits_near_half_the_length():
    # per length N, k in [0, (N - 1) / 2], one k per d falling with d, and
    # b**k within a factor b of b**(N/2) / d where that lies in range
    for b in (2, 3, 10, 64):
        for n_digits in range(1, 64, 2):
            if b ** (n_digits - 1) >= 2**63:
                break
            d = np.unique(np.geomspace(1, math.isqrt(b ** (n_digits - 1)), 200).astype(np.int64))
            k = census._end_digits(b, n_digits, d * d)
            assert ((0 <= k) & (k <= (n_digits - 1) // 2)).all()
            assert (np.diff(k) <= 0).all()
            aim = np.log(b ** (n_digits / 2) / d) / math.log(b)
            inside = (aim >= 1) & (aim <= (n_digits - 1) // 2)
            assert (np.abs(k - aim)[inside] <= 1).all(), (b, n_digits)
    # d = 1 takes every end digit but the middle one's
    assert census._end_digits(10, 13, np.array([1])).tolist() == [6]


def test_census_catches_a_dropped_candidate(monkeypatch):
    # a kernel that loses one palindrome among the multiples of d^2 moves the
    # Mobius sum by mu(d): d = 7 in base 10, and d = 5 in base 3, the
    # smallest d > 1 coprime to b^3 - b in each
    real = census._palindrome_multiples
    dropped = []

    def drops_one(b, lo, hi, d):
        for rows, n in real(b, lo, hi, d):
            at = np.flatnonzero(d[rows] == {10: 7, 3: 5}[b])
            if len(at) and b not in {c for c, _ in dropped}:
                dropped.append((b, int(n[at[0]])))
                rows, n = np.delete(rows, at[0]), np.delete(n, at[0])
            yield rows, n

    monkeypatch.setattr(census, "_palindrome_multiples", drops_one)
    for b, x in ((10, 10**7), (3, 10**7)):
        with pytest.raises(ArithmeticError, match="mobius census identity failed"):
            census_up_to(b, x)
    assert [(b, n % {10: 49, 3: 25}[b]) for b, n in dropped] == [(10, 0), (3, 0)]


@pytest.mark.parametrize("b,x", [(3, 10**7), (7, 10**8), (10, 10**9)])
def test_mobius_pairs_in_runs_of_a_few_pairs(monkeypatch, b, x):
    # with _BLOCK at 3 the (d, top) pairs and their candidates come a few at
    # a time: d = 1 alone has some thousand tops at each length here
    d = _eligible(b, 1, 30)
    expected = _kernel_pairs(b, 1, x, d)
    monkeypatch.setattr(census, "_BLOCK", 3)
    assert _kernel_pairs(b, 1, x, d) == expected
    assert len(expected) > 1000


@pytest.mark.parametrize("b,x,block", [(10, 10**5, 7), (2, 10**4, 3), (64, 10**6, 1000)])
def test_restricted_multiples_blocks(monkeypatch, b, x, block):
    # small blocks split the tops, the d and the candidates across blocks;
    # the kernel must still yield each (d, palindrome) once, from bounded
    # blocks of pairs and of candidates, at the chosen k and at k = 0
    monkeypatch.setattr(census, "_BLOCK", block)
    real = census._progressions
    sizes = []

    def bounded(first, count, step):
        sizes.append(len(first))
        for i, m in real(first, count, step):
            sizes.append(len(m))
            yield i, m

    monkeypatch.setattr(census, "_progressions", bounded)
    d = _eligible(b, 1, 40)
    expected = _multiples_by_division(b, x, d)
    for k in (None, 0):
        if k is not None:
            _forced_end_digits(monkeypatch, k)
        found = []
        for rows, n in census._palindrome_multiples(b, 1, x, d):
            assert len(n) <= block
            found += zip(rows.tolist(), n.tolist())
        assert len(found) == len(set(found))
        assert sorted(found) == expected
    assert 0 < max(sizes) <= block


def _near_places(b):
    # b**L - 1 (all digits b - 1), b**L and b**L + 1 (a palindrome) for every
    # b**L + 1 < 2**63
    out, place = [], b
    while place + 1 < 2**63:
        out += [place - 1, place, place + 1]
        place *= b
    return out


INT64_MAX = 2**63 - 1


@settings(max_examples=80)
@given(st.integers(2, 64), st.data())
def test_inner_palindromes_match_scalar(b, data):
    # the inner digit test on values of one length N: at k = 0 it is
    # is_palindrome; from pair k on, on values whose outer k pairs match
    n_max = max(n for n in range(1, 64) if b ** (n - 1) <= INT64_MAX)
    n_digits = data.draw(st.integers(1, n_max))
    lo, hi = b ** (n_digits - 1), min(b**n_digits - 1, INT64_MAX)
    m = (n_digits + 1) // 2
    mirrored = st.integers(b ** (m - 1), b**m - 1).map(
        lambda h: palindrome_from_half(h, b, n_digits)).filter(lambda n: n <= hi)
    near = st.sampled_from([v for v in _near_places(b) if lo <= v <= hi] or [lo]).flatmap(
        lambda v: st.integers(max(v - 3, lo), min(v + 3, hi)))
    values = data.draw(st.lists(st.one_of(
        near, mirrored, st.integers(lo, hi), st.integers(max(lo, hi - 10**4), hi),
    ), min_size=1, max_size=40))
    k = data.draw(st.integers(0, (n_digits - 1) // 2))
    # the outer k digit pairs made to match, as in the kernel's candidates
    values = [_mirror_ends(v, b, n_digits, k) for v in values]
    mask = census._inner_palindromes(np.array(values, dtype=np.int64), b, n_digits, k)
    assert mask.tolist() == [is_palindrome(v, b) for v in values]


def _mirror_ends(v, b, n_digits, k):
    """v with its last k digits replaced by its first k reversed."""
    ds = list(to_digits(v, b))  # little-endian, n_digits of them
    for j in range(k):
        ds[j] = ds[n_digits - 1 - j]
    return sum(digit * b**j for j, digit in enumerate(ds))


def test_inner_palindromes_exhaustive_small():
    # every value of each length up to 20000 and every k, against the
    # digits read both ways from pair k inward; at k = 0 against
    # is_palindrome
    for b in (2, 3, 10, 64):
        for n_digits in range(1, 16):
            lo, hi = b ** (n_digits - 1), min(b**n_digits, 20000 + b)
            if lo >= hi:
                break
            values = np.arange(lo, hi, dtype=np.int64)
            for k in range((n_digits - 1) // 2 + 1):
                expected = [to_digits(v, b)[k:n_digits - k] == to_digits(v, b)[k:n_digits - k][::-1]
                            for v in values.tolist()]
                mask = census._inner_palindromes(values, b, n_digits, k)
                assert mask.tolist() == expected, (b, n_digits, k)
            assert (census._inner_palindromes(values, b, n_digits, 0).tolist()
                    == [is_palindrome(v, b) for v in values.tolist()])


@settings(max_examples=40)
@given(st.integers(2, 64), st.integers(1, 10**6), st.integers(1, 1100))
@example(10, 10**6, 10)
@example(2, 10**6, 1000)
def test_s_b_multiples_matches_stream(b, x, d_dyadic):
    assert (s_b(b, x, d_dyadic, strategy="multiples")
            == s_b(b, x, d_dyadic, strategy="stream"))


# the Mobius route of a checked census: it must not read arith, so that a
# fault there reaches only the direct count
MOBIUS_ROUTE = ("q_star_mobius", "_mobius_census", "_primes", "_restricting_primes",
                "_squarefree_coprime", "_palindrome_multiples", "_end_digits",
                "_inverse_squares", "_tops", "_progressions", "_inner_palindromes")

# the square-free test of the direct side, and the generator and the cut of
# its grids (the route reads no other streams name either)
MOBIUS_ROUTE_FORBIDDEN = {"arith", "batches_up_to", "grids_up_to", "grids_fixed_length",
                          "_segments_up_to", "_digit_weights", "_grid_blocks"}


def test_mobius_route_reads_no_arith():
    tree = ast.parse(Path(census.__file__).read_text(encoding="utf-8"))
    defs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    for name in MOBIUS_ROUTE:
        read = set()
        for node in ast.walk(defs[name]):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
        assert not read & MOBIUS_ROUTE_FORBIDDEN, name


def test_census_record_fields():
    rec = census_up_to(10, 10**4)
    assert rec.total == 25
    assert rec.squarefree == 24
    assert rec.ratio == pytest.approx(0.96)
    assert rec.abs_error == pytest.approx(abs(rec.ratio - rec.predicted))
    assert 0 <= rec.squarefree <= rec.total


def test_q_fixed_length_examples():
    rec = q_fixed_length(10, 1)
    assert (rec.squarefree, rec.total) == (6, 9)  # exclude 4, 8, 9
    rec = q_fixed_length(10, 2)
    assert (rec.squarefree, rec.total) == (6, 9)  # exclude 44, 88, 99
    rec = q_fixed_length(2, 3)
    assert (rec.squarefree, rec.total) == (2, 2)  # 5 and 7
    rec = q_fixed_length(10, 3)
    assert (rec.squarefree, rec.total) == (55, 90)
    rec = q_fixed_length(3, 4)
    assert (rec.squarefree, rec.total) == (0, 6)  # all divisible by 4
    assert rec.predicted == pytest.approx(ZETA2_INV)
    assert q_fixed_length(10, 5).total == 900


def test_s_b_examples():
    assert s_b(10, 1000, 2, "both") == 0
    assert s_b(10, 10**4, 5, "both") == 1  # 343 = 7^3 with d = 7
    assert s_b(10, 10**6, 10, "both") == 4
    assert s_b(2, 10**4, 3, "both") == 5
    assert s_b(10, 10**4, 40, "both") == 0
    assert s_b(10, 10**5, 100, "both") == 1  # 10201 = 101^2
    assert s_b(10, 10**6, 252, "both") == 1  # 94249 = 307^2


@pytest.mark.parametrize(
    "b,x,D",
    [(10, 10**4, 5), (10, 10**5, 100), (2, 10**4, 3), (2, 10**5, 7),
     (3, 10**4, 4), (10, 10**6, 10)],
)
def test_s_b_strategies_agree(b, x, D):
    via_stream = s_b(b, x, D, strategy="stream")
    via_multiples = s_b(b, x, D, strategy="multiples")
    assert via_stream == via_multiples
    assert s_b(b, x, D, strategy="both") == via_stream


def test_s_b_zero_beyond_sqrt():
    # no d^2 <= x once D^2 > x
    assert s_b(10, 10**4, 101, "both") == 0
    assert s_b(2, 100, 11, "both") == 0


@pytest.mark.parametrize("strategy", ("stream", "multiples", "both"))
def test_s_b_stops_d_at_sqrt_x(strategy):
    # d runs to min(2D, isqrt(x)), so a D far beyond sqrt(x) walks no d
    start = time.perf_counter()
    assert s_b(10, 10**6, 10**12, strategy) == 0
    assert time.perf_counter() - start < 1


def test_s_b_costs_stop_d_at_sqrt_x():
    start = time.perf_counter()
    costs = census.s_b_costs(10, 10**6, 10**12)
    assert time.perf_counter() - start < 1
    assert costs == (streams.count_up_to(10, 10**6) * (10**12 + 1), 0)
    # the probes of the d <= sqrt(x) still count
    assert census.s_b_costs(10, 100, 9)[1] == 100 // 81 + 1 + 100 // 100 + 1


def test_s_b_bounded_by_total():
    total = sum(1 for _ in stream_up_to(10, 10**5, True))
    assert s_b(10, 10**5, 2, "both") <= total


def test_dyadic_cover_dominates_tail():
    # summing s_b over a dyadic cover of (x^0.24, sqrt(x)] bounds the count of
    # restricted palindromes <= x that have a square divisor in that range
    b, x = 10, 10**5
    lo = int(x**0.24)
    cover = 0
    D = lo
    while D * D <= x:
        cover += s_b(b, x, D, "both")
        D *= 2
    direct = 0
    for n in stream_up_to(b, x, True):
        for d in range(lo + 1, math.isqrt(n) + 1):
            if n % (d * d) == 0:
                direct += 1
                break
    assert direct <= cover


def test_discrepancy_examples():
    assert equidistribution_discrepancy(10, 100, 1) == 0.0
    assert equidistribution_discrepancy(10, 10**4, 3) == 0.0
    assert equidistribution_discrepancy(10, 10**4, 7) == pytest.approx(79 / 49)
    assert equidistribution_discrepancy(10, 10**4, 13) == pytest.approx(28688 / 8281)


@functools.cache
def _discrepancy_by_rescan(b, x, d_max):
    # the definition: every residue count after each palindrome, as cumulative
    # sums of one-hot rows. Also the kinds of d seen: the side that sets the
    # supremum ("high": a count above seen/d^2, "low": one below it), where
    # a winning low side peaks, d^2 above the palindrome count, and every
    # class holding two or more
    pals = np.array(list(stream_up_to(b, x, restricted=True)), dtype=np.int64)
    seen = np.arange(1, len(pals) + 1)
    total, kinds = Fraction(0), set()
    for d in range(2, d_max + 1):
        if math.gcd(d, b**3 - b) != 1 or not is_squarefree(d):
            continue
        dd = d * d
        counts = np.cumsum(np.eye(dd, dtype=np.int64)[pals % dd], axis=0)
        high = int((counts.max(axis=1) * dd - seen).max())
        lows = seen - counts.min(axis=1) * dd
        low = int(lows.max())
        total += Fraction(max(high, low), dd)
        if low <= high:
            kinds.add("high")
        elif counts[-1].min() == 0:
            kinds.add("low, a class empty")
        else:
            kinds.add("low, at the last step" if low == lows[-1] else "low, earlier")
        if dd > len(pals):
            kinds.add("sparse")
        if counts[-1].min() >= 2:
            kinds.add("every class twice")
    return float(total), kinds


RESCAN_CASES = [(10, 10**4, 13), (10, 10**6, 31), (2, 10**6, 30), (3, 10**5, 25),
                (7, 10**5, 20), (10, 10**6, 7), (2, 10**5, 5), (3, 3 * 10**5, 7),
                (8, 10**4, 5), (64, 10**5, 20)]


@pytest.mark.parametrize("b,x,d_max", RESCAN_CASES)
def test_discrepancy_matches_rescan(b, x, d_max):
    assert equidistribution_discrepancy(b, x, d_max) == _discrepancy_by_rescan(b, x, d_max)[0]


def test_discrepancy_rescan_cases_cover_both_sides():
    # a wrong low or high side shows in these cases only if they hold d of
    # every kind
    kinds = set().union(*(_discrepancy_by_rescan(*case)[1] for case in RESCAN_CASES))
    assert kinds == {"high", "low, a class empty", "low, at the last step", "low, earlier",
                     "sparse", "every class twice"}


@given(st.integers(2, 64), st.integers(1, 10**5), st.data())
def test_discrepancy_matches_rescan_in_every_base(b, x, data):
    d_max = data.draw(st.integers(1, min(20, math.isqrt(x))))
    assert equidistribution_discrepancy(b, x, d_max) == _discrepancy_by_rescan(b, x, d_max)[0]


def test_discrepancy_monotone_in_dmax():
    previous = 0.0
    for d_max in (1, 3, 7, 13, 17):
        value = equidistribution_discrepancy(10, 10**4, d_max)
        assert value >= previous
        previous = value


def test_discrepancy_validation():
    with pytest.raises(ValueError):
        equidistribution_discrepancy(10, 100, 11)  # d_max > sqrt(x)
    with pytest.raises(ValueError):
        equidistribution_discrepancy(10, 100, 0)


def _discrepancy_by_class_counts(b, x, d_max):
    # the definition with the counts of the classes hit so far in a dict, so
    # O(N) memory per d whatever d^2 is: at step t the fullest class exceeds
    # t / d^2 by (top * d^2 - t) / d^2, and the emptiest falls short by
    # (t - least * d^2) / d^2, where least stays 0 until all d^2 classes hold
    # one palindrome
    pals = list(stream_up_to(b, x, restricted=True))
    total = Fraction(0)
    for d in range(2, d_max + 1):
        if math.gcd(d, b**3 - b) != 1 or not is_squarefree(d):
            continue
        dd = d * d
        counts, at_least = {}, Counter()  # at_least[c]: the classes holding c or more
        top = least = worst = 0
        for t, n in enumerate(pals, 1):
            c = counts[n % dd] = counts.get(n % dd, 0) + 1
            at_least[c] += 1
            top = max(top, c)
            while at_least[least + 1] == dd:
                least += 1
            worst = max(worst, top * dd - t, t - least * dd)
        total += Fraction(worst, dd)
    return float(total)


def test_class_counts_match_rescan():
    for case in RESCAN_CASES:
        assert _discrepancy_by_class_counts(*case) == _discrepancy_by_rescan(*case)[0], case


def test_discrepancy_past_ten_million_cells():
    # d = 3163 is the first d with d^2 above 10**7 classes, some 11,000
    # times the 878 palindromes below x
    b, x, d_max = 64, 3163**2, 3163
    assert equidistribution_discrepancy(b, x, d_max) == _discrepancy_by_class_counts(b, x, d_max)


def test_census_identity_guard(monkeypatch):
    # a mu table with the sign flipped at every d > 1; the restricted
    # palindrome 343 = 7^3 has the square divisor 7^2
    real = census._squarefree_coprime

    def flipped(b, lo, hi):
        d, mu = real(b, lo, hi)
        return d, np.where(d > 1, -mu, mu)

    monkeypatch.setattr(census, "_squarefree_coprime", flipped)
    with pytest.raises(ArithmeticError, match="mobius census identity failed"):
        census_up_to(10, 10**4)


def test_census_up_to_streams_once(monkeypatch):
    # one pass over the grids, and one Mobius census
    opened = []

    def counting(name, generator):
        def opens(*args):
            opened.append(name)
            return generator(*args)
        return opens

    monkeypatch.setattr(census, "grids_up_to", counting("grids", grids_up_to))
    monkeypatch.setattr(census, "_mobius_census", counting("mobius", census._mobius_census))
    rec = census_up_to(10, 10**4, check_identity=True)
    assert (rec.total, rec.squarefree) == (25, 24)
    assert sorted(opened) == ["grids", "mobius"]


@pytest.mark.parametrize("b,x,total", [(10, 123456789, 4110), (3, 5 * 10**6, 762)])
def test_census_catches_a_late_cut(monkeypatch, b, x, total):
    # a last segment that ends one half-prefix late puts a palindrome above x
    # in the grids; the Mobius route cuts at x by value, so the two palindrome
    # counts must differ
    real = streams._segments_up_to

    def late(b, x):
        *full, (n_digits, half_lo, half_hi) = real(b, x)
        return [*full, (n_digits, half_lo, half_hi + 1)]

    assert census_up_to(b, x).total == total
    monkeypatch.setattr(streams, "_segments_up_to", late)
    assert census_up_to(b, x, check_identity=False).total == total + 1
    with pytest.raises(ArithmeticError, match="palindrome counts disagree"):
        census_up_to(b, x)


def _scalar_restricted(b, n_digits, half_lo, half_hi, x):
    """The restricted palindromes <= x among the mirrors of [half_lo, half_hi)
    by palindrome_from_half."""
    return [n for h in range(half_lo, half_hi)
            if (n := palindrome_from_half(h, b, n_digits)) <= x and math.gcd(n, b**3 - b) == 1]


def _window_by_mirror(b, lo, hi, d):
    """The (row, n) with n a restricted palindrome in [lo, hi] and
    d[row]^2 | n, sorted, from palindrome_from_half over the half-prefixes
    of [lo, hi]."""
    out = []
    for n_digits in range(1, 64, 2):
        m = (n_digits + 1) // 2
        place = b ** (n_digits - m)
        for h in range(max(lo // place, b ** (m - 1)), min(hi // place, b**m - 1) + 1):
            n = palindrome_from_half(h, b, n_digits)
            if lo <= n <= hi and math.gcd(n, b**3 - b) == 1:
                out += [(row, n) for row, v in enumerate(d.tolist()) if n % (v * v) == 0]
    return sorted(out)


def _multiples_by_mirror(b, x, d):
    """The (row, n) with n = m * d[row]^2 <= x restricted and equal to the
    mirror of its own half-prefix, sorted; for d whose multiples are few."""
    out = []
    for row, v in enumerate(d.tolist()):
        for n in range(v * v, x + 1, v * v):
            n_digits = len(to_digits(n, b))
            if (math.gcd(n, b**3 - b) == 1
                    and n == palindrome_from_half(n // b ** (n_digits // 2), b, n_digits)):
                out.append((row, n))
    return sorted(out)


def _last_window(b, x):
    """[lo, x]: the last 64 half-prefixes of the length of x, or [1, x]."""
    return max(1, x - 64 * b ** (len(to_digits(x, b)) // 2)), x


def _edges(b):
    """b**N - 1, b**N and b**N + 1 for every b**N + 1 < 2**63."""
    edges, n = set(), 1
    while b**n + 1 < 2**63:
        edges |= {b**n - 1, b**n, b**n + 1}
        n += 1
    return sorted(edges)


@pytest.mark.parametrize("b", range(2, 65))
def test_mobius_palindromes_match_scalar_mirror(b):
    # at x = b**N - 1, b**N and b**N + 1 for every N below 2**63: the
    # palindrome total of the Mobius route where x <= 10**6; everywhere the
    # kernel over the last 64 half-prefixes of the length of x, for d = 1,
    # the small d and the d near sqrt(x), and over all of [1, x] for the d
    # near sqrt(x), against palindrome_from_half
    for x in _edges(b):
        if x <= 10**6:
            expected = [n for n_digits in range(1, len(to_digits(x, b)) + 1)
                        for n in _scalar_restricted(b, n_digits, b ** ((n_digits - 1) // 2),
                                                    b ** ((n_digits + 1) // 2), x)]
            assert census._mobius_census(b, x)[0] == len(expected), x
        lo, hi = _last_window(b, x)
        near = _eligible(b, max(1, math.isqrt(x) - 64), math.isqrt(x))
        d = np.concatenate([_eligible(b, 1, min(64, math.isqrt(x))), near])
        assert _kernel_pairs(b, lo, hi, d) == _window_by_mirror(b, lo, hi, d), x
        assert _kernel_pairs(b, 1, x, near) == _multiples_by_mirror(b, x, near), x


@pytest.mark.parametrize("b", range(2, 65))
def test_pair_halves_sum_to_the_restricted_palindromes(b):
    # at x = b**N - 1, b**N and b**N + 1 up to 10**6, the d = 1 row of the
    # kernel, whose tops pair each half-prefix with its mirrored end digits,
    # holds each restricted palindrome <= x once, length by length
    for x in _edges(b):
        if x > 10**6:
            break
        found = [n for _, n in _kernel_pairs(b, 1, x, np.array([1]))]
        expected = [n for n_digits in range(1, len(to_digits(x, b)) + 1, 2)
                    for n in _scalar_restricted(b, n_digits, b ** ((n_digits - 1) // 2),
                                                b ** ((n_digits + 1) // 2), x)]
        assert found == sorted(expected), x
        assert len(set(found)) == len(found)


def test_tops_after_the_cut():
    # the last length at x = 1.05e10 keeps the 5-digit tops 10000..10500,
    # the last one's range cut at x; at 10**10 - 1 the 4-digit tops of 11
    # digits run through every leading digit coprime to 10
    x = 10_500_000_000
    blocks = list(census._tops(10, 11, 5, 10**10, x))
    rev = np.concatenate([r for r, _, _ in blocks])
    low = np.concatenate([lo for _, lo, _ in blocks])
    high = np.concatenate([hi for _, _, hi in blocks])
    assert len(rev) == 501
    assert rev[:3].tolist() == [1, 10001, 20001]  # rev_5 of 10000, 10001, 10002
    assert (low[0], high[-1]) == (10**10, x)
    assert (high[:-1] + 1 == low[1:]).all()
    tops = np.concatenate([r for r, _, _ in census._tops(10, 11, 4, 10**10, 10**11 - 1)])
    assert len(tops) == 4000


def test_top_residues_do_not_wrap():
    # every end digit the length allows, where the residue of a (d, top)
    # pair, rev_k(H) * d^-2 mod b**k, is a product of two numbers below b**k,
    # and b**(2k) = b**(N-1) lies within a factor b**2 of 2**63: over the
    # last 64 half-prefixes below 2**63 and over [2**63 - 10**6, 2**63 - 1],
    # in every base, for d = 1, the small d and the d near sqrt(x)
    x = 2**63 - 1
    with pytest.MonkeyPatch.context() as patch:
        _forced_end_digits(patch, 32)
        for b in range(2, 65):
            near = _eligible(b, math.isqrt(x) - 64, math.isqrt(x))
            d = np.concatenate([_eligible(b, 1, 64), near])
            for lo, hi in (_last_window(b, x), (x - 10**6, x)):
                assert _kernel_pairs(b, lo, hi, d) == _window_by_mirror(b, lo, hi, d), (b, lo)


def test_restricted_batches_below_int64_limit_are_int64():
    # the window [2**63 - 10**6, 2**63 - 1], at the chosen end digits and at
    # none, for d = 1 and the d near sqrt(x), against palindrome_from_half.
    # In 26 bases the last half-prefix of a length mirrors to 2**63 or
    # more, where int64 arithmetic wraps; the kernel must not reach it
    x = 2**63 - 1
    lo = x - 10**6
    wrapped = set()
    for b in range(2, 65):
        x_digits = len(to_digits(x, b))
        for n_digits in (x_digits - 1, x_digits):
            m = (n_digits + 1) // 2
            top = min(b**m, x // b ** (n_digits - m) + 1)
            if palindrome_from_half(top - 1, b, n_digits) > x:
                wrapped.add(b)
        d = np.concatenate([[1], _eligible(b, math.isqrt(lo), math.isqrt(x))])
        expected = _window_by_mirror(b, lo, x, d)
        assert _kernel_pairs(b, lo, x, d) == expected, b
        with pytest.MonkeyPatch.context() as patch:
            _forced_end_digits(patch, 0)
            assert _kernel_pairs(b, lo, x, d) == expected, b
    assert len(wrapped) == 26


def test_census_palindrome_counts_must_agree(monkeypatch):
    # grids that lose their last block (the 5-digit palindromes <= 10**5)
    # count fewer palindromes than the Mobius route, and a d = 1 count of
    # the kernel that is off by one counts one more than the grids
    total = census_up_to(10, 10**5).total
    real = census.grids_up_to
    monkeypatch.setattr(census, "grids_up_to", lambda b, x, r: list(real(b, x, r))[:-1])
    assert census_up_to(10, 10**5, check_identity=False).total < total
    with pytest.raises(ArithmeticError, match="palindrome counts disagree"):
        census_up_to(10, 10**5)
    monkeypatch.undo()
    real_kernel = census._palindrome_multiples

    def one_more(b, lo, hi, d):
        yield from real_kernel(b, lo, hi, d)
        ones = np.flatnonzero(d == 1)
        yield ones, np.full(len(ones), 1, dtype=np.int64)

    monkeypatch.setattr(census, "_palindrome_multiples", one_more)
    with pytest.raises(ArithmeticError, match=f"grids={total} mobius={total + 1}"):
        census_up_to(10, 10**5)
