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


@pytest.mark.parametrize("b,x", [(10, 10**5), (2, 2 * 10**4), (3, 10**4)])
def test_mobius_walk_at_every_crossover(b, x):
    # the walk over the d > k, for every k, against mu(d) * N_d(x) summed
    # from the palindromes themselves
    pals = np.array(list(stream_up_to(b, x, True)), dtype=np.int64)
    terms = {d: _mu_by_trial_division(d) * int(np.count_nonzero(pals % (d * d) == 0))
             for d in range(1, math.isqrt(x) + 1) if math.gcd(d, b**3 - b) == 1}
    for k in range(math.isqrt(x) + 1):
        expected = sum(t for d, t in terms.items() if d > k)
        assert census._mobius_walk(b, x, k) == expected, k


def _direct(b, x):
    rec = census_up_to(b, x, check_identity=False)
    return rec.total, rec.squarefree


@pytest.mark.parametrize("b", range(2, 17))
def test_mobius_census_at_every_split(b):
    # every d > 1 walked, every d paired, then mixed splits: the same
    # palindrome count and Mobius sum as the direct census
    x = 1_234_567
    root = math.isqrt(x)
    expected = _direct(b, x)
    for d_split in (1, root, 2, 3, 5, root // 4, root // 2, root - 1, 10 * root):
        assert census._mobius_census(b, x, d_split) == expected, d_split


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 16), st.integers(0, 8).flatmap(lambda e: st.integers(10**e, 10 ** (e + 1))),
       st.data())
def test_mobius_splits_match_the_direct_count(b, x, data):
    # a walk over at most about 10**5 / d^2 * x multiples, so that any
    # x <= 10**9 stays fast; the pairs take the rest
    root = math.isqrt(x)
    d_split = data.draw(st.integers(min(max(1, x // 10**5), root), root))
    expected = _direct(b, x)
    assert census._mobius_census(b, x, d_split) == expected
    assert census._mobius_census(b, x, census._mobius_plan(b, x)) == expected


def test_mobius_plan_regimes():
    # one crossover in [1, sqrt(x)]; at scale the pairs take the d up to
    # about x^(3/8), well inside that range
    for b in (2, 3, 10, 64):
        for x in (1, 2, 100, 10**4, 10**6, 10**9, 10**12, 2**63 - 1):
            d_split = census._mobius_plan(b, x)
            assert isinstance(d_split, int)
            assert 1 <= d_split <= math.isqrt(x), (b, x)
    for b in (2, 10, 64):
        x = 10**12
        assert 1000 < census._mobius_plan(b, x) < math.isqrt(x) // 10, b


def test_census_catches_a_dropped_pair(monkeypatch):
    # a pair regime that loses one matched pair moves the Mobius sum by the
    # mu(d) of its square: d = 7 in base 10, and d = 5 in base 3, the
    # smallest d coprime to b^3 - b in each
    real = census._mobius_pairs
    dropped = []

    def drops_one(b, x, halves, squares, mu):
        for j, square in enumerate(squares.tolist()):
            for a, c in halves:
                n = a[:, None] + c[None, :]
                if ((n % square == 0) & (n <= x) & (np.gcd(n, b**3 - b) == 1)).any():
                    dropped.append((b, square))
                    return real(b, x, halves, squares, mu) - int(mu[j])
        raise AssertionError("no matched pair")

    monkeypatch.setattr(census, "_mobius_pairs", drops_one)
    for b, x in ((10, 10**7), (3, 10**7)):
        assert census._mobius_plan(b, x) >= 7
        with pytest.raises(ArithmeticError, match="mobius census identity failed"):
            census_up_to(b, x)
    assert dropped == [(10, 49), (3, 25)]


@pytest.mark.parametrize("b,x", [(3, 10**7), (7, 10**8), (10, 10**9)])
def test_mobius_pairs_in_runs_of_a_few_pairs(monkeypatch, b, x):
    # with _PAIR_KEYS at 3 the matched pairs of one block are expanded a few
    # at a time: d = 5 in base 3 alone has some 200 of them
    halves = census._pair_halves(b, x)
    d, mu = census._squarefree_coprime(b, 2, census._mobius_plan(b, x) + 1)
    expected = census._mobius_pairs(b, x, halves, d * d, mu)
    monkeypatch.setattr(census, "_PAIR_KEYS", 3)
    if b == 3:
        assert sum(int(np.count_nonzero((a[:, None] + c) % 25 == 0)) for a, c in halves) > 100
    assert census._mobius_pairs(b, x, halves, d * d, mu) == expected


def test_pair_keys_do_not_wrap():
    # squares of d near 2**30 and above 2**31: a key (group * d^2 + residue)
    # over all 15 groups would pass 2**63, and from 2**31 on one group's
    # packed key (with its side bit) passes it too
    rng = np.random.default_rng(17)
    b, x = 10, 2**63 - 1
    d = [2**30 + 7, 2**30 + 9, 3 * 2**29 + 1, 2**31 + 11, math.isqrt(x)]
    squares = np.array([v * v for v in d], dtype=np.int64)
    mu = np.array([1, -1, 2, 3, -5], dtype=np.int64)  # weights that tell the squares apart
    assert len(squares) * 3 * int(squares[0]) >= 2**63
    halves = []
    for _ in range(3):
        c = rng.integers(0, 2**61, 40)
        # A that some square pairs with some B, below or above x, and random A
        k = rng.integers(1, 8, 40)
        a = np.array([int(k[i]) * int(squares[i % 5]) - int(c[i]) for i in range(40)], dtype=object)
        a = a[(a >= 0) & (a < 2**63)].astype(np.int64)
        halves.append((np.concatenate([a, rng.integers(0, 2**62, 40)]), c))
    expected = 0
    for j, square in enumerate(squares.tolist()):
        for a, c in halves:
            for high in a.tolist():
                for low in c.tolist():
                    n = high + low
                    if n % square == 0 and n <= x and math.gcd(n, b**3 - b) == 1:
                        expected += int(mu[j])
    assert expected != 0
    assert census._mobius_pairs(b, x, halves, squares, mu) == expected


@pytest.mark.parametrize("b,x,block", [(10, 10**5, 7), (2, 10**4, 3), (64, 10**6, 1000)])
def test_restricted_multiples_blocks(monkeypatch, b, x, block):
    # small blocks split rows across blocks; the walk must still visit each
    # restricted multiple of each square once, a bounded block at a time
    monkeypatch.setattr(census, "_WALK_BLOCK", block)
    squares = np.array([d * d for d in range(1, 40) if math.gcd(d, b**3 - b) == 1],
                       dtype=np.int64)
    walked = []
    for rows, values in census._restricted_multiples(b, x, squares):
        assert 0 < len(values) <= block
        walked += zip(rows.tolist(), values.tolist())
    expected = [(i, n) for i, s in enumerate(squares.tolist())
                for n in range(s, x + 1, s) if math.gcd(n, b**3 - b) == 1]
    assert walked == expected


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
def test_palindrome_mask_matches_scalar(b, data):
    near = st.sampled_from(_near_places(b)).flatmap(
        lambda v: st.integers(max(v - 3, -2), min(v + 3, INT64_MAX)))
    # palindromes mirrored from random half-prefixes, of up to n_max digits,
    # so below b**n_max <= 2**63
    n_max = max(n for n in range(1, 64) if b**n <= 2**63)
    mirrored = st.integers(1, n_max).flatmap(
        lambda n: st.integers(b ** ((n + 1) // 2 - 1), b ** ((n + 1) // 2) - 1)
        .map(lambda h: palindrome_from_half(h, b, n)))
    values = data.draw(st.lists(st.one_of(
        near, mirrored,
        st.integers(INT64_MAX - 10**4, INT64_MAX),
        st.integers(-2, 10**4),
        st.integers(1, INT64_MAX),
    ), min_size=1, max_size=40))
    mask = census._palindrome_mask(np.array(values, dtype=np.int64), b)
    assert mask.tolist() == [is_palindrome(v, b) for v in values]


def test_palindrome_mask_exhaustive_small():
    for b in (2, 3, 10, 64):
        values = np.arange(-2, min(b**4, 20000) + b, dtype=np.int64)
        expected = [is_palindrome(v, b) for v in values.tolist()]
        assert census._palindrome_mask(values, b).tolist() == expected


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
                "_squarefree_coprime", "_mobius_plan", "_mirror", "_pair_lengths",
                "_pair_halves", "_pair_total", "_mobius_pairs", "_pair_side", "_pair_keys",
                "_mobius_walk", "_restricted_multiples", "_palindrome_mask")

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
    # one pass over the grids, and one set of halves for the Mobius route
    opened = []

    def counting(name, generator):
        def opens(*args):
            opened.append(name)
            return generator(*args)
        return opens

    monkeypatch.setattr(census, "grids_up_to", counting("grids", grids_up_to))
    monkeypatch.setattr(census, "_pair_halves", counting("halves", census._pair_halves))
    rec = census_up_to(10, 10**4, check_identity=True)
    assert (rec.total, rec.squarefree) == (25, 24)
    assert sorted(opened) == ["grids", "halves"]


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


def _last_rows(b, x, halves, rows, lows):
    """The halves of the last two lengths at x, trimmed to their last rows of
    A and their last lows of B, with the count of the restricted palindromes
    <= x among each row's sums by palindrome_from_half. The last rows are
    those of the largest high < top / b**k whose leading digit is coprime to
    b and whose mirror (of high * b**k) is <= x."""
    out = []
    for (n_digits, top, k, _), (a, c) in zip(census._pair_lengths(b, x)[-2:],
                                             halves[-2:]):
        place = b ** ((n_digits + 1) // 2 - k - 1)
        highs, high = [], -(-top // b**k) - 1
        while len(highs) < rows and high >= place:
            if (math.gcd(high // place, b) == 1
                    and palindrome_from_half(high * b**k, b, n_digits) <= x):
                highs.append(high)
            high -= 1
        expected = [sum(1 for low in range(max(b**k - lows, 0), b**k)
                        if (n := palindrome_from_half(high * b**k + low, b, n_digits)) <= x
                        and math.gcd(n, b**3 - b) == 1) for high in reversed(highs)]
        out.append((a[-rows:], c[-lows:], expected))
    return out


@pytest.mark.parametrize("b", range(2, 65))
def test_mobius_palindromes_match_scalar_mirror(b):
    # the palindrome total of the Mobius route at x = b**N - 1, b**N and
    # b**N + 1 for every N below 2**63, and 2**63 - 1: every palindrome
    # where x <= 10**6, and the last 3 rows by the last 40 lows of the last
    # two lengths' halves everywhere
    edges = {2**63 - 1}
    n = 1
    while b**n + 1 < 2**63:
        edges |= {b**n - 1, b**n, b**n + 1}
        n += 1
    for x in sorted(edges):
        halves = census._pair_halves(b, x)
        if x <= 10**6:
            expected = [n for n_digits in range(1, len(to_digits(x, b)) + 1)
                        for n in _scalar_restricted(b, n_digits, b ** ((n_digits - 1) // 2),
                                                    b ** ((n_digits + 1) // 2), x)]
            assert census._pair_total(b, x, halves) == len(expected), x
        for a, c, expected in _last_rows(b, x, halves, 3, 40):
            assert census._pair_total(b, x, [(a, c)]) == sum(expected), x


@pytest.mark.parametrize("b", range(2, 65))
def test_pair_halves_sum_to_the_restricted_palindromes(b):
    # at x = b**N - 1, b**N and b**N + 1 up to 10**6, the sums <= x coprime
    # to b^3 - b of each length's halves are its restricted palindromes <= x,
    # each once; at x = 2**63 - 1 every half is at most x
    edges, n = set(), 1
    while b**n + 1 < 10**6:
        edges |= {b**n - 1, b**n, b**n + 1}
        n += 1
    for x in sorted(edges):
        halves = census._pair_halves(b, x)
        assert len(halves) == (len(to_digits(x, b)) + 1) // 2
        for n_digits, (a, c) in zip(range(1, 64, 2), halves):
            n = (a[:, None] + c[None, :]).ravel()
            kept = sorted(n[(n <= x) & (np.gcd(n, b**3 - b) == 1)].tolist())
            m = (n_digits + 1) // 2
            assert kept == _scalar_restricted(b, n_digits, b ** (m - 1), b**m, x), (x, n_digits)
    x = 2**63 - 1
    for a, c in census._pair_halves(b, x):
        assert a.dtype == c.dtype == np.int64
        assert 0 < a.min() and a.max() <= x and 0 <= c.min() and c.max() <= x


def test_pair_halves_are_balanced_after_the_cut():
    # the last length at x = 1.05e10 keeps the half-prefixes 100000..105000:
    # 50 rows of 100, not 5 of 1000
    sizes = [(len(a), len(c)) for a, c in census._pair_halves(10, 10_500_000_000)]
    assert sizes[-1] == (50, 100)
    # the 5 half-prefix digits of a whole length split 3 + 2: 400 rows (those
    # with a leading digit coprime to 10) of 100, not 40 of 1000
    assert sizes[-2] == (400, 100)


def test_restricted_batches_below_int64_limit_are_int64():
    # the last 1..4 rows by the last 200 lows of the last two lengths' halves
    # at x = 2**63 - 1. In 26 bases the last half-prefix tried mirrors to
    # 2**63 or more, where int64 arithmetic wraps; a row's sums run past its
    # last half-prefix, and in 24 bases one of them wraps. The total must
    # not count it
    x = 2**63 - 1
    wrapped, sums_wrap = set(), set()
    for b in range(2, 65):
        x_digits = len(to_digits(x, b))
        for n_digits in (x_digits - 1, x_digits):
            m = (n_digits + 1) // 2
            top = min(b**m, x // b ** (n_digits - m) + 1)
            if palindrome_from_half(top - 1, b, n_digits) > x:
                wrapped.add(b)
        for a, c, expected in _last_rows(b, x, census._pair_halves(b, x), 4, 200):
            assert a.dtype == c.dtype == np.int64
            for count in range(1, len(a) + 1):
                assert (census._pair_total(b, x, [(a[-count:], c)])
                        == sum(expected[-count:])), (b, count)
            if (a[:, None] + c[None, :] < 0).any():
                sums_wrap.add(b)
    assert len(wrapped) == 26
    assert len(sums_wrap) == 24


def test_census_palindrome_counts_must_agree(monkeypatch):
    # grids that lose their last block (the 5-digit palindromes <= 10**5)
    # count fewer palindromes than the halves of the Mobius route, and a
    # total of the halves that is off by one counts one more than the grids
    total = census_up_to(10, 10**5).total
    real = census.grids_up_to
    monkeypatch.setattr(census, "grids_up_to", lambda b, x, r: list(real(b, x, r))[:-1])
    assert census_up_to(10, 10**5, check_identity=False).total < total
    with pytest.raises(ArithmeticError, match="palindrome counts disagree"):
        census_up_to(10, 10**5)
    monkeypatch.undo()
    real_total = census._pair_total
    monkeypatch.setattr(census, "_pair_total", lambda b, x, halves: real_total(b, x, halves) + 1)
    with pytest.raises(ArithmeticError, match=f"grids={total} halves={total + 1}"):
        census_up_to(10, 10**5)
