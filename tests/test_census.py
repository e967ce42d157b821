import ast
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from palindrome_lab import arith, census, stream_up_to
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
from palindrome_lab.digits import is_palindrome
from palindrome_lab.streams import batches_up_to, palindrome_from_half


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
MOBIUS_ROUTE = ("q_star_mobius", "_primes", "_restricting_primes", "_squarefree_coprime",
                "_mobius_plan", "_mobius_multiples", "_mobius_walk",
                "_restricted_multiples", "_palindrome_mask")


def test_mobius_route_reads_no_arith():
    tree = ast.parse(Path(census.__file__).read_text(encoding="utf-8"))
    defs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    for name in MOBIUS_ROUTE:
        names = {n.id for n in ast.walk(defs[name]) if isinstance(n, ast.Name)}
        assert "arith" not in names, name


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


def _discrepancy_by_rescan(b, x, d_max):
    # the definition, rescanning every residue cell after each palindrome
    pals = list(stream_up_to(b, x, restricted=True))
    total = Fraction(0)
    for d in range(2, d_max + 1):
        if math.gcd(d, b**3 - b) != 1 or not is_squarefree(d):
            continue
        dd = d * d
        counts = [0] * dd
        best = 0
        for seen, n in enumerate(pals, 1):
            counts[n % dd] += 1
            best = max(best, max(counts) * dd - seen, seen - min(counts) * dd)
        total += Fraction(best, dd)
    return float(total)


@pytest.mark.parametrize("b,x,d_max", [(10, 10**4, 13), (10, 10**6, 31), (2, 10**6, 30),
                                       (3, 10**5, 25), (7, 10**5, 20)])
def test_discrepancy_matches_rescan(b, x, d_max):
    assert equidistribution_discrepancy(b, x, d_max) == _discrepancy_by_rescan(b, x, d_max)


def test_discrepancy_monotone_in_dmax():
    previous = 0.0
    for d_max in (1, 3, 7, 13, 17):
        value = equidistribution_discrepancy(10, 10**4, d_max)
        assert value >= previous
        previous = value


def test_discrepancy_validation():
    with pytest.raises(ValueError):
        equidistribution_discrepancy(10, 100, 11)  # d_max > sqrt(x)
    with pytest.raises(MemoryError):
        equidistribution_discrepancy(10, 10**8, 4000)


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
    opened = []

    def counting_batches_up_to(*args, **kwargs):
        opened.append(args)
        return batches_up_to(*args, **kwargs)

    monkeypatch.setattr(census, "batches_up_to", counting_batches_up_to)
    rec = census_up_to(10, 10**4, check_identity=True)
    assert (rec.total, rec.squarefree) == (25, 24)
    assert len(opened) == 1
