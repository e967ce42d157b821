import math
from fractions import Fraction

import pytest

from palindrome_lab import census, stream_up_to
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


def test_square_divisor_mobius_sum_above_1e18():
    # the cofactor left by trial division to 10**6 holds three primes
    p, q, r = 2000003, 3000017, 4000037
    assert census._square_divisor_mobius_sum(p * p * q) == 0
    assert census._square_divisor_mobius_sum(p * q * r) == 1
    assert census._square_divisor_mobius_sum(p * p * q * q * r) == 0


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
    assert s_b(10, 1000, 2) == 0
    assert s_b(10, 10**4, 5) == 1  # 343 = 7^3 with d = 7
    assert s_b(10, 10**6, 10) == 4
    assert s_b(2, 10**4, 3) == 5
    assert s_b(10, 10**4, 40) == 0
    assert s_b(10, 10**5, 100) == 1  # 10201 = 101^2
    assert s_b(10, 10**6, 252) == 1  # 94249 = 307^2


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
    assert s_b(10, 10**4, 101) == 0
    assert s_b(2, 100, 11) == 0


def test_s_b_bounded_by_total():
    total = sum(1 for _ in stream_up_to(10, 10**5, True))
    assert s_b(10, 10**5, 2) <= total


def test_dyadic_cover_dominates_tail():
    # summing s_b over a dyadic cover of (x^0.24, sqrt(x)] bounds the count of
    # restricted palindromes <= x that have a square divisor in that range
    b, x = 10, 10**5
    lo = int(x**0.24)
    cover = 0
    D = lo
    while D * D <= x:
        cover += s_b(b, x, D)
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
    monkeypatch.setattr(census, "q_star_mobius", lambda b, x, threads=1: -1)
    with pytest.raises(ArithmeticError):
        census_up_to(10, 100)
