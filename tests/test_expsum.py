import cmath
import math
import random
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from palindrome_lab import expsum, oscillate
from palindrome_lab.expsum import (
    ExpSumParams,
    PoissonTailError,
    count_critical_points,
    k2_full,
    k2_q_average,
    k2_stationary_phase,
    poisson_check,
    stationary_split,
)
from palindrome_lab.oscillate import PSI, fourier_transform


def naive_k2(a1, a2, a3, q, c):
    # direct evaluation from the defining formula, written independently
    total = 0j
    for x in range(1, c + 1):
        if gcd(x, c) != 1 or gcd((x + q) % c, c) != 1:
            continue
        xi = pow(x, -1, c)
        yi = pow((x + q) % c, -1, c)
        phase = (a1 * x + a2 * xi * xi + a3 * yi * yi) % c
        total += cmath.exp(2j * cmath.pi * phase / c)
    return total / math.sqrt(c)


def test_k2_frozen_values():
    assert k2_full(ExpSumParams(0, 0, 0, 0, 1)) == 1
    assert k2_full(ExpSumParams(0, 0, 0, 0, 4)) == pytest.approx(1 + 0j)
    got = k2_full(ExpSumParams(1, 1, 0, 0, 7))
    assert got == pytest.approx(0.944911182523068 + 0.5j, abs=1e-12)
    got = k2_full(ExpSumParams(1, 2, 0, 0, 9))
    assert got == pytest.approx(-0.5 + 0.8660254037844387j, abs=1e-12)
    got = k2_full(ExpSumParams(5, 3, 0, 0, 13))
    assert got == pytest.approx(-0.7773500981126158 - 1.2907459653893643j, abs=1e-12)
    assert abs(k2_full(ExpSumParams(1, 1, -1, 1, 64))) < 1e-12


def sequential_k2(a1, a2, a3, q, c):
    # the direct sum as a plain loop: exact phases, cmath.exp roots of unity,
    # each added to the running total from x = 0 up
    total = 0.0 + 0.0j
    for x in range(c):
        if gcd(x, c) != 1 or gcd(x + q, c) != 1:
            continue
        xi = pow(x, -1, c)
        yi = pow(x + q, -1, c)
        phase = (a1 * x + a2 * xi * xi + a3 * yi * yi) % c
        total += cmath.exp(expsum.TWO_PI * 1j * phase / c)
    return total / math.sqrt(c)


@pytest.mark.parametrize("c", (1, 2, 3, 4, 97, 2048, 2**12, 30030, 5**3 * 7**3))
def test_k2_full_equals_sequential_sum(c):
    # reduced mod c before any int64 product and summed in loop order, the
    # vectorised sum keeps every bit, with arguments far above c
    rng = random.Random(c)
    for _ in range(2 if c > 10**4 else 6):
        args = [rng.randrange(-10**15, 10**15) for _ in range(4)]
        assert k2_full(ExpSumParams(*args, c)) == sequential_k2(*args, c), args


def test_k2_zero_coefficients_give_totient():
    for c in (4, 45, 64, 100):
        totient = sum(1 for x in range(c) if gcd(x, c) == 1)
        expected = totient / math.sqrt(c)
        assert k2_full(ExpSumParams(0, 0, 0, 0, c)) == pytest.approx(expected, abs=1e-10)
    assert k2_full(ExpSumParams(3, 7, 0, 0, 1)) == 1


@given(st.integers(2, 150), st.integers(-30, 30), st.integers(-30, 30),
       st.integers(-30, 30), st.integers(-10, 10))
def test_k2_matches_naive(c, a1, a2, a3, q):
    assert k2_full(ExpSumParams(a1, a2, a3, q, c)) == pytest.approx(
        naive_k2(a1, a2, a3, q, c), abs=1e-9
    )


@given(st.integers(2, 120), st.integers(-20, 20), st.integers(-20, 20),
       st.integers(-20, 20), st.integers(-8, 8))
def test_k2_conjugation_symmetry(c, a1, a2, a3, q):
    lhs = k2_full(ExpSumParams(-a1, -a2, -a3, q, c))
    rhs = k2_full(ExpSumParams(a1, a2, a3, q, c)).conjugate()
    assert lhs == pytest.approx(rhs, abs=1e-10)


def test_stationary_split_examples():
    assert stationary_split(8) == (2, 4)
    assert stationary_split(36) == (6, 6)
    assert stationary_split(2**10) == (32, 32)
    for c in (12, 90, 7**3):
        c1, c2 = stationary_split(c)
        assert c1 * c2 == c
        assert c2 % c1 == 0
        assert (c2 * c2) % c == 0


def test_stationary_phase_identity_examples():
    # prime c degenerates to the full sum
    for c in (7, 13, 101):
        params = ExpSumParams(3, 1, 2, 5, c)
        assert k2_stationary_phase(params) == pytest.approx(k2_full(params), abs=1e-10)
    params = ExpSumParams(1, 1, -1, 1, 2**6)
    assert k2_stationary_phase(params) == pytest.approx(k2_full(params), abs=1e-10)
    params = ExpSumParams(3, 5, 0, 0, 3**4)
    assert k2_stationary_phase(params) == pytest.approx(k2_full(params), abs=1e-10)


def test_stationary_phase_identity_grid():
    rng = random.Random(123)
    cs = []
    for p in (2, 3, 5, 7, 11):
        c = p * p
        while c <= 4096:
            cs.append(c)
            c *= p
    cs += [10, 100, 1000, 90, 360]
    for c in cs:
        for _ in range(8):
            a1, a2, a3 = (rng.randrange(-c, c) for _ in range(3))
            q = rng.randrange(-c, c + 1)
            params = ExpSumParams(a1, a2, a3, q, c)
            diff = abs(k2_full(params) - k2_stationary_phase(params))
            assert diff < 1e-9 * math.sqrt(c), (c, a1, a2, a3, q)


def test_count_critical_points():
    # c squarefree has c1 = 1: one empty class
    assert count_critical_points(ExpSumParams(5, 3, 2, 1, 30)) == 1
    # odd m with even c1 forces zero (the congruence needs m even mod 2)
    rng = random.Random(9)
    for c in (16, 64, 256, 2**10):
        for _ in range(5):
            m = 2 * rng.randrange(1, c // 2) + 1
            a = rng.randrange(1, c)
            assert count_critical_points(ExpSumParams(m, a, 0, 0, c)) == 0
    assert count_critical_points(ExpSumParams(1, 1, 0, 0, 49)) == 0
    # and the cubic-residue count caps it at 3^omega(c1) when gcd(c1, 3) = 1
    for a1, a2 in ((2, 1), (4, 3), (6, 5)):
        count = count_critical_points(ExpSumParams(a1, a2, 0, 0, 49))
        assert count <= 3


def _naive_critical_count(a1, a2, a3, q, c):
    # the definition, inverses taken mod c1; c1 = 1 is the single empty class
    c1, _ = stationary_split(c)
    if c1 == 1:
        return 1
    count = 0
    for w in range(1, c1 + 1):
        if gcd(w, c) != 1 or gcd(w + q, c) != 1:
            continue
        wi = pow(w % c1, -1, c1)
        yi = pow((w + q) % c1, -1, c1)
        count += (a1 - 2 * a2 * wi**3 - 2 * a3 * yi**3) % c1 == 0
    return count


def test_count_critical_points_matches_plain_loop():
    rng = random.Random(31)
    prime_powers = [p**e for p in (2, 3, 5, 7, 11, 13, 31, 97) for e in range(2, 14)
                    if p**e <= 10**4]
    for c in [*range(2, 301), *prime_powers]:
        for _ in range(3):
            a1, a2, a3 = (rng.randrange(-c, c) for _ in range(3))
            q = rng.randrange(-c, 1)  # q <= 0: w + q is often negative
            expected = _naive_critical_count(a1, a2, a3, q, c)
            assert count_critical_points(ExpSumParams(a1, a2, a3, q, c)) == expected, \
                (a1, a2, a3, q, c)


def test_zero_k2_when_no_critical_points():
    # the identity forces K2 = 0 whenever no residue mod c2 is critical
    params = ExpSumParams(1, 1, 0, 0, 49)
    assert abs(k2_full(params)) < 1e-12


def test_k2_q_average():
    assert k2_q_average(5, 3, 7, 1) == pytest.approx(15.0)  # c = 1: each |K2| = 1
    assert k2_q_average(0, 1, 4, 16) == pytest.approx(6.0, abs=1e-10)
    assert k2_q_average(1, 1, 4, 16) == pytest.approx(0.0, abs=1e-10)
    previous = 0.0
    for q_max in (0, 1, 2, 4, 8):
        value = k2_q_average(0, 1, q_max, 16)
        assert value >= previous - 1e-12
        previous = value


def test_k2_q_average_sp_threshold_consistency():
    # k2_q_average takes the direct form at c = 243; the stationary-phase
    # form must give the same average over the same q-range
    params = [ExpSumParams(0, 1, -1, q, 243) for q in range(-3, 4)]
    direct = sum(abs(k2_full(p)) for p in params)
    via_sp = sum(abs(k2_stationary_phase(p)) for p in params)
    assert direct == pytest.approx(via_sp, abs=1e-9)
    assert k2_q_average(0, 1, 3, 243) == pytest.approx(direct, abs=1e-12)


def test_k2_full_refuses_huge_modulus():
    with pytest.raises(ValueError):
        k2_full(ExpSumParams(1, 1, 0, 0, 10**7))
    # the stationary-phase route handles it (c2 = 3162 or so)
    value = k2_stationary_phase(ExpSumParams(1, 1, 0, 0, 10**8))
    assert abs(value) < 10.0


def triangle(u):
    return max(0.0, 1.0 - abs(u))


def test_poisson_triangle():
    rep = poisson_check(triangle, [1.0], support=(-1.0, 1.0), breakpoints=(0.0,))
    assert rep.lhs == pytest.approx(1.0)
    assert rep.difference < 1e-8


def test_poisson_psi_bump():
    g3 = [cmath.exp(2j * math.pi * y / 3) for y in range(3)]
    rep = poisson_check(PSI, g3)
    assert rep.lhs == pytest.approx(cmath.exp(2j * math.pi / 3) + cmath.exp(4j * math.pi / 3))
    assert rep.difference < 1e-8


def test_poisson_rhs_equals_plain_transform_loop():
    # one transform per |k| and the node cache change no bit of the dual sum
    q = 2
    g = [complex(math.cos(2 * math.pi * y / q), math.sin(2 * math.pi * y / q))
         for y in range(q)]
    rep = poisson_check(PSI, g)
    ghat = [sum(g[y % q] * cmath.exp(2 * math.pi * 1j * m * y / q) for y in range(1, q + 1))
            / math.sqrt(q) for m in range(q)]
    sqrt_q = math.sqrt(q)

    def ft(k):
        return fourier_transform(PSI, k, tol=expsum.POISSON_TOL * 1e-3)

    rhs = ft(0.0) * ghat[0] / sqrt_q
    for m in range(1, rep.m_cut + 1):
        term = ft(m / q) * ghat[m % q] / sqrt_q
        term += ft(-m / q) * ghat[(-m) % q] / sqrt_q
        rhs += term
    assert rep.rhs == rhs


def test_poisson_check_work_counts(monkeypatch):
    # one transform per |k| and one ramp evaluation per quadrature node and
    # order; a second call starts cold, so it does the same work
    frequencies, ramp_calls = [], [0]
    real_ft, real_ramp = expsum.fourier_transform, oscillate.ramp_derivative

    def counted_ft(f, k, **kwargs):
        frequencies.append(k)
        return real_ft(f, k, **kwargs)

    def counted_ramp(t, order=0):
        ramp_calls[0] += 1
        return real_ramp(t, order)

    monkeypatch.setattr(expsum, "fourier_transform", counted_ft)
    monkeypatch.setattr(oscillate, "ramp_derivative", counted_ramp)
    g3 = [cmath.exp(2j * math.pi * y / 3) for y in range(3)]
    counts = []
    for _ in range(2):
        frequencies.clear()
        ramp_calls[0] = 0
        rep = poisson_check(PSI, g3)
        assert sorted(frequencies) == [m / 3 for m in range(rep.m_cut + 1)]
        assert ramp_calls[0] < 10_000
        counts.append((len(frequencies), ramp_calls[0]))
    assert counts[0] == counts[1]


def test_poisson_zero_g():
    rep = poisson_check(PSI, [0.0, 0.0])
    assert rep.lhs == 0 and rep.rhs == 0


def test_poisson_tail_failure(monkeypatch):
    monkeypatch.setattr(expsum, "_POISSON_MAX_MODES", 4)
    with pytest.raises(PoissonTailError):
        poisson_check(triangle, [1.0], support=(-1.0, 1.0), breakpoints=(0.0,))
