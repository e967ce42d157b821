import ast
import cmath
import math
import random
import tracemalloc
from math import gcd
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
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


BLOCK = expsum._K2_BLOCK


@pytest.mark.parametrize("c", dict.fromkeys(
    (1, 2, 3, 4, 8, 97, 486, 2048, 2**12, 2**14, 30030, 5**3 * 7**3,
     BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1, 13**4)))
def test_k2_full_equals_sequential_sum(c):
    # reduced mod c before any int64 product and summed in loop order, the
    # vectorised sum keeps every bit, with arguments far above c. Besides
    # random q: q = 0 and q = -1 mod c, and a q whose wrap of y = x + q past
    # c, at x = c - q = wrap (odd, so no block starts there), falls inside a
    # block of x
    rng = random.Random(c)
    wrap = c // 2 | 1
    for q in (None,) * (2 if c > 10**4 else 6) + (0, -1, -wrap):
        args = [rng.randrange(-10**15, 10**15) for _ in range(4)]
        if q is not None:
            args[3] = q + c * rng.randrange(-10**9, 10**9)
        assert k2_full(ExpSumParams(*args, c)) == sequential_k2(*args, c), args


def test_k2_full_memory_is_bounded():
    # a warm call at c = 3^12 holds a few arrays of one block besides the
    # tables (about 12 MB, built before tracing starts), not arrays of c
    c = 3**12
    params = ExpSumParams(2, 3, -3, 5, c)
    try:
        k2_full(params)
        tracemalloc.start()
        try:
            k2_full(params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    finally:
        expsum._k2_tables.cache_clear()
    assert peak <= 1 << 20, peak


# k2_full at the top of the direct domain, recorded as float.hex while it
# summed all of x mod c in one np.cumsum: c = 3^13 (K2 about 1.7e-14, pure
# cancellation, so any change in the order of the additions moves it) and
# the largest prime below K2_DIRECT_LIMIT
TOP_OF_THE_DIRECT_DOMAIN = {
    (1, 2, -2, 1, 3**13): ("-0x1.3230c28e4eb76p-46", "-0x1.40525e608d6edp-52"),
    (3, 5, -5, 7, 3**13): ("-0x1.3adb3448f1c2bp-46", "-0x1.f44673425d1c3p-51"),
    (1, 2, -2, 1, 1999993): ("0x1.d8c78dd1e0d1ep-1", "-0x1.855bd8cef59ecp-20"),
    (3, 5, -5, 7, 1999993): ("0x1.68133df00c142p-1", "-0x1.8535b7074a66ap-16"),
}


def test_k2_full_at_the_top_of_the_direct_domain():
    assert max(args[-1] for args in TOP_OF_THE_DIRECT_DOMAIN) < expsum.K2_DIRECT_LIMIT
    try:
        for args, (real, imag) in TOP_OF_THE_DIRECT_DOMAIN.items():
            value = k2_full(ExpSumParams(*args))
            assert (value.real.hex(), value.imag.hex()) == (real, imag), args
    finally:
        expsum._k2_tables.cache_clear()  # about 40 MB of tables


def test_sequential_comparison_sees_one_ulp(monkeypatch):
    # the bit comparison above can fail: the imaginary part of one root of
    # c = 97 moved by one ulp changes k2_full's bits. The root is that of
    # the last term added; the running total absorbs most earlier ones
    tables = expsum._k2_tables
    args = (1, 0, 0, 0)

    def moved(c):
        squares, roots = tables(c)
        roots = roots.copy()
        roots[96] = complex(roots[96].real, np.nextafter(roots[96].imag, 1.0))
        return squares, roots

    assert k2_full(ExpSumParams(*args, 97)) == sequential_k2(*args, 97)
    monkeypatch.setattr(expsum, "_k2_tables", moved)
    assert k2_full(ExpSumParams(*args, 97)) != sequential_k2(*args, 97)


# the moduli of perfbench's kloosterman-survey
SURVEY_MODULI = (2**12, 2**14, 3**8, 3**9, 5**6, 7**5, 11**4, 13**4,
                 10**4, 2 * 3 * 5 * 7 * 11 * 13, 2**6 * 3**5, 12**4, 5**3 * 7**3)


def test_k2_tables_against_cmath_exp_and_pow():
    # roots: numpy's cos and sin of the angles, which k2_stationary_phase
    # takes too, must give cmath.exp's bits. numpy does not promise libm's
    # bits, so this pins them on every angle of every c here, compared as
    # integers so that the sign of a zero counts (step * j / c is
    # TWO_PI * 1j * j / c, evaluated left to right). Inverse squares to
    # c = 2000, which covers lambda(c) = 1 and 2 (c | 24) and the halved
    # lambda of 2^a, a >= 3: pow(x, -2, c) itself to c = 300, above it the
    # one s in [0, c) with s x^2 = 1 mod c, which is the same value
    step = expsum.TWO_PI * 1j
    for c in (*range(2, 3001), *SURVEY_MODULI, 2**18):
        squares, roots = expsum._k2_tables.__wrapped__(c)
        expected = np.fromiter(map(cmath.exp, [step * j / c for j in range(c)]),
                               np.complex128, c)
        assert np.array_equal(roots.view(np.uint64), expected.view(np.uint64)), c
        if c <= 300:
            expected = [pow(x, -2, c) if gcd(x, c) == 1 else -1 for x in range(c)]
            assert squares.tolist() == expected, c
        elif c <= 2000:
            x = np.arange(c)
            units = np.gcd(x, c) == 1
            s = squares[units]
            assert (squares[~units] == -1).all() and (0 <= s).all() and (s < c).all(), c
            assert (s * x[units] % c * x[units] % c == 1).all(), c


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


def stationary_split(c):
    return expsum._critical_plan(c)[:2]


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


def _plain_critical_residues(params, c1, top, modulus):
    # the scalar loop that found the critical residues before the numpy
    # filter, kept as the reference: (w, w^-1, (w+q)^-1) for each w <= top,
    # inverses taken mod modulus
    c, a1, a2, a3, q = params.c, params.a1, params.a2, params.a3, params.q
    for w in range(1, top + 1):
        if gcd(w, c) != 1:
            continue
        wq = (w + q) % c
        if gcd(wq, c) != 1:
            continue
        wi = pow(w, -1, modulus)
        yi = pow(wq, -1, modulus)
        if (a1 - 2 * a2 * wi**3 - 2 * a3 * yi**3) % c1 == 0:
            yield w, wi, yi


def _plain_stationary_phase(params):
    c, a1, a2, a3 = params.c, params.a1, params.a2, params.a3
    c1, c2 = stationary_split(c)
    total = 0.0 + 0.0j
    for w, wi, yi in _plain_critical_residues(params, c1, c2, c):
        phase = (a1 * w + a2 * wi * wi + a3 * yi * yi) % c
        total += cmath.exp(expsum.TWO_PI * 1j * phase / c)
    return total * c1 / math.sqrt(c)


def _plain_critical_count(params):
    c1, _ = stationary_split(params.c)
    if c1 == 1:
        return 1
    return sum(1 for _ in _plain_critical_residues(params, c1, c1, c1))


def test_count_critical_points_matches_plain_loop():
    rng = random.Random(31)
    prime_powers = [p**e for p in (2, 3, 5, 7, 11, 13, 31, 97) for e in range(2, 14)
                    if p**e <= 10**4]
    for c in [*range(2, 301), *prime_powers]:
        for _ in range(3):
            a1, a2, a3 = (rng.randrange(-c, c) for _ in range(3))
            q = rng.randrange(-c, 1)  # q <= 0: w + q is often negative
            params = ExpSumParams(a1, a2, a3, q, c)
            assert count_critical_points(params) == _plain_critical_count(params), params


def _assert_filter_exact(params):
    assert repr(k2_stationary_phase(params)) == repr(_plain_stationary_phase(params)), params
    assert count_critical_points(params) == _plain_critical_count(params), params


def test_stationary_phase_equals_plain_loop_to_2000():
    rng = random.Random(2000)
    for c in range(2, 2001):
        a1, a2, a3 = (rng.randrange(-c, c) for _ in range(3))
        # q is odd only for c = 2 (mod 3), so that most even c have critical
        # points
        q = 2 * rng.randrange(-c, c + 1) + c % 3 // 2
        _assert_filter_exact(ExpSumParams(a1, a2, a3, q, c))


_PRIMES_BELOW_1000 = tuple(p for p in range(2, 1000) if all(p % d for d in range(2, p)))


@st.composite
def _moduli(draw):
    # a prime power or a composite up to 10**6; the reference walks every
    # w <= c2, so c2 is kept at most 10**5
    c = 1
    primes = st.one_of(st.sampled_from(_PRIMES_BELOW_1000[:6]),
                       st.sampled_from(_PRIMES_BELOW_1000))
    for p in draw(st.lists(primes, min_size=1, max_size=4, unique=True)):
        alpha = draw(st.integers(1, 12))
        while alpha and c * p**alpha > 10**6:
            alpha -= 1
        c *= p**alpha
    assume(c >= 2 and stationary_split(c)[1] <= 10**5)
    return c


@settings(max_examples=40)
@given(_moduli(), st.integers(-(2**70), 2**70), st.integers(-(2**70), 2**70),
       st.integers(-(2**70), 2**70), st.integers(-(2**70), 2**70))
def test_stationary_phase_equals_plain_loop_on_drawn_moduli(c, a1, a2, a3, q):
    _assert_filter_exact(ExpSumParams(a1, a2, a3, q, c))
    # small arguments of both signs, and q even
    _assert_filter_exact(ExpSumParams(a1 % 97 - 48, a2 % 89 - 44, a3 % 83 - 41,
                                      2 * (q % 61) - 60, c))


@pytest.mark.parametrize("c", (10**8, 65537**2))
def test_stationary_phase_equals_plain_loop_beyond_2_32(c):
    # c2 = 10**4 and 65537; c = 65537**2 is above 2**32
    rng = random.Random(c)
    for big in (False, True):
        args = [rng.randrange(-c, c) for _ in range(4)]
        if big:
            args = [v + rng.choice((-1, 1)) * 2**64 * rng.randrange(1, 2**10) for v in args]
        args[3] -= args[3] % 2  # q even
        _assert_filter_exact(ExpSumParams(*args, c))


def test_stationary_phase_negative_and_huge_arguments():
    for c in (2 * 3 * 5 * 7 * 11 * 13, 5**3 * 7**3, 2**12, 3**9, 12**4):
        for q in (-2, -c - 2, -(2**64) - 2, 2**64 + 4, -(2**80)):
            for a in ((3, 5, -5), (-(2**64) - 1, 2**65 + 7, -(2**66)), (2**100, -3, 2**64)):
                _assert_filter_exact(ExpSumParams(*a, q, c))


# the stationary-phase route: it must not read k2_full or its tables, so
# that comparing the two forms (criterion 4) compares two computations
STATIONARY_ROUTE = ("_critical_plan", "_critical_residues",
                    "k2_stationary_phase", "count_critical_points",
                    "_carmichael", "_power_mod")


def test_stationary_route_reads_no_direct_tables(monkeypatch):
    tree = ast.parse(Path(expsum.__file__).read_text(encoding="utf-8"))
    defs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    for name in STATIONARY_ROUTE:
        names = {n.id for n in ast.walk(defs[name]) if isinstance(n, ast.Name)}
        assert not names & {"_k2_tables", "k2_full", "k2"}, name

    def refuse(c):
        raise AssertionError("the stationary route read _k2_tables")

    monkeypatch.setattr(expsum, "_k2_tables", refuse)
    expsum._critical_plan.cache_clear()
    for c in (30030, 5**3 * 7**3, 2**14):
        params = ExpSumParams(3, 5, -5, 4, c)
        _assert_filter_exact(params)


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
