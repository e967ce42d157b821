import math
import random
from math import gcd

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from palindrome_lab import arith
from palindrome_lab.arith import (
    UnsupportedModulusError,
    crt_combine,
    factorize,
    is_probable_prime,
    is_squarefree,
    kth_residue_solutions,
    mobius,
    squarefree_mask,
)


def naive_mobius_sieve(limit):
    mu = np.ones(limit + 1, dtype=np.int64)
    primes = []
    sieve = np.ones(limit + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, limit + 1):
        if sieve[p]:
            primes.append(p)
            sieve[p * p :: p] = False
    for p in primes:
        mu[p::p] *= -1
        mu[p * p :: p * p] = 0
    return mu


# the cube root of 2**63, the largest limit squarefree_mask asks for
PRIME_LIMITS = (10**4, 10007, 2 * 10**4 + 1, 10**6, 2_097_151)


def _primes_by_trial_division(limit):
    # strike every candidate that a smaller survivor d <= sqrt(limit)
    # divides; the smallest survivor above the last d struck with is prime
    candidates = np.arange(2, limit + 1, dtype=np.int64)
    i = 0
    while candidates[i] ** 2 <= limit:
        d = candidates[i]
        candidates = candidates[(candidates % d != 0) | (candidates == d)]
        i += 1
    return candidates.tolist()


@pytest.mark.parametrize("limits", (PRIME_LIMITS, PRIME_LIMITS[::-1]),
                         ids=("ascending", "descending"))
def test_primes_up_to_matches_trial_division(monkeypatch, limits):
    oracle = _primes_by_trial_division(max(limits))
    monkeypatch.setattr(arith, "_prime_table", np.empty(0, dtype=np.int64))
    monkeypatch.setattr(arith, "_prime_table_limit", 0)
    for limit in limits:
        primes = arith.primes_up_to(limit)
        assert list(primes) == [p for p in oracle if p <= limit], limit
        assert all(type(p) is int for p in primes)
        table = arith._prime_table_to(limit)
        assert table.dtype == np.int64 and not table.flags.writeable
        with pytest.raises(ValueError):
            table[0] = 4


def test_factorize_examples():
    assert factorize(12) == {2: 2, 3: 1}
    assert factorize(990) == {2: 1, 3: 2, 5: 1, 11: 1}
    n = 10**12 + 39
    assert factorize(n) == {n: 1}
    assert is_probable_prime(n)


def test_factorize_roundtrip_random():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randrange(2, 10**12)
        fac = factorize(n)
        prod = 1
        for p, a in fac.items():
            assert is_probable_prime(p)
            prod *= p**a
        assert prod == n
        assert list(fac) == sorted(fac)


def test_factorize_large_semiprime():
    p, q = 1000003, 1000033
    assert factorize(p * q) == {p: 1, q: 1}
    assert factorize(p * p) == {p: 2}


def test_factorize_trial_division_stops_at_1e4(monkeypatch):
    # the shared prime cache may reach 10**6; trial division must still stop
    # at 10**4 and hand the whole cofactor to Pollard rho
    arith.primes_up_to(10**6)
    p1, p2, p3 = 10**6 + 3, 10**9 + 7, 10**11 + 3
    cofactors = []
    real = arith._factor_into

    def recorded(n, out):
        cofactors.append(n)
        real(n, out)

    monkeypatch.setattr(arith, "_factor_into", recorded)
    assert factorize(p1 * p2 * p3) == {p1: 1, p2: 1, p3: 1}
    assert factorize(2**3 * 9973 * p1**2) == {2: 3, 9973: 1, p1: 2}
    # 999983 is in the cache but above 10**4, so trial division leaves it
    cofactors.clear()
    assert factorize(999983 * p2) == {999983: 1, p2: 1}
    assert cofactors[0] == 999983 * p2


def test_factorize_below_1e8_runs_no_primality_test(monkeypatch):
    # trial division reaches every prime up to min(sqrt(n), 10**4); what is
    # left of n < 10**8 is 1 or a prime and is recorded without a test
    def refuse(n):
        raise AssertionError(f"is_probable_prime({n}) called")

    monkeypatch.setattr(arith, "is_probable_prime", refuse)
    rng = random.Random(13)
    values = [rng.randrange(2, 10**8) for _ in range(3000)]
    values += [99999989, 9973 * 10007, 9973**2, 2 * 49999991, 10007, 9973, 2, 97 * 103]
    for n in values:
        fac = factorize(n)
        assert math.prod(p**e for p, e in fac.items()) == n
        assert list(fac) == sorted(fac)
    assert factorize(99999989) == {99999989: 1}
    assert factorize(9973 * 10007) == {9973: 1, 10007: 1}


def test_factorize_range_errors():
    with pytest.raises(ValueError):
        factorize(1)
    with pytest.raises(ValueError):
        factorize(2**127)


def test_primality_small_exhaustive():
    sieve = [True] * 10000
    sieve[0] = sieve[1] = False
    for i in range(2, 100):
        if sieve[i]:
            for j in range(i * i, 10000, i):
                sieve[j] = False
    for n in range(10000):
        assert is_probable_prime(n) == sieve[n], n


def test_primality_large():
    assert is_probable_prime(2**89 - 1)  # Mersenne prime
    assert not is_probable_prime(2**89 + 1)
    assert not is_probable_prime(3215031751)  # strong pseudoprime to 2,3,5,7


def test_mobius_examples():
    assert mobius(1) == 1
    assert mobius(4) == 0
    assert mobius(30) == -1


def test_squarefree_examples():
    assert not is_squarefree(121)
    assert is_squarefree(131)
    assert is_squarefree(1)


def test_mobius_squarefree_exhaustive_to_1e6():
    mu = naive_mobius_sieve(10**6)
    for n in range(1, 10**6 + 1):
        m = mobius(n)
        assert m == mu[n], n
        assert (m == 0) == (not is_squarefree(n)), n


def test_squarefree_against_factorization_oracle():
    rng = random.Random(11)
    for _ in range(10**4):
        n = rng.randrange(1, 10**12)
        by_factorization = all(a < 2 for a in factorize(n).values()) if n > 1 else True
        assert is_squarefree(n) == by_factorization, n


# primes above the 10**6 trial-division bound: products of three of them pass
# 10**18, where the cofactor left by trial division can hold three primes
WIDE_PRIMES = (1000003, 2000003, 3000017, 4000037, 5000011, 10000019)


def test_squarefree_and_mobius_above_1e18():
    p, q, r = 2000003, 3000017, 4000037
    assert not is_squarefree(p * p * q)
    assert mobius(p * p * q) == 0
    assert is_squarefree(p * q * r)
    assert mobius(p * q * r) == -1
    assert mobius(p * q) == 1


@given(st.lists(st.sampled_from(WIDE_PRIMES), min_size=3, max_size=5))
def test_squarefree_mobius_wide_products(primes):
    n = math.prod(primes)
    exponents = [primes.count(p) for p in set(primes)]
    squarefree = max(exponents) == 1
    assert is_squarefree(n) == squarefree
    assert mobius(n) == ((-1) ** len(primes) if squarefree else 0)


INT64_MAX = 2**63 - 1
# the largest primes below sqrt(2**63): their squares are the int64 values
# where the mask's float square root and the square r * r come closest to
# overflowing
PRIMES_BELOW_INT64_ROOT = (3037000427, 3037000429, 3037000453, 3037000493)

INT64_VALUES = st.one_of(
    st.integers(1, 10**6),
    st.integers(1, INT64_MAX),
    st.integers(INT64_MAX - 10**6, INT64_MAX),
    st.sampled_from(PRIMES_BELOW_INT64_ROOT).map(lambda p: p * p),
    # perfect cubes and their neighbours, up to the largest cube in int64
    st.builds(lambda k, e: k**3 + e, st.integers(2, 2097151), st.integers(-1, 1)),
    # a prime square just above the cube root times a small factor
    st.builds(lambda p, k: p * p * k, st.sampled_from(WIDE_PRIMES), st.integers(1, 9)),
    # three primes above 10**6: the cube root of the batch passes 10**6
    st.lists(st.sampled_from(WIDE_PRIMES[:4]), min_size=3, max_size=3).map(math.prod)
    .filter(lambda n: n <= INT64_MAX),
)


@given(st.lists(INT64_VALUES, min_size=1, max_size=30))
def test_squarefree_mask_matches_scalar(values):
    mask = squarefree_mask(np.array(values, dtype=np.int64))
    assert mask.dtype == bool
    assert mask.tolist() == [is_squarefree(n) for n in values]


def test_squarefree_mask_exhaustive_and_wide():
    values = np.arange(1, 10**5 + 1, dtype=np.int64)
    assert squarefree_mask(values).tolist() == [is_squarefree(int(n)) for n in values]
    p, q = 2000003, 3000017
    wide = np.array([p * p * q, 2**64 + 1, 3 * 2**70], dtype=object)
    assert squarefree_mask(wide).tolist() == [False, True, False]
    assert squarefree_mask(np.zeros(0, dtype=np.int64)).tolist() == []
    with pytest.raises(ValueError):
        squarefree_mask(np.array([5, 0], dtype=np.int64))


def test_strip_small_primes_paths_agree():
    # the prime-by-prime walk below _RESIDUE_SIEVE_FROM and the numpy
    # reduction above it, run on the same values
    rng = random.Random(7)
    values = [rng.randrange(10**6, 2**127) for _ in range(40)]
    values += [p * p * rng.randrange(1, 10**12) for p in (2, 3, 7919, 999983)]
    values += [math.prod(arith.primes_up_to(97)), 2**126, 3**80]
    for n in values:
        limit = min(arith._icbrt(n), 10**6)
        walked = [p for p in arith.primes_up_to(limit) if n % p == 0]
        assert arith._small_prime_divisors(n, limit) == walked, n


@given(st.integers(1, 2**42))
@example(2**42)
def test_icbrt_at_cubes_and_their_neighbours(n):
    # n**3 + 1 <= 2**126 + 1, inside the advertised domain below 2**127
    cube = n**3
    assert arith._icbrt(cube - 1) == n - 1
    assert arith._icbrt(cube) == n
    assert arith._icbrt(cube + 1) == n


def test_kth_residue_examples():
    assert kth_residue_solutions(1, 3, 7) == [1, 2, 4]
    assert kth_residue_solutions(2, 2, 8) == []
    assert kth_residue_solutions(4, 2, 2**10) == []
    assert kth_residue_solutions(1, 3, 3**6) == [1, 244, 487]
    # the only unit mod 2 is 1, so solutions exist exactly for odd a
    for k in (1, 2, 3, 5):
        assert kth_residue_solutions(3, k, 2) == [1]
        assert kth_residue_solutions(4, k, 2) == []


def brute_roots(a, k, q):
    return sorted(w for w in range(1, q) if gcd(w, q) == 1 and pow(w, k, q) == a % q)


@pytest.mark.parametrize("k", (2, 3))
def test_kth_residue_matches_bruteforce_small(k):
    for q in range(2, 500):
        power_map = {}
        for w in range(1, q):
            if gcd(w, q) == 1:
                power_map.setdefault(pow(w, k, q), []).append(w)
        for a in range(q):
            assert kth_residue_solutions(a, k, q) == power_map.get(a, []), (a, k, q)


def test_kth_residue_matches_bruteforce_sampled():
    rng = random.Random(5)
    for _ in range(150):
        q = rng.randrange(500, 10**4)
        k = rng.choice((2, 3))
        a = rng.randrange(q)
        assert kth_residue_solutions(a, k, q) == brute_roots(a, k, q)


def test_kth_residue_interleaved_exponents_and_moduli():
    # the CRT plan is cached per modulus; with an odd number of moduli taken
    # in turn and k alternating, each modulus is revisited with both k and
    # fresh residues, and must see neither the last k nor the last a
    rng = random.Random(11)
    moduli = (2 * 5 * 7 * 13, 2**3 * 3**2 * 7, 11**2 * 19, 997, 4 * 7 * 11**2)
    for i in range(400):
        q = moduli[i % len(moduli)]
        k = 2 + i % 2
        a = pow(rng.randrange(1, q), k, q) if i % 4 < 2 else rng.randrange(q)
        assert kth_residue_solutions(a, k, q) == brute_roots(a, k, q), (a, k, q)


def test_kth_residue_hensel_path():
    # prime powers above the exhaustive limit exercise lifting from mod p
    assert 5**9 > arith.EXHAUSTIVE_PRIME_POWER_LIMIT
    assert kth_residue_solutions(9, 3, 5**9) == [1863694]
    pa = 3**13
    got = kth_residue_solutions(7, 2, pa)
    for w in got:
        assert pow(w, 2, pa) == 7 % pa
    assert got == brute_roots(7, 2, pa)


def test_kth_residue_unsupported():
    with pytest.raises(UnsupportedModulusError):
        kth_residue_solutions(1, 2, 2**21)  # p = 2 beyond exhaustive range
    with pytest.raises(UnsupportedModulusError):
        kth_residue_solutions(1, 3, 3**14)  # p | k beyond exhaustive range
    big_prime = 1000003
    with pytest.raises(UnsupportedModulusError):
        kth_residue_solutions(1, 3, big_prime**2)


def _v3(n):
    return next(k for k in range(n) if n % 3 ** (k + 1))


# prime powers in (2048, 2*10**5] where the cube-root route changes: p = 2
# (Newton lifting from w = 1), p = 3 (p divides k, so lifts are tried) and
# primes whose p - 1 has a large 3-adic part, where Adleman-Manders-Miller
# reads several base-3 digits; 487 and 1459 (3**5 and 3**6 divide p - 1) sit
# just below the band
CUBE_ROOT_MODULI = (
    *(2**alpha for alpha in range(12, 18)),
    *(3**alpha for alpha in range(7, 12)),
    163**2, 7**5, 13**4, 19**3, 487, 1459,
    *(p for p in arith.primes_up_to(2 * 10**5) if p > 2048 and _v3(p - 1) >= 6),
)


def _cube_roots_by_scan(a, q):
    w = np.arange(q, dtype=np.int64)
    hit = (w * w % q * w % q == a % q) & (np.gcd(w, q) == 1)
    return w[hit].tolist()


@given(st.sampled_from(CUBE_ROOT_MODULI), st.integers(0, 10**12), st.booleans())
def test_cube_roots_match_scan_on_prime_powers(q, r, cube):
    # half the residues are cubes of a unit, so that roots exist
    a = pow(r % (q - 1) + 1, 3, q) if cube else r
    assert kth_residue_solutions(a, 3, q) == _cube_roots_by_scan(a, q)


def test_cube_roots_below_1e6_match_euler_criterion():
    # p = 2 (mod 3) has one cube root per unit, p = 1 (mod 3) three or none,
    # and a is a cube mod p exactly when a**((p-1)/3) = 1
    rng = random.Random(17)
    primes = [p for p in arith.primes_up_to(10**6) if p > 999_900]
    assert {p % 3 for p in primes} == {1, 2}
    for p in primes:
        residues = [1, p - 1, *(rng.randrange(1, p) for _ in range(20)),
                    *(pow(rng.randrange(1, p), 3, p) for _ in range(20))]
        for a in residues:
            roots = kth_residue_solutions(a, 3, p)
            assert all(pow(w, 3, p) == a for w in roots)
            assert roots == sorted(set(roots))
            if p % 3 == 2:
                expected = 1
            else:
                expected = 3 if pow(a, (p - 1) // 3, p) == 1 else 0
            assert len(roots) == expected, (a, p)
        assert kth_residue_solutions(0, 3, p) == []


def test_cubic_bound_small():
    # solution count <= 3^omega(q) whenever gcd(q, 3) = 1
    for q in range(2, 1000):
        if gcd(q, 3) != 1:
            continue
        allowed = 3 ** len(factorize(q))
        counts = {}
        for w in range(1, q):
            if gcd(w, q) == 1:
                c = pow(w, 3, q)
                counts[c] = counts.get(c, 0) + 1
        assert max(counts.values()) <= allowed, q


def test_crt_examples():
    assert crt_combine([(1, 3), (2, 5)]) == (7, 15)
    assert crt_combine([(0, 2)]) == (0, 2)
    r, m = crt_combine([(2, 7), (3, 11), (5, 13)])
    assert m == 1001
    expected = [v for v in range(1001) if v % 7 == 2 and v % 11 == 3 and v % 13 == 5]
    assert [r] == expected
    with pytest.raises(ValueError):
        crt_combine([(1, 6), (2, 4)])


@given(
    st.lists(
        st.tuples(st.integers(0, 10**6), st.sampled_from((3, 5, 7, 11, 13, 16))),
        min_size=1,
        max_size=4,
        unique_by=lambda t: t[1],
    )
)
def test_crt_property(pairs):
    r, m = crt_combine(pairs)
    assert 0 <= r < m
    for ri, mi in pairs:
        assert r % mi == ri % mi

