import math
import random
from math import gcd

import numpy as np
import pytest
from hypothesis import given
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
    mod_inverse,
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


def test_mod_inverse_examples():
    assert mod_inverse(3, 10) == 7
    assert mod_inverse(1, 97) == 1
    assert mod_inverse(7, 990) == 283
    with pytest.raises(ValueError):
        mod_inverse(4, 10)


@given(st.integers(2, 10**9), st.integers(-(10**9), 10**9))
def test_mod_inverse_property(m, a):
    if gcd(a % m, m) != 1:
        a = 1
    v = mod_inverse(a, m)
    assert 0 <= v < m
    assert a * v % m == 1 % m


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


def test_cubic_bound_small():
    # solution count <= 3^omega(q) whenever gcd(q, 3) = 1
    for q in range(2, 1000):
        if gcd(q, 3) != 1:
            continue
        allowed = 3 ** arith.omega(q)
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


def test_euler_phi_and_omega():
    assert arith.euler_phi(1) == 1
    assert arith.euler_phi(45) == 24
    assert arith.omega(990) == 4
    assert arith.omega(1) == 0
