import math
import random
import time
from math import gcd

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from palindrome_lab import arith, census
from palindrome_lab.arith import (
    crt_combine,
    factorize,
    is_probable_prime,
    is_squarefree,
    kth_residue_solutions,
    mobius,
    squarefree_grid,
)
from palindrome_lab.streams import _grid_blocks, _segments_up_to


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


# the cube root of 2**63, the largest limit squarefree_grid asks for
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


# psi_t, the least strong pseudoprime to the first t prime bases, t = 1..13
# (Jaeschke, Math. Comp. 61, 1993; Sorenson and Webster, Math. Comp. 86,
# 2017): psi_7 = psi_8 and psi_9 = psi_10 = psi_11
PSI = (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
       341550071728321, 341550071728321, 3825123056546413051, 3825123056546413051,
       3825123056546413051, 318665857834031151167461, 3317044064679887385961981)


def test_psi_are_composite():
    # each psi_t passes Miller-Rabin to the first t prime bases, so a witness
    # set of only those calls it prime
    primes = arith.primes_up_to(41)
    for t, n in enumerate(PSI, 1):
        d, s = n - 1, 0
        while d % 2 == 0:
            d, s = d // 2, s + 1
        assert not any(arith._mr_witness(n, d, s, a) for a in primes[:t]), t
        assert not is_probable_prime(n), t


def test_psi_12_and_13_factor_and_mobius():
    psi12, psi13 = PSI[11], PSI[12]
    assert factorize(psi12) == {399165290221: 1, 798330580441: 1}
    assert factorize(psi13) == {1287836182261: 1, 2575672364521: 1}
    assert all(map(is_probable_prime, (399165290221, 798330580441,
                                       1287836182261, 2575672364521)))
    assert mobius(psi12) == 1
    assert mobius(2 * psi12) == -1
    assert is_squarefree(psi12)


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


def _one_column(values):
    # a plain array as a grid of one column
    return squarefree_grid(values, np.zeros(1, dtype=values.dtype))


@given(st.lists(INT64_VALUES, min_size=1, max_size=30))
def test_squarefree_grid_one_column_matches_scalar(values):
    mask = _one_column(np.array(values, dtype=np.int64))
    assert mask.dtype == bool
    assert mask.tolist() == [is_squarefree(n) for n in values]


def test_squarefree_grid_one_column_exhaustive_and_wide():
    values = np.arange(1, 10**5 + 1, dtype=np.int64)
    assert _one_column(values).tolist() == [is_squarefree(int(n)) for n in values]
    p, q = 2000003, 3000017
    wide = np.array([p * p * q, 2**64 + 1, 3 * 2**70], dtype=object)
    assert _one_column(wide).tolist() == [False, True, False]


def _kernel_against_scalar(b, segment, restricted):
    # the kernel against the scalar is_squarefree on the values the blocks
    # keep; the two share neither the hit search nor the settle step
    for high, low, keep in _grid_blocks(b, [segment], restricted):
        values = (high[:, None] + low[None, :]).ravel()
        mask = squarefree_grid(high, low, b**3 - b if restricted else 1)
        if keep is not None:
            mask, values = mask[keep], values[keep]
        expected = [is_squarefree(int(n)) for n in values.tolist()]
        assert mask.tolist() == expected, (b, segment, restricted)


def _segment_window(b, n_digits, at, size):
    # the run of at most size half-prefixes of the N-digit segment that
    # starts at the fraction `at` of it
    m = (n_digits + 1) // 2
    lo = b ** (m - 1) + int(at * (b**m - b ** (m - 1)))
    return n_digits, lo, min(lo + size, b**m)


@given(st.integers(2, 64), st.integers(1, 41), st.floats(0, 1), st.integers(1, 1000),
       st.booleans())
def test_squarefree_grid_matches_scalar_on_segments(b, n_digits, at, size, restricted):
    # values below 2**41, so that the scalar reference stays fast
    while b**n_digits >= 2**41:
        n_digits -= 1
    _kernel_against_scalar(b, _segment_window(b, n_digits, at, size), restricted)


def test_squarefree_grid_matches_scalar_at_the_edges():
    for restricted in (False, True):
        # a long binary segment: 2**16 values in 256 x 256
        _kernel_against_scalar(2, (33, 2**16, 2**17), restricted)
        for b in (2, 3, 10, 64):
            # the top of the longest digit length below 2**63, and of the
            # partial segment cut at 2**63 - 1 (that value itself in base 2)
            n_digits = 1
            while b ** (n_digits + 1) < 2**63:
                n_digits += 1
            _kernel_against_scalar(b, _segment_window(b, n_digits, 1 - 1e-9, 40), restricted)
            cut = _segments_up_to(b, 2**63 - 1)[-1]
            _kernel_against_scalar(b, (cut[0], max(cut[1], cut[2] - 40), cut[2]), restricted)
        # a run across 2**63: the values of 2**63 and above go value by value
        h_cross = 2**63 // 10**9 + 1
        _kernel_against_scalar(10, (19, h_cross - 20, h_cross + 20), restricted)


def test_grid_hits_come_in_bounded_blocks():
    # the unrestricted 11-digit grid of 900 x 1000 values, where 2, 3 and 5
    # each divide more than _MASK_BLOCK values: no block of hits holds more
    # than _MASK_BLOCK of them, or the largest run of one column and prime
    # if that is longer, and the blocks hold every hit once
    ((high, low, _),) = _grid_blocks(10, [(11, 10**5, 10**6)], False)
    primes = arith._prime_table_to(arith._icbrt(int(high[-1] + low[-1])))
    # per prime, the rows matching each column: the rows of residue -low[j]
    runs = {p: np.bincount(high % p, minlength=p)[-low % p] for p in primes.tolist()}
    expected = {p: int(run.sum()) for p, run in runs.items()}
    assert min(expected[2], expected[3], expected[5]) > arith._MASK_BLOCK
    bound = max(arith._MASK_BLOCK, max(int(run.max()) for run in runs.values()))
    found = dict.fromkeys(expected, 0)
    for rows, hit in arith._grid_hits(high, low, primes):
        assert len(rows) <= bound
        assert ((high[rows // len(low)] + low[rows % len(low)]) % hit == 0).all()
        for p, count in zip(*np.unique(hit, return_counts=True)):
            found[int(p)] += int(count)
    assert found == expected


def test_object_grid_tests_only_coprime_values(monkeypatch):
    # the restricted b = 10, 19-digit run of 4,000 half-prefixes across
    # 2**63: an object grid gives the scalar test only the 2,424 values
    # coprime to b**3 - b, the ones the blocks keep; the counts are those
    # of testing every value
    h_cross = 2**63 // 10**9 + 1
    blocks = list(_grid_blocks(10, [(19, h_cross - 2000, h_cross + 2000)], True))
    assert all(high.dtype == object for high, _, _ in blocks)
    kept = [n for high, low, keep in blocks
            for n in (high[:, None] + low[None, :]).ravel()[keep].tolist()]
    calls = []
    monkeypatch.setattr(arith, "is_squarefree", lambda n: calls.append(n) or is_squarefree(n))
    record = census._census(10, blocks, True, "max", 2**63, 0.0)
    assert calls == kept and len(kept) == 2424
    assert (record.total, record.squarefree) == (2424, 2315)


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
    assert kth_residue_solutions(1, 3, 3**6) == [1, 244, 487]
    assert kth_residue_solutions(5, 3, 8) == [5]
    assert kth_residue_solutions(2, 3, 9) == []
    # the only unit mod 2 is 1, so solutions exist exactly for odd a
    assert kth_residue_solutions(3, 3, 2) == [1]
    assert kth_residue_solutions(4, 3, 2) == []


@pytest.mark.parametrize("k", (-3, 0, 1, 2, 4, 5, 6, 9))
def test_kth_residue_refuses_other_exponents(k):
    with pytest.raises(ValueError, match="only cube roots"):
        kth_residue_solutions(1, k, 7)


def brute_roots(a, q):
    return sorted(w for w in range(1, q) if gcd(w, q) == 1 and pow(w, 3, q) == a % q)


def test_kth_residue_matches_bruteforce_small():
    for q in range(2, 500):
        power_map = {}
        for w in range(1, q):
            if gcd(w, q) == 1:
                power_map.setdefault(pow(w, 3, q), []).append(w)
        for a in range(q):
            assert kth_residue_solutions(a, 3, q) == power_map.get(a, []), (a, q)


def test_kth_residue_matches_bruteforce_sampled():
    rng = random.Random(5)
    for _ in range(150):
        q = rng.randrange(500, 10**4)
        a = rng.randrange(q)
        assert kth_residue_solutions(a, 3, q) == brute_roots(a, q)


def test_kth_residue_interleaved_exponents_and_moduli():
    # the CRT plan is cached per modulus; with an odd number of moduli taken
    # in turn, each modulus is revisited with fresh residues, cubes and not,
    # and must not see the last a; a refused k between the calls leaves no
    # trace either
    rng = random.Random(11)
    moduli = (2 * 5 * 7 * 13, 2**3 * 3**2 * 7, 11**2 * 19, 997, 4 * 7 * 11**2)
    for i in range(400):
        q = moduli[i % len(moduli)]
        a = pow(rng.randrange(1, q), 3, q) if i % 4 < 2 else rng.randrange(q)
        assert kth_residue_solutions(a, 3, q) == brute_roots(a, q), (a, q)
        with pytest.raises(ValueError):
            kth_residue_solutions(a, 2, q)


def test_kth_residue_hensel_path():
    # Newton's step lifts the roots mod 5 to 5**9; mod 3**13 the three lifts
    # of each root mod 3**j are tried
    assert kth_residue_solutions(9, 3, 5**9) == [1863694]
    pa = 3**13
    for a in (11, 8, pow(2021, 3, pa)):
        got = kth_residue_solutions(a, 3, pa)
        assert all(pow(w, 3, pa) == a for w in got)
        assert got == _cube_roots_by_scan(a, pa), a
    assert len(got) == 3


def _cube_root_count(a, q):
    # multiplicative over q's prime powers: 1 per 2**alpha, per 3 and per
    # p = 2 (mod 3), where cubing permutes the units; per 3**alpha (alpha >=
    # 2) 3 when a = +-1 (mod 9), else 0; per p = 1 (mod 3) 3 when a is a
    # cube mod p by Euler's criterion, else 0
    count = 1
    for p, alpha in factorize(q).items():
        if a % p == 0:
            return 0
        if p == 3 and alpha >= 2:
            count *= 3 if a % 9 in (1, 8) else 0
        elif p % 3 == 1:
            count *= 3 if pow(a, (p - 1) // 3, p) == 1 else 0
    return count


def _unit_near(r, q):
    while gcd(r, q) != 1:
        r += 1
    return r


def _check_cube_roots(a, q, roots, seeded=None):
    assert roots == sorted(set(roots))
    assert all(pow(w, 3, q) == a % q and gcd(w, q) == 1 for w in roots)
    assert len(roots) == _cube_root_count(a, q), (a, q)
    if seeded is not None:
        assert seeded % q in roots


# prime powers above 10**6 on each route: p = 2 (Newton's step from w = 1),
# p = 3 (the lifts tried) and p > 10**6, above any scan mod p; no scan of
# Z/q here passes 2 * 10**7
ONCE_REFUSED = (2**20, 2**21, 3**13, 3**14, 1000003, 1000033, 1000003**2)


def test_cube_roots_on_moduli_once_refused():
    for q in ONCE_REFUSED:
        rng = random.Random(q)
        seeded = [_unit_near(rng.randrange(1, q), q) for _ in range(3)]
        cases = [(pow(r, 3, q), r) for r in seeded] + [(r, None) for r in seeded]
        cases += [(1, 1), (q - 1, q - 1), (2, None)]
        if q <= 2 * 10**7:
            # one scan of the units' cubes serves every a
            w = np.arange(q, dtype=np.int64)
            w = w[np.gcd(w, q) == 1]
            cubes = w * w % q * w % q
        for a, r in cases:
            roots = kth_residue_solutions(a, 3, q)
            _check_cube_roots(a, q, roots, seeded=r)
            if q <= 2 * 10**7:
                assert roots == w[cubes == a].tolist(), (a, q)


@pytest.mark.parametrize("q", (3**80, 2**126, (2**61 - 1) * (10**9 + 7) * 7**5))
def test_cube_roots_on_wide_moduli(q):
    # the first call factorizes q into the cached CRT plan; the roots
    # themselves take under 5 ms a call
    kth_residue_solutions(1, 3, q)
    rng = random.Random(q)
    for _ in range(3):
        r = _unit_near(rng.randrange(1, q), q)
        a = pow(r, 3, q)
        start = time.perf_counter()
        roots = kth_residue_solutions(a, 3, q)
        elapsed = time.perf_counter() - start
        _check_cube_roots(a, q, roots, seeded=r)
        assert elapsed < 5e-3, elapsed


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


def _fresh_root_constants(p):
    # the values _cube_roots_mod_p used to compute on every call, written out
    # step by step
    n = p - 1
    if gcd(3, n) == 1:
        return pow(3, -1, n)
    t, s = n, 0
    while t % 3 == 0:
        t //= 3
        s += 1
    g = next(g for g in range(2, p) if pow(g, n // 3, p) != 1)
    z = pow(g, t, p)
    zeta = pow(z, 3 ** (s - 1), p)
    u = pow(t, -1, 3)
    return t, s, z, zeta, pow(z, -1, p), u, (1 - u * t) // 3


def test_root_constants_match_fresh_values():
    arith._root_constants.cache_clear()
    primes = arith.primes_up_to(5000)
    for p in primes:
        assert arith._root_constants(p) == _fresh_root_constants(p), p
    # a second pass is served from the cache, which is bounded
    before = arith._root_constants.cache_info()
    for p in primes:
        assert arith._root_constants(p) == _fresh_root_constants(p), p
    after = arith._root_constants.cache_info()
    assert after.hits - before.hits == len(primes)
    assert after.currsize <= after.maxsize


def test_kth_residue_solutions_on_primes_below_5000():
    # against the cubes of every unit; the first residue of each p computes
    # the cached constants, the others read them
    arith._root_constants.cache_clear()
    rng = random.Random(23)
    for p in arith.primes_up_to(5000):
        w = np.arange(1, p, dtype=np.int64)
        power = w * w % p * w % p
        residues = {1, p - 1, *(rng.randrange(p) for _ in range(3)),
                    *(int(power[rng.randrange(p - 1)]) for _ in range(3))}
        for a in sorted(residues):
            assert kth_residue_solutions(a, 3, p) == w[power == a].tolist(), (a, p)


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

