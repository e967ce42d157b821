"""Exact integer arithmetic: primality, factorization, Mobius, cube roots, CRT.

Everything here works on plain Python integers (exact, arbitrary precision);
factorization, and with it the cube roots mod q, is supported below 2**127.
squarefree_grid applies the square-free test to a grid of palindromes
high[i] + low[j] at once (the census kernel), and with one column to a plain
array, finding the primes that divide each value by meet in the middle.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd, isqrt

import numpy as np

FACTOR_LIMIT = 1 << 127

# The first 13 prime bases, a deterministic Miller-Rabin witness set below
# psi_13, the least strong pseudoprime to all of them (Sorenson and Webster,
# "Strong pseudoprimes to twelve prime bases", Math. Comp. 86, 2017).
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_DETERMINISTIC_BOUND = 3317044064679887385961981

# ---------------------------------------------------------------------------
# prime table (a read-only int64 array, grown by replacement; safe to share)
# ---------------------------------------------------------------------------

_prime_table = np.empty(0, dtype=np.int64)
_prime_table_limit = 0


def _prime_table_to(limit: int) -> np.ndarray:
    """The primes <= limit as a read-only int64 array, a view of the cached
    table; a larger limit re-sieves it to max(limit, twice its bound, 10**4)."""
    global _prime_table, _prime_table_limit
    if limit > _prime_table_limit:
        new_limit = max(limit, 2 * _prime_table_limit, 10**4)
        sieve = np.ones(new_limit + 1, dtype=bool)
        sieve[:2] = False
        for p in range(2, isqrt(new_limit) + 1):
            if sieve[p]:
                sieve[p * p :: p] = False
        _prime_table = np.flatnonzero(sieve).astype(np.int64, copy=False)
        _prime_table.flags.writeable = False
        _prime_table_limit = new_limit
    return _prime_table[: np.searchsorted(_prime_table, limit, side="right")]


def primes_up_to(limit: int) -> tuple[int, ...]:
    """All primes <= limit as Python ints, from the cached table."""
    return tuple(_prime_table_to(limit).tolist())


# The primes up to 10007, the first prime above 10**4, for the scalar trial
# division of factorize and of _strip_small_primes below 10**8.
_SMALL_PRIMES = primes_up_to(10007)


# ---------------------------------------------------------------------------
# primality
# ---------------------------------------------------------------------------

def _mr_witness(n: int, d: int, s: int, a: int) -> bool:
    # returns True if a witnesses compositeness of n
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return False
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return False
    return True


def _jacobi(a: int, n: int) -> int:
    # n odd positive
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _strong_lucas_prp(n: int) -> bool:
    # strong Lucas test with Selfridge parameters; n odd, not a perfect square
    d = 5
    while True:
        j = _jacobi(d, n)
        if j == -1:
            break
        if j == 0 and abs(d) != n:
            return False
        d = -(d + 2) if d > 0 else -(d - 2)
    p, q = 1, (1 - d) // 4
    # factor n+1 = k * 2^s
    k, s = n + 1, 0
    while k % 2 == 0:
        k //= 2
        s += 1
    u, v, qk = 1, p, q
    for bit in bin(k)[3:]:
        u = u * v % n
        v = (v * v - 2 * qk) % n
        qk = qk * qk % n
        if bit == "1":
            u, v = (p * u + v) % n, (d * u + p * v) % n
            if u % 2:
                u += n
            if v % 2:
                v += n
            u, v = u // 2 % n, v // 2 % n
            qk = qk * q % n
    if u == 0 or v == 0:
        return True
    for _ in range(s - 1):
        v = (v * v - 2 * qk) % n
        if v == 0:
            return True
        qk = qk * qk % n
    return False


def is_probable_prime(n: int) -> bool:
    """Primality test: deterministic below 3.3e24, BPSW above (no known
    counterexamples)."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    if n < _MR_DETERMINISTIC_BOUND:
        return not any(_mr_witness(n, d, s, a) for a in _MR_WITNESSES)
    if _mr_witness(n, d, s, 2):
        return False
    r = isqrt(n)
    if r * r == n:
        return False
    return _strong_lucas_prp(n)


# ---------------------------------------------------------------------------
# factorization
# ---------------------------------------------------------------------------

def _pollard_brent(n: int) -> int:
    # Brent's cycle variant of Pollard rho; n odd composite, not a prime power
    # of a small prime. Deterministic: constants tried in a fixed order.
    if n % 2 == 0:
        return 2
    for c in range(1, 1000):
        y, m, g, r, q = 2, 128, 1, 1, 1
        x = ys = 0
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g
    raise ArithmeticError(f"pollard rho failed on {n}")  # pragma: no cover


def _factor_into(n: int, out: dict[int, int]) -> None:
    if n == 1:
        return
    if is_probable_prime(n):
        out[n] = out.get(n, 0) + 1
        return
    d = _pollard_brent(n)
    _factor_into(d, out)
    _factor_into(n // d, out)


def factorize(n: int) -> dict[int, int]:
    """Complete prime factorization as {prime: exponent}, keys sorted."""
    if not 2 <= n < FACTOR_LIMIT:
        raise ValueError(f"factorize requires 2 <= n < 2**127, got {n}")
    fac: dict[int, int] = {}
    # trial division stops at p > 10**4 (the last prime of _SMALL_PRIMES) or
    # at p**2 > n. No prime below p divides the cofactor n, so n < p**2 is 1
    # or a prime, and Pollard rho takes any other n
    for p in _SMALL_PRIMES:
        if p > 10**4 or p * p > n:
            break
        while n % p == 0:
            fac[p] = fac.get(p, 0) + 1
            n //= p
    if n >= p * p:
        _factor_into(n, fac)
    elif n > 1:
        fac[n] = 1
    return dict(sorted(fac.items()))


# ---------------------------------------------------------------------------
# squarefree / Mobius
# ---------------------------------------------------------------------------

# Trial division runs to min(n^(1/3), 10**6); a cofactor left below this
# bound has no prime factor below its cube root, so at most two primes.
_TWO_PRIME_COFACTOR_BOUND = 10**18


def _cofactor_exponents(m: int, count_primes: bool) -> list[int]:
    """Prime exponents of a cofactor m > 1 left by trial division.

    Below _TWO_PRIME_COFACTOR_BOUND m is a prime, a prime square or a product
    of two distinct primes; above it, a non-square composite is factored. A
    perfect square reads as [2] without its root being split. Without
    count_primes a square-free m below the bound reads as [1], which spares
    a primality test when only square-freeness matters.
    """
    r = isqrt(m)
    if r * r == m:
        return [2]
    if m < _TWO_PRIME_COFACTOR_BOUND:
        if not count_primes:
            return [1]
        return [1] if is_probable_prime(m) else [1, 1]
    if is_probable_prime(m):
        return [1]
    return list(factorize(m).values())


# From this n on, _strip_small_primes finds the primes that divide n with
# one numpy reduction over its whole prime range instead of dividing prime
# by prime; the two cost about the same near 10**8 (≈9 µs per call on a
# 2-core x86 host), and at 10**20 the reduction takes 0.8 ms against 9 ms.
_RESIDUE_SIEVE_FROM = 10**8
_LIMB_BITS = 40


def _small_prime_divisors(n: int, limit: int) -> list[int]:
    """The primes p <= limit (< 2**22) that divide n, in increasing order.

    n is reduced modulo every prime at once by Horner's rule over 40-bit
    limbs, most significant first; r * 2**40 + limb stays below 2**63.
    """
    primes = _prime_table_to(limit)
    top = (n.bit_length() - 1) // _LIMB_BITS * _LIMB_BITS
    r = (n >> top) % primes
    for shift in range(top - _LIMB_BITS, -1, -_LIMB_BITS):
        r <<= _LIMB_BITS
        r += (n >> shift) & ((1 << _LIMB_BITS) - 1)
        r %= primes
    return primes[r == 0].tolist()


def _strip_small_primes(n: int) -> tuple[int, int] | None:
    """Divide out the primes up to min(n^(1/3), 10**6) from n > 1.

    Returns (cofactor, number of primes divided out), or None at the first
    prime that divides n twice.
    """
    m, k = n, 0
    if n < _RESIDUE_SIEVE_FROM:
        candidates = _SMALL_PRIMES  # the cube root of n < 10**8 is below 465
    else:
        candidates = _small_prime_divisors(n, min(_icbrt(n), 10**6))
    for p in candidates:
        if p * p * p > n:
            break
        if m % p == 0:
            m //= p
            if m % p == 0:
                return None
            k += 1
    return m, k


def is_squarefree(n: int) -> bool:
    """True iff no p**2 divides n.

    Strips prime factors up to the cube root (at most 10**6) and settles the
    cofactor with _cofactor_exponents.
    """
    if n < 1:
        raise ValueError("is_squarefree requires n >= 1")
    if n < 4:
        return True
    stripped = _strip_small_primes(n)
    if stripped is None:
        return False
    m = stripped[0]
    return m == 1 or max(_cofactor_exponents(m, count_primes=False)) == 1


# The hit search takes primes in blocks of about this many residues and
# expected hits and yields their hits in runs of about this many; cofactors
# are settled this many at a time. At 2**16 census-scan peaked 2-3 MB higher.
_MASK_BLOCK = 1 << 14


def _grid_hits(high: np.ndarray, low: np.ndarray, primes: np.ndarray):
    """(positions, p) for every p in primes dividing a value of the grid
    high[i] + low[j] (position i * len(low) + j), by meet in the middle.

    p divides high[i] + low[j] iff high[i] = -low[j] (mod p). For a block of
    primes, each prime's residues of high and of -low are sorted into a band
    of its own (band t holds t * stride + residue, with stride above every
    residue), so one searchsorted finds, for every j and p, the run of i
    that match; sorted needles keep it cache-friendly.
    """
    n_low = len(low)
    # a block takes as many primes as keep its residues and its expected
    # hits within _MASK_BLOCK
    cost = np.cumsum(len(high) + n_low + len(high) * n_low // primes)
    start = 0
    while start < len(primes):
        spent = int(cost[start - 1]) if start else 0
        stop = max(start + 1, int(np.searchsorted(cost, spent + _MASK_BLOCK, side="right")))
        block = primes[start:stop, None]
        start = stop
        band = np.arange(len(block), dtype=np.int64)[:, None] * int(block[-1, 0])
        residues = high % block
        rows = np.argsort(residues, axis=1)
        keys = (np.take_along_axis(residues, rows, axis=1) + band).ravel()
        residues = -low % block
        cols = np.argsort(residues, axis=1)
        wanted = (np.take_along_axis(residues, cols, axis=1) + band).ravel()
        rows, cols = rows.ravel(), cols.ravel()
        first = np.searchsorted(keys, wanted, side="left")
        counts = np.searchsorted(keys, wanted, side="right") - first
        # the hits of wanted[w] are rows[first[w] : first[w] + counts[w]],
        # expanded in runs of `per` entries of wanted, about _MASK_BLOCK hits
        per = max(1, _MASK_BLOCK // max(1, int(counts.max())))
        for lo in range(0, len(wanted), per):
            run = counts[lo : lo + per]
            w = np.repeat(np.arange(lo, lo + len(run)), run)
            at = np.arange(len(w)) - np.repeat(np.cumsum(run) - run - first[lo : lo + per], run)
            yield rows[at] * n_low + cols[w], block[w // n_low, 0]


def _square_free_after(values, hits) -> np.ndarray:
    """The square-free test of an int64 array, from the pairs (positions, p)
    that name, for every prime p tried (up to the cube root of the largest
    value), the values p divides.

    Each p is divided out once, and a value that p divides again is not
    square-free; what is left has at most two prime factors, so it is
    square-free unless it is a perfect square.
    """
    square_divisor = np.zeros(len(values), dtype=bool)
    cofactor = values.copy()
    for rows, hit in hits:
        np.floor_divide.at(cofactor, rows, hit)
        square_divisor[rows[values[rows] // hit % hit == 0]] = True
    # np.sqrt is correctly rounded, hence exact on squares below 2**63; the
    # integer steps make r = isqrt(c) without relying on that. r is at most
    # isqrt(2**63 - 1), so r * r fits in int64, but (r + 1)**2 may not.
    # Blocks of _MASK_BLOCK values bound the temporaries
    for start in range(0, len(values), _MASK_BLOCK):
        left = np.flatnonzero(cofactor[start : start + _MASK_BLOCK] > 1) + start
        c = cofactor[left]
        r = np.sqrt(c.astype(np.float64)).astype(np.int64)
        r -= r * r > c
        r += r + 1 <= c // (r + 1)
        square_divisor[left[r * r == c]] = True
    return ~square_divisor


def squarefree_grid(high: np.ndarray, low: np.ndarray, coprime_to: int = 1) -> np.ndarray:
    """is_squarefree over the grid of values high[i] + low[j] >= 1, row by
    row, as a flat boolean array; exact on the values coprime to coprime_to,
    whose primes are not tried.

    An int64 grid is tested by the rule of is_squarefree, with the values
    each prime up to the cube root divides found by the meet-in-the-middle
    search of _grid_hits. An object grid (values of 2**63 and above) is
    tested value by value, and only on the values coprime to coprime_to;
    the others read False.
    """
    values = (high[:, None] + low[None, :]).ravel()
    if values.dtype != np.int64:
        return np.array([gcd(n, coprime_to) == 1 and is_squarefree(n)
                         for n in values.tolist()], dtype=bool)
    primes = _prime_table_to(_icbrt(int(values.max())))
    primes = primes[coprime_to % primes != 0]
    return _square_free_after(values, _grid_hits(high, low, primes))


def mobius(n: int) -> int:
    """Mobius function: 0 on non-squarefree n, else (-1)**(number of primes)."""
    if n < 1:
        raise ValueError("mobius requires n >= 1")
    if n == 1:
        return 1
    stripped = _strip_small_primes(n)
    if stripped is None:
        return 0
    m, k = stripped
    if m > 1:
        exponents = _cofactor_exponents(m, count_primes=True)
        if max(exponents) > 1:
            return 0
        k += len(exponents)
    return -1 if k & 1 else 1


def _icbrt(n: int) -> int:
    r = round(n ** (1 / 3))
    while r**3 > n:
        r -= 1
    while (r + 1) ** 3 <= n:
        r += 1
    return r


# ---------------------------------------------------------------------------
# CRT
# ---------------------------------------------------------------------------

def crt_combine(residues: list[tuple[int, int]]) -> tuple[int, int]:
    """Combine pairwise-coprime congruences (r_i, m_i) into one mod prod(m_i)."""
    r, m = 0, 1
    for ri, mi in residues:
        if mi < 1:
            raise ValueError("moduli must be positive")
        if gcd(m, mi) != 1:
            raise ValueError(f"moduli not pairwise coprime: gcd({m},{mi}) > 1")
        # r' = r (mod m), r' = ri (mod mi)
        t = (ri - r) * pow(m, -1, mi) % mi
        r += m * t
        m *= mi
    return r % m, m


# ---------------------------------------------------------------------------
# cube roots (unit solutions of w**3 = a mod q)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=1 << 12)
def _root_constants(p: int):
    """What the cube roots mod a prime p need of p alone: 1/3 mod p - 1 when
    p != 1 (mod 3); for p = 1 (mod 3) the Adleman-Manders-Miller constants
    (t, s, z, zeta, z^-1, u, v) of _cube_roots_mod_p."""
    n = p - 1
    if n % 3:
        return pow(3, -1, n)
    # p - 1 = 3**s * t with 3 not dividing t
    t, s = n, 0
    while t % 3 == 0:
        t //= 3
        s += 1
    g = 2
    while pow(g, n // 3, p) == 1:
        g += 1
    # z generates the 3-Sylow subgroup (order 3**s), zeta has order 3
    z = pow(g, t, p)
    zeta = pow(z, 3 ** (s - 1), p)
    # with u*t + 3*v = 1, a = (a**t)**u * (a**v)**3
    u = pow(t, -1, 3)
    v = (1 - u * t) // 3
    return t, s, z, zeta, pow(z, -1, p), u, v


def _cube_roots_mod_p(a: int, p: int) -> list[int]:
    """The cube roots of a unit a mod a prime p.

    For p != 1 (mod 3) cubing permutes the units, and a**(1/3 mod p-1) is
    the one root. For p = 1 (mod 3), by Adleman-Manders-Miller: a discrete
    logarithm in the 3-Sylow subgroup, found one base-3 digit at a time,
    gives one root; the cube roots of unity give the other two."""
    n = p - 1
    if n % 3:
        return [pow(a, _root_constants(p), p)]
    if pow(a, n // 3, p) != 1:
        return []
    t, s, z, zeta, z_inv, u, v = _root_constants(p)
    # a**t = z**e; digit i of e is read off (a**t * z**-e_low)**(3**(s-1-i)),
    # which is zeta**digit
    b, e = pow(a, t, p), 0
    for i in range(s):
        c = pow(b * pow(z_inv, e, p) % p, 3 ** (s - 1 - i), p)
        e += (0 if c == 1 else 1 if c == zeta else 2) * 3**i
    # a is a cube, so 3 divides e and (z**(e/3))**3 = a**t
    root = pow(z, e // 3 * u, p) * pow(a, v % n, p) % p
    return [root, root * zeta % p, root * zeta * zeta % p]


def _prime_power_roots(a: int, p: int, alpha: int) -> list[int]:
    """The unit cube roots of a mod p**alpha: the roots mod p, lifted one
    power of p at a time. For p != 3 by Newton's step (3*w**2 is a unit mod
    p, p = 2 included); for p = 3 every w + t*3**j, t < 3, is tried."""
    if a % p == 0:
        return []
    roots = _cube_roots_mod_p(a % p, p)
    pj = p
    for _ in range(alpha - 1):
        pj_next = pj * p
        a_next = a % pj_next
        if p != 3:
            lifted = []
            for w in roots:
                fw = (pow(w, 3, pj_next) - a_next) % pj_next
                step = fw // pj * pow(3 * w * w % p, -1, p) % p
                lifted.append((w - step * pj) % pj_next)
            roots = lifted
        else:
            roots = [v for w in roots for v in range(w, pj_next, pj)
                     if pow(v, 3, pj_next) == a_next]
        pj = pj_next
    return roots


@lru_cache(maxsize=64)
def _crt_plan(q: int) -> tuple[tuple[int, int, int, int], ...]:
    """(p, alpha, p**alpha, e) for each prime power of q, where the CRT
    idempotent e is 1 mod p**alpha and 0 mod q / p**alpha; the roots w_i mod
    the prime powers glue to sum(w_i * e_i) mod q."""
    plan = []
    for p, alpha in factorize(q).items():
        pa = p**alpha
        e, _ = crt_combine([(1, pa), (0, q // pa)])
        plan.append((p, alpha, pa, e))
    return tuple(plan)


def kth_residue_solutions(a: int, k: int, q: int) -> list[int]:
    """All unit residues w mod q with w**k = a (mod q), sorted, for k = 3
    and every modulus 2 <= q < 2**127; any other k raises ValueError.

    Solved per prime power (the roots mod p, lifted to p**alpha) and then
    glued with the Chinese remainder theorem.
    """
    if k != 3:
        raise ValueError(f"only cube roots are solved, got k={k}")
    if q < 2:
        raise ValueError("modulus must be >= 2")
    a %= q
    glued = [0]
    for p, alpha, pa, e in _crt_plan(q):
        roots = _prime_power_roots(a % pa, p, alpha)
        if not roots:
            return []
        glued = [(c + w * e) % q for c in glued for w in roots]
    return sorted(glued)
