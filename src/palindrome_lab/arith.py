"""Exact integer arithmetic: primality, factorization, Mobius, power residues, CRT.

Everything here works on plain Python integers (exact, arbitrary precision);
factorization is only supported below 2**127.
"""

from __future__ import annotations

from bisect import bisect_right
from math import gcd, isqrt

FACTOR_LIMIT = 1 << 127

# Prime powers above this are never searched exhaustively.
EXHAUSTIVE_PRIME_POWER_LIMIT = 10**6

# Full root tables are memoized only for prime powers up to this bound.
_ROOT_TABLE_LIMIT = 2048

# Deterministic Miller-Rabin witness set, valid for n < 3.3*10**24.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_DETERMINISTIC_BOUND = 3317044064679887385961981


class UnsupportedModulusError(ValueError):
    """A k-th power residue computation hit an unsupported prime power."""


# ---------------------------------------------------------------------------
# small prime table (immutable tuple, grown by replacement; safe to share)
# ---------------------------------------------------------------------------

_prime_cache: tuple[int, ...] = ()
_prime_cache_limit = 0


def primes_up_to(limit: int) -> tuple[int, ...]:
    """All primes <= limit, from a cached sieve."""
    global _prime_cache, _prime_cache_limit
    if limit > _prime_cache_limit:
        new_limit = max(limit, 2 * _prime_cache_limit, 10**4)
        sieve = bytearray([1]) * (new_limit + 1)
        sieve[0:2] = b"\x00\x00"
        for i in range(2, isqrt(new_limit) + 1):
            if sieve[i]:
                sieve[i * i :: i] = bytearray(len(range(i * i, new_limit + 1, i)))
        _prime_cache = tuple(i for i in range(2, new_limit + 1) if sieve[i])
        _prime_cache_limit = new_limit
    return _prime_cache[: bisect_right(_prime_cache, limit)]


def _primes_at_least(limit: int) -> tuple[int, ...]:
    # like primes_up_to but returns the whole cache to avoid slicing; callers
    # break out early on their own stopping condition
    primes_up_to(limit)
    return _prime_cache


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
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
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
    for p in _primes_at_least(10**4):
        if p * p > n:
            break
        while n % p == 0:
            fac[p] = fac.get(p, 0) + 1
            n //= p
    if n > 1:
        _factor_into(n, fac)
    return dict(sorted(fac.items()))


def omega(n: int) -> int:
    """Number of distinct prime factors."""
    if n == 1:
        return 0
    return len(factorize(n))


def euler_phi(n: int) -> int:
    if n == 1:
        return 1
    r = n
    for p in factorize(n):
        r = r // p * (p - 1)
    return r


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


def is_squarefree(n: int) -> bool:
    """True iff no p**2 divides n.

    Strips prime factors up to the cube root (at most 10**6) and settles the
    cofactor with _cofactor_exponents.
    """
    if n < 1:
        raise ValueError("is_squarefree requires n >= 1")
    if n < 4:
        return True
    n0 = n
    for p in _primes_at_least(min(_icbrt(n0) + 1, 10**6)):
        if p * p * p > n0:
            break
        if n % p == 0:
            n //= p
            if n % p == 0:
                return False
    return n == 1 or max(_cofactor_exponents(n, count_primes=False)) == 1


def mobius(n: int) -> int:
    """Mobius function: 0 on non-squarefree n, else (-1)**(number of primes)."""
    if n < 1:
        raise ValueError("mobius requires n >= 1")
    if n == 1:
        return 1
    n0, k = n, 0
    for p in _primes_at_least(min(_icbrt(n0) + 1, 10**6)):
        if p * p * p > n0:
            break
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            k += 1
    if n > 1:
        exponents = _cofactor_exponents(n, count_primes=True)
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
# modular inverse and CRT
# ---------------------------------------------------------------------------

def mod_inverse(a: int, m: int) -> int:
    """Inverse of a modulo m; raises ValueError when gcd(a, m) > 1."""
    if m < 2:
        raise ValueError("modulus must be >= 2")
    g = gcd(a % m, m)
    if g != 1:
        raise ValueError(f"{a} is not invertible mod {m} (gcd={g})")
    return pow(a, -1, m)


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
# k-th power residues (unit solutions of w**k = a mod q)
# ---------------------------------------------------------------------------

_root_tables: dict[tuple[int, int], dict[int, tuple[int, ...]]] = {}


def _prime_power_root_table(k: int, pa: int, p: int) -> dict[int, tuple[int, ...]]:
    key = (k, pa)
    table = _root_tables.get(key)
    if table is None:
        build: dict[int, list[int]] = {}
        for w in range(1, pa):
            if w % p == 0:
                continue
            build.setdefault(pow(w, k, pa), []).append(w)
        table = {a: tuple(ws) for a, ws in build.items()}
        _root_tables[key] = table
    return table


def _prime_power_roots_exhaustive(a: int, k: int, p: int, alpha: int) -> tuple[int, ...]:
    pa = p**alpha
    if pa <= _ROOT_TABLE_LIMIT:
        return _prime_power_root_table(k, pa, p).get(a % pa, ())
    a %= pa
    return tuple(w for w in range(1, pa) if w % p and pow(w, k, pa) == a)


def _prime_power_roots_hensel(a: int, k: int, p: int, alpha: int) -> tuple[int, ...]:
    # p odd, p does not divide k: every root mod p lifts uniquely
    a_p = a % p
    if a_p == 0:
        return ()
    roots = [w for w in range(1, p) if pow(w, k, p) == a_p]
    pj = p
    for _ in range(alpha - 1):
        pj_next = pj * p
        a_next = a % pj_next
        lifted = []
        for w in roots:
            fw = (pow(w, k, pj_next) - a_next) % pj_next
            # f'(w) = k*w^(k-1) is a unit mod p
            step = fw // pj * pow(k * pow(w, k - 1, p) % p, -1, p) % p
            lifted.append((w - step * pj) % pj_next)
        roots = lifted
        pj = pj_next
    return tuple(sorted(roots))


def _prime_power_roots(a: int, k: int, p: int, alpha: int) -> tuple[int, ...]:
    pa = p**alpha
    if pa <= EXHAUSTIVE_PRIME_POWER_LIMIT:
        return _prime_power_roots_exhaustive(a, k, p, alpha)
    if p == 2 or k % p == 0 or p > EXHAUSTIVE_PRIME_POWER_LIMIT:
        raise UnsupportedModulusError(
            f"k-th residues unsupported for prime power {p}**{alpha} with k={k}"
        )
    return _prime_power_roots_hensel(a, k, p, alpha)


def kth_residue_solutions(a: int, k: int, q: int) -> list[int]:
    """All unit residues w mod q with w**k = a (mod q), sorted.

    Solved per prime power (exhaustively below 10**6, by Hensel lifting from
    the base prime above when p is odd and does not divide k) and then glued
    with the Chinese remainder theorem.
    """
    if q < 2:
        raise ValueError("modulus must be >= 2")
    if k < 1:
        raise ValueError("exponent must be >= 1")
    a %= q
    parts: list[tuple[tuple[int, ...], int]] = []
    for p, alpha in factorize(q).items():
        pa = p**alpha
        roots = _prime_power_roots(a % pa, k, p, alpha)
        if not roots:
            return []
        parts.append((roots, pa))
    combos: list[tuple[int, int]] = [(0, 1)]
    for roots, pa in parts:
        combos = [crt_combine([(r, m), (w, pa)]) for r, m in combos for w in roots]
    return sorted(r for r, _ in combos)
