"""Complete quadratic Kloosterman-type sums and their stationary-phase form.

The normalized sum evaluated here is

    K2(a1, a2, a3, q, c) = c^(-1/2) * sum over 1 <= x <= c with
        gcd(x(x+q), c) = 1 of e((a1 x + a2 xbar^2 + a3 (x+q)bar^2) / c)

with e(t) = exp(2 pi i t) and xbar the inverse of x mod c. Writing
c = c1 * c2 with c1 = prod p^floor(alpha/2) and c2 = prod p^ceil(alpha/2),
every x splits uniquely as w + z*c2; averaging over z kills all classes
except those with F'(w) = a1 - 2 a2 wbar^3 - 2 a3 (w+q)bar^3 = 0 (mod c1),
leaving the exact identity

    K2 = (c1 / sqrt(c)) * sum over w mod c2, gcd(w(w+q), c) = 1,
         F'(w) = 0 mod c1, of e(F(w) / c).

The derivative congruence is evaluated mod c1 but the phase mod c; mixing
those two moduli is the classic bug, so they are kept explicit below.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache
from math import gcd

import numpy as np

from . import arith
from .oscillate import PSI, SmoothBump, fourier_transform

TWO_PI = 2.0 * math.pi

# above this modulus, k2 switches to the stationary-phase form
STATIONARY_PHASE_THRESHOLD = 2048

# |k2_full - k2_stationary_phase| must stay below this times sqrt(c)
STATIONARY_PHASE_TOL = 1e-9

# a Poisson check passes when |lhs - rhs| is below this; the dual sum is
# extended until two blocks of q modes each add less than POISSON_TOL / 64
POISSON_TOL = 1e-8

# poisson_check raises PoissonTailError beyond this many dual modes
_POISSON_MAX_MODES = 20000


class PoissonTailError(ArithmeticError):
    """The Poisson dual sum did not decay below tolerance within the cap."""


@dataclass(frozen=True)
class ExpSumParams:
    """Argument tuple of the quadratic Kloosterman sum."""

    a1: int
    a2: int
    a3: int
    q: int
    c: int

    def __post_init__(self):
        if self.c < 1:
            raise ValueError("modulus c must be >= 1")


def _carmichael(factors: dict[int, int]) -> int:
    """lambda(c), the exponent of the unit group mod c, from c's factors."""
    lam = 1
    for p, alpha in factors.items():
        lam_p = 2 ** (alpha - 2) if p == 2 and alpha >= 3 else p ** (alpha - 1) * (p - 1)
        lam = lam * lam_p // gcd(lam, lam_p)
    return lam


def _power_mod(x: np.ndarray, e: int, c: int) -> np.ndarray:
    """x^e mod c elementwise by square-and-multiply, for residues 0 <= x < c
    in an int64 array when (c - 1)^2 < 2^63, which bounds every product,
    else in an object array of Python ints; the result has x's dtype."""
    result = np.ones_like(x)
    while e:
        if e & 1:
            result = result * x % c
        e >>= 1
        if e:
            x = x * x % c
    return result


@lru_cache(maxsize=64)
def _k2_tables(c: int) -> tuple[np.ndarray, np.ndarray]:
    """(inverse_squares, roots) for a modulus c >= 2, read-only arrays:
    inverse_squares[x] = x^(-2) mod c, or -1 when x is not a unit, and
    roots[j] = e(j/c) with the bits of cmath.exp(TWO_PI * 1j * j / c).

    x^(-2) = x^(lambda - 2) for a unit x, with lambda = lambda(c) the
    Carmichael function, by _power_mod over the units alone. For a purely
    imaginary argument cmath.exp returns exp(0) * cos and exp(0) * sin of
    the same angle, exp(0) = 1.0 exactly, so libm's cos and sin of the
    angles TWO_PI * j / c give its roots. numpy's cos and sin compute them
    here, which relies on numpy returning libm's bits. numpy does not
    promise that across CPUs and builds, so
    test_k2_tables_against_cmath_exp_and_pow pins it on every angle of every
    c <= 3000 and of the survey moduli: a platform where numpy differs fails
    that test instead of moving a report."""
    factors = arith.factorize(c)
    units = np.ones(c, dtype=bool)
    for p in factors:
        units[::p] = False
    x = np.flatnonzero(units)
    lam = _carmichael(factors)
    inverse_squares = np.full(c, -1, dtype=np.int64)
    inverse_squares[x] = _power_mod(x, (lam - 2) % lam, c)
    angles = TWO_PI * np.arange(c) / c
    roots = np.empty(c, dtype=np.complex128)
    np.cos(angles, out=roots.real)
    np.sin(angles, out=roots.imag)
    inverse_squares.flags.writeable = roots.flags.writeable = False
    return inverse_squares, roots


K2_DIRECT_LIMIT = 2 * 10**6

# k2_full walks x mod c in blocks of this many values, which bounds its
# temporaries; every modulus to 10^4 (those of verify-all) is one block
_K2_BLOCK = 1 << 14


def k2_full(params: ExpSumParams) -> complex:
    """Direct O(c) evaluation of K2; phases reduced mod c in exact integers.

    The arguments are reduced mod c first and the tables hold the inverse
    squares themselves, so a term's phase a1 x + a2 xbar^2 + a3 ybar^2 is
    a sum of three int64 products each below c^2, reduced by one % c; the
    sum stays below 3c^2 <= 1.2*10**13. x runs from 0 up in blocks of
    _K2_BLOCK values; a block's roots of unity are added to the running
    total by one np.cumsum (not the pairwise np.sum) that starts from it,
    which gives the bits of a plain Python loop. Memory: the tables of
    _k2_tables plus a few arrays of one block.
    """
    c = params.c
    if c > K2_DIRECT_LIMIT:
        raise ValueError(
            f"direct evaluation refused for c={c} > {K2_DIRECT_LIMIT}; "
            "use k2_stationary_phase"
        )
    if c == 1:
        return 1.0 + 0.0j
    a1, a2, a3, q = (v % c for v in (params.a1, params.a2, params.a3, params.q))
    squares, roots = _k2_tables(c)
    size = min(c, _K2_BLOCK)
    sy = np.empty(size, dtype=np.int64)
    terms = np.empty(size + 1, dtype=np.complex128)
    total = 0.0 + 0.0j
    for s in range(0, c, size):
        m = min(size, c - s)
        # y = x + q; its inverse squares are the m entries of the table from
        # (s + q) mod c, which wrap past c at most once
        t = (s + q) % c
        np.concatenate((squares[t : t + m], squares[: max(0, t + m - c)]), out=sy[:m])
        sx = squares[s : s + m]
        x = np.flatnonzero((sx | sy[:m]) >= 0)  # -1 marks a non-unit
        n = len(x)
        phase = (a1 * (x + s) + a2 * sx[x] + a3 * sy[x]) % c
        terms[0] = total
        np.take(roots, phase, out=terms[1 : n + 1])
        np.cumsum(terms[: n + 1], out=terms[: n + 1])
        total = complex(terms[n])
    return total / math.sqrt(c)


# _critical_residues walks w in int64 blocks of this many residues, which
# bounds its temporaries whatever the size of c2
_CRITICAL_BLOCK = 1 << 14


@lru_cache(maxsize=64)
def _critical_plan(c: int) -> tuple[int, int, int, tuple[int, ...], np.ndarray]:
    """(c1, c2, lam, primes, cubes) for a modulus c >= 2, from one
    factorization of c: the stationary split, lam = lambda(c), the primes of
    c in increasing order, and the read-only table cubes[w] = wbar^3 mod c1
    for the units w mod c1 (0 elsewhere), written out for 0 <= w < 2*c1 so
    that a shift by q mod c1 is a slice: O(c1) <= O(sqrt(c)) entries."""
    if c < 2:
        raise ValueError("c must be >= 2")
    factors = arith.factorize(c)
    c1 = math.prod(p ** (alpha // 2) for p, alpha in factors.items())
    cubes = np.array([pow(w, -3, c1) if gcd(w, c1) == 1 else 0 for w in range(c1)],
                     dtype=np.int64)
    cubes = np.concatenate([cubes, cubes])
    cubes.flags.writeable = False
    return c1, c // c1, _carmichael(factors), tuple(factors), cubes


def _critical_residues(params: ExpSumParams, top: int):
    """The w in 1..top with gcd(w(w+q), c) = 1 and
    a1 - 2 a2 wbar^3 - 2 a3 (w+q)bar^3 = 0 (mod c1), as increasing int64
    arrays, one per block of _CRITICAL_BLOCK residues.

    The congruence depends on w mod c1 only: it is tabulated once per call
    from the plan's table, at O(c1) <= O(top) cost, and read at w mod c1;
    its entries where w or w + q is not a unit mod c1 mean nothing, and the
    unit test that follows drops those w. The unit test reads w mod each
    prime p of c against 0 and -q mod p. The arguments are reduced mod p and
    mod c1 first, so no int64 value reaches max(top + 1, 2*c1**2), whatever
    their size.
    """
    c1, _, _, primes, cubes = _critical_plan(params.c)
    # w + q = 0 (mod p) iff w = p - (q mod p), or w = 0 when p | q
    shifted = [(p, p - params.q % p) for p in primes]
    if c1 > 1:
        q1 = params.q % c1
        critical = ((2 * params.a2 % c1) * cubes[:c1]
                    + (2 * params.a3 % c1) * cubes[q1 : q1 + c1]) % c1 == params.a1 % c1
    for start in range(1, top + 1, _CRITICAL_BLOCK):
        w = np.arange(start, min(start + _CRITICAL_BLOCK, top + 1), dtype=np.int64)
        if c1 > 1:
            w = w[critical[w % c1]]
        for p, p_q in shifted:
            r = w % p
            w = w[(r != 0) & (r != p_q)]
        yield w


def k2_stationary_phase(params: ExpSumParams) -> complex:
    """K2 via the exact stationary-phase identity (O(c2) instead of O(c)).

    Must agree with k2_full to rounding error; this is an identity, not a
    bound. The unit conditions are checked against c (they depend only on
    the residue mod rad(c), which divides c2, so this is well defined).

    Cost: a numpy filter over w <= c2 (_critical_residues), then per block
    of critical points a fixed number of array operations: w and w + q
    inverted together as x^(lambda - 1) mod c (about 2 log2(lambda) products),
    the exact phases, their angles TWO_PI * phase / c, whose cos and sin are
    cmath.exp(TWO_PI * 1j * phase / c) bit for bit (see _k2_tables), and one
    np.cumsum that starts from the running total of the blocks before, so
    the terms are added in increasing w as a plain loop adds them. The
    arrays are int64 while (c - 1)^2 < 2^63, object arrays of Python ints
    above. Memory: the O(c1) plan of _critical_plan plus a few arrays of
    one block of _CRITICAL_BLOCK residues. No table of k2_full is read, so
    the two routes stay independent.
    """
    c = params.c
    c1, c2, lam, _, _ = _critical_plan(c)  # raises ValueError for c < 2
    a1, a2, a3, q = (v % c for v in (params.a1, params.a2, params.a3, params.q))
    wide = (c - 1) ** 2 >= 2**63  # see _power_mod
    total = 0.0 + 0.0j
    for w in _critical_residues(params, c2):
        n = len(w)
        if not n:
            continue
        if wide:
            w = w.astype(object)
        inverses = _power_mod(np.concatenate([w, (w + q) % c]), lam - 1, c)
        wi, yi = inverses[:n], inverses[n:]
        phase = (a1 * w % c + a2 * (wi * wi % c) % c + a3 * (yi * yi % c) % c) % c
        angles = np.asarray(TWO_PI * phase / c, dtype=np.float64)
        terms = np.empty(n + 1, dtype=np.complex128)
        terms[0] = total
        np.cos(angles, out=terms.real[1:])
        np.sin(angles, out=terms.imag[1:])
        total = complex(np.cumsum(terms)[-1])
    return total * c1 / math.sqrt(c)


def count_critical_points(params: ExpSumParams) -> int:
    """Number of residues 1 <= w <= c1 with gcd(w(w+q), c) = 1 solving the
    critical congruence a1 - 2 a2 wbar^3 - 2 a3 (w+q)bar^3 = 0 (mod c1),
    inverses taken mod c1. For c1 = 1 this is the single (empty) class.

    Cost: the numpy filter of _critical_residues over w <= c1; memory: the
    O(c1) plan plus one block.
    """
    c1 = _critical_plan(params.c)[0]  # raises ValueError for c < 2
    if c1 == 1:
        return 1
    return sum(len(block) for block in _critical_residues(params, c1))


def k2(params: ExpSumParams) -> complex:
    """K2 by the cheaper exact route: direct summation up to
    STATIONARY_PHASE_THRESHOLD, the stationary-phase form above it."""
    if params.c > STATIONARY_PHASE_THRESHOLD:
        return k2_stationary_phase(params)
    return k2_full(params)


def k2_q_average(m: int, a: int, q_max: int, c: int) -> float:
    """sum over |q| <= Q of |K2(m, a, -a, q, c)|, each term through k2."""
    if q_max < 0:
        raise ValueError("Q must be >= 0")
    total = 0.0
    for q in range(-q_max, q_max + 1):
        total += abs(k2(ExpSumParams(m, a, -a, q, c)))
    return total


# ---------------------------------------------------------------------------
# Poisson summation identity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PoissonReport:
    lhs: complex
    rhs: complex
    m_cut: int

    @property
    def difference(self) -> float:
        return abs(self.lhs - self.rhs)


def poisson_check(f, g_values, support=None, breakpoints=None) -> PoissonReport:
    """Verify sum_n f(n) g(n) = q^(-1/2) sum_m fhat(m/q) ghat(m) for a
    continuous compactly supported f and a q-periodic g.

    g is given by its q values (g_values[j] = g(j)). The dual sum runs over
    blocks of q modes (+-m together) and stops after two consecutive quiet
    blocks, each adding less than POISSON_TOL / 64 in absolute value, once
    m >= 4q + 4; it raises PoissonTailError past _POISSON_MAX_MODES modes,
    which is how it fails loudly when fhat does not decay.

    f is real, so fhat(-k) = conj(fhat(k)) exactly (see fourier_transform):
    each |k| is transformed once and the negative mode takes the conjugate.
    A SmoothBump f is replaced by its with_node_cache copy, so the
    quadrature nodes shared by all frequencies are evaluated once. Both
    caches belong to this call and are dropped when it returns.
    """
    g_values = [complex(v) for v in g_values]
    if isinstance(f, SmoothBump):
        f = f.with_node_cache()
    q = len(g_values)
    if q < 1:
        raise ValueError("g must have at least one value per period")
    if support is None:
        if not hasattr(f, "support"):
            raise ValueError("support interval required for non-bump functions")
        lo, hi = f.support
    else:
        lo, hi = support
    lhs = 0.0 + 0.0j
    for n in range(math.ceil(lo), math.floor(hi) + 1):
        lhs += f(n) * g_values[n % q]

    ghat = [
        sum(g_values[y % q] * cmath.exp(TWO_PI * 1j * m * y / q) for y in range(1, q + 1))
        / math.sqrt(q)
        for m in range(q)
    ]
    if all(abs(v) == 0.0 for v in g_values):
        return PoissonReport(lhs=0j, rhs=0j, m_cut=0)

    sqrt_q = math.sqrt(q)

    transforms: dict[float, complex] = {}

    def ft(k: float) -> complex:
        value = transforms.get(abs(k))
        if value is None:
            value = transforms[abs(k)] = fourier_transform(
                f, abs(k), support=support, tol=POISSON_TOL * 1e-3, breakpoints=breakpoints)
        return value.conjugate() if k < 0 else value
    rhs = ft(0.0) * ghat[0] / sqrt_q
    m = 0
    block_abs = 0.0
    quiet_blocks = 0
    while True:
        m += 1
        if m > _POISSON_MAX_MODES:
            raise PoissonTailError(
                f"dual sum not converged after {_POISSON_MAX_MODES} modes "
                f"(last block {block_abs:.3e}); f may not be smooth enough"
            )
        term = ft(m / q) * ghat[m % q] / sqrt_q
        term += ft(-m / q) * ghat[(-m) % q] / sqrt_q
        rhs += term
        block_abs += abs(term)
        if m % q == 0 or q == 1:
            if block_abs < POISSON_TOL / 64.0 and m >= 4 * q + 4:
                quiet_blocks += 1
                if quiet_blocks >= 2:
                    break
            else:
                quiet_blocks = 0
            block_abs = 0.0
    return PoissonReport(lhs=lhs, rhs=rhs, m_cut=m)


def triangle(u: float) -> float:
    """The hat function max(0, 1 - |u|): continuous, with kinks at -1, 0, 1."""
    return max(0.0, 1.0 - abs(u))


def poisson_demo(demo: str, q: int) -> PoissonReport:
    """poisson_check on a named pair of period q: "triangle" (the hat on
    [-1, 1] against g = 1) or "psi" (the psi bump against g(y) = e(y/q))."""
    if demo == "triangle":
        return poisson_check(triangle, [1.0] * q, support=(-1.0, 1.0), breakpoints=(0.0,))
    if demo == "psi":
        return poisson_check(PSI, [complex(math.cos(TWO_PI * y / q), math.sin(TWO_PI * y / q))
                                   for y in range(q)])
    raise ValueError(f"unknown Poisson demo {demo!r}")
