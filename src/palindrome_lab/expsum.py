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

from . import arith
from .oscillate import PSI, fourier_transform

TWO_PI = 2.0 * math.pi

# above this modulus, k2 switches to the stationary-phase form
STATIONARY_PHASE_THRESHOLD = 2048

# |k2_full - k2_stationary_phase| must stay below this times sqrt(c)
STATIONARY_PHASE_TOL = 1e-9

# a Poisson check passes when |lhs - rhs| is below this; the dual sum is
# extended until its tail estimate is too
POISSON_TOL = 1e-8


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


@dataclass(frozen=True)
class StationarySplit:
    """c = c1*c2 with exponents split by floor/ceil halves; c1 | c2."""

    c: int
    c1: int
    c2: int
    factorization: tuple[tuple[int, int], ...]


@lru_cache(maxsize=64)
def _inverse_table(c: int) -> tuple[int, ...]:
    # inv[x] = x^(-1) mod c, or -1 when x is not a unit
    return tuple(
        pow(x, -1, c) if gcd(x, c) == 1 else -1 for x in range(c)
    )


@lru_cache(maxsize=64)
def _root_of_unity_table(c: int) -> tuple[complex, ...]:
    return tuple(cmath.exp(TWO_PI * 1j * j / c) for j in range(c))


K2_DIRECT_LIMIT = 2 * 10**6


def k2_full(params: ExpSumParams) -> complex:
    """Direct O(c) evaluation of K2; phases reduced mod c in exact integers."""
    c = params.c
    if c > K2_DIRECT_LIMIT:
        raise ValueError(
            f"direct evaluation refused for c={c} > {K2_DIRECT_LIMIT}; "
            "use k2_stationary_phase"
        )
    if c == 1:
        return 1.0 + 0.0j
    a1, a2, a3, q = params.a1, params.a2, params.a3, params.q
    inv = _inverse_table(c)
    roots = _root_of_unity_table(c)
    total = 0.0 + 0.0j
    for x in range(c):
        ix = inv[x]
        if ix < 0:
            continue
        iy = inv[(x + q) % c]
        if iy < 0:
            continue
        phase = (a1 * x + a2 * ix * ix + a3 * iy * iy) % c
        total += roots[phase]
    return total / math.sqrt(c)


def k2_simple(a1: int, a2: int, c: int) -> complex:
    """K2 with a3 = 0 and q = 0."""
    return k2_full(ExpSumParams(a1, a2, 0, 0, c))


def stationary_split(c: int) -> StationarySplit:
    """Split c into c1 = prod p^floor(a/2), c2 = prod p^ceil(a/2)."""
    if c < 2:
        raise ValueError("c must be >= 2")
    fac = arith.factorize(c)
    c1 = 1
    c2 = 1
    for p, alpha in fac.items():
        c1 *= p ** (alpha // 2)
        c2 *= p ** ((alpha + 1) // 2)
    return StationarySplit(c=c, c1=c1, c2=c2, factorization=tuple(fac.items()))


def k2_stationary_phase(params: ExpSumParams) -> complex:
    """K2 via the exact stationary-phase identity (O(c2) instead of O(c)).

    Must agree with k2_full to rounding error; this is an identity, not a
    bound. The unit conditions are checked against c (they depend only on
    the residue mod rad(c), which divides c2, so this is well defined).
    """
    c = params.c
    if c < 2:
        raise ValueError("c must be >= 2")
    a1, a2, a3, q = params.a1, params.a2, params.a3, params.q
    split = stationary_split(c)
    c1, c2 = split.c1, split.c2
    total = 0.0 + 0.0j
    for w in range(1, c2 + 1):
        if gcd(w, c) != 1:
            continue
        wq = (w + q) % c
        if gcd(wq, c) != 1:
            continue
        wi = pow(w, -1, c)
        yi = pow(wq, -1, c)
        if (a1 - 2 * a2 * wi**3 - 2 * a3 * yi**3) % c1:
            continue
        phase = (a1 * w + a2 * wi * wi + a3 * yi * yi) % c
        total += cmath.exp(TWO_PI * 1j * phase / c)
    return total * c1 / math.sqrt(c)


def count_critical_points(params: ExpSumParams) -> int:
    """Number of residues w mod c1 with gcd(w(w+q), c) = 1 solving the
    critical congruence a1 - 2 a2 wbar^3 - 2 a3 (w+q)bar^3 = 0 (mod c1),
    inverses taken mod c1. For c1 = 1 this is the single (empty) class."""
    c = params.c
    if c < 2:
        raise ValueError("c must be >= 2")
    c1 = stationary_split(c).c1
    if c1 == 1:
        return 1
    a1, a2, a3, q = params.a1, params.a2, params.a3, params.q
    count = 0
    for w in range(1, c1 + 1):
        if gcd(w, c) != 1 or gcd(w + q, c) != 1:
            continue
        wi = pow(w % c1, -1, c1)
        yi = pow((w + q) % c1, -1, c1)
        if (a1 - 2 * a2 * wi**3 - 2 * a3 * yi**3) % c1 == 0:
            count += 1
    return count


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
    tail_estimate: float

    @property
    def difference(self) -> float:
        return abs(self.lhs - self.rhs)


def poisson_check(f, g_values, support=None, max_modes: int = 20000,
                  breakpoints=None) -> PoissonReport:
    """Verify sum_n f(n) g(n) = q^(-1/2) sum_m fhat(m/q) ghat(m) for a
    continuous compactly supported f and a q-periodic g.

    g is given by its q values (g_values[j] = g(j)); the dual sum is extended
    until a decay-based tail estimate falls below POISSON_TOL, which fails
    loudly when fhat does not decay.
    """
    g_values = [complex(v) for v in g_values]
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
        return PoissonReport(lhs=0j, rhs=0j, m_cut=0, tail_estimate=0.0)

    sqrt_q = math.sqrt(q)

    def ft(k: float) -> complex:
        return fourier_transform(f, k, support=support, tol=POISSON_TOL * 1e-3,
                                 breakpoints=breakpoints)
    rhs = ft(0.0) * ghat[0] / sqrt_q
    m = 0
    block_abs = 0.0
    prev_block_abs = math.inf
    quiet_blocks = 0
    while True:
        m += 1
        if m > max_modes:
            raise PoissonTailError(
                f"dual sum not converged after {max_modes} modes "
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
            prev_block_abs = block_abs
            block_abs = 0.0
    tail_estimate = prev_block_abs * (m / q + 1.0)
    return PoissonReport(lhs=lhs, rhs=rhs, m_cut=m, tail_estimate=tail_estimate)


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
