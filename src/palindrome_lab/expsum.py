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


@lru_cache(maxsize=64)
def _k2_tables(c: int) -> tuple[np.ndarray, np.ndarray]:
    """(inverses, roots) for a modulus c >= 2, read-only arrays:
    inverses[x] = x^(-1) mod c, or -1 when x is not a unit, and
    roots[j] = e(j/c) as cmath.exp gives it."""
    phi = c
    for p in arith.factorize(c):
        phi -= phi // p
    # x^(phi-1) is the inverse of a unit x, by square-and-multiply in int64
    # (every product is below c^2)
    x = np.arange(c, dtype=np.int64)
    inverses = np.ones(c, dtype=np.int64)
    power, e = x.copy(), phi - 1
    while e:
        if e & 1:
            inverses = inverses * power % c
        power = power * power % c
        e >>= 1
    inverses[np.gcd(x, c) != 1] = -1
    roots = np.array([cmath.exp(TWO_PI * 1j * j / c) for j in range(c)])
    inverses.flags.writeable = roots.flags.writeable = False
    return inverses, roots


K2_DIRECT_LIMIT = 2 * 10**6


def k2_full(params: ExpSumParams) -> complex:
    """Direct O(c) evaluation of K2; phases reduced mod c in exact integers.

    The arguments are reduced mod c first, so every int64 product stays below
    c^2 <= 4*10**12. The roots of unity are added from x = 0 upwards, each to
    the running total (np.cumsum, not the pairwise np.sum), which gives the
    bits of a plain Python loop.
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
    inverses, roots = _k2_tables(c)
    # y = x + q; its inverse is inverses[(x + q) mod c]
    iy = np.roll(inverses, -q)
    units = (inverses >= 0) & (iy >= 0)
    x = np.flatnonzero(units)
    ix, iy = inverses[units], iy[units]
    phase = (a1 * x + a2 * (ix * ix % c) + a3 * (iy * iy % c)) % c
    terms = np.zeros(len(x) + 1, dtype=np.complex128)
    terms[1:] = roots[phase]
    total = complex(np.cumsum(terms)[-1])
    return total / math.sqrt(c)


def stationary_split(c: int) -> tuple[int, int]:
    """Split c into (c1, c2) with c1 = prod p^floor(a/2), c2 = prod p^ceil(a/2);
    c = c1*c2 and c1 | c2."""
    if c < 2:
        raise ValueError("c must be >= 2")
    c1 = 1
    c2 = 1
    for p, alpha in arith.factorize(c).items():
        c1 *= p ** (alpha // 2)
        c2 *= p ** ((alpha + 1) // 2)
    return c1, c2


def _critical_residues(params: ExpSumParams, c1: int, top: int, modulus: int):
    # (w, w^-1, (w+q)^-1) for each 1 <= w <= top with gcd(w(w+q), c) = 1 and
    # a1 - 2 a2 wbar^3 - 2 a3 (w+q)bar^3 = 0 (mod c1), inverses taken mod a
    # modulus with c1 | modulus | c: the congruence reads only their residues
    # mod c1, and an inverse mod c1 costs about half one mod c
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


def k2_stationary_phase(params: ExpSumParams) -> complex:
    """K2 via the exact stationary-phase identity (O(c2) instead of O(c)).

    Must agree with k2_full to rounding error; this is an identity, not a
    bound. The unit conditions are checked against c (they depend only on
    the residue mod rad(c), which divides c2, so this is well defined).
    """
    c, a1, a2, a3 = params.c, params.a1, params.a2, params.a3
    c1, c2 = stationary_split(c)  # raises ValueError for c < 2
    total = 0.0 + 0.0j
    for w, wi, yi in _critical_residues(params, c1, c2, c):
        phase = (a1 * w + a2 * wi * wi + a3 * yi * yi) % c
        total += cmath.exp(TWO_PI * 1j * phase / c)
    return total * c1 / math.sqrt(c)


def count_critical_points(params: ExpSumParams) -> int:
    """Number of residues w mod c1 with gcd(w(w+q), c) = 1 solving the
    critical congruence a1 - 2 a2 wbar^3 - 2 a3 (w+q)bar^3 = 0 (mod c1),
    inverses taken mod c1. For c1 = 1 this is the single (empty) class."""
    c1, _ = stationary_split(params.c)  # raises ValueError for c < 2
    if c1 == 1:
        return 1
    return sum(1 for _ in _critical_residues(params, c1, c1, c1))


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
