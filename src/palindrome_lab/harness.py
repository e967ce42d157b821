"""Empirical verification campaigns: implied-constant fits, the smoothed
Weyl-differencing inequality, and census convergence tables.

Implied constants of asymptotic inequalities cannot be proven numerically;
campaigns here fit the constant over a grid (max of observed ratios) and
track whether the fit stays stable as the controlling parameter grows.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass
from typing import Mapping, Sequence

from . import arith, census, expsum
from .oscillate import PSI
from .parallel import map_in_order
from .streams import count_up_to

DEFAULT_SEED = 1729

CRITICAL_POINT_C_CAP = 10**4  # largest modulus fit_critical_point_bound visits


class BudgetExceededError(RuntimeError):
    """A campaign would exceed its enumeration budget."""


@dataclass(frozen=True)
class Budget:
    max_palindromes: int = 10**9
    max_probes: int = 10**8


@dataclass(frozen=True)
class BoundFit:
    """An empirically fitted implied constant over a parameter grid."""

    label: str
    grid: tuple[tuple, ...]
    observed: tuple[float, ...]
    fitted_constant: float
    stable: bool
    notes: tuple[str, ...] = ()


def _make_fit(label, grid, observed, notes=()):
    if observed:
        fitted = max(observed)
        # stable when the max is not attained at the final (growing) grid point
        stable = observed.index(fitted) != len(observed) - 1 or len(observed) == 1
    else:
        fitted = 0.0
        stable = True
    return BoundFit(label=label, grid=tuple(grid), observed=tuple(observed),
                    fitted_constant=fitted, stable=stable, notes=tuple(notes))


# ---------------------------------------------------------------------------
# square-divisor count fits
# ---------------------------------------------------------------------------

def _s_b_counts(b, points, budget):
    # S_b(x, D) per (x, D) point by strategy="both", which pays for both
    # strategies; the budget is checked right before each point is counted
    def count(point):
        x, d_dyadic = point
        if sum(census.s_b_costs(b, x, d_dyadic)) > budget.max_probes:
            raise BudgetExceededError(f"s_b probe budget exceeded at x={x}, D={d_dyadic}")
        return census.s_b(b, x, d_dyadic, strategy="both")

    return map_in_order(count, points)


def fit_prop1(b: int, xs: Sequence[int], ds: Sequence[int],
              budget: Budget = Budget()) -> BoundFit:
    """Fit the constant in the elementary bound  s_b(x, D) <= C * x / D^(3/2).

    xs and ds are paired pointwise. Both counting strategies are run on every
    grid point and must agree exactly.
    """
    grid = list(zip(xs, ds))
    counts = _s_b_counts(b, grid, budget)
    observed = [s * d_dyadic**1.5 / x for (x, d_dyadic), s in zip(grid, counts)]
    return _make_fit(f"s_{b} * D^(3/2) / x", grid, observed)


def fit_prop2_prop3(b: int, xs: Sequence[int], ds: Sequence[int],
                    budget: Budget = Budget()) -> tuple[BoundFit, BoundFit]:
    """Fit the two exponential-sum-driven shapes on their stated windows:

        s_b * D^(2/3)  / x^(2/3)    for x^(1/4)  <= D <= x^(2/5)
        s_b * D^(13/22) / x^(7/11)  for x^(3/13) <= D <= x^(8/31)

    Grid points outside a window are skipped with a note. At desk scale these
    check consistency of the shapes, not the asymptotics.
    """
    windows = (
        (f"s_{b} * D^(2/3) / x^(2/3)", (0.25, 0.4),
         lambda x, d, s: s * d ** (2 / 3) / x ** (2 / 3)),
        (f"s_{b} * D^(13/22) / x^(7/11)", (3 / 13, 8 / 31),
         lambda x, d, s: s * d ** (13 / 22) / x ** (7 / 11)),
    )
    points = list(zip(xs, ds))
    needed = [(x, d) for x, d in points
              if any(x**lo <= d <= x**hi for _, (lo, hi), _ in windows)]
    counts = dict(zip(needed, _s_b_counts(b, needed, budget)))

    fits = []
    for label, (wlo, whi), shape in windows:
        grid, observed, notes = [], [], []
        for x, d_dyadic in points:
            if not x**wlo <= d_dyadic <= x**whi:
                notes.append(f"skipped x={x}, D={d_dyadic}: outside window "
                             f"[x^{wlo:.4g}, x^{whi:.4g}]")
                continue
            grid.append((x, d_dyadic))
            observed.append(shape(x, d_dyadic, counts[(x, d_dyadic)]))
        fits.append(_make_fit(label, grid, observed, notes))
    return fits[0], fits[1]


# ---------------------------------------------------------------------------
# smoothed Weyl differencing
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WeylVdcReport:
    d_dyadic: int
    q_max: int
    lhs: float
    rhs: float

    @property
    def ratio(self) -> float:
        return self.lhs / self.rhs


def weyl_vdc_check(z: Mapping[int, complex], d_dyadic: int, q_max: int) -> WeylVdcReport:
    """Smoothed Weyl-differencing inequality for a bounded sequence z on
    [D, 2D]:

        |sum_{d ~ D} z_d| <= C * ( D/sqrt(Q)
            + sqrt(D/Q) * ( sum_{q <= Q} |sum_d psi(d/D) z_d conj(z_{d+q})| )^(1/2) )

    The psi-weighted correlations need z on [D/2, 5D/2 + Q]; missing values
    are an error.
    """
    if q_max < 1 or q_max * q_max > d_dyadic:
        raise ValueError("need 1 <= Q <= sqrt(D)")
    lo = math.floor(d_dyadic / 2)
    hi = math.ceil(5 * d_dyadic / 2) + q_max
    missing = [d for d in range(lo, hi + 1) if d not in z]
    if missing:
        raise ValueError(
            f"sequence must cover [{lo}, {hi}]; missing {len(missing)} indices "
            f"starting at {missing[0]}"
        )
    lhs = abs(sum(z[d] for d in range(d_dyadic, 2 * d_dyadic + 1)))
    corr_total = 0.0
    support = [d for d in range(lo, hi + 1) if PSI(d / d_dyadic) > 0.0]
    for shift in range(1, q_max + 1):
        corr = sum(PSI(d / d_dyadic) * z[d] * z[d + shift].conjugate() for d in support)
        corr_total += abs(corr)
    rhs = d_dyadic / math.sqrt(q_max) + math.sqrt(d_dyadic / q_max) * math.sqrt(corr_total)
    return WeylVdcReport(d_dyadic=d_dyadic, q_max=q_max, lhs=lhs, rhs=rhs)


def weyl_vdc_reports(d_dyadic: int, q_max: int, seed: int) -> list[tuple[str, WeylVdcReport]]:
    """weyl_vdc_check on each canonical sequence family, seeded: constant,
    random phase, linear phase, quadratic phase. Rows are (family, report)."""
    rng = random.Random(seed)
    idx = range(math.floor(d_dyadic / 2), math.ceil(5 * d_dyadic / 2) + q_max + 1)
    rand = {d: cmath.exp(2j * math.pi * rng.random()) for d in idx}
    theta = rng.random()
    theta2 = rng.random() / d_dyadic
    families = (
        ("constant", {d: 1.0 + 0.0j for d in idx}),
        ("random-phase", rand),
        ("linear-phase", {d: cmath.exp(2j * math.pi * theta * d) for d in idx}),
        ("quadratic-phase", {d: cmath.exp(2j * math.pi * theta2 * d * d) for d in idx}),
    )
    return [(name, weyl_vdc_check(z, d_dyadic, q_max)) for name, z in families]


# ---------------------------------------------------------------------------
# census convergence tables
# ---------------------------------------------------------------------------

def asymptotic_report(b: int, xs: Sequence[int],
                      budget: Budget = Budget()) -> list[census.CensusRecord]:
    """Census rows for each x (restricted, against the Euler-product density)
    and for each digit length reachable below max(xs) (unrestricted, against
    1/zeta(2))."""
    xs = sorted(xs)
    for x in xs:
        if count_up_to(b, x) > budget.max_palindromes:
            raise BudgetExceededError(f"palindrome budget exceeded at x={x}")
    records = [census.census_up_to(b, x) for x in xs]
    n_digits = 1
    while b**n_digits <= xs[-1]:
        records.append(census.q_fixed_length(b, n_digits))
        n_digits += 1
    return records


# ---------------------------------------------------------------------------
# Kloosterman-sum bound fits
# ---------------------------------------------------------------------------

def _divisors_of_prime_power_product(b: int, n_max: int, cap: int) -> list[int]:
    divisors = [1]
    for p, alpha in arith.factorize(b**n_max).items():
        divisors = [d * p**e for d in divisors for e in range(alpha + 1) if d * p**e <= cap]
    return sorted(d for d in divisors if d > 1)


def fit_pointwise_k2(b: int, n_max: int, ma_pairs: Sequence[tuple[int, int]],
                     c_cap: int = 10**8) -> BoundFit:
    """Fit the constant in  |K2(m, a, c)| <= C_b  over divisors c of b^n_max
    (capped for runtime) and sample pairs with gcd(a, b) = 1."""
    grid, observed, notes = [], [], []
    for c in _divisors_of_prime_power_product(b, n_max, c_cap):
        for m, a in ma_pairs:
            if math.gcd(a, b) != 1:
                notes.append(f"skipped (m={m}, a={a}): gcd(a, b) != 1")
                continue
            grid.append((m, a, c))
            observed.append(abs(expsum.k2(expsum.ExpSumParams(m, a, 0, 0, c))))
    return _make_fit(f"|K2(m,a,c)| over c | {b}^{n_max}", grid, observed, notes)


def fit_averaged_k2(b: int, n_values: Sequence[int], q_values: Sequence[int],
                    ma_pairs: Sequence[tuple[int, int]]) -> list[BoundFit]:
    """Per-N fits of C' in  sum_{|q| <= Q} |K2(m, a, -a, q, b^N)| <=
    C' (Q + b^(N/2)); one BoundFit per N so stability across N is visible."""
    fits = []
    for n in n_values:
        c = b**n
        scale_term = math.sqrt(c)
        grid, observed = [], []
        for q_max in q_values:
            for m, a in ma_pairs:
                if math.gcd(a, b) != 1:
                    continue
                total = expsum.k2_q_average(m, a, q_max, c)
                grid.append((n, q_max, m, a))
                observed.append(total / (q_max + scale_term))
        fits.append(_make_fit(f"K2 q-average / (Q + {b}^({n}/2))", grid, observed))
    return fits


def fit_critical_point_bound(primes: Sequence[int], alpha_max: int,
                             tuples_per_c: int, seed: int = DEFAULT_SEED) -> BoundFit:
    """Fit kappa in  |K2| <= kappa * #critical points  per prime power
    c = p^alpha <= CRITICAL_POINT_C_CAP.

    Tuples whose critical count is zero are recorded in the notes instead of
    fitted (the literal count can vanish while K2 does not when unit classes
    degenerate mod c1).
    """
    rng = random.Random(seed)
    grid, observed, notes = [], [], []
    for p in primes:
        alpha = 2
        while alpha <= alpha_max and p**alpha <= CRITICAL_POINT_C_CAP:
            c = p**alpha
            for _ in range(tuples_per_c):
                a1, a2, a3 = (rng.randrange(-c, c) for _ in range(3))
                q = rng.randrange(-c // 2, c // 2 + 1)
                params = expsum.ExpSumParams(a1, a2, a3, q, c)
                value = abs(expsum.k2_full(params))
                crit = expsum.count_critical_points(params)
                if crit == 0:
                    if value > expsum.STATIONARY_PHASE_TOL * math.sqrt(c):
                        notes.append(
                            f"degenerate critical count at c={c}, "
                            f"(a1,a2,a3,q)=({a1},{a2},{a3},{q}): |K2|={value:.6g}")
                    continue
                grid.append((p, alpha, a1, a2, a3, q))
                observed.append(value / crit)
            alpha += 1
    return _make_fit("|K2| / #critical points", grid, observed, notes)
