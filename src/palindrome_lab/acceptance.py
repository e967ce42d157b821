"""The verification suite behind `verify-all` and tests/test_acceptance.py.

Each criterion returns a CriterionResult with a deterministic detail string
(no timings, reals at 12 significant digits) so reports are byte-identical
across runs. Criteria 1-9 accept a threads keyword for compatibility and
ignore it: everything runs serially.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from . import arith, census, expsum, harness, oscillate
from .report import fmt_real, render_csv, table

SEED = harness.DEFAULT_SEED

# acceptance contract constants
DENSITY_10_TARGET = 0.957804
DENSITY_TOLERANCE = 0.05
ZETA2_TARGET = 0.607927
ZETA2_TOLERANCE = 0.03
PROP1_GROWTH_LIMIT = 1.10
LEMMA48_GROWTH_LIMIT = 1.25


@dataclass(frozen=True)
class CriterionResult:
    cid: int
    name: str
    passed: bool
    detail: str


def _result(cid, name, passed, detail) -> CriterionResult:
    return CriterionResult(cid=cid, name=name, passed=bool(passed), detail=detail)


# --------------------------------------------------------------------- 1

def criterion_mobius_identity(quick: bool = False, threads: int = 1) -> CriterionResult:
    xs = (10**3, 10**5) if quick else (10**3, 10**5, 10**7)
    pieces = []
    ok = True
    for b in (2, 3, 10):
        for x in xs:
            try:
                rec = census.census_up_to(b, x, check_identity=True)
            except ArithmeticError as exc:
                ok = False
                pieces.append(f"b={b},x={x}:{exc}")
            else:
                pieces.append(f"b={b},x={x}:{rec.squarefree}")
    return _result(1, "mobius-identity", ok, " ".join(pieces))


# --------------------------------------------------------------------- 2

def criterion_density_convergence(quick: bool = False, threads: int = 1) -> CriterionResult:
    x_small, x_large = (10**2, 10**6) if quick else (10**4, 10**8)
    rec_small = census.census_up_to(10, x_small, check_identity=False)
    rec_large = census.census_up_to(10, x_large, check_identity=False)
    near = abs(rec_large.ratio - DENSITY_10_TARGET) <= DENSITY_TOLERANCE
    # the prediction itself must be near: the trend alone passes a wrong one
    predicted = rec_large.abs_error <= DENSITY_TOLERANCE
    trend = rec_large.abs_error <= rec_small.abs_error
    detail = (f"ratio({x_large})={fmt_real(rec_large.ratio)} "
              f"err={fmt_real(rec_large.abs_error)} "
              f"err({x_small})={fmt_real(rec_small.abs_error)}")
    return _result(2, "density-convergence", near and predicted and trend, detail)


# --------------------------------------------------------------------- 3

def criterion_unrestricted_density(quick: bool = False, threads: int = 1) -> CriterionResult:
    n_digits = 7 if quick else 9
    rec = census.q_fixed_length(10, n_digits)
    err = abs(rec.ratio - ZETA2_TARGET)
    ok = err <= ZETA2_TOLERANCE
    detail = (f"Q_10({n_digits})={rec.squarefree}/{rec.total} "
              f"ratio={fmt_real(rec.ratio)} err={fmt_real(err)}")
    return _result(3, "unrestricted-density", ok, detail)


# --------------------------------------------------------------------- 4

def _sp_identity_grid(quick: bool):
    cs = []
    for p in (2, 3, 5, 7, 11):
        c = p
        while c <= 10**4:
            cs.append(c)
            c *= p
    for c in (10, 100, 1000, 10**4):
        cs.append(c)
    per_c = 12 if quick else 55
    return sorted(set(cs)), per_c


def criterion_stationary_phase_identity(quick: bool = False, threads: int = 1) -> CriterionResult:
    cs, per_c = _sp_identity_grid(quick)
    rng = random.Random(SEED)
    checked = 0
    worst = 0.0
    failures = []
    for c in cs:
        tol = expsum.STATIONARY_PHASE_TOL * math.sqrt(c)
        for _ in range(per_c):
            a1, a2, a3 = (rng.randrange(-c, c) for _ in range(3))
            q = rng.randrange(-c, c + 1)
            params = expsum.ExpSumParams(a1, a2, a3, q, c)
            diff = abs(expsum.k2_full(params) - expsum.k2_stationary_phase(params))
            checked += 1
            worst = max(worst, diff / math.sqrt(c))
            if diff >= tol:
                failures.append(f"c={c},({a1},{a2},{a3},{q}):diff={fmt_real(diff)}")
    ok = not failures and checked >= (400 if quick else 2000)
    detail = f"tuples={checked} worst_scaled_diff={fmt_real(worst)}"
    if failures:
        detail += " failures: " + " ".join(failures[:5])
    return _result(4, "stationary-phase-identity", ok, detail)


# --------------------------------------------------------------------- 5

def criterion_oscillatory_constants(quick: bool = False, threads: int = 1) -> CriterionResult:
    count = 25 if quick else 100
    reports = oscillate.bound_campaign(SEED, count)
    violations = sum(not rep.passed for _, _, rep in reports)

    def margin(family):
        return min(rep.bound - rep.observed for name, _, rep in reports if name == family)

    detail = (f"specs={count}+{count} violations={violations} "
              f"min_margin_4M/m={fmt_real(margin('first-derivative'))} "
              f"min_margin_8KM/sqrt(r)={fmt_real(margin('second-derivative'))}")
    return _result(5, "oscillatory-constants", violations == 0, detail)


# --------------------------------------------------------------------- 6

def criterion_poisson_identity(quick: bool = False, threads: int = 1) -> CriterionResult:
    pieces = []
    ok = True
    for demo, q in (("triangle", 1), ("psi", 2), ("psi", 3), ("psi", 5)):
        rep = expsum.poisson_demo(demo, q)
        ok &= rep.difference < expsum.POISSON_TOL
        pieces.append(f"{demo}/q={q}:diff={fmt_real(rep.difference)}")
    return _result(6, "poisson-identity", ok, " ".join(pieces))


# --------------------------------------------------------------------- 7

def _spf_table(limit: int) -> np.ndarray:
    spf = np.zeros(limit + 1, dtype=np.int64)
    for i in range(2, limit + 1):
        if spf[i] == 0:
            spf[i::i][spf[i::i] == 0] = i
    return spf


def _primes_from_spf(q: int, spf: np.ndarray) -> list[int]:
    primes = []
    while q > 1:
        p = int(spf[q])
        primes.append(p)
        while q % p == 0:
            q //= p
    return primes


def criterion_cubic_residue_bound(quick: bool = False, threads: int = 1) -> CriterionResult:
    q_limit = 2000 if quick else 10**4
    exhaustive_a_limit = 200 if quick else 300
    spf = _spf_table(q_limit)
    bound_violations = []
    mismatches = []
    worst_ratio = 0.0
    solver_checks = 0
    for q in range(2, q_limit + 1):
        primes = _primes_from_spf(q, spf)
        # the units mod q: 0 <= w < q with no prime of q dividing w
        is_unit = np.ones(q, dtype=bool)
        for p in primes:
            is_unit[::p] = False
        units = np.flatnonzero(is_unit)
        cubes = (units * units % q) * units % q
        if math.gcd(q, 3) == 1:
            counts = np.bincount(cubes, minlength=q)
            allowed = 3 ** len(primes)
            top = int(counts.max())
            worst_ratio = max(worst_ratio, top / allowed)
            if top > allowed:
                bound_violations.append(f"q={q}:max={top}>3^omega={allowed}")
        # the keys cube * q + unit (below q**2) sort by cube and then by
        # unit, so the units with cube a are the ascending slice of
        # sorted_units between the edges of a in sorted_cubes
        keys = np.sort(cubes * q + units)
        sorted_cubes = keys // q
        sorted_units = keys % q
        if q <= exhaustive_a_limit:
            sample = list(range(q))
        else:
            rng = random.Random(SEED + q)
            sample = sorted({0, 1, 2, q - 1, q // 2,
                             *(int(c) for c in cubes[:4]),
                             *(rng.randrange(q) for _ in range(8))})
        los = np.searchsorted(sorted_cubes, sample, "left").tolist()
        his = np.searchsorted(sorted_cubes, sample, "right").tolist()
        for a, lo, hi in zip(sample, los, his):
            got = arith.kth_residue_solutions(a, 3, q)
            solver_checks += 1
            if sorted_units[lo:hi].tolist() != got:
                mismatches.append(f"q={q},a={a}")
    ok = not bound_violations and not mismatches
    detail = (f"q<={q_limit} worst_count/3^omega={fmt_real(worst_ratio)} "
              f"solver_checks={solver_checks} mismatches={len(mismatches)}")
    if bound_violations:
        detail += " bound: " + " ".join(bound_violations[:3])
    if mismatches:
        detail += " solver: " + " ".join(mismatches[:3])
    return _result(7, "cubic-residue-bound", ok, detail)


# --------------------------------------------------------------------- 8

def criterion_prop1_shape(quick: bool = False, threads: int = 1) -> CriterionResult:
    xs = (10**5, 10**6, 10**7) if quick else (10**6, 10**7, 10**8)
    # the full grid sits at the low end x^(1/4) of the mid window, where
    # S_10 is populated; at D = x^0.4 the count at x = 10^8 is 0
    exponent = 0.4 if quick else 0.25
    fit = harness.fit_prop1(10, xs, [math.ceil(x**exponent) for x in xs])
    first, last = fit.observed[0], fit.observed[-1]
    # a zero count would let the growth gate pass on empty data
    ok = min(fit.observed) > 0 and last <= PROP1_GROWTH_LIMIT * first + 1e-12
    detail = ("ratios=" + ";".join(fmt_real(v) for v in fit.observed) +
              f" first={fmt_real(first)} last={fmt_real(last)}")
    return _result(8, "prop1-shape", ok, detail)


# --------------------------------------------------------------------- 9

_LEMMA48_MA_PAIRS = ((0, 1), (1, 1), (2, 3), (5, 7), (3, 5))


def criterion_averaged_k2_stability(quick: bool = False, threads: int = 1) -> CriterionResult:
    n_values = (8, 10) if quick else (8, 10, 12)
    fits = harness.fit_averaged_k2(2, n_values, (4, 16, 64), _LEMMA48_MA_PAIRS)
    constants = [f.fitted_constant for f in fits]
    finite = all(math.isfinite(c) for c in constants)
    ok = finite and max(constants) <= LEMMA48_GROWTH_LIMIT * constants[0] + 1e-12
    detail = " ".join(f"N={n}:C'={fmt_real(c)}" for n, c in zip(n_values, constants))
    return _result(9, "averaged-k2-stability", ok, detail)


# --------------------------------------------------------------------- 10

def report_payload(quick: bool = True) -> str:
    """The deterministic CSV report of criteria 1-9 (used by verify-all and
    by the byte-identity determinism check)."""
    return _render(fn(quick=quick) for fn in _CRITERIA)


def _render(results) -> str:
    return render_csv(*table(results))


def criterion_determinism(rendered: str | None = None) -> CriterionResult:
    # every run of the quick payload in one process must render the same
    # bytes; a rerun meets warm caches (the prime table, K2's inverse-square
    # and root-of-unity arrays), so cached state must not leak into a report.
    # `rendered` is a quick payload this process has already rendered
    # (verify-all --quick passes its own rows 1-9), which spares one run
    one = report_payload(quick=True) if rendered is None else rendered
    two = report_payload(quick=True)
    ok = one == two
    detail = f"bytes={len(one)} identical={'yes' if ok else 'no'}"
    return _result(10, "determinism", ok, detail)


_CRITERIA = (
    criterion_mobius_identity,
    criterion_density_convergence,
    criterion_unrestricted_density,
    criterion_stationary_phase_identity,
    criterion_oscillatory_constants,
    criterion_poisson_identity,
    criterion_cubic_residue_bound,
    criterion_prop1_shape,
    criterion_averaged_k2_stability,
)


def run_all(quick: bool = False) -> list[CriterionResult]:
    results = [fn(quick=quick) for fn in _CRITERIA]
    rendered = _render(results) if quick else None
    return [*results, criterion_determinism(rendered=rendered)]
