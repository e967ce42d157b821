import cmath
import math
import operator
import random
import tracemalloc

import pytest

from palindrome_lab import census, harness
from palindrome_lab.harness import (
    BudgetExceededError,
    fit_averaged_k2,
    fit_critical_point_bound,
    fit_pointwise_k2,
    fit_prop1,
    fit_prop2_prop3,
    weyl_vdc_check,
    weyl_vdc_reports,
)
from palindrome_lab.oscillate import PSI


def constant_sequence(d_dyadic, q_max):
    lo = math.floor(d_dyadic / 2)
    hi = math.ceil(5 * d_dyadic / 2) + q_max
    return {d: 1.0 + 0.0j for d in range(lo, hi + 1)}


def test_weyl_vdc_constant_sequence():
    rep = weyl_vdc_check(constant_sequence(400, 16), 400, 16)
    assert rep.lhs == pytest.approx(401.0)
    assert rep.rhs == pytest.approx(589.8979485566356, rel=1e-9)
    assert rep.ratio < 1.0


def test_weyl_vdc_random_phases_slack():
    rng = random.Random(4)
    d_dyadic, q_max = 256, 12
    lo = math.floor(d_dyadic / 2)
    hi = math.ceil(5 * d_dyadic / 2) + q_max
    z = {d: cmath.exp(2j * math.pi * rng.random()) for d in range(lo, hi + 1)}
    rep = weyl_vdc_check(z, d_dyadic, q_max)
    # cancellation makes the left side far smaller than the right
    assert rep.lhs < 0.3 * rep.rhs


def test_weyl_vdc_q_one():
    rep = weyl_vdc_check(constant_sequence(100, 1), 100, 1)
    assert rep.ratio <= 1.0


def test_weyl_vdc_input_validation():
    with pytest.raises(ValueError):
        weyl_vdc_check(constant_sequence(100, 1), 100, 11)  # Q > sqrt(D)
    z = constant_sequence(100, 5)
    del z[250]
    with pytest.raises(ValueError):
        weyl_vdc_check(z, 100, 5)


def test_weyl_vdc_reports_refuse_q_before_building_families():
    # Q = 1000 > sqrt(2 * 10**5): refused before the four families of about
    # 5 * 10**5 values each are built
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="need 1 <= Q <= sqrt"):
            weyl_vdc_reports(2 * 10**5, 1000, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_weyl_vdc_evaluates_the_bump_once_per_index(monkeypatch):
    # psi(d/D) depends on d alone: at most one PSI call per d in
    # [D/2, 5D/2 + Q] per family, not one per d and shift
    d_dyadic, q_max = 400, 16
    calls = []

    def counted(u):
        calls.append(u)
        return PSI(u)

    monkeypatch.setattr(harness, "PSI", counted)
    reports = weyl_vdc_reports(d_dyadic, q_max, harness.DEFAULT_SEED)
    span = math.ceil(5 * d_dyadic / 2) + q_max - math.floor(d_dyadic / 2) + 1
    assert len(reports) == 4
    assert 0 < len(calls) <= len(reports) * span


def python_vdc(z, d_dyadic, q_max):
    # the correlations as Python adds them: psi(d/D) z_d once per d, then per
    # shift the complex products summed one by one from 0 by sum()
    lo = math.floor(d_dyadic / 2)
    hi = math.ceil(5 * d_dyadic / 2) + q_max
    lhs = abs(sum(z[d] for d in range(d_dyadic, 2 * d_dyadic + 1)))
    weighted = {d: psi * z[d] for d in range(lo, hi + 1) if (psi := PSI(d / d_dyadic)) > 0.0}
    conj = {d: z[d].conjugate() for d in range(lo, hi + 1)}
    corr_total = 0.0
    for shift in range(1, q_max + 1):
        shifted = map(conj.__getitem__, map(shift.__add__, weighted))
        corr_total += abs(sum(map(operator.mul, weighted.values(), shifted)))
    rhs = d_dyadic / math.sqrt(q_max) + math.sqrt(d_dyadic / q_max) * math.sqrt(corr_total)
    return lhs, rhs


def test_weyl_vdc_matches_the_python_sum(monkeypatch):
    # bit for bit, on the four families and on sequences with signed zeros
    # and plain floats; a pairwise sum of the products moves the last bits
    sequences = []
    check = harness.weyl_vdc_check

    def recorded(z, d_dyadic, q_max):
        sequences.append((z, d_dyadic, q_max))
        return check(z, d_dyadic, q_max)

    monkeypatch.setattr(harness, "weyl_vdc_check", recorded)
    for d_dyadic, q_max in ((2048, 40), (129, 11)):
        weyl_vdc_reports(d_dyadic, q_max, harness.DEFAULT_SEED)
    assert len(sequences) == 8
    rng = random.Random(27)
    idx = range(1024, 5120 + 40 + 1)
    parts = (0.0, -0.0, 1.0, -1.0, 0.5)
    sequences.append(({d: complex(rng.choice(parts), rng.choice(parts)) for d in idx}, 2048, 40))
    sequences.append(({d: rng.uniform(-1.0, 1.0) for d in idx}, 2048, 40))
    for z, d_dyadic, q_max in sequences:
        rep = check(z, d_dyadic, q_max)
        lhs, rhs = python_vdc(z, d_dyadic, q_max)
        assert (rep.lhs.hex(), rep.rhs.hex()) == (lhs.hex(), rhs.hex()), (d_dyadic, q_max)


def test_weyl_vdc_campaign_envelope():
    ratios = [rep.ratio for _, rep in weyl_vdc_reports(200, 14, harness.DEFAULT_SEED)]
    assert len(ratios) == 4
    assert all(math.isfinite(r) for r in ratios)
    assert max(ratios) <= 4.0
    # reproducible bit for bit
    again = [rep.ratio for _, rep in weyl_vdc_reports(200, 14, harness.DEFAULT_SEED)]
    assert again == ratios


def test_fit_prop1_small_grid():
    fit = fit_prop1(10, [10**4, 10**5], [40, 100])
    assert fit.observed[0] == 0.0
    assert fit.observed[1] == pytest.approx(100**1.5 / 10**5)
    assert fit.fitted_constant == max(fit.observed)


def test_fit_prop1_per_base_constants():
    # one fit per base; constants are base-dependent
    fits = {b: fit_prop1(b, [10**4, 10**5], [40, 100]) for b in (2, 10)}
    for b, fit in fits.items():
        assert len(fit.observed) == 2
        assert all(math.isfinite(v) and v >= 0.0 for v in fit.observed)
        assert fit.fitted_constant == max(fit.observed)


def test_fit_prop1_budget_guard(monkeypatch):
    monkeypatch.setattr(harness, "MAX_PROBES", 10)
    with pytest.raises(BudgetExceededError):
        fit_prop1(10, [10**8], [10**3])
    # only the stream strategy's probes count: the 1,998 palindromes below
    # 10**6 against the 11 squares of d = 10..20 make 21,978, and the
    # multiples kernel adds nothing to the budget
    monkeypatch.setattr(harness, "MAX_PROBES", 21978)
    assert fit_prop1(10, [10**6], [10]).grid == ((10**6, 10),)
    monkeypatch.setattr(harness, "MAX_PROBES", 21977)
    with pytest.raises(BudgetExceededError):
        fit_prop1(10, [10**6], [10])


def test_fit_prop1_budget_takes_cheap_points():
    # 199,998 palindromes against the 31 squares of d = 30..60, about 6.2
    # million probes; the multiples of those d^2 below 10**10 number about
    # 174 million, which the kernel never walks
    fit = fit_prop1(10, [10**10], [30])
    assert fit.grid == ((10**10, 30),) and len(fit.observed) == 1


def test_fit_prop2_prop3_windows():
    mid, low = fit_prop2_prop3(10, [10**6, 10**6, 10**6], [100, 30, 500])
    # D = 100 sits in [x^(1/4), x^(2/5)] = [31.6, 251.2]
    assert (10**6, 100) in mid.grid
    # D = 500 is outside both windows; D = 30 only fits [x^(3/13), x^(8/31)]
    # = [24.3, 35.4]
    assert all(point != (10**6, 500) for point in mid.grid + low.grid)
    assert (10**6, 30) in low.grid
    assert (10**6, 30) not in mid.grid
    assert any("outside window" in note for note in mid.notes)
    # shape values for the points actually computed
    idx = mid.grid.index((10**6, 100))
    assert mid.observed[idx] == pytest.approx(1 * 100 ** (2 / 3) / 10**4)


def test_fit_prop2_prop3_budget_guard(monkeypatch):
    monkeypatch.setattr(harness, "MAX_PROBES", 10)
    with pytest.raises(BudgetExceededError):
        fit_prop2_prop3(10, [10**6], [100])


def _count_s_b_calls(monkeypatch):
    calls = []
    real = census.s_b

    def counted(b, x, d_dyadic, strategy):
        calls.append((x, d_dyadic))
        return real(b, x, d_dyadic, strategy=strategy)

    monkeypatch.setattr(census, "s_b", counted)
    return calls


def test_fits_count_s_b_once_per_fitted_point(monkeypatch):
    calls = _count_s_b_calls(monkeypatch)
    xs, ds = [10**4, 10**5], [40, 100]
    fit_prop1(10, xs, ds)
    assert calls == [(10**4, 40), (10**5, 100)]
    calls.clear()
    # D = 100 and 30 are each in one window, 33 in both, 500 in neither
    mid, low = fit_prop2_prop3(10, [10**6] * 4, [100, 30, 500, 33])
    assert calls == [(10**6, 100), (10**6, 30), (10**6, 33)]
    assert (10**6, 33) in mid.grid and (10**6, 33) in low.grid
    assert set(mid.grid + low.grid) == set(calls)


def test_asymptotic_report_rows():
    records = harness.asymptotic_report(10, [10**3, 10**4])
    up_to = [r for r in records if r.scope_kind == "up_to"]
    fixed = [r for r in records if r.scope_kind == "fixed_length"]
    assert [r.scope for r in up_to] == [10**3, 10**4]
    assert [r.scope for r in fixed] == [1, 2, 3, 4]
    for r in up_to:
        assert r.restricted and r.abs_error == pytest.approx(abs(r.ratio - r.predicted))
    for r in fixed:
        assert not r.restricted


def test_asymptotic_report_budget(monkeypatch):
    monkeypatch.setattr(harness, "MAX_PALINDROMES", 100)
    with pytest.raises(BudgetExceededError):
        harness.asymptotic_report(10, [10**9])


@pytest.mark.parametrize("b", (2, 10))
def test_fit_pointwise_k2_small_fit_holds_on_large_c(b):
    pairs = [(1, 1), (0, 1), (3, 5), (2, 7)]
    fit_small = fit_pointwise_k2(b, 14, pairs, c_cap=10**3)
    assert fit_small.observed
    fitted = fit_small.fitted_constant
    fit_large = fit_pointwise_k2(b, 14, pairs, c_cap=10**8)
    large_values = [v for (m, a, c), v in zip(fit_large.grid, fit_large.observed)
                    if c > 10**3]
    assert large_values
    assert max(large_values) <= fitted + 1e-9


def test_fit_pointwise_k2_skips_bad_pairs():
    skipped = fit_pointwise_k2(2, 4, [(1, 2)])
    assert any("gcd" in note for note in skipped.notes)
    assert not skipped.observed


def test_fit_averaged_k2_structure():
    fits = fit_averaged_k2(2, (6, 8), (4, 8), ((0, 1), (1, 1)))
    assert len(fits) == 2
    for fit in fits:
        assert fit.observed
        assert math.isfinite(fit.fitted_constant)


def test_fit_critical_point_bound_stable_across_exponents():
    fit = fit_critical_point_bound((2, 3, 5, 7), 8, 10, seed=11)
    assert fit.observed
    assert all(r >= 0.0 for r in fit.observed)
    # per-prime ratios stay below sqrt(p) uniformly in the exponent: the
    # stationary-phase identity caps |K2| by sqrt(c2/c1) * #critical points
    per_prime = {}
    for (p, alpha, *_), r in zip(fit.grid, fit.observed):
        per_prime.setdefault(p, []).append(r)
    for p, ratios in per_prime.items():
        assert max(ratios) <= math.sqrt(p) + 1e-9
