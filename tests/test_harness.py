import cmath
import math
import random

import pytest

from palindrome_lab import census, harness
from palindrome_lab.harness import (
    Budget,
    BudgetExceededError,
    fit_averaged_k2,
    fit_critical_point_bound,
    fit_pointwise_k2,
    fit_prop1,
    fit_prop2_prop3,
    weyl_vdc_check,
    weyl_vdc_reports,
)


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


def test_fit_prop1_budget_guard():
    with pytest.raises(BudgetExceededError):
        fit_prop1(10, [10**8], [10**3], budget=Budget(max_probes=10))
    # strategy="both" pays for both strategies: 21,978 + 56,404 probes here,
    # while the cheaper one alone fits the budget
    with pytest.raises(BudgetExceededError):
        fit_prop1(10, [10**6], [10], budget=Budget(max_probes=30000))


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


def test_fit_prop2_prop3_budget_guard():
    with pytest.raises(BudgetExceededError):
        fit_prop2_prop3(10, [10**6], [100], budget=Budget(max_probes=10))


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


def test_asymptotic_report_budget():
    with pytest.raises(BudgetExceededError):
        harness.asymptotic_report(10, [10**9], budget=Budget(max_palindromes=100))


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
