import cmath
import math
import random

import mpmath as mp
import numpy as np
import pytest

from palindrome_lab import oscillate
from palindrome_lab.oscillate import (
    KMAX_DERIVATIVE,
    PHI,
    PSI,
    PhaseSpec,
    RejectedSpecError,
    SmoothBump,
    check_first_derivative_bound,
    check_second_derivative_bound,
    fourier_transform,
    oscillatory_integral,
    ramp_derivative,
    random_first_derivative_spec,
    random_second_derivative_spec,
)


# ---------------------------------------------------------------- bumps

def test_bump_plateau_and_support():
    assert PSI.derivative(1.5, 0) == 1.0
    assert PSI.derivative(1.0, 0) == 1.0
    assert PSI.derivative(2.0, 0) == 1.0
    assert PHI.derivative(3.0, 0) == 0.0
    assert PHI.derivative(0.0, 0) == 1.0
    assert PSI.derivative(0.5, 0) == 0.0
    assert PSI.derivative(2.5, 0) == 0.0
    assert PSI.derivative(0.75, 0) == pytest.approx(0.5)


def test_bump_range_and_monotone_ramps():
    xs = np.linspace(0.4, 2.6, 1201)
    vals = [PSI.derivative(float(x)) for x in xs]
    assert min(vals) >= 0.0 and max(vals) <= 1.0
    rise = [PSI.derivative(float(x)) for x in np.linspace(0.5, 1.0, 300)]
    assert all(b >= a for a, b in zip(rise, rise[1:]))
    fall = [PSI.derivative(float(x)) for x in np.linspace(2.0, 2.5, 300)]
    assert all(b <= a for a, b in zip(fall, fall[1:]))


def test_bump_first_derivative_matches_central_differences():
    h = 1e-6
    rng = random.Random(3)
    worst = 0.0
    for _ in range(1000):
        x = rng.uniform(0.4, 2.6)
        fd = (PSI.derivative(x + h) - PSI.derivative(x - h)) / (2 * h)
        worst = max(worst, abs(fd - PSI.derivative(x, 1)))
    assert worst < 1e-6


def test_bump_higher_derivatives_consistent():
    # order k+1 is the derivative of order k (central differences)
    h = 1e-6
    for order in (1, 2, 3):
        for x in (0.7, 0.85, 2.2, 2.34):
            fd = (PSI.derivative(x + h, order) - PSI.derivative(x - h, order)) / (2 * h)
            assert fd == pytest.approx(PSI.derivative(x, order + 1), rel=1e-4, abs=1e-3)


def test_bump_smooth_at_ramp_endpoints():
    # derivatives up to order 4 vanish continuously where ramps meet the
    # plateau and the zero extension
    for x0 in (0.5, 1.0, 2.0, 2.5):
        for order in range(5):
            inside = PSI.derivative(x0 + 1e-7, order)
            outside = PSI.derivative(x0 - 1e-7, order)
            assert abs(inside - outside) < 1e-5, (x0, order)


def test_node_cache_gives_the_same_floats():
    cached = PSI.with_node_cache()
    assert isinstance(cached, SmoothBump)
    assert (cached.support, cached.plateau) == (PSI.support, PSI.plateau)
    xs = [0.5, 1.0, 2.0, 2.5, *(float(x) for x in np.linspace(0.4, 2.6, 221))]
    for _ in range(2):  # the second sweep answers from the cache
        for x in xs:
            assert cached(x) == PSI(x)
            for order in range(KMAX_DERIVATIVE + 1):
                assert cached.derivative(x, order) == PSI.derivative(x, order), (x, order)
    with pytest.raises(ValueError):
        cached.derivative(1.0, KMAX_DERIVATIVE + 1)


def test_bump_order_validation():
    with pytest.raises(ValueError):
        PSI.derivative(1.0, 11)
    with pytest.raises(ValueError):
        SmoothBump((0.0, 1.0), (2.0, 3.0))  # plateau outside the support
    assert PHI.derivative(1.3, 8) != 0.0  # order 8 available


def test_ramp_basics():
    assert ramp_derivative(0.0) == 0.0
    assert ramp_derivative(1.0) == 1.0
    assert ramp_derivative(0.5) == pytest.approx(0.5)
    # sigma(t) + sigma(1-t) = 1
    for t in (0.1, 0.3, 0.42, 0.77):
        assert ramp_derivative(t) + ramp_derivative(1 - t) == pytest.approx(1.0)


# ------------------------------------------------------- fourier transform

def triangle(u):
    return max(0.0, 1.0 - abs(u))


def sinc_squared(k):
    if k == 0:
        return 1.0
    return (math.sin(math.pi * k) / (math.pi * k)) ** 2


@pytest.mark.parametrize("k", [0.0, 0.25, -0.5, 1.0, 2.5, -7.3, 13.0, 26.6, 50.0, -50.0])
def test_triangle_transform_closed_form(k):
    got = fourier_transform(triangle, k, support=(-1, 1), breakpoints=(0.0,))
    assert abs(got - sinc_squared(k)) < 1e-8


def test_transform_zero_frequency_is_mass():
    assert fourier_transform(PSI, 0.0) == pytest.approx(1.5, abs=1e-10)
    assert fourier_transform(PHI, 0.0) == pytest.approx(3.0, abs=1e-10)


def test_transform_conjugate_symmetry():
    # exact: both signs run the same quadratures at 2 pi |k|, below and in
    # the integration-by-parts branch (|k| >= 4); poisson_check relies on it
    for k in (0.7, 3.3, 4.0, 17 / 3, 12.1, 40.0):
        plus = fourier_transform(PSI, k)
        minus = fourier_transform(PSI, -k)
        assert minus == plus.conjugate(), k


def test_phi_transform_cubic_decay():
    # |phi-hat(k)| <= C3 / k^3 on k in [1, 100]; record the fitted constant
    fitted = 0.0
    for k in np.linspace(1.0, 100.0, 45):
        fitted = max(fitted, abs(fourier_transform(PHI, float(k))) * float(k) ** 3)
    assert math.isfinite(fitted) and fitted > 0.0
    # decay is much faster than cubic; the fit must come from small k
    assert abs(fourier_transform(PHI, 100.0)) <= fitted / 100.0**3 + 1e-15


def test_transform_support_required():
    with pytest.raises(ValueError):
        fourier_transform(triangle, 1.0)


# ------------------------------------------------------ oscillatory integrals

def test_oscillatory_constant():
    spec = PhaseSpec(f=lambda x: 0.0, df=lambda x: 0.0, g=lambda x: 1.0,
                     a=0.0, b=1.0, amp_bound=1.0)
    res = oscillatory_integral(spec)
    assert res.value == pytest.approx(1.0)


def test_oscillatory_linear_phase():
    spec = PhaseSpec(f=lambda x: 10.0 * x, df=lambda x: 10.0, g=lambda x: 1.0,
                     a=0.0, b=1.0, amp_bound=1.0)
    res = oscillatory_integral(spec)
    exact = (cmath.exp(10j) - 1.0) / 10j
    assert abs(res.value - exact) < 1e-10
    assert abs(res.value) <= 0.2


def test_oscillatory_fresnel_two_schemes():
    spec = PhaseSpec(f=lambda x: x * x, df=lambda x: 2 * x, d2f=lambda x: 2.0,
                     g=lambda x: 1.0, a=-1.0, b=1.0, amp_bound=1.0)
    res = oscillatory_integral(spec)
    # independent scheme: mpmath gauss-legendre quadrature
    mp.mp.dps = 25
    other = mp.quad(lambda t: mp.e ** (1j * t * t), [-1, 0, 1])
    assert abs(res.value - complex(other)) < 1e-10
    assert abs(res.value) == pytest.approx(1.9125172062006439, abs=1e-9)


def test_oscillatory_high_frequency_panels():
    from scipy.special import fresnel

    alpha = 500.0
    spec = PhaseSpec(f=lambda x: alpha * x * x, df=lambda x: 2 * alpha * x,
                     d2f=lambda x: 2 * alpha, g=lambda x: 1.0, a=1.0, b=2.0,
                     amp_bound=1.0)
    res = oscillatory_integral(spec)
    assert res.panels > 10
    # independent scheme: int_0^X exp(i alpha t^2) dt via Fresnel functions
    scale = math.sqrt(math.pi / (2 * alpha))
    z1, z2 = (x / scale for x in (1.0, 2.0))
    s1, c1 = fresnel(z1)
    s2, c2 = fresnel(z2)
    exact = scale * complex(c2 - c1, s2 - s1)
    assert abs(res.value - exact) < 1e-8


# ----------------------------------------------------------- bound checks

def test_first_derivative_bound_example():
    spec = PhaseSpec(f=lambda x: 10.0 * x, df=lambda x: 10.0, g=lambda x: 1.0,
                     a=0.0, b=1.0, amp_bound=1.0)
    rep = check_first_derivative_bound(spec, 9.99)
    assert rep.passed
    assert rep.observed == pytest.approx(0.19178485493262769, abs=1e-9)
    assert rep.bound == pytest.approx(4.0 / 9.99)


def test_first_derivative_bound_cubic_example():
    spec = PhaseSpec(f=lambda x: x + x**3, df=lambda x: 1 + 3 * x * x,
                     g=lambda x: x, a=1.0, b=2.0, amp_bound=2.0)
    rep = check_first_derivative_bound(spec, 1.0)
    assert rep.passed
    assert rep.observed <= 8.0


def test_first_derivative_bound_rejections():
    wiggly = PhaseSpec(f=lambda x: 10 * x, df=lambda x: 10.0,
                       g=lambda x: math.sin(8 * x) + 1.0, a=0.0, b=2.0, amp_bound=2.0)
    with pytest.raises(RejectedSpecError):
        check_first_derivative_bound(wiggly, 5.0)
    sign_change = PhaseSpec(f=lambda x: x * x, df=lambda x: 2 * x,
                            g=lambda x: 1.0, a=-1.0, b=1.0, amp_bound=1.0)
    with pytest.raises(RejectedSpecError):
        check_first_derivative_bound(sign_change, 0.5)


def test_second_derivative_bound_fresnel():
    spec = PhaseSpec(f=lambda x: x * x, df=lambda x: 2 * x, d2f=lambda x: 2.0,
                     g=lambda x: 1.0, a=-1.0, b=1.0, amp_bound=1.0)
    rep = check_second_derivative_bound(spec, 1.99)
    assert rep.passed
    assert rep.observed == pytest.approx(1.9125172062006439, abs=1e-9)
    assert rep.bound == pytest.approx(8.0 / math.sqrt(1.99))


def test_second_derivative_bound_bump_amplitude():
    spec = PhaseSpec(f=lambda x: 50.0 * x * x, df=lambda x: 100.0 * x,
                     d2f=lambda x: 100.0, g=lambda x: PSI(x), a=0.6, b=2.4,
                     amp_bound=1.0, g_pieces=2)
    rep = check_second_derivative_bound(spec, 99.0)
    assert rep.passed


def test_second_derivative_degenerate_interval():
    spec = PhaseSpec(f=lambda x: x * x, df=lambda x: 2 * x, d2f=lambda x: 2.0,
                     g=lambda x: 1.0, a=1.0, b=1.0 + 1e-9, amp_bound=1.0)
    rep = check_second_derivative_bound(spec, 1.0)
    assert rep.passed
    assert rep.observed < 1e-8


def test_randomized_first_derivative_bounds():
    rng = random.Random(21)
    for _ in range(30):
        spec, m = random_first_derivative_spec(rng)
        rep = check_first_derivative_bound(spec, m)
        assert rep.passed


def test_randomized_second_derivative_bounds():
    rng = random.Random(22)
    for _ in range(30):
        spec, r = random_second_derivative_spec(rng)
        rep = check_second_derivative_bound(spec, r)
        assert rep.passed


def test_second_derivative_amplitude_equals_np_interp(monkeypatch):
    # the amplitude is np.interp's piecewise-linear interpolant in Python;
    # it must give np.interp's float on the bound checks' sample grid, at
    # the knots and ends, between them and just outside [a, b]
    knots = []
    real = oscillate._piecewise_linear
    monkeypatch.setattr(oscillate, "_piecewise_linear",
                        lambda kx, ky: knots.append((kx, ky)) or real(kx, ky))
    pieces_seen = set()
    for seed in range(240):
        rng = random.Random(seed)
        spec, _ = random_second_derivative_spec(rng)
        kx, ky = knots[-1]
        a, b = spec.a, spec.b
        assert kx == np.linspace(a, b, spec.g_pieces + 1).tolist()
        pieces_seen.add(spec.g_pieces)
        xs = [*np.linspace(a, b, oscillate._BOUND_SAMPLES).tolist(), *kx,
              *(rng.uniform(a, b) for _ in range(50)),
              math.nextafter(a, -math.inf), math.nextafter(b, math.inf),
              a - 1e-9, b + 1e-9, a - 1.0, b + 1.0]
        for x in xs:
            assert spec.g(x) == float(np.interp(x, kx, ky)), (seed, x)
    assert pieces_seen == {1, 2, 3}


# --------------------------------------------------- nonstationary decay

def make_bump_family(phis):
    # amplitude vanishing to all orders at the endpoints, so repeated
    # integration by parts carries no boundary terms
    specs = []
    for lam in phis:
        specs.append(PhaseSpec(
            f=lambda x, lam=lam: lam * x,
            df=lambda x, lam=lam: lam,
            d2f=lambda x: 0.0,
            g=PSI,
            a=0.5, b=2.5, amp_bound=1.0,
        ))
    return specs


def test_nonstationary_decay_order_one_consistent():
    for spec in make_bump_family((10.0, 100.0)):
        lam = spec.df(0.0)
        value = oscillatory_integral(spec).value
        # first-order decay: |I| <= TV(psi) / Phi <= 4 / Phi
        assert abs(value) <= 4.0 / lam + 1e-9
        # int psi(x) e^{i lam x} dx is the conjugate of psi's transform at
        # lam / 2 pi; panelled quad against QAWO, each within its tolerance
        expected = fourier_transform(PSI, lam / (2 * math.pi)).conjugate()
        assert abs(value - expected) <= 1e-8 + 1e-10
