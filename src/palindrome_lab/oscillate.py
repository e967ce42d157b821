"""Smooth bumps, Fourier transforms, and oscillatory-integral bounds.

The canonical bump psi is supported on [1/2, 5/2] and identically 1 on
[1, 2]. Every bump is built from the C-infinity ramp

    sigma(t) = exp(-1/t) / (exp(-1/t) + exp(-1/(1-t)))

rising from 0 at t=0 to 1 at t=1. Derivatives up to order 10 are computed
exactly by Taylor-jet arithmetic: exp(-1/t) has j-th derivative
exp(-1/t) * P_j(1/t) for an integer polynomial family P_j, and the quotient
is expanded by power-series division at the evaluation point.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from dataclasses import dataclass
from functools import partial
from math import factorial
from typing import Callable

import numpy as np
from scipy.integrate import quad

KMAX_DERIVATIVE = 10

_RAMP_CUT = 0.005  # below this the ramp and all its derivatives underflow

TWO_PI = 2.0 * math.pi

_MAX_PANELS = 8192

_OSC_TOL = 1e-8  # absolute tolerance of oscillatory_integral

# Sample count with which the bound checks verify hypotheses.
_BOUND_SAMPLES = 4001


class QuadratureError(ArithmeticError):
    """Quadrature failed to reach the requested tolerance."""

    def __init__(self, message: str, achieved: float):
        super().__init__(f"{message} (achieved error {achieved:.3e})")
        self.achieved = achieved


class RejectedSpecError(ValueError):
    """Sampled hypotheses of a bound check failed; the spec is rejected."""


# ---------------------------------------------------------------------------
# the C-infinity ramp and its jets
# ---------------------------------------------------------------------------

def _build_exp_inv_polys(kmax: int) -> list[list[int]]:
    # P_0 = 1, P_{j+1}(s) = s^2 (P_j(s) - P_j'(s));  d^j/dt^j exp(-1/t)
    # equals exp(-1/t) * P_j(1/t)
    polys = [[1]]
    for _ in range(kmax):
        p = polys[-1]
        dp = [i * p[i] for i in range(1, len(p))]
        diff = [p[i] - (dp[i] if i < len(dp) else 0) for i in range(len(p))]
        polys.append([0, 0] + diff)
    return polys


_EXP_INV_POLYS = _build_exp_inv_polys(KMAX_DERIVATIVE)


def _polyval(coeffs: list[int], s: float) -> float:
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * s + c
    return acc


def _exp_inv_taylor(t: float, order: int) -> list[float]:
    # Taylor coefficients of u(s) = exp(-1/s) at s = t
    u = math.exp(-1.0 / t)
    s = 1.0 / t
    return [u * _polyval(_EXP_INV_POLYS[j], s) / factorial(j) for j in range(order + 1)]


def _series_divide(num: list[float], den: list[float]) -> list[float]:
    out: list[float] = []
    for n in range(len(num)):
        acc = num[n]
        for i in range(n):
            acc -= out[i] * den[n - i]
        out.append(acc / den[0])
    return out


def _ramp_taylor(t: float, order: int) -> list[float]:
    if t <= _RAMP_CUT:
        return [0.0] * (order + 1)
    if t >= 1.0 - _RAMP_CUT:
        return [1.0] + [0.0] * order
    if t > 0.5:
        # sigma(t) = 1 - sigma(1-t); keeps the exp arguments well conditioned
        mirror = _ramp_taylor(1.0 - t, order)
        out = [((-1.0) ** (j + 1)) * mirror[j] for j in range(order + 1)]
        out[0] += 1.0
        return out
    u = _exp_inv_taylor(t, order)
    g = _exp_inv_taylor(1.0 - t, order)
    v = [g[j] * ((-1.0) ** j) for j in range(order + 1)]
    w = [u[j] + v[j] for j in range(order + 1)]
    return _series_divide(u, w)


def ramp_derivative(t: float, order: int = 0) -> float:
    """order-th derivative of the canonical ramp sigma at t."""
    if not 0 <= order <= KMAX_DERIVATIVE:
        raise ValueError(f"derivative order must be in [0, {KMAX_DERIVATIVE}]")
    if t <= 0.0:
        return 0.0
    if t >= 1.0:
        return 1.0 if order == 0 else 0.0
    return _ramp_taylor(t, order)[order] * factorial(order)


# ---------------------------------------------------------------------------
# smooth bumps
# ---------------------------------------------------------------------------

class SmoothBump:
    """A bump that is 1 on the plateau [p0, p1], 0 outside the support
    (lo, hi), and joined by two C-infinity monotone ramps."""

    def __init__(self, support: tuple[float, float], plateau: tuple[float, float]):
        lo, hi = support
        p0, p1 = plateau
        if not lo < p0 <= p1 < hi:
            raise ValueError("need lo < p0 <= p1 < hi")
        self.support = support
        self.plateau = plateau
        self._rise_scale = 1.0 / (p0 - lo)
        self._fall_scale = 1.0 / (hi - p1)

    def derivative(self, x: float, order: int = 0) -> float:
        if not 0 <= order <= KMAX_DERIVATIVE:
            raise ValueError(f"derivative order must be in [0, {KMAX_DERIVATIVE}]")
        lo, hi = self.support
        p0, p1 = self.plateau
        if x <= lo or x >= hi:
            return 0.0
        if p0 <= x <= p1:
            return 1.0 if order == 0 else 0.0
        if x < p0:
            t = (x - lo) * self._rise_scale
            return ramp_derivative(t, order) * self._rise_scale**order
        t = (hi - x) * self._fall_scale
        return ramp_derivative(t, order) * (-self._fall_scale) ** order

    def __call__(self, x: float) -> float:
        return self.derivative(x, 0)

    def derivative_fn(self, order: int) -> Callable[[float], float]:
        """The function x -> self.derivative(x, order)."""
        return lambda x: self.derivative(x, order)

    def with_node_cache(self) -> SmoothBump:
        """A copy that computes each derivative value once and then answers
        from a dict per order, keyed by the node. QUADPACK's QAWO puts its
        nodes at the same points of a piece for every frequency, so a sweep
        over frequencies evaluates the ramp once per node. The values are the
        same floats; the dicts live as long as the copy."""
        return _NodeCachedBump(self.support, self.plateau)


class _NodeValues(dict):
    """The values of one function keyed by its argument, each computed on
    first lookup; the bound __getitem__ is the cached function."""

    def __init__(self, compute: Callable[[float], float]):
        super().__init__()
        self._compute = compute

    def __missing__(self, x: float) -> float:
        value = self[x] = self._compute(x)
        return value


class _NodeCachedBump(SmoothBump):
    def __init__(self, support: tuple[float, float], plateau: tuple[float, float]):
        super().__init__(support, plateau)
        compute = super().derivative
        self._node_values = [_NodeValues(partial(compute, order=order))
                             for order in range(KMAX_DERIVATIVE + 1)]

    def derivative_fn(self, order: int) -> Callable[[float], float]:
        if not 0 <= order <= KMAX_DERIVATIVE:
            raise ValueError(f"derivative order must be in [0, {KMAX_DERIVATIVE}]")
        return self._node_values[order].__getitem__

    def derivative(self, x: float, order: int = 0) -> float:
        return self.derivative_fn(order)(x)


PSI = SmoothBump((0.5, 2.5), (1.0, 2.0))


# ---------------------------------------------------------------------------
# Fourier transform over R:  fhat(k) = int f(u) e(-k u) du,  e(x) = exp(2 pi i x)
# ---------------------------------------------------------------------------

def _pieces(support, breakpoints):
    lo, hi = support
    cuts = sorted({float(c) for c in breakpoints or () if lo < c < hi})
    edges = [float(lo), *cuts, float(hi)]
    return list(zip(edges[:-1], edges[1:]))


def _ft_raw(func, pieces, k: float, tol: float):
    # int func(u) e(-k u) du over the given smooth pieces
    omega = TWO_PI * abs(k)
    eps = tol / (4 * len(pieces))
    total = 0.0 + 0.0j
    err = 0.0
    for a, b in pieces:
        if omega == 0.0:
            re, ere = quad(func, a, b, epsabs=eps, epsrel=1e-12, limit=300)
            im, eim = 0.0, 0.0
        else:
            re, ere = quad(func, a, b, weight="cos", wvar=omega,
                           epsabs=eps, epsrel=1e-12, limit=300)
            im, eim = quad(func, a, b, weight="sin", wvar=omega,
                           epsabs=eps, epsrel=1e-12, limit=300)
        if k < 0:
            im = -im
        total += complex(re, -im)
        err += ere + eim
    return total, err


def fourier_transform(f, k: float, support=None, tol: float = 1e-10,
                      breakpoints=None) -> complex:
    """Fourier transform of a compactly supported integrable f at frequency k.

    For the canonical smooth bumps at large |k| the integral is first
    integrated by parts four times (with exact bump derivatives), pulling out
    the real factor (2 pi k)^(-4), which keeps the oscillatory quadrature at
    full relative accuracy.

    Both signs of k run the same quadratures at omega = 2 pi |k| and differ
    only in the sign of the sine part, so fourier_transform(f, -k) is exactly
    fourier_transform(f, k).conjugate() for a real f; expsum.poisson_check
    relies on this to compute one transform per |k|. A bump made by
    SmoothBump.with_node_cache evaluates each quadrature node once across
    such calls; a bump's integrand is its derivative_fn, taken once per
    call.
    """
    is_bump = isinstance(f, SmoothBump)
    if support is None:
        if not is_bump:
            raise ValueError("support interval required for non-bump functions")
        support = f.support
    if breakpoints is None and is_bump:
        breakpoints = f.plateau
    pieces = _pieces(support, breakpoints)

    if is_bump and abs(k) >= 4.0:
        scale = 1.0 / (TWO_PI * k) ** 4
        raw, err = _ft_raw(f.derivative_fn(4), pieces, k, tol / scale)
        val, err = raw * scale, err * scale
    else:
        val, err = _ft_raw(f.derivative_fn(0) if is_bump else f, pieces, k, tol)
    if err > tol:
        raise QuadratureError(f"fourier_transform did not converge at k={k}", achieved=err)
    return val


# ---------------------------------------------------------------------------
# oscillatory integrals  int_a^b G(x) exp(i F(x)) dx
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PhaseSpec:
    """Phase/amplitude data for one oscillatory integral on [a, b]."""

    f: Callable[[float], float]        # phase F
    df: Callable[[float], float]       # F'
    g: Callable[[float], float]        # amplitude G
    a: float
    b: float
    amp_bound: float                   # M >= sup |G|
    d2f: Callable[[float], float] | None = None  # F'' when available
    g_pieces: int = 1                  # monotone pieces of G

    def __post_init__(self):
        if not self.a < self.b:
            raise ValueError("interval must satisfy a < b")
        if self.amp_bound < 0:
            raise ValueError("amplitude bound must be nonnegative")
        if self.g_pieces < 1:
            raise ValueError("g_pieces must be >= 1")


@dataclass(frozen=True)
class OscillatoryResult:
    value: complex
    error: float
    panels: int

    def __abs__(self) -> float:
        return abs(self.value)


def pairwise_sum(values):
    """Sum by balanced pairwise reduction (deterministic float association)."""
    vals = list(values)
    if not vals:
        return 0.0
    while len(vals) > 1:
        nxt = [vals[i] + vals[i + 1] for i in range(0, len(vals) - 1, 2)]
        if len(vals) % 2:
            nxt.append(vals[-1])
        vals = nxt
    return vals[0]


def oscillatory_integral(spec: PhaseSpec) -> OscillatoryResult:
    """Adaptive quadrature of int G e^{iF}; panels are chosen from the
    sampled phase derivative so each holds at most a few oscillations."""
    xs = np.linspace(spec.a, spec.b, 2049)
    dphi = np.abs([spec.df(x) for x in xs.tolist()])
    cum = np.concatenate([[0.0], np.cumsum((dphi[1:] + dphi[:-1]) * 0.5 * np.diff(xs))])
    total_phase = float(cum[-1])
    n_panels = max(1, int(math.ceil(total_phase / (8.0 * math.pi))))
    if n_panels > _MAX_PANELS:
        raise QuadratureError(
            f"phase varies too fast: {n_panels} panels needed", achieved=float("inf")
        )
    targets = np.linspace(0.0, total_phase, n_panels + 1)
    idx = np.searchsorted(cum, targets[1:-1])
    edges = [spec.a, *[float(xs[min(i, len(xs) - 1)]) for i in idx], spec.b]
    edges = sorted(set(edges))

    eps = _OSC_TOL / (4 * max(1, len(edges) - 1))
    re_parts, im_parts, err = [], [], 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        re, ere = quad(lambda x: spec.g(x) * math.cos(spec.f(x)), a, b,
                       epsabs=eps, epsrel=1e-10, limit=200)
        im, eim = quad(lambda x: spec.g(x) * math.sin(spec.f(x)), a, b,
                       epsabs=eps, epsrel=1e-10, limit=200)
        re_parts.append(re)
        im_parts.append(im)
        err += ere + eim
    value = complex(pairwise_sum(re_parts), pairwise_sum(im_parts))
    if err > _OSC_TOL:
        raise QuadratureError("oscillatory integral did not converge", achieved=err)
    return OscillatoryResult(value=value, error=err, panels=len(edges) - 1)


# ---------------------------------------------------------------------------
# explicit-constant bound checks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundCheckReport:
    label: str
    observed: float
    bound: float
    quadrature_error: float
    passed: bool


def _sample(fn, a, b, n):
    return np.array([fn(x) for x in np.linspace(a, b, n).tolist()])


def _count_monotone_pieces(values: np.ndarray, slack: float) -> int:
    d = np.diff(values)
    signs = [1 if v > slack else -1 if v < -slack else 0 for v in d]
    pieces, current = 1, 0
    for s in signs:
        if s == 0:
            continue
        if current == 0:
            current = s
        elif s != current:
            pieces += 1
            current = s
    return pieces


def _check_bound(spec: PhaseSpec, label: str, k_pieces: int, phase_derivative,
                 floor: float, bound: float) -> BoundCheckReport:
    # The hypotheses shared by both bounds, verified by dense sampling: G
    # stays in [0, M] with at most k_pieces monotone pieces, and the given
    # phase derivative stays one-signed above floor. Inputs failing them are
    # rejected rather than asserted.
    g_vals = _sample(spec.g, spec.a, spec.b, _BOUND_SAMPLES)
    slack = 1e-12 * (1.0 + float(np.max(np.abs(g_vals))))
    if np.min(g_vals) < -slack or np.max(g_vals) > spec.amp_bound + slack:
        raise RejectedSpecError("G leaves [0, M]")
    if _count_monotone_pieces(g_vals, slack) > k_pieces:
        raise RejectedSpecError(f"G has more than {k_pieces} monotone pieces")
    d_vals = _sample(phase_derivative, spec.a, spec.b, _BOUND_SAMPLES)
    if not (np.all(d_vals > floor) or np.all(d_vals < -floor)):
        raise RejectedSpecError(f"the phase derivative is not one-signed above {floor}")
    result = oscillatory_integral(spec)
    observed = abs(result.value)
    passed = observed <= bound + result.error + 1e-12
    return BoundCheckReport(label, observed, bound, result.error, passed)


def check_first_derivative_bound(spec: PhaseSpec, m: float) -> BoundCheckReport:
    """Monotone-amplitude, nonvanishing-phase-derivative bound
    |int G e^{iF}| <= 4 M / m, with F' one-signed above m."""
    if m <= 0:
        raise ValueError("m must be positive")
    return _check_bound(spec, "first-derivative 4M/m", 1, spec.df, m,
                        4.0 * spec.amp_bound / m)


def check_second_derivative_bound(spec: PhaseSpec, r: float) -> BoundCheckReport:
    """Convex/concave-phase bound |int G e^{iF}| <= 8 K M / sqrt(r) for G
    with K = spec.g_pieces monotone pieces and F'' one-signed above r."""
    if r <= 0:
        raise ValueError("r must be positive")
    if spec.d2f is None:
        raise ValueError("spec must provide F'' for the second-derivative bound")
    k_pieces = spec.g_pieces
    return _check_bound(spec, "second-derivative 8KM/sqrt(r)", k_pieces, spec.d2f, r,
                        8.0 * k_pieces * spec.amp_bound / math.sqrt(r))


# ---------------------------------------------------------------------------
# randomized spec families (seeded; used by the verification campaigns)
# ---------------------------------------------------------------------------

def random_first_derivative_spec(rng) -> tuple[PhaseSpec, float]:
    """A random spec satisfying the monotone-amplitude hypotheses, plus its m."""
    a = rng.uniform(0.0, 2.0)
    b = a + rng.uniform(0.5, 3.0)
    alpha = rng.uniform(0.5, 30.0)
    beta = rng.uniform(0.0, 10.0)
    sign = rng.choice((-1.0, 1.0))
    f = lambda x: sign * (alpha * x + beta * x**3)
    df = lambda x: sign * (alpha + 3.0 * beta * x * x)
    ga = rng.uniform(0.0, 3.0)
    gb = rng.uniform(0.0, 3.0)
    slope = (gb - ga) / (b - a)
    g = lambda x: ga + slope * (x - a)
    m_floor = alpha + 3.0 * beta * a * a
    spec = PhaseSpec(f=f, df=df, g=g, a=a, b=b, amp_bound=max(ga, gb))
    return spec, 0.999 * m_floor


def _piecewise_linear(kx: list[float], ky: list[float]) -> Callable[[float], float]:
    """x -> float(np.interp(x, kx, ky)) for finite x and increasing knots kx,
    computed in Python with np.interp's arithmetic: y_j exactly at a knot,
    slope_j * (x - x_j) + y_j between x_j and x_(j+1), clamped to the end
    values outside [kx[0], kx[-1]]."""
    last = len(kx) - 1
    slopes = [(ky[j + 1] - ky[j]) / (kx[j + 1] - kx[j]) for j in range(last)]

    def g(x: float) -> float:
        j = bisect_right(kx, x) - 1
        if j < 0:
            return ky[0]
        if j == last or kx[j] == x:
            return ky[j]
        return slopes[j] * (x - kx[j]) + ky[j]

    return g


def random_second_derivative_spec(rng) -> tuple[PhaseSpec, float]:
    """A random spec with one-signed F'' and piecewise-monotone G, plus its r."""
    a = rng.uniform(-2.0, 1.0)
    b = a + rng.uniform(0.5, 2.5)
    gamma = rng.uniform(2.0, 200.0)
    delta = rng.uniform(-50.0, 50.0)
    sign = rng.choice((-1.0, 1.0))
    f = lambda x: sign * (0.5 * gamma * x * x + delta * x)
    df = lambda x: sign * (gamma * x + delta)
    d2f = lambda x: sign * gamma
    k_pieces = rng.randint(1, 3)
    knots_x = np.linspace(a, b, k_pieces + 1).tolist()
    knots_y = [rng.uniform(0.0, 3.0) for _ in range(k_pieces + 1)]
    g = _piecewise_linear(knots_x, knots_y)
    spec = PhaseSpec(f=f, df=df, d2f=d2f, g=g, a=a, b=b,
                     amp_bound=max(knots_y), g_pieces=k_pieces)
    return spec, 0.999 * gamma


def bound_campaign(seed: int, count: int) -> list[tuple[str, int, BoundCheckReport]]:
    """The seeded bound-check campaign: count random specs checked against
    4M/m, then count checked against 8KM/sqrt(r), all drawn from one rng.
    Rows are (family, index, report)."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        spec, m = random_first_derivative_spec(rng)
        out.append(("first-derivative", i, check_first_derivative_bound(spec, m)))
    for i in range(count):
        spec, r = random_second_derivative_spec(rng)
        out.append(("second-derivative", i, check_second_derivative_bound(spec, r)))
    return out
