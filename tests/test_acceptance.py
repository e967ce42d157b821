"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` or, equivalently, via the
CLI as `palindrome-lab verify-all`.
"""

import math
from fractions import Fraction
from pathlib import Path

import numpy as np

from palindrome_lab import acceptance, arith, census, expsum, oscillate
from palindrome_lab.cli import main


def _run(fn, **kwargs):
    result = fn(**kwargs)
    status = "PASS" if result.passed else "FAIL"
    print(f"[{status}] criterion {result.cid}: {result.name} -- {result.detail}")
    assert result.passed, f"criterion {result.cid} ({result.name}): {result.detail}"


def test_criterion_1_mobius_identity():
    _run(acceptance.criterion_mobius_identity)


def test_criterion_1_fails_on_broken_mobius_route(monkeypatch):
    # a digit test that passes nothing once a digit pair is to be compared
    # keeps the d = 1 count (whose inner digits are the middle one alone)
    # but drops the d with fewer end digits, such as d = 101 with
    # 101^2 = 10201 at b = 10, x = 10^5
    real = census._inner_palindromes
    monkeypatch.setattr(census, "_inner_palindromes", lambda values, b, n_digits, k: (
        real(values, b, n_digits, k) if 2 * k + 1 == n_digits
        else np.zeros(len(values), dtype=bool)))
    result = acceptance.criterion_mobius_identity(quick=True)
    assert not result.passed
    assert "b=10,x=100000:mobius census identity failed" in result.detail


def test_criterion_1_fails_on_squarefree_kernel_fault(monkeypatch):
    # a square-free kernel blind to 121 = 11^2, a restricted base-3
    # palindrome, reaches only the direct count; the Mobius route does not
    # call it
    real = arith.squarefree_grid

    def blind_to_121(high, low, coprime_to=1):
        mask = real(high, low, coprime_to)
        mask[(high[:, None] + low[None, :]).ravel() % 121 == 0] = True
        return mask

    monkeypatch.setattr(arith, "squarefree_grid", blind_to_121)
    result = acceptance.criterion_mobius_identity(quick=True)
    assert result.passed is False
    assert "b=3,x=1000:mobius census identity failed" in result.detail


def test_criterion_1_fails_on_empty_censuses(monkeypatch):
    # no grids and no Mobius terms: both sides count 0 and agree
    monkeypatch.setattr(census, "grids_up_to", lambda b, x, restricted: iter(()))
    monkeypatch.setattr(census, "_mobius_census", lambda b, x: (0, 0))
    result = acceptance.criterion_mobius_identity(quick=True)
    assert "b=2,x=1000:0 " in result.detail
    assert result.passed is False


def test_criterion_2_density_convergence():
    _run(acceptance.criterion_density_convergence)


def test_criterion_2_fails_on_mobius_sum_off_by_one(monkeypatch):
    # the density gates read only the direct count; the Mobius side must
    # still be compared with it
    real = census._mobius_census

    def off_by_one(b, x):
        total, summed = real(b, x)
        return total, summed + 1

    monkeypatch.setattr(census, "_mobius_census", off_by_one)
    result = acceptance.criterion_density_convergence(quick=True)
    assert result.passed is False
    assert "mobius census identity failed at b=10, x=100:" in result.detail


def test_criterion_2_fails_on_shifted_density(monkeypatch):
    # a predicted density 0.05 too high makes the error grow with x
    real = census.density_constant
    monkeypatch.setattr(census, "density_constant",
                        lambda b: (real(b)[0] + 0.05, real(b)[1]))
    assert not acceptance.criterion_density_convergence(quick=True).passed


def test_criterion_2_fails_on_density_without_p2(monkeypatch):
    # omitting the Euler factor 4/3 of p = 2 predicts 0.718 against 0.958;
    # the error still shrinks with x, so only the prediction gate sees it
    real = census.density_constant

    def without_p2(b):
        value, r = real(b)
        return value * 3 / 4, r * Fraction(3, 4)

    monkeypatch.setattr(census, "density_constant", without_p2)
    assert acceptance.criterion_density_convergence(quick=True).passed is False


def test_criterion_3_unrestricted_density():
    _run(acceptance.criterion_unrestricted_density)


def test_criterion_3_fails_on_kernel_blind_to_nine(monkeypatch):
    # a square-free kernel that never tries the prime 3 counts most
    # multiples of 9
    real = arith.squarefree_grid
    monkeypatch.setattr(arith, "squarefree_grid",
                        lambda high, low, coprime_to=1: real(high, low, 3 * coprime_to))
    assert not acceptance.criterion_unrestricted_density(quick=True).passed


def test_criterion_4_stationary_phase_identity():
    _run(acceptance.criterion_stationary_phase_identity)


def test_criterion_4_fails_on_shifted_stationary_phase(monkeypatch):
    # an error of twice the tolerance 1e-9 * sqrt(c)
    real = expsum.k2_stationary_phase
    monkeypatch.setattr(expsum, "k2_stationary_phase",
                        lambda params: real(params) + 2e-9 * math.sqrt(params.c))
    assert not acceptance.criterion_stationary_phase_identity(quick=True).passed


def test_criterion_4_fails_when_both_forms_vanish(monkeypatch):
    # two forms that return 0 agree to the last bit and check nothing
    monkeypatch.setattr(expsum, "k2_full", lambda params: 0j)
    monkeypatch.setattr(expsum, "k2_stationary_phase", lambda params: 0j)
    result = acceptance.criterion_stationary_phase_identity(quick=True)
    assert "worst_scaled_diff=0" in result.detail
    assert result.passed is False


def test_criterion_5_oscillatory_constants():
    _run(acceptance.criterion_oscillatory_constants)


def test_criterion_5_fails_on_bound_below_observed(monkeypatch):
    # the first spec of the campaign is checked against half its observed
    # integral instead of 4M/m
    real = oscillate._check_bound
    calls = []

    def scaled(spec, label, k_pieces, phase_derivative, floor, bound):
        calls.append(label)
        if len(calls) == 1:
            bound = 0.5 * real(spec, label, k_pieces, phase_derivative, floor, bound).observed
        return real(spec, label, k_pieces, phase_derivative, floor, bound)

    monkeypatch.setattr(oscillate, "_check_bound", scaled)
    result = acceptance.criterion_oscillatory_constants(quick=True)
    assert result.passed is False
    assert "violations=1 " in result.detail


def test_criterion_6_poisson_identity():
    _run(acceptance.criterion_poisson_identity)


def test_criterion_6_fails_on_perturbed_transform(monkeypatch):
    # the psi/q=3 sides have modulus 1, so a relative error of 1e-6 in every
    # transform is far above POISSON_TOL = 1e-8
    real = expsum.fourier_transform
    monkeypatch.setattr(expsum, "fourier_transform",
                        lambda *args, **kwargs: real(*args, **kwargs) * (1 + 1e-6))
    assert acceptance.criterion_poisson_identity(quick=True).passed is False


def test_criterion_7_cubic_residue_bound():
    _run(acceptance.criterion_cubic_residue_bound)


def test_criterion_7_fails_on_dropped_root(monkeypatch):
    real = arith.kth_residue_solutions
    monkeypatch.setattr(arith, "kth_residue_solutions", lambda a, k, q: real(a, k, q)[1:])
    assert not acceptance.criterion_cubic_residue_bound(quick=True).passed


def test_criterion_7_fails_on_neighbouring_residue(monkeypatch):
    # answers for a + 1: the brute-force slice of each a must be compared
    # with the solver's answer for that same a
    real = arith.kth_residue_solutions
    monkeypatch.setattr(arith, "kth_residue_solutions", lambda a, k, q: real(a + 1, k, q))
    result = acceptance.criterion_cubic_residue_bound(quick=True)
    assert not result.passed
    assert "mismatches=0" not in result.detail


def test_criterion_8_prop1_shape():
    _run(acceptance.criterion_prop1_shape)


def test_criterion_8_fails_on_zero_count(monkeypatch):
    # all-zero ratios satisfy last <= 1.10 * first; the gate must still fail
    monkeypatch.setattr(census, "s_b", lambda *args, **kwargs: 0)
    assert not acceptance.criterion_prop1_shape(quick=True).passed


def test_criterion_9_averaged_k2_stability():
    _run(acceptance.criterion_averaged_k2_stability)


def test_criterion_9_fails_on_inflated_q_average(monkeypatch):
    # the q-average at the last modulus of the quick grid, c = 2^10, doubled
    real = expsum.k2_q_average
    monkeypatch.setattr(expsum, "k2_q_average",
                        lambda m, a, q_max, c: real(m, a, q_max, c) * (2 if c == 2**10 else 1))
    assert not acceptance.criterion_averaged_k2_stability(quick=True).passed


def test_criterion_9_fails_on_zero_q_averages(monkeypatch):
    # C' = 0 at every N satisfies max <= 1.25 * first
    monkeypatch.setattr(expsum, "k2_q_average", lambda m, a, q_max, c: 0.0)
    result = acceptance.criterion_averaged_k2_stability(quick=True)
    assert result.detail == "N=8:C'=0 N=10:C'=0"
    assert result.passed is False


def test_criterion_10_determinism():
    _run(acceptance.criterion_determinism)


def test_criterion_10_fails_on_payload_that_changes(monkeypatch):
    # each call renders different bytes, as a report fed by leaked state would
    calls = []

    def payload(quick=True):
        calls.append(quick)
        return f"run {len(calls)}\n"

    monkeypatch.setattr(acceptance, "report_payload", payload)
    assert acceptance.criterion_determinism().passed is False
    assert acceptance.criterion_determinism(rendered="run 3\n").passed is True
    assert acceptance.criterion_determinism(rendered="run 3\n").passed is False
    assert calls == [True] * 4


def test_criterion_10_fails_on_empty_payload(monkeypatch):
    monkeypatch.setattr(acceptance, "report_payload", lambda quick=True: "")
    result = acceptance.criterion_determinism()
    assert result.detail == "bytes=0 identical=yes"
    assert result.passed is False


REFERENCE_CSV = (Path(__file__).resolve().parents[1]
                 / "perfbench" / "reference" / "verify_quick_c1-9.csv")


def test_verify_all_quick_contract(tmp_path, monkeypatch):
    # the CLI smoke mode finishes quickly and exits 0, and the header and
    # criteria 1-9 match the recorded report byte for byte; criterion 10
    # compares one rerun with the rows 1-9 already rendered
    reruns = []
    real = acceptance.report_payload
    monkeypatch.setattr(acceptance, "report_payload",
                        lambda quick=True: reruns.append(quick) or real(quick))
    out = tmp_path / "verify.csv"
    code = main(["verify-all", "--quick", "--output", str(out)])
    print(out.read_text())
    assert code == 0
    head = out.read_bytes().splitlines(keepends=True)[:10]
    assert b"".join(head) == REFERENCE_CSV.read_bytes()
    assert reruns == [True]
