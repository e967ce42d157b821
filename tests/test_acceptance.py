"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` or, equivalently, via the
CLI as `palindrome-lab verify-all`.
"""

from pathlib import Path

import pytest

from palindrome_lab import acceptance, census
from palindrome_lab.cli import main


def _run(fn, **kwargs):
    result = fn(**kwargs)
    status = "PASS" if result.passed else "FAIL"
    print(f"[{status}] criterion {result.cid}: {result.name} -- {result.detail}")
    assert result.passed, f"criterion {result.cid} ({result.name}): {result.detail}"


def test_criterion_1_mobius_identity():
    _run(acceptance.criterion_mobius_identity)


def test_criterion_1_fails_on_broken_mobius_route(monkeypatch):
    monkeypatch.setattr(census, "_square_divisor_mobius_sum", lambda n: -1)
    result = acceptance.criterion_mobius_identity(quick=True)
    assert not result.passed
    assert "mobius census identity failed" in result.detail


def test_criterion_2_density_convergence():
    _run(acceptance.criterion_density_convergence)


def test_criterion_3_unrestricted_density():
    _run(acceptance.criterion_unrestricted_density)


def test_criterion_4_stationary_phase_identity():
    _run(acceptance.criterion_stationary_phase_identity)


def test_criterion_5_oscillatory_constants():
    _run(acceptance.criterion_oscillatory_constants)


def test_criterion_6_poisson_identity():
    _run(acceptance.criterion_poisson_identity)


def test_criterion_7_cubic_residue_bound():
    _run(acceptance.criterion_cubic_residue_bound)


def test_criterion_8_prop1_shape():
    _run(acceptance.criterion_prop1_shape)


def test_criterion_8_fails_on_zero_count(monkeypatch):
    # all-zero ratios satisfy last <= 1.10 * first; the gate must still fail
    monkeypatch.setattr(census, "s_b", lambda *args, **kwargs: 0)
    assert not acceptance.criterion_prop1_shape(quick=True).passed


def test_criterion_9_averaged_k2_stability():
    _run(acceptance.criterion_averaged_k2_stability)


def test_criterion_10_determinism():
    _run(acceptance.criterion_determinism)


REFERENCE_CSV = (Path(__file__).resolve().parents[1]
                 / "perfbench" / "reference" / "verify_quick_c1-9.csv")


def test_verify_all_quick_contract(tmp_path):
    # the CLI smoke mode finishes quickly and exits 0, and the header and
    # criteria 1-9 match the recorded report byte for byte
    out = tmp_path / "verify.csv"
    code = main(["verify-all", "--quick", "--output", str(out)])
    print(out.read_text())
    assert code == 0
    head = out.read_bytes().splitlines(keepends=True)[:10]
    assert b"".join(head) == REFERENCE_CSV.read_bytes()
