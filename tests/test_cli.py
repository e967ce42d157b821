import json
from pathlib import Path

import numpy as np
import pytest

from palindrome_lab import arith
from palindrome_lab.cli import build_parser, main


def run_cli(argv, tmp_path, name="out.txt"):
    path = tmp_path / name
    code = main(argv + ["--output", str(path)])
    return code, path.read_text() if path.exists() else ""


def test_enumerate_restricted(tmp_path):
    code, text = run_cli(["enumerate", "--base", "10", "--max", "100", "--restricted"],
                         tmp_path)
    assert code == 0
    assert text == "1\n7\n"


def test_enumerate_digits(tmp_path):
    code, text = run_cli(["enumerate", "--base", "10", "--digits", "1"], tmp_path)
    assert code == 0
    assert text.splitlines() == [str(n) for n in range(1, 10)]


def test_enumerate_render_digits(tmp_path):
    code, text = run_cli(["enumerate", "--base", "2", "--max", "10", "--render-digits"],
                         tmp_path)
    assert code == 0
    assert text.splitlines()[1] == "3,1.1"
    assert text.splitlines()[4] == "9,1.0.0.1"


def test_enumerate_missing_base_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["enumerate", "--max", "100"])
    assert exc.value.code == 2


def test_enumerate_conflicting_scope(tmp_path):
    code = main(["enumerate", "--base", "10", "--max", "5", "--digits", "2",
                 "--output", str(tmp_path / "x")])
    assert code == 2


def test_census_small(tmp_path):
    code, text = run_cli(["census", "--base", "10", "--max", "100"], tmp_path)
    assert code == 0
    lines = text.splitlines()
    assert lines[0].split(",")[:6] == ["base", "scope_kind", "scope", "restricted",
                                       "total", "squarefree"]
    row = lines[1].split(",")
    assert row[4] == "2" and row[5] == "2"


def test_census_million_predicted(tmp_path):
    code, text = run_cli(["census", "--base", "10", "--max", "1000000"], tmp_path)
    assert code == 0
    assert "0.957801814119" in text


def test_census_fault_injection(tmp_path, capsys, monkeypatch):
    # a square-free kernel that passes everything counts 343 = 7^3
    monkeypatch.setattr(arith, "squarefree_grid",
                        lambda high, low, coprime_to=1: np.ones(len(high) * len(low), dtype=bool))
    code = main(["census", "--base", "10", "--max", "1000",
                 "--output", str(tmp_path / "x")])
    assert code == 1
    assert "mobius census identity failed" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_census_json(tmp_path):
    code, text = run_cli(["census", "--base", "10", "--max", "100",
                          "--format", "json"], tmp_path, "out.json")
    assert code == 0
    doc = json.loads(text)
    assert doc[0]["total"] == 2
    assert doc[0]["squarefree"] == 2
    assert set(doc[0]) == {"base", "scope_kind", "scope", "restricted", "total",
                           "squarefree", "ratio", "predicted", "abs_error"}


def test_sbd(tmp_path):
    code, text = run_cli(["sbd", "--base", "10", "--max", "10000", "--d", "5"],
                         tmp_path)
    assert code == 0
    row = text.splitlines()[1].split(",")
    assert row[3] == "1" and row[4] == "1"


def test_sbd_past_sqrt_x(tmp_path):
    # D = 10^12 at x = 10^6: no d^2 <= x, so both counts are 0 at once
    code, text = run_cli(["sbd", "--base", "10", "--max", "1000000",
                          "--d", "1000000000000"], tmp_path)
    assert code == 0
    assert text.splitlines()[1] == "10,1000000,1000000000000,0,0"


def test_k2_identity(tmp_path):
    code, text = run_cli(["k2", "--a1", "1", "--a2", "1", "--a3", "-1",
                          "--q", "1", "--c", "64", "--check-identity"], tmp_path)
    assert code == 0
    header = text.splitlines()[0].split(",")
    assert "full_re" in header and "stationary_re" in header and "difference" in header


def test_k2_identity_check_refused_below_c2(tmp_path, capsys):
    # at c = 1 there is no stationary-phase form, so no second route to check
    code, text = run_cli(["k2", "--a1", "3", "--a2", "5", "--c", "1", "--check-identity"],
                         tmp_path)
    assert code == 2
    assert text == ""
    assert "--check-identity requires c >= 2" in capsys.readouterr().err


def test_poisson_demo(tmp_path):
    code, text = run_cli(["poisson", "--demo", "triangle", "--q", "1"], tmp_path)
    assert code == 0
    row = dict(zip(text.splitlines()[0].split(","), text.splitlines()[1].split(",")))
    assert float(row["difference"]) < 1e-8


def test_oscillate_command(tmp_path):
    code, text = run_cli(["oscillate", "--count", "4"], tmp_path)
    assert code == 0
    assert text.count("\n") == 9  # header + 2 * 4 rows
    assert ",true" in text


def test_vdc_command(tmp_path):
    code, text = run_cli(["vdc", "--d", "128", "--q-max", "8"], tmp_path)
    assert code == 0
    assert len(text.splitlines()) == 5


def test_discrepancy_command(tmp_path):
    code, text = run_cli(["discrepancy", "--base", "10", "--max", "10000",
                          "--d-max", "3"], tmp_path)
    assert code == 0
    assert text.splitlines()[1].endswith(",0")


def test_csv_quoting_is_rfc4180(tmp_path):
    # fields containing commas are quoted; none here, but the writer is the
    # stdlib csv module configured with minimal quoting
    code, text = run_cli(["census", "--base", "2", "--max", "1000"], tmp_path)
    assert code == 0
    assert text.endswith("\n")


@pytest.mark.parametrize("argv, code", [
    (["census", "--base", "10"], 2),
    (["k2", "--a1", "3", "--a2", "5", "--c", "1", "--check-identity"], 2),
    (["enumerate", "--base", "10", "--max", "5", "--digits", "2"], 2),
    # out of range (an OverflowError): refused before any output
    (["enumerate", "--base", "10", "--max", str(2**127 + 1)], 2),
    (["census", "--base", "10", "--max", "1000", "--digits", "40"], 2),
    # a discrepancy with d_max past sqrt(x), and bound campaigns of no specs
    (["discrepancy", "--base", "10", "--max", "100", "--d-max", "11"], 2),
    (["oscillate", "--count", "0"], 2),
    (["oscillate", "--count", "-1"], 2),
])
def test_error_exits_create_no_output_file(argv, code, tmp_path, capsys):
    path = tmp_path / "out"
    assert main(argv + ["--output", str(path)]) == code
    assert not path.exists()
    assert capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["k2", "--a1", "1", "--a2", "1", "--c", "3000000"],
     "direct evaluation refused for c=3000000 > 2000000"),
    (["census", "--base", "10", "--max", "0"], "x must be >= 1"),
    (["sbd", "--base", "1", "--max", "100", "--d", "2"], "base must be in [2, 64], got 1"),
    # OverflowError: the int64 routes refuse x >= 2**63 before any work, the
    # streams x > 2**127 and b**N > 2**127
    (["sbd", "--base", "10", "--max", str(2**63), "--d", "3"],
     f"the multiples strategy needs x < 2**63, got {2**63}"),
    (["census", "--base", "10", "--max", str(2**63)],
     f"the Mobius route needs x < 2**63, got {2**63}"),
    (["census", "--base", "10", "--digits", "40"], "b**N exceeds the 2**127 stream bound"),
    (["enumerate", "--base", "10", "--max", str(2**127 + 1)], "x exceeds the 2**127 stream bound"),
    (["discrepancy", "--base", "10", "--max", str(2**127 + 1), "--d-max", "3"],
     "x exceeds the 2**127 stream bound"),
    (["discrepancy", "--base", "10", "--max", "100", "--d-max", "11"],
     "d_max must be <= sqrt(x)"),
    (["oscillate", "--count", "0"], "count must be >= 1, got 0"),
    (["oscillate", "--count", "-1"], "count must be >= 1, got -1"),
    # a base outside [2, 64] on the Mobius route and the multiples strategy
    (["census", "--base", "0", "--max", "100"], "base must be in [2, 64], got 0"),
    (["census", "--base", "65", "--max", "1000000"], "base must be in [2, 64], got 65"),
    (["sbd", "--base", "65", "--max", "1000000", "--d", "3"], "base must be in [2, 64], got 65"),
    # Q past sqrt(D), refused before the sequence families are built, and a
    # negative base of the discrepancy, refused before its sieve
    (["vdc", "--d", "200000", "--q-max", "1000"], "need 1 <= Q <= sqrt(D)"),
    (["discrepancy", "--base", "-5", "--max", "100", "--d-max", "3"],
     "base must be in [2, 64], got -5"),
])
def test_out_of_range_input_exits_2_with_one_line(argv, message, tmp_path, capsys):
    path = tmp_path / "out"
    assert main(argv + ["--output", str(path)]) == 2
    assert not path.exists()
    err = capsys.readouterr().err
    assert err.startswith(f"palindrome-lab: {message}")
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["census", "--base", "10", "--max", "100"],
    ["sbd", "--base", "10", "--max", "10000", "--d", "5"],
    ["k2", "--a1", "2", "--a2", "3", "--c", "64", "--check-identity"],
    ["discrepancy", "--base", "10", "--max", "10000", "--d-max", "3"],
])
def test_handlers_return_rows_and_write_nothing(argv, tmp_path):
    # main is the one writer: a handler returns its rows and exit code and
    # leaves --output alone
    path = tmp_path / "out"
    args = build_parser().parse_args(argv + ["--output", str(path)])
    rows, code = args.handler(args)
    assert code == 0
    assert isinstance(rows, list) and rows
    assert not path.exists()


def test_enumerate_writes_its_own_stream(tmp_path):
    path = tmp_path / "out"
    args = build_parser().parse_args(["enumerate", "--base", "10", "--max", "100",
                                      "--restricted", "--output", str(path)])
    assert args.handler(args) == (None, 0)
    assert path.read_text() == "1\n7\n"


# Golden reports: every byte of each subcommand's CSV and JSON output, and its
# exit code. Regenerate a file only when a report is meant to change.
GOLDEN = Path(__file__).parent / "golden" / "cli"
GOLDEN_CASES = {
    "census": ["census", "--base", "10", "--max", "100000", "--digits", "5"],
    "sbd": ["sbd", "--base", "10", "--max", "100000", "--d", "5"],
    "k2_c64": ["k2", "--a1", "2", "--a2", "3", "--c", "64", "--check-identity"],
    "k2_c1": ["k2", "--a1", "3", "--a2", "5", "--c", "1"],
    # the kloosterman survey's hardest moduli: square-free c = 30030 (c1 = 1,
    # q even so that w and w + q can both be units) and c = 5^3 * 7^3
    "k2_c30030": ["k2", "--a1", "3", "--a2", "5", "--a3", "-5", "--q", "4",
                  "--c", "30030", "--check-identity"],
    "k2_c42875": ["k2", "--a1", "2", "--a2", "3", "--a3", "-3", "--q", "3",
                  "--c", "42875", "--check-identity"],
    "poisson_triangle": ["poisson", "--demo", "triangle", "--q", "1"],
    "poisson_psi": ["poisson", "--demo", "psi", "--q", "2"],
    "oscillate": ["oscillate", "--count", "4"],
    "vdc": ["vdc", "--d", "128", "--q-max", "8"],
    "discrepancy": ["discrepancy", "--base", "10", "--max", "100000", "--d-max", "8"],
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_report_matches_golden(name, fmt, tmp_path):
    path = tmp_path / f"out.{fmt}"
    assert main(GOLDEN_CASES[name] + ["--format", fmt, "--output", str(path)]) == 0
    assert path.read_bytes() == (GOLDEN / f"{name}.{fmt}").read_bytes()


# enumerate writes its own headerless stream, one value per line
ENUMERATE_GOLDEN_CASES = {
    "enumerate_b10_1e6_restricted_digits": ["--base", "10", "--max", "1000000",
                                            "--restricted", "--render-digits"],
    "enumerate_b2_d21": ["--base", "2", "--digits", "21"],
    "enumerate_b64_2p24": ["--base", "64", "--max", "16777216"],
}


@pytest.mark.parametrize("name", sorted(ENUMERATE_GOLDEN_CASES))
def test_enumerate_matches_golden(name, tmp_path):
    path = tmp_path / "out.txt"
    assert main(["enumerate", *ENUMERATE_GOLDEN_CASES[name], "--output", str(path)]) == 0
    assert path.read_bytes() == (GOLDEN / f"{name}.txt").read_bytes()
