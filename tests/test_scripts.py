"""The experiment scripts: smoke runs on tiny grids, and every byte of their
stdout at the default grids."""

import runpy
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"

CENSUS_HEADER = "base,scope_kind,scope,restricted,total,squarefree,ratio,predicted,abs_error"
FIT_HEADER = "label,grid,observed,fitted_constant,stable,notes"


@pytest.mark.parametrize(
    "script,argv,header",
    [
        ("convergence_tables.py", ["--max", "10000", "--points", "2"], CENSUS_HEADER),
        ("bound_fits.py", ["--xs", "10000", "100000"], FIT_HEADER),
        ("kloosterman_grid.py", ["--n-max", "6"], FIT_HEADER),
    ],
)
def test_script_runs(script, argv, header, monkeypatch, capsys):
    path = SCRIPTS / script
    monkeypatch.setattr(sys, "argv", [str(path), *argv])
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(path), run_name="__main__")
    assert exc.value.code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == header
    assert len(lines) > 1


# Golden outputs at the default grids. Regenerate a file only when a script's
# output is meant to change.
GOLDEN = Path(__file__).parent / "golden" / "scripts"


@pytest.mark.parametrize("name", ["convergence_tables", "bound_fits", "kloosterman_grid"])
def test_script_default_grid_matches_golden(name, monkeypatch, capsys):
    path = SCRIPTS / f"{name}.py"
    monkeypatch.setattr(sys, "argv", [str(path)])
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(path), run_name="__main__")
    assert exc.value.code == 0
    assert capsys.readouterr().out.encode() == (GOLDEN / f"{name}.csv").read_bytes()
