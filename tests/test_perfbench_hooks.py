"""perfbench/ binds names and signatures inside palindrome_lab.

`perfbench/run.py --trace 1` wraps every binding listed in the recorder's
WRAPS table, and perfbench/workloads.py calls the package with fixed
arguments; a rename, a deletion or a dropped keyword in the package would
break either only in a benchmark run. These tests install the recorder and
check each binding is found, wrapped, and put back afterwards, and bind each
workload call to the current signature.
"""

import ast
import importlib.util
import inspect
from pathlib import Path

import pytest

import palindrome_lab
from palindrome_lab import acceptance, arith, census, expsum, report, streams

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
RECORDER_PATH = PERFBENCH / "recorder.py"


def _load_recorder():
    spec = importlib.util.spec_from_file_location("perfbench_recorder", RECORDER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings(wraps):
    found = []
    for module_name, attr, *_ in wraps:
        owner = palindrome_lab
        for part in module_name.split("."):
            owner = getattr(owner, part)
        found.append(owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr))
    return found


def test_recorder_binds_every_wrap_and_restores():
    recorder = _load_recorder()
    originals = _bindings(recorder.WRAPS)
    rec = recorder.Recorder()
    try:
        rec.install(palindrome_lab)
        wrapped = _bindings(recorder.WRAPS)
    finally:
        rec.uninstall()
    for entry, original, wrapper in zip(recorder.WRAPS, originals, wrapped):
        assert wrapper.__wrapped__ is original, entry[:2]
    assert all(now is was for now, was in zip(_bindings(recorder.WRAPS), originals))


def _workload_criteria() -> tuple[str, ...]:
    # read without importing: importing workloads.py times a kernel
    tree = ast.parse((PERFBENCH / "workloads.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["CRITERIA"]:
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/workloads.py defines no CRITERIA")


_PARAMS = expsum.ExpSumParams(2, 3, 0, 0, 64)

# each call perfbench/workloads.py makes into the package, with the
# arguments it passes
WORKLOAD_CALLS = [
    *((getattr(acceptance, name), (), {"quick": True, "threads": 1})
      for name in _workload_criteria()),
    (census.census_up_to, (10, 10**10), {"threads": 2, "check_identity": True}),
    (census.q_fixed_length, (10, 9), {}),
    (census.s_b, (10, 10**8, 30), {"strategy": "both"}),
    (census.equidistribution_discrepancy, (10, 10**8, 40), {"threads": 2}),
    (arith.is_squarefree, (10**20 + 1,), {}),
    (arith.mobius, (30,), {}),
    (arith.factorize, (30,), {}),
    (expsum.ExpSumParams, (2, 3, 0, 0, 64), {}),
    (expsum.k2_full, (_PARAMS,), {}),
    (expsum.k2_stationary_phase, (_PARAMS,), {}),
    (expsum.count_critical_points, (_PARAMS,), {}),
    (expsum.k2_q_average, (1, 3, 16, 64), {}),
    (arith.kth_residue_solutions, (5, 3, 49), {}),
    (streams.palindrome_from_half, (123, 10, 5), {}),
    (report.render_csv, (["cid", "name", "passed", "detail"], [["1", "x", "true", ""]]), {}),
]


@pytest.mark.parametrize("fn, args, kwargs", WORKLOAD_CALLS,
                         ids=[call[0].__name__ for call in WORKLOAD_CALLS])
def test_workload_call_binds(fn, args, kwargs):
    inspect.signature(fn).bind(*args, **kwargs)
