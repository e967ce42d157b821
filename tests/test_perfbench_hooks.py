"""The tracing recorder of perfbench/ binds names inside palindrome_lab.

`perfbench/run.py --trace 1` wraps every binding listed in the recorder's
WRAPS table; a rename or deletion in the package would break it only at
trace time. This test installs the recorder and checks each binding is
found, wrapped, and put back afterwards.
"""

import importlib.util
from pathlib import Path

import palindrome_lab
import palindrome_lab.report  # noqa: F401  (WRAPS names it; the package does not import it)

RECORDER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "recorder.py"


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
