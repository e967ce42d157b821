"""Every public module-level name of the package (a function, class or
constant without a leading underscore, re-exported or not) is read by the
code that reproduces the paper: the library itself, the scripts or the
benchmark. A name only tests read is not public API; it goes, and this test
keeps it from coming back."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "palindrome_lab"


def _public_names():
    """(name, defining module path) for each top-level function, class or
    assigned name without a leading underscore in the package's modules."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            found += [(name, path) for name in names if not name.startswith("_")]
    return found


def _references(path: Path, skip: str | None = None) -> set[str]:
    """Identifiers a module reads: names, attributes, and dotted string
    constants (the benchmark's recorder names what it wraps by strings).
    With skip, the top-level definition of that name is not looked into."""
    tree = ast.parse(path.read_text())
    nodes = [n for n in tree.body
             if not (isinstance(n, (ast.FunctionDef, ast.ClassDef)) and n.name == skip)]
    found = set()
    for node in (sub for top in nodes for sub in ast.walk(top)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.update(part for part in node.value.split(".") if part.isidentifier())
    return found


def test_every_public_name_is_read_outside_tests():
    outside = set()
    for path in [*(ROOT / "scripts").glob("*.py"), *(ROOT / "perfbench").rglob("*.py")]:
        outside |= _references(path)
    inside = {path: _references(path) for path in PACKAGE.glob("*.py")}
    unread = []
    for name, home in _public_names():
        if name in outside or any(name in refs for p, refs in inside.items() if p != home):
            continue
        if name not in _references(home, skip=name):
            unread.append(f"{home.stem}.{name}")
    assert not unread, f"public but read only by tests: {unread}"
