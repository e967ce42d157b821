"""Every name the package re-exports is read by the code that reproduces the
paper: the library itself, the scripts or the benchmark. A name only tests
read is not public API; it goes, and this test keeps it from coming back."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "palindrome_lab"


def _reexports():
    """(name, defining module path) for each `from .x import name` of __init__.py."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return [(alias.asname or alias.name, PACKAGE / f"{node.module}.py")
            for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names]


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


def test_every_reexport_is_read_outside_tests():
    outside = set()
    for path in [*(ROOT / "scripts").glob("*.py"), *(ROOT / "perfbench").rglob("*.py")]:
        outside |= _references(path)
    modules = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    unread = []
    for name, home in _reexports():
        if name in outside:
            continue
        if not any(name in _references(p, skip=name if p == home else None) for p in modules):
            unread.append(f"{home.stem}.{name}")
    assert not unread, f"re-exported but read only by tests: {unread}"
