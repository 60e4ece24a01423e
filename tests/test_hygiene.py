"""Source hygiene checks over the package and its tests."""

import ast
import glob
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCES = sorted(
    glob.glob(os.path.join(ROOT, "src", "modnet", "*.py"))
    + glob.glob(os.path.join(ROOT, "tests", "*.py"))
)


def unused_imports(source: str) -> list[str]:
    """Names a module imports but never reads; ``__all__`` entries count
    as reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                # "import a.b" binds "a"
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {e.value for e in ast.walk(node.value) if isinstance(e, ast.Constant)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_scan_flags_only_unread_names():
    src = "import os\nimport a.b\nfrom x import y, z as w\n__all__ = ['y']\nprint(a)\n"
    assert unused_imports(src) == ["os (line 1)", "w (line 3)"]


def test_no_unused_imports():
    found = {}
    for path in SOURCES:
        with open(path) as fh:
            names = unused_imports(fh.read())
        if names:
            found[os.path.relpath(path, ROOT)] = names
    assert len(SOURCES) > 20
    assert found == {}
