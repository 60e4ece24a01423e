"""Source hygiene checks over the package, its tests and the benchmark
harness (read only: the harness is never edited from here).

The package holds only what runs execute: a definition or method of
``src/modnet`` stays only while the package itself or the benchmark
harness reads it, or the package exports it in ``__all__``.  Reads from
the tests do not count; a reference only the tests need belongs in
``tests/oracles.py``."""

import ast
import glob
import os
import sys
from collections import Counter

from test_acceptance import emitted_kinds

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = sorted(glob.glob(os.path.join(ROOT, "src", "modnet", "*.py")))
HARNESS = sorted(glob.glob(os.path.join(ROOT, "perfbench", "*.py")))
SOURCES = sorted(PACKAGE + HARNESS + glob.glob(os.path.join(ROOT, "tests", "*.py")))


def exported(tree: ast.AST) -> set[str]:
    """The names a tree lists in ``__all__``."""
    return {
        e.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
        for e in ast.walk(node.value)
        if isinstance(e, ast.Constant)
    }


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
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} | exported(tree)
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
    assert any(os.sep + "perfbench" + os.sep in path for path in SOURCES)
    assert found == {}


def imported_packages(source: str) -> set[str]:
    """The top-level packages a module imports; relative imports count as
    the module's own package, ``modnet``."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            found.add("modnet" if node.level else node.module.split(".")[0])
    return found


def test_import_scan_names_top_level_packages():
    src = "import os.path\nimport numpy as np\nfrom modnet.modular import x\nfrom . import y\n"
    assert imported_packages(src) == {"os", "numpy", "modnet"}


def test_data_generation_imports_only_numpy_and_the_standard_library():
    # the generators stay free of model code, so either can change alone
    with open(os.path.join(ROOT, "src", "modnet", "datasets.py")) as fh:
        packages = imported_packages(fh.read())
    assert "numpy" in packages
    assert packages - {"numpy"} <= set(sys.stdlib_module_names)


def read_names(tree: ast.AST) -> set[str]:
    """Names a tree reads, bare (``f``) or as an attribute (``m.f``), and
    the names it exports in ``__all__``."""
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(tree)
        if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)
    } | exported(tree)


def unread_definitions(sources: dict[str, str], defining: list[str]) -> list[str]:
    """Top-level functions and classes of the ``defining`` files that no
    top-level statement of ``sources`` reads, their own definitions aside."""
    readers: dict[str, int] = {}  # name -> statements that read it
    defs = []
    for path, source in sources.items():
        for stmt in ast.parse(source).body:
            names = read_names(stmt)
            for name in names:
                readers[name] = readers.get(name, 0) + 1
            if path in defining and isinstance(
                stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                defs.append((path, stmt, stmt.name in names))
    return [
        f"{path}: {stmt.name} (line {stmt.lineno})"
        for path, stmt, self_read in defs
        if readers.get(stmt.name, 0) == self_read
    ]


def test_dead_name_scan_flags_only_unread_definitions():
    lib = (
        "def used(): pass\n"
        "def by_attr(): pass\n"
        "def recursive(n): return recursive(n - 1)\n"
        "class Dead: pass\n"
        "dead = 1\n"
        "def exported(): pass\n"
        "def tested(): pass\n"
        "__all__ = ['exported']\n"
    )
    user = "import lib\nused()\nlib.by_attr\nDead = 2\n"
    found = unread_definitions({"lib.py": lib, "user.py": user}, ["lib.py"])
    assert found == [
        "lib.py: recursive (line 3)",
        "lib.py: Dead (line 4)",
        "lib.py: tested (line 7)",
    ]


def package_and_harness() -> tuple[dict[str, str], list[str]]:
    """The sources whose reads keep a package name alive, keyed by path
    relative to the root, and the paths of the package's own."""
    sources = {}
    for path in PACKAGE + HARNESS:
        with open(path) as fh:
            sources[os.path.relpath(path, ROOT)] = fh.read()
    package = [os.path.relpath(p, ROOT) for p in PACKAGE]
    assert len(package) > 10 and len(sources) > len(package)
    return sources, package


def test_every_package_definition_is_read_somewhere():
    sources, package = package_and_harness()
    assert unread_definitions(sources, package) == []


def method_reads(tree: ast.AST) -> Counter:
    """How often a tree reads each name as a method could be read: as an
    attribute load, or as a string constant, since a tracer names the
    attributes it wraps.  A bare name is a variable, never a method."""
    return Counter(
        n.value if isinstance(n, ast.Constant) else n.attr
        for n in ast.walk(tree)
        if (isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load))
        or (isinstance(n, ast.Constant) and isinstance(n.value, str))
    )


def unread_methods(sources: dict[str, str], defining: list[str]) -> list[str]:
    """Methods of the top-level classes of the ``defining`` files, dunders
    aside, whose name nothing reads outside the method's own body."""
    trees = {path: ast.parse(source) for path, source in sources.items()}
    reads = sum((method_reads(tree) for tree in trees.values()), Counter())
    dead = []
    for path in defining:
        for cls in trees[path].body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for fn in cls.body:
                if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if fn.name.startswith("__") and fn.name.endswith("__"):
                    continue
                if reads[fn.name] == method_reads(fn)[fn.name]:
                    dead.append(f"{path}: {cls.name}.{fn.name} (line {fn.lineno})")
    return dead


def test_method_scan_flags_only_unread_methods():
    lib = (
        "class A:\n"
        "    def __init__(self): pass\n"
        "    def used(self): pass\n"
        "    def by_name(self): pass\n"
        "    def recursive(self): return self.recursive()\n"
        "    def dead(self): pass\n"
        "    @property\n"
        "    def prop(self): return 1\n"
        "    def item(self): pass\n"
    )
    user = (
        "a = A()\na.used()\nsetattr(A, 'by_name', None)\nprint(a.prop)\na.dead = 2\n"
        "for item in []: print(item)\n"
    )
    found = unread_methods({"lib.py": lib, "user.py": user}, ["lib.py"])
    assert found == [
        "lib.py: A.recursive (line 5)",
        "lib.py: A.dead (line 6)",
        "lib.py: A.item (line 9)",
    ]


def test_every_package_method_is_read_somewhere():
    sources, package = package_and_harness()
    assert unread_methods(sources, package) == []


def test_the_kind_scan_flags_every_way_round_record_joint(tmp_path):
    (tmp_path / "ops.py").write_text(
        "def record_joint(kind, out, inputs, pullback):\n"
        "    return tape.record(kind, out, pullback)\n"
        "def seen(x):\n"
        "    return record_joint('seen', x, [x], None)\n"
        "def hidden(x, kind):\n"
        "    return record_joint(kind, x, [x], None)\n"
        "def direct(x):\n"
        "    return tape.record('direct', x, None)\n"
    )
    assert emitted_kinds(str(tmp_path)) == ({"seen"}, ["ops.py:6", "ops.py:8"])


def test_the_package_emits_eight_record_kinds():
    # the embedding lookup runs inside the unroll's record and the noisy
    # top-k gate inside the gated layer's pool-combine record
    kinds, unscanned = emitted_kinds()
    assert not unscanned
    assert kinds == {
        "matmul", "add", "elementwise-mul", "sum-over-axis", "gaussian-log-density",
        "categorical-head", "pool-combine", "modular-gru-unroll",
    }
