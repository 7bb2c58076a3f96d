"""Source hygiene: every name a package or test module imports is used in
it, every private module-level function or constant of the package is read
somewhere in the package or its tests, every method and property of a
package class is read somewhere in the package, its tests or the benchmark
(not counting a benchmark read of a name a benchmark class defines itself),
every package name the benchmark reads exists, the private names one
package module imports from another are the pinned few, and the package
neither prints nor warns."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "rampsched"
BENCHMARK = ROOT / "benchmark"
TESTS = ROOT / "tests"


def unused_imports(tree: ast.Module) -> list[str]:
    """Names bound by import statements that the module never reads.

    Names listed in `__all__` count as used (re-exports)."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used |= {e.value for e in ast.walk(node.value)
                     if isinstance(e, ast.Constant) and isinstance(e.value, str)}
    return sorted(f"line {line}: {name}" for name, line in imported.items()
                  if name not in used)


def private_definitions(tree: ast.Module) -> dict[str, int]:
    """Module-level functions and constants whose name starts with one
    underscore, with the line that defines them."""
    defs = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        defs.update({n: node.lineno for n in names
                     if n.startswith("_") and not n.startswith("__")})
    return defs


def names_read(tree: ast.Module) -> set[str]:
    """Names a module loads, reads as attributes or imports from another."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read |= {alias.name for alias in node.names}
    return read


def unused_privates(modules: dict[str, ast.Module],
                    readers: list[ast.Module]) -> list[str]:
    """Private definitions of `modules` that no tree in `readers` reads."""
    read = set().union(*map(names_read, readers))
    return sorted(f"{mod} line {line}: {name}" for mod, tree in modules.items()
                  for name, line in private_definitions(tree).items() if name not in read)


def class_members(tree: ast.Module) -> dict[tuple[str, str], int]:
    """Methods and properties of every class in a module, dunders left out:
    (class, name) -> line."""
    return {(cls.name, f.name): f.lineno for cls in ast.walk(tree)
            if isinstance(cls, ast.ClassDef) for f in cls.body
            if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not (f.name.startswith("__") and f.name.endswith("__"))}


def unread_members(modules: dict[str, ast.Module], readers: list[ast.Module],
                   outside: list[ast.Module]) -> list[str]:
    """Class members of `modules` that no tree in `readers` reads, nor any
    tree in `outside` under a name that no class of `outside` defines (a
    read there may be of the outside class's own member)."""
    own = {name for tree in outside for _, name in class_members(tree)}
    read = set().union(*map(names_read, readers)) | \
        (set().union(*map(names_read, outside)) - own)
    return sorted(f"{mod} line {line}: {cls}.{name}" for mod, tree in modules.items()
                  for (cls, name), line in class_members(tree).items() if name not in read)


def bound_names(tree: ast.Module) -> set[str]:
    """Names a module binds at its top level: definitions, assignments and
    imports."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names |= {(a.asname or a.name).split(".")[0] for a in node.names}
    return names


def package_namespaces(src: Path) -> dict[str, set[str]]:
    """Dotted module name -> names it binds, for the package under `src`;
    the package itself also binds its submodules."""
    pkg = src.name
    spaces = {f"{pkg}.{p.stem}": bound_names(ast.parse(p.read_text()))
              for p in sorted(src.glob("*.py")) if p.stem != "__init__"}
    spaces[pkg] = bound_names(ast.parse((src / "__init__.py").read_text())) | \
        {name.split(".")[1] for name in spaces}
    return spaces


def missing_package_names(spaces: dict[str, set[str]],
                          readers: dict[str, ast.Module]) -> list[str]:
    """Package names a reader takes that its module does not bind: names in
    `from package... import` lines, attribute reads on an imported package
    module, and the string in second place of a tuple led by such a module
    (the tracer's (module, "name", ...) targets)."""
    missing = []
    for path, tree in readers.items():
        modules, reads = {}, []
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module in spaces:
                for a in node.names:
                    sub = f"{node.module}.{a.name}"
                    if sub in spaces:
                        modules[a.asname or a.name] = sub
                    else:
                        reads.append((node.module, a.name, node.lineno))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                    and node.value.id in modules:
                reads.append((modules[node.value.id], node.attr, node.lineno))
            elif isinstance(node, ast.Tuple) and len(node.elts) > 1 \
                    and isinstance(node.elts[0], ast.Name) and node.elts[0].id in modules \
                    and isinstance(node.elts[1], ast.Constant) \
                    and isinstance(node.elts[1].value, str):
                reads.append((modules[node.elts[0].id], node.elts[1].value, node.lineno))
        missing += [f"{path} line {line}: {mod}.{name}" for mod, name, line in reads
                    if name not in spaces[mod]]
    return sorted(missing)


def private_imports(modules: dict[str, ast.Module], pkg: str) -> dict[str, list[str]]:
    """Module -> the private names it imports from another module of the
    package `pkg` (relative imports or absolute ones from `pkg`), sorted;
    modules that import none are left out."""
    found = {}
    for mod, tree in modules.items():
        names = sorted(a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                       and (node.level > 0 or (node.module or "").split(".")[0] == pkg)
                       for a in node.names if a.name.startswith("_"))
        if names:
            found[mod] = names
    return found


def chatter_calls(tree: ast.Module) -> list[str]:
    """`print(...)` and `warnings.warn(...)` calls, which write to stdout or
    stderr instead of going through `logging`."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        if isinstance(f, ast.Name) and f.id == "print":
            found.append(f"line {node.lineno}: print")
        elif isinstance(f, ast.Attribute) and f.attr == "warn" \
                and isinstance(f.value, ast.Name) and f.value.id == "warnings":
            found.append(f"line {node.lineno}: warnings.warn")
    return found


@pytest.mark.parametrize("path", [*sorted(SRC.glob("*.py")), *sorted(TESTS.glob("*.py"))],
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(ast.parse(path.read_text())) == []


def test_unused_import_detected():
    tree = ast.parse("import os\nfrom math import exp, log\nprint(exp(1))\n"
                     "__all__ = ['missing']\n")
    assert unused_imports(tree) == ["line 1: os", "line 2: log"]


def test_no_unused_private_names():
    modules = {p.name: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    tests = [ast.parse(p.read_text()) for p in sorted(TESTS.glob("*.py"))]
    assert unused_privates(modules, [*modules.values(), *tests]) == []


def test_unused_private_detected():
    mod = ast.parse("_A = 1\n_B: int = 2\n__all__ = []\n\n"
                    "def _f():\n    return _A\n\n\ndef _g():\n    pass\n\n\n"
                    "def pub():\n    pass\n")
    user = ast.parse("from m import _B\nimport m\nm._unused_attr\n")
    assert unused_privates({"m.py": mod}, [mod, user]) == [
        "m.py line 5: _f", "m.py line 9: _g"]


def test_no_unread_class_members():
    modules = {p.name: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    readers = [ast.parse(p.read_text()) for d in (SRC, TESTS)
               for p in sorted(d.glob("*.py"))]
    bench = [ast.parse(p.read_text()) for p in sorted(BENCHMARK.glob("*.py"))]
    assert unread_members(modules, readers, bench) == []


def test_unread_member_detected():
    """Members are told apart by class, and an outside read of a name that an
    outside class defines itself does not count."""
    mod = ast.parse("class A:\n    def __init__(self):\n        self.used()\n\n"
                    "    def used(self):\n        pass\n\n    @property\n"
                    "    def dead(self):\n        return 1\n\n\n"
                    "class B:\n    @classmethod\n    def make(cls):\n        pass\n\n"
                    "    def spare(self):\n        pass\n\n\n"
                    "class C:\n    def spare(self):\n        pass\n\n"
                    "    def report(self):\n        pass\n")
    user = ast.parse("from m import B\nB.make()\n\n\nclass T:\n"
                     "    def report(self):\n        pass\n\n\nT().report()\n")
    assert unread_members({"m.py": mod}, [mod], [user]) == [
        "m.py line 18: B.spare", "m.py line 23: C.spare", "m.py line 26: C.report",
        "m.py line 9: A.dead"]


def test_benchmark_reads_only_existing_package_names():
    readers = {p.name: ast.parse(p.read_text()) for p in sorted(BENCHMARK.glob("*.py"))}
    assert missing_package_names(package_namespaces(SRC), readers) == []


def test_missing_package_name_detected():
    spaces = {"pkg": {"a", "run", "Cls"}, "pkg.a": {"run", "LIMIT", "helper"}}
    user = ast.parse("from pkg import a, Cls, gone\nfrom pkg.a import LIMIT, dropped\n"
                     "TARGETS = ((a, 'run', 'x'), (a, 'vanished', 'y'), (Cls, 'z'))\n"
                     "a.helper()\na.removed()\nCls.anything\n")
    assert missing_package_names(spaces, {"user.py": user}) == [
        "user.py line 1: pkg.gone", "user.py line 2: pkg.a.dropped",
        "user.py line 3: pkg.a.vanished", "user.py line 5: pkg.a.removed"]


def test_private_imports_between_package_modules_pinned():
    """A private name crosses modules only where it is shared on purpose:
    the envelope names its failing points with transform's _where, and the
    steady residual reads process's array right-hand side."""
    modules = {p.stem: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    assert private_imports(modules, SRC.name) == {"envelope": ["_where"],
                                                  "transform": ["_rhs_array"]}


def test_private_import_detected():
    mod = ast.parse("from .a import _x, y\nfrom os import _exit\nfrom pkg.b import _z\n"
                    "from . import _c\nfrom other import _w\nimport _thread\n")
    plain = ast.parse("from .a import y\nfrom os import _exit\n")
    assert private_imports({"m": mod, "n": plain}, "pkg") == {"m": ["_c", "_x", "_z"]}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_package_neither_prints_nor_warns(path):
    assert chatter_calls(ast.parse(path.read_text())) == []


def test_chatter_detected():
    tree = ast.parse("import warnings\nimport logging\nprint('x')\n"
                     "warnings.warn('y')\nwarnings.filterwarnings('ignore')\n"
                     "logging.getLogger(__name__).warning('z')\n"
                     "def f():\n    print(1, file=None)\n")
    assert chatter_calls(tree) == ["line 3: print", "line 4: warnings.warn",
                                   "line 8: print"]
