"""Source hygiene: every name a module imports is used in it, every
private module-level function or constant of the package is read somewhere
in the package or its tests, and every method and property of a package
class is read somewhere in the package, its tests or the benchmark."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "rampsched"
READERS = (SRC, ROOT / "tests", ROOT / "benchmark")


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


def class_members(tree: ast.Module) -> dict[str, tuple[str, int]]:
    """Methods and properties of every class in a module, dunders left out:
    name -> (class, line)."""
    members = {}
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef):
            members.update({f.name: (cls.name, f.lineno) for f in cls.body
                            if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
                            and not (f.name.startswith("__") and f.name.endswith("__"))})
    return members


def unread_members(modules: dict[str, ast.Module],
                   readers: list[ast.Module]) -> list[str]:
    """Class members of `modules` that no tree in `readers` reads."""
    read = set().union(*map(names_read, readers))
    return sorted(f"{mod} line {line}: {cls}.{name}" for mod, tree in modules.items()
                  for name, (cls, line) in class_members(tree).items() if name not in read)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(ast.parse(path.read_text())) == []


def test_unused_import_detected():
    tree = ast.parse("import os\nfrom math import exp, log\nprint(exp(1))\n"
                     "__all__ = ['missing']\n")
    assert unused_imports(tree) == ["line 1: os", "line 2: log"]


def test_no_unused_private_names():
    modules = {p.name: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    tests = [ast.parse(p.read_text()) for p in sorted((ROOT / "tests").glob("*.py"))]
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
    readers = [ast.parse(p.read_text()) for d in READERS for p in sorted(d.glob("*.py"))]
    assert unread_members(modules, readers) == []


def test_unread_member_detected():
    mod = ast.parse("class A:\n    def __init__(self):\n        self.used()\n\n"
                    "    def used(self):\n        pass\n\n    @property\n"
                    "    def dead(self):\n        return 1\n\n\n"
                    "class B:\n    @classmethod\n    def make(cls):\n        pass\n\n"
                    "    def spare(self):\n        pass\n")
    user = ast.parse("from m import B\nB.make()\n")
    assert unread_members({"m.py": mod}, [mod, user]) == [
        "m.py line 18: B.spare", "m.py line 9: A.dead"]
