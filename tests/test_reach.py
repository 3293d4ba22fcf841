"""Every public class and function of the library modules is reached by the
program: the CLI and library code, the acceptance tests, or the benchmark.
A name that only the unit tests call belongs in the tests, as an oracle.
Every private top-level class and function of the package is reached too,
and so is every method and property of a library class.  Dunders are left
out: Python calls them implicitly (len, in, ==, pickle), so no reader names
them."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "mpart"
LIBRARY = ("core", "counting", "enumeration")


def _referenced(path):
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
    return names


def _reached():
    readers = [*SRC.glob("*.py"), ROOT / "tests" / "test_acceptance.py"]
    readers += [p for p in (ROOT / "perfbench").glob("*.py") if p.name != "test_harness.py"]
    return set().union(*map(_referenced, readers))


def _unreached(paths, private):
    reached = _reached()
    unreached = []
    for path in paths:
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
                if node.name.startswith("_") == private and node.name not in reached:
                    unreached.append(f"{node.name} ({path.relative_to(ROOT)}:{node.lineno})")
    return unreached


def _members(path):
    # the methods and properties of the module's classes, dunders aside
    for cls in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(cls, ast.ClassDef):
            for node in cls.body:
                if isinstance(node, ast.FunctionDef) and not node.name.startswith("__"):
                    yield cls.name, node


def test_every_public_library_name_is_reached_outside_the_unit_tests():
    unreached = _unreached([SRC / f"{module}.py" for module in LIBRARY], private=False)
    assert not unreached, f"public names only the unit tests reach: {', '.join(unreached)}"


def test_every_private_helper_is_reached_outside_the_unit_tests():
    unreached = _unreached(sorted(SRC.glob("*.py")), private=True)
    assert not unreached, f"private names only the unit tests reach: {', '.join(unreached)}"


def test_every_library_method_is_reached_outside_the_unit_tests():
    reached = _reached()
    unreached = [
        f"{cls}.{node.name} ({path.relative_to(ROOT)}:{node.lineno})"
        for path in [SRC / f"{module}.py" for module in LIBRARY]
        for cls, node in _members(path)
        if node.name not in reached
    ]
    assert not unreached, f"methods only the unit tests reach: {', '.join(unreached)}"
