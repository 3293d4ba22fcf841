"""Every public class and function of the library modules is reached by the
program: the CLI and library code, the acceptance tests, or the benchmark.
A name that only the unit tests call belongs in the tests, as an oracle."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
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


def test_every_public_library_name_is_reached_outside_the_unit_tests():
    src = ROOT / "src" / "mpart"
    readers = [*src.glob("*.py"), ROOT / "tests" / "test_acceptance.py"]
    readers += [p for p in (ROOT / "perfbench").glob("*.py") if p.name != "test_harness.py"]
    reached = set().union(*map(_referenced, readers))
    unreached = []
    for module in LIBRARY:
        path = src / f"{module}.py"
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
                if not node.name.startswith("_") and node.name not in reached:
                    unreached.append(f"{node.name} ({path.relative_to(ROOT)}:{node.lineno})")
    assert not unreached, f"public names only the unit tests reach: {', '.join(unreached)}"
