"""Every module-level public function and class of momentlab is reached by the
library, a script or the benchmark, not by tests alone.

A reference is a name, an attribute or an imported name in the syntax tree of
a file under src/, scripts/ or perfbench/; the contents of strings (messages,
docstrings, traced-name tables) do not count.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "momentlab"
REACHING = ("src", "scripts", "perfbench")

# Reached by tests only, on purpose.
ALLOWED = {
    "weight_V_reference",     # oracle route: refined quadrature against the spline weight
    "divisor_route_moment",   # oracle route: the moment through the divisor sum
}


def _public_definitions() -> list[tuple[str, str]]:
    """(module, name) of the public top-level functions and classes."""
    return [(path.stem, node.name)
            for path in sorted(PACKAGE.glob("*.py"))
            for node in ast.parse(path.read_text()).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def _referenced_names() -> set[str]:
    names = set()
    for top in REACHING:
        for path in (ROOT / top).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.alias):
                    names.add(node.name.rpartition(".")[2])
    return names


def test_every_public_name_is_reached_outside_tests():
    referenced = _referenced_names()
    unreached = [f"{module}.{name}" for module, name in _public_definitions()
                 if name not in referenced and name not in ALLOWED]
    assert not unreached, f"reached by tests only: {', '.join(unreached)}"


def test_allowlist_names_existing_definitions():
    assert ALLOWED <= {name for _, name in _public_definitions()}
