"""Every module-level public function and class of momentlab, and every public
method and property of those classes, is reached by the library or the
benchmark, not by tests alone, and so is every defaulted parameter of the
public functions and dataclasses.

A reference is a name, an attribute or an imported name in the syntax tree of
a file under src/ or perfbench/; the contents of strings (messages,
docstrings, traced-name tables) do not count.  A member counts as reached when
its own name is, on whatever object.  A defaulted parameter is
reached when some call there passes it, by keyword or by position; a value
no caller sets belongs in a constant, not in the signature.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "momentlab"
REACHING = ("src", "perfbench")

# Reached by tests only, on purpose.
ALLOWED = {
    "weight_V_reference",     # oracle route: refined quadrature against the spline weight
    "divisor_route_moment",   # oracle route: the moment through the divisor sum
    # perfbench/tracing.py names it in OPS, and tests/test_tracing.py needs
    # that name to resolve; the tracer itself wraps only __call__
    "BumpFunction.derivative",
}

# Defaulted parameters set by tests only, on purpose (the parameters of the
# test-only routes above are exempt with them).
ALLOWED_OPTIONS = {
    "L_one_f.X": "the smoothing-convergence test varies the smoothing length",
    "weil_certify.grid": "the loop oracle in the tests uses an 8 x 8 grid",
    "error_exponent.alpha": "alpha is a parameter of the paper's exponent formula",
}


def _public_definitions() -> list[tuple[str, str]]:
    """(module, name) of the public top-level functions and classes, and
    (module, "Class.member") of the public methods and properties of those
    classes."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            out.append((path.stem, node.name))
            if isinstance(node, ast.ClassDef):
                out += [(path.stem, f"{node.name}.{item.name}") for item in node.body
                        if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")]
    return out


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(isinstance(d, ast.Name) and d.id == "dataclass"
               or isinstance(d, ast.Call) and getattr(d.func, "id", None) == "dataclass"
               for d in node.decorator_list)


def _init_fields(node: ast.ClassDef) -> list[tuple[str, bool]]:
    """(name, has a default) of the __init__ fields of a dataclass, in order."""
    fields = []
    for stmt in node.body:
        if not (isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)):
            continue
        value = stmt.value
        if (isinstance(value, ast.Call) and getattr(value.func, "id", None) == "field"
                and any(k.arg == "init" and getattr(k.value, "value", True) is False
                        for k in value.keywords)):
            continue
        fields.append((stmt.target.id, value is not None))
    return fields


def _defaulted_parameters() -> dict[str, tuple[int | None, str]]:
    """"function.parameter" -> (position or None if keyword-only, function)
    for every defaulted parameter of a public function or dataclass."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if getattr(node, "name", "_").startswith("_"):
                continue
            if isinstance(node, ast.FunctionDef):
                args = node.args.posonlyargs + node.args.args
                for i, arg in enumerate(args[len(args) - len(node.args.defaults):],
                                        len(args) - len(node.args.defaults)):
                    out[f"{node.name}.{arg.arg}"] = (i, node.name)
                for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults):
                    if default is not None:
                        out[f"{node.name}.{arg.arg}"] = (None, node.name)
            elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
                for i, (name, has_default) in enumerate(_init_fields(node)):
                    if has_default:
                        out[f"{node.name}.{name}"] = (i, node.name)
    return out


def _passed_parameters() -> set[tuple[str, str | int]]:
    """(callee, keyword) and (callee, position) of every argument passed by a
    call under src/ or perfbench/; positions after a *args unpacking
    are unknown and count for none."""
    passed = set()
    for top in REACHING:
        for path in (ROOT / top).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                callee = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                for i, arg in enumerate(node.args):
                    if isinstance(arg, ast.Starred):
                        break
                    passed.add((callee, i))
                passed.update((callee, k.arg) for k in node.keywords)
    return passed


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
                 if name.rpartition(".")[2] not in referenced and name not in ALLOWED]
    assert not unreached, f"reached by tests only: {', '.join(unreached)}"


def test_allowlist_names_existing_definitions():
    assert ALLOWED <= {name for _, name in _public_definitions()}


def test_every_defaulted_parameter_is_set_outside_tests():
    passed = _passed_parameters()
    unset = [name for name, (position, callee) in _defaulted_parameters().items()
             if (callee, name.partition(".")[2]) not in passed
             and (callee, position) not in passed
             and name not in ALLOWED_OPTIONS and callee not in ALLOWED]
    assert not unset, f"set by no caller outside the tests: {', '.join(unset)}"


def test_option_allowlist_names_unset_parameters():
    passed = _passed_parameters()
    options = _defaulted_parameters()
    for name in ALLOWED_OPTIONS:
        assert name in options, name
        position, callee = options[name]
        assert (callee, name.partition(".")[2]) not in passed and (callee, position) not in passed, \
            f"{name} is set outside the tests; drop it from ALLOWED_OPTIONS"
