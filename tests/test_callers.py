"""Every function, class and field the package defines has a reader outside the tests.

A name counts as called when the package or the benchmark harness names it:
as a variable, an attribute, an imported name or a string (``__all__`` and
the harness's trace targets name functions by string).  A field, a
``__slots__`` entry or an annotated class attribute, counts as read only
when an attribute load names it: an assignment to it is not a read.  Both
checks are by name alone, so they cannot tell two definitions of one name
apart.  A parameter default counts as used when some call leaves that
argument out.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _modules(directory: str) -> list[ast.Module]:
    paths = sorted((ROOT / directory).glob("*.py"))
    return [ast.parse(path.read_text(encoding="utf-8"), str(path)) for path in paths]


def test_every_package_definition_is_named_outside_the_tests():
    package = _modules("src/blprover")
    defined = set()
    for module in package:
        for node in ast.walk(module):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    defined.add(node.name)
    named = set()
    for module in package + _modules("perfbench"):
        for node in ast.walk(module):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.name)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                named.add(node.value)
    assert {"rwbl_premises", "decompose", "Certificate"} <= defined
    assert sorted(defined - named) == []


def test_every_package_field_is_read_outside_the_tests():
    package = _modules("src/blprover")
    fields = set()
    for module in package:
        for cls in ast.walk(module):
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                    fields.add((cls.name, node.target.id))
                elif isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__slots__" for t in node.targets
                ):
                    for entry in ast.walk(node.value):
                        if isinstance(entry, ast.Constant) and isinstance(entry.value, str):
                            fields.add((cls.name, entry.value))
    read = {
        node.attr
        for module in package + _modules("perfbench")
        for node in ast.walk(module)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    assert {("AxiomVerdict", "countermodel"), ("RelationalSequent", "weight")} <= fields
    unread = [
        f"{cls}.{name}"
        for cls, name in fields
        if name not in read and not (name.startswith("__") and name.endswith("__"))
    ]
    assert sorted(unread) == []


def _callee(call: ast.Call) -> str | None:
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def _leaves_out(call: ast.Call, name: str, position: int) -> bool:
    """Whether call passes no argument for the parameter, by keyword or by position."""
    if any(isinstance(a, ast.Starred) for a in call.args):
        return False
    if any(k.arg is None or k.arg == name for k in call.keywords):
        return False
    return position < 0 or len(call.args) <= position


def test_every_parameter_default_is_left_out_by_some_call():
    """A default that every call overrides is a code path no caller takes.

    Calls are matched by the function's name; a method's position counts
    its bound first parameter out, and a constructor is called by its
    class's name.  A call with ``*`` or ``**`` arguments leaves nothing out.
    """
    package = _modules("src/blprover")
    defaults = []
    for module in package:
        owner = {
            id(node): cls.name
            for cls in ast.walk(module)
            if isinstance(cls, ast.ClassDef)
            for node in cls.body
        }
        for node in ast.walk(module):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args, name = node.args, node.name
            if name in ("__init__", "__new__"):
                name = owner[id(node)]
            bound = id(node) in owner
            positional = args.posonlyargs + args.args
            first = len(positional) - len(args.defaults)
            for k in range(first, len(positional)):
                defaults.append((name, positional[k].arg, k - bound))
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    defaults.append((name, arg.arg, -1))
    calls = [
        node
        for module in package + _modules("perfbench")
        for node in ast.walk(module)
        if isinstance(node, ast.Call)
    ]
    assert ("check_axiom", "cache", 1) in defaults
    overridden = [
        f"{func}({name})"
        for func, name, position in defaults
        if not any(_callee(c) == func and _leaves_out(c, name, position) for c in calls)
    ]
    assert sorted(overridden) == []
