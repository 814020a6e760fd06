"""Every function, class and field the package defines has a reader outside the tests.

A name counts as called when the package or the benchmark harness names it:
as a variable, an attribute, an imported name or a string (``__all__`` and
the harness's trace targets name functions by string).  A field, a
``__slots__`` entry or an annotated class attribute, counts as read only
when an attribute load names it: an assignment to it is not a read.  Both
checks are by name alone, so they cannot tell two definitions of one name
apart.
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
