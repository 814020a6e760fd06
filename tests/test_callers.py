"""Every function and class the package defines has a caller outside the tests.

A name counts as called when the package or the benchmark harness names it:
as a variable, an attribute, an imported name or a string (``__all__`` and
the harness's trace targets name functions by string).  The check is by
name alone, so it cannot tell two definitions of one name apart.
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
