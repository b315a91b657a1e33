"""The package exports no function that only tests call.

Every module-level public function in ``src/decnorms/*.py`` must be
referenced by name from package code outside its own ``def``, or be part
of the documented API in ``decnorms.__all__``.  A helper that only tests
use belongs in the tests.
"""

import ast
from pathlib import Path

import decnorms

SRC = Path(decnorms.__file__).resolve().parent


def _public_functions_and_references():
    defs, refs = [], set()
    for path in sorted(SRC.glob("*.py")):
        module = path.stem
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            owner = None
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner = node.name
                if not owner.startswith("_"):
                    defs.append((module, owner))
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name):
                    name = sub.id
                elif isinstance(sub, ast.Attribute):
                    name = sub.attr
                else:
                    continue
                if name != owner:  # a function's mention of itself does not count
                    refs.add(name)
    return defs, refs


def test_walk_sees_the_package():
    defs, refs = _public_functions_and_references()
    assert ("conic", "solve") in defs
    assert ("maps", "kraus_map") in defs
    assert "solve" in refs


def test_every_public_function_has_a_package_caller_or_is_exported():
    defs, refs = _public_functions_and_references()
    exported = set(decnorms.__all__)
    orphans = [f"{module}.{name}" for module, name in defs
               if name not in refs and name not in exported]
    assert orphans == [], f"public functions only tests can call: {orphans}"
