"""The package exports no function that only tests call, and no solver knobs.

Every module-level public function in ``src/decnorms/*.py`` must be
referenced by name from package code outside its own ``def``, or be part
of the documented API in ``decnorms.__all__``, and every name in
``decnorms.__all__`` exists.  A helper that only tests
use belongs in the tests.  The solver stops on one tolerance, ``tol``,
and one cap, ``conic.MAX_ITER``, so no function takes separate
tolerances or an iteration cap.
"""

import ast
from pathlib import Path

import decnorms

SRC = Path(decnorms.__file__).resolve().parent


# parameter names the single ``tol`` and ``conic.MAX_ITER`` replaced
SOLVER_KNOBS = {"gap_tol", "feas_tol", "max_iter"}


def _walk_package():
    """Public module-level functions, names referenced, and every function's parameters."""
    defs, refs, params = [], set(), []
    for path in sorted(SRC.glob("*.py")):
        module = path.stem
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            owner = None
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner = node.name
                if not owner.startswith("_"):
                    defs.append((module, owner))
            for sub in ast.walk(node):
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    args = sub.args
                    params += [(f"{module}.{sub.name}", arg.arg)
                               for arg in args.posonlyargs + args.args + args.kwonlyargs]
                if isinstance(sub, ast.Name):
                    name = sub.id
                elif isinstance(sub, ast.Attribute):
                    name = sub.attr
                else:
                    continue
                if name != owner:  # a function's mention of itself does not count
                    refs.add(name)
    return defs, refs, params


def test_walk_sees_the_package():
    defs, refs, params = _walk_package()
    assert ("conic", "solve") in defs
    assert ("maps", "kraus_map") in defs
    assert "solve" in refs
    assert ("conic.solve", "tol") in params
    assert ("conic.__init__", "setup") in params  # methods and nested functions too


def test_every_public_function_has_a_package_caller_or_is_exported():
    defs, refs, _ = _walk_package()
    exported = set(decnorms.__all__)
    orphans = [f"{module}.{name}" for module, name in defs
               if name not in refs and name not in exported]
    assert orphans == [], f"public functions only tests can call: {orphans}"


def test_no_function_takes_separate_tolerances_or_an_iteration_cap():
    _, _, params = _walk_package()
    knobs = [f"{func}({name})" for func, name in params if name in SOLVER_KNOBS]
    assert knobs == [], f"solver knobs other than tol and conic.MAX_ITER: {knobs}"


def test_every_exported_name_resolves():
    missing = [name for name in decnorms.__all__ if not hasattr(decnorms, name)]
    assert missing == [], f"names in decnorms.__all__ the package does not define: {missing}"
