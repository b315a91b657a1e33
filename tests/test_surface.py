"""The package exports no function that only tests call, and no solver knobs.

Every module-level public function in ``src/decnorms/*.py`` must be
referenced by name from package code outside its own ``def``, or be part
of the documented API in ``decnorms.__all__``, and every name in
``decnorms.__all__`` exists.  A helper that only tests
use belongs in the tests.  The solver stops on one tolerance, ``tol``,
and one cap, ``conic.MAX_ITER``, so no function takes separate
tolerances or an iteration cap.  No package or test module imports a name
it never uses.  Every instance option is read by the routine of some kind,
every option flag of ``decnorms norm`` sets an instance option, and the
option flags of ``decnorms verify`` are exactly the keywords of
``suite.run_suite``: the profile, the seed and the instance cap.
"""

import argparse
import ast
import inspect
from pathlib import Path

import decnorms
from decnorms import cli, suite
from decnorms.iofmt import OPTIONS

SRC = Path(decnorms.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent


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


def _unused_imports(path: Path) -> list[str]:
    """Names an import in ``path`` binds that the module never uses as a name.

    Imports on a line marked ``# noqa: F401`` and names listed in the
    module's ``__all__`` are kept on purpose.
    """
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source, filename=str(path))
    bound, used, exported = {}, set(), set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) == "__future__" or "# noqa: F401" in lines[node.lineno - 1]:
                continue
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported |= set(ast.literal_eval(node.value))
    return [f"{path.parent.name}/{path.name}:{line} {name}"
            for name, line in bound.items() if name not in used and name not in exported]


def test_no_module_imports_a_name_it_never_uses():
    unused = [hit for path in sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py"))
              for hit in _unused_imports(path)]
    assert unused == [], f"imported names never used: {unused}"


def test_every_option_has_a_reader_and_every_norm_flag_sets_an_option():
    read = set().union(*cli._KIND_OPTIONS.values())
    assert read == set(OPTIONS), f"options no kind's routine reads: {sorted(set(OPTIONS) - read)}"
    sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    flags = {a.dest for a in sub.choices["norm"]._actions if a.option_strings}
    assert flags - {"help", "json", "out"} <= set(OPTIONS)


def test_every_verify_flag_is_a_run_suite_keyword_and_back():
    sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    flags = {a.dest for a in sub.choices["verify"]._actions if a.option_strings}
    keywords = set(inspect.signature(suite.run_suite).parameters)
    assert flags - {"help", "json", "out"} == keywords == {"profile", "seed", "max_instances"}
