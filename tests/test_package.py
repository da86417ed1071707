"""Tests for the package's public surface: ``qcrb_kit.__all__``, and the modules' imports."""

import ast
from pathlib import Path

import qcrb_kit

PACKAGE_DIR = Path(qcrb_kit.__file__).parent


def test_every_exported_name_resolves_and_none_repeats():
    names = qcrb_kit.__all__
    assert sorted(n for n in set(names) if names.count(n) > 1) == []
    assert [n for n in names if not hasattr(qcrb_kit, n)] == []
    namespace = {}
    exec("from qcrb_kit import *", namespace)
    assert set(names) <= set(namespace)


def _imported_names(tree: ast.Module) -> set[str]:
    """The names that the module's import statements bind."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
    return names


def _used_names(tree: ast.Module) -> set[str]:
    """The names that the module's code reads, string annotations included."""
    names, annotations = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    for annotation in filter(None, annotations):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                names |= _used_names(ast.parse(node.value, mode="eval"))
    return names


def test_no_module_imports_a_name_it_never_uses():
    # __init__ imports to re-export; every other module imports only what it reads
    unused = {}
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        stale = sorted(_imported_names(tree) - _used_names(tree))
        if stale:
            unused[path.name] = stale
    assert unused == {}


# where a finite-difference step may be named: the model constructors, the copy of a model
# at a new step, and the config reader that builds a model
STEP_OWNERS = {
    "models.ParametricStateModel.__init__",
    "models.ParametricStateModel.with_fd_step",
    "configio.model_from_config",
}


def _public_functions(tree: ast.Module, module: str):
    """(qualified name, node) of each public function and method: no part of the name is
    private, and methods are those of public classes, nested to any depth."""
    def walk(body, prefix):
        for node in body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("_") and not node.name.startswith("__"):
                continue
            name = f"{prefix}.{node.name}"
            if isinstance(node, ast.ClassDef):
                yield from walk(node.body, name)
            else:
                yield name, node
    yield from walk(tree.body, module)


def test_no_public_function_takes_a_step_of_its_own():
    # every difference steps by its model's fd_step: no function or method
    # takes a per-call step h, and fd_step is a parameter only where a model
    # is built
    offenders, owners = [], set()
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for name, node in _public_functions(tree, path.stem):
            args = node.args
            params = {a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)}
            if "fd_step" in params and name in STEP_OWNERS:
                owners.add(name)
            elif "h" in params or "fd_step" in params:
                offenders.append(name)
    assert offenders == []
    assert owners == STEP_OWNERS
