"""Every name a solwave module exports in __all__ must resolve, so a deletion
cannot leave a stale export behind; no module reads the environment, so
configuration comes only through arguments and the CLI config; and no module
imports another module's private (underscore) names, so what modules share is
public API; no module imports from a private third-party module or a private
third-party name, so solwave rests on its dependencies' public API; no module
imports scipy, so numpy is the one runtime dependency; and every name a module
imports is used there or re-exported in its __all__, so no import outlives its
last use; and RadialProfile is built only in radial._assemble_profile, so
every profile, solved, resampled or loaded, is certified by one path."""

import ast
import importlib
import inspect
import pkgutil

import pytest

import solwave

MODULES = sorted(info.name for info in pkgutil.iter_modules(solwave.__path__))


def test_modules_found():
    assert {"boost", "cli", "evolve", "functionals", "radial"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"solwave.{name}")
    exported = getattr(module, "__all__", [])
    assert exported, f"solwave.{name} has no __all__"
    assert [n for n in exported if not hasattr(module, n)] == []


@pytest.mark.parametrize("name", ["solwave", *(f"solwave.{m}" for m in MODULES)])
def test_no_environment_reads(name):
    source = inspect.getsource(importlib.import_module(name))
    assert [word for word in ("os.environ", "getenv") if word in source] == []


@pytest.mark.parametrize("name", MODULES)
def test_no_private_cross_imports(name):
    tree = ast.parse(inspect.getsource(importlib.import_module(f"solwave.{name}")))
    private = [
        f"{node.module}.{alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").split(".")[0] == "solwave")
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []


@pytest.mark.parametrize("name", MODULES)
def test_no_private_third_party_imports(name):
    # e.g. scipy.integrate._ivp or `from scipy.integrate import _ivp`
    tree = ast.parse(inspect.getsource(importlib.import_module(f"solwave.{name}")))
    imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names]
    imported += [
        f"{node.module}.{alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 0
        and node.module != "__future__" and node.module.split(".")[0] != "solwave"
        for alias in node.names
    ]
    assert [d for d in imported if any(part.startswith("_") for part in d.split("."))] == []


@pytest.mark.parametrize("name", MODULES)
def test_no_unused_imports(name):
    module = importlib.import_module(f"solwave.{name}")
    tree = ast.parse(inspect.getsource(module))
    imported = {
        (alias.asname or alias.name).split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used - set(getattr(module, "__all__", []))) == []


def test_radial_profiles_built_in_one_place():
    sites = []
    for name in ["solwave", *(f"solwave.{m}" for m in MODULES)]:
        tree = ast.parse(inspect.getsource(importlib.import_module(name)))
        functions = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
        sites += [
            (name, [f.name for f in functions if node in ast.walk(f)])
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and "RadialProfile" in (
                getattr(node.func, "id", None), getattr(node.func, "attr", None))
        ]
    assert sites == [("solwave.radial", ["_assemble_profile"])]


@pytest.mark.parametrize("name", ["solwave", *(f"solwave.{m}" for m in MODULES)])
def test_no_scipy_imports(name):
    # scipy is a test-only oracle
    tree = ast.parse(inspect.getsource(importlib.import_module(name)))
    imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names]
    imported += [node.module for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) and node.level == 0]
    assert [m for m in imported if m.split(".")[0] == "scipy"] == []
