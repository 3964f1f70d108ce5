"""Every name a solwave module exports in __all__ must resolve, so a deletion
cannot leave a stale export behind; and no module reads the environment, so
configuration comes only through arguments and the CLI config."""

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
