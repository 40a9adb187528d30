"""Every name that a cctsens module lists in ``__all__`` resolves."""

import importlib
import pkgutil

import pytest

import cctsens

_MODULES = [m.name for m in pkgutil.iter_modules(cctsens.__path__, "cctsens.")]


def test_every_module_is_found():
    assert "cctsens.boundary" in _MODULES


@pytest.mark.parametrize("name", _MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ lists {missing}"
