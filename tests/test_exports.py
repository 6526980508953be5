"""Every exported name resolves: a stale entry in an __all__ would otherwise
fail only at `from fedincentives import *`."""
import importlib
import pkgutil

import pytest

import fedincentives

MODULES = ["fedincentives"] + [
    f"fedincentives.{info.name}" for info in pkgutil.iter_modules(fedincentives.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_resolve(name):
    module = importlib.import_module(name)
    assert module.__all__, f"{name} exports nothing"
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names {missing}"


def test_star_import_resolves():
    namespace: dict = {}
    exec("from fedincentives import *", namespace)
    assert set(fedincentives.__all__) <= set(namespace)
