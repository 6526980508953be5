"""Every exported name resolves: a stale entry in an __all__ would otherwise
fail only at `from fedincentives import *`.  The package re-exports each
module's __all__ (cli's excepted), so each list must be complete and no two
may share a name."""
import importlib
import inspect
import pkgutil

import pytest

import fedincentives

MODULES = ["fedincentives"] + [
    f"fedincentives.{info.name}" for info in pkgutil.iter_modules(fedincentives.__path__)
]
LIBRARY = [name for name in MODULES[1:] if name != "fedincentives.cli"]


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


@pytest.mark.parametrize("name", LIBRARY)
def test_public_definitions_exported(name):
    module = importlib.import_module(name)
    defined = [
        attr
        for attr, obj in vars(module).items()
        if not attr.startswith("_")
        and (inspect.isfunction(obj) or inspect.isclass(obj))
        and obj.__module__ == name
    ]
    missing = [attr for attr in defined if attr not in module.__all__]
    assert not missing, f"{name} defines {missing} but leaves them out of __all__"


def test_package_exports_each_name_of_one_module():
    owners: dict = {}
    for name in LIBRARY:
        for attr in importlib.import_module(name).__all__:
            owners.setdefault(attr, []).append(name)
    shared = {attr: names for attr, names in owners.items() if len(names) > 1}
    assert not shared, f"exported by more than one module: {shared}"
    assert sorted(fedincentives.__all__) == sorted(owners)
