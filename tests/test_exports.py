"""The package's export lists agree with what its modules define."""

import importlib
import inspect
import pkgutil

import pytest

import tribefs as t

MODULES = sorted(info.name for info in pkgutil.iter_modules(t.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_exist_and_are_reexported(name):
    module = importlib.import_module(f"tribefs.{name}")
    for export in getattr(module, "__all__", ()):
        assert hasattr(module, export), f"tribefs.{name}.__all__ lists missing {export!r}"
        assert getattr(t, export, None) is getattr(module, export), (
            f"tribefs does not re-export tribefs.{name}.{export}"
        )


def test_package_exports_nothing_beyond_the_modules_all():
    declared = set().union(*(
        getattr(importlib.import_module(f"tribefs.{name}"), "__all__", ())
        for name in MODULES
    ))
    exported = {
        name for name, value in vars(t).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert exported == declared
