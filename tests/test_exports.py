"""The package's export lists agree with what its modules define."""

import importlib
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
