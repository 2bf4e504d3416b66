"""Every name a socialbench package exports in __all__ resolves."""

import importlib
import pkgutil

import pytest

import socialbench

PACKAGES = ["socialbench"] + [info.name for info in pkgutil.walk_packages(
    socialbench.__path__, "socialbench.") if info.ispkg]


@pytest.mark.parametrize("package", PACKAGES)
def test_every_exported_name_resolves(package):
    module = importlib.import_module(package)
    assert len(set(module.__all__)) == len(module.__all__), package
    assert [name for name in module.__all__ if not hasattr(module, name)] == []
