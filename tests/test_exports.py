"""Every exported name resolves: the package's __all__ and each submodule's."""
from __future__ import annotations

import importlib
import pkgutil

import pytest

import idbal

SUBMODULES = sorted(info.name for info in pkgutil.iter_modules(idbal.__path__))


def test_package_exports_resolve():
    missing = [name for name in idbal.__all__ if not hasattr(idbal, name)]
    assert missing == []


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodule_exports_resolve(name):
    module = importlib.import_module(f"idbal.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []
