"""Every exported name resolves: the package's __all__ and each submodule's."""
from __future__ import annotations

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import idbal

SUBMODULES = sorted(info.name for info in pkgutil.iter_modules(idbal.__path__))


def test_package_exports_resolve():
    missing = [name for name in idbal.__all__ if not hasattr(idbal, name)]
    assert missing == []


def test_package_exports_every_name_it_imports():
    tree = ast.parse(Path(idbal.__file__).read_text(encoding="utf-8"))
    imported = [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]
    assert len(imported) > 50
    assert sorted(set(imported) - set(idbal.__all__)) == []


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodule_exports_resolve(name):
    module = importlib.import_module(f"idbal.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []
