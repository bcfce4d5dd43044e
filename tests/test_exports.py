"""Every exported name resolves: the package's __all__ and each submodule's, and a bare
import loads the library submodules and nothing else of the package."""
from __future__ import annotations

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
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
    # the package root re-exports no names: only the library submodules
    assert sorted(imported) == sorted(set(SUBMODULES) - {"cli"})
    assert sorted(set(imported) - set(idbal.__all__)) == []


def test_bare_import_loads_the_library_submodules():
    # a fresh interpreter: the test session has imported idbal.cli already
    code = "import sys, idbal; print(' '.join(sorted(m for m in sys.modules if m.startswith('idbal'))))"
    env = dict(os.environ, PYTHONPATH=str(Path(idbal.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout
    library = ["data", "estimators", "harness", "hypotheses", "learners", "oracle", "policies", "rng"]
    assert out.split() == ["idbal"] + [f"idbal.{name}" for name in library]


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodule_exports_resolve(name):
    module = importlib.import_module(f"idbal.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []
