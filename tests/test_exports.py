"""Package exports: every exported name exists, and the package re-exports only those."""

import ast
import importlib
from pathlib import Path

import pytest

import oodlab

PACKAGE_DIR = Path(oodlab.__file__).parent
MODULES = sorted(p.stem for p in PACKAGE_DIR.glob("*.py") if p.stem != "__init__")


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(f"oodlab.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_package_imports_only_exported_names():
    tree = ast.parse((PACKAGE_DIR / "__init__.py").read_text(encoding="utf-8"))
    imported = [(node.module, alias.name) for node in tree.body
                if isinstance(node, ast.ImportFrom) and node.level == 1
                for alias in node.names]
    assert imported
    assert [(module, name) for module, name in imported
            if name not in importlib.import_module(f"oodlab.{module}").__all__] == []
