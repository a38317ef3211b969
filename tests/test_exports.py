import ast
import importlib
import os

import pytest

import heatlab


@pytest.mark.parametrize("module", ["measures", "spectral", "bounds"])
def test_every_exported_name_resolves(module):
    # bench/tracer.py looks each name of __all__ up in the module's namespace
    mod = importlib.import_module(f"heatlab.{module}")
    missing = [name for name in mod.__all__ if name not in vars(mod)]
    assert not missing, missing


def test_every_package_import_resolves():
    path = os.path.join(os.path.dirname(heatlab.__file__), "__init__.py")
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        mod = importlib.import_module(f"heatlab.{node.module}")
        for alias in node.names:
            assert hasattr(mod, alias.name), (node.module, alias.name)
            assert getattr(heatlab, alias.asname or alias.name) is getattr(mod, alias.name)
