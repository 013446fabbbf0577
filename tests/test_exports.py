"""Every public name the package lists must exist."""

import ast
import importlib
import pkgutil

import rrlab


def test_every_listed_export_resolves():
    for info in pkgutil.iter_modules(rrlab.__path__):
        module = importlib.import_module(f"rrlab.{info.name}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"rrlab.{info.name}.{name}"
    # names re-exported by the package come from their module's __all__
    tree = ast.parse(open(rrlab.__file__, encoding="utf-8").read())
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            module = importlib.import_module(f"rrlab.{node.module}")
            for alias in node.names:
                assert hasattr(rrlab, alias.name), alias.name
                assert alias.name in module.__all__, \
                    f"rrlab.{node.module}.__all__ lacks {alias.name}"
