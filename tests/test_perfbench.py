"""The benchmark's workloads still find every library name they use.

perfbench/ is kept fixed between benchmark runs, so a library change that
drops or renames something it calls fails here first, not in the benchmark.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import hulldial as hd
from hulldial.field import make_quadratic_field

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def _attributes(tree: ast.AST, owner: str) -> set[str]:
    """Every name read as ``owner.<name>``."""
    return {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == owner
    }


def _resolves(module: str, name: str) -> bool:
    """Whether ``from module import name`` finds an attribute or a submodule."""
    if hasattr(importlib.import_module(module), name):
        return True
    return importlib.util.find_spec(f"{module}.{name}") is not None


def test_workloads_resolve_on_hulldial():
    tree = ast.parse(WORKLOADS.read_text())
    hd_names, field_names = _attributes(tree, "hd"), _attributes(tree, "field")
    assert "dial_hull" in hd_names and "pow" in field_names
    assert sorted(n for n in hd_names if not hasattr(hd, n)) == []
    field = make_quadratic_field(3)
    assert sorted(n for n in field_names if not hasattr(field, n)) == []
    imported = [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module.startswith("hulldial")
        for alias in node.names
    ]
    assert imported
    for module, name in imported:
        assert _resolves(module, name), (module, name)
