"""The benchmark's workloads still find every library name they use.

perfbench/ is kept fixed between benchmark runs, so a library change that
drops or renames something it calls fails here first, not in the benchmark.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import hulldial as hd
from hulldial.cli import build_parser
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


def _cli_argvs(tree: ast.AST, commands: set[str]) -> list[list[str]]:
    """Every list literal that starts with a subcommand name; names stand for "1"."""
    return [
        [elt.value if isinstance(elt, ast.Constant) else "1" for elt in node.elts]
        for node in ast.walk(tree)
        if isinstance(node, ast.List)
        and node.elts
        and isinstance(node.elts[0], ast.Constant)
        and node.elts[0].value in commands
    ]


def test_workload_command_lines_parse():
    # a flag dropped from the CLI would otherwise fail only in the benchmark
    commands = {"construct", "dial", "eaqec", "table", "verify", "distance", "hull"}
    argvs = _cli_argvs(ast.parse(WORKLOADS.read_text()), commands)
    assert {"construct", "table"} <= {argv[0] for argv in argvs}
    for argv in argvs:
        assert build_parser().parse_args(argv).command == argv[0], argv


TRACER = WORKLOADS.parent / "tracer.py"

#: Traced names that are gone on purpose: hulls now come from one Gram
#: matrix, not from intersecting two row spaces.
RETIRED = {("matrix", "intersect_row_spaces")}

#: Traced Field methods that are gone on purpose: the library never called
#: the scalar add, mul and neg, whose array twins do all its element sums.
RETIRED_METHODS = {"add", "mul", "neg"}


def test_traced_layers_resolve_on_hulldial():
    # a traced name that no longer resolves would read 0 in its layer row
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    traced = {(module, attr) for _, module, attr, _ in tracer.FUNCTIONS}
    assert ("dial", "arrange_p1_nonsingular") in traced
    missing = {
        (module, attr)
        for module, attr in traced
        if not hasattr(importlib.import_module(f"hulldial.{module}"), attr)
    }
    assert missing == RETIRED
    methods = {attr for _, attr, _ in tracer.FIELD_METHODS}
    assert {m for m in methods if not hasattr(hd.Field, m)} == RETIRED_METHODS
