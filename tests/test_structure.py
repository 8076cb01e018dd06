"""The package's layering, read from its source with `ast`: only graph.py
reads the interaction model's private M, and kernels.py, which evaluates
every kernel column, does not depend on graph.py. active_set.py evaluates
no kernel itself, so its window block and its per-example column both go
through `dense_kernel_vector`."""

import ast
import pathlib

import mtbudget
from mtbudget.graph import InteractionModel, TaskGraph, build_interaction_model

SRC = pathlib.Path(mtbudget.__file__).parent


def modules():
    return {p.name: ast.parse(p.read_text(encoding="utf-8"), str(p))
            for p in sorted(SRC.glob("*.py"))}


def test_only_graph_reads_the_interaction_matrix():
    private = {name for name in vars(build_interaction_model(TaskGraph.complete(2)))
               if name.startswith("_")}
    assert private      # M is held under a private name
    readers = sorted({(module, node.lineno)
                      for module, tree in modules().items() if module != "graph.py"
                      for node in ast.walk(tree)
                      if isinstance(node, ast.Attribute)
                      and node.attr in private | {"inverse"}})
    assert readers == []


def test_model_is_read_through_its_accessors():
    """Outside graph.py, an interaction model is read only through the
    public accessors, the window block's `couplings` among them."""
    accessors = {name for name in vars(build_interaction_model(TaskGraph.complete(2)))
                 if not name.startswith("_")}
    accessors |= {name for name in vars(InteractionModel) if not name.startswith("_")}
    assert "couplings" in accessors
    used = {(module, node.attr)
            for module, tree in modules().items() if module != "graph.py"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Attribute)
            and node.value.attr == "model"}
    assert {attr for _, attr in used} <= accessors
    assert ("active_set.py", "couplings") in used


def test_active_set_evaluates_no_kernel():
    """No `exp` call and no `**` in active_set.py: every kernel value
    there comes from `dense_kernel_vector`."""
    tree = modules()["active_set.py"]
    powers = [node.lineno for node in ast.walk(tree)
              if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Pow)]
    exps = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call)
            and getattr(node.func, "attr", getattr(node.func, "id", None)) == "exp"]
    assert powers == [] and exps == []
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
             and getattr(node.func, "id", None) == "dense_kernel_vector"]
    assert len(calls) == 2      # the per-example column and the window block


def test_kernels_does_not_import_graph():
    imported = set()
    for node in ast.walk(modules()["kernels.py"]):
        if isinstance(node, ast.ImportFrom):
            base = "." * node.level + (node.module or "")
            sep = "." if node.module else ""
            imported.add(base)
            imported.update(base + sep + alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    assert not {".graph", "mtbudget.graph"} & imported
