"""The package's layering, read from its source with `ast`: only graph.py
reads the interaction model's private M, and kernels.py, which evaluates
every kernel column, does not depend on graph.py."""

import ast
import pathlib

import mtbudget
from mtbudget.graph import TaskGraph, build_interaction_model

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
