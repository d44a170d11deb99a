"""The package's modules form layers: every import sits at module level, and
the relative imports between modules (``__init__`` aside) have no cycle."""

import ast
import graphlib
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "phinlab"


def module_trees():
    trees = {path.stem: ast.parse(path.read_text(), str(path))
             for path in sorted(SRC.glob("*.py")) if path.stem != "__init__"}
    assert "linalg" in trees and "modules" in trees, SRC
    return trees


def test_no_import_inside_a_function():
    nested = []
    for name, tree in module_trees().items():
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                nested += [f"{name}.py:{node.lineno}" for node in ast.walk(func)
                           if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert nested == []


def test_relative_imports_form_no_cycle():
    trees = module_trees()
    graph = {name: {node.module.split(".")[0] for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module}
             for name, tree in trees.items()}
    assert all(target in trees for targets in graph.values() for target in targets), graph
    # raises CycleError naming the modules of a cycle
    graphlib.TopologicalSorter(graph).prepare()
