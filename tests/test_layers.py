"""The package's modules form layers: every import sits at module level, the
relative imports between modules (``__init__`` aside) have no cycle, and
every name ``linalg`` exports is used in the package."""

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


# exported for the benchmark's tracer, which wraps it, while nothing in the
# package calls it
UNCALLED_EXPORTS = {"kernel_dim"}


def test_every_linalg_export_is_used_in_the_package():
    trees = module_trees()
    used = set()
    for name, tree in trees.items():
        for stmt in tree.body:
            nodes = list(ast.walk(stmt))
            names = {node.id for node in nodes
                     if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            names |= {node.attr for node in nodes if isinstance(node, ast.Attribute)}
            # a definition's uses of itself, recursion say, give it no caller
            if name == "linalg" and isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                names.discard(stmt.name)
            used |= names
    [exports] = [ast.literal_eval(stmt.value) for stmt in trees["linalg"].body
                 if isinstance(stmt, ast.Assign)
                 and [getattr(t, "id", None) for t in stmt.targets] == ["__all__"]]
    assert set(exports) - used - UNCALLED_EXPORTS == set()
