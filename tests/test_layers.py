"""The package's modules form layers: every import sits at module level, the
relative imports between modules (``__init__`` aside) have no cycle, and
every name a module exports or assigns at module level is used in the
package."""

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


# exported names that nothing in the package calls, each for a reason
UNCALLED_EXPORTS = {
    # the benchmark's tracer wraps these
    "kernel_dim", "QExtScalar", "spherical_value",
    # the benchmark runner records which arithmetic backend ran
    "BACKEND",
    # library API, and the tracer wraps it
    "beta_value",
    # a Hecke route that enumerates Lambda_S will build on it (ROADMAP item 4)
    "materialize_representatives",
}


def test_every_linalg_export_is_used_in_the_package():
    """Every name in any module's ``__all__``, linalg's among them, is used
    by some module of the package."""
    trees = module_trees()
    used = set()
    for tree in trees.values():
        for stmt in tree.body:
            nodes = list(ast.walk(stmt))
            names = {node.id for node in nodes
                     if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            names |= {node.attr for node in nodes if isinstance(node, ast.Attribute)}
            # a definition's uses of itself, recursion say, give it no caller
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                names.discard(stmt.name)
            used |= names
    exports = set()
    for tree in trees.values():
        exports |= {name for stmt in tree.body if isinstance(stmt, ast.Assign)
                    and [getattr(t, "id", None) for t in stmt.targets] == ["__all__"]
                    for name in ast.literal_eval(stmt.value)}
    assert "kernel_dim" in exports and "consistency_check" in exports
    assert exports - used - UNCALLED_EXPORTS == set()


# module-level names that the package never reads, each for a reason
UNREAD_NAMES = {
    # the benchmark harness records it
    "DEFAULT_MAX_N",
}


def test_every_module_level_name_is_read_in_the_package():
    trees = module_trees()
    assigned = {target.id for tree in trees.values() for stmt in tree.body
                if isinstance(stmt, ast.Assign) for target in stmt.targets
                if isinstance(target, ast.Name)} - {"__all__"}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    assert "WORK_BUDGET" in assigned and "ZERO" in assigned
    assert assigned - read - UNCALLED_EXPORTS - UNREAD_NAMES == set()
