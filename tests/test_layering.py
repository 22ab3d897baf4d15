import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "spinorlab"
MODULES = sorted(SRC.glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_import_inside_a_function(path):
    # every dependency is stated at module top, where a reader and an
    # import-order cycle both show
    inner = [f"{fn.name}:{node.lineno}"
             for fn in ast.walk(_tree(path))
             if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
             for node in ast.walk(fn)
             if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert inner == []


def _package_imports(path):
    """The sibling modules that ``path`` imports at module level."""
    out = set()
    for node in _tree(path).body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            out |= ({node.module} if node.module
                    else {a.name for a in node.names})
    return out


def test_the_package_import_graph_is_acyclic():
    graph = {p.stem: _package_imports(p) for p in MODULES}
    done, path = set(), []

    def visit(name):
        assert name not in path, " -> ".join(path + [name])
        if name in done:
            return
        path.append(name)
        for dep in sorted(graph[name]):
            visit(dep)
        path.pop()
        done.add(name)

    for name in sorted(graph):
        visit(name)
    assert "symmetry" not in graph["equations"]
