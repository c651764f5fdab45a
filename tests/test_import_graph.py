"""The package's modules import one another without a cycle."""

import ast
import subprocess
import sys
from pathlib import Path

import hypermap

PACKAGE = Path(hypermap.__file__).resolve().parent


def internal_imports(path: Path) -> set[str]:
    """Every module of the package that ``path`` imports, at any depth of its
    syntax tree (function-level imports included)."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                names.add(node.module.split(".")[0])
            else:  # from . import a, b
                names |= {alias.name for alias in node.names}
    return {name for name in names if (PACKAGE / f"{name}.py").exists()}


def test_package_imports_are_acyclic():
    graph = {path.stem: internal_imports(path) for path in PACKAGE.glob("*.py")}
    assert graph["coordinates"] and graph["cli"]  # the walk sees the imports
    # The oracle reads nothing of the fields and leaves that it checks.
    assert graph["oracle"] == {"stdmap"}
    done: set[str] = set()

    def visit(node: str, path: list[str]) -> None:
        assert node not in path, f"import cycle: {' -> '.join(path[path.index(node):] + [node])}"
        if node in done:
            return
        for dep in sorted(graph.get(node, ())):
            visit(dep, path + [node])
        done.add(node)

    for module in sorted(graph):
        visit(module, [])


def test_cli_import_leaves_numfmt_unloaded():
    # ``numfmt`` builds its tables at import, so only commands that write
    # tables load it; importing the CLI must not.
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import hypermap, hypermap.cli; "
            "sys.exit('hypermap.numfmt' in sys.modules)")
    assert subprocess.run([sys.executable, "-c", code, str(PACKAGE.parent)]).returncode == 0
