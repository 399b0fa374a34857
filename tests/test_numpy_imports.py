"""Where the package imports numpy, read from the source: numpy loads only
with the modules that compute in it, so commands that never need it start
without it."""

import ast
from pathlib import Path

import chemtext

_SRC = Path(chemtext.__file__).parent


def _numpy_imports(tree):
    """Where ``tree`` imports numpy: a set of "module" (run on import),
    "function" (run when a function is called) and "type_checking" (under
    ``if TYPE_CHECKING:``, never run)."""
    found = set()

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            where = "function"
        elif isinstance(node, ast.Import):
            if any(alias.name.split(".")[0] == "numpy" for alias in node.names):
                found.add(where)
        elif isinstance(node, ast.ImportFrom):
            if (node.module or "").split(".")[0] == "numpy" and not node.level:
                found.add(where)
        elif (
            isinstance(node, ast.If)
            and where == "module"
            and isinstance(node.test, ast.Name)
            and node.test.id == "TYPE_CHECKING"
        ):
            for child in node.body:
                visit(child, "type_checking")
            for child in node.orelse:
                visit(child, where)
            return
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(tree, "module")
    return found


def _package_imports():
    return {
        path.relative_to(_SRC).as_posix(): kinds
        for path in sorted(_SRC.rglob("*.py"))
        if (kinds := _numpy_imports(ast.parse(path.read_text(encoding="utf-8"))))
    }


def test_numpy_is_imported_at_module_level_only_by_its_kernels():
    imports = _package_imports()
    assert {name for name, kinds in imports.items() if "module" in kinds} == {
        "fingerprints/chunk.py",
        "merge.py",
    }
    # each imports numpy inside the functions that compute with it, and for
    # its annotations
    for name in ("harness.py", "cli.py"):
        assert imports[name] == {"function", "type_checking"}, name
    # the fingerprint routing scores small batches in Python, and hands larger
    # ones to the chunk kernels without touching numpy itself
    assert "fingerprints/__init__.py" not in imports

