"""Every import in a package module is used, and every private module-level
name is read: syntax-tree scans standing in for a linter."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "fplab"


def unused_imports(source: str) -> list:
    """Names a module imports but never reads, by a scan of its syntax tree."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = (name for name in imported if name not in read)
    return sorted(f"{name} (line {imported[name]})" for name in unused)


def test_scan_finds_an_unused_import():
    source = "import os\nfrom typing import Callable, Optional\n\nx: Optional[str] = os.sep\n"
    assert unused_imports(source) == ["Callable (line 2)"]


# __init__ imports only to re-export, which its __all__ does from dir()
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_package_module_has_no_unused_import(path):
    assert unused_imports(path.read_text()) == []


def orphaned_private_names(sources: dict) -> list:
    """Module-level private names (_x, not dunder) of the modules in sources
    (file name to text) that no module reads, by name or as an attribute."""
    defined, read = [], set()
    for file, source in sorted(sources.items()):
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                names = []
            defined += [(file, name) for name in names if name.startswith("_")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return [
        f"{file}: {name}"
        for file, name in defined
        if not (name.startswith("__") and name.endswith("__")) and name not in read
    ]


def test_scan_finds_an_orphaned_private_name():
    sources = {
        "a.py": "_used = 1\n_orphan, _also_used = 2, 3\n__version__ = '0'\n\ndef _f():\n    pass\n",
        "b.py": "from a import _used\nimport a\n\nx = _used + a._also_used\n",
    }
    assert orphaned_private_names(sources) == ["a.py: _orphan", "a.py: _f"]


def test_package_has_no_orphaned_private_name():
    sources = {p.name: p.read_text() for p in SRC.glob("*.py")}
    assert orphaned_private_names(sources) == []
