"""Every import in a package module is used: a syntax-tree scan standing in for a linter."""

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
