"""Static checks on the package source that need no linter installed."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "uuvsim"
# `__init__.py` imports to re-export: its imports are the package's interface.
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by a module's top-level imports that the module never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in read]


def test_the_check_flags_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import math\nimport os.path\nfrom dataclasses import dataclass, replace\n"
              "@dataclass\nclass A:\n    x: float = math.pi\n")
    assert unused_imports(source) == ["line 3: os", "line 4: replace"]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_top_level_import(module):
    assert unused_imports((SRC / module).read_text()) == []
