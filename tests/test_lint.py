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


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """Top-level `_private` functions, classes and constants that no module reads.

    `sources` maps each module's file name to its text.  A name is read where
    its own module loads it, where a module imports it from its module, and
    wherever any attribute of that name is read.
    """
    defined, read, attributes = {}, set(), set()
    for module, source in sources.items():
        stem = module.removesuffix(".py")
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for target in targets for t in ast.walk(target)
                         if isinstance(t, ast.Name)]
            else:
                continue
            for name in names:
                if name.startswith("_") and not name.startswith("__"):
                    defined[(stem, name)] = f"{module} line {node.lineno}: {name}"
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add((stem, node.id))
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and node.module:
                read.update((node.module.rpartition(".")[2], alias.name) for alias in node.names)
    return [where for (stem, name), where in defined.items()
            if (stem, name) not in read and name not in attributes]


def test_the_check_flags_an_unread_private_name():
    sources = {"a.py": ("_A = 1\n_B, C = 2, 3\n_D: int = 4\n"
                        "def _f():\n    return _A\nclass _K:\n    pass\n"),
               "b.py": "from .a import _K\nfrom . import a\n_g = a._D\n_B = 5\nprint(_B)\n"}
    assert unread_private_names(sources) == ["a.py line 2: _B", "a.py line 4: _f",
                                             "b.py line 3: _g"]


def test_no_unread_top_level_private_name():
    sources = {p.name: p.read_text() for p in SRC.glob("*.py")}
    assert unread_private_names(sources) == []
