"""The benchmark's tracer wraps program functions by name; every name must resolve."""

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def traced_names() -> list[tuple[str, str, str]]:
    """`_TRACED` read from perfbench/tracing.py as data, without running the file."""
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "_TRACED"
                                                for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracing.py defines no _TRACED")


def resolve(dotted: str):
    """Import the longest importable prefix of `dotted`, then walk attributes."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for name in parts[cut:]:
            obj = getattr(obj, name)
        return obj
    raise ModuleNotFoundError(dotted)


def test_every_traced_name_resolves():
    names = traced_names()
    assert names
    missing = [f"{owner}.{attr}" for owner, attr, _ in names
               if not callable(getattr(resolve(owner), attr, None))]
    assert missing == []
