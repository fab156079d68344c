"""The benchmark uses the program's functions and types; they must keep the shape it expects."""

import ast
import importlib
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"


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


def test_benchmark_selftest_passes():
    """perfbench/selftest.py runs every benchmark check on real program output."""
    done = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
