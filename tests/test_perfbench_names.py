"""The benchmark uses the program's functions and types; they must keep the shape it expects."""

import ast
import importlib
import subprocess
import sys
from pathlib import Path

import numpy as np

import uuvsim.local_planner as lp
from tests.test_local_planner import SPL, _batch_case

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


def test_evaluator_passes_point_rows_to_traced_field_and_collision_calls(monkeypatch):
    """The tracer counts `shape[0]` of the first argument as points: it must be (n, 2) for
    `current_grid` and (n, 3) for `points_in_collision`, n the points evaluated."""
    import numpy as np

    import uuvsim.local_planner as lp
    from tests.test_local_planner import SPL, _batch_case

    calls = []

    def recording(real, width):
        def wrapped(points, *args, **kwargs):
            out = real(points, *args, **kwargs)
            calls.append((width, np.shape(points), len(out)))
            return out
        return wrapped

    monkeypatch.setattr(lp, "current_grid", recording(lp.current_grid, 2))
    monkeypatch.setattr(lp, "points_in_collision", recording(lp.points_in_collision, 3))
    p_i, p_j, w, env, mat = _batch_case(None, 16, "max")  # some rows cross the obstacle
    mat[12:] = mat[4:8]
    lp.evaluate_paths(mat, p_i, p_j, SPL, w, env)
    assert {width for width, _, _ in calls} == {2, 3}
    assert sum(width == 3 for width, _, _ in calls) == 2  # samples, then checkpoints
    assert all(shape == (n, width) for width, shape, n in calls), calls

    calls.clear()  # one row: each sample but the last in the field, each in collision
    lp.evaluate_paths(mat[:1], p_i, p_j, SPL, w, env)
    assert calls[:2] == [(2, (SPL.samples - 1, 2), SPL.samples - 1),
                         (3, (SPL.samples, 3), SPL.samples)]
