"""uuvsim benchmark: one workload per run, checked, with end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload paper_mission --seed 1 --seconds 20 --trace 0

Run from the repository root. The program is imported from ./src. The world
is built until SETUP_SECONDS are spent, at least SETUP_MIN times, and set-up
time is the median build. Then whole rounds of the workload's requests run
while at least three quarters of a round's time is left (at least one round).
Every request's output is checked against computations made apart from the
program (checks.py), outside the timed part.

--trace 0 prints the end-to-end metrics. --trace 1 runs one set-up plus one
round traced; it prints the per-layer metrics and writes the spans to
perfbench/_work/trace-<workload>.csv.
The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"
SETUP_SECONDS = 2.0
SETUP_MIN = 3


def release_free_memory():
    """Collect garbage and hand the allocator's free heap pages back.

    Where set-up leaves the top of the C heap depends on allocation order, and
    so on address-space layout: without this, identical processes sat 14 MB
    apart after the same set-up."""
    gc.collect()
    try:
        ctypes.CDLL(None).malloc_trim(0)
    except (OSError, AttributeError):  # not glibc
        pass


class RequestMemory:
    """Peak resident memory while requests run.

    A thread reads /proc/self/statm every few milliseconds while `active`, and
    each request ends with one more reading. So neither set-up's peak (k-means
    over the map) nor the benchmark's own input making and checks count. The
    largest worker process waited for (the mc_batch pool; set-up starts none)
    is added: its peak includes the pages it shares with this process, so the
    sum is an upper bound."""

    def __init__(self, interval: float = 0.005):
        self.interval = interval
        self.page = os.sysconf("SC_PAGE_SIZE")
        self.peak = 0
        self.active = False
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def sample(self):
        with open("/proc/self/statm") as f:
            self.peak = max(self.peak, int(f.read().split()[1]) * self.page)

    def _sample(self):
        while not self._stop.wait(self.interval):
            if self.active:
                self.sample()

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def peak_mb(self) -> float:
        worker = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss * 1024
        return (self.peak + worker) / 2**20


class Runner:
    """Runs a workload's rounds, timing each request and checking its output."""

    def __init__(self, workload, seed: int, work_dir: Path, tracer=None):
        self.workload = workload
        self.seed = seed
        self.work_dir = work_dir
        self.tracer = tracer
        self.memory: RequestMemory | None = None  # set while the plain run's rounds run
        self.latencies: dict[str, list[float]] = {}
        self.reports: list = []
        self.attempted = 0
        self.failed = 0
        self.completed = 0      # operations in requests that returned
        self.errors: list[str] = []

    def _traced(self, fn):
        if self.tracer is not None:
            self.tracer.active = True
        try:
            return fn()
        finally:
            if self.tracer is not None:
                self.tracer.active = False

    def _request(self, fn):
        if self.memory is not None:
            self.memory.active = True
        try:
            return self._traced(fn)
        finally:
            if self.memory is not None:
                self.memory.sample()
                self.memory.active = False

    def setup(self) -> tuple[dict, float]:
        t0 = time.perf_counter()
        world = self._traced(self.workload.setup)
        return world, time.perf_counter() - t0

    def request_time(self) -> float:
        return sum(t for values in self.latencies.values() for t in values)

    def run_round(self, world: dict):
        import checks

        pending = self.workload.round(world, self.seed, self.work_dir)
        while pending:
            req = pending.pop(0)
            t0 = time.perf_counter()
            try:
                out = self._request(req.call)
            except Exception as exc:  # a request that raises is a failed operation
                self.attempted += 1
                self.failed += 1
                print(f"  {req.label}: failed with {type(exc).__name__}: {exc}")
                continue
            elapsed = time.perf_counter() - t0
            attempted, failed = req.operations(out)
            self.attempted += attempted
            self.failed += failed
            self.completed += attempted
            self.latencies.setdefault(req.kind, []).append(elapsed)
            self.reports.extend(req.reports(out))
            try:
                req.check(out)
            except checks.CheckError as exc:
                self.errors.append(f"{req.label}: {exc}")
            pending[:0] = req.then(out)


def run_plain(workload, seed: int, seconds: float, work_dir: Path):
    """End-to-end metrics. Throughput is operations over total request time:
    this machine's speed shifts by 20-30 % in phases of a few seconds, which
    moves a median of a handful of requests far more than a whole-run total."""
    runner = Runner(workload, seed, work_dir)
    setup_times = []
    while len(setup_times) < SETUP_MIN or sum(setup_times) < SETUP_SECONDS:
        world = None  # drop the previous world before building the next
        world, elapsed = runner.setup()
        setup_times.append(elapsed)
    release_free_memory()
    start = time.perf_counter()
    rounds = 0
    with RequestMemory() as runner.memory:
        while True:
            runner.run_round(world)
            rounds += 1
            spent = time.perf_counter() - start
            if seconds - spent < 0.75 * spent / rounds:  # another round would overrun
                break
    metrics = {"setup_s": (statistics.median(setup_times), "s"),
               "requests_per_min": (60.0 * runner.completed / runner.request_time(), "1/min"),
               "peak_rss_mb": (runner.memory.peak_mb(), "MB")}
    print(f"{workload.name} seed={seed}: {len(setup_times)} set-up(s), {rounds} round(s), "
          f"{runner.attempted} operation(s), "
          f"{runner.failed} failed, {time.perf_counter() - start:.1f} s measured")
    for kind, values in runner.latencies.items():
        print(f"  {kind:<22} {statistics.median(values):12.4f} s      (median, n={len(values)})")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<22} {value:12.4f} {unit}")
    return runner, metrics


def run_traced(workload, seed: int, work_dir: Path):
    import tracing
    from workloads import MC_JOBS

    tracer = tracing.Tracer()
    worker_dir = work_dir / "trace-workers"
    worker_dir.mkdir(parents=True, exist_ok=True)
    restore = tracing.install(tracer, worker_dir)
    try:
        runner = Runner(workload, seed, work_dir, tracer=tracer)
        world, setup = runner.setup()
        runner.run_round(world)
        traced = setup + runner.request_time()
    finally:
        restore()
    tracing.merge_worker_spans(tracer, worker_dir)
    shutil.rmtree(worker_dir)
    artifact_bytes = sum(p.stat().st_size for p in work_dir.rglob("*") if p.is_file())
    tracing.write_spans(tracer, WORK / f"trace-{workload.name}.csv")

    layers = tracing.layer_metrics(tracer.spans, runner.reports, artifact_bytes, MC_JOBS)
    overhead = tracing.span_cost() * len(tracer.spans)
    layers["trace.overhead_s"] = (overhead, "s")
    print(f"{workload.name} seed={seed}: traced {traced:.2f} s, {len(tracer.spans)} spans, "
          f"of which {overhead:.3f} s tracing")
    for name, (value, unit) in layers.items():
        print(f"  {name:<40} {value:14.6g} {unit}")
    return runner, layers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "uuvsim" / "__init__.py").is_file():
        sys.exit(f"error: {ROOT / 'src' / 'uuvsim'} not found; run from a uuvsim checkout")
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    work_dir = WORK / workload.name
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)

    if args.trace:
        runner, metrics = run_traced(workload, args.seed, work_dir)
    else:
        runner, metrics = run_plain(workload, args.seed, args.seconds, work_dir)
    for err in runner.errors:
        print(f"  check failed: {err}")
    result = {"correct": not runner.errors, "attempted": runner.attempted,
              "failed": runner.failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    (WORK / f"result-{workload.name}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1) + "\n")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
