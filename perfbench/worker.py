"""One pass of a workload in a fresh interpreter; started by run.py, not by hand.

    python3 perfbench/worker.py WORKLOAD SEED TRACE OUT [--setup-only]

Imports the package from the checkout's `src`, builds the workload's inputs
from SEED, stamps the monotonic clock (the end of set-up), runs every job,
and writes a JSON result to OUT.  With TRACE=1 each call into the package is
kept as a span (name, start, end, parent, job) in memory and written with the
result; tracemalloc runs only around the `constructions` spans.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import tracemalloc
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


class Recorder:
    """Times package calls, counts work, collects check failures and (when traced) spans."""

    def __init__(self, traced: bool):
        self.traced = traced
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.counters: Counter = Counter()
        self.jobs: list[dict] = []
        self._job: dict = {}
        self._parent = -1

    def run_job(self, name: str, fn) -> None:
        self._job = {"name": name, "s": 0.0, "errors": []}
        job_id = len(self.jobs)
        self.jobs.append(self._job)
        self._parent = len(self.spans)
        if self.traced:
            self.spans.append(("bench.job", 0.0, 0.0, -1, job_id))
        start = time.perf_counter()
        try:
            fn(self)
        except Exception as exc:  # a raising job is a failed operation; keep going
            self._job["errors"].append(f"{name}: {type(exc).__name__}: {exc}")
        if self.traced:
            self.spans[self._parent] = ("bench.job", start, time.perf_counter(), -1, job_id)

    def call(self, name: str, fn, *args, **kwargs):
        watch_memory = self.traced and name.startswith("constructions.")
        if watch_memory:
            tracemalloc.start()
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._job["s"] += end - start
            if self.traced:
                self.spans.append((name, start, end, self._parent, len(self.jobs) - 1))
            if watch_memory:
                peak = tracemalloc.get_traced_memory()[1] / 2**20
                tracemalloc.stop()
                key = name + ".peak_mb"
                self.counters[key] = max(self.counters[key], peak)

    def count(self, name: str, value) -> None:
        self.counters[name] += value

    def io(self, path: str) -> None:
        self.counters["families.io_bytes"] += os.path.getsize(path)

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self._job["errors"].append(f"{self._job['name']}: {message}")


def main() -> int:
    workload, seed, trace, out = sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1", sys.argv[4]
    import isecode
    import workloads

    if Path(isecode.__file__).resolve().parent != ROOT / "src" / "isecode":
        print(f"isecode imported from {isecode.__file__}, not from this checkout", file=sys.stderr)
        return 2
    build = workloads.WORKLOADS[workload]
    tmp = os.path.dirname(out)
    jobs = build(seed, tmp)
    ready = time.monotonic()
    result: dict = {"ready": ready}
    if "--setup-only" not in sys.argv[5:]:
        rec = Recorder(trace)
        for name, fn in jobs:
            rec.run_job(name, fn)
        result.update(
            jobs=rec.jobs,
            spans=rec.spans,
            counters=dict(rec.counters),
            maxrss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        )
    with open(out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
