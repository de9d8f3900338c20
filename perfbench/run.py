"""Benchmark of the isecode package: one workload, one seed, one result line.

    python3 perfbench/run.py --workload search|construct-correlate --seed N
                             --seconds S --trace 0|1 [--results DIR]

Run it from anywhere; it benchmarks the package in the `src` directory beside
`perfbench`.  Each pass of the workload's fixed job list runs in a fresh
single-threaded interpreter, one after another.  Untraced runs first make
five interpreter starts that only set up, for more setup_s samples.  A run
starts another pass while the time spent so far plus half the median pass
time is within S seconds, and makes at least two passes, so it measures for
about S seconds whatever the speed of the host or the program.

With --trace 0 the last stdout line carries the end-to-end metrics named in
BENCHMARK.json: setup_s (interpreter start to first job: imports and input
generation, median over process starts), wall_s (the job list's summed
package-call time, each job at its best over the run's passes; output checks
are not timed) and peak_rss_mb (median high-water RSS of a pass).
Best-of-passes is timeit's rule: the host is shared, and a slower repeat of
the same job measures other load on the host, not the program.  Failures are
reported as `failed` of `attempted` jobs; a job fails if it raises, a CLI
call exits non-zero, a search is not proved, or an output check fails.

Two per-job timings are printed and recorded beside them, but no bound gates
them: job_ms_p50 (the median of the best job times) and job_ms_tail (the 11th
largest job time of all jobs of all passes, the highest percentile with ten
samples beyond it).  Search has ten jobs, so each is set by one or two
sub-second jobs, and on a shared 2-vCPU host both spread more than wall_s
between runs of the same code (13-36% against 8-28% in ten-run sets of 40 s
runs).

With --trace 1 every second pass is traced and the line carries the
per-layer metrics (medians over traced passes) and trace.overhead_s, the
traced minus the untraced wall_s.  Spans go to
DIR/trace-<workload>-seed<N>.jsonl.

Every run appends a record with the metrics, sample counts, every job time of
every pass and the environment to DIR/<workload>.jsonl (DIR defaults to
perfbench/results); compare.py reads it.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter, defaultdict
from datetime import datetime, timezone
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_ONLY_STARTS = 5
DEADLINE_S = 170
CHILD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
MIN_PASSES = 2
# Reported beside the end-to-end metrics, without a bound (see above).
UNGATED = ("job_ms_p50", "job_ms_tail")


class BenchError(RuntimeError):
    pass


def _spawn(
    workload: str, seed: int, traced: bool, tmp: str, index: int, deadline: float, setup_only: bool
) -> dict:
    out = os.path.join(tmp, f"pass{index}.json")
    argv = [sys.executable, str(HERE / "worker.py"), workload, str(seed), str(int(traced)), out]
    if setup_only:
        argv.append("--setup-only")
    started = time.monotonic()
    try:
        proc = subprocess.run(
            argv, env={**os.environ, **CHILD_ENV}, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, timeout=max(1.0, deadline - started),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"pass {index} of {workload} did not finish in time") from exc
    if proc.returncode != 0:
        tail = proc.stderr.strip()[-2000:]
        raise BenchError(f"pass {index} of {workload} exited {proc.returncode}: {tail}")
    with open(out) as fh:
        result = json.load(fh)
    os.remove(out)
    result["setup_s"] = result["ready"] - started
    result["traced"] = traced
    return result


def _covered(intervals: list[tuple[float, float]]) -> float:
    total, reach = 0.0, -math.inf
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def _best_wall(results: list[dict]) -> tuple[float, list[float]]:
    """Summed best time over the passes of each job, and those best times in seconds.

    Every pass of a run runs the same job list in the same order.
    """
    names = [job["name"] for job in results[0]["jobs"]]
    if any([job["name"] for job in r["jobs"]] != names for r in results):
        raise BenchError("passes of one run ran different job lists")
    best = [min(times) for times in zip(*([job["s"] for job in r["jobs"]] for r in results))]
    return sum(best), best


def _layer_metrics(result: dict) -> dict[str, float]:
    """Per-layer metrics of one traced pass: span totals, layer self times, counters, ratios."""
    spans = result["spans"]
    children = defaultdict(list)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    m: Counter = Counter()
    for i, (name, start, end, _, _) in enumerate(spans):
        m[name + ".s"] += end - start
        m[name + ".calls"] += 1
        m[name.split(".")[0] + ".self_s"] += (end - start) - _covered(children[i])
    m.update(result["counters"])
    m["search.branch.s"] = m["search.max_family.s"] - m["search.build_compat_graph.s"]
    if m["search.max_family.s"]:
        m["search.nodes_per_s"] = m["search.nodes"] / m["search.max_family.s"]
    if m["search.max_family.calls"]:
        m["search.proved_frac"] = m["search.proved"] / m["search.max_family.calls"]
    trials = m["correlation.random_correlation_trials.trials"]
    if trials:
        m["correlation.random_correlation_trials.informative_frac"] = (
            m["correlation.random_correlation_trials.informative"] / trials
        )
    return m


def _end_to_end(untraced: list[dict], setups: list[float]) -> tuple[dict[str, float], dict]:
    wall, best = _best_wall(untraced)
    job_ms = sorted(1000 * job["s"] for r in untraced for job in r["jobs"])
    beyond = min(10, len(job_ms) - 1)
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "job_ms_p50": 1000 * statistics.median(best),
        "job_ms_tail": job_ms[-1 - beyond],
        "peak_rss_mb": statistics.median(r["maxrss_mb"] for r in untraced),
    }
    samples = {
        "setup_s": len(setups),
        "wall_s": len(untraced),
        "job_ms_p50": len(best),
        "job_ms": len(job_ms),
        "job_ms_tail_percentile": 100 * (len(job_ms) - beyond) / len(job_ms),
        "peak_rss_mb": len(untraced),
    }
    return metrics, samples


def _git_sha() -> str:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _environment(seed: int) -> dict:
    import numpy

    src = ROOT / "src" / "isecode"
    return {
        "seed": seed,
        "git_sha": _git_sha(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "src_loc": sum(len(p.read_text().splitlines()) for p in sorted(src.glob("*.py"))),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("construct-correlate", "search"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results", type=Path, default=HERE / "results")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "isecode" / "__init__.py").is_file():
        print(f"no isecode sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    # On SIGTERM, unwind as on any error: subprocess.run kills and reaps the
    # running pass, and the temporary directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    began = time.monotonic()
    deadline = began + DEADLINE_S

    with tempfile.TemporaryDirectory(prefix=".tmp-", dir=HERE) as tmp:
        try:
            setups = []
            if not args.trace:
                for i in range(SETUP_ONLY_STARTS):
                    start = _spawn(args.workload, args.seed, False, tmp, i, deadline, True)
                    setups.append(start["setup_s"])
            results, pass_s = [], []
            while True:
                # Traced runs alternate untraced and traced passes and end on a traced one.
                trace_pass = bool(args.trace) and len(results) % 2 == 1
                started = time.monotonic()
                index = SETUP_ONLY_STARTS + len(results)
                results.append(_spawn(args.workload, args.seed, trace_pass, tmp, index, deadline, False))
                pass_s.append(time.monotonic() - started)
                spent = time.monotonic() - began
                if (
                    len(results) >= MIN_PASSES
                    and trace_pass == bool(args.trace)
                    and spent + statistics.median(pass_s) / 2 > args.seconds
                ):
                    break
        except BenchError as exc:
            print(f"benchmark failed: {exc}", file=sys.stderr)
            return 1

    untraced = [r for r in results if not r["traced"]]
    traced = [r for r in results if r["traced"]]
    errors = [e for r in results for job in r["jobs"] for e in job["errors"]]
    attempted = sum(len(r["jobs"]) for r in results)
    failed = sum(1 for r in results for job in r["jobs"] if job["errors"])
    if args.trace:
        wanted = spec["per_layer"]
        per_pass = [_layer_metrics(r) for r in traced]
        values = {m["name"]: statistics.median(p[m["name"]] for p in per_pass) for m in wanted}
        values["trace.overhead_s"] = _best_wall(traced)[0] - _best_wall(untraced)[0]
        samples = {"traced_passes": len(traced), "untraced_passes": len(untraced)}
    else:
        wanted = spec["end_to_end"]
        values, samples = _end_to_end(untraced, setups + [r["setup_s"] for r in results])
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    ungated = {} if args.trace else {name: {"value": values[name], "unit": "ms"} for name in UNGATED}

    env = _environment(args.seed)
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "time": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        **env,
        "passes": len(results),
        "job_s": [[round(job["s"], 6) for job in r["jobs"]] for r in results],
        "samples": samples,
        "attempted": attempted,
        "failed": failed,
        "fail_frac": failed / attempted,
        "errors": errors[:20],
        "metrics": metrics,
        "ungated": ungated,
    }
    args.results.mkdir(parents=True, exist_ok=True)
    with open(args.results / f"{args.workload}.jsonl", "a") as fh:
        fh.write(json.dumps(record) + "\n")
    if args.trace:
        with open(args.results / f"trace-{args.workload}-seed{args.seed}.jsonl", "w") as fh:
            for p, r in enumerate(traced):
                for name, start, end, parent, job in r["spans"]:
                    span = {"pass": p, "job": job, "name": name, "start": start, "end": end, "parent": parent}
                    fh.write(json.dumps(span) + "\n")

    print(" ".join(f"{k}={v}" for k, v in {**env, "workload": args.workload, "trace": args.trace}.items()))
    for name, m in metrics.items():
        print(f"  {name:<58} {m['value']:>14.6g} {m['unit']}")
    for name, m in ungated.items():
        print(f"  {name:<58} {m['value']:>14.6g} {m['unit']} (not gated)")
    print(f"  {'fail_frac':<58} {failed / attempted:>14.6g} ({failed} of {attempted} jobs)")
    print(f"  samples: {json.dumps(samples)}")
    for e in errors[:20]:
        print(f"  FAILED {e}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
