"""Summarise one set of benchmark runs, or compare two.

    python3 perfbench/compare.py DIR_A [DIR_B]

DIR holds the <workload>.jsonl records that run.py appends (perfbench/results
by default).  Untraced records only.  For each workload and end-to-end metric
the report prints the median and quartiles of each set and the spread (the
quartile distance over the median).  It flags a spread wider than the
metric's bound in BENCHMARK.json (setup_s is exempt, as its bound only gates
the median) and, given two sets, a median of B worse than A's by more than the
bound.  A spread under a third of the bound is marked steady.  Metrics a run
records as ungated (job_ms_p50, job_ms_tail) are summarised without flags.
Exit code 1 if anything is flagged.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
UNGATED = [{"name": name, "unit": "ms", "bound": None} for name in ("job_ms_p50", "job_ms_tail")]


def load(directory: Path) -> dict[str, list[dict]]:
    runs: dict[str, list[dict]] = {}
    for path in sorted(directory.glob("*.jsonl")):
        for line in path.read_text().splitlines():
            record = json.loads(line)
            if record["trace"] == 0:
                runs.setdefault(record["workload"], []).append(record)
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv: list[str]) -> int:
    if not 1 <= len(argv) <= 2:
        print(__doc__, file=sys.stderr)
        return 2
    sets = [load(Path(arg)) for arg in argv]
    flagged = 0
    for workload in sorted(set().union(*sets)):
        print(f"{workload}:")
        for label, runs in zip("AB", sets):
            recs = runs.get(workload, [])
            failed = sum(r["failed"] for r in recs)
            attempted = sum(r["attempted"] for r in recs)
            seeds = sorted(r["seed"] for r in recs)
            print(f"  {label}: {len(recs)} runs, seeds {seeds}, fail_frac {failed}/{attempted}")
            flagged += failed > 0
        for metric in SPEC["end_to_end"] + UNGATED:
            name, bound = metric["name"], metric["bound"]
            medians = []
            for label, runs in zip("AB", sets):
                values = [
                    {**r["metrics"], **r.get("ungated", {})}[name]["value"] for r in runs.get(workload, [])
                ]
                if not values:
                    continue
                q1, med, q3 = quartiles(values)
                spread = (q3 - q1) / med
                if bound is None:
                    print(
                        f"  {label} {name:<12} median {med:11.5g} {metric['unit']:<3} "
                        f"q1 {q1:11.5g} q3 {q3:11.5g} spread {spread:7.2%} (not gated)"
                    )
                    continue
                note = "steady" if spread < bound / 3 else "unsteady"
                if spread > bound and name != "setup_s":
                    note = "SPREAD > BOUND"
                    flagged += 1
                print(
                    f"  {label} {name:<12} median {med:11.5g} {metric['unit']:<3} "
                    f"q1 {q1:11.5g} q3 {q3:11.5g} spread {spread:7.2%} (bound {bound:.0%}) {note}"
                )
                medians.append(med)
            if len(medians) == 2:
                change = (medians[1] - medians[0]) / medians[0]
                worse = change if metric["better"] == "lower" else -change
                note = "WORSE > BOUND" if worse > bound else "within bound"
                flagged += worse > bound
                print(f"    B vs A {name:<12} {change:+8.2%} {note}")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
