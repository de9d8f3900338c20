"""The benchmark's workloads: fixed job lists built from a seed.

Each builder returns the pass's jobs as (name, fn) pairs.  A job calls the
package only through `rec.call`, which times the call (and records a span in
traced runs); it checks every output with `rec.check` against the
independent oracles in `checks`.  Only stable public entry points are called,
with their default options.

Why these workloads:

- search: ten exact maximum-family instances, all proved today.  Almost all
  work is graph build, greedy, colouring and branching.  Two heavy instances
  dominate wall_s and eight light ones set job_ms_p50, so both per-node and
  per-call cost show.  Instances that only end at the wall-clock timeout are
  left out, since their time would equal the timeout.
- construct-correlate: the construct jobs, then the correlate jobs; it never
  touches search.  The construct jobs are a few large dense families, with
  file writes beside reads: families, constructions, measures and file I/O at
  working sets from KB to hundreds of MB.  The correlate jobs are thousands of
  small families, many closures where per-call overhead dominates.  Both sizes
  sit in one workload so that a run is long enough for steady timings on a
  shared host; the construct jobs set job_ms_tail and the far more numerous
  correlate jobs set job_ms_p50, so a representation change that helps big
  families but costs small ones moves the two apart.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import random
from fractions import Fraction

import numpy as np

import isecode
import isecode.cli

import checks


# -- search ---------------------------------------------------------------------

# (n, s, t) -> exact maximum family size.
SEARCH_INSTANCES = {
    (6, 3, (2, 0, 0)): 81,
    (6, 4, (1, 1, 0, 0)): 256,
    (6, 3, (1, 1, 0)): 81,
    (8, 2, (2, 2)): 25,
    (7, 3, (2, 2, 0)): 27,
    (6, 3, (1, 1, 1)): 27,
    (9, 2, (3, 3)): 12,
    (7, 3, (3, 1, 0)): 33,
    (8, 2, (3, 1)): 29,
    (6, 2, (1, 1)): 16,
}


def _search_job(n: int, s: int, t: tuple[int, ...], expected: int):
    def job(rec):
        graph = rec.call("search.build_compat_graph", isecode.build_compat_graph, n, s, t)
        result = rec.call("search.max_family", isecode.max_family, n, s, t)
        rec.count("search.proved", int(result.complete))
        rec.count("search.nodes", result.nodes)
        rec.count("search.vertices", graph.vertex_count)
        rec.count("search.edges", sum(row.bit_count() for row in graph.adjacency) // 2)
        rec.check(result.complete, "search not proved")
        words = checks.digits(np.flatnonzero(checks.bool_of(result.witness.bits, s**n)), s, n)
        rec.check(len(words) == result.max_size, f"witness has {len(words)} words")
        rec.check(result.max_size == expected, f"max {result.max_size}, expected {expected}")
        if all(ti < s for ti in t):
            rec.check(result.max_size == s ** (n - sum(t)), "power bound not attained")
        rec.check(checks.pairwise_ok(words, t), "witness fails the pairwise demand")

    return job


def search_jobs(seed: int, tmp: str):
    instances = sorted(SEARCH_INSTANCES.items())
    random.Random(seed).shuffle(instances)
    return [
        (f"search{n}-{s}-{''.join(map(str, t))}", _search_job(n, s, t, size))
        for (n, s, t), size in instances
    ]


# -- construct ---------------------------------------------------------------------

PRODUCT_DEMAND = (2, 1, 0)


def _cli(rec, *argv: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = rec.call("cli.main", isecode.cli.main, list(argv))
    rec.check(code == 0, f"isecode {' '.join(argv[:2])} exited {code}")
    return out.getvalue()


def _product_job(n: int, tmp: str):
    def job(rec):
        s, t = 3, PRODUCT_DEMAND
        built = rec.call("constructions.block_product_family", isecode.block_product_family, n, s, t)
        rec.count("constructions.block_product_family.words_scanned", s**n)
        bound = rec.call("measures.window_product_bound", isecode.window_product_bound, n, s, t)
        bits = built.family.bits
        rec.check(Fraction(bits.bit_count(), s**n) == bound.density, f"product n={n} density")
        rec.check(built.density == bound.density, f"reported product n={n} density")
        path = os.path.join(tmp, f"product{n}.famb")
        rec.call("families.save_binary", isecode.save_family, built.family, path)
        rec.io(path)
        rec.check(checks.read_binary(path) == (s, n, bits), "binary file differs from the family")
        loaded = rec.call("families.load_binary", isecode.load_family, path)
        rec.io(path)
        rec.check(loaded.bits == bits, "binary round trip changed the family")
        report = json.loads(_cli(rec, "verify", path, "--format", "json"))
        rec.check((report["n"], report["size"]) == (n, bits.bit_count()), "verify reports a size")
        os.remove(path)

    return job


def _cli_product_job(tmp: str):
    def job(rec):
        path = os.path.join(tmp, "product10.fam")
        made = json.loads(
            _cli(rec, "construct", "product", "-n", "10", "-s", "3", "-t", "2,1,0", "-o", path,
                 "--format", "json")
        )
        rec.io(path)
        s, n, words = checks.read_text_words(path)
        rec.check((s, n, len(words), made["size"]) == (3, 10, 3**7, 3**7), "text product size")
        rec.check(len(np.unique(words, axis=0)) == len(words), "text product repeats a word")
        rec.check(checks.pairwise_ok(words, PRODUCT_DEMAND), "text product fails the demand")
        report = json.loads(_cli(rec, "verify", path, "-t", "2,1,0", "--format", "json"))
        rec.io(path)
        rec.check(report["intersecting"] is True and report["size"] == 3**7, "verify disagrees")
        os.remove(path)

    return job


def _cli_majority_job(rec):
    report = json.loads(
        _cli(rec, "construct", "binary-majority", "-n", "14", "-t", "2,2", "--x1", "1,2,3,4,5,6",
             "--x2", "7,8,9,10,11,12", "--format", "json")
    )
    # Six-position blocks, each needing four of its symbol; two free positions.
    expected = checks.majority_count(6, 2) ** 2 * 2**2
    rec.check(report["size"] == expected, f"binary majority size {report['size']} != {expected}")
    rec.check(Fraction(report["density"]) == Fraction(expected, 2**14), "binary majority density")


def _cli_bounds_job(rec):
    table = _cli(rec, "table", "--what", "bounds", "-s", "3", "--n-max", "7")
    rows = list(csv.DictReader(io.StringIO(table)))
    expected = [(n, t) for n in range(1, 8) for t in checks.demand_vectors(3, n, 7)]
    rec.check(len(rows) == len(expected), f"bounds table has {len(rows)} of {len(expected)} rows")
    for row, (n, t) in zip(rows, expected):
        want = str(3 ** (n - sum(t))) if all(ti < 3 for ti in t) else ""
        if (int(row["n"]), row["t"], row["power_bound"]) != (n, ",".join(map(str, t)), want):
            rec.check(False, f"bounds row {row} differs from n={n}, t={t}, power bound {want!r}")
            break


def _cli_measures_job(rec):
    rows = list(csv.DictReader(io.StringIO(_cli(rec, "table", "--what", "measures", "-n", "60"))))
    values = [Fraction(row["value"]) for row in rows]
    rec.check(len(rows) == 61 and values[:2] == [1, Fraction(1, 3)], "measures table head")
    rec.check(all(0 < b <= a for a, b in zip(values, values[1:])), "measures not decreasing in t")
    for row, value in zip(rows, values):
        t, r = int(row["t"]), int(row["radius"])
        if t >= 2 and value != checks.binomial_tail(t + 2 * r, t + r, Fraction(1, 3)):
            rec.check(False, f"measures row t={t} is not its window measure")
            break


def _seed_words(rng: random.Random, n: int, groups) -> list[tuple[int, ...]]:
    """One word per group of 1-based positions: symbol 1 there, a random free symbol elsewhere.

    Positions are permuted by the seed, which leaves every closure size unchanged.
    """
    perm = rng.sample(range(1, n + 1), n)
    words = []
    for group in groups:
        ones = {perm[j - 1] for j in group}
        words.append(tuple(1 if j in ones else rng.choice((2, 3)) for j in range(1, n + 1)))
    return words


def _encode(word, s: int) -> int:
    return sum((sym - 1) * s**j for j, sym in enumerate(word))


def _closure(rec, words, s: int, n: int, pins):
    params = isecode.SpaceParams(s, n)
    indices = [_encode(w, s) for w in words]
    fam = rec.call("families.from_indices", isecode.Family.from_indices, params, indices)
    closed = rec.call("families.pinned_closure", fam.pinned_closure, pins)
    rec.count("families.pinned_closure.words_out", len(closed))
    member = checks.pinned_closure(words, pins, s, n)
    rec.check(closed.bits == checks.bits_of(member), f"closure at s={s}, n={n} differs")
    return closed, member


def _bridge_job(words):
    def job(rec):
        s, n = 3, 11
        closed, member = _closure(rec, words, s, n, {1})
        proj = rec.call("families.project", closed.project, 1)
        rec.count("families.project.members_in", len(closed))
        rec.check(proj.bits == checks.bits_of(checks.projection(member, s, n, 1)), "projection differs")
        value = rec.call("measures.biased_measure", isecode.biased_measure, proj, Fraction(1, s))
        rec.count("measures.biased_measure.masks_in", len(proj))
        rec.check(Fraction(int(member.sum()), s**n) == value, "bridge identity fails")

    return job


def _window_job(rec):
    n, t, r = 18, 4, 2
    fam = rec.call("constructions.window_threshold_family", isecode.window_threshold_family, n, t, r)
    rec.check(fam.bits == checks.bits_of(checks.window_count(n, t, r)), "window family differs")
    value = rec.call("measures.biased_measure", isecode.biased_measure, fam, Fraction(1, 3))
    rec.count("measures.biased_measure.masks_in", len(fam))
    rec.check(value == checks.binomial_tail(t + 2 * r, t + r, Fraction(1, 3)), "window measure differs")


def _lift(rec, n: int, t: int, r: int):
    window = rec.call("constructions.window_threshold_family", isecode.window_threshold_family, n, t, r)
    lifted = rec.call("constructions.lift_family", isecode.lift_family, window, 1, 3)
    member = checks.symbol_count_at_least(3, n, range(1, t + 2 * r + 1), 1, t + r)
    rec.check(lifted.bits == checks.bits_of(member), f"lift at n={n} differs")
    return lifted, member


def _lift_job(rec):
    _lift(rec, 11, 2, 1)


def _text_io_job(words, tmp: str):
    def job(rec):
        closed, _ = _closure(rec, words, 3, 10, {1})
        path = os.path.join(tmp, "closure10.fam")
        rec.call("families.save_text", isecode.save_family, closed, path)
        rec.io(path)
        loaded = rec.call("families.load_text", isecode.load_family, path)
        rec.io(path)
        rec.check(loaded.bits == closed.bits, "text round trip changed the family")
        os.remove(path)

    return job


def _intersecting_job(rec):
    lifted, member = _lift(rec, 10, 2, 1)
    agree = checks.min_agreement(checks.digits(np.flatnonzero(member), 3, 10), 1)
    for need in (2, 3):
        got = rec.call("families.is_t_intersecting", lifted.is_t_intersecting, (need, 0, 0))
        rec.count("families.is_t_intersecting.members_in", len(lifted))
        rec.check(got == (agree >= need), f"is_t_intersecting({need}) answered {got}")


def construct_jobs(seed: int, tmp: str):
    rng = random.Random(seed)
    groups = [(1, 2), (3, 4), (5, 6)]
    jobs = [(f"product{n}", _product_job(n, tmp)) for n in (13, 14, 15)]
    jobs += [
        ("cli-product10", _cli_product_job(tmp)),
        ("cli-majority14", _cli_majority_job),
        ("cli-bounds7", _cli_bounds_job),
        ("cli-measures60", _cli_measures_job),
        ("bridge11", _bridge_job(_seed_words(rng, 11, groups))),
        ("window18", _window_job),
        ("lift11", _lift_job),
        ("text-io10", _text_io_job(_seed_words(rng, 10, groups), tmp)),
        ("intersecting10", _intersecting_job),
    ]
    rng.shuffle(jobs)
    return jobs


# -- correlate ---------------------------------------------------------------------

# (s, n, pins of A, pins of B).  A job is a batch of trials in one cell, and
# jobs cycle through the grid, so every pass has the same mix.  Batching keeps
# a sub-millisecond pause from deciding the tail percentile.
CORRELATION_GRID = [
    (3, 6, {1}, {2}),
    (3, 8, {1}, {2}),
    (3, 10, {1}, {2}),
    (4, 6, {1}, {2}),
    (4, 7, {1, 2}, {3}),
    (5, 6, {1}, {2, 3}),
]
TRIALS_PER_JOB = 10
JOBS_PER_CELL = 33
CAMPAIGN = (3, 7, {1}, {2, 3}, 400)


def _trials_job(s: int, n: int, pins_a, pins_b, trials):
    def job(rec):
        for words_a, words_b in trials:
            fam_a, member_a = _closure(rec, words_a, s, n, pins_a)
            fam_b, member_b = _closure(rec, words_b, s, n, pins_b)
            check = rec.call(
                "correlation.check_correlation", isecode.check_correlation, fam_a, fam_b, pins_a, pins_b
            )
            report = rec.call(
                "correlation.slice_structure_report", isecode.slice_structure_report,
                fam_a, fam_b, pins_a, pins_b,
            )
            sizes = (int(member_a.sum()), int(member_b.sum()), int((member_a & member_b).sum()))
            rec.check(sizes[0] * sizes[1] >= s**n * sizes[2], f"inequality fails at s={s}, n={n}")
            rec.check((check.size_a, check.size_b, check.common) == sizes, "correlation counts differ")
            rec.check(check.holds, "check_correlation reports a violation")
            rec.check(report.ok, f"slice report violations: {report.violations}")
            slices = (checks.last_slices(member_a, s), checks.last_slices(member_b, s))
            rec.check((report.sizes_a, report.sizes_b) == slices, "slice sizes differ")

    return job


def _campaign_job(seed: int):
    s, n, pins_a, pins_b, trials = CAMPAIGN

    def job(rec):
        results = rec.call(
            "correlation.random_correlation_trials", isecode.random_correlation_trials,
            s, n, pins_a, pins_b, trials, seed_base=seed,
        )
        rec.check(len(results) == trials, f"campaign returned {len(results)} of {trials} trials")
        informative = 0
        for c in results:
            sizes_ok = 0 <= c.common <= min(c.size_a, c.size_b) and max(c.size_a, c.size_b) <= s**n
            slack = c.size_a * c.size_b - s**n * c.common
            rec.check(sizes_ok and slack >= 0, f"campaign trial {c.seed} fails the inequality")
            informative += slack > 0
        rec.count("correlation.random_correlation_trials.trials", trials)
        rec.count("correlation.random_correlation_trials.informative", informative)

    return job


def correlate_jobs(seed: int, tmp: str):
    """Each trial closes one to four random seed words per side under disjoint pins.

    The words are drawn once from a fixed stream; the seed permutes the
    positions of each trial's words.  Closure sizes, and so the work, are the
    same for every seed, while the families differ.
    """
    base, rng = random.Random(0), random.Random(seed)
    jobs = []
    for k in range(JOBS_PER_CELL * len(CORRELATION_GRID)):
        s, n, pins_a, pins_b = CORRELATION_GRID[k % len(CORRELATION_GRID)]
        trials = []
        for _ in range(TRIALS_PER_JOB):
            perm = rng.sample(range(n), n)
            sides = [
                [[base.randint(1, s) for _ in range(n)] for _ in range(base.randint(1, 4))]
                for _ in range(2)
            ]
            trials.append([[tuple(word[j] for j in perm) for word in side] for side in sides])
        jobs.append((f"trials{s}-{n}", _trials_job(s, n, pins_a, pins_b, trials)))
    jobs.insert(rng.randrange(len(jobs) + 1), ("campaign", _campaign_job(seed)))
    return jobs


def construct_correlate_jobs(seed: int, tmp: str):
    return construct_jobs(seed, tmp) + correlate_jobs(seed, tmp)


WORKLOADS = {"search": search_jobs, "construct-correlate": construct_correlate_jobs}
