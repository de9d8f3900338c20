"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; a pytest failure is the fail signal.  All comparisons are exact
(integers and rationals); the stated wall-clock budgets are asserted too.
"""

import time
from fractions import Fraction
from itertools import product

from isecode import (
    SpaceParams,
    best_window_measure,
    biased_measure,
    block_product_family,
    exhaustive_correlation,
    fixed_coordinate_family,
    lift_family,
    majority_density,
    majority_family,
    max_family,
    power_bound,
    product_allocation,
    random_complete_family,
    random_correlation_trials,
    window_measure,
    window_product_bound,
    window_threshold_family,
)

from conftest import paper_windows_fit

_SOLVED: dict = {}


def solve(n, s, t):
    key = (n, s, tuple(t))
    if key not in _SOLVED:
        _SOLVED[key] = max_family(n, s, t)
    return _SOLVED[key]


def _power_sweep_instances():
    for s in (2, 3):
        for n in range(1, 5):
            for t in product(range(s), repeat=s):
                if sum(t) <= n:
                    yield n, s, t


def test_criterion_1_power_bound_sweep_with_equality():
    start = time.perf_counter()
    count = 0
    for n, s, t in _power_sweep_instances():
        bound = power_bound(n, s, t)
        result = solve(n, s, t)
        assert result.complete
        assert result.max_size <= bound, (n, s, t)
        assert result.max_size == bound, (n, s, t)
        assert result.max_size == product_allocation(n, s, t).count, (n, s, t)
        assert result.max_size <= window_product_bound(n, s, t).count, (n, s, t)
        witness = fixed_coordinate_family(n, s, t)
        assert len(witness) == bound
        assert witness.is_t_intersecting(t)
        assert result.witness.is_t_intersecting(t)
        count += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"sweep took {elapsed:.1f}s"
    print(f"\n[criterion 1] PASS: {count} instances, max size equals the power bound "
          f"with a fixed-coordinate witness each time ({elapsed:.1f}s)")


def test_criterion_2_product_equality_instances():
    checks = []
    for n, s, t in ((5, 3, (3, 0, 0)), (3, 3, (1, 1, 0)), (5, 3, (1, 1, 1))):
        start = time.perf_counter()
        result = solve(n, s, t)
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0
        assert result.complete
        bound = window_product_bound(n, s, t)
        assert result.max_size == bound.count, (n, s, t)
        assert result.max_size == product_allocation(n, s, t).count, (n, s, t)
        checks.append((n, s, t, result.max_size))
    assert checks[0][3] == 11
    sel = best_window_measure(5, 3, Fraction(1, 3))
    assert sel.value == Fraction(11, 243)
    assert 3**5 * sel.value == 11
    assert checks[1][3] == 3
    assert checks[2][3] == 9
    print(f"\n[criterion 2] PASS: product-formula equality at {checks}")


def _disjoint_nonempty_pairs(s):
    symbols = list(range(1, s + 1))
    for mask_a in range(1, 1 << s):
        a = {symbols[i] for i in range(s) if (mask_a >> i) & 1}
        for mask_b in range(1, 1 << s):
            b = {symbols[i] for i in range(s) if (mask_b >> i) & 1}
            if not (a & b):
                yield a, b


def test_criterion_3_correlation_inequality():
    start = time.perf_counter()
    min_slack = None
    checked = 0
    for s in (2, 3):
        for pins_a, pins_b in _disjoint_nonempty_pairs(s):
            for check in exhaustive_correlation(s, pins_a, pins_b):
                assert check.holds, (s, pins_a, pins_b)
                checked += 1
                min_slack = check.slack if min_slack is None else min(min_slack, check.slack)
    patterns = {2: [({1}, {2})], 3: [({1}, {2}), ({1}, {2, 3})]}
    random_checks = informative = 0
    for s in (2, 3):
        for n in (2, 3, 4):
            for pins_a, pins_b in patterns[s]:
                for check in random_correlation_trials(s, n, pins_a, pins_b, 1000):
                    assert check.holds, (s, n, pins_a, pins_b, check.seed)
                    checked += 1
                    random_checks += 1
                    informative += check.slack > 0
                    min_slack = min(min_slack, check.slack)
    # a check with slack 0 (for example two full families) says little; 3,312 of the
    # 9,000 random checks (36.8%) have positive slack
    assert informative >= 0.25 * random_checks, (informative, random_checks)
    # the bench's campaign cell: 319 of 400 trials have positive slack
    campaign = random_correlation_trials(3, 7, {1}, {2, 3}, 400)
    assert all(c.holds for c in campaign)
    assert sum(c.slack > 0 for c in campaign) >= 200
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"correlation campaign took {elapsed:.1f}s"
    print(f"\n[criterion 3] PASS: {checked} checks, zero violations, "
          f"minimum observed slack {min_slack}, {informative} of {random_checks} random checks "
          f"informative ({elapsed:.1f}s)")


def test_criterion_4_window_boundary_consistency():
    count = 0
    for t in range(2, 7):
        for r in range(0, 5):
            p = Fraction(r + 1, t + 2 * r + 1)
            assert window_measure(t, r, p) == window_measure(t, r + 1, p), (t, r)
            count += 1
    print(f"\n[criterion 4] PASS: {count} exact boundary equalities of the window measure")


def test_criterion_5_submultiplicative_densities():
    s = 3
    count = 0
    for n in range(1, 5):
        for t in product(range(n + 1), repeat=s):
            if sum(t) > n:
                continue
            full = solve(n, s, t)
            assert full.complete
            assert full.max_size == product_allocation(n, s, t).count, (n, t)
            assert full.max_size <= window_product_bound(n, s, t).count, (n, t)
            whole = Fraction(full.max_size, s**n)
            for r in (1, 2):
                head = t[:r] + (0,) * (s - r)
                tail = (0,) * r + t[r:]
                d_head = Fraction(solve(n, s, head).max_size, s**n)
                d_tail = Fraction(solve(n, s, tail).max_size, s**n)
                assert whole <= d_head * d_tail, (n, t, r)
                count += 1
    print(f"\n[criterion 5] PASS: {count} split inequalities hold exactly")


def test_criterion_6_binary_small_slack_range():
    start = time.perf_counter()
    count = 0
    for q in (0, 1, 2, 3):
        for n in range(q + 2, 9):
            total = n - q
            for t1 in range(1, total):
                t2 = total - t1
                result = solve(n, 2, (t1, t2))
                assert result.complete
                assert result.witness.is_t_intersecting((t1, t2))
                assert len(result.witness) == result.max_size
                alloc = product_allocation(n, 2, (t1, t2))
                assert result.max_size == alloc.count, (n, t1, t2, q)
                assert result.max_size <= window_product_bound(n, 2, (t1, t2)).count
                if q in (0, 1):
                    assert result.max_size == 2**q, (n, t1, t2, q)
                count += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0, f"binary sweep took {elapsed:.1f}s"
    print(f"\n[criterion 6] PASS: {count} instances match the allocated two-block majority "
          f"count, with max 2**q at slack 0 and 1 ({elapsed:.1f}s)")


def test_criterion_7_majority_density_targets():
    def two_blocks(n1, n2):
        return range(1, n1 + 1), range(n1 + 1, n1 + n2 + 1)

    for n1, n2 in ((1, 1), (3, 1), (5, 9), (7, 7), (99, 101)):
        assert majority_density(n1 + n2, 2, two_blocks(n1, n2), (1, 1)) == Fraction(1, 4), (n1, n2)
    dens = majority_density(200, 2, two_blocks(100, 100), (2, 2))
    assert Fraction(1, 5) <= dens <= Fraction(1, 4)
    print(f"\n[criterion 7] PASS: odd-block density exactly 1/4; "
          f"100+100 block density {float(dens):.4f} within [0.2, 0.25]")


def _bridge_corpus():
    for s in (2, 3):
        for n in (2, 3, 4):
            params = SpaceParams(s, n)
            for sym in range(1, s + 1):
                for seed in range(10):
                    fam = random_complete_family(params, {sym}, seed)
                    yield fam, sym
            for t in range(1, n + 1):
                for r in range((n - t) // 2 + 1):
                    for sym in range(1, s + 1):
                        yield lift_family(window_threshold_family(n, t, r), sym, s), sym
    yield majority_family(4, 3, [{1, 2, 3}], [1]), 1
    yield majority_family(4, 2, [{1, 2, 3, 4}], [2]), 1


def test_criterion_8_projection_bridge():
    count = 0
    for fam, sym in _bridge_corpus():
        assert fam.is_pinned_complete({sym})
        s = fam.params.s
        assert fam.density() == biased_measure(fam.project(sym), Fraction(1, s)), (fam, sym)
        count += 1
    print(f"\n[criterion 8] PASS: exact density = biased projection measure "
          f"on {count} complete families")


# (n, s, t) -> (max_size, nodes) of the deterministic search
_GOLDEN_SEARCH = {
    (5, 3, (1, 1, 1)): (9, 3),
    (4, 2, (1, 1)): (4, 1),
    (6, 3, (1, 1, 0)): (81, 4),
    (8, 2, (3, 1)): (29, 1),
    (6, 2, (1, 1)): (16, 63),
    (6, 4, (1, 1, 0, 0)): (256, 2),  # on the 602-pattern graph
}


def test_criterion_9_search_determinism():
    instances = list(_power_sweep_instances()) + [
        (5, 3, (3, 0, 0)),
        (3, 3, (1, 1, 0)),
    ] + list(_GOLDEN_SEARCH)
    for n, s, t in instances:
        first = solve(n, s, t)
        again = max_family(n, s, t)
        assert first.complete and again.complete, (n, s, t)
        assert first.max_size == again.max_size, (n, s, t)
        assert first.witness == again.witness, (n, s, t)
        assert first.nodes == again.nodes, (n, s, t)
    for (n, s, t), golden in _GOLDEN_SEARCH.items():
        result = solve(n, s, t)
        assert (result.max_size, result.nodes) == golden, (n, s, t)
    assert solve(5, 3, (1, 1, 1)).witness.bits == 0x920000124000024800
    assert solve(6, 2, (1, 1)).witness.bits == 0x5555555500000000
    print(f"\n[criterion 9] PASS: witnesses and node counts identical across two "
          f"runs on {len(instances)} instances, {len(_GOLDEN_SEARCH)} match golden counts")


def _capacity_refused_instances():
    s = 3
    for n in range(1, 7):
        for t in product(range(n + 1), repeat=s):
            if sum(t) > n or list(t) != sorted(t, reverse=True):
                continue
            if not paper_windows_fit(n, s, t):
                yield n, s, t


def test_criterion_10_allocation_beyond_capacity():
    # Where the paper's windows do not fit into n, the exact block allocation
    # still builds a maximum family.  An oracle above the allocated count would
    # be a counterexample to the finite-n product formula.
    count = 0
    for n, s, t in _capacity_refused_instances():
        result = solve(n, s, t)
        assert result.complete, (n, s, t)
        assert result.max_size == product_allocation(n, s, t).count, (n, s, t)
        assert result.max_size <= window_product_bound(n, s, t).count, (n, s, t)
        built = block_product_family(n, s, t)
        assert len(built.family) == result.max_size, (n, s, t)
        assert built.family.is_t_intersecting(t), (n, s, t)
        count += 1
    assert count == 21
    assert solve(6, 3, (4, 0, 0)).max_size == 13
    print(f"\n[criterion 10] PASS: {count} demands beyond the capacity condition; "
          f"oracle = allocated count = block-product size each time")


def _gap_instances():
    """Non-increasing demands with two or more nonzero entries where A < U."""
    for s, n_max in ((2, 10), (3, 9)):
        for n in range(1, n_max + 1):
            for t in product(range(n + 1), repeat=s):
                if sum(t) > n or list(t) != sorted(t, reverse=True) or sum(map(bool, t)) < 2:
                    continue
                alloc, bound = product_allocation(n, s, t).count, window_product_bound(n, s, t).count
                if alloc < bound:
                    yield n, s, t, alloc, bound


def test_criterion_11_product_bound_gap_census():
    # The product bound U holds for every demand, but the block allocation A
    # reaches it only where the windows fit together.  On the rows with A < U
    # the oracle decides between them; a maximum above A would be a
    # counterexample to the finite-n product formula.
    start = time.perf_counter()
    count = 0
    for n, s, t, alloc, bound in _gap_instances():
        result = solve(n, s, t)
        assert result.complete, (n, s, t)
        assert result.max_size == alloc < bound, (n, s, t, result.max_size, bound)
        count += 1
    assert count == 105
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"gap census took {elapsed:.1f}s"
    print(f"\n[criterion 11] PASS: {count} demands with A < U; oracle = A each time "
          f"({elapsed:.1f}s)")
