import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from isecode import (
    CompletenessError,
    Family,
    ParameterError,
    SpaceParams,
    check_correlation,
    exhaustive_correlation,
    random_complete_family,
    random_correlation_trials,
    slice_structure_report,
)

from conftest import brute_closure, brute_is_complete, brute_pinned_violation


def _count(sweeps, fam):
    return sum(member is fam.array for member, _ in sweeps)


def test_full_pair_has_zero_slack():
    p = SpaceParams(3, 2)
    full = Family.full(p)
    check = check_correlation(full, full, {1}, {2})
    assert check.slack == 0 and check.holds


def test_length_one_equality_case():
    p = SpaceParams(3, 1)
    fam_a = Family.from_words(p, [(1,)])
    fam_b = Family.full(p)
    check = check_correlation(fam_a, fam_b, {1}, {2})
    assert (check.lhs, check.rhs, check.slack) == (3, 3, 0)


def test_empty_side_is_trivial():
    p = SpaceParams(3, 2)
    check = check_correlation(Family.empty(p), Family.full(p), {1}, {2})
    assert check.slack == 0 and check.holds


def test_precondition_validation():
    p = SpaceParams(3, 2)
    full = Family.full(p)
    with pytest.raises(ParameterError):
        check_correlation(full, full, {1}, {1, 2})  # not disjoint
    with pytest.raises(ParameterError):
        check_correlation(full, full, set(), {2})
    incomplete = Family.from_words(p, [(2, 1)])
    with pytest.raises(CompletenessError) as err:
        check_correlation(incomplete, full, {1}, {2})
    x, y, pos = err.value.witness
    assert x == (2, 1) and pos in (1, 2) and y not in incomplete


@pytest.mark.parametrize(
    "s,pins",
    [
        (2, [({1}, {2})]),
        (3, [({1}, {2}), ({1}, {2, 3}), ({1, 2}, {3}), ({2}, {3})]),
    ],
)
def test_exhaustive_length_one(s, pins):
    for pins_a, pins_b in pins:
        checks = exhaustive_correlation(s, pins_a, pins_b)
        # complete families at n = 1: subsets of the pinned set, plus everything
        assert len(checks) == (2 ** len(pins_a) + 1) * (2 ** len(pins_b) + 1)
        assert all(c.holds for c in checks)
        assert min(c.slack for c in checks) == 0  # the equality cases exist


def test_exhaustive_filter_matches_definition():
    p = SpaceParams(3, 1)
    for pins in ({1}, {2, 3}):
        fast = {bits for bits in range(8) if Family(p, bits).is_pinned_complete(pins)}
        brute = {bits for bits in range(8) if brute_is_complete(Family(p, bits), pins)}
        assert fast == brute


def test_random_complete_family_contract():
    p = SpaceParams(3, 3)
    fam = random_complete_family(p, {1}, 123)
    assert fam == random_complete_family(p, {1}, 123)
    assert fam.is_pinned_complete({1})
    # the closure of at least one word: never empty, and here not the whole space
    assert 0 < len(fam) < p.size
    with pytest.raises(ParameterError):
        random_complete_family(p, {1, 2, 3}, 123)


def _draws(params, seed):
    """The documented draws of random.Random(seed): k in 1..n, then k word indices."""
    rng = random.Random(seed)
    k = int(rng.random() * params.n) + 1
    return Family.from_indices(params, [int(rng.random() * params.size) for _ in range(k)])


@pytest.mark.parametrize(
    "s,n,pins",
    [
        (2, 1, {1}),
        (2, 4, {2}),
        (2, 5, {1}),
        (3, 3, {1}),
        (3, 4, {2, 3}),
        (3, 5, {1}),
        (3, 5, {1, 3}),
        (4, 3, {2}),
        (4, 4, {1, 2}),
        (4, 5, {1, 3, 4}),
    ],
)
def test_random_complete_family_is_the_closure_of_its_draws(s, n, pins):
    # the documented draws, closed by the brute-force oracle
    params = SpaceParams(s, n)
    for seed in range(12):
        fam = random_complete_family(params, pins, seed)
        assert fam == brute_closure(_draws(params, seed), pins), seed
        assert fam == random_complete_family(params, pins, seed)
    # a negative seed draws from the generator seeded by its string
    for seed in range(1, 13):
        fam = random_complete_family(params, pins, -seed)
        assert fam == brute_closure(_draws(params, str(-seed)), pins), -seed


def test_random_trials_deterministic_and_clean():
    first = random_correlation_trials(3, 3, {1}, {2, 3}, 60, seed_base=7)
    second = random_correlation_trials(3, 3, {1}, {2, 3}, 60, seed_base=7)
    assert [(c.seed, c.size_a, c.size_b, c.common) for c in first] == [
        (c.seed, c.size_a, c.size_b, c.common) for c in second
    ]
    assert all(c.holds for c in first)
    assert [c.seed for c in first] == list(range(7, 67))


def test_slice_report_on_single_word_closure():
    p = SpaceParams(3, 2)
    fam_a = Family.from_words(p, [(1, 2)]).pinned_closure({1})
    fam_b = Family.full(p)
    report = slice_structure_report(fam_a, fam_b, {1}, {2})
    assert report.ok
    # slices off the pinned set are equal for the closed family
    free = [report.sizes_a[sym - 1] for sym in (2, 3)]
    assert free[0] == free[1] == report.common_a


def test_check_then_slice_report_sweeps_each_family_once(sweeps):
    p = SpaceParams(3, 5)
    fam_a = random_complete_family(p, {1}, 4)
    fam_b = random_complete_family(p, {2, 3}, 5)
    assert sweeps == []
    check = check_correlation(fam_a, fam_b, {1}, {2, 3})
    report = slice_structure_report(fam_a, fam_b, {1}, {2, 3})
    assert check.holds and report.ok
    assert len(sweeps) == 2 and _count(sweeps, fam_a) == _count(sweeps, fam_b) == 1


def test_slice_report_alone_rejects_an_incomplete_family(sweeps):
    p = SpaceParams(3, 4)
    fam_a = Family.from_words(p, [(1, 2, 3, 1), (3, 1, 1, 2)])
    fam_b = Family.full(p)
    with pytest.raises(CompletenessError) as err:
        slice_structure_report(fam_a, fam_b, {1}, {2})
    assert err.value.witness == brute_pinned_violation(fam_a, {1}) == fam_a.pinned_violation({1})
    assert _count(sweeps, fam_a) == 1
    with pytest.raises(CompletenessError) as again:
        check_correlation(fam_a, fam_b, {1}, {2})
    assert again.value.witness == err.value.witness and _count(sweeps, fam_a) == 1


def test_check_sweeps_a_fresh_closure(sweeps):
    # closure outputs are verified like any other input, once each
    p = SpaceParams(3, 4)
    fam_a = Family.from_words(p, [(1, 2, 3, 1)]).pinned_closure({1})
    fam_b = Family.from_words(p, [(2, 2, 1, 3)]).pinned_closure({2})
    check_correlation(fam_a, fam_b, {1}, {2})
    assert len(sweeps) == 2 and _count(sweeps, fam_a) == _count(sweeps, fam_b) == 1


def test_slice_report_needs_length_two():
    p = SpaceParams(3, 1)
    full = Family.full(p)
    with pytest.raises(ParameterError):
        slice_structure_report(full, full, {1}, {2})
    # the length refusal comes before the completeness sweep
    incomplete = Family.from_words(p, [(2,)])
    with pytest.raises(ParameterError, match="need word length n >= 2") as err:
        slice_structure_report(incomplete, full, {1}, {2})
    assert not isinstance(err.value, CompletenessError)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_slice_report_campaign(n):
    # 100 seeds per length; zero violations expected
    p = SpaceParams(3, n)
    for seed in range(100):
        fam_a = random_complete_family(p, {1}, 2 * seed)
        fam_b = random_complete_family(p, {2}, 2 * seed + 1)
        report = slice_structure_report(fam_a, fam_b, {1}, {2})
        assert report.ok, report.violations


def test_random_complete_family_golden_bits():
    # the seeded draws (k, then k word indices) are pinned, so replay files reproduce
    params = SpaceParams(3, 4)
    assert random_complete_family(params, {1}, seed=5).bits == 0x1FFFFFFFFFFFFFFFFFFFF
    assert random_complete_family(params, {1, 2}, seed=5).bits == 0x100916420122C8402459


def test_random_complete_family_negative_seed():
    # a negative seed draws from random.Random(str(seed)), not from its absolute value,
    # so trial seed -1 (sub-seeds -2, -1) repeats no family of trials 0 and 1
    params = SpaceParams(3, 3)
    for seed in range(1, 13):
        fam = random_complete_family(params, {1}, -seed)
        assert fam == brute_closure(_draws(params, str(-seed)), {1}), -seed
    checks = random_correlation_trials(3, 3, {1}, {2, 3}, 6, seed_base=-3)
    assert [c.seed for c in checks] == list(range(-3, 3))
    assert all(c.holds for c in checks)


def test_campaigns_never_import_numpy_random():
    # the sampler draws from the standard library, so neither a campaign nor the
    # correlate command pays numpy.random's import in a fresh interpreter
    script = """
import sys
from isecode import cli, random_correlation_trials
random_correlation_trials(3, 7, {1}, {2, 3}, 50)
cli.main(["correlate", "-s", "3", "-n", "4", "--pins-a", "1", "--pins-b", "2,3",
          "--trials", "20", "--seed", "3"])
sys.exit("numpy.random" in sys.modules)
"""
    src = str(Path(__file__).resolve().parents[1] / "src")
    done = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr
