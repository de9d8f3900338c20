from fractions import Fraction

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

from conftest import brute_is_complete


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
    fam = random_complete_family(p, {1}, Fraction(1, 8), 123)
    assert fam == random_complete_family(p, {1}, Fraction(1, 8), 123)
    assert fam.is_pinned_complete({1})
    assert len(random_complete_family(p, {1}, Fraction(0), 5)) == 0
    assert random_complete_family(p, {1}, Fraction(1), 5) == Family.full(p)


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


def test_slice_report_needs_length_two():
    p = SpaceParams(3, 1)
    full = Family.full(p)
    with pytest.raises(ParameterError):
        slice_structure_report(full, full, {1}, {2})


@pytest.mark.parametrize("n", [2, 3, 4])
def test_slice_report_campaign(n):
    # 100 seeds per length; zero violations expected
    p = SpaceParams(3, n)
    densities = (Fraction(1, 8), Fraction(1, 4), Fraction(1, 2))
    for seed in range(100):
        rho = densities[seed % 3]
        fam_a = random_complete_family(p, {1}, rho, 2 * seed)
        fam_b = random_complete_family(p, {2}, rho, 2 * seed + 1)
        report = slice_structure_report(fam_a, fam_b, {1}, {2})
        assert report.ok, report.violations


def test_random_complete_family_golden_bits():
    # the seeded draw order (ascending word index) is pinned, so replay files reproduce
    params = SpaceParams(3, 4)
    assert random_complete_family(params, {1}, Fraction(1, 4), seed=5).bits == (1 << 81) - 1
    fam = random_complete_family(params, {1, 2}, Fraction(1, 8), seed=5)
    assert fam.bits == 0x10098E07E3F1F843FE3F


def test_random_complete_family_negative_seed():
    # a negative seed draws as its absolute value, as random.Random seeds do
    params = SpaceParams(3, 3)
    for seed in (1, 5, 12):
        assert random_complete_family(params, {1}, Fraction(1, 8), -seed) == random_complete_family(
            params, {1}, Fraction(1, 8), seed
        )
    checks = random_correlation_trials(3, 3, {1}, {2, 3}, 6, seed_base=-3)
    assert [c.seed for c in checks] == list(range(-3, 3))
    assert all(c.holds for c in checks)


def test_random_complete_family_denominator_limit():
    params = SpaceParams(2, 3)
    assert len(random_complete_family(params, {1}, Fraction(1, 1 << 63), 0)) == 0
    assert len(random_complete_family(params, {1}, 1 - Fraction(1, 1 << 63), 0)) == 8
    with pytest.raises(ParameterError):
        random_complete_family(params, {1}, Fraction(1, (1 << 63) + 1), 0)
    with pytest.raises(ParameterError):
        random_complete_family(params, {1}, Fraction(1, 1 << 64), 0)
