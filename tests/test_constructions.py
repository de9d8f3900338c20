import math
import random
from fractions import Fraction
from itertools import product

import pytest

from isecode import (
    ParameterError,
    SetFamily,
    SpaceParams,
    best_window_measure,
    biased_measure,
    block_product_family,
    fixed_coordinate_family,
    lift_family,
    majority_density,
    majority_family,
    max_family,
    product_allocation,
    window_product_bound,
    window_threshold_family,
)

from conftest import brute_intersecting, paper_windows_fit


def two_blocks(n1, n2):
    """Consecutive blocks 1..n1 and n1+1..n1+n2."""
    return range(1, n1 + 1), range(n1 + 1, n1 + n2 + 1)


@pytest.mark.parametrize("m", range(0, 8))
@pytest.mark.parametrize("t", range(0, 4))
def test_majority_tail_count_matches_enumeration(m, t):
    # The majority tail of one block of m positions: words of [s]^m with at
    # least (m + t) / 2 positions carrying symbol 1, counted over all words.
    # Thresholds t and t + 4 together cover 0..7; only 1 <= t <= m is valid.
    for s in (2, 3):
        ones = [sum(1 for x in w if x == 1) for w in product(range(1, s + 1), repeat=m)]
        for ti in (t, t + 4):
            if not 1 <= ti <= m:
                with pytest.raises(ParameterError):
                    majority_density(max(m, 1), s, [range(1, m + 1)], [ti])
                continue
            expected = Fraction(sum(1 for k in ones if 2 * k >= m + ti), s**m)
            assert majority_density(m, s, [range(1, m + 1)], [ti]) == expected, (s, m, ti)


def test_binary_majority_example():
    fam = majority_family(4, 2, ({1, 2, 3}, {4}), (1, 1))
    assert len(fam) == 4
    assert fam.density() == Fraction(1, 4)
    assert all(w[3] == 2 for w in fam.members())
    assert fam.is_t_intersecting((1, 1))


def test_binary_majority_single_word():
    fam = majority_family(2, 2, ({1}, {2}), (1, 1))
    assert sorted(fam.members()) == [(1, 2)]


def test_majority_threshold_above_block_refused():
    for build in (majority_family, majority_density):
        with pytest.raises(ParameterError):
            build(3, 2, ({1}, {2, 3}), (2, 1))


def test_majority_block_validation():
    bad = [
        (3, 2, ({1, 2}, {2, 3}), (1, 1)),  # overlapping blocks
        (4, 2, ({1, 9}, {3}), (1, 1)),  # position outside 1..n
        (3, 2, ({1}, {2}, {3}), (1, 1, 1)),  # more blocks than symbols
        (3, 2, ({1}, {2}), (1,)),  # one threshold per block
        (3, 1, ({1},), (1,)),  # alphabet too small
        (0, 2, ((),), (1,)),  # word length too small
    ]
    for args in bad:
        for build in (majority_family, majority_density):
            with pytest.raises(ParameterError):
                build(*args)


def test_majority_density_is_a_formula_beyond_dense_cap():
    assert majority_density(200, 3, [range(1, 200)], [1]) < Fraction(1, 10**6)
    with pytest.raises(ParameterError):
        majority_family(200, 3, [range(1, 200)], [1])


def test_binary_majority_density_matches_materialized():
    for n1 in range(1, 5):
        for n2 in range(1, 5 - n1 + 1):
            for t1, t2 in ((1, 1), (1, 2), (2, 2)):
                if t1 > n1 or t2 > n2:
                    continue
                n = n1 + n2 + 1
                fam = majority_family(n, 2, two_blocks(n1, n2), (t1, t2))
                assert fam.density() == majority_density(n, 2, two_blocks(n1, n2), (t1, t2))
                assert fam.is_t_intersecting((t1, t2))


def test_binary_majority_density_quarter_bound():
    # two odd blocks covering everything: each factor is exactly 1/2
    for n1, n2 in ((1, 1), (3, 5), (5, 7)):
        assert majority_density(n1 + n2, 2, two_blocks(n1, n2), (1, 1)) == Fraction(1, 4)
    # never above 1/4 for demands >= 1
    rng = random.Random(3)
    for _ in range(40):
        n1, n2 = rng.randint(1, 30), rng.randint(1, 30)
        t1, t2 = rng.randint(1, n1), rng.randint(1, n2)
        assert majority_density(n1 + n2, 2, two_blocks(n1, n2), (t1, t2)) <= Fraction(1, 4)


def test_binary_majority_large_blocks_near_quarter():
    dens = majority_density(200, 2, two_blocks(100, 100), (2, 2))
    assert Fraction(1, 5) <= dens <= Fraction(1, 4)


def test_symbol_majority_single_position():
    fam = majority_family(3, 3, [{1}], [1])
    assert len(fam) == 9
    assert fam.density() == Fraction(1, 3)
    assert all(w[0] == 1 for w in fam.members())


def test_symbol_majority_full_block_matches_enumeration():
    # independent recount over all 27 words
    fam = majority_family(3, 3, [{1, 2, 3}], [1])
    expected = [
        w for w in product((1, 2, 3), repeat=3) if sum(1 for x in w if x == 1) >= 2
    ]
    assert len(fam) == len(expected) == 7
    assert sorted(fam.members()) == sorted(expected)
    assert fam.is_t_intersecting((1, 0, 0))
    assert fam.is_pinned_complete({1})
    assert fam.density() == majority_density(3, 3, [{1, 2, 3}], [1])


def test_symbol_majority_validation():
    with pytest.raises(ParameterError):
        majority_family(3, 3, [{1}], [2])  # t > block size
    with pytest.raises(ParameterError):
        majority_family(3, 3, [{1}], [0])


def test_symbol_majority_wide_block_density_shrinks():
    # block covering all 20 positions: exact tail under the concentration bound
    dens = majority_density(20, 3, [range(1, 21)], [1])
    eps = 2 / 3 - 1 / 2
    assert float(dens) < math.exp(-2 * eps**2 * 20 / 9)
    assert dens == sum(
        Fraction(math.comb(20, k)) * Fraction(1, 3) ** k * Fraction(2, 3) ** (20 - k)
        for k in range(11, 21)
    )


def test_window_threshold_family_examples():
    fam = window_threshold_family(3, 2, 0)
    assert fam == SetFamily.from_sets(3, [{1, 2}, {1, 2, 3}])
    fam = window_threshold_family(3, 1, 1)
    assert len(fam) == 4
    assert fam == SetFamily.from_indices(3, [m for m in range(8) if (m & 7).bit_count() >= 2])
    # radius 0 is the fixed-prefix family
    for n in range(2, 6):
        for t in range(0, n + 1):
            assert window_threshold_family(n, t, 0) == SetFamily.from_indices(
                n, [m for m in range(1 << n) if m & ((1 << t) - 1) == (1 << t) - 1]
            )
    with pytest.raises(ParameterError):
        window_threshold_family(3, 2, 1)


def test_window_threshold_upward_closed():
    for n, t, r in ((4, 1, 1), (5, 2, 1), (6, 3, 1), (4, 0, 2)):
        assert window_threshold_family(n, t, r).is_upward_closed()


def test_lift_examples():
    dictator = SetFamily.from_sets(2, [{1}]).up_closure()
    lifted = lift_family(dictator, 1, 3)
    assert len(lifted) == 3
    assert all(w[0] == 1 for w in lifted.members())
    small = lift_family(window_threshold_family(2, 2, 0), 2, 3)
    assert sorted(small.members()) == [(2, 2)]


def test_lift_density_and_projection():
    rng = random.Random(5)
    for seed in range(15):
        n = rng.randint(1, 4)
        s = rng.choice((2, 3))
        sym = rng.randint(1, s)
        base = SetFamily.from_indices(
            n, [m for m in range(1 << n) if rng.random() < 0.4]
        ).up_closure()
        lifted = lift_family(base, sym, s)
        assert lifted.density() == biased_measure(base, Fraction(1, s))
        assert lifted.project(sym) == base
        assert lifted.is_pinned_complete({sym})


def test_lift_rejects_non_upward_closed():
    with pytest.raises(ParameterError):
        lift_family(SetFamily.from_sets(3, [{1}]), 1, 3)


def test_fixed_coordinate_family():
    fam = fixed_coordinate_family(4, 3, (1, 2, 0))
    assert len(fam) == 3
    assert all(w[:3] == (1, 2, 2) for w in fam.members())
    assert fam.is_t_intersecting((1, 2, 0))
    assert brute_intersecting(fam, (1, 2, 0))


def test_block_product_small_cases():
    built = block_product_family(3, 3, (1, 1, 0))
    assert sorted(built.family.members()) == [(1, 2, 1), (1, 2, 2), (1, 2, 3)]
    assert built.density == Fraction(1, 9)

    built = block_product_family(5, 3, (3, 0, 0))
    assert len(built.family) == 11
    assert built.density == Fraction(11, 243)
    assert built.blocks[0].radius == 1
    assert built.family.is_t_intersecting((3, 0, 0))

    built = block_product_family(4, 3, (0, 0, 0))
    assert built.family.density() == 1


def test_block_product_density_matches_bound():
    for n in range(3, 6):
        for t in product(range(0, 4), repeat=3):
            try:
                bound = window_product_bound(n, 3, t)
            except ParameterError:
                continue
            built = block_product_family(n, 3, t)
            assert built.family.is_t_intersecting(t)
            assert len(built.family) <= bound.count
            if sum(bound.windows) <= n:
                assert built.density == bound.density
                assert len(built.family) == bound.count


def test_block_product_builds_beyond_capacity():
    # the paper's windows need 5 positions for (3, 0, 0); s = 2 has no such windows
    for n, s, t, size in ((4, 3, (3, 0, 0), 3), (4, 2, (1, 1), 4)):
        built = block_product_family(n, s, t)
        assert len(built.family) == size == max_family(n, s, t).max_size
        assert built.family.is_t_intersecting(t)
    with pytest.raises(ParameterError):
        block_product_family(4, 3, (3, 2, 0))


def test_block_product_partition_shape():
    built = block_product_family(9, 3, (3, 1, 1))
    positions = [j for b in built.blocks for j in b.positions]
    assert sorted(positions) == list(range(1, 10))
    assert built.blocks[0].positions == tuple(range(1, 6))  # window 5 for t=3
    assert built.blocks[-1].symbol == 3
    assert built.family.is_t_intersecting((3, 1, 1))


@pytest.mark.parametrize("s", [2, 3, 4])
def test_block_product_membership_matches_definition(s):
    # Decode every word by hand and count its window positions carrying each
    # block symbol; the windows are consecutive from position 1, each of
    # length t_i + 2*r_i with r_i the radius selected at bias 1/s where the
    # paper's windows fit, and the allocated radius elsewhere.
    for n in range(1, 8):
        params = SpaceParams(s, n)
        words = []
        for index in range(params.size):
            word, rem = [], index
            for _ in range(n):
                rem, digit = divmod(rem, s)
                word.append(digit + 1)
            words.append(word)
        satisfying = {}  # (symbol, window, need) -> indices meeting it
        for t in product(range(n + 1), repeat=s):
            if sum(t) > n:
                continue
            built = block_product_family(n, s, t)
            if paper_windows_fit(n, s, t):
                radii = [best_window_measure(n, ti, Fraction(1, s)).radius for ti in t]
            else:
                radii = [sel.radius for sel in product_allocation(n, s, t).selections]
            rule_sets = []
            cursor = 1
            for sym, (ti, block, radius) in enumerate(zip(t, built.blocks, radii), start=1):
                window = tuple(range(cursor, cursor + ti + 2 * radius))
                assert block.window == window
                cursor += len(window)
                if not ti:
                    continue
                rule = (sym, window, ti + radius)
                if rule not in satisfying:
                    satisfying[rule] = {
                        index
                        for index, word in enumerate(words)
                        if sum(1 for j in window if word[j - 1] == sym) >= ti + radius
                    }
                rule_sets.append(satisfying[rule])
            expected = set.intersection(*rule_sets) if rule_sets else range(params.size)
            assert list(built.family.indices()) == sorted(expected), (n, s, t)


def test_block_product_golden_bits():
    # values computed by the int-bitset implementation, pinned across representations
    fam = block_product_family(7, 3, (2, 1, 0)).family
    # words 1, 1, 2, *, *, *, *: indices 9 + 27k
    assert fam.bits == sum(1 << (9 + 27 * k) for k in range(81))
    assert fam.project(1).bits == 0x8080808080808080808080808080808
