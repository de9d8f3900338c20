import random
from fractions import Fraction
from itertools import product
from math import comb, prod

import pytest

from isecode import (
    CapacityError,
    ParameterError,
    SetFamily,
    best_window_measure,
    biased_measure,
    format_rational,
    max_window_radius,
    min_window_length,
    parse_rational,
    power_bound,
    product_allocation,
    window_measure,
    window_product_bound,
    window_threshold_family,
)


def test_biased_measure_examples():
    assert biased_measure(SetFamily.full(4), Fraction(2, 7)) == 1
    # sets containing a fixed prefix: independence gives p**t
    prefix = SetFamily.from_sets(4, [{1, 2}]).up_closure()
    assert biased_measure(prefix, Fraction(1, 3)) == Fraction(1, 9)
    fam = window_threshold_family(3, 1, 1)
    assert len(fam) == 4
    assert biased_measure(fam, Fraction(1, 2)) == Fraction(1, 2)


def test_biased_measure_normalization_random_p():
    rng = random.Random(0)
    for _ in range(20):
        den = rng.randint(2, 50)
        num = rng.randint(0, den)
        n = rng.randint(1, 6)
        assert biased_measure(SetFamily.full(n), Fraction(num, den)) == 1


def test_biased_measure_rejects_floats_and_bad_p():
    with pytest.raises(ParameterError):
        biased_measure(SetFamily.full(2), 0.5)
    with pytest.raises(ParameterError):
        biased_measure(SetFamily.full(2), Fraction(3, 2))


def test_window_measure_examples():
    assert window_measure(2, 0, Fraction(1, 3)) == Fraction(1, 9)
    assert window_measure(2, 1, Fraction(1, 3)) == Fraction(1, 9)
    assert window_measure(3, 1, Fraction(1, 3)) == Fraction(11, 243)


@pytest.mark.parametrize("t", range(0, 5))
@pytest.mark.parametrize("r", range(0, 4))
@pytest.mark.parametrize("p", [Fraction(1, 3), Fraction(1, 4), Fraction(2, 5)])
def test_window_measure_independent_of_ground_set(t, r, p):
    # measuring the materialized family on any ground set gives the window value
    for n in range(t + 2 * r, t + 2 * r + 5):
        if n < 1:
            continue
        fam = window_threshold_family(n, t, r)
        assert biased_measure(fam, p) == window_measure(t, r, p)


def test_max_window_radius():
    assert max_window_radius(10, 2) == 4
    assert max_window_radius(5, 5) == 0
    assert max_window_radius(5, 3) == 1
    with pytest.raises(ParameterError):
        max_window_radius(2, 3)


def test_best_window_measure_examples():
    sel = best_window_measure(6, 2, Fraction(1, 3))
    assert (sel.radius, sel.value) == (0, Fraction(1, 9))
    sel = best_window_measure(2, 2, Fraction(1, 3))  # radius cap 0
    assert (sel.radius, sel.value) == (0, Fraction(1, 9))
    sel = best_window_measure(5, 3, Fraction(1, 3))
    assert (sel.radius, sel.value) == (1, Fraction(11, 243))
    sel = best_window_measure(9, 3, Fraction(1, 3))
    assert (sel.radius, sel.value) == (1, Fraction(11, 243))
    sel = best_window_measure(4, 2, Fraction(1, 2))
    assert (sel.radius, sel.radius_cap, sel.value) == (1, 1, Fraction(5, 16))
    assert best_window_measure(7, 0, Fraction(1, 3)).value == 1
    assert best_window_measure(7, 1, Fraction(1, 3)).value == Fraction(1, 3)


def test_best_window_measure_domain():
    with pytest.raises(ParameterError):
        best_window_measure(5, 2, Fraction(2, 3))
    with pytest.raises(ParameterError):
        best_window_measure(5, 2, Fraction(0))
    with pytest.raises(ParameterError):
        best_window_measure(1, 2, Fraction(1, 3))  # n < t


@pytest.mark.parametrize("t", range(2, 7))
@pytest.mark.parametrize("r", range(0, 5))
def test_window_boundary_continuity(t, r):
    p = Fraction(r + 1, t + 2 * r + 1)
    assert window_measure(t, r, p) == window_measure(t, r + 1, p)


@pytest.mark.parametrize("s,t", [(3, 0), (3, 1), (3, 2), (4, 1), (4, 2), (4, 3), (5, 4)])
def test_agreement_with_power_form(s, t):
    # below the alphabet size the best window is the plain prefix: value s**-t
    sel = best_window_measure(max(t, 1) + 6, t, Fraction(1, s))
    assert sel.value == Fraction(1, s**t)
    assert sel.radius == 0


@pytest.mark.parametrize("s,t", [(3, 3), (3, 4), (3, 5), (4, 4), (4, 6), (5, 7)])
def test_value_stable_above_min_window(s, t):
    m = min_window_length(t, s)
    base = best_window_measure(m, t, Fraction(1, s))
    for n in range(m, m + 5):
        sel = best_window_measure(n, t, Fraction(1, s))
        assert sel.value == base.value
        assert t + 2 * sel.radius <= m


def test_min_window_length():
    assert min_window_length(3, 3) == 5
    assert min_window_length(1, 3) == 1  # raw ceiling is negative, clamped
    assert min_window_length(2, 3) == 2
    assert min_window_length(0, 3) == 0
    with pytest.raises(ParameterError):
        min_window_length(2, 2)


def test_power_bound_examples():
    assert power_bound(3, 3, (1, 1, 0)) == 3
    assert power_bound(2, 3, (1, 0, 0)) == 3
    assert power_bound(4, 3, (0, 0, 0)) == 81
    with pytest.raises(ParameterError):
        power_bound(5, 3, (3, 0, 0))
    with pytest.raises(ParameterError):
        power_bound(2, 3, (1, 1, 1))  # sum exceeds n
    with pytest.raises(ParameterError):
        power_bound(3, 3, (1, 1))  # wrong arity


def test_product_bound_examples():
    b = window_product_bound(3, 3, (1, 1, 0))
    assert (b.count, b.density) == (3, Fraction(1, 9))
    assert window_product_bound(5, 3, (3, 0, 0)).count == 11
    assert window_product_bound(5, 3, (1, 1, 1)).count == 9
    with pytest.raises(ParameterError):
        window_product_bound(4, 2, (1, 1))
    with pytest.raises(CapacityError) as err:
        window_product_bound(2, 3, (3, 0, 0))
    assert err.value.deficit == 3


def test_product_bound_count_matches_tail_sum():
    # independent recount of the 11-word value: C(5,4)*2 + C(5,5)
    assert comb(5, 4) * 2 + comb(5, 5) == 11
    assert window_product_bound(5, 3, (3, 0, 0)).density == Fraction(11, 243)


def test_product_bound_dominates_power_form():
    # wherever both apply the product equals the power form; above it when a
    # demand entry reaches the alphabet size
    for n in range(1, 5):
        for t1 in range(0, 3):
            for t2 in range(0, 3):
                for t3 in range(0, 3):
                    t = (t1, t2, t3)
                    if sum(t) > n:
                        continue
                    b = window_product_bound(n, 3, t)
                    assert b.density == Fraction(1, 3 ** sum(t))
    assert window_product_bound(5, 3, (3, 0, 0)).density > Fraction(1, 27)


def test_bounds_are_pure_formulas_beyond_dense_cap():
    # no family is materialized, so the dense-storage cap must not apply
    assert power_bound(60, 3, (1, 1, 0)) == 3**58
    b = window_product_bound(60, 3, (3, 0, 0))
    assert b.density == Fraction(11, 243)
    assert b.count == 11 * 3**55


def test_product_allocation_equals_product_bound():
    # wherever the paper's capacity condition holds, the exact allocation is
    # the formula: same density, count, radii and windows
    applied = 0
    for s in (3, 4):
        for n in range(1, 10):
            for t in product(range(n + 1), repeat=s):
                if sum(t) > n:
                    continue
                try:
                    bound = window_product_bound(n, s, t)
                except CapacityError:
                    alloc = product_allocation(n, s, t)
                    assert sum(alloc.windows) <= n
                    continue
                assert product_allocation(n, s, t) == bound, (n, s, t)
                applied += 1
    assert applied == 1510


def test_product_allocation_beyond_capacity():
    alloc = product_allocation(6, 3, (4, 0, 0))  # the paper's windows need 8 positions
    assert (alloc.count, alloc.windows) == (13, (6, 0, 0))
    assert alloc.selections[0].radius == 1
    assert alloc.density == window_measure(4, 1, Fraction(1, 3))
    with pytest.raises(ParameterError):
        product_allocation(3, 3, (2, 1, 1))  # demand sum exceeds n
    with pytest.raises(ParameterError):
        product_allocation(3, 1, (1,))


def test_product_allocation_matches_enumeration():
    # every radius tuple whose windows fit; the best density wins, then the
    # smallest total window length, then the lexicographically smallest radii
    ties = 0
    for s, n_max in ((2, 10), (3, 8)):
        p = Fraction(1, s)
        for n in range(1, n_max + 1):
            for t in product(range(n + 1), repeat=s):
                if sum(t) > n:
                    continue
                options = []
                for radii in product(*(range(max_window_radius(n, ti) + 1) for ti in t)):
                    used = sum(ti + 2 * r for ti, r in zip(t, radii))
                    if used <= n:
                        density = prod(window_measure(ti, r, p) for ti, r in zip(t, radii))
                        options.append((-density, used, radii))
                options.sort()
                if len(options) > 1 and options[1][0] == options[0][0]:
                    ties += 1
                alloc = product_allocation(n, s, t)
                got = (-alloc.density, sum(alloc.windows), tuple(x.radius for x in alloc.selections))
                assert got == options[0], (n, s, t)
    assert ties > 0


def test_product_allocation_binary_brute_force():
    # two blocks of every size pair, each with its best majority threshold
    def tail(m, ti):  # ways to mark at least (m + ti) / 2 of m positions
        return sum(comb(m, k) for k in range((m + ti + 1) // 2, m + 1))

    n, t = 40, (3, 2)
    best = max(
        tail(n1, t[0]) * tail(n2, t[1]) * 2 ** (n - n1 - n2)
        for n1 in range(n + 1)
        for n2 in range(n - n1 + 1)
    )
    alloc = product_allocation(n, 2, t)
    assert alloc.count == best
    assert alloc.density == Fraction(best, 2**n)
    assert alloc.count == tail(alloc.windows[0], 3) * tail(alloc.windows[1], 2) * 2 ** (
        n - sum(alloc.windows)
    )


def test_rational_text_forms():
    assert parse_rational("11/243") == Fraction(11, 243)
    assert parse_rational("4") == 4
    assert format_rational(Fraction(1, 4)) == "1/4"
    assert format_rational(Fraction(8, 4)) == "2"
    with pytest.raises(ParameterError):
        parse_rational("1/0")
    with pytest.raises(ParameterError):
        parse_rational("x")
