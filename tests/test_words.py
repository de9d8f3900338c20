import random
from itertools import product

import pytest

from isecode import ParameterError, SpaceParams, decode, encode, leq_pinned, meet, profile, satisfies
from isecode.words import (
    check_symbol_set,
    decode_matrix,
    format_word,
    parse_word,
)

from conftest import all_words


def test_params_validation():
    with pytest.raises(ParameterError):
        SpaceParams(1, 3)
    with pytest.raises(ParameterError):
        SpaceParams(2, 0)
    # 3**17 > 2**26
    with pytest.raises(ParameterError):
        SpaceParams(3, 17)
    assert SpaceParams(3, 4).size == 81


@pytest.mark.parametrize("s,n", [(2, 1), (2, 5), (2, 8), (3, 1), (3, 4), (3, 8)])
def test_encode_decode_round_trip(s, n):
    params = SpaceParams(s, n)
    for idx in range(params.size):
        assert encode(params, decode(params, idx)) == idx


def test_encode_examples():
    params = SpaceParams(2, 2)
    assert encode(params, (1, 1)) == 0
    assert encode(params, (2, 1)) == 1
    assert encode(params, (2, 2)) == params.size - 1
    p3 = SpaceParams(3, 4)
    assert encode(p3, (1, 1, 1, 1)) == 0
    assert encode(p3, (3, 3, 3, 3)) == p3.size - 1


def test_decode_matrix_matches_decode():
    params = SpaceParams(3, 4)
    idx = [0, 1, 40, 80]
    mat = decode_matrix(params, idx)
    for row, i in zip(mat, idx):
        assert tuple(int(x) for x in row) == decode(params, i)


def test_meet_examples():
    p = SpaceParams(3, 3)
    assert meet(p, (1, 2, 3), (1, 3, 3)) == (1, 0, 3)
    y = (2, 1, 3)
    assert meet(p, y, y) == y
    p2 = SpaceParams(2, 2)
    assert meet(p2, (1, 1), (2, 2)) == (0, 0)


def test_meet_commutative_random():
    p = SpaceParams(3, 5)
    rng = random.Random(0)
    for _ in range(50):
        y = tuple(rng.randint(1, 3) for _ in range(5))
        z = tuple(rng.randint(1, 3) for _ in range(5))
        assert meet(p, y, z) == meet(p, z, y)


def test_meet_dimension_mismatch():
    p = SpaceParams(3, 3)
    with pytest.raises(ParameterError):
        meet(p, (1, 2), (1, 2, 3))


def test_profile_examples():
    p = SpaceParams(3, 3)
    assert profile(p, (1, 2, 3), (1, 3, 3)) == (1, 0, 1)
    assert profile(p, (1, 2, 2), (1, 2, 2)) == (1, 2, 0)  # own histogram
    p2 = SpaceParams(2, 3)
    assert profile(p2, (1, 1, 2), (1, 2, 1)) == (1, 0)


def test_satisfies_examples():
    p = SpaceParams(3, 3)
    assert satisfies(p, (1, 2, 3), (1, 3, 3), (1, 0, 1))
    assert not satisfies(p, (1, 2, 3), (1, 3, 3), (1, 1, 0))
    # self pair: histogram must dominate the demand
    assert satisfies(p, (1, 1, 2), (1, 1, 2), (2, 1, 0))
    assert not satisfies(p, (1, 1, 2), (1, 1, 2), (2, 2, 0))


def test_satisfies_symmetry_and_monotonicity():
    p = SpaceParams(3, 4)
    rng = random.Random(1)
    for _ in range(100):
        y = tuple(rng.randint(1, 3) for _ in range(4))
        z = tuple(rng.randint(1, 3) for _ in range(4))
        t_hi = tuple(rng.randint(0, 2) for _ in range(3))
        t_lo = tuple(max(0, ti - rng.randint(0, 1)) for ti in t_hi)
        assert satisfies(p, y, z, t_hi) == satisfies(p, z, y, t_hi)
        if satisfies(p, y, z, t_hi):
            assert satisfies(p, y, z, t_lo)


def test_pinned_order_examples():
    p = SpaceParams(2, 2)
    assert leq_pinned(p, (2, 1), (1, 1), {1})
    assert not leq_pinned(p, (1, 1), (2, 1), {1})
    # all entries outside the pinned set: below each other in both directions
    p3 = SpaceParams(3, 2)
    assert leq_pinned(p3, (2, 3), (3, 2), {1})
    assert leq_pinned(p3, (3, 2), (2, 3), {1})


def test_pinned_order_rejects_full_alphabet():
    p = SpaceParams(2, 2)
    with pytest.raises(ParameterError):
        leq_pinned(p, (1, 1), (1, 1), {1, 2})
    with pytest.raises(ParameterError):
        check_symbol_set(p, {1, 2})
    with pytest.raises(ParameterError):
        check_symbol_set(p, set(), nonempty=True)


def _proper_subsets(s):
    syms = list(range(1, s + 1))
    out = []
    for mask in range(1 << s):
        sub = {syms[i] for i in range(s) if (mask >> i) & 1}
        if len(sub) < s:
            out.append(frozenset(sub))
    return out


@pytest.mark.parametrize("s,n", [(2, 1), (2, 2), (3, 1), (3, 2)])
def test_pinned_order_reflexive_transitive_exhaustive(s, n):
    params = SpaceParams(s, n)
    words = all_words(params)
    for pinned in _proper_subsets(s):
        rel = {
            (x, y) for x in words for y in words if leq_pinned(params, x, y, pinned)
        }
        for x in words:
            assert (x, x) in rel
        for x, y in rel:
            for z in words:
                if (y, z) in rel:
                    assert (x, z) in rel


def test_pinned_order_disjoint_two_way_changes():
    # x below y for pins A and y below x for pins B (A, B disjoint) forces every
    # changed coordinate to avoid A in x and B in y.
    params = SpaceParams(3, 2)
    words = all_words(params)
    pins_a, pins_b = {1}, {2}
    for x in words:
        for y in words:
            if leq_pinned(params, x, y, pins_a) and leq_pinned(params, y, x, pins_b):
                for xi, yi in zip(x, y):
                    if xi != yi:
                        assert xi not in pins_a
                        assert yi not in pins_b


def test_word_text_form():
    p = SpaceParams(3, 4)
    assert format_word(p, (1, 2, 3, 1)) == "1231"
    assert parse_word(p, "1231") == (1, 2, 3, 1)
    with pytest.raises(ParameterError):
        parse_word(p, "1241")
    with pytest.raises(ParameterError):
        parse_word(p, "12x1")
    big = SpaceParams(12, 2)
    with pytest.raises(ParameterError):
        format_word(big, (1, 10))


def test_product_order_matches_index_order():
    # ascending index enumerates position 1 fastest (little endian)
    params = SpaceParams(3, 2)
    assert all_words(params)[:4] == [(1, 1), (2, 1), (3, 1), (1, 2)]
    by_product = [tuple(reversed(w)) for w in product((1, 2, 3), repeat=2)]
    assert by_product == all_words(params)
