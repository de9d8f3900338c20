import random
from itertools import product

import numpy as np
import pytest

import isecode.words
from isecode import ParameterError, SpaceParams, decode, encode, leq_pinned, meet, profile, satisfies
from isecode.words import (
    agreement_rows,
    check_symbol_set,
    decode_matrix,
    format_word,
    pack_rows,
    parse_word,
)

from conftest import all_words, brute_agreement


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


def _unpacked(chunks, m):
    """The (m, 64 * words) bits of the kernel's chunks, checked to cover rows 0..m-1 in order."""
    sizes = [len(rows) for _, rows in chunks]
    assert [lo for lo, _ in chunks] == [sum(sizes[:i]) for i in range(len(sizes))]
    rows = np.concatenate([r for _, r in chunks]) if chunks else np.zeros((0, 0), np.uint64)
    assert rows.dtype == np.uint64 and rows.shape == (m, (m + 63) // 64)
    return np.unpackbits(rows.view(np.uint8), axis=1, bitorder="little").astype(bool)


@pytest.mark.parametrize("s,n", [(2, 9), (3, 6), (4, 5), (5, 4)])
@pytest.mark.parametrize("m", [0, 1, 63, 64, 65, 200])
def test_agreement_rows_match_brute_force(monkeypatch, s, n, m):
    params = SpaceParams(s, n)
    rng = np.random.default_rng(1000 * s + m)
    # each row favours one symbol, so demands up to n still leave some rows nonempty
    favourite = rng.integers(1, s + 1, size=(m, 1))
    noise = rng.integers(1, s + 1, size=(m, n))
    digits = np.where(rng.random((m, n)) < 0.6, favourite, noise).astype(np.uint8)
    demands = [(0,) * s]
    demands += [tuple(k if c == l else 0 for c in range(s)) for l in range(s) for k in range(n + 1)]
    demands += [tuple(int(x) for x in rng.integers(0, n // 2 + 1, size=s)) for _ in range(4)]
    want = brute_agreement(params, [tuple(r) for r in digits.tolist()], demands)
    chains = set()
    kernel = isecode.words._at_least

    def spy(planes, marks, credit, depth):
        # on a one-symbol demand the hit count runs to depth == need; the miss count is shallower
        if sum(t) == max(t):
            chains.add("hit" if depth == max(t) else "miss")
        return kernel(planes, marks, credit, depth)

    monkeypatch.setattr(isecode.words, "_at_least", spy)
    # 40 bytes: 5, 2 and 1 rows per chunk at 1, 2 and 4 words per row
    for plane_bytes in (isecode.words._PLANE_BYTES, 40, 200):
        monkeypatch.setattr(isecode.words, "_PLANE_BYTES", plane_bytes)
        for t in demands:
            bits = _unpacked(list(agreement_rows(digits, t)), m)
            assert not bits[:, m:].any()  # no padding bit at or above m
            assert np.array_equal(bits[:, :m], want[t]), (plane_bytes, t)
    if m >= 63:
        assert chains == {"hit", "miss"}


def test_agreement_rows_empty_below_own_count(monkeypatch):
    # need 7 of symbol 1 over n = 8: the miss count (depth 8 - 7 + 1 = 2) runs; the rows
    # with 6 and 0 ones have miss thresholds 0 and -6, which a per-row level index would wrap
    digits = np.array(
        [(1,) * 8, (1,) * 7 + (2,), (1,) * 6 + (2, 2), (2,) * 8, (2,) + (1,) * 7], dtype=np.uint8
    )
    for plane_bytes in (isecode.words._PLANE_BYTES, 8):
        monkeypatch.setattr(isecode.words, "_PLANE_BYTES", plane_bytes)
        chunks = list(agreement_rows(digits, (7, 0)))
        assert len(chunks) == (1 if plane_bytes > 8 else 5)
        bits = _unpacked(chunks, 5)[:, :5]
        assert bits.tolist() == [
            [True, True, False, False, True],
            [True, True, False, False, False],
            [False] * 5,
            [False] * 5,
            [True, False, False, False, True],
        ]
    # a demand above n leaves every row empty; an all-zero demand leaves every row full
    assert not _unpacked(list(agreement_rows(digits, (9, 0))), 5).any()
    full = _unpacked(list(agreement_rows(digits, (0, 0))), 5)
    assert full[:, :5].all() and not full[:, 5:].any()


def test_pack_rows_layout():
    bits = np.zeros((2, 70), dtype=bool)
    bits[0, [0, 9, 64, 69]] = True
    rows = pack_rows(bits)
    assert rows.shape == (2, 2) and rows.dtype == np.uint64
    assert int.from_bytes(rows[0].tobytes(), "little") == (1 << 0) | (1 << 9) | (1 << 64) | (1 << 69)
    assert int.from_bytes(rows[1].tobytes(), "little") == 0
