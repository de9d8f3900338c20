import random
from itertools import product

import numpy as np
import pytest

import isecode.words
from isecode import ParameterError, SpaceParams, decode, encode
from isecode.words import (
    agreement_rows,
    check_demand,
    check_symbol_set,
    clear_diagonal,
    decode_matrix,
    encode_matrix,
    int_rows,
    pack_rows,
    parse_word,
    unpack_ints,
)

from conftest import (
    all_words,
    brute_agreement,
    format_word,
    leq_pinned,
    meet,
    profile,
    satisfies,
)


def test_params_validation():
    with pytest.raises(ParameterError):
        SpaceParams(1, 3)
    with pytest.raises(ParameterError):
        SpaceParams(2, 0)
    # 3**17 > 2**26
    with pytest.raises(ParameterError):
        SpaceParams(3, 17)
    assert SpaceParams(3, 4).size == 81


def test_check_demand_with_word_length():
    assert check_demand(3, [2, 1, 0]) == check_demand(3, (2, 1, 0), 3) == (2, 1, 0)
    assert check_demand(3, (9, 0, 0)) == (9, 0, 0)  # without n the sum is not read
    # no dense-storage cap: 3**60 words are never stored
    assert check_demand(3, (1, 1, 0), 60) == (1, 1, 0)
    # the space first, then the entries, then the sum
    with pytest.raises(ParameterError, match="alphabet size"):
        check_demand(1, (5,), 2)
    with pytest.raises(ParameterError, match="word length must be"):
        check_demand(2, (1, 1, 1), 0)
    with pytest.raises(ParameterError, match="needs 3 entries"):
        check_demand(3, (5, 0), 2)
    with pytest.raises(ParameterError, match="non-negative"):
        check_demand(2, (5, -1), 2)
    with pytest.raises(ParameterError, match="^demand sum 4 exceeds word length 3$"):
        check_demand(2, (3, 1), 3)


@pytest.mark.parametrize("s,n", [(2, 1), (2, 5), (2, 8), (3, 1), (3, 4), (3, 8)])
def test_encode_decode_round_trip(s, n):
    params = SpaceParams(s, n)
    for idx in range(params.size):
        assert encode(params, decode(params, idx)) == idx
    whole = np.arange(params.size, dtype=np.int64)
    encoded = encode_matrix(params, decode_matrix(params, whole))
    assert encoded.dtype == np.int64 and np.array_equal(encoded, whole)
    empty = encode_matrix(params, decode_matrix(params, whole[:0]))
    assert empty.dtype == np.int64 and empty.shape == (0,)


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
        check_symbol_set(p, set())


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


@pytest.mark.parametrize("s,n,m", [(4, 4, 300), (3, 5, 250), (2, 9, 300)])
def test_agreement_rows_run_once_per_mark_set(monkeypatch, s, n, m):
    # rows drawn from 24 words repeat their mark sets; when 2**n < m some mark set must
    # repeat and the counters run once per distinct one, otherwise once per row
    params = SpaceParams(s, n)
    rng = np.random.default_rng(10 * s + n)
    pool = rng.integers(1, s + 1, size=(24, n))
    pool[0], pool[1] = 1, 2  # all-1 and all-2 rows: the miss count runs at need n for symbol 1
    digits = pool[rng.integers(0, len(pool), size=m)].astype(np.uint8)
    dedup = 2**n < m
    demands = [(0,) * s]  # all zero: every row full, no counter runs
    demands += [tuple(k if c == l else 0 for c in range(s)) for l in range(2) for k in (1, 2, n, n + 1)]
    demands += [(1, 1) + (0,) * (s - 2), (2, 1) + (1,) * (s - 2)]
    want = brute_agreement(params, [tuple(r) for r in digits.tolist()], demands)
    rows_seen, chains = [], set()
    kernel = isecode.words._at_least

    def spy(planes, marks, credit, depth):
        rows_seen.append(len(marks))
        chains.add("hit" if depth == need else "miss")
        return kernel(planes, marks, credit, depth)

    monkeypatch.setattr(isecode.words, "_at_least", spy)
    default = isecode.words._PLANE_BYTES  # one chunk of these m rows
    for plane_bytes in (default, 40, 200):
        monkeypatch.setattr(isecode.words, "_PLANE_BYTES", plane_bytes)
        for t in demands:
            rows_seen.clear()
            need = max(t)
            bits = _unpacked(list(agreement_rows(digits, t)), m)
            assert not bits[:, m:].any()
            assert np.array_equal(bits[:, :m], want[t]), (plane_bytes, t)
            if need > n:
                assert not bits.any() and not rows_seen  # the all-empty case runs no counter
            for sym, k in enumerate(t, start=1):
                if k and sum(t) == k and plane_bytes == default:
                    # the counters see each distinct mark set, or each row, once
                    marks = digits == sym
                    reach = (marks.sum(axis=1) >= k).any()
                    distinct = len({r.tobytes() for r in marks}) if dedup else m
                    assert sum(rows_seen) == (distinct if reach else 0), (t, rows_seen)
            bound = min(m, 2**n) if dedup else m
            assert sum(rows_seen) <= bound * sum(map(bool, t)), (plane_bytes, t)
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
    assert int_rows(rows) == [(1 << 0) | (1 << 9) | (1 << 64) | (1 << 69), 0]
    # rows of zero width (m = 0) are 0s
    assert int_rows(np.zeros((0, 0), dtype=np.uint64)) == []
    assert int_rows(np.zeros((3, 0), dtype=np.uint64)) == [0, 0, 0]
    rng = np.random.default_rng(7)
    for m in (0, 1, 7, 8, 63, 64, 65, 200):
        for k in (0, 1, 5):
            bits = rng.random((k, m)) < 0.5
            ints = int_rows(pack_rows(bits))
            assert ints == [sum(1 << y for y in np.flatnonzero(row).tolist()) for row in bits]
            back = unpack_ints(ints, m)
            assert back.dtype == bool and back.shape == (k, m)
            assert np.array_equal(back, bits), (m, k)
    # a chunk of rows lo, lo + 1, ... of a square matrix loses its diagonal bits
    for m, lo, k in ((70, 0, 3), (70, 62, 5), (130, 64, 66), (9, 4, 5)):
        rows = pack_rows(np.ones((k, m), dtype=bool))
        clear_diagonal(rows, lo)
        assert int_rows(rows) == [(1 << m) - 1 - (1 << (lo + i)) for i in range(k)]
        assert np.array_equal(unpack_ints(int_rows(rows), m), ~np.eye(m, dtype=bool)[lo : lo + k])
