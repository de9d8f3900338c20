import random
import tracemalloc
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from isecode import (
    Family,
    FamilyFormatError,
    ParameterError,
    SetFamily,
    SpaceParams,
    biased_measure,
    load_family,
    save_family,
)
import isecode.families
import isecode.words
from isecode.words import agreement_rows, decode

from conftest import (
    array_closure,
    array_pinned_violation,
    brute_closure,
    brute_intersecting,
    brute_is_complete,
    brute_pinned_violation,
    brute_up_closure,
    leq_pinned,
    random_family,
)


def test_membership_and_algebra():
    p = SpaceParams(3, 2)
    f = Family.from_words(p, [(1, 1), (1, 2)])
    assert len(f) == 2
    assert (1, 1) in f and (2, 1) not in f
    assert list(f.members()) == [(1, 1), (1, 2)]
    assert (f & f) == f
    assert (f & Family.empty(p)) == Family.empty(p)
    assert (f | f.complement()) == Family.full(p)
    # |F & G| for F = {y1 = 1}, G = {y2 = 2}: one word per fixed pair
    g1 = Family.from_words(p, [w for w in Family.full(p).members() if w[0] == 1])
    g2 = Family.from_words(p, [w for w in Family.full(p).members() if w[1] == 2])
    assert len(g1 & g2) == 1


def test_density_examples():
    assert Family.full(SpaceParams(2, 4)).density() == 1
    assert Family.empty(SpaceParams(2, 4)).density() == 0
    p = SpaceParams(3, 3)
    f = Family.from_words(p, [w for w in Family.full(p).members() if w[0] == 1 and w[1] == 2])
    assert f.density() == Fraction(1, 9)


def test_is_t_intersecting_examples():
    p = SpaceParams(3, 3)
    f = Family.from_words(p, [(1, 2, y) for y in (1, 2, 3)])
    assert f.is_t_intersecting((1, 1, 0))
    assert Family.full(p).is_t_intersecting((0, 0, 0))
    p2 = SpaceParams(2, 2)
    g = Family.from_words(p2, [(1, 1), (1, 2)])
    assert not g.is_t_intersecting((2, 0))


def test_is_t_intersecting_includes_self_pairs():
    p = SpaceParams(3, 3)
    # the lone member lacks a second 1, so the self pair already fails
    f = Family.from_words(p, [(1, 2, 3)])
    assert not f.is_t_intersecting((2, 0, 0))


def test_is_t_intersecting_across_chunks(monkeypatch):
    # packed rows of 100 members are two uint64 words: 10 rows per plane of 160 bytes
    monkeypatch.setattr(isecode.words, "_PLANE_BYTES", 160)
    p = SpaceParams(3, 8)
    demand = (2, 0, 0)
    # the 98 lowest-index words carrying symbol 1 at positions 1-3 agree there pairwise
    base = [w for w in (decode(p, i) for i in range(p.size)) if w[:3] == (1, 1, 1)][:98]
    # y and z meet every base word on two 1s but share only position 3; as the
    # highest-index members they form the only failing pair, in the last block
    y = (1, 2, 1, 2, 2, 2, 2, 3)
    z = (2, 1, 1, 2, 2, 2, 2, 3)
    fam = Family.from_words(p, base + [y, z])
    members = list(fam.members())
    assert len(members) == 100 and set(members[-2:]) == {y, z}
    full = (1 << 100) - 1
    chunks = list(agreement_rows(np.array(members), demand))
    assert [lo for lo, _ in chunks] == list(range(0, 100, 10))
    assert [all(row == full for row in rows) for _, rows in chunks] == [True] * 9 + [False]
    # y and z are the last two rows, and each misses only the other
    assert chunks[-1][1][-2:] == [full ^ 1 << 99, full ^ 1 << 98]
    assert not fam.is_t_intersecting(demand)
    assert not brute_intersecting(fam, demand)
    for drop in (y, z):
        rest = fam - Family.from_words(p, [drop])
        assert rest.is_t_intersecting(demand)
        assert brute_intersecting(rest, demand)


def test_is_t_intersecting_with_repeated_mark_sets(monkeypatch):
    # 245 members over n = 7 carry at most 2**7 = 128 distinct 1-sets, so the kernel
    # counts once per 1-set; the 243 words with 1s at positions 1 and 2 share 32 of them
    p = SpaceParams(3, 7)
    demand = (1, 0, 0)
    base = [w for w in (decode(p, i) for i in range(p.size)) if w[:2] == (1, 1)]
    # y and z each meet every base word, but their 1-sets {1, 3} and {2, 4} are disjoint
    y = (1, 2, 1, 3, 2, 3, 2)
    z = (3, 1, 2, 1, 2, 3, 3)
    fam = Family.from_words(p, base + [y, z])
    assert len(fam) == 245
    assert not brute_intersecting(fam, demand)
    trimmed = [fam - Family.from_words(p, [drop]) for drop in (y, z)]
    assert all(brute_intersecting(rest, demand) for rest in trimmed)
    # packed rows of 245 members are four uint64 words: 1, 3 and 10 rows per plane
    for plane_bytes in (isecode.words._PLANE_BYTES, 32, 96, 320):
        monkeypatch.setattr(isecode.words, "_PLANE_BYTES", plane_bytes)
        assert not fam.is_t_intersecting(demand)
        assert all(rest.is_t_intersecting(demand) for rest in trimmed)


def test_is_t_intersecting_exact_at_the_threshold():
    # at n = 26 the agreement counters must land exactly on need - 1 and need
    p = SpaceParams(2, 26)
    x = (1,) * 26
    y = (1,) * 25 + (2,)
    z = (2, 2) + (1,) * 24  # meets x on 24 ones and y on 23
    for need, members, ok in [
        (24, [x, y, z], False),
        (23, [x, y, z], True),
        (24, [x, y], True),
        (25, [x, y], True),
        (26, [x, y], False),
    ]:
        fam = Family.from_words(p, members)
        assert fam.is_t_intersecting((need, 0)) is ok
        assert brute_intersecting(fam, (need, 0)) is ok
        chunks = list(agreement_rows(np.array(members, dtype=np.uint8), (need, 0)))
        full = (1 << len(members)) - 1
        assert len(chunks) == 1 and all(row == full for row in chunks[0][1]) is ok


@pytest.mark.parametrize("seed", range(25))
def test_is_t_intersecting_matches_brute_force(seed):
    rng = random.Random(seed)
    s = rng.choice((2, 3))
    n = rng.randint(2, 4)
    params = SpaceParams(s, n)
    fam = random_family(params, seed + 1000, 1, 3)
    demand = tuple(rng.randint(0, 2) for _ in range(s))
    assert fam.is_t_intersecting(demand) == brute_intersecting(fam, demand)


def test_closure_examples():
    p = SpaceParams(2, 2)
    f = Family.from_words(p, [(2, 1)])
    assert sorted(f.pinned_closure({1}).members()) == [(1, 1), (2, 1)]
    assert not f.is_pinned_complete({1})
    g = Family.from_words(p, [(1, 1)])
    assert g.pinned_closure({1}) == g  # no coordinate is rewritable
    full = Family.full(p)
    assert full.pinned_closure({1}) == full
    assert full.is_pinned_complete({2})


def test_closure_rejects_bad_pins():
    p = SpaceParams(2, 2)
    f = Family.empty(p)
    with pytest.raises(ParameterError):
        f.pinned_closure({1, 2})
    with pytest.raises(ParameterError):
        f.pinned_closure(set())


@pytest.mark.parametrize("seed", range(30))
def test_closure_matches_brute_force(seed):
    rng = random.Random(seed)
    s = rng.choice((2, 3))
    n = rng.randint(1, 3)
    params = SpaceParams(s, n)
    fam = random_family(params, seed + 2000, 1, 3)
    pinned = set(rng.sample(range(1, s + 1), rng.randint(1, s - 1)))
    closed = fam.pinned_closure(pinned)
    assert closed == brute_closure(fam, pinned)
    assert brute_is_complete(closed, pinned)
    assert fam.is_pinned_complete(pinned) == brute_is_complete(fam, pinned)
    witness = fam.pinned_violation(pinned)
    assert (witness is None) == fam.is_pinned_complete(pinned)
    if witness is not None:
        x, y, pos = witness
        assert x in fam and y not in fam and leq_pinned(params, x, y, pinned)
        assert [j + 1 for j in range(n) if x[j] != y[j]] == [pos]


@pytest.mark.parametrize("seed", range(100))
def test_closure_idempotent_and_monotone(seed):
    rng = random.Random(seed)
    s = rng.choice((2, 3))
    n = rng.randint(1, 5)
    params = SpaceParams(s, n)
    fam = random_family(params, seed + 3000, 1, 4)
    pinned = set(rng.sample(range(1, s + 1), rng.randint(1, s - 1)))
    closed = fam.pinned_closure(pinned)
    assert fam.issubset(closed)
    assert closed.pinned_closure(pinned) == closed
    sub_bits = fam.bits
    if sub_bits:
        drop = rng.choice([i for i in range(params.size) if (sub_bits >> i) & 1])
        sub = Family(params, sub_bits & ~(1 << drop))
        assert sub.pinned_closure(pinned).issubset(closed)


@pytest.mark.parametrize("seed", range(30))
def test_closure_minimality(seed):
    # dropping any added word breaks completeness
    rng = random.Random(seed)
    s = rng.choice((2, 3))
    n = rng.randint(1, 3)
    params = SpaceParams(s, n)
    fam = random_family(params, seed + 4000, 1, 4)
    pinned = set(rng.sample(range(1, s + 1), rng.randint(1, s - 1)))
    closed = fam.pinned_closure(pinned)
    added = closed - fam
    for idx in added.indices():
        smaller = Family(params, closed.bits & ~(1 << idx))
        assert fam.issubset(smaller)
        assert not smaller.is_pinned_complete(pinned)


def _one_symbol_demand(s, sym, t):
    return tuple(t if i == sym else 0 for i in range(1, s + 1))


@pytest.mark.parametrize("seed", range(40))
def test_closure_preserves_one_symbol_demand(seed):
    # seed family: words with a symbol-i majority on a window, thinned at random
    rng = random.Random(seed)
    s = 3
    n = rng.randint(2, 4)
    sym = rng.randint(1, 3)
    t = rng.randint(1, 2)
    k = rng.randint(t, n)
    params = SpaceParams(s, n)
    threshold = (k + t + 1) // 2
    members = [
        w
        for w in Family.full(params).members()
        if sum(1 for j in range(k) if w[j] == sym) >= threshold and rng.random() < 0.7
    ]
    fam = Family.from_words(params, members)
    demand = _one_symbol_demand(s, sym, t)
    assert brute_intersecting(fam, demand)
    others = [x for x in range(1, s + 1) if x != sym]
    pinned = {sym} | set(rng.sample(others, rng.randint(0, 1)))
    closed = fam.pinned_closure(pinned)
    assert closed.is_t_intersecting(demand)


@pytest.mark.parametrize("seed", range(20))
def test_family_inside_both_closures(seed):
    rng = random.Random(seed)
    s = 3
    n = rng.randint(1, 4)
    params = SpaceParams(s, n)
    fam = random_family(params, seed + 5000, 1, 3)
    for r in (1, 2):
        head = set(range(1, r + 1))
        tail = set(range(r + 1, s + 1))
        both = fam.pinned_closure(head) & fam.pinned_closure(tail)
        assert fam.issubset(both)


def test_pinned_violation_witness():
    p = SpaceParams(2, 2)
    f = Family.from_words(p, [(2, 1)])
    witness = f.pinned_violation({1})
    assert witness is not None
    x, y, pos = witness
    assert x in f and y not in f
    assert x == (2, 1) and y == (1, 1) and pos == 1
    assert Family.full(p).pinned_violation({1}) is None


# Spaces for the sweep kernels: up to n = 8 they span several int blocks,
# with positions above the blocks, once the block size is patched small.
KERNEL_SPACES = [(2, n) for n in range(1, 9)] + [(3, n) for n in range(1, 7)] + [(4, 4), (5, 3)]


def _patch_block_words(monkeypatch, words):
    """Make the sweeps' int blocks hold at most `words` bits, with a fresh mask cache.

    The masks are cached per (s, n), so a shared cache would hand a patched
    test the masks of the real block size, and later tests the patched ones.
    """
    monkeypatch.setattr(isecode.families, "_BLOCK_WORDS", words)
    monkeypatch.setattr(isecode.families, "_BLOCK_MASKS", {})


def _patch_block_digits(monkeypatch, m, s):
    """Make each int block of the sweeps hold s**m words: positions 1..m in blocks, the rest above."""
    if m is not None:
        _patch_block_words(monkeypatch, s**m)


@pytest.mark.parametrize("m", [None, 1, 2, 3])
@pytest.mark.parametrize("s,n", KERNEL_SPACES)
def test_sweep_kernels_match_witness_oracle(monkeypatch, s, n, m):
    _patch_block_digits(monkeypatch, m, s)
    params = SpaceParams(s, n)
    rng = random.Random(100 * s + n)
    for _ in range(4):
        pins = set(rng.sample(range(1, s + 1), rng.randint(1, s - 1)))
        other = set(rng.sample(range(1, s + 1), rng.randint(1, s - 1)))
        seeds = [tuple(rng.randint(1, s) for _ in range(n)) for _ in range(rng.randint(1, 4))]
        raw = Family.from_words(params, seeds)
        closed = raw.pinned_closure(pins)
        assert closed == brute_closure(raw, pins)
        # more than n members: the position sweep over the patched blocks
        many = Family.from_indices(params, rng.sample(range(params.size), n + 1))
        assert many.pinned_closure(pins) == brute_closure(many, pins)
        # dropping one member opens gaps at the positions its neighbours reach it from
        punctured = closed - Family.from_words(params, [rng.choice(list(closed.members()))])
        for fam in (raw, closed, punctured):
            for p in (pins, other):
                want = brute_pinned_violation(fam, p)
                assert fam.pinned_violation(p) == want
                assert fam.is_pinned_complete(p) is (want is None)


# Spaces for the two closure rules, small enough for the brute-force closure.
RULE_SPACES = [(2, n) for n in range(1, 5)] + [(3, 1), (3, 2), (3, 3), (4, 2), (4, 3), (5, 2)]


def _pin_sets(s):
    """Every nonempty proper subset of the alphabet 1..s."""
    return [set(c) for r in range(1, s) for c in combinations(range(1, s + 1), r)]


@pytest.mark.parametrize("s,n", RULE_SPACES)
def test_both_closure_rules_match_brute_force(s, n):
    # 0, 1 and n members take the cylinder rule, n + 1 members the sweep
    params = SpaceParams(s, n)
    rng = random.Random(10 * s + n)
    for pins in _pin_sets(s):
        for m in (0, 1, n, n + 1):
            fam = Family.from_indices(params, rng.sample(range(params.size), m))
            assert len(fam) == m
            assert fam.pinned_closure(pins) == brute_closure(fam, pins)


@pytest.mark.parametrize("n", range(1, 9))
def test_both_up_closure_rules_match_brute_force(n):
    rng = random.Random(n)
    for m in (0, 1, n, n + 1):
        for _ in range(3):
            fam = SetFamily.from_indices(n, rng.sample(range(1 << n), m))
            assert fam.up_closure() == brute_up_closure(fam)


def test_few_member_closures_never_sweep(monkeypatch):
    def no_sweep(*args):
        raise AssertionError("position sweep called")

    monkeypatch.setattr(isecode.families, "_position_pass", no_sweep)
    monkeypatch.setattr(isecode.families, "_sweep_block", no_sweep)
    rng = random.Random(7)
    for s, n in [(2, 6), (3, 4), (4, 3), (5, 2)]:
        params = SpaceParams(s, n)
        for m in range(n + 1):
            fam = Family.from_indices(params, rng.sample(range(params.size), m))
            assert fam.pinned_closure({1}) == brute_closure(fam, {1})
        sets = SetFamily.from_indices(n, rng.sample(range(1 << n), n))
        assert sets.up_closure() == brute_up_closure(sets)
        more = Family.from_indices(params, rng.sample(range(params.size), n + 1))
        with pytest.raises(AssertionError, match="position sweep called"):
            more.pinned_closure({1})


def test_first_gap_position_wins_over_block_order(monkeypatch):
    # s = 2, n = 4: positions 1-2 run on int blocks of 4 indices, 3-4 above them
    _patch_block_words(monkeypatch, 4)
    p = SpaceParams(2, 4)
    cases = [
        # block 0 gaps only at position 2, block 1 at position 1: position 1 wins
        (Family.from_words(p, [(1, 2, 1, 1), (2, 1, 2, 1)]), ((2, 1, 2, 1), (1, 1, 2, 1), 1)),
        # blocks 1 and 2 both gap first at position 2: the lower index wins
        (Family.from_words(p, [(1, 2, 2, 1), (1, 2, 1, 2)]), ((1, 2, 2, 1), (1, 1, 2, 1), 2)),
        # closed at the low positions: the first gap is at a high position
        (Family.from_words(p, [(1, 1, 1, 2)]).pinned_closure({2}), ((1, 1, 1, 2), (1, 1, 1, 1), 4)),
    ]
    for fam, witness in cases:
        assert fam.pinned_violation({1}) == witness == brute_pinned_violation(fam, {1})


@pytest.mark.parametrize("m", [None, 1, 2])
@pytest.mark.parametrize("n", range(1, 9))
def test_set_family_sweeps_match_brute_force(monkeypatch, n, m):
    _patch_block_digits(monkeypatch, m, 2)
    rng = random.Random(n)
    for _ in range(6):
        fam = SetFamily.from_indices(n, rng.sample(range(1 << n), rng.randint(0, min(4, 1 << n))))
        up = brute_up_closure(fam)
        assert fam.up_closure() == up
        assert fam.is_upward_closed() is (fam == up)
        assert up.is_upward_closed()


# Real block sizes: (2, 17) is two int blocks of 2**16 words and one position
# above them, (3, 11) three blocks of 3**10, (4, 9) four blocks of 4**8.
MULTI_BLOCK_SPACES = [(2, 17, 16), (3, 11, 10), (4, 9, 8)]


@pytest.mark.parametrize("s,n,m", MULTI_BLOCK_SPACES)
def test_sweeps_at_multi_block_sizes_match_array_oracle(s, n, m):
    assert len(isecode.families._block_masks(s, n)) == m
    params = SpaceParams(s, n)
    last = params.size - s**m  # first index of the last block
    rng = random.Random(s * n)
    for pins in ({1}, {s}, set(range(2, s + 1))):
        free = [sym for sym in range(1, s + 1) if sym not in pins]
        # more than n members, one of them in the last block: the block sweep
        seeds = rng.sample(range(params.size), n) + [rng.randrange(last, params.size)]
        raw = Family.from_indices(params, seeds)
        closed = raw.pinned_closure(pins)
        assert closed == array_closure(raw, pins)
        # the only gap is a word of the last block, found after every block before it passed
        for y in rng.sample([y for y in closed.indices() if y >= last], 20):
            punctured = closed - Family.from_indices(params, [y])
            witness = array_pinned_violation(punctured, pins)
            if witness is not None:
                break
        assert witness[1] == decode(params, y)
        gaps = [(punctured, witness)]
        # the only gap is at the top position, above the blocks
        low = tuple(rng.choice(sorted(pins)) for _ in range(n - 1))
        cylinder = Family.from_words(params, [low + (sym,) for sym in range(1, s + 1)])
        y = low + (rng.choice(sorted(pins)),)
        punctured = cylinder - Family.from_words(params, [y])
        witness = (low + (free[0],), y, n)
        assert array_pinned_violation(punctured, pins) == witness
        gaps.append((punctured, witness))
        for fam, witness in gaps:
            assert fam.pinned_violation(pins) == witness
            assert not fam.is_pinned_complete(pins)
            assert fam.pinned_closure(pins) == array_closure(fam, pins)
        for fam in (raw, closed):
            want = array_pinned_violation(fam, pins)
            assert fam.pinned_violation(pins) == want
            assert fam.is_pinned_complete(pins) is (want is None)
        assert closed.is_pinned_complete(pins)


def test_block_masks_stay_within_one_block():
    # one mask per position over the whole 3**15-word space would take about 27 MB
    assert Family.full(SpaceParams(3, 15)).is_pinned_complete({1})
    tables = isecode.families._BLOCK_MASKS
    assert len(tables[3, 10]) == 10
    assert tables[3, 15] is tables[3, 10]  # every n with the same m shares one tuple
    assert all(mask.bit_length() <= 1 << 16 for masks in tables.values() for mask in masks)


@pytest.mark.parametrize("block_words", [None, 1, 5, 81, 1000])
def test_block_masks_match_index_arithmetic(monkeypatch, block_words):
    # mask j has bit x for each x < s**m whose digit j is 0, m the most positions that fit
    if block_words is not None:
        _patch_block_words(monkeypatch, block_words)
    limit = isecode.families._BLOCK_WORDS
    spaces = [(2, 16), (2, 17), (3, 10), (3, 6), (4, 8), (5, 6), (6, 6), (7, 5), (2, 3), (9, 1)]
    for s, n in spaces:
        masks = isecode.families._block_masks(s, n)
        m = len(masks)
        assert s**m <= limit and (m == n or s ** (m + 1) > limit), (s, n)
        x = np.arange(s**m)
        for j, mask in enumerate(masks):
            want = np.packbits(x // s**j % s == 0, bitorder="little").tobytes()
            assert mask == int.from_bytes(want, "little"), (s, n, j)
        assert isecode.families._block_masks(s, n) is masks


def test_completeness_sweep_runs_once_per_pin_set(sweeps):
    p = SpaceParams(3, 3)
    fam = Family.from_words(p, [(1, 2, 3)])
    for _ in range(2):
        assert fam.pinned_violation({1}) == brute_pinned_violation(fam, {1})
        assert not fam.is_pinned_complete({1})
    assert [free for _, free in sweeps] == [(1, 2)]
    assert not fam.is_pinned_complete({1, 2})
    assert [free for _, free in sweeps] == [(1, 2), (2,)]
    # a new object sweeps again, even for the same members
    assert not Family.from_words(p, [(1, 2, 3)]).is_pinned_complete({1})
    assert [free for _, free in sweeps] == [(1, 2), (2,), (1, 2)]


def test_slices_and_counting():
    p = SpaceParams(2, 2)
    f = Family.from_words(p, [(1, 1), (2, 1)])
    assert sorted(f.slice(1).members()) == [(1,), (2,)]
    assert len(f.slice(2)) == 0
    full = Family.full(SpaceParams(3, 3))
    for sl in full.slices():
        assert sl == Family.full(SpaceParams(3, 2))
    rng = random.Random(9)
    for seed in range(20):
        s = rng.choice((2, 3))
        n = rng.randint(2, 4)
        fam = random_family(SpaceParams(s, n), seed + 6000, 1, 2)
        assert sum(len(sl) for sl in fam.slices()) == len(fam)
    with pytest.raises(ParameterError):
        Family.full(SpaceParams(2, 1)).slice(1)


@pytest.mark.parametrize("seed", range(20))
def test_slice_sizes_of_complete_families(seed):
    # pinned-complete: slices at non-pinned symbols are equal and contained in all others
    rng = random.Random(seed)
    s = 3
    n = rng.randint(2, 4)
    params = SpaceParams(s, n)
    pinned = set(rng.sample(range(1, 4), rng.randint(1, 2)))
    fam = random_family(params, seed + 7000, 1, 6).pinned_closure(pinned)
    slices = fam.slices()
    free = [sym for sym in range(1, s + 1) if sym not in pinned]
    for i in free:
        for j in range(1, s + 1):
            assert slices[i - 1].issubset(slices[j - 1])
            assert len(slices[i - 1]) <= len(slices[j - 1])
    assert len({slices[i - 1].bits for i in free}) == 1


def test_project_examples():
    p = SpaceParams(2, 2)
    f = Family.from_words(p, [(1, 2), (1, 1)])
    proj = f.project(1)
    assert proj == SetFamily.from_sets(2, [{1}, {1, 2}])
    assert Family.full(p).project(1) == SetFamily.full(2)


@pytest.mark.parametrize("seed", range(25))
def test_projection_bridge(seed):
    # for a {i}-complete family, density equals the 1/s-biased measure of the projection
    rng = random.Random(seed)
    s = rng.choice((2, 3))
    n = rng.randint(1, 4)
    sym = rng.randint(1, s)
    params = SpaceParams(s, n)
    fam = random_family(params, seed + 8000, 1, 6).pinned_closure({sym})
    assert fam.density() == biased_measure(fam.project(sym), Fraction(1, s))


def test_set_family_upward_closure():
    fam = SetFamily.from_sets(3, [{1}])
    assert not fam.is_upward_closed()
    up = fam.up_closure()
    assert up == SetFamily.from_sets(3, [{1}, {1, 2}, {1, 3}, {1, 2, 3}])
    assert up.is_upward_closed()
    assert up.up_closure() == up
    assert SetFamily.full(3).is_upward_closed()
    assert {1, 2} in up and {2} not in up


def test_set_family_membership_refuses_elements_outside_the_ground_set():
    # membership shares from_sets' element rule: {0} is not a bare "negative shift count"
    # ValueError and {4} over n = 3 is not simply absent; both are refused
    fam = SetFamily.from_sets(3, [{1, 2}, {3}])
    for elems in ({0}, {4}, [2, 4], [0, 1]):
        with pytest.raises(ParameterError) as member_err:
            elems in fam
        with pytest.raises(ParameterError) as build_err:
            SetFamily.from_sets(3, [elems])
        assert str(member_err.value) == str(build_err.value)
    assert str(member_err.value) == "element 0 outside ground set 1..3"
    assert {1, 2} in fam and [2, 1, 2] in fam and {3} in fam
    assert set() not in fam and {1} not in fam and {1, 2, 3} not in fam


def test_membership_arrays_are_read_only_copies():
    p = SpaceParams(2, 2)
    src = np.array([True, False, False, True])
    fam = Family.from_array(p, src)
    src[1] = True
    assert fam == Family.from_words(p, [(1, 1), (2, 2)])
    with pytest.raises(ValueError):
        fam.array[1] = True
    with pytest.raises(ParameterError):
        Family.from_array(p, [True, False])
    assert SetFamily.from_array(2, [False, True, False, True]) == SetFamily.from_sets(2, [{1}, {1, 2}])


@pytest.mark.parametrize("n", [0, -1, 1.5, 27])
def test_set_family_refuses_bad_ground_size_before_allocating(n):
    # 27 is past the dense-storage cap: 2**27 subsets would take 128 MB
    builders = [
        lambda: SetFamily(n),
        lambda: SetFamily(n, 1),
        lambda: SetFamily.empty(n),
        lambda: SetFamily.full(n),
        lambda: SetFamily.from_array(n, np.zeros(4, dtype=bool)),
        lambda: SetFamily.from_indices(n, [0]),
    ]
    tracemalloc.start()
    try:
        for build in builders:
            with pytest.raises(ParameterError):
                build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_set_family_refuses_bits_past_the_subset_range():
    assert SetFamily(2, (1 << 4) - 1) == SetFamily.full(2)
    for bits in (1 << 4, 1 << 40, -1):
        with pytest.raises(ParameterError):
            SetFamily(2, bits)


@pytest.mark.parametrize("n", [1, 3])
def test_family_and_set_family_over_the_same_bits_differ(n):
    bits = 0b10110 & ((1 << (1 << n)) - 1)
    words, subsets = Family(SpaceParams(2, n), bits), SetFamily(n, bits)
    assert words.bits == subsets.bits and words.params == subsets.params
    assert words != subsets and subsets != words
    assert not words == subsets and not subsets == words


def test_equal_families_built_separately_hash_equal():
    sets = [{1}, {2, 3}, set(), {1, 2, 3}]
    masks = [0b001, 0b110, 0b000, 0b111]
    member = np.zeros(8, dtype=bool)
    member[masks] = True
    bits = sum(1 << m for m in masks)
    built = [
        SetFamily.from_sets(3, sets),
        SetFamily.from_indices(3, masks),
        SetFamily.from_array(3, member),
        SetFamily(3, bits),
    ]
    p = SpaceParams(3, 2)
    words = [(1, 1), (3, 2), (2, 3)]
    indices = [isecode.words.encode(p, w) for w in words]
    built_words = [
        Family.from_words(p, words),
        Family.from_indices(p, indices),
        Family.from_array(p, np.isin(np.arange(9), indices)),
        Family(p, sum(1 << i for i in indices)),
    ]
    for group in (built, built_words):
        assert all(fam == group[0] for fam in group)
        assert len({hash(fam) for fam in group}) == 1
    assert SetFamily.from_indices(3, masks[:2]) != built[0]


def test_upward_closed_sweeps_once(sweeps):
    fam = SetFamily.from_sets(3, [{1}])
    assert not fam.is_upward_closed()
    assert not fam.is_upward_closed()
    assert [free for _, free in sweeps] == [(0,)]


def test_text_round_trip(tmp_path):
    p = SpaceParams(3, 2)
    fam = Family.from_words(p, [(1, 2), (3, 1), (2, 2)])
    path = tmp_path / "f.fam"
    save_family(fam, str(path))
    assert load_family(str(path)) == fam
    assert path.read_text().splitlines()[0] == "3 2"


def test_text_empty_family(tmp_path):
    p = SpaceParams(3, 2)
    path = tmp_path / "empty.fam"
    save_family(Family.empty(p), str(path))
    loaded = load_family(str(path))
    assert len(loaded) == 0 and loaded.params == p


def test_text_parse_errors(tmp_path):
    path = tmp_path / "bad.fam"
    path.write_text("3 2\n12\n12\n")
    with pytest.raises(FamilyFormatError) as err:
        load_family(str(path))
    assert err.value.line == 3  # duplicate word
    path.write_text("3 2\n14\n")
    with pytest.raises(FamilyFormatError) as err:
        load_family(str(path))
    assert err.value.line == 2
    path.write_text("3 2\n123\n")
    with pytest.raises(FamilyFormatError):
        load_family(str(path))
    path.write_text("bogus\n")
    with pytest.raises(FamilyFormatError) as err:
        load_family(str(path))
    assert err.value.line == 1
    path.write_text("")
    with pytest.raises(FamilyFormatError):
        load_family(str(path))
    # the first bad line is reported with parse_word's reason, counting blank lines
    for text, line, reason in [
        ("3 2\n12\n10\n", 3, "symbol 0 outside alphabet 1..3"),
        ("3 2\n12\n21\n3\n", 4, "word length 1 does not match n = 2"),
        ("3 2\n12\n\n1x\n12\n", 4, "word '1x' is not a digit string"),
        ("3 2\r\n12\r\n\r\n12\r\n", 4, "duplicate word '12'"),
        ("3 2\n12\n12\n14\n", 3, "duplicate word '12'"),
        ("3 2\n14\n12\n12\n", 2, "symbol 4 outside alphabet 1..3"),
    ]:
        path.write_bytes(text.encode("ascii"))
        with pytest.raises(FamilyFormatError) as err:
            load_family(str(path))
        assert type(err.value.line) is int and err.value.line == line
        assert str(err.value) == f"line {line}: {reason}"
    # blank lines, surrounding whitespace and CRLF endings are accepted
    want = Family.from_words(SpaceParams(3, 2), [(1, 2), (2, 1)])
    for text in ("3 2\n\n 12 \n\t\n21\t\n", "3 2\r\n12\r\n\r\n21\r\n"):
        path.write_bytes(text.encode("ascii"))
        assert load_family(str(path)) == want


def test_binary_round_trip(tmp_path):
    p = SpaceParams(3, 4)
    fam = random_family(p, 42, 1, 3)
    path = tmp_path / "f.famb"
    save_family(fam, str(path))
    assert load_family(str(path)) == fam
    # short payload
    blob = path.read_bytes()
    path.write_bytes(blob[:-1])
    with pytest.raises(FamilyFormatError):
        load_family(str(path))
    # nonzero padding beyond s**n
    pad = bytearray(blob)
    pad[-1] |= 0x80
    path.write_bytes(bytes(pad))
    with pytest.raises(FamilyFormatError):
        load_family(str(path))


def test_file_formats_golden(tmp_path):
    # bytes and text written by the int-bitset implementation, pinned across representations
    p = SpaceParams(3, 4)
    fam = Family.from_words(p, [(2, 1, 3, 1), (1, 3, 2, 2), (3, 3, 1, 2)]).pinned_closure({1})
    save_family(fam, str(tmp_path / "f.famb"))
    save_family(fam, str(tmp_path / "f.fam"))
    golden = bytes.fromhex("0300000004000000" "ff9f3cf99f24c9ff244900")
    assert (tmp_path / "f.famb").read_bytes() == golden
    words = (
        "1111 2111 3111 1211 2211 3211 1311 2311 3311 1121 2121 3121 1221 1321 1131 2131 3131 "
        "1231 1331 1112 2112 3112 1212 2212 3212 1312 2312 3312 1122 1222 1322 1132 1232 1332 "
        "1113 2113 3113 1213 2213 3213 1313 2313 3313 1123 1223 1323 1133 1233 1333"
    ).split()
    assert (tmp_path / "f.fam").read_text() == "3 4\n" + "".join(w + "\n" for w in words)
    assert load_family(str(tmp_path / "f.famb")) == fam == load_family(str(tmp_path / "f.fam"))
