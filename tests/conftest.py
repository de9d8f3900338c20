"""Shared brute-force oracles, kept independent of the library's fast paths.

These recompute expected values from the raw definitions (explicit loops over
words and pairs) so the bitset implementations, the agreement kernel's
packed rows among them, are checked against a second route.  The per-word
definitions of the paper (`meet`, `profile`, `satisfies`, the pinned order
`leq_pinned` and the text form `format_word`) live here, not in the
package, which computes the same notions only in vectorised form.  So does
the paper's capacity condition (`paper_windows_fit`): where it holds, the
package's allocation is the product of each symbol's own best window.  The
`sweeps` fixture records the completeness checks a test causes, so tests
can count them.
"""

from __future__ import annotations

import random
from itertools import combinations
from typing import Iterable, Sequence

import numpy as np
import pytest

import isecode.families
from isecode import Family, SetFamily, SpaceParams
from isecode.words import (
    ParameterError,
    Word,
    check_demand,
    check_symbol_set,
    check_word,
    decode,
)


@pytest.fixture
def sweeps(monkeypatch):
    """(membership array, free digits) of every completeness check, in call order."""
    swept = []
    sweep = isecode.families._is_closed

    def recording(member, s, n, free):
        swept.append((member, tuple(free)))
        return sweep(member, s, n, free)

    monkeypatch.setattr(isecode.families, "_is_closed", recording)
    return swept


def meet(params: SpaceParams, y: Sequence[int], z: Sequence[int]) -> Word:
    """Coordinatewise agreement vector: agreeing coordinates keep their symbol, others become 0."""
    wy = check_word(params, y)
    wz = check_word(params, z)
    return tuple(a if a == b else 0 for a, b in zip(wy, wz))


def profile(params: SpaceParams, y: Sequence[int], z: Sequence[int]) -> tuple[int, ...]:
    """Agreement profile (c_1, ..., c_s): c_l = number of coordinates where both words carry l."""
    counts = [0] * params.s
    for sym in meet(params, y, z):
        if sym:
            counts[sym - 1] += 1
    return tuple(counts)


def satisfies(
    params: SpaceParams, y: Sequence[int], z: Sequence[int], demand: Sequence[int]
) -> bool:
    """True when the pair's agreement profile dominates the demand componentwise."""
    t = check_demand(params.s, demand)
    prof = profile(params, y, z)
    return all(c >= need for c, need in zip(prof, t))


def leq_pinned(
    params: SpaceParams, x: Sequence[int], y: Sequence[int], pinned: Iterable[int]
) -> bool:
    """Pinned order: every coordinate of x carrying a pinned symbol must be unchanged in y.

    The pinned set must be a proper subset of the alphabet.  Coordinates whose
    symbol is not pinned are free, so two words that differ only on such
    coordinates are below each other in both directions.
    """
    # check_symbol_set refuses the empty pin set, which the exhaustive order tests walk through
    syms = check_symbol_set(params, pinned) if pinned else frozenset()
    wx = check_word(params, x)
    wy = check_word(params, y)
    return all(a == b or a not in syms for a, b in zip(wx, wy))


def format_word(params: SpaceParams, word: Sequence[int]) -> str:
    """Digit-string text form, e.g. (1, 2, 3, 1) -> "1231"; requires s <= 9."""
    if params.s > 9:
        raise ParameterError("digit-string form needs s <= 9; use the binary family format")
    return "".join(str(sym) for sym in check_word(params, word))


def paper_window_length(t: int, s: int) -> int:
    """The paper's window length for threshold t at bias 1/s, s >= 3.

    It is t + 2r with r = max(0, ceil((t - s + 1) / (s - 2))), the radius the
    interval rule of best_window_measure selects once the window fits.
    """
    assert s >= 3
    return t + 2 * max(0, -((s - 1 - t) // (s - 2)))


def paper_windows_fit(n: int, s: int, demand) -> bool:
    """The paper's capacity condition: s >= 3 and the windows of all demand entries fit into n."""
    return s >= 3 and sum(paper_window_length(t, s) for t in demand) <= n


def all_words(params: SpaceParams):
    return [decode(params, i) for i in range(params.size)]


def brute_closure(family: Family, pinned) -> Family:
    params = family.params
    members = list(family.members())
    out = []
    for z in all_words(params):
        if any(leq_pinned(params, y, z, pinned) for y in members):
            out.append(z)
    return Family.from_words(params, out)


def brute_is_complete(family: Family, pinned) -> bool:
    params = family.params
    members = list(family.members())
    for x in members:
        for z in all_words(params):
            if leq_pinned(params, x, z, pinned) and z not in family:
                return False
    return True


def brute_pinned_violation(family: Family, pinned):
    """(x, y, position) at the first position whose rewrites add a word, or None.

    y is the lowest-index non-member that some member x reaches by rewriting
    a non-pinned symbol at that position, and x the lowest-index such member.
    """
    params = family.params
    members = set(family.members())
    for j in range(params.n):
        for y in all_words(params):
            if y in members:
                continue
            for sym in range(1, params.s + 1):
                x = y[:j] + (sym,) + y[j + 1 :]
                if x in members and sym not in pinned:
                    return x, y, j + 1
    return None


def rewrite_sources(member: np.ndarray, s: int, n: int, pinned, j: int) -> np.ndarray:
    """Per index y, the lowest-index member x that differs from y at most at position j
    (1-based) and carries a non-pinned symbol there, or -1 where there is none.

    Index arithmetic on the definition of the index order (digit j - 1 of y is
    y // s**(j - 1) % s, symbol = digit + 1); fast enough for spaces of a few
    hundred thousand words, where the word-by-word oracles above are not.
    """
    y = np.arange(s**n)
    digit = y // s ** (j - 1) % s
    source = np.full(y.size, -1)
    for sym in range(s, 0, -1):  # the lowest symbol, so the lowest x, writes last
        if sym not in pinned:
            x = y + (sym - 1 - digit) * s ** (j - 1)
            hit = member[x]
            source[hit] = x[hit]
    return source


def array_pinned_violation(family: Family, pinned):
    """`brute_pinned_violation` by `rewrite_sources`, one position at a time."""
    params = family.params
    member = family.array
    for j in range(1, params.n + 1):
        source = rewrite_sources(member, params.s, params.n, pinned, j)
        gap = np.flatnonzero((source >= 0) & ~member)
        if gap.size:
            y = int(gap[0])
            return decode(params, int(source[y])), decode(params, y), j
    return None


def array_closure(family: Family, pinned) -> Family:
    """`brute_closure` as the fixed point of adding every single-position rewrite of a member."""
    params = family.params
    member = family.array.copy()
    grew = True
    while grew:
        size = np.count_nonzero(member)
        for j in range(1, params.n + 1):
            member |= rewrite_sources(member, params.s, params.n, pinned, j) >= 0
        grew = np.count_nonzero(member) > size
    return Family.from_array(params, member)


def brute_up_closure(family: SetFamily) -> SetFamily:
    masks = list(family.indices())
    ups = [m for m in range(1 << family.n) if any(a & m == a for a in masks)]
    return SetFamily.from_indices(family.n, ups)


def brute_intersecting(family: Family, demand) -> bool:
    params = family.params
    members = list(family.members())
    for y in members:
        if not satisfies(params, y, y, demand):
            return False
    for y, z in combinations(members, 2):
        if not satisfies(params, y, z, demand):
            return False
    return True


def brute_agreement(params: SpaceParams, rows, demands) -> dict:
    """Per demand, the (m, m) bool matrix of `satisfies` over ordered pairs of rows.

    Each pair's profile is computed once by `profile` and compared with every
    demand componentwise, as `satisfies` compares it.
    """
    m = len(rows)
    prof = np.array(
        [profile(params, y, z) for y in rows for z in rows], dtype=np.int64
    ).reshape(m, m, params.s)
    return {t: (prof >= np.array(t, dtype=np.int64)).all(axis=2) for t in demands}


def brute_max_intersecting(n: int, s: int, demand) -> int:
    """Maximum family size by enumerating all subsets of the valid words."""
    params = SpaceParams(s, n)
    verts = [w for w in all_words(params) if satisfies(params, w, w, demand)]
    m = len(verts)
    assert m <= 16, "subset enumeration oracle limited to 2**16 cases"
    compat = [
        [satisfies(params, verts[i], verts[j], demand) for j in range(m)] for i in range(m)
    ]
    best = 0
    for mask in range(1 << m):
        size = mask.bit_count()
        if size <= best:
            continue
        chosen = [i for i in range(m) if (mask >> i) & 1]
        if all(compat[i][j] for i, j in combinations(chosen, 2)):
            best = size
    return best


def brute_max_clique(n: int, s: int, demand) -> int:
    """Maximum family size as a maximum clique of the words, by plain branch and bound.

    The vertices are the words that meet the demand with themselves, joined
    when they meet it with each other (`satisfies`).  The search grows each
    clique by its candidates in ascending order and prunes only when the
    clique and all its candidates together cannot beat the best so far, so
    it uses no coloring, symmetry or pattern structure.
    """
    params = SpaceParams(s, n)
    verts = [w for w in all_words(params) if satisfies(params, w, w, demand)]
    m = len(verts)
    nbrs = [
        {j for j in range(m) if j != i and satisfies(params, verts[i], verts[j], demand)}
        for i in range(m)
    ]
    best = 0

    def grow(size: int, cand: set) -> None:
        nonlocal best
        best = max(best, size)
        for v in sorted(cand):
            if size + len(cand) <= best:
                return
            cand = cand - {v}
            grow(size + 1, cand & nbrs[v])

    grow(0, set(range(m)))
    return best


def brute_shift(family: Family, i: int, j: int, symbol: int = 1) -> Family:
    """Frankl's shift S_ij (1-based positions i < j) of the `symbol`-sets of an s = 2 family.

    Each member carrying `symbol` at j and the other symbol at i moves to the
    word with those two symbols swapped, unless that word is a member.
    """
    params = family.params
    assert params.s == 2 and 1 <= i < j <= params.n
    other = 3 - symbol
    members = set(family.members())
    out = []
    for word in members:
        image = list(word)
        if word[j - 1] == symbol and word[i - 1] == other:
            image[i - 1], image[j - 1] = symbol, other
        out.append(word if tuple(image) in members else tuple(image))
    return Family.from_words(params, out)


def maximal_intersecting_words(params: SpaceParams, demand, rng: random.Random) -> list[Word]:
    """The members of a maximal demand-intersecting family, grown from the words in random order."""
    words = all_words(params)
    rng.shuffle(words)
    chosen: list[Word] = []
    for w in words:
        if all(satisfies(params, w, y, demand) for y in chosen + [w]):
            chosen.append(w)
    return chosen


def random_intersecting_family(params: SpaceParams, demand, rng: random.Random) -> Family:
    """About half of a maximal demand-intersecting family, grown from the words in random order."""
    chosen = maximal_intersecting_words(params, demand, rng)
    return Family.from_words(params, [w for w in chosen if rng.random() < 0.5])


def random_family(params: SpaceParams, seed: int, density_num: int = 1, density_den: int = 4) -> Family:
    rng = random.Random(seed)
    bits = 0
    for idx in range(params.size):
        if rng.randrange(density_den) < density_num:
            bits |= 1 << idx
    return Family(params, bits)
