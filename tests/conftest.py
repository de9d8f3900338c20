"""Shared brute-force oracles, kept independent of the library's fast paths.

These recompute expected values from the raw definitions (explicit loops over
words and pairs) so the bitset / gram-matrix implementations are checked
against a second route.  The `sweeps` fixture records the completeness sweeps
a test causes, so tests can count them.
"""

from __future__ import annotations

import random
from itertools import combinations

import pytest

import isecode.families
from isecode import Family, SetFamily, SpaceParams
from isecode.words import decode, leq_pinned, satisfies


@pytest.fixture
def sweeps(monkeypatch):
    """(membership array, free digits) of every completeness sweep, in call order."""
    swept = []
    sweep = isecode.families._first_gap

    def recording(member, s, n, free):
        swept.append((member, tuple(free)))
        return sweep(member, s, n, free)

    monkeypatch.setattr(isecode.families, "_first_gap", recording)
    return swept


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


def random_family(params: SpaceParams, seed: int, density_num: int = 1, density_den: int = 4) -> Family:
    rng = random.Random(seed)
    bits = 0
    for idx in range(params.size):
        if rng.randrange(density_den) < density_num:
            bits |= 1 << idx
    return Family(params, bits)
