"""Explicit families meeting intersection demands: majority blocks, window lifts, products.

The binary two-block construction puts a majority threshold on symbol 1
inside one block of positions and on symbol 2 inside another; its best block
sizes come from exact binomial tails alone.  The general product
construction partitions the positions into consecutive blocks, one per
symbol, and builds the family as the outer product of the lifted
window-threshold families of the blocks, tiled over the free positions; its
density is exactly the product of the per-symbol window measures at bias 1/s.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Iterable, Sequence

import numpy as np

from .families import Family, SetFamily
from .measures import window_product_bound
from .words import ParameterError, SpaceParams, check_demand, symbol_count

# Full pairwise verification of a constructed family is quadratic in its size;
# above this many members the constructors fall back to structural checks only.
VERIFY_SIZE_LIMIT = 4096


def majority_tail_count(m: int, t: int) -> int:
    """Number of ways to mark at least ceil((m + t) / 2) out of m positions."""
    if m < 0 or t < 0:
        raise ParameterError("block size and threshold must be non-negative")
    lo = (m + t + 1) // 2
    return sum(comb(m, k) for k in range(lo, m + 1))


def _positions(n: int, block: Iterable[int]) -> tuple[int, ...]:
    pos = tuple(sorted(int(j) for j in set(block)))
    for j in pos:
        if not 1 <= j <= n:
            raise ParameterError(f"position {j} outside 1..{n}")
    return pos


def binary_majority_family(
    n: int, block1: Iterable[int], block2: Iterable[int], t: Sequence[int]
) -> Family:
    """Binary words holding a symbol-1 majority on block1 and a symbol-2 majority on block2.

    Membership for i = 1, 2: at least (|block_i| + t_i) / 2 positions of
    block_i carry symbol i.  For disjoint blocks the result is checked to be
    (t1, t2)-intersecting when it has at most VERIFY_SIZE_LIMIT members.  A
    threshold above the block size yields an empty family with a warning, not
    an error.
    """
    params = SpaceParams(2, n)
    t1, t2 = _majority_demand(check_demand(2, t))
    x1 = _positions(n, block1)
    x2 = _positions(n, block2)
    if t1 > len(x1) or t2 > len(x2):
        warnings.warn("threshold exceeds its block size; the family is empty", stacklevel=2)
    keep = np.ones(params.size, dtype=bool)
    for block, sym, ti in ((x1, 1, t1), (x2, 2, t2)):
        keep &= 2 * symbol_count(params, block, sym) >= len(block) + ti
    fam = Family.from_array(params, keep)
    if not set(x1).intersection(x2) and len(fam) <= VERIFY_SIZE_LIMIT:
        if not fam.is_t_intersecting((t1, t2)):
            raise RuntimeError("internal check failed: majority family not intersecting")
    return fam


def _majority_demand(t: Sequence[int]) -> tuple[int, int]:
    t1, t2 = (int(x) for x in t)
    if t1 < 1 or t2 < 1:
        raise ParameterError("both demand entries must be at least 1")
    return t1, t2


def binary_majority_density(n1: int, n2: int, t: Sequence[int]) -> Fraction:
    """Exact density of the two-block majority family from the block sizes alone."""
    t1, t2 = _majority_demand(t)
    if n1 < 0 or n2 < 0:
        raise ParameterError("block sizes must be non-negative")
    return Fraction(majority_tail_count(n1, t1), 1 << n1) * Fraction(
        majority_tail_count(n2, t2), 1 << n2
    )


@dataclass(frozen=True)
class MajorityOptimum:
    """Best two-block majority family over all block sizes, with the witness sizes."""

    count: int
    size1: int
    size2: int
    density: Fraction


def best_binary_majority(n: int, t: Sequence[int]) -> MajorityOptimum:
    """Maximize the two-block majority count over disjoint blocks; only sizes matter.

    Sweeps all size pairs with size1 + size2 <= n using exact binomial tails;
    ties prefer blocks matching the demand parities, then larger total size.
    """
    t1, t2 = _majority_demand(t)
    if t1 + t2 > n:
        raise ParameterError(f"demand sum {t1 + t2} exceeds word length {n}")
    best_key = None
    best_opt = None
    for n1 in range(n + 1):
        tail1 = majority_tail_count(n1, t1)
        if tail1 == 0:
            continue
        for n2 in range(n - n1 + 1):
            tail2 = majority_tail_count(n2, t2)
            if tail2 == 0:
                continue
            count = tail1 * tail2 * (1 << (n - n1 - n2))
            parity = int(n1 % 2 == t1 % 2) + int(n2 % 2 == t2 % 2)
            key = (count, parity, n1 + n2, n1)
            if best_key is None or key > best_key:
                best_key = key
                best_opt = MajorityOptimum(count, n1, n2, Fraction(count, 1 << n))
    if best_opt is None:
        raise ParameterError("no feasible block sizes")  # unreachable given t1 + t2 <= n
    return best_opt


def symbol_majority_family(n: int, s: int, block: Iterable[int], t: int) -> Family:
    """Words with at least (|block| + t) / 2 coordinates of the block equal to symbol 1.

    The result shares >= t symbol-1 coordinates across every pair (checked
    pairwise when it has at most VERIFY_SIZE_LIMIT members), and is
    pinned-complete for {1} (only symbol-1 coordinates are constrained).
    """
    params = SpaceParams(s, n)
    t = int(t)
    x = _positions(n, block)
    if t < 1:
        raise ParameterError("threshold must be at least 1")
    if t > len(x):
        raise ParameterError(f"threshold {t} exceeds block size {len(x)}")
    keep = 2 * symbol_count(params, x, 1) >= len(x) + t
    fam = Family.from_array(params, keep)
    if len(fam) <= VERIFY_SIZE_LIMIT:
        demand = (t,) + (0,) * (s - 1)
        if not fam.is_t_intersecting(demand):
            raise RuntimeError("internal check failed: majority family not intersecting")
    return fam


def symbol_majority_density(s: int, block_size: int, t: int) -> Fraction:
    """Exact density of the one-symbol majority family from the block size alone."""
    if s < 2:
        raise ParameterError("alphabet size must be at least 2")
    if t < 1 or t > block_size:
        raise ParameterError("threshold must satisfy 1 <= t <= block size")
    lo = (block_size + t + 1) // 2
    p = Fraction(1, s)
    q = 1 - p
    return sum(
        (comb(block_size, k) * p**k * q ** (block_size - k) for k in range(lo, block_size + 1)),
        start=Fraction(0),
    )


def window_threshold_family(n: int, t: int, r: int) -> SetFamily:
    """Subsets of [n] containing at least t + r of the first t + 2r elements; upward-closed."""
    if t < 0 or r < 0:
        raise ParameterError("threshold and radius must be non-negative")
    m = t + 2 * r
    if m > n:
        raise ParameterError(f"window length {m} exceeds ground-set size {n}")
    SpaceParams(2, n)  # subsets of [n] are binary words: refuse 2**n past the cap up front
    window = np.bitwise_count(np.arange(1 << m)) >= t + r
    return SetFamily.from_array(n, np.tile(window, 1 << (n - m)))


def lift_family(subsets: SetFamily, symbol: int, s: int) -> Family:
    """Words whose set of symbol positions {j : w_j = symbol} belongs to the given family.

    Requires an upward-closed subset family; the lift is then pinned-complete
    for {symbol} and projects back onto the input exactly.
    """
    n = subsets.n
    params = SpaceParams(s, n)
    if not 1 <= symbol <= s:
        raise ParameterError(f"symbol {symbol} outside alphabet 1..{s}")
    if not subsets.is_upward_closed():
        raise ParameterError("lift needs an upward-closed subset family")
    # Expand each position axis from two states (absent, present) to s symbols.
    states = [int(c == symbol - 1) for c in range(s)]
    out = subsets.array
    for j in range(n):
        out = out.reshape(-1, 2, s**j).take(states, axis=1)
    return Family.from_array(params, out.reshape(-1))


def fixed_coordinate_family(n: int, s: int, demand: Sequence[int]) -> Family:
    """Words fixing t_1 leading coordinates to 1, the next t_2 to 2, and so on.

    Size is exactly s**(n - sum(t)); meets the demand since all fixed
    coordinates agree across every pair.
    """
    params = SpaceParams(s, n)
    t = check_demand(s, demand)
    if sum(t) > n:
        raise ParameterError(f"demand sum {sum(t)} exceeds word length {n}")
    keep = np.ones(params.size, dtype=bool)
    cursor = 1
    for sym, ti in enumerate(t, start=1):
        keep &= symbol_count(params, range(cursor, cursor + ti), sym) == ti
        cursor += ti
    return Family.from_array(params, keep)


@dataclass(frozen=True)
class BlockSpec:
    """One block of the product construction: window positions demanding a symbol majority."""

    symbol: int
    positions: tuple[int, ...]
    window: tuple[int, ...]
    t: int
    radius: int


@dataclass(frozen=True)
class ProductConstruction:
    family: Family
    blocks: tuple[BlockSpec, ...]
    density: Fraction


def block_product_family(n: int, s: int, demand: Sequence[int]) -> ProductConstruction:
    """Partition the positions into per-symbol blocks and host a window threshold in each.

    Block i receives t_i + 2*r_i positions (the last block absorbs the
    remainder), where r_i is the radius selected by the window-measure rule at
    bias 1/s; membership demands at least t_i + r_i window positions carrying
    symbol i, for every i.  The windows are consecutive runs from position 1,
    so the family is the outer product of the per-block lifted window
    families (block 1 on the fastest axis), tiled over the free positions
    after the last window; its density is exactly the product of the window
    measures.  Each block factor is checked against its own one-symbol demand,
    which forces the joint demand, and the whole family pairwise when it has
    at most VERIFY_SIZE_LIMIT members.  Raises CapacityError (with the
    deficit) when the windows do not fit into n.
    """
    params = SpaceParams(s, n)
    t = check_demand(s, demand)
    bound = window_product_bound(n, s, t)  # validates s >= 3 and capacity
    sizes = [ti + 2 * sel.radius for ti, sel in zip(t, bound.selections)]
    if sum(sizes) > n:
        raise RuntimeError("internal check failed: selected windows exceed capacity")
    blocks = []
    keep = np.ones(1, dtype=bool)
    cursor = 1
    for sym, (ti, sel, m) in enumerate(zip(t, bound.selections, sizes), start=1):
        window = tuple(range(cursor, cursor + m))
        positions = tuple(range(cursor, n + 1)) if sym == s else window
        cursor += len(positions)
        blocks.append(BlockSpec(sym, positions, window, ti, sel.radius))
        if ti == 0:
            continue  # radius 0 too: an empty window constrains nothing
        factor = lift_family(window_threshold_family(m, ti, sel.radius), sym, s)
        block_demand = tuple(ti if c == sym else 0 for c in range(1, s + 1))
        if not factor.is_t_intersecting(block_demand):
            raise RuntimeError("internal check failed: block family not intersecting")
        keep = np.logical_and.outer(factor.array, keep).reshape(-1)
    fam = Family.from_array(params, np.tile(keep, s ** (n - sum(sizes))))
    if fam.density() != bound.density:
        raise RuntimeError("internal check failed: product density mismatch")
    if len(fam) <= VERIFY_SIZE_LIMIT and not fam.is_t_intersecting(t):
        raise RuntimeError("internal check failed: product family not intersecting")
    return ProductConstruction(fam, tuple(blocks), bound.density)
