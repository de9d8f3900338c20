"""Explicit families meeting intersection demands: majority blocks, window lifts, products.

A majority family puts a threshold on symbol i + 1 inside block i of
disjoint blocks the caller chooses.  Each majority block is a window, so
the family's density is a product of window measures.  The product
construction, for every alphabet size, partitions the positions into
consecutive blocks, one per symbol, with the window lengths of
measures.product_allocation, and builds the family as the outer product of
the lifted window-threshold families of the blocks, tiled over the free
positions; its density is exactly the product of the per-symbol window
measures at bias 1/s.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import prod
from typing import Iterable, Sequence

import numpy as np

from .families import Family, SetFamily
from .measures import check_window, product_allocation, window_measure
from .words import ParameterError, SpaceParams, as_integer, check_demand, check_symbol, symbol_count

# Full pairwise verification of a constructed family is quadratic in its size;
# above this many members the constructors fall back to structural checks only.
VERIFY_SIZE_LIMIT = 4096


def _majority_blocks(
    n: int, s: int, blocks: Sequence[Iterable[int]], t: Sequence[int]
) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """Validate majority blocks; return them as sorted position tuples and the demand vector.

    Positions lie in 1..n, the blocks are pairwise disjoint and block i has a
    threshold 1 <= t_i <= |block_i|; the demand pads t with zeros to s entries.
    """
    blocks = tuple(tuple(sorted(set(map(as_integer, block)))) for block in blocks)
    t = tuple(map(as_integer, t))
    if len(t) != len(blocks):
        raise ParameterError(f"{len(blocks)} blocks need {len(blocks)} thresholds, got {len(t)}")
    demand = check_demand(s, t + (0,) * (s - len(t)), n)
    used: set[int] = set()
    for block, ti in zip(blocks, t):
        for j in block:
            if not 1 <= j <= n:
                raise ParameterError(f"position {j} outside 1..{n}")
            if j in used:
                raise ParameterError(f"position {j} lies in two blocks")
        used.update(block)
        if not 1 <= ti <= len(block):
            raise ParameterError(f"threshold {ti} outside 1..{len(block)}, the block size")
    return blocks, demand


def majority_family(
    n: int, s: int, blocks: Sequence[Iterable[int]], t: Sequence[int]
) -> Family:
    """Words holding a symbol-(i+1) majority on block i, for every block.

    Membership: at least (|block_i| + t_i) / 2 positions of block i carry
    symbol i + 1.  The blocks are disjoint, so every two members share at
    least t_i coordinates carrying symbol i + 1; this is checked pairwise when
    the family has at most VERIFY_SIZE_LIMIT members.  The family is
    pinned-complete for the set of block symbols.
    """
    params = SpaceParams(s, n)
    blocks, demand = _majority_blocks(n, s, blocks, t)
    keep = np.ones(params.size, dtype=bool)
    for sym, (block, ti) in enumerate(zip(blocks, demand), start=1):
        keep &= 2 * symbol_count(params, block, sym) >= len(block) + ti
    fam = Family.from_array(params, keep)
    if len(fam) <= VERIFY_SIZE_LIMIT and not fam.is_t_intersecting(demand):
        raise RuntimeError("internal check failed: majority family not intersecting")
    return fam


def majority_density(
    n: int, s: int, blocks: Sequence[Iterable[int]], t: Sequence[int]
) -> Fraction:
    """Exact density of majority_family(n, s, blocks, t), without materializing it.

    A block of m positions with threshold t is the window (t + (m - t) % 2,
    (m - t) // 2): both ask for ceil((m + t) / 2) symbol positions among m.
    The density is the product of the blocks' window measures at bias 1/s; it
    is a pure formula, so the dense-storage cap does not apply.
    """
    blocks, demand = _majority_blocks(n, s, blocks, t)
    p = Fraction(1, s)
    windows = ((ti + (len(b) - ti) % 2, (len(b) - ti) // 2) for b, ti in zip(blocks, demand))
    return prod((window_measure(w, r, p) for w, r in windows), start=Fraction(1))


def window_threshold_family(n: int, t: int, r: int) -> SetFamily:
    """Subsets of [n] containing at least t + r of the first t + 2r elements; upward-closed."""
    t, r = check_window(t, r)
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
    params = SpaceParams(s, subsets.n)
    symbol = check_symbol(s, symbol)
    if not subsets.is_upward_closed():
        raise ParameterError("lift needs an upward-closed subset family")
    # a subset's index has bit j set when position j + 1 is in it: pattern digit 1 is present
    return _lift(subsets.array, [int(c == symbol - 1) for c in range(s)], params)


def _lift(member: np.ndarray, states: Sequence[int], params: SpaceParams) -> Family:
    """Words whose pattern is a member, unchecked.

    A word's pattern replaces each symbol c + 1 by the pattern digit
    states[c]; states maps the alphabet onto the digits 0..q - 1, and member
    is a bool array over the q**n patterns in the index order of `words`.
    Each member pattern brings every word that maps to it, so a family of
    subsets (q = 2, digit 1 for the symbol) lifts to the words whose symbol
    positions it holds, each subset S with its (s - 1)**(n - |S|) words.
    """
    q = max(states) + 1
    out = member
    for j in range(params.n):  # expand position j + 1 from q pattern digits to s symbols
        out = out.reshape(-1, q, params.s**j).take(states, axis=1)
    return Family.from_array(params, out.reshape(-1))


def fixed_coordinate_family(n: int, s: int, demand: Sequence[int]) -> Family:
    """Words fixing t_1 leading coordinates to 1, the next t_2 to 2, and so on.

    Size is exactly s**(n - sum(t)); meets the demand since all fixed
    coordinates agree across every pair.
    """
    params = SpaceParams(s, n)
    t = check_demand(s, demand, n)
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
    remainder), with the radii of product_allocation: the best window
    measures at bias 1/s whose windows fit together into n.  Membership
    demands at least t_i + r_i window positions carrying symbol i, for every
    i.  The windows are consecutive runs from position 1, so the family is the
    outer product of the per-block lifted window families (block 1 on the
    fastest axis), tiled over the free positions after the last window; its
    density is exactly the product of the window measures.  Each block factor
    is checked against its own one-symbol demand, which forces the joint
    demand, and the whole family pairwise when it has at most
    VERIFY_SIZE_LIMIT members.  Builds for every s >= 2 and every demand with
    sum(t) <= n; a larger demand sum raises ParameterError.
    """
    params = SpaceParams(s, n)
    t = check_demand(s, demand)
    alloc = product_allocation(n, s, t)
    blocks = []
    keep = np.ones(1, dtype=bool)
    cursor = 1
    for sym, (ti, sel, m) in enumerate(zip(t, alloc.selections, alloc.windows), start=1):
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
    fam = Family.from_array(params, np.tile(keep, s ** (n - sum(alloc.windows))))
    if fam.density() != alloc.density:
        raise RuntimeError("internal check failed: product density mismatch")
    if len(fam) <= VERIFY_SIZE_LIMIT and not fam.is_t_intersecting(t):
        raise RuntimeError("internal check failed: product family not intersecting")
    return ProductConstruction(fam, tuple(blocks), alloc.density)
