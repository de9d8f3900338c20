"""Exact maximum intersecting families by branch-and-bound maximum clique.

Vertices of the compatibility graph are the words whose own symbol histogram
dominates the demand (the pair condition quantifies over self pairs too);
edges join pairs meeting the demand.  Maximum cliques are maximum families.

The solver is one depth-first bitset branch-and-bound with greedy-coloring
bounds (after San Segundo et al., BBMC), run on an explicit stack from a
deterministic greedy incumbent.  Coloring and branching follow ascending
vertex order, so witnesses and node counts are identical from run to run.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, Sequence

import numpy as np

from .families import Family
from .words import (
    ParameterError,
    SpaceParams,
    agreement_blocks,
    check_demand,
    decode_matrix,
    symbol_count,
)

VERTEX_CAP = 1 << 16
DEFAULT_TIMEOUT_MS = 60_000


class SearchTimeout(RuntimeError):
    """The search budget expired; only a lower bound is available."""


@dataclass(frozen=True)
class CompatGraph:
    params: SpaceParams
    demand: tuple[int, ...]
    vertices: tuple[int, ...]  # word indices, ascending
    adjacency: tuple[int, ...]  # row bitsets over vertex slots, no self bit

    @property
    def vertex_count(self) -> int:
        return len(self.vertices)


def _iter_bits(x: int) -> Iterator[int]:
    """Yield positions of set bits, ascending; rows are at most VERTEX_CAP bits long."""
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


def build_compat_graph(n: int, s: int, demand: Sequence[int]) -> CompatGraph:
    params = SpaceParams(s, n)
    t = check_demand(s, demand)
    keep = np.ones(params.size, dtype=bool)
    for sym, need in enumerate(t, start=1):
        if need:
            keep &= symbol_count(params, range(1, n + 1), sym) >= need
    verts = np.flatnonzero(keep)
    m = int(verts.shape[0])
    if m > VERTEX_CAP:
        raise ParameterError(f"{m} vertices exceed the cap {VERTEX_CAP}")
    rows: list[int] = []
    for lo, block in agreement_blocks(decode_matrix(params, verts), t):
        diag = np.arange(block.shape[0])
        block[diag, lo + diag] = False
        packed = np.packbits(block, axis=1, bitorder="little")
        rows.extend(int.from_bytes(row.tobytes(), "little") for row in packed)
    return CompatGraph(params, t, tuple(int(v) for v in verts), tuple(rows))


@dataclass(frozen=True)
class SearchResult:
    params: SpaceParams
    demand: tuple[int, ...]
    max_size: int
    witness: Family
    nodes: int
    elapsed: float
    complete: bool

    def density(self) -> Fraction:
        return Fraction(self.max_size, self.params.size)


def _color_order(cand: int, adj: Sequence[int]) -> tuple[list[int], list[int]]:
    """Greedy coloring in ascending index order; vertices returned by ascending color."""
    classes: list[int] = []
    rest = cand
    while rest:
        low = rest & -rest
        v = low.bit_length() - 1
        rest ^= low
        av = adj[v]
        for k, cls in enumerate(classes):
            if not (cls & av):
                classes[k] |= low
                break
        else:
            classes.append(low)
    order: list[int] = []
    bounds: list[int] = []
    for k, cls in enumerate(classes):
        color = k + 1
        for v in _iter_bits(cls):
            order.append(v)
            bounds.append(color)
    return order, bounds


def _greedy_clique(
    adj: Sequence[int], cand: int, deadline: float | None
) -> tuple[list[int], bool]:
    """Deterministic greedy lower bound: one densest-extension pass.

    The pass starts from the highest-degree vertex (lowest index on ties) and
    repeatedly adds the pool vertex with most pool neighbours.  Degree is
    constant on symmetry orbits, so the other highest-degree vertices are
    mostly images of this start and would grow cliques of the same size.
    Returns the clique and whether the
    deadline expired; on expiry, the clique so far, since every prefix of
    the pass is a clique.
    """
    clique: list[int] = []
    pool = cand
    while pool:
        pick, score = -1, -1
        for u in _iter_bits(pool):
            c = (adj[u] & pool).bit_count()
            if c > score:
                pick, score = u, c
        clique.append(pick)
        pool &= adj[pick]
        if pool and deadline is not None and time.monotonic() > deadline:
            return clique, True
    return clique, False


def _branch(
    adj: Sequence[int], cand: int, best: list[int], deadline: float | None
) -> tuple[list[int], int, bool]:
    """Depth-first branch-and-bound for a clique in cand larger than the incumbent best.

    Each stack frame holds the color-ordered vertices still to branch on, their
    color bounds and the remaining candidate set; clique[i] is the vertex that
    opened frame i + 1.  Returns the best clique, the number of nodes expanded
    and whether the search finished before the deadline.
    """
    order, bounds = _color_order(cand, adj)
    stack = [[order, bounds, cand]]
    clique: list[int] = []
    nodes = 1
    while stack:
        frame = stack[-1]
        order, bounds, cand = frame
        # bounds ascend along order, so a failed bound prunes the whole frame
        if not order or len(clique) + bounds[-1] <= len(best):
            stack.pop()
            if clique:
                clique.pop()
            continue
        v = order.pop()
        bounds.pop()
        frame[2] = cand & ~(1 << v)
        clique.append(v)
        nxt = cand & adj[v]
        if nxt:
            nodes += 1
            if deadline is not None and time.monotonic() > deadline:
                return best, nodes, False
            order, bounds = _color_order(nxt, adj)
            stack.append([order, bounds, nxt])
        else:
            if len(clique) > len(best):
                best = clique.copy()
            clique.pop()
    return best, nodes, True


def max_family(
    n: int, s: int, demand: Sequence[int], *, timeout_ms: int | None = DEFAULT_TIMEOUT_MS
) -> SearchResult:
    """Exact maximum demand-intersecting family, as a maximum clique of the compatibility graph.

    The timeout covers the whole call, graph build included.  On timeout the
    result carries complete=False and is a lower bound only.
    """
    start = time.monotonic()
    deadline = start + timeout_ms / 1000.0 if timeout_ms is not None else None
    graph = build_compat_graph(n, s, demand)
    adj = graph.adjacency
    cand = (1 << graph.vertex_count) - 1
    best, expired = _greedy_clique(adj, cand, deadline)
    nodes, complete = 0, False
    if not expired:
        best, nodes, complete = _branch(adj, cand, best, deadline)
    witness = Family.from_indices(graph.params, (graph.vertices[v] for v in best))
    return SearchResult(
        graph.params,
        graph.demand,
        len(best),
        witness,
        nodes,
        time.monotonic() - start,
        complete,
    )


def max_density(
    n: int, s: int, demand: Sequence[int], *, timeout_ms: int | None = DEFAULT_TIMEOUT_MS
) -> Fraction:
    """Exact maximum density of a demand-intersecting family; raises SearchTimeout if unproven."""
    return _max_density_cached(n, s, tuple(int(x) for x in demand), timeout_ms)


@lru_cache(maxsize=None)
def _max_density_cached(n: int, s: int, demand: tuple[int, ...], timeout_ms) -> Fraction:
    result = max_family(n, s, demand, timeout_ms=timeout_ms)
    if not result.complete:
        raise SearchTimeout(
            f"search for n={n}, s={s}, t={demand} timed out; best found {result.max_size}"
        )
    return result.density()
