"""Exact maximum intersecting families by branch-and-bound maximum clique.

Vertices of the compatibility graph are the words whose own symbol histogram
dominates the demand (the pair condition quantifies over self pairs too);
edges join pairs meeting the demand.  Maximum cliques are maximum families.

The solver is one depth-first bitset branch-and-bound with greedy-coloring
bounds (after San Segundo et al., BBMC), run on an explicit stack from a
deterministic greedy incumbent.  Each node colors its candidates one class
at a time, as BBMC and Tomita & Kameda's MCS do; the classes are those of
first-fit coloring in ascending vertex order, and classes whose color bound
cannot beat the incumbent are colored but not kept (Tomita & Seki's MCQ
rule).  Coloring and branching follow ascending vertex order, so witnesses
and node counts are identical from run to run.

The graph is invariant under permutations of the positions and under
permutations of symbols with equal demand, and so is the vertex filter.  The
root frame uses this by orbital branching (Ostrowski, Linderoth, Rossi &
Smriglio, 2011): once every clique through v has been searched, v's whole
orbit leaves the root candidate set R.  Only whole orbits are removed, so R
stays invariant; a clique C in R through w = g(v) has the image g^-1(C) in R
through v, of the same size, which was searched when v was.  Deeper frames
branch on single vertices.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

import numpy as np

from .families import Family
from .words import (
    ParameterError,
    SpaceParams,
    agreement_rows,
    check_demand,
    decode_matrix,
    encode_matrix,
    int_rows,
    pack_rows,
    symbol_count,
    unpack_ints,
)

VERTEX_CAP = 1 << 16
DEFAULT_TIMEOUT_MS = 60_000
_ROW_CHUNK_BYTES = 1 << 20  # bound on the bytes of one block of unpacked adjacency rows


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
    for lo, block in agreement_rows(decode_matrix(params, verts), t):
        i = np.arange(block.shape[0])
        slot = lo + i  # the self bit: bit slot % 8 of the row's byte slot // 8
        block.view(np.uint8)[i, slot >> 3] &= ~(1 << (slot & 7)).astype(np.uint8)
        rows.extend(int_rows(block))
    return CompatGraph(params, t, tuple(int(v) for v in verts), tuple(rows))


def _orbit_masks(graph: CompatGraph) -> tuple[list[int], list[int]]:
    """Vertex-slot bitsets of the symmetry orbits, and each vertex's orbit number.

    A word's orbit is its symbol histogram with the counts sorted within each
    group of symbols sharing a demand value.  Orbits are numbered by their
    first vertex in ascending slot order.
    """
    t = np.asarray(graph.demand)
    digits = decode_matrix(graph.params, np.asarray(graph.vertices, dtype=np.int64))
    syms = range(1, len(t) + 1)  # counts are at most n <= 26 (the dense cap), so uint8
    counts = np.stack([(digits == sym).sum(axis=1, dtype=np.uint8) for sym in syms], axis=1)
    key = np.hstack([np.sort(counts[:, t == value], axis=1) for value in set(graph.demand)])
    keys: dict[bytes, int] = {}
    orbit = [keys.setdefault(row, len(keys)) for row in map(bytes, key)]
    member = np.zeros((len(keys), len(orbit)), dtype=bool)
    member[orbit, np.arange(len(orbit))] = True
    return int_rows(pack_rows(member)), orbit


@dataclass(frozen=True)
class SearchStats:
    """What one max_family call spent and found beside its answer.

    The seconds of each phase, and the greedy incumbent's size.  build
    includes the argument checks; when the greedy runs out of time there is
    no branching and branch is near 0.  The four phases are consecutive, so
    they sum to at most the call's elapsed time, which also covers decoding
    the witness.
    """

    build: float
    orbits: float
    greedy: float
    branch: float
    incumbent: int


@dataclass(frozen=True)
class SearchResult:
    params: SpaceParams
    demand: tuple[int, ...]
    max_size: int
    witness: Family
    nodes: int
    elapsed: float
    complete: bool
    orbits: int  # vertex orbits of the root symmetry group
    stats: SearchStats

    def density(self) -> Fraction:
        return Fraction(self.max_size, self.params.size)


def _color_order(cand: int, adj: Sequence[int], kmin: int) -> tuple[list[int], list[int]]:
    """Greedy coloring of cand; the vertices of colors >= kmin, by ascending color,
    ascending within a color, and their colors.

    Classes are built one at a time (BBMC): class k takes the lowest vertex
    left in q, the uncolored vertices not adjacent to the class so far, until
    q is empty.  By induction on ascending index these are exactly the
    classes of first-fit coloring in ascending vertex order, at O(1) bitset
    operations per vertex whatever the number of classes.  Classes below
    kmin are colored but not returned (the MCQ rule of Tomita & Seki): their
    color bound cannot beat the incumbent, so they are never branched on.
    """
    order: list[int] = []
    bounds: list[int] = []
    rest = cand
    color = 0
    while rest:
        color += 1
        q = rest
        keep = color >= kmin
        while q:
            low = q & -q
            v = low.bit_length() - 1
            q ^= low | (q & adj[v])
            rest ^= low
            if keep:
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

    Each vertex's count of pool neighbours is kept in one numpy array
    (negative off the pool), and the pick is its first argmax: the same
    vertex, by the same lowest-index tie rule, as recounting the whole pool
    after every pick.  A step either recounts over the pool, as the first
    step does over all of cand, or, when more vertices stay than just left,
    subtracts the adjacency rows of those that left, unpacked at most
    _ROW_CHUNK_BYTES at a time.  Either way a step costs at most one row
    operation per departing vertex, so the pass does O(m) row operations in
    all rather than one per pool vertex and pick.  Subtracting alone was
    up to 9x slower on sparse graphs, where the first pick drops most of cand.
    Returns the clique and whether the deadline expired, checked after each
    pick and each chunk; on expiry, the clique so far, since every prefix of
    the pass is a clique.
    """
    m = len(adj)
    chunk = max(1, _ROW_CHUNK_BYTES // max(m, 1))
    score = np.full(m, -1, dtype=np.int32)
    clique: list[int] = []
    pool = gone = cand
    while pool:
        if pool.bit_count() <= gone.bit_count():
            score.fill(-1)
            live = np.flatnonzero(unpack_ints([pool], m)[0])
            score[live] = [(adj[u] & pool).bit_count() for u in live.tolist()]
        else:
            # often two vertices on dense graphs, where unpacking the m-bit pool would dominate
            out = list(_iter_bits(gone))
            for lo in range(0, len(out), chunk):
                if deadline is not None and time.monotonic() > deadline:
                    return clique, True
                rows = [adj[r] for r in out[lo : lo + chunk]]
                score -= unpack_ints(rows, m).sum(axis=0, dtype=np.int32)
            score[out] = -1
        pick = int(score.argmax())
        clique.append(pick)
        gone = pool & ~adj[pick]
        pool ^= gone
        if pool and deadline is not None and time.monotonic() > deadline:
            return clique, True
    return clique, False


def _branch(
    adj: Sequence[int],
    cand: int,
    best: list[int],
    deadline: float | None,
    root_drop: Sequence[int],
) -> tuple[list[int], int, bool]:
    """Depth-first branch-and-bound for a clique in cand larger than the incumbent best.

    Each stack frame holds the color-ordered vertices still to branch on, their
    color bounds and the remaining candidate set; clique[i] is the vertex that
    opened frame i + 1.  After the root branches on v it drops root_drop[v],
    v's orbit, from its candidates; a root vertex already dropped is skipped
    and is not a node.  Returns the best clique, the number of nodes expanded
    and whether the search finished before the deadline.
    """
    order, bounds = _color_order(cand, adj, len(best) + 1)
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
        if len(stack) > 1:
            frame[2] = cand & ~(1 << v)
        elif cand >> v & 1:
            frame[2] = cand & ~root_drop[v]
        else:
            continue
        clique.append(v)
        nxt = cand & adj[v]
        if nxt:
            nodes += 1
            if deadline is not None and time.monotonic() > deadline:
                return best, nodes, False
            # the new frame opens with clique as it is now
            order, bounds = _color_order(nxt, adj, len(best) - len(clique) + 1)
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

    The timeout covers the whole call, graph build and orbit masks included.
    On timeout the result carries complete=False and is a lower bound only.
    The search runs on the symbols relabelled so that the demand is
    non-increasing (a stable sort, so such a demand keeps its labels), which
    makes it independent of how the caller labels the symbols; the witness
    is mapped back to the caller's labels.
    """
    start = time.monotonic()
    deadline = start + timeout_ms / 1000.0 if timeout_ms is not None else None
    params = SpaceParams(s, n)  # a bad space is refused before the demand is read
    t = check_demand(s, demand)
    order = sorted(range(s), key=lambda c: -t[c])  # searched digit k is caller digit order[k]
    graph = build_compat_graph(n, s, [t[c] for c in order])
    marks = [start, time.monotonic()]
    masks, orbit = _orbit_masks(graph)
    marks.append(time.monotonic())
    adj = graph.adjacency
    cand = (1 << graph.vertex_count) - 1
    best, expired = _greedy_clique(adj, cand, deadline)
    marks.append(time.monotonic())
    incumbent = len(best)
    nodes, complete = 0, False
    if not expired:
        best, nodes, complete = _branch(adj, cand, best, deadline, [masks[k] for k in orbit])
    marks.append(time.monotonic())
    stats = SearchStats(*(b - a for a, b in zip(marks, marks[1:])), incumbent)
    found = decode_matrix(params, np.array([graph.vertices[v] for v in best], dtype=np.int64))
    caller = np.array(order, dtype=np.uint8) + 1  # the caller's symbol of each searched digit
    witness = Family.from_indices(params, encode_matrix(params, caller[found - 1]))
    return SearchResult(
        params,
        t,
        len(best),
        witness,
        nodes,
        time.monotonic() - start,
        complete,
        len(masks),
        stats,
    )
