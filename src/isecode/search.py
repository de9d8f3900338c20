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

At s = 2 a shift rule replaces the orbit rule.  A word stands for its 1-set
S, the positions holding symbol 1.  Frankl's shift S_ij (i < j) moves j to i
in each member whose image is not a member; it keeps the size and the
t1-intersection of the 1-sets, and since it acts on the complements as S_ji,
the t2-intersection of the 2-sets too (Frankl, "The shifting technique in
extremal set theory", 1987).  Shifting until nothing moves therefore turns a
maximum family into a left-shifted one: closed downward in the shift order,
where T <= S when |T| = |S| and every prefix of the positions holds at least
as many elements of T as of S.  So the search visits left-shifted cliques
only.  Including v adds its whole down-set, which must still be candidate;
after v's branch its frame drops v's whole up-set, at every depth, since a
shifted clique through any of them holds v; and a vertex whose down-set is
not a clique never enters.  Only the greedy incumbent's size prunes; when
no shifted clique beats it, the witness is the greedy clique shifted until
nothing moves, so every s = 2 witness is left-shifted.  The rule does not
combine with the orbit rule:
the shifted cliques are not invariant under permutations of the positions,
so the image of a shifted clique need not be searched.  It does not apply at
s >= 3 with two nonzero demands, where swapping two symbols between two
positions can lose an agreement that nothing makes up for.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterator, Sequence

import numpy as np

from .families import Family
from .words import (
    ParameterError,
    SpaceParams,
    agreement_rows,
    check_demand,
    clear_diagonal,
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
        clear_diagonal(block, lo)
        rows.extend(int_rows(block))
    return CompatGraph(params, t, tuple(int(v) for v in verts), tuple(rows))


def _orbits(graph: CompatGraph) -> list[int]:
    """Each vertex's symmetry orbit number.

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
    return [keys.setdefault(row, len(keys)) for row in map(bytes, key)]


def _orbit_masks(orbit: Sequence[int]) -> list[int]:
    """Vertex-slot bitsets of the orbits, given each vertex's orbit number."""
    member = np.zeros((max(orbit, default=-1) + 1, len(orbit)), dtype=bool)
    member[orbit, np.arange(len(orbit))] = True
    return int_rows(pack_rows(member))


def _shift_tables(
    graph: CompatGraph, deadline: float | None
) -> tuple[int, list[int], list[int]] | None:
    """The s = 2 shift order: the vertices whose down-set is a clique, and the order's tables.

    Vertex v stands for its 1-set S.  T <= S exactly when T comes from S by
    moves of one element to the free position just left of it, and each
    such move raises the word index (a 2-position moves right), so the
    down-set of slot v lies at slots >= v and its up-set at slots <= v.
    Returns the bitset of the vertices whose down-set is a clique, down[v],
    the down-set shifted right by v (bit 0 is v), and up[v], the up-set less
    v.  A vertex's two rows hold at most m bits, as many as its adjacency
    row, so the tables never outgrow the adjacency rows: at VERTEX_CAP at
    most 65,536**2 bits, 512 MiB.

    The one-step moves of all vertices are found at once.  A down-set is
    then v and the down-sets one move below it, built in descending slot
    order; in ascending order each vertex passes itself and its up-set on to
    the vertices one move below it.  That is at most n - 1 bitset ORs per
    vertex for each table.  The deadline is checked before each chunk of
    vertices whose rows, m bits each, hold at most _ROW_CHUNK_BYTES; on
    expiry the result is None.

    A down-set is a clique exactly when v is adjacent to the rest of it.
    Distinct words S and X are joined exactly when |S & X| >= tau, where
    tau = max(t1, t2 + |S| + |X| - n) depends on the sizes alone.  If
    |S & [j]| + |X & [j]| - j >= tau for some j >= 0, every T <= S and
    Y <= X meet in at least that many positions, since they hold at least
    as many of the first j positions as S and X do.  Otherwise the U <= S
    that takes each position outside X as early as it may, and a position
    of X only when it must, meets X in
    max(0, max_j (|S & [j]| + |X & [j]| - j)) < tau positions: a ballot
    count, as in Frankl's lemma on shifted t-intersecting families.  With
    X = S, U != S since tau <= |S| for a vertex, and v is not adjacent to U.
    """
    verts = np.asarray(graph.vertices, dtype=np.int64)
    m, n = len(verts), graph.params.n
    adj = graph.adjacency
    # a move takes symbol 1 (digit 0) from position p + 2 to p + 1: the index grows by 2**p
    digit = verts[:, None] >> np.arange(n) & 1
    src, p = np.nonzero((digit[:, :-1] == 1) & (digit[:, 1:] == 0))  # src ascends
    moves = np.searchsorted(verts, verts[src] + (1 << p)).tolist()
    start = np.searchsorted(src, np.arange(m + 1)).tolist()  # v's moves: moves[start[v]:start[v + 1]]
    chunk = max(1, 8 * _ROW_CHUNK_BYTES // max(m, 1))
    down, up = [0] * m, [0] * m
    whole = np.zeros(m, dtype=bool)  # the vertices whose down-set is a clique
    for v in reversed(range(m)):
        if v % chunk == 0 and deadline is not None and time.monotonic() > deadline:
            return None
        below = 1 << v
        for u in moves[start[v] : start[v + 1]]:
            below |= down[u] << u
        down[v] = below >> v
        whole[v] = (below & ~adj[v]) == 1 << v
    for v in range(m):
        if v % chunk == 0 and deadline is not None and time.monotonic() > deadline:
            return None
        above = up[v] | 1 << v  # every vertex above v is done: it has a smaller slot
        for u in moves[start[v] : start[v + 1]]:
            up[u] |= above
    return int_rows(pack_rows(whole[None, :]))[0], down, up


def _left_shift(words: Sequence[int], n: int) -> list[int]:
    """Frankl's shifts S_ij (i < j) applied to an s = 2 family of word indices until nothing moves.

    Digit 0 is symbol 1.  S_ij moves symbol 1 from position j to position i:
    each member with digit 1 at i and 0 at j becomes the word with the two
    digits swapped, unless that word is a member.  Every move raises the
    index sum, so the loop ends, and the result is closed under every S_ij:
    a left-shifted family of the same size, which keeps the demand.  Returns
    the indices ascending.
    """
    family = set(words)
    moved = True
    while moved:
        moved = False
        for i, j in combinations(range(n), 2):
            step = (1 << j) - (1 << i)
            src = [x for x in family if x >> i & 1 and not x >> j & 1 and x + step not in family]
            if src:
                family.difference_update(src)
                family.update(x + step for x in src)
                moved = True
    return sorted(family)


@dataclass(frozen=True)
class SearchStats:
    """What one max_family call spent and found beside its answer.

    The seconds of each phase, the greedy incumbent's size and the rule that
    restricted the branching: "shift" at s = 2, "orbit" otherwise.  build
    includes the argument checks; orbits is the time of the orbit masks, or
    under the shift rule of the shift tables; when the greedy runs out of
    time, or the shift tables did, there is no branching and branch is
    near 0.  The four phases are consecutive, so
    they sum to at most the call's elapsed time, which also covers decoding
    the witness.
    """

    build: float
    orbits: float
    greedy: float
    branch: float
    incumbent: int
    rule: str


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
    floor: int,
    deadline: float | None,
    cand: int,
    down: Sequence[int],
    up: Sequence[int],
    root_up: Sequence[int] | None = None,
) -> tuple[int, int, bool]:
    """Depth-first branch-and-bound for a clique in cand larger than floor, the incumbent's size.

    Each stack frame holds the color-ordered vertices still to branch on, their
    color bounds and the remaining candidate set.  Branching on v adds
    the part of down[v] << v not yet in the clique, which is its part in the
    frame's candidates; the new frame's candidates are the common neighbours
    of what was added.  After v's branch the frame drops v and up[v] from
    its candidates, and the root drops v and root_up[v] (default up[v]).  A
    vertex already dropped is skipped and is not a node.  The clique is the
    stack of added sets and its size.  The orbit rule adds {v}
    (down[v] = 1) and drops nothing more below the root (up[v] = 0).
    Returns the best clique found as a bitset (0 if none beat floor), the
    number of nodes expanded and whether the search finished before the
    deadline.

    Under the shift rule every u <= v outside the clique is candidate.  The
    clique is down-closed and a candidate v is adjacent to all of it, so by
    the ballot count of `_shift_tables`, for each member x some j has
    |x & [j]| + |v & [j]| - j >= tau, and u is adjacent to x too; and a u
    dropped from the candidates took v with its up-set.
    """
    root_up = up if root_up is None else root_up
    order, bounds = _color_order(cand, adj, floor + 1)
    stack = [[order, bounds, cand]]
    added: list[int] = []  # added[i] opened frame i + 1
    size = found = 0
    nodes = 1
    while stack:
        frame = stack[-1]
        order, bounds, cand = frame
        # bounds ascend along order, so a failed bound prunes the whole frame
        if not order or size + bounds[-1] <= floor:
            stack.pop()
            if added:
                size -= added.pop().bit_count()
            continue
        v = order.pop()
        bounds.pop()
        bit = 1 << v
        if not cand & bit:
            continue
        frame[2] = cand & ~(bit | (up if len(stack) > 1 else root_up)[v])
        new = down[v] << v & cand  # the down-set less the clique
        nxt = cand & adj[v]
        if new != bit:
            for u in _iter_bits(new ^ bit):
                nxt &= adj[u]
        if nxt:
            nodes += 1
            if deadline is not None and time.monotonic() > deadline:
                return found, nodes, False
            added.append(new)
            size += new.bit_count()
            # the new frame opens with the clique as it is now; its first vertex is
            # candidate, so a clique above floor grows on to a leaf and is recorded there
            order, bounds = _color_order(nxt, adj, floor - size + 1)
            stack.append([order, bounds, nxt])
        elif size + new.bit_count() > floor:
            floor, found = size + new.bit_count(), new
            for part in added:
                found |= part
    return found, nodes, True


def max_family(
    n: int, s: int, demand: Sequence[int], *, timeout_ms: int | None = DEFAULT_TIMEOUT_MS
) -> SearchResult:
    """Exact maximum demand-intersecting family, as a maximum clique of the compatibility graph.

    The timeout covers the whole call, graph build and orbit masks or shift
    tables included.  On timeout the result carries complete=False and is a
    lower bound only.  The search runs on the symbols relabelled so that the
    demand is non-increasing (a stable sort, so such a demand keeps its
    labels), which makes it independent of how the caller labels the
    symbols; the witness is mapped back to the caller's labels.  At s = 2
    the branching visits left-shifted cliques only (the shift rule, see the
    module docstring), elsewhere it prunes root orbits.
    """
    start = time.monotonic()
    deadline = start + timeout_ms / 1000.0 if timeout_ms is not None else None
    params = SpaceParams(s, n)  # a bad space is refused before the demand is read
    t = check_demand(s, demand)
    order = sorted(range(s), key=lambda c: -t[c])  # searched digit k is caller digit order[k]
    graph = build_compat_graph(n, s, [t[c] for c in order])
    marks = [start, time.monotonic()]
    m = graph.vertex_count
    every = (1 << m) - 1
    orbit = _orbits(graph)
    if s == 2:
        rule, tables = "shift", _shift_tables(graph, deadline)
    else:
        masks = _orbit_masks(orbit)
        rule, tables = "orbit", (every, [1] * m, [0] * m, [masks[k] for k in orbit])
    marks.append(time.monotonic())
    adj = graph.adjacency
    best, expired = _greedy_clique(adj, every, deadline)
    marks.append(time.monotonic())
    incumbent = len(best)
    found = nodes = 0
    complete = False
    if tables is not None and not expired:
        found, nodes, complete = _branch(adj, incumbent, deadline, *tables)
        if found:
            best = list(_iter_bits(found))
    marks.append(time.monotonic())
    stats = SearchStats(*(b - a for a, b in zip(marks, marks[1:])), incumbent, rule)
    chosen = [graph.vertices[v] for v in best]
    if rule == "shift" and not found:
        chosen = _left_shift(chosen, n)  # the greedy clique, made left-shifted like the branch's
    digits = decode_matrix(params, np.array(chosen, dtype=np.int64))
    caller = np.array(order, dtype=np.uint8) + 1  # the caller's symbol of each searched digit
    witness = Family.from_indices(params, encode_matrix(params, caller[digits - 1]))
    return SearchResult(
        params,
        t,
        len(best),
        witness,
        nodes,
        time.monotonic() - start,
        complete,
        max(orbit, default=-1) + 1,
        stats,
    )
