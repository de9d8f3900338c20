"""Exact maximum intersecting families by branch-and-bound maximum clique.

Vertices of the compatibility graph are the words whose own symbol histogram
dominates the demand (the pair condition quantifies over self pairs too);
edges join pairs meeting the demand.  Maximum cliques are maximum families.

max_family searches a weighted quotient of this graph, the pattern graph.
Let A be the k symbols of nonzero demand (the first k after the relabelling
to a non-increasing demand).  A word's pattern keeps its A-symbols and
writes the star * for every other symbol.  Two words agree in an A-symbol
exactly where their patterns do, so a family meets the demand exactly when
its set of patterns does, and the largest family with a given set of
patterns takes each pattern's whole fibre, the (s - k)**(number of stars)
words with that pattern.  (So a maximal family is complete for A.)  The
maximum family is therefore a maximum-weight clique of the pattern graph
(n, k + 1, (t_1, ..., t_k, 0)), each pattern weighted by its fibre, lifted
to the union of its fibres.  When k = s - 1 the star is the one zero-demand
symbol and every weight is 1, and when k = 0 or k = s there is nothing to
merge, so with q = k + 1 for 1 <= k < s and q = s otherwise the graph is
(n, q, (t_1, ..., t_q)); at q = s it is the word graph.  The slots run by
ascending weight.  Within a weight they run by descending degree when
q >= 3, the initial vertex order of MCQ (Tomita & Seki, 2003) and BBMC,
then by ascending index; when q = 2 by ascending index alone, which the
shift rule needs.  (Heaviest first took 2,806 nodes instead of 2 at
(6,4,(1,1,0,0)) and 476 instead of 2 at (7,3,(2,0,0)).  Ascending index
within a weight took 27 nodes instead of 4 at (6,3,(1,1,0)) and left
(7,3,(1,1,1)) and (8,3,(1,1,0)) unproved at 30 s, which the degree order
proves in 235 and 8 nodes.)

The solver is one depth-first bitset branch-and-bound with greedy-coloring
bounds (after San Segundo et al., BBMC), run on an explicit stack from a
deterministic greedy incumbent.  Each node colors its candidates one class
at a time, as BBMC and Tomita & Kameda's MCS do, and classes whose bound
cannot beat the incumbent are colored but not kept (Tomita & Seki's MCQ
rule).  With unit weights the classes are those of first-fit coloring in
ascending slot order and a class bounds by its color.  With weights the
coloring splits them: a class adds to the bound r, the smallest residual
weight in it, every member's residual drops by r, and a vertex is colored,
with the bound so far, once its residual reaches 0, so a vertex may sit in
several classes.  This is sound because a clique meets each class, an
independent set, at most once, and each vertex's weight is the sum of the r
of the classes it sat in; so a clique whose vertices are all colored by the
j-th class weighs at most the sum of the first j values of r, the bound of
the last of them.  A class that counts its heaviest vertex instead left
(7,5,(1,1,0,0,0)) and (8,4,(1,1,0,0)) unproved at 60 s on the pattern
graph (300,655 and 25,870 nodes), which the word graph proved in seconds.
Coloring and branching follow the slot order, which (s, demand) fixes, so
witnesses and node counts are identical from run to run.

The graph is invariant under permutations of the positions and under
permutations of symbols with equal demand, and so is the vertex filter.  The
star is the one symbol of zero demand, so these keep the number of stars and
the weight.  The root frame uses this by orbital branching (Ostrowski,
Linderoth, Rossi & Smriglio, 2011): once every clique through v has been
searched, v's whole orbit leaves the root candidate set R.  Only whole
orbits are removed, so R stays invariant; a clique C in R through w = g(v)
has the image g^-1(C) in R through v, of the same weight, which was
searched when v was.  Deeper frames branch on single vertices.

When q = 2 a shift rule replaces the orbit rule: at s = 2, and at s >= 3
with one nonzero demand t (the quotient rule), where a pattern is a 1-set
of weight (s - 1)**(n - |S|).  A vertex stands for its 1-set S, the
positions holding symbol 1.  Frankl's shift S_ij (i < j) moves j to i in
each member whose image is not a member; it keeps the size and the
t1-intersection of the 1-sets, and since it acts on the complements as
S_ji, the t2-intersection of the 2-sets too (Frankl, "The shifting
technique in extremal set theory", 1987).  It keeps |S| and so the weight.
Shifting until nothing moves therefore turns a maximum family into a
left-shifted one: closed downward in the shift order, where T <= S when
|T| = |S| and every prefix of the positions holds at least as many
elements of T as of S.  So the search visits left-shifted cliques only.
Including v adds its whole down-set, which must still be candidate; after
v's branch its frame drops v's whole up-set, at every depth, since a
shifted clique through any of them holds v; and a vertex whose down-set is
not a clique never enters.  Only the greedy incumbent's weight prunes;
when no shifted clique beats it, the witness is the greedy clique shifted
until nothing moves, so every q = 2 witness lifts a left-shifted family.
The rule does not combine with the orbit rule: the shifted cliques are not
invariant under permutations of the positions, so the image of a shifted
clique need not be searched.  It does not apply at q >= 3, where swapping
two symbols between two positions can lose an agreement that nothing makes
up for.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterator, Sequence

import numpy as np

from .constructions import _lift
from .families import Family
from .words import (
    ParameterError,
    SpaceParams,
    agreement_rows,
    check_demand,
    decode_matrix,
    int_rows,
    pack_rows,
    symbol_count,
    unpack_ints,
)

VERTEX_CAP = 1 << 16
DEFAULT_TIMEOUT_MS = 60_000
_ROW_CHUNK_BYTES = 1 << 20  # bound on the bytes of one chunk of m-bit rows between deadline checks


@dataclass(frozen=True)
class CompatGraph:
    params: SpaceParams
    demand: tuple[int, ...]
    vertices: tuple[int, ...]  # word index of each slot; ascending from build_compat_graph
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


def _vertices(params: SpaceParams, t: tuple[int, ...]) -> np.ndarray:
    """The indices, ascending, of the words whose own symbol counts meet the demand."""
    keep = np.ones(params.size, dtype=bool)
    for sym, need in enumerate(t, start=1):
        if need:
            keep &= symbol_count(params, range(1, params.n + 1), sym) >= need
    return np.flatnonzero(keep)


def _graph(
    params: SpaceParams,
    t: tuple[int, ...],
    verts: np.ndarray,
    digits: np.ndarray,
    deadline: float | None = None,
) -> CompatGraph | None:
    """The compatibility graph whose slot i is the word verts[i], with symbol row digits[i].

    Every vertex meets its own demand, so its agreement row holds its own
    bit, which one XOR clears.  The deadline is checked before every
    agreement chunk after the first, so a graph of one chunk is always
    built; on expiry the result is None.
    """
    m = int(verts.shape[0])
    if m > VERTEX_CAP:
        raise ParameterError(f"{m} vertices exceed the cap {VERTEX_CAP}")
    rows: list[int] = []
    for lo, block in agreement_rows(digits, t):
        rows += [row ^ 1 << v for v, row in enumerate(block, lo)]
        if len(rows) < m and deadline is not None and time.monotonic() > deadline:
            return None
    return CompatGraph(params, t, tuple(verts.tolist()), tuple(rows))


def build_compat_graph(n: int, s: int, demand: Sequence[int]) -> CompatGraph:
    params = SpaceParams(s, n)
    t = check_demand(s, demand)
    verts = _vertices(params, t)
    return _graph(params, t, verts, decode_matrix(params, verts))


def _quotient_graph(
    n: int, s: int, searched: tuple[int, ...], deadline: float | None = None
) -> tuple[CompatGraph | None, list[int], np.ndarray, list[int]]:
    """The pattern graph of a non-increasing demand, each slot's weight for an alphabet of s,
    the (m, n) symbol matrix of the slots, decoded once for every later use, and each slot's
    orbit number.

    With k nonzero demands, q = k + 1 when 1 <= k < s and q = s otherwise.
    The graph is (n, q, searched[:q]): a vertex is a pattern, a word over
    the k demanded symbols and the star q, which stands for every
    zero-demand symbol.  Its weight (s - q + 1)**(number of stars) counts
    the words over {1..s} with that pattern; at q = s every weight is 1 and
    the graph is build_compat_graph's with its slots permuted.  The slots
    run by ascending weight, then, at q >= 3 (the orbit rule), by
    descending degree, the vertex order of MCQ and BBMC, and then by
    ascending index; at q = 2 the index order within a weight stays, which
    _shift_tables needs.  A symmetry of the graph takes a vertex to any
    other of its orbit and keeps degrees, so a vertex's degree is its
    orbit's, counted before the build from one agreement row per orbit; the
    graph is then built once, in its slot order.  Row i of the matrix is the
    symbols of slot i, and the orbits of _orbits are renumbered by their
    first slot.  The graph is None when the build passes the deadline, as in
    _graph.
    """
    k = sum(map(bool, searched))
    q = k + 1 if 0 < k < s else s
    params = SpaceParams(q, n)
    t = searched[:q]
    verts = _vertices(params, t)
    digits = decode_matrix(params, verts)
    weight = (s - q + 1) ** (digits == q).sum(axis=1)
    orbit = _orbits(digits, t)
    degree = np.zeros_like(orbit)
    if q >= 3 and len(verts):
        _, first = np.unique(orbit, return_index=True)
        blocks = agreement_rows(digits, t, first)
        meets = np.array([row.bit_count() for _, b in blocks for row in b], dtype=np.int64)
        degree = meets[orbit] - 1  # less the self pair
    slots = np.lexsort((-degree, weight))
    digits = digits[slots]
    graph = _graph(params, t, verts[slots], digits, deadline)
    return graph, weight[slots].tolist(), digits, _first_seen(orbit[slots]).tolist()


def _first_seen(labels: np.ndarray) -> np.ndarray:
    """The labels renumbered 0, 1, ... in the order of their first appearance."""
    _, first, inverse = np.unique(labels, return_index=True, return_inverse=True)
    number = np.empty_like(first)
    number[np.argsort(first)] = np.arange(len(first))
    return number[inverse]


def _orbits(digits: np.ndarray, demand: tuple[int, ...]) -> np.ndarray:
    """Each row's symmetry orbit number, from an (m, n) symbol matrix of vertices.

    A word's orbit is its symbol histogram with the counts sorted within each
    group of symbols sharing a demand value.  Orbits are numbered by their
    first row.  _quotient_graph numbers its vertices once, in index order,
    orders the slots by the orbits' degrees and renumbers the orbits by
    first slot; this one numbering serves every rule: the orbit rule prunes
    with it, and the others report its count.
    """
    t = np.asarray(demand)
    syms = range(1, len(t) + 1)  # counts are at most n <= 26 (the dense cap), so uint8
    counts = np.stack([(digits == sym).sum(axis=1, dtype=np.uint8) for sym in syms], axis=1)
    key = np.hstack([np.sort(counts[:, t == value], axis=1) for value in set(demand)])
    # one void item per row, so a 1-D unique numbers the rows exactly: a mixed-radix int code
    # could overflow, and only the axis= form of np.unique imports numpy.ma (~5 ms at first use)
    return _first_seen(np.ascontiguousarray(key).view(f"V{len(t)}")[:, 0])


def _orbit_masks(orbit: Sequence[int]) -> list[int]:
    """Vertex-slot bitsets of the orbits, given each vertex's orbit number."""
    member = np.zeros((max(orbit, default=-1) + 1, len(orbit)), dtype=bool)
    member[orbit, np.arange(len(orbit))] = True
    return int_rows(pack_rows(member))


def _shift_tables(
    graph: CompatGraph, digits: np.ndarray, deadline: float | None
) -> tuple[int, list[int], list[int]] | None:
    """The s = 2 shift order: the vertices whose down-set is a clique, and the order's tables.

    digits is the (m, n) symbol matrix of the slots, and vertex v stands
    for its 1-set S.  T <= S exactly when T comes from S by moves of one
    element to the free position just left of it, and each such move keeps
    |S| and raises the word index (a 2-position moves right).  Among the
    words of one size the slots ascend by index (at s = 2 all of them do),
    so the down-set of slot v lies at slots >= v and its up-set at slots <= v.
    Returns the bitset of the vertices whose down-set is a clique, down[v],
    the down-set shifted right by v (bit 0 is v), and up[v], the up-set less
    v.  A vertex's two rows hold at most m bits, as many as its adjacency
    row, so the tables never outgrow the adjacency rows: at VERTEX_CAP at
    most 65,536**2 bits, 512 MiB.

    The one-step moves of all vertices are found at once in digits, a 2
    just left of a 1.  A down-set is then v and the down-sets one move below
    it, built in descending slot order; in ascending order each vertex
    passes itself and its up-set on to the vertices one move below it.
    That is at most n - 1 bitset ORs per vertex for each table.  The
    deadline is checked before each chunk of vertices whose rows, m bits
    each, hold at most _ROW_CHUNK_BYTES; on expiry the result is None.

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
    m = len(verts)
    adj = graph.adjacency
    # a move takes symbol 1 from position p + 2 to p + 1, which holds a 2: the index grows by 2**p
    src, p = np.nonzero((digits[:, :-1] == 2) & (digits[:, 1:] == 1))  # src ascends
    rank = np.argsort(verts)  # the slots by ascending index
    moves = rank[np.searchsorted(verts, verts[src] + (1 << p), sorter=rank)].tolist()
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

    The seconds of each phase, the greedy incumbent's weight, the rule that
    restricted the branching ("shift" at s = 2, "quotient" at s >= 3 with
    one nonzero demand, "orbit" otherwise) and the vertex count of the
    searched graph, the pattern graph.  build includes the argument checks,
    the one decode of the patterns' symbols and the orbit numbering, under
    every rule, with the orbit rule's degree rows; orbits is the time of the
    orbit masks, or under the shift and quotient rules of the shift tables;
    when the greedy runs out of time, or the shift tables did, there is no
    branching and branch is near 0; when the build did, build is the time to
    the stop and the other phases are 0.  The incumbent is the greedy
    clique's weight, the size of its lift.  The four phases are consecutive, so they sum to at
    most the call's elapsed time, which also covers building the witness.
    """

    build: float
    orbits: float
    greedy: float
    branch: float
    incumbent: int
    rule: str
    vertices: int


@dataclass(frozen=True)
class SearchResult:
    """The answer of one max_family call.

    max_size is the size of the witness, the largest family found; it is the
    maximum when complete is True.  nodes counts the branch-and-bound nodes
    expanded and orbits the vertex orbits of the root symmetry group, both
    on the searched pattern graph (the word graph when every weight is 1).
    Under the quotient rule its patterns are the 1-sets and its orbits the
    1-set sizes t..n.  max_size is the weight of the best pattern clique,
    the size of its lift.
    """

    params: SpaceParams
    demand: tuple[int, ...]
    max_size: int
    witness: Family
    nodes: int
    elapsed: float
    complete: bool
    orbits: int
    stats: SearchStats

    def density(self) -> Fraction:
        return Fraction(self.max_size, self.params.size)


def _color_order(
    cand: int,
    adj: Sequence[int],
    weight: Sequence[int],
    kmin: int,
    deadline: float | None = None,
) -> tuple[list[int], list[int]] | None:
    """Weight-splitting greedy coloring of cand; the vertices of classes with bound >= kmin,
    by ascending class, ascending within a class, and their classes' bounds.

    Classes are built one at a time (BBMC): a class takes the lowest slot
    left in q, the uncolored vertices not adjacent to the class so far, until
    q is empty.  With unit weights every vertex is colored by its class, so
    by induction on ascending slot these are exactly the classes of
    first-fit coloring in ascending slot order (by descending degree under
    the orbit rule, see _quotient_graph), at O(1) bitset operations
    per vertex whatever the number of classes, and the bound of class k is
    k, its color.  With weights, a class adds to the bound r, the smallest
    residual weight in it (a vertex's residual starts at its weight); each
    member's residual drops by r, and a vertex is colored, and enters the
    order with the bound so far, once its residual reaches 0.  Every class
    colors at least one vertex.  A clique meets each class at most once, so
    it weighs at most the sum of the r of the classes up to the one where its
    last vertex was colored: the bound of that vertex.  Classes below kmin
    are colored but not returned (the MCQ rule of Tomita & Seki): their
    bound cannot beat the incumbent, so they are never branched on.  The
    weights ascend along the slots, so weight[-1] == 1 means unit weights.

    With weights the coloring may make a class per vertex: 2.7 s for the
    57,002 patterns of (10, 4, (1, 1, 0, 0)), against 0.33 s for their unit
    coloring (one 2-vCPU shared host).  So both loops check the deadline
    before every 256th class and return None once it has passed.
    """
    order: list[int] = []
    bounds: list[int] = []
    rest = cand
    bound = 0
    if not rest or weight[-1] == 1:
        while rest:
            if bound % 256 == 0 and deadline is not None and time.monotonic() > deadline:
                return None
            q = rest
            first = len(order)
            while q:
                low = q & -q
                v = low.bit_length() - 1
                q ^= low | (q & adj[v])
                rest ^= low
                order.append(v)
            bound += 1
            if bound >= kmin:
                bounds += [bound] * (len(order) - first)
            else:
                del order[first:]
        return order, bounds
    left: dict[int, int] = {}  # the residuals of the vertices that a class has split
    classes = 0
    while rest:
        if classes % 256 == 0 and deadline is not None and time.monotonic() > deadline:
            return None
        classes += 1
        q = rest
        members = []
        while q:
            low = q & -q
            v = low.bit_length() - 1
            q ^= low | (q & adj[v])
            members.append(v)
        residual = [left.get(v, weight[v]) for v in members]
        r = min(residual)
        bound += r
        first = len(order)
        for v, w in zip(members, residual):
            if w == r:
                rest ^= 1 << v
                order.append(v)
            else:
                left[v] = w - r
        if bound >= kmin:
            bounds += [bound] * (len(order) - first)
        else:
            del order[first:]
    return order, bounds


def _greedy_clique(
    adj: Sequence[int], weight: Sequence[int], cand: int, deadline: float | None
) -> tuple[list[int], bool]:
    """Deterministic greedy lower bound: one densest-extension pass.

    A vertex's score is the weight the pool keeps if it is picked: its own
    weight and its pool neighbours'.  The pass starts from the vertex of
    highest score over cand (lowest slot on ties) and repeatedly adds the
    pool vertex of highest score.  Degree is constant on symmetry orbits, so
    the other best starts are mostly images of this one and would grow
    cliques of the same weight.  With unit weights the score is the pool
    degree plus 1, so the pick is the densest extension.

    The scores are bit-sliced over the slots, as BBMC keeps its sets:
    plane b is an int whose bit v is bit b of slot v's score, read on the
    pool only.  The pick descends the planes from the top, keeping the pool
    slots that have the bit whenever one does, and takes the lowest slot
    left: the same vertex, by the same lowest-slot tie rule, as recounting
    the whole pool after every pick.  A step either recounts over the pool,
    as the first step does over all of cand, or, when more vertices stay
    than just left, lowers the scores by the weights of the rows that left.
    Each departing row, cut to the pool, is added into a bit-sliced count
    with one ripple-carry add per set bit of its weight, and the count is
    ripple-borrowed out of the planes.  The pick's row is left out: the new
    pool is its neighbourhood, so it would lower every pool score alike.
    The planes then hold each score plus the weight picked since the last
    recount, which stays within the slot's score at that recount, as does
    its count; so neither carry nor borrow leaves the planes.  On dense
    graphs the pick often leaves alone, and such a step touches no row.
    The weights ascend along the slots, so each weight's vertices are one
    range of slots and a recount counts pool neighbours once per weight.
    Either way a step costs a few int operations per departing vertex and
    per plane, so the pass does O(m) row operations in all rather than one
    per pool vertex and pick.  Subtracting alone was up to 9x slower on
    sparse graphs, where the first pick drops most of cand.  Scores fit in
    int32: a pattern graph's weights sum to at most s**n, within the dense
    cap.  Returns the clique and whether the deadline expired, checked
    after each pick and before each chunk of departing rows that holds at
    most _ROW_CHUNK_BYTES; on expiry, the clique so far, since every prefix
    of the pass is a clique.
    """
    m = len(adj)
    chunk = max(1, 8 * _ROW_CHUNK_BYTES // max(m, 1))
    cuts = [0, *(np.flatnonzero(np.diff(weight)) + 1).tolist(), m]  # the weights' slot ranges
    levels = [(weight[lo], (1 << hi) - (1 << lo)) for lo, hi in zip(cuts, cuts[1:]) if lo < hi]
    ones = {w: list(_iter_bits(w)) for w, _ in levels}  # the set bits of each weight
    own = np.asarray(weight, dtype=np.int32)
    planes: list[int] = []
    clique: list[int] = []
    pool = gone = cand
    while pool:
        if pool.bit_count() <= gone.bit_count():
            live = np.flatnonzero(unpack_ints([pool], m)[0])
            score = own[live]
            slots = live.tolist()
            for w, mask in levels:
                if part := pool & mask:
                    near = ((adj[u] & part).bit_count() for u in slots)
                    score += w * np.fromiter(near, np.int32, len(slots))
            bits = np.zeros((int(score.max()).bit_length(), m), dtype=bool)
            bits[:, live] = score >> np.arange(len(bits), dtype=np.int32)[:, None] & 1
            planes = int_rows(pack_rows(bits))
        elif out := list(_iter_bits(gone ^ 1 << pick)):
            count = [0] * len(planes)  # plane b: bit b of each pool slot's lost weight
            for lo in range(0, len(out), chunk):
                if deadline is not None and time.monotonic() > deadline:
                    return clique, True
                for r in out[lo : lo + chunk]:
                    row = adj[r] & pool
                    for b in ones[weight[r]]:
                        carry = row
                        while carry:
                            count[b], carry = count[b] ^ carry, count[b] & carry
                            b += 1
            borrow = 0
            for b, c in enumerate(count):
                if c | borrow:
                    p = planes[b]
                    planes[b] = p ^ c ^ borrow
                    borrow = (c | borrow) & ~p | c & borrow
        best = pool
        for p in reversed(planes):
            if top := best & p:
                best = top
        pick = (best & -best).bit_length() - 1
        clique.append(pick)
        gone = pool & ~adj[pick]
        pool ^= gone
        if pool and deadline is not None and time.monotonic() > deadline:
            return clique, True
    return clique, False


def _branch(
    adj: Sequence[int],
    weight: Sequence[int],
    floor: int,
    deadline: float | None,
    cand: int,
    down: Sequence[int],
    up: Sequence[int],
    root_up: Sequence[int] | None = None,
) -> tuple[int, int, bool]:
    """Depth-first branch-and-bound for a clique in cand heavier than floor, the incumbent's weight.

    Each stack frame holds the color-ordered vertices still to branch on, their
    color bounds and the remaining candidate set.  Branching on v adds
    the part of down[v] << v not yet in the clique, which is its part in the
    frame's candidates; the new frame's candidates are the common neighbours
    of what was added.  After v's branch the frame drops v and up[v] from
    its candidates, and the root drops v and root_up[v] (default up[v]).  A
    vertex already dropped is skipped and is not a node.  The clique is the
    stack of added sets and their weights; a down-set's vertices share v's
    weight, since shifts keep the size of a 1-set, so an added set weighs its
    popcount times weight[v].  The orbit rule adds {v} (down[v] = 1) and drops
    nothing more below the root (up[v] = 0).  Returns the best clique found
    as a bitset (0 if none beat floor), the number of nodes expanded and
    whether the search finished before the deadline.

    Under the shift rule every u <= v outside the clique is candidate.  The
    clique is down-closed and a candidate v is adjacent to all of it, so by
    the ballot count of `_shift_tables`, for each member x some j has
    |x & [j]| + |v & [j]| - j >= tau, and u is adjacent to x too; and a u
    dropped from the candidates took v with its up-set.
    """
    root_up = up if root_up is None else root_up
    colored = _color_order(cand, adj, weight, floor + 1, deadline)
    if colored is None:
        return 0, 1, False
    stack = [[*colored, cand]]
    added: list[tuple[int, int]] = []  # (set, weight); added[i] opened frame i + 1
    size = found = 0
    nodes = 1
    while stack:
        frame = stack[-1]
        order, bounds, cand = frame
        # bounds ascend along order, so a failed bound prunes the whole frame
        if not order or size + bounds[-1] <= floor:
            stack.pop()
            if added:
                size -= added.pop()[1]
            continue
        v = order.pop()
        bounds.pop()
        bit = 1 << v
        if not cand & bit:
            continue
        frame[2] = cand & ~(bit | (up if len(stack) > 1 else root_up)[v])
        new = down[v] << v & cand  # the down-set less the clique
        gain = new.bit_count() * weight[v]
        nxt = cand & adj[v]
        if new != bit:
            for u in _iter_bits(new ^ bit):
                nxt &= adj[u]
        if nxt:
            nodes += 1
            if deadline is not None and time.monotonic() > deadline:
                return found, nodes, False
            added.append((new, gain))
            size += gain
            # the new frame opens with the clique as it is now; its first vertex is
            # candidate, so a clique above floor grows on to a leaf and is recorded there
            colored = _color_order(nxt, adj, weight, floor - size + 1, deadline)
            if colored is None:
                return found, nodes, False
            stack.append([*colored, nxt])
        elif size + gain > floor:
            floor, found = size + gain, new
            for part, _ in added:
                found |= part
    return found, nodes, True


def max_family(
    n: int, s: int, demand: Sequence[int], *, timeout_ms: int | None = DEFAULT_TIMEOUT_MS
) -> SearchResult:
    """Exact maximum demand-intersecting family, as a maximum-weight clique of the pattern graph.

    The timeout covers the whole call, graph build and orbit masks or shift
    tables included; the build checks it between agreement chunks.  On
    timeout the result carries complete=False and is a lower bound only; a
    build that runs out of time leaves no clique, so max_size, nodes and
    orbits are 0 and the witness is empty.  The search runs on the symbols
    relabelled so that the demand is non-increasing (a stable sort, so such
    a demand keeps its labels), which makes it independent of how the
    caller labels the symbols.  The witness is the lift of the best pattern
    clique, every word whose pattern it holds, in the caller's labels.  The
    rule follows from (s, demand), see the module docstring: on a pattern
    graph over two symbols the branching visits left-shifted cliques only
    ("shift" at s = 2, "quotient" at s >= 3 with one nonzero demand);
    elsewhere it prunes root orbits ("orbit").  VERTEX_CAP bounds the
    patterns, not the words.  A timeout of 0 expires at once, None never
    does, and a negative one is refused.
    """
    start = time.monotonic()
    deadline = start + timeout_ms / 1000.0 if timeout_ms is not None else None
    params = SpaceParams(s, n)  # a bad space is refused before the demand is read
    t = check_demand(s, demand)
    if timeout_ms is not None and timeout_ms < 0:
        raise ParameterError(f"timeout must be non-negative, got {timeout_ms} ms")
    order = sorted(range(s), key=lambda c: -t[c])  # searched digit k is caller digit order[k]
    rule = "shift" if s == 2 else "quotient" if sum(map(bool, t)) == 1 else "orbit"
    graph, weight, digits, orbit = _quotient_graph(n, s, tuple(t[c] for c in order), deadline)
    marks = [start, time.monotonic()]
    if graph is None:
        elapsed = marks[1] - start
        stats = SearchStats(elapsed, 0.0, 0.0, 0.0, 0, rule, len(weight))
        return SearchResult(params, t, 0, Family.empty(params), 0, elapsed, False, 0, stats)
    q = graph.params.s
    m = graph.vertex_count
    every = (1 << m) - 1
    orbits = max(orbit, default=-1) + 1
    if q == 2:
        tables = _shift_tables(graph, digits, deadline)
    else:
        masks = _orbit_masks(orbit)
        tables = (every, [1] * m, [0] * m, [masks[k] for k in orbit])
    marks.append(time.monotonic())
    adj = graph.adjacency
    best, expired = _greedy_clique(adj, weight, every, deadline)
    marks.append(time.monotonic())
    incumbent = sum(weight[v] for v in best)
    found = nodes = 0
    complete = False
    if tables is not None and not expired:
        found, nodes, complete = _branch(adj, weight, incumbent, deadline, *tables)
        if found:
            best = list(_iter_bits(found))
    marks.append(time.monotonic())
    phases = (b - a for a, b in zip(marks, marks[1:]))
    stats = SearchStats(*phases, incumbent, rule, m)
    chosen = [graph.vertices[v] for v in best]
    if q == 2 and not found:
        chosen = _left_shift(chosen, n)  # the greedy clique, made left-shifted like the branch's
    member = np.zeros(graph.params.size, dtype=bool)
    member[chosen] = True
    # the pattern digit of each caller digit: its searched digit, the star past the demanded ones
    states = np.minimum(np.argsort(order), q - 1)
    return SearchResult(
        params,
        t,
        sum(weight[v] for v in best),
        _lift(member, states.tolist(), params),
        nodes,
        time.monotonic() - start,
        complete,
        orbits,
        stats,
    )
