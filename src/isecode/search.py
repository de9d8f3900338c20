"""Exact maximum intersecting families by branch-and-bound maximum clique.

Vertices of the compatibility graph are the words whose own symbol histogram
dominates the demand (the pair condition quantifies over self pairs too);
edges join pairs meeting the demand.  Maximum cliques are maximum families.

The solver is a bitset branch-and-bound with greedy-coloring bounds and a
deterministic ascending-index order.  The root branches form independent
tasks, each pruned against the deterministic greedy incumbent only; results
are folded in task order.  Node counts and witnesses are therefore identical
for any worker count, and a thread pool merely distributes the tasks.
"""

from __future__ import annotations

import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, Sequence

import numpy as np

from .families import Family
from .words import ParameterError, SpaceParams, check_demand, decode_matrix, encode, symbol_count

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
    t = check_demand(params, demand)
    keep = np.ones(params.size, dtype=bool)
    for sym, need in enumerate(t, start=1):
        if need:
            keep &= symbol_count(params, range(1, n + 1), sym) >= need
    verts = np.flatnonzero(keep)
    m = int(verts.shape[0])
    if m > VERTEX_CAP:
        raise ParameterError(f"{m} vertices exceed the cap {VERTEX_CAP}")
    digits = decode_matrix(params, verts)
    marks = [
        ((digits == sym).astype(np.int32), need)
        for sym, need in enumerate(t, start=1)
        if need
    ]
    rows: list[int] = []
    chunk = max(1, (1 << 22) // max(m, 1))
    for lo in range(0, m, chunk):
        hi = min(m, lo + chunk)
        block = np.ones((hi - lo, m), dtype=bool)
        for e, need in marks:
            block &= (e[lo:hi] @ e.T) >= need
        diag = np.arange(hi - lo)
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
    threads: int

    def density(self) -> Fraction:
        return Fraction(self.max_size, self.params.size)


class _Expired(Exception):
    pass


class _State:
    __slots__ = ("adj", "deadline", "nodes", "best_size", "best")

    def __init__(self, adj, deadline, best_size):
        self.adj = adj
        self.deadline = deadline
        self.nodes = 0
        self.best_size = best_size
        self.best: list[int] | None = None


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


def _expand(clique: list[int], cand: int, state: _State) -> None:
    state.nodes += 1
    if state.deadline is not None and time.monotonic() > state.deadline:
        raise _Expired
    order, bounds = _color_order(cand, state.adj)
    base = len(clique)
    for i in range(len(order) - 1, -1, -1):
        if base + bounds[i] <= state.best_size:
            return
        v = order[i]
        clique.append(v)
        nxt = cand & state.adj[v]
        if nxt:
            _expand(clique, nxt, state)
        elif len(clique) > state.best_size:
            state.best_size = len(clique)
            state.best = clique.copy()
        clique.pop()
        cand &= ~(1 << v)


def _greedy_clique(
    adj: Sequence[int], cand: int, deadline: float | None
) -> tuple[list[int], bool]:
    """Deterministic greedy lower bound: up to 64 highest-degree starts, densest-extension rule.

    Returns the clique and whether the deadline expired; on expiry, the best
    clique so far, where every prefix of a greedy extension is a clique.
    """
    verts = list(_iter_bits(cand))
    if not verts:
        return [], False
    degs = {v: (adj[v] & cand).bit_count() for v in verts}
    starts = sorted(verts, key=lambda v: (-degs[v], v))[:64]
    best: list[int] = []
    for v0 in starts:
        clique = [v0]
        pool = adj[v0] & cand
        while pool:
            if deadline is not None and time.monotonic() > deadline:
                return max(best, clique, key=len), True
            pick, score = -1, -1
            for u in _iter_bits(pool):
                c = (adj[u] & pool).bit_count()
                if c > score:
                    pick, score = u, c
            clique.append(pick)
            pool &= adj[pick]
        if len(clique) > len(best):
            best = clique
    return best, False


def canonical_seed_word(params: SpaceParams, demand: Sequence[int]) -> tuple[int, ...]:
    """The fixed word with t_1 leading 1s, then t_2 2s, ..., padded with 1s."""
    t = check_demand(params, demand)
    if sum(t) > params.n:
        raise ParameterError(f"demand sum {sum(t)} exceeds word length {params.n}")
    out: list[int] = []
    for sym, ti in enumerate(t, start=1):
        out.extend([sym] * ti)
    out.extend([1] * (params.n - len(out)))
    return tuple(out)


def max_family(
    n: int,
    s: int,
    demand: Sequence[int],
    *,
    threads: int = 1,
    timeout_ms: int | None = DEFAULT_TIMEOUT_MS,
    canonical_seed: bool = False,
) -> SearchResult:
    """Exact maximum demand-intersecting family, as a maximum clique of the compatibility graph.

    With canonical_seed=True the search is restricted to families containing
    the canonical fixed word (a speed heuristic; the result is then exact only
    among such families).  On timeout the result carries complete=False and is
    a lower bound only.
    """
    if threads < 1:
        raise ParameterError("thread count must be at least 1")
    graph = build_compat_graph(n, s, demand)
    start = time.monotonic()
    deadline = start + timeout_ms / 1000.0 if timeout_ms is not None else None
    adj = graph.adjacency
    m = graph.vertex_count
    if m:
        needed = m + 128
        if sys.getrecursionlimit() < needed:
            sys.setrecursionlimit(needed)
    base_clique: list[int] = []
    cand0 = (1 << m) - 1
    if canonical_seed and m:
        seed_idx = encode(graph.params, canonical_seed_word(graph.params, demand))
        slot = graph.vertices.index(seed_idx)
        base_clique = [slot]
        cand0 = adj[slot]
    greedy_part, expired = _greedy_clique(adj, cand0, deadline)
    greedy = base_clique + greedy_part
    init_best = len(greedy)
    tasks: list[tuple[int, int, int]] = []
    if not expired:
        order, bounds = _color_order(cand0, adj)
        cand = cand0
        for i in range(len(order) - 1, -1, -1):
            v = order[i]
            tasks.append((v, bounds[i], cand & adj[v]))
            cand &= ~(1 << v)

    # Every task prunes against the same frozen incumbent; sharing the evolving
    # best across tasks would make node counts depend on worker scheduling.
    def run(task: tuple[int, int, int]) -> tuple[int, int, list[int] | None, bool]:
        v, color, sub = task
        if len(base_clique) + color <= init_best:
            return 0, init_best, None, True
        state = _State(adj, deadline, init_best)
        clique = base_clique + [v]
        ok = True
        try:
            if sub:
                _expand(clique, sub, state)
            elif len(clique) > state.best_size:
                state.best_size = len(clique)
                state.best = clique.copy()
        except _Expired:
            ok = False
        return state.nodes, state.best_size, state.best, ok

    if threads == 1 or len(tasks) <= 1:
        results = list(map(run, tasks))
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(run, tasks))
    complete = not expired
    nodes = 1
    best_size, best = init_best, list(greedy)
    for task_nodes, size, clique, ok in results:
        nodes += task_nodes
        complete &= ok
        if clique is not None and size > best_size:
            best_size, best = size, clique
    witness = Family.from_indices(graph.params, (graph.vertices[v] for v in best))
    return SearchResult(
        graph.params,
        graph.demand,
        best_size,
        witness,
        nodes,
        time.monotonic() - start,
        complete,
        threads,
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
    from .constructions import majority_tail_count  # local import, avoids a cycle

    t1, t2 = (int(x) for x in t)
    if t1 < 1 or t2 < 1:
        raise ParameterError("both demand entries must be at least 1")
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
