import dataclasses
import itertools
import random
import sys
import time
import types
from fractions import Fraction

import numpy as np
import pytest

from isecode import (
    Family,
    ParameterError,
    build_compat_graph,
    max_family,
    product_allocation,
)
from isecode.search import _color_order, _greedy_clique, _orbit_masks
from isecode.words import SpaceParams, decode_matrix

from conftest import brute_max_intersecting


def test_graph_vertex_counts():
    g = build_compat_graph(5, 3, (3, 0, 0))
    assert g.vertex_count == 51  # sum over k >= 3 of C(5,k) * 2**(5-k)
    g = build_compat_graph(2, 3, (1, 0, 0))
    assert g.vertex_count == 5  # 9 words minus the 4 with no symbol 1
    g = build_compat_graph(2, 3, (0, 0, 0))
    assert g.vertex_count == 9
    assert all(row.bit_count() == 8 for row in g.adjacency)  # complete graph


def test_graph_edges_match_pair_rule():
    from isecode.words import decode, satisfies

    g = build_compat_graph(3, 2, (1, 1))
    params = SpaceParams(2, 3)
    for i, vi in enumerate(g.vertices):
        for j, vj in enumerate(g.vertices):
            expected = i != j and satisfies(
                params, decode(params, vi), decode(params, vj), (1, 1)
            )
            assert bool((g.adjacency[i] >> j) & 1) == expected


def test_max_family_matches_subset_enumeration():
    # instances small enough to enumerate every candidate family
    for n, s, t in ((2, 3, (1, 0, 0)), (4, 2, (1, 1)), (2, 2, (1, 1)), (3, 2, (2, 1))):
        expected = brute_max_intersecting(n, s, t)
        result = max_family(n, s, t)
        assert result.max_size == expected
        assert len(result.witness) == expected
        assert result.witness.is_t_intersecting(t)
        assert result.complete


def test_max_family_known_values():
    assert max_family(2, 3, (1, 0, 0)).max_size == 3
    assert max_family(4, 2, (1, 1)).max_size == 4
    assert max_family(5, 3, (3, 0, 0)).max_size == 11
    assert max_family(3, 3, (1, 1, 0)).max_size == 3
    assert max_family(5, 3, (1, 1, 1)).max_size == 9


def test_search_result_density_examples():
    for n, s, t, density in (
        (2, 3, (1, 0, 0), Fraction(1, 3)),
        (3, 3, (0, 0, 0), 1),
        (3, 3, (1, 1, 0), Fraction(1, 9)),
    ):
        result = max_family(n, s, t)
        assert result.complete
        assert result.density() == density


def test_empty_graph_when_demand_infeasible():
    result = max_family(2, 3, (2, 2, 0))
    assert result.max_size == 0
    assert len(result.witness) == 0


def test_timeout_gives_lower_bound():
    result = max_family(5, 3, (1, 1, 1), timeout_ms=0)
    assert not result.complete
    assert result.max_size >= 1  # greedy incumbent survives
    assert result.witness.is_t_intersecting((1, 1, 1))
    assert max_family(5, 3, (1, 1, 1), timeout_ms=0).complete is False


def _slow_graph_build(monkeypatch, seconds):
    """Make every graph build inside max_family take `seconds` longer."""
    import isecode.search as search_mod

    build = search_mod.build_compat_graph

    def slow_build(*args):
        time.sleep(seconds)
        return build(*args)

    monkeypatch.setattr(search_mod, "build_compat_graph", slow_build)


def test_timeout_covers_greedy_phase(monkeypatch):
    # the graph build alone outlasts the timeout, so the greedy stops after its first pick
    _slow_graph_build(monkeypatch, 0.05)
    start = time.monotonic()
    result = max_family(4, 2, (1, 1), timeout_ms=10)  # maximum 4, so the pool outlives the first pick
    assert time.monotonic() - start < 1
    assert not result.complete
    assert result.max_size == 1 and result.nodes == 0
    assert result.stats.incumbent == 1
    assert len(result.witness) == 1 and result.witness.is_t_intersecting((1, 1))


def test_greedy_clique_stops_at_expired_deadline():
    adj = build_compat_graph(6, 3, (1, 1, 0)).adjacency
    first = max(range(len(adj)), key=lambda u: (adj[u].bit_count(), -u))
    cand = (1 << len(adj)) - 1
    assert _greedy_clique(adj, cand, time.monotonic() - 1) == ([first], True)


def test_greedy_clique_checks_deadline_between_row_chunks(monkeypatch):
    import isecode.search as search_mod

    adj = build_compat_graph(6, 3, (1, 1, 0)).adjacency
    first = max(range(len(adj)), key=lambda u: (adj[u].bit_count(), -u))
    degree = adj[first].bit_count()
    assert degree > len(adj) - degree  # the second step subtracts the rows that left
    monkeypatch.setattr(search_mod, "_ROW_CHUNK_BYTES", 1)  # one row per chunk
    clock = itertools.count(1)
    monkeypatch.setattr(search_mod, "time", types.SimpleNamespace(monotonic=lambda: next(clock)))
    # the clock reads 1 after the first pick, 2 before the first row chunk and 3 before the second
    cand = (1 << len(adj)) - 1
    assert _greedy_clique(adj, cand, 2.5) == ([first], True)


def test_elapsed_covers_graph_build(monkeypatch):
    _slow_graph_build(monkeypatch, 0.05)
    result = max_family(4, 2, (1, 1))
    assert result.elapsed >= result.stats.build >= 0.05


def test_search_phases_are_consecutive():
    result = max_family(6, 3, (1, 1, 0))
    stats = result.stats
    seconds = (stats.build, stats.orbits, stats.greedy, stats.branch)
    assert all(x >= 0 for x in seconds)
    assert sum(seconds) <= result.elapsed
    assert stats.incumbent <= result.max_size == 81
    assert hash(stats) == hash(dataclasses.replace(stats))
    with pytest.raises(dataclasses.FrozenInstanceError):
        stats.greedy = 0.0


def test_max_family_leaves_recursion_limit_alone():
    limit = sys.getrecursionlimit()
    result = max_family(7, 3, (2, 2, 0))  # 1092 vertices, more than the default limit
    assert result.complete and result.max_size == 27
    assert sys.getrecursionlimit() == limit


def test_product_allocation_binary_examples():
    # the two-block majority optimum is the block allocation at s = 2
    assert product_allocation(4, 2, (1, 1)).count == 4
    # zero slack: the single fully constrained word
    assert product_allocation(5, 2, (2, 3)).count == 1
    assert product_allocation(6, 2, (2, 3)).count == 2
    assert product_allocation(2, 2, (1, 1)).count == 1
    assert product_allocation(3, 2, (1, 1)).count == 2


def test_product_allocation_binary_validation():
    assert product_allocation(4, 2, (0, 1)).count == 8  # the power bound
    with pytest.raises(ParameterError):
        product_allocation(3, 2, (2, 2))


def test_vertex_cap(monkeypatch):
    import isecode.search as search_mod

    monkeypatch.setattr(search_mod, "VERTEX_CAP", 8)
    with pytest.raises(ParameterError):
        build_compat_graph(2, 3, (0, 0, 0))


def _adjacency_matrix(graph):
    m = graph.vertex_count
    nbytes = (m + 7) // 8
    return np.array(
        [
            np.unpackbits(
                np.frombuffer(row.to_bytes(nbytes, "little"), dtype=np.uint8), bitorder="little"
            )[:m]
            for row in graph.adjacency
        ],
        dtype=bool,
    )


@pytest.mark.parametrize(
    "n, s, t", [(6, 3, (1, 1, 0)), (5, 4, (1, 1, 0, 0)), (6, 2, (1, 1)), (6, 3, (2, 0, 0))]
)
def test_orbit_masks_are_symmetry_orbits(n, s, t):
    graph = build_compat_graph(n, s, t)
    m = graph.vertex_count
    verts = np.asarray(graph.vertices)
    digits = decode_matrix(graph.params, verts)
    adj = _adjacency_matrix(graph)
    masks, orbit = _orbit_masks(graph)
    # the masks partition the vertex slots, and orbit[v] names v's mask
    assert sum(mask.bit_count() for mask in masks) == m
    union = 0
    for mask in masks:
        union |= mask
    assert union == (1 << m) - 1
    assert all(masks[orbit[v]] >> v & 1 for v in range(m))
    # an orbit is one symbol histogram, counts sorted within equal-demand symbols
    groups = [[sym for sym in range(1, s + 1) if t[sym - 1] == value] for value in set(t)]
    keys = [
        tuple(tuple(sorted(list(word).count(sym) for sym in group)) for group in groups)
        for word in digits.tolist()
    ]
    assert len(set(keys)) == len(masks) == len(set(zip(keys, orbit)))
    assert 1 < len(masks) < m
    rng = np.random.default_rng(7)
    for _ in range(5):
        # a random position permutation and a random permutation of equal-demand symbols
        positions = rng.permutation(n)
        sigma = np.arange(s + 1)
        for group in groups:
            sigma[group] = rng.permutation(group)
        image = sigma[digits[:, positions]].astype(np.int64)
        index = ((image - 1) * s ** np.arange(n)).sum(axis=1)
        slot = np.searchsorted(verts, index)
        assert (slot < m).all() and (verts[np.minimum(slot, m - 1)] == index).all()
        assert len(set(slot.tolist())) == m  # a bijection on the vertices
        assert (adj[np.ix_(slot, slot)] == adj).all()  # that preserves adjacency
        assert all(masks[orbit[v]] >> int(slot[v]) & 1 for v in range(m))


def _first_fit(cand, adj):
    """Reference coloring: each vertex, ascending, joins the first class holding no neighbour."""
    classes = []
    for v in range(cand.bit_length()):
        if cand >> v & 1:
            for k, cls in enumerate(classes):
                if not cls & adj[v]:
                    classes[k] |= 1 << v
                    break
            else:
                classes.append(1 << v)
    order, bounds = [], []
    for color, cls in enumerate(classes, start=1):
        members = [v for v in range(cls.bit_length()) if cls >> v & 1]
        order += members
        bounds += [color] * len(members)
    return order, bounds


@pytest.mark.parametrize(
    "n, s, t", [(6, 2, (1, 1)), (6, 3, (2, 0, 0)), (8, 2, (2, 2)), (6, 4, (1, 1, 0, 0))]
)
def test_color_order_is_ascending_first_fit(n, s, t):
    adj = build_compat_graph(n, s, t).adjacency
    m = len(adj)
    rng = random.Random(11)
    cands = [(1 << m) - 1]
    cands += [rng.getrandbits(m) for _ in range(10)]
    cands += [rng.getrandbits(m) & rng.getrandbits(m) for _ in range(10)]
    cands += [adj[v] for v in rng.sample(range(m), 10)]
    for cand in cands:
        order, bounds = _first_fit(cand, adj)
        assert _color_order(cand, adj, 1) == (order, bounds)
        top = bounds[-1] if bounds else 0
        for kmin in (2, 3, top, top + 1):
            # classes below kmin are colored (they shape the later classes) but not returned
            kept = [(v, c) for v, c in zip(order, bounds) if c >= kmin]
            assert _color_order(cand, adj, kmin) == ([v for v, _ in kept], [c for _, c in kept])
    assert _color_order(cands[0], adj, 1)[1][-1] > 1  # the whole graph needs several classes


@pytest.mark.parametrize(
    "n, s, t, size, nodes",
    [(8, 2, (2, 0), 93, 1476), (7, 3, (3, 0, 0), 99, 3716), (8, 2, (1, 2), 44, 180935)],
)
def test_orbital_branching_proves_larger_instances(n, s, t, size, nodes):
    # without root orbit pruning the first takes 10,903 nodes (~5 s) and the
    # second is not proved within 20 s; the third is proved within the time
    # bound only since each node colors one class at a time (~4x faster per
    # node than trying every open class for each vertex)
    start = time.monotonic()
    result = max_family(n, s, t)
    assert time.monotonic() - start < 15
    assert result.complete
    assert result.nodes == nodes
    assert result.max_size == size == product_allocation(n, s, t).count
    assert result.witness.is_t_intersecting(t)


@pytest.mark.parametrize(
    "n, s, t, partner, to_caller",
    [
        (8, 2, (0, 2), (2, 0), (2, 1)),
        (7, 2, (0, 2), (2, 0), (2, 1)),
        (8, 2, (0, 3), (3, 0), (2, 1)),
        (7, 2, (0, 1), (1, 0), (2, 1)),
        (8, 2, (0, 1), (1, 0), (2, 1)),
        (5, 3, (0, 0, 1), (1, 0, 0), (3, 1, 2)),
        (5, 3, (0, 1, 2), (2, 1, 0), (3, 2, 1)),
    ],
)
def test_max_family_does_not_depend_on_symbol_labels(n, s, t, partner, to_caller):
    # partner symbol k carries the demand of the caller's symbol to_caller[k - 1]
    assert all(partner[k] == t[c - 1] for k, c in enumerate(to_caller))
    result, mirror = max_family(n, s, t), max_family(n, s, partner)
    assert result.complete and mirror.complete
    assert result.demand == t and mirror.demand == partner
    assert (result.max_size, result.nodes, result.orbits) == (
        mirror.max_size,
        mirror.nodes,
        mirror.orbits,
    )
    assert result.witness.is_t_intersecting(t)
    relabel = np.array((0,) + to_caller)
    relabelled = relabel[decode_matrix(mirror.params, np.array(list(mirror.witness.indices())))]
    assert result.witness == Family.from_words(result.params, relabelled.tolist())


def _rescoring_greedy(cand, adj):
    """Reference greedy: after each pick, recount every pool vertex's pool neighbours."""
    clique, pool = [], cand
    while pool:
        live = [u for u in range(pool.bit_length()) if pool >> u & 1]
        pick = max(live, key=lambda u: ((adj[u] & pool).bit_count(), -u))
        clique.append(pick)
        pool &= adj[pick]
    return clique


@pytest.mark.parametrize(
    "n, s, t", [(6, 4, (1, 1, 0, 0)), (6, 3, (2, 0, 0)), (8, 2, (2, 2)), (10, 2, (1, 0))]
)
def test_greedy_clique_matches_rescoring(n, s, t):
    adj = build_compat_graph(n, s, t).adjacency
    m = len(adj)
    rng = random.Random(5)
    cands = [(1 << m) - 1]
    cands += [rng.getrandbits(m) for _ in range(4)]
    cands += [rng.getrandbits(m) & rng.getrandbits(m) for _ in range(4)]
    for cand in cands:
        assert _greedy_clique(adj, cand, None) == (_rescoring_greedy(cand, adj), False)
    assert len(_greedy_clique(adj, cands[0], None)[0]) > 1


def test_max_family_proves_dense_binary_instance():
    # 4,095 vertices, clique 2,048: the greedy incumbent is optimal and the root bound proves it
    result = max_family(12, 2, (1, 0))
    assert result.complete
    assert result.max_size == 2048 == product_allocation(12, 2, (1, 0)).count
    assert result.stats.incumbent == 2048
    assert result.witness.is_t_intersecting((1, 0))


def test_greedy_clique_matches_rescoring_on_random_graphs():
    # unstructured graphs reach the recount branch with pools whose counts differ
    rng = random.Random(3)
    for m, p in [(20, 0.3), (60, 0.6), (150, 0.9), (150, 0.6), (60, 0.9)]:
        adj = [0] * m
        for u, v in itertools.combinations(range(m), 2):
            if rng.random() < p:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
        for cand in [(1 << m) - 1] + [rng.getrandbits(m) for _ in range(4)]:
            assert _greedy_clique(adj, cand, None) == (_rescoring_greedy(cand, adj), False)
