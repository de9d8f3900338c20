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
from isecode.search import (
    _color_order,
    _greedy_clique,
    _iter_bits,
    _orbit_masks,
    _orbits,
    _quotient_graph,
    _shift_tables,
)
from isecode.words import SpaceParams, decode_matrix

from conftest import (
    brute_intersecting,
    brute_is_complete,
    brute_max_clique,
    brute_max_intersecting,
    brute_shift,
    maximal_intersecting_words,
    random_intersecting_family,
    satisfies,
)


def test_graph_vertex_counts():
    g = build_compat_graph(5, 3, (3, 0, 0))
    assert g.vertex_count == 51  # sum over k >= 3 of C(5,k) * 2**(5-k)
    g = build_compat_graph(2, 3, (1, 0, 0))
    assert g.vertex_count == 5  # 9 words minus the 4 with no symbol 1
    g = build_compat_graph(2, 3, (0, 0, 0))
    assert g.vertex_count == 9
    assert all(row.bit_count() == 8 for row in g.adjacency)  # complete graph


def test_graph_edges_match_pair_rule():
    from isecode.words import decode

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


def test_negative_timeout_refused():
    # a negative timeout has passed before the build starts, so it can only give a
    # meaningless lower bound; it is refused instead
    for timeout_ms in (-5, -1):
        with pytest.raises(ParameterError) as err:
            max_family(4, 2, (1, 1), timeout_ms=timeout_ms)
        assert str(err.value) == f"timeout must be non-negative, got {timeout_ms} ms"
    # a bad space or demand is still named first
    with pytest.raises(ParameterError, match="alphabet size"):
        max_family(4, 1, (1,), timeout_ms=-1)
    assert max_family(4, 2, (1, 1), timeout_ms=0).complete is False
    assert max_family(4, 2, (1, 1), timeout_ms=None).complete is True


def _slow_graph_build(monkeypatch, seconds):
    """Make every graph build inside max_family take `seconds` longer."""
    import isecode.search as search_mod

    build = search_mod._graph  # every rule's graph is built here

    def slow_build(*args):
        time.sleep(seconds)
        return build(*args)

    monkeypatch.setattr(search_mod, "_graph", slow_build)


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
    assert _greedy_clique(adj, [1] * len(adj), cand, time.monotonic() - 1) == ([first], True)


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
    assert _greedy_clique(adj, [1] * len(adj), cand, 2.5) == ([first], True)


def test_weighted_coloring_checks_deadline_every_256_classes(monkeypatch):
    import isecode.search as search_mod

    # each input makes 300 classes of one vertex each: no edges and 300 distinct
    # weights (each class colors the lightest vertex left), and the complete graph
    # under unit weights (each class takes the lowest vertex left)
    m = 300
    cand = (1 << m) - 1
    inputs = [
        ([0] * m, list(range(1, m + 1))),
        ([cand ^ (1 << v) for v in range(m)], [1] * m),
    ]
    clock = itertools.count(1)
    monkeypatch.setattr(search_mod, "time", types.SimpleNamespace(monotonic=lambda: next(clock)))
    for adj, weight in inputs:
        colored = (list(range(m)), list(range(1, m + 1)))
        assert _color_order(cand, adj, weight, 1) == colored
        # the clock reads 1 before the first class and 2 before the 257th
        clock = itertools.count(1)
        assert _color_order(cand, adj, weight, 1, 2.5) == colored
        clock = itertools.count(1)
        assert _color_order(cand, adj, weight, 1, 1.5) is None
        # a coloring past the deadline ends the branching as expired, at the root node
        assert search_mod._branch(adj, weight, 0, 0.5, cand, [1] * m, [0] * m) == (0, 1, False)


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
    assert stats.rule == "orbit"
    assert stats.vertices == build_compat_graph(6, 3, (1, 1, 0)).vertex_count  # unit weights
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
    "n, s, t",
    [
        (6, 3, (1, 1, 0)),
        (5, 4, (1, 1, 0, 0)),
        (6, 2, (1, 1)),
        (6, 3, (2, 0, 0)),
        (7, 2, (2, 1)),
        (6, 2, (2, 0)),
        (5, 2, (0, 0)),
    ],
)
def test_orbit_masks_are_symmetry_orbits(n, s, t):
    graph = build_compat_graph(n, s, t)
    m = graph.vertex_count
    verts = np.asarray(graph.vertices)
    digits = decode_matrix(graph.params, verts)
    adj = _adjacency_matrix(graph)
    orbit = _orbits(digits, graph.demand)
    masks = _orbit_masks(orbit)
    # the masks partition the vertex slots, and orbit[v] names v's mask
    assert sum(mask.bit_count() for mask in masks) == m
    union = 0
    for mask in masks:
        union |= mask
    assert union == (1 << m) - 1
    assert all(masks[orbit[v]] >> v & 1 for v in range(m))
    # orbits are numbered by their first vertex: a new number is the count of numbers seen
    seen = set()
    for k in orbit:
        assert k in seen or k == len(seen)
        seen.add(k)
    # an orbit is one symbol histogram, counts sorted within equal-demand symbols
    groups = [[sym for sym in range(1, s + 1) if t[sym - 1] == value] for value in set(t)]
    keys = [
        tuple(tuple(sorted(list(word).count(sym) for sym in group)) for group in groups)
        for word in digits.tolist()
    ]
    assert len(set(keys)) == len(masks) == len(set(zip(keys, orbit)))
    assert 1 < len(masks) < m
    if s == 2:
        # a vertex's histogram is (n - c, c) for c its index's bit count, sorted when t1 = t2
        twos = [v.bit_count() for v in graph.vertices]
        keys = [min(c, n - c) for c in twos] if t[0] == t[1] else twos
        assert len(set(keys)) == max(orbit) + 1
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
    return [[v for v in range(cls.bit_length()) if cls >> v & 1] for cls in classes]


def _split_colors(cand, adj, weight):
    """Reference weight-splitting coloring: each class takes the uncolored vertices, ascending,
    that have no neighbour in it, and adds the smallest residual weight r in it to the
    bound; each member's residual drops by r, and a vertex whose residual reaches 0 is
    colored with the bound so far.  Returns the colored vertices in order and their bounds."""
    residual = {v: weight[v] for v in range(cand.bit_length()) if cand >> v & 1}
    order, bounds, bound = [], [], 0
    while residual:
        members, held = [], 0
        for v in sorted(residual):
            if not adj[v] & held:
                members.append(v)
                held |= 1 << v
        r = min(residual[v] for v in members)
        bound += r
        for v in members:
            residual[v] -= r
            if not residual[v]:
                del residual[v]
                order.append(v)
                bounds.append(bound)
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
    unit = [1] * m
    # weights that never fall along the slots, as a pattern graph's do
    rising = sorted(rng.choice((1, 2, 4, 8)) for _ in range(m))
    split = 0
    for cand in cands:
        classes = _first_fit(cand, adj)
        # with unit weights the classes are first-fit's and a class's bound is its color
        colors = [k + 1 for k, c in enumerate(classes) for _ in c]
        first_fit = [v for c in classes for v in c], colors
        assert _split_colors(cand, adj, unit) == first_fit
        reference = _split_colors(cand, adj, rising)
        split += reference[0] != first_fit[0]
        for weight, (order, bounds) in ((unit, first_fit), (rising, reference)):
            assert _color_order(cand, adj, weight, 1) == (order, bounds)
            top = bounds[-1] if bounds else 0
            for kmin in (2, 3, top, top + 1):
                # classes below kmin are colored (they shape the later classes) but not returned
                kept = [(v, c) for v, c in zip(order, bounds) if c >= kmin]
                expected = ([v for v, _ in kept], [c for _, c in kept])
                assert _color_order(cand, adj, weight, kmin) == expected
    assert _color_order(cands[0], adj, unit, 1)[1][-1] > 1  # the whole graph needs several classes
    assert split > 10  # the rising weights do split classes


def _max_clique_weight(adj, weight, within):
    """The largest weight of a clique within the bitset `within`, by enumerating its subsets."""
    verts = [v for v in range(within.bit_length()) if within >> v & 1]
    best = 0
    for size in range(1, len(verts) + 1):
        for clique in itertools.combinations(verts, size):
            if all(adj[u] >> v & 1 for u, v in itertools.combinations(clique, 2)):
                best = max(best, sum(weight[v] for v in clique))
    return best


def test_split_bounds_cover_every_clique():
    # brute force on small random graphs: a clique within order[:i + 1] and the
    # classes below kmin weighs at most bounds[i], and one within those classes
    # alone weighs less than kmin
    rng = random.Random(8)
    checked = 0
    for trial in range(150):
        m = rng.randint(4, 12)
        adj = _random_graph(rng, m, rng.choice((0.3, 0.5, 0.8)))
        weight = sorted(rng.choice((1, 2, 3, 4, 8, 9)) for _ in range(m))
        cand = rng.getrandbits(m) | 1
        top = _color_order(cand, adj, weight, 1)[1][-1]
        assert top >= _max_clique_weight(adj, weight, cand)
        for kmin in (1, 2, top // 2, top):
            order, bounds = _color_order(cand, adj, weight, kmin)
            pruned = cand & ~sum(1 << v for v in order)
            assert _max_clique_weight(adj, weight, pruned) < max(kmin, 1)
            within = pruned
            for v, bound in zip(order, bounds):
                within |= 1 << v
                assert _max_clique_weight(adj, weight, within) <= bound
                checked += 1
    assert checked > 1500


@pytest.mark.parametrize(
    "n, s, t, size, nodes",
    [
        (8, 2, (2, 0), 93, 10),
        (7, 3, (3, 0, 0), 99, 2),
        (8, 2, (1, 2), 44, 44),
        (8, 2, (1, 1), 64, 27333),
        (9, 2, (2, 1), 93, 2612),
        (7, 3, (2, 0, 0), 243, 2),
        (8, 4, (2, 0, 0, 0), 4096, 1),
        (8, 4, (1, 1, 0, 0), 4096, 3),
        (7, 5, (1, 1, 0, 0, 0), 3125, 2),
        (8, 4, (2, 2, 0, 0), 256, 4),
    ],
)
def test_orbital_branching_proves_larger_instances(n, s, t, size, nodes):
    # the s = 2 rows run the shift rule: under the root orbit rule they took
    # 1,476 and 180,935 nodes, and the last two were not proved within 60 s;
    # the s >= 3 single-nonzero rows run the quotient rule: on the full graph
    # under the root orbit rule (7,3,(3,0,0)) took 3,716 nodes and
    # (7,3,(2,0,0)) was not proved within 60 s; the last three rows run the
    # orbit rule on the pattern graph, slots by descending degree within a
    # weight: in ascending index order they took 4, 2 and 5 nodes, and on the
    # word graph 23, 11 and 13
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
        (6, 4, (0, 0, 2, 0), (2, 0, 0, 0), (3, 1, 2, 4)),
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


def _rescoring_greedy(cand, adj, weight):
    """Reference greedy: after each pick, recount each pool vertex's weight and its pool
    neighbours'."""
    holding = {}  # each weight's vertices as a bitset
    for v, w in enumerate(weight):
        holding[w] = holding.get(w, 0) | 1 << v
    clique, pool = [], cand
    while pool:
        live = [u for u in range(pool.bit_length()) if pool >> u & 1]

        def score(u):
            near = adj[u] & pool
            return weight[u] + sum(w * (near & mask).bit_count() for w, mask in holding.items())

        pick = max(live, key=lambda u: (score(u), -u))
        clique.append(pick)
        pool &= adj[pick]
    return clique


@pytest.mark.parametrize(
    "n, s, t",
    [
        (6, 4, (1, 1, 0, 0)),
        (6, 3, (2, 0, 0)),
        (8, 2, (2, 2)),
        (10, 2, (1, 0)),
        (5, 5, (1, 1, 0, 0, 0)),
    ],
)
def test_greedy_clique_matches_rescoring(n, s, t):
    # the word graph with unit weights, and the pattern graph with its weights
    word_graph = build_compat_graph(n, s, t)
    pattern, weight, *_ = _quotient_graph(n, s, t)
    cases = [(word_graph.adjacency, [1] * word_graph.vertex_count)]
    if pattern != word_graph:
        cases.append((pattern.adjacency, weight))
    rng = random.Random(5)
    for adj, weight in cases:
        m = len(adj)
        cands = [(1 << m) - 1]
        cands += [rng.getrandbits(m) for _ in range(4)]
        cands += [rng.getrandbits(m) & rng.getrandbits(m) for _ in range(4)]
        for cand in cands:
            expected = _rescoring_greedy(cand, adj, weight)
            assert _greedy_clique(adj, weight, cand, None) == (expected, False)
        assert len(_greedy_clique(adj, weight, cands[0], None)[0]) > 1
    assert len(cases) == 2 or s == 2


def test_max_family_proves_dense_binary_instance():
    # 4,095 vertices, clique 2,048: the greedy incumbent is optimal and the root bound proves it
    result = max_family(12, 2, (1, 0))
    assert result.complete
    assert result.max_size == 2048 == product_allocation(12, 2, (1, 0)).count
    assert result.stats.incumbent == 2048
    assert result.witness.is_t_intersecting((1, 0))


def _random_graph(rng, m, p):
    adj = [0] * m
    for u, v in itertools.combinations(range(m), 2):
        if rng.random() < p:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
    return adj


def test_greedy_clique_matches_rescoring_on_random_graphs():
    # unstructured graphs reach the recount branch with pools whose counts differ
    rng = random.Random(3)
    for m, p in [(20, 0.3), (60, 0.6), (150, 0.9), (150, 0.6), (60, 0.9)]:
        adj = _random_graph(rng, m, p)
        rising = sorted(rng.choice((1, 2, 4, 8)) for _ in range(m))
        for cand in [(1 << m) - 1] + [rng.getrandbits(m) for _ in range(4)]:
            for weight in ([1] * m, [3] * m, rising):
                expected = _rescoring_greedy(cand, adj, weight)
                assert _greedy_clique(adj, weight, cand, None) == (expected, False)


def _binary_demands(n_max):
    for n in range(1, n_max + 1):
        for t1 in range(n + 1):
            for t2 in range(n + 1 - t1):
                yield n, (t1, t2)


def test_shifts_keep_size_and_demand():
    rng = random.Random(2)
    moved = 0
    for n, t in _binary_demands(6):
        params = SpaceParams(2, n)
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        for symbol in (1, 2):
            family = random_intersecting_family(params, t, rng)
            for i, j in rng.sample(pairs, min(4, len(pairs))):
                image = brute_shift(family, i, j, symbol)
                assert len(image) == len(family), (n, t, i, j)
                assert brute_intersecting(image, t), (n, t, i, j)
                moved += image != family
                family = image
    assert moved > 100


def _is_left_shifted(family, symbol):
    pairs = itertools.combinations(range(1, family.params.n + 1), 2)
    return all(brute_shift(family, i, j, symbol) == family for i, j in pairs)


def test_binary_witnesses_are_left_shifted():
    # the shift rule searches the sets of the symbol with the larger demand
    instances = list(_binary_demands(6)) + [(7, (1, 1)), (8, (2, 2)), (8, (1, 2)), (9, (3, 3))]
    for n, t in instances:
        result = max_family(n, 2, t)
        assert result.complete and result.stats.rule == "shift"
        assert len(result.witness) == result.max_size
        assert brute_intersecting(result.witness, t), (n, t)
        assert _is_left_shifted(result.witness, 1 if t[0] >= t[1] else 2), (n, t)
    # the check can fail: symbol 1 at position 2 with symbol 2 at position 1 moves
    assert not _is_left_shifted(Family.from_words(SpaceParams(2, 3), [(2, 1, 1)]), 1)


def _below(small, large):
    """The shift order by its sorted-elements form: equal sizes, each element at most its partner."""
    return len(small) == len(large) and all(a <= b for a, b in zip(sorted(small), sorted(large)))


@pytest.mark.parametrize("n, t", [(6, (1, 1)), (7, (2, 1)), (6, (2, 0)), (7, (3, 2)), (5, (0, 0))])
def test_shift_tables_match_the_shift_order(n, t):
    graph = build_compat_graph(n, 2, t)
    m = graph.vertex_count
    digits = decode_matrix(graph.params, np.asarray(graph.vertices))
    cand, down, up = _shift_tables(graph, digits, None)
    digits = digits.tolist()
    sets = [{p for p in range(1, n + 1) if word[p - 1] == 1} for word in digits]
    adj = _adjacency_matrix(graph)
    kept = 0
    for v in range(m):
        lower = [u for u in range(m) if _below(sets[u], sets[v])]
        upper = [u for u in range(m) if u != v and _below(sets[v], sets[u])]
        assert down[v] << v == sum(1 << u for u in lower)
        assert up[v] == sum(1 << u for u in upper)
        # each vertex's two rows hold at most m bits, as its adjacency row does
        assert down[v].bit_length() + up[v].bit_length() <= m
        clique = all(adj[a, b] for a in lower for b in lower if a != b)
        assert bool(cand >> v & 1) == clique
        kept += clique
    assert 0 < kept <= m and (kept < m or t == (0, 0))


@pytest.mark.parametrize("n, s, t", [(6, 3, (2, 0, 0)), (7, 4, (3, 0, 0, 0)), (5, 3, (1, 0, 0))])
def test_shift_tables_follow_the_quotient_slots(n, s, t):
    # the quotient's slots run by size, not by index: its tables are the
    # index-ordered graph's, slot for slot
    binary = build_compat_graph(n, 2, t[:2])
    quotient, _, digits, _ = _quotient_graph(n, s, t)
    assert sorted(quotient.vertices) == list(binary.vertices) != list(quotient.vertices)
    slot = {word: v for v, word in enumerate(binary.vertices)}
    to_binary = [slot[word] for word in quotient.vertices]  # per quotient slot

    def image(bits, shift=0):
        return sum(1 << to_binary[u] for u in _iter_bits(bits << shift))

    cand, down, up = _shift_tables(quotient, digits, None)
    binary_digits = decode_matrix(binary.params, np.asarray(binary.vertices))
    ref_cand, ref_down, ref_up = _shift_tables(binary, binary_digits, None)
    assert image(cand) == ref_cand
    for v, w in enumerate(to_binary):
        assert image(down[v], v) == ref_down[w] << w
        assert image(up[v]) == ref_up[w]
        assert image(quotient.adjacency[v]) == binary.adjacency[w]


def test_shift_tables_check_deadline_between_chunks(monkeypatch):
    import isecode.search as search_mod

    graph = build_compat_graph(6, 2, (1, 1))
    digits = decode_matrix(graph.params, np.asarray(graph.vertices))
    whole = _shift_tables(graph, digits, None)
    monkeypatch.setattr(search_mod, "_ROW_CHUNK_BYTES", 1)  # one row per chunk
    clock = itertools.count(1)
    monkeypatch.setattr(search_mod, "time", types.SimpleNamespace(monotonic=lambda: next(clock)))
    # the clock reads 1 and 2 before the first two chunks and 3 before the third
    assert _shift_tables(graph, digits, 2.5) is None
    assert next(clock) == 4
    # a full pass reads it before each chunk of the down-sets and of the up-sets
    clock = itertools.count(1)
    assert _shift_tables(graph, digits, float("inf")) == whole
    assert next(clock) == 2 * graph.vertex_count + 1


def test_graph_build_checks_deadline_between_agreement_chunks(monkeypatch):
    import isecode.search as search_mod
    import isecode.words as words_mod

    whole = build_compat_graph(6, 2, (1, 1))
    m = whole.vertex_count
    verts = np.asarray(whole.vertices)
    digits = decode_matrix(whole.params, verts)
    monkeypatch.setattr(words_mod, "_PLANE_BYTES", 1)  # one agreement row per chunk
    clock = itertools.count(1)
    monkeypatch.setattr(search_mod, "time", types.SimpleNamespace(monotonic=lambda: next(clock)))
    # the clock reads 1, 2 and 3 before the second, third and fourth chunks
    assert search_mod._graph(whole.params, whole.demand, verts, digits, 2.5) is None
    assert next(clock) == 4
    # a full build reads it before every chunk after the first
    clock = itertools.count(1)
    assert search_mod._graph(whole.params, whole.demand, verts, digits, float("inf")) == whole
    assert next(clock) == m
    # max_family starts at 1 with a deadline of 3.5; the build stops at 4 and returns at 5
    clock = itertools.count(1)
    expired = max_family(6, 2, (1, 1), timeout_ms=2500)
    assert not expired.complete
    assert (expired.max_size, expired.nodes, expired.orbits, len(expired.witness)) == (0, 0, 0, 0)
    assert expired.elapsed == expired.stats.build == 4
    assert (expired.stats.orbits, expired.stats.greedy, expired.stats.branch) == (0, 0, 0)
    assert (expired.stats.incumbent, expired.stats.rule, expired.stats.vertices) == (0, "shift", m)


def test_rule_follows_the_alphabet():
    assert max_family(5, 2, (0, 0)).stats.rule == "shift"
    assert max_family(5, 2, (2, 1)).stats.rule == "shift"
    assert max_family(4, 3, (1, 0, 0)).stats.rule == "quotient"
    assert max_family(4, 3, (0, 0, 1)).stats.rule == "quotient"
    assert max_family(4, 3, (1, 1, 0)).stats.rule == "orbit"
    assert max_family(4, 3, (0, 0, 0)).stats.rule == "orbit"
    expired = max_family(6, 2, (1, 1), timeout_ms=0)
    assert expired.stats.rule == "shift" and not expired.complete and expired.nodes == 0
    assert _is_left_shifted(expired.witness, 1)  # the greedy's first pick, shifted
    expired = max_family(7, 3, (0, 2, 0), timeout_ms=0)
    assert expired.stats.rule == "quotient" and not expired.complete and expired.nodes == 0
    # the greedy's first pick is the 1-set of all positions: its fibre is one word
    assert len(expired.witness) == expired.max_size == expired.stats.incumbent == 1
    assert expired.witness.is_t_intersecting((0, 2, 0))
    # two demanded symbols and two stars: the orbit rule on the pattern graph
    assert max_family(4, 4, (1, 1, 0, 0)).stats.rule == "orbit"
    expired = max_family(6, 4, (0, 1, 0, 1), timeout_ms=0)
    assert expired.stats.rule == "orbit" and not expired.complete and expired.nodes == 0
    assert expired.stats.vertices == 602
    # the greedy's first pick is one pattern; the witness is every word with that pattern
    assert len(expired.witness) == expired.max_size == expired.stats.incumbent >= 1
    assert expired.witness.is_t_intersecting((0, 1, 0, 1))
    assert expired.witness.is_pinned_complete({2, 4})


def _demands_with_a_zero(n, s):
    for t in itertools.product(range(n + 1), repeat=s):
        if sum(t) <= n and 0 in t:
            yield t


def test_maximal_families_are_complete_for_the_demanded_symbols():
    # the lemma under the quotient rule: adding a word that keeps every
    # demanded-symbol position of a member keeps the demand, so a maximal
    # family holds it
    rng = random.Random(4)
    checked = 0
    for s, n in ((3, 1), (3, 2), (3, 3), (3, 4), (4, 1), (4, 2), (4, 3), (4, 4)):
        params = SpaceParams(s, n)
        demands = list(_demands_with_a_zero(n, s))
        for t in rng.sample(demands, min(len(demands), 12)):
            family = Family.from_words(params, maximal_intersecting_words(params, t, rng))
            demanded = {sym for sym in range(1, s + 1) if t[sym - 1]}
            assert brute_is_complete(family, demanded), (s, n, t)
            checked += len(demanded) > 0 and len(family) < params.size
    assert checked > 40


def _one_sets(family, symbol):
    """The s = 2 family of the `symbol`-sets of a family's members."""
    n = family.params.n
    words = {tuple(1 if x == symbol else 2 for x in word) for word in family.members()}
    return Family.from_words(SpaceParams(2, n), sorted(words))


@pytest.mark.parametrize("s, n_max", [(3, 5), (4, 4), (5, 3)])
def test_quotient_witnesses_are_lifted_shifted_families(s, n_max):
    for n in range(1, n_max + 1):
        for t, symbol in itertools.product(range(1, n + 1), range(1, s + 1)):
            demand = tuple(t if c == symbol else 0 for c in range(1, s + 1))
            result = max_family(n, s, demand)
            witness = result.witness
            assert result.complete and result.stats.rule == "quotient"
            assert result.max_size == len(witness) == product_allocation(n, s, demand).count
            assert result.stats.incumbent <= result.max_size
            assert result.orbits == n - t + 1  # the 1-set sizes t..n
            assert witness.is_t_intersecting(demand), (n, s, demand)
            assert witness.is_pinned_complete({symbol}), (n, s, demand)
            sets = _one_sets(witness, symbol)
            # a union of whole fibres: each 1-set S brings (s - 1)**(n - |S|) words
            sizes = [word.count(1) for word in sets.members()]
            assert sum((s - 1) ** (n - k) for k in sizes) == len(witness)
            assert _is_left_shifted(sets, 1), (n, s, demand)
            if n <= 2:  # at most 16 vertices
                assert result.max_size == brute_max_intersecting(n, s, demand)


def _assert_slot_order(graph, weight):
    # at q >= 3: ascending weight, then descending degree, then ascending index
    degree = [row.bit_count() for row in graph.adjacency]
    keys = [(w, -d, word) for w, d, word in zip(weight, degree, graph.vertices)]
    assert keys == sorted(keys)


def _assert_permuted(graph, words):
    # the same vertices and edges as the word graph, in another slot order
    assert (graph.params, graph.demand) == (words.params, words.demand)
    assert sorted(graph.vertices) == list(words.vertices)
    slot = {word: v for v, word in enumerate(words.vertices)}
    to_words = [slot[word] for word in graph.vertices]
    for v, row in enumerate(graph.adjacency):
        assert sum(1 << to_words[u] for u in _iter_bits(row)) == words.adjacency[to_words[v]]


def test_quotient_graph_slots_rise_in_weight():
    graph, weight, *_ = _quotient_graph(6, 3, (2, 0, 0))
    sizes = [6 - v.bit_count() for v in graph.vertices]  # |S|: digit 0 marks symbol 1
    assert weight == [2 ** (6 - k) for k in sizes]
    assert weight == sorted(weight)
    slots = list(zip(weight, graph.vertices))
    assert slots == sorted(slots)  # then ascending index
    assert graph.vertex_count == 57  # the 1-sets of at least two positions
    binary = build_compat_graph(6, 2, (2, 1))
    assert _quotient_graph(6, 2, (2, 1))[:2] == (binary, [1] * binary.vertex_count)


def test_pattern_graph_weighs_stars():
    # two demanded symbols and a star for the other two: a pattern with c stars
    # stands for the 2**c words that write symbol 3 or 4 at each star
    graph, weight, *_ = _quotient_graph(6, 4, (1, 1, 0, 0))
    assert graph.params == SpaceParams(3, 6) and graph.demand == (1, 1, 0)
    stars = (decode_matrix(graph.params, np.asarray(graph.vertices)) == 3).sum(axis=1)
    assert weight == (2**stars).tolist() == sorted(weight)
    _assert_slot_order(graph, weight)
    assert graph.vertex_count == 602 < build_compat_graph(6, 4, (1, 1, 0, 0)).vertex_count == 2702
    # the patterns' words are the word graph's vertices, each counted once
    assert sum(weight) == 2702
    assert sorted(graph.vertices) == list(build_compat_graph(6, 3, (1, 1, 0)).vertices)
    # q = s: one zero demand, none, or all zero; every weight is 1 and the graph is the word
    # graph, its slots by descending degree
    for n, s, t in ((5, 3, (1, 1, 0)), (4, 3, (1, 1, 1)), (3, 3, (0, 0, 0)), (4, 4, (2, 1, 1, 0))):
        graph, weight, *_ = _quotient_graph(n, s, t)
        assert weight == [1] * graph.vertex_count
        _assert_permuted(graph, build_compat_graph(n, s, t))
        _assert_slot_order(graph, weight)


@pytest.mark.parametrize(
    "n, s, t",
    [
        (6, 4, (1, 1, 0, 0)),  # orbit rule, with stars
        (6, 3, (2, 0, 0)),  # quotient rule: slots by size, not by index
        (6, 2, (2, 1)),  # shift rule
        (4, 3, (1, 1, 1)),  # q = s
        (3, 3, (0, 0, 0)),
        (2, 3, (3, 0, 0)),  # no vertices
    ],
)
def test_quotient_graph_matrix_is_its_vertices_decoded(n, s, t):
    graph, _, digits, _ = _quotient_graph(n, s, t)
    assert digits.shape == (graph.vertex_count, n)
    assert (digits == decode_matrix(graph.params, np.asarray(graph.vertices))).all()


def _orbit_rule_demands(s, n_max):
    # every non-increasing demand, as max_family searches them, with two or more nonzero
    # entries or none: the demands of the orbit rule at s >= 3
    for n in range(1, n_max + 1):
        for t in itertools.product(range(n + 1), repeat=s):
            if sum(t) <= n and list(t) == sorted(t, reverse=True) and s - t.count(0) != 1:
                yield n, t


@pytest.mark.parametrize("s, n_max", [(3, 7), (4, 5), (5, 4)])
def test_orbit_rule_slots_descend_in_degree(s, n_max):
    # the degree that orders the slots is counted from one row per orbit before the build,
    # so it needs every orbit's vertices to share their degree in the built graph
    checked = 0
    for n, t in _orbit_rule_demands(s, n_max):
        graph, weight, digits, orbit = _quotient_graph(n, s, t)
        assert orbit == _orbits(digits, graph.demand).tolist()  # numbered by first slot
        degree = {}
        for k, row in zip(orbit, graph.adjacency):
            assert degree.setdefault(k, row.bit_count()) == row.bit_count(), (n, t, k)
        _assert_slot_order(graph, weight)
        checked += 1
    assert checked == {3: 66, 4: 28, 5: 15}[s]


@pytest.mark.parametrize(
    "n, s, t", [(5, 3, (1, 1, 1)), (6, 4, (1, 1, 0, 0)), (5, 3, (2, 0, 0)), (5, 2, (1, 1))]
)
def test_orbits_are_numbered_once_per_search(monkeypatch, n, s, t):
    # the orbit numbering that orders the slots is renumbered, not recomputed, for the search
    import isecode.search as search_mod

    calls = []
    monkeypatch.setattr(search_mod, "_orbits", lambda *a: calls.append(a) or _orbits(*a))
    assert max_family(n, s, t).complete
    assert len(calls) == 1


def test_degree_order_proves_open_orbit_rows():
    # open at 30 s when the orbit rule coloured and branched in ascending index order
    # (1,369,849 and 58,214 nodes); each equals the block allocation
    for n, s, t, size in ((7, 3, (1, 1, 1), 81), (8, 3, (1, 1, 0), 729)):
        result = max_family(n, s, t, timeout_ms=10_000)
        assert result.complete and result.stats.rule == "orbit", (n, t)
        assert result.max_size == size == product_allocation(n, s, t).count
        assert len(result.witness) == size and result.witness.is_t_intersecting(t)


@pytest.mark.parametrize("s", [3, 4])
def test_single_demand_orbits_are_the_one_set_sizes(s):
    # a pattern is a 1-set S with |S| >= t, and its orbit is |S|: one orbit per size t..n
    for n in range(1, 7):
        for t in range(1, n + 1):
            for pos in range(s):
                demand = tuple(t if sym == pos else 0 for sym in range(s))
                assert max_family(n, s, demand).orbits == n - t + 1, (n, demand)


@pytest.mark.parametrize("s, n_max", [(4, 4), (5, 3)])
def test_pattern_quotient_matches_the_clique_oracle(s, n_max):
    # every demand, in every labelling, with a nonzero entry and two or more
    # zero entries: the rows searched on a pattern graph with a star; the
    # single-nonzero rows at n = 4 (175 words, a clique of 64) are beyond the
    # oracle's plain bound, and test_quotient_witnesses_are_lifted_shifted_families
    # checks them against product_allocation
    oracle = {}
    checked = 0
    for n in range(1, n_max + 1):
        for t in itertools.product(range(n + 1), repeat=s):
            k = s - t.count(0)
            if not 1 <= k <= s - 2 or sum(t) > n or (k == 1 and n == 4):
                continue
            result = max_family(n, s, t)
            # relabelling the symbols maps the word graph onto the sorted demand's
            key = (n, tuple(sorted(t, reverse=True)))
            if key not in oracle:
                oracle[key] = brute_max_clique(n, s, key[1])
            assert result.complete and result.stats.rule == ("quotient" if k == 1 else "orbit")
            assert result.max_size == len(result.witness) == oracle[key], (n, s, t)
            assert brute_intersecting(result.witness, t), (n, s, t)
            demanded = {c + 1 for c in range(s) if t[c]}
            assert result.witness.is_pinned_complete(demanded), (n, s, t)
            checked += k >= 2 and oracle[key] > 1
    assert checked >= 10  # two or more demanded symbols, and a family larger than one word
