import sys
import time
from fractions import Fraction

import pytest

from isecode import (
    ParameterError,
    SearchTimeout,
    best_binary_majority,
    build_compat_graph,
    majority_tail_count,
    max_density,
    max_family,
)
from isecode.words import SpaceParams

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


def test_max_density_examples():
    assert max_density(2, 3, (1, 0, 0)) == Fraction(1, 3)
    assert max_density(3, 3, (0, 0, 0)) == 1
    assert max_density(3, 3, (1, 1, 0)) == Fraction(1, 9)


def test_empty_graph_when_demand_infeasible():
    result = max_family(2, 3, (2, 2, 0))
    assert result.max_size == 0
    assert len(result.witness) == 0


def test_timeout_gives_lower_bound():
    result = max_family(5, 3, (1, 1, 1), timeout_ms=0)
    assert not result.complete
    assert result.max_size >= 1  # greedy incumbent survives
    assert result.witness.is_t_intersecting((1, 1, 1))
    with pytest.raises(SearchTimeout):
        max_density(5, 3, (1, 1, 1), timeout_ms=0)


def test_timeout_covers_greedy_phase():
    # the greedy incumbent alone runs for tens of seconds on this instance
    start = time.monotonic()
    result = max_family(11, 2, (1, 0), timeout_ms=1000)
    assert time.monotonic() - start < 3
    assert not result.complete
    assert result.max_size >= 1 and result.witness.is_t_intersecting((1, 0))


def test_elapsed_covers_graph_build(monkeypatch):
    import isecode.search as search_mod

    build = search_mod.build_compat_graph

    def slow_build(*args):
        time.sleep(0.05)
        return build(*args)

    monkeypatch.setattr(search_mod, "build_compat_graph", slow_build)
    assert max_family(4, 2, (1, 1)).elapsed >= 0.05


def test_max_family_leaves_recursion_limit_alone():
    limit = sys.getrecursionlimit()
    result = max_family(7, 3, (2, 2, 0))  # 1092 vertices, more than the default limit
    assert result.complete and result.max_size == 27
    assert sys.getrecursionlimit() == limit


def test_best_binary_majority_examples():
    opt = best_binary_majority(4, (1, 1))
    assert (opt.count, opt.size1, opt.size2) == (4, 3, 1)
    # zero slack: the single fully constrained word
    assert best_binary_majority(5, (2, 3)).count == 1
    assert best_binary_majority(6, (2, 3)).count == 2
    assert best_binary_majority(2, (1, 1)).count == 1
    assert best_binary_majority(3, (1, 1)).count == 2


def test_best_binary_majority_large_n():
    # the sweep is a formula over block sizes, so n is not capped
    n, t = 40, (3, 2)
    best = max(
        majority_tail_count(n1, t[0]) * majority_tail_count(n2, t[1]) * 2 ** (n - n1 - n2)
        for n1 in range(n + 1)
        for n2 in range(n - n1 + 1)
    )
    opt = best_binary_majority(n, t)
    assert opt.count == best
    assert opt.count == majority_tail_count(opt.size1, 3) * majority_tail_count(
        opt.size2, 2
    ) * 2 ** (n - opt.size1 - opt.size2)
    assert opt.density == Fraction(best, 2**n)


def test_best_binary_majority_validation():
    with pytest.raises(ParameterError):
        best_binary_majority(4, (0, 1))
    with pytest.raises(ParameterError):
        best_binary_majority(3, (2, 2))


def test_vertex_cap(monkeypatch):
    import isecode.search as search_mod

    monkeypatch.setattr(search_mod, "VERTEX_CAP", 8)
    with pytest.raises(ParameterError):
        build_compat_graph(2, 3, (0, 0, 0))
