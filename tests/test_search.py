import sys
import time
from fractions import Fraction

import pytest

from isecode import (
    ParameterError,
    build_compat_graph,
    max_family,
    product_allocation,
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


def test_timeout_covers_greedy_phase():
    # one greedy pass alone takes several seconds on this instance (4095 vertices)
    start = time.monotonic()
    result = max_family(12, 2, (1, 0), timeout_ms=1000)
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
    # the two-block majority optimum is the block allocation at s = 2
    assert product_allocation(4, 2, (1, 1)).count == 4
    # zero slack: the single fully constrained word
    assert product_allocation(5, 2, (2, 3)).count == 1
    assert product_allocation(6, 2, (2, 3)).count == 2
    assert product_allocation(2, 2, (1, 1)).count == 1
    assert product_allocation(3, 2, (1, 1)).count == 2


def test_best_binary_majority_validation():
    assert product_allocation(4, 2, (0, 1)).count == 8  # the power bound
    with pytest.raises(ParameterError):
        product_allocation(3, 2, (2, 2))


def test_vertex_cap(monkeypatch):
    import isecode.search as search_mod

    monkeypatch.setattr(search_mod, "VERTEX_CAP", 8)
    with pytest.raises(ParameterError):
        build_compat_graph(2, 3, (0, 0, 0))
