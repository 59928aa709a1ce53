import itertools
import random
import re
import tracemalloc
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramsey_lab.densities import (
    DEFAULT_DENSITY_VERTEX_BUDGET,
    LOW_BLOCK,
    _low_block,
    _low_table,
    _max_edges_by_size,
    bridge_join,
    classify,
    max_2_density,
    max_density,
)
from ramsey_lab.errors import BudgetError, DomainError
from ramsey_lab.gnp import sample_gnp
from ramsey_lab.graphs import Graph, complete_graph, enumerate_trees, matching, parse_graph, path, star

from oracles import density_oracle, max_edges_by_size_oracle, random_tree


def test_max_density_examples():
    assert max_density(parse_graph("K2")) == Fraction(1, 2)
    assert max_density(parse_graph("K3")) == Fraction(1)
    for k in range(2, 8):
        for t in enumerate_trees(k):
            assert max_density(t) == Fraction(k - 1, k)


def test_max_density_empty_graph_refused():
    with pytest.raises(DomainError):
        max_density(Graph.of(0))


def test_max_2_density_examples():
    assert max_2_density(parse_graph("K2")) == Fraction(1, 2)
    assert max_2_density(parse_graph("K3")) == Fraction(2)
    assert max_2_density(Graph.of(1)) == 0
    assert max_2_density(Graph.of(2)) == 0
    # any forest with a component on >= 3 vertices
    for spec in ("P2", "P3", "K1,3", "K1,2+K2", "P4+M2"):
        assert max_2_density(parse_graph(spec)) == 1
    # the maximum runs over subgraphs with at least one edge
    for n in range(3, 6):
        assert max_2_density(Graph.of(n)) == 0
        assert max_2_density(Graph.of(n, [(0, 1)])) == Fraction(1, 2)
    assert max_2_density(parse_graph("K3+K1")) == 2


def test_densities_against_all_subsets_oracle():
    rng = random.Random(4)
    for _ in range(50):
        n = rng.randint(1, 6)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5]
        g = Graph.of(n, pairs)
        om, om2 = density_oracle(g)
        assert max_density(g) == om
        assert max_2_density(g) == om2


def test_monotone_under_edge_addition():
    rng = random.Random(8)
    for _ in range(40):
        n = rng.randint(2, 7)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        rng.shuffle(pairs)
        cut = rng.randint(0, len(pairs) - 1)
        g = Graph.of(n, pairs[:cut])
        bigger = g.add_edges([pairs[cut]])
        assert max_density(bigger) >= max_density(g)
        assert max_2_density(bigger) >= max_2_density(g)


@st.composite
def small_graphs(draw) -> Graph:
    """Graphs on 1..9 vertices; low densities leave isolated vertices."""
    n = draw(st.integers(1, 9))
    pairs = list(itertools.combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph.of(n, [p for p, k in zip(pairs, keep) if k])


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(small_graphs())
def test_densities_match_oracle_property(g):
    assert (max_density(g), max_2_density(g)) == density_oracle(g)
    assert _max_edges_by_size(g) == max_edges_by_size_oracle(g)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(small_graphs(), st.data())
def test_densities_monotone_laws(g, data):
    """m and m2 never drop when a vertex or an edge is added."""
    m, m2 = max_density(g), max_2_density(g)
    bigger = Graph.of(g.n + 1, g.edges)
    assert max_density(bigger) >= m and max_2_density(bigger) >= m2
    missing = [p for p in itertools.combinations(range(g.n), 2) if p not in g.edges]
    if missing:
        bigger = g.add_edges([data.draw(st.sampled_from(missing))])
        assert max_density(bigger) >= m and max_2_density(bigger) >= m2


def test_max_edges_by_size_against_subset_walk():
    """Graphs past the exhaustively checked 7-vertex atlas: no high block
    up to 12 vertices, then high blocks of 1-4 vertices with Gray-code
    removals."""
    for n in range(10, 17):
        for trial, p in enumerate((0.2, 0.5, 0.8)):
            g = sample_gnp(n, p, seed=n, trial=trial)
            assert _max_edges_by_size(g) == max_edges_by_size_oracle(g), (n, p)


@st.composite
def block_boundary_graphs(draw) -> Graph:
    """Graphs on 13..16 vertices: a full low block and 1..4 high vertices."""
    n = draw(st.integers(13, 16))
    pairs = list(itertools.combinations(range(n), 2))
    p = draw(st.sampled_from((0.15, 0.4, 0.7, 0.95)))
    keep = draw(st.lists(st.floats(0, 1), min_size=len(pairs), max_size=len(pairs)))
    return Graph.of(n, [pair for pair, x in zip(pairs, keep) if x < p])


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(block_boundary_graphs())
def test_packed_walk_matches_oracle_across_the_block_boundary(g):
    assert _max_edges_by_size(g) == max_edges_by_size_oracle(g)


def test_packed_walk_small_orders_have_no_high_block():
    assert _max_edges_by_size(Graph.of(0)) == [0]
    assert _max_edges_by_size(Graph.of(1)) == [0, 0]
    rng = random.Random(15)
    for n in range(2, LOW_BLOCK + 1):
        for p in (0.0, 0.3, 0.7, 1.0):
            pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
            g = Graph.of(n, pairs)
            assert _max_edges_by_size(g) == max_edges_by_size_oracle(g), (n, p)


def test_packed_walk_dense_graphs_closed_forms():
    # K23 has 253 edges and K24 276, but at most 246 of them touch the
    # first 12 vertices up to K27; K28 has 258 there, so its low block
    # shrinks to 11 vertices
    for k in (23, 24, 25, 28):
        assert _max_edges_by_size(complete_graph(k)) == [comb(j, 2) for j in range(k + 1)], k
    assert _low_block(complete_graph(27)) == 12 and _low_block(complete_graph(28)) == 11
    # one edge fewer: only the whole vertex set loses it
    for k, (u, v) in ((24, (3, 17)), (28, (5, 20))):
        g = Graph(k, complete_graph(k).edges - {(u, v)})
        assert _max_edges_by_size(g) == [comb(j, 2) for j in range(k)] + [comb(k, 2) - 1], k


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 40), st.floats(0, 1), st.integers(0, 1 << 16))
def test_low_block_is_the_largest_whose_counts_fit_a_byte(n, p, seed):
    g = sample_gnp(n, p, seed=seed, trial=0)
    low = _low_block(g)

    def touching(size: int) -> int:
        return sum(1 for u, v in g.edges if min(u, v) < size)

    assert 0 <= low <= min(n, LOW_BLOCK) and touching(low) <= 255
    assert low == min(n, LOW_BLOCK) or touching(low + 1) > 255


def test_low_table_lists_each_subset_once_by_size():
    for low in (0, 1, 2, 5, 11, 12):
        ind, slices = _low_table(low)
        # subset j is read back from byte j of every vertex's indicator
        bits = [list(ind[v].to_bytes(1 << low, "little")) for v in range(low)]
        for v in range(low):
            assert set(bits[v]) == {0, 1}, (low, v)
        subsets = [sum(bits[v][j] << v for v in range(low)) for j in range(1 << low)]
        assert sorted(subsets) == list(range(1 << low)), low
        assert [k for k, _, _ in slices] == list(range(low + 1))
        for k, a, b in slices:
            assert b - a == comb(low, k) and all(s.bit_count() == k for s in subsets[a:b]), (low, k)
        assert slices[0][1] == 0 and slices[-1][2] == 1 << low
        assert all(prev[2] == nxt[1] for prev, nxt in zip(slices, slices[1:]))


def test_packed_walk_memory_does_not_grow_with_the_subset_count():
    # 2^24 subsets in n + 1 columns of 4 KB, plus the table's transients
    g = sample_gnp(24, 0.5, seed=24, trial=0)
    _low_table.cache_clear()  # the table's build counts too
    tracemalloc.start()
    try:
        best = _max_edges_by_size(g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 256 << 10, peak
    assert best[24] == g.e and best[2] == 1


def test_subset_walk_budget_refuses_from_the_order_alone():
    huge = Graph.of(1_000_000, [(0, 1)])
    line = (
        "1000000 vertices exceeds the subset-walk budget of 26;"
        " raise --density-budget to walk all 2^1000000 vertex subsets"
    )
    tracemalloc.start()
    try:
        for fn in (max_density, max_2_density):
            with pytest.raises(BudgetError, match=f"^{re.escape(line)}$"):
                fn(huge)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 << 10, peak
    assert DEFAULT_DENSITY_VERTEX_BUDGET == 26
    k5 = complete_graph(5)
    for fn in (max_density, max_2_density):
        with pytest.raises(BudgetError, match="^5 vertices exceeds the subset-walk budget of 4;"):
            fn(k5, vertex_budget=4)
    assert max_density(k5, vertex_budget=5) == 2 and max_2_density(k5, vertex_budget=5) == 3
    assert max_density(k5, vertex_budget=None) == 2  # None lifts the cap


def test_forest_density_is_largest_component():
    rng = random.Random(12)
    for _ in range(30):
        comps = [random_tree(rng, rng.randint(1, 6)) for _ in range(rng.randint(1, 4))]
        f = Graph.of(0)
        for c in comps:
            f = f.disjoint_union(c)
        top = max(c.n for c in comps)
        if f.e == 0:
            continue
        assert max_density(f) == 1 - Fraction(1, top)


def test_classify_examples():
    c = classify(matching(2))
    assert c.is_matching and c.is_star_forest and c.is_constellation and c.is_short_forest
    c = classify(star(3))
    assert c.is_star and c.is_star_forest and not c.is_constellation
    c = classify(path(3))
    assert c.is_forest and not c.is_star_forest
    assert not c.is_short_forest


def test_classify_ignores_isolated_vertices():
    lonely_cherry = Graph.of(5, [(0, 1), (0, 2)])
    c = classify(lonely_cherry)
    assert c.is_cherry and c.is_star and c.k_nonisolated == 3
    assert classify(parse_graph("K1,2")).k_nonisolated == 3
    assert classify(matching(2)).k_nonisolated == 4


def test_classify_edgeless():
    c = classify(Graph.of(3))
    assert c.is_forest
    assert not (c.is_star or c.is_matching or c.is_star_forest or c.is_short_forest)


def test_bridge_join_law_small_sample():
    # every connected pair on <= 4 vertices; the full <= 6 sweep runs in acceptance
    graphs = []
    for n in range(1, 5):
        pairs = list(itertools.combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            g = Graph.of(n, [p for i, p in enumerate(pairs) if mask >> i & 1])
            if len(g.components) == 1:
                graphs.append(g)
    for g1 in graphs:
        if g1.e < 1:
            continue
        for g2 in graphs:
            if max_2_density(g1) < max_2_density(g2):
                continue
            expected = max(max_2_density(g1), Fraction(1))
            for u in range(g1.n):
                for v in range(g2.n):
                    assert max_2_density(bridge_join(g1, g2, u, v)) == expected
