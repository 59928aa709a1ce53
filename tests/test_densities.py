import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramsey_lab.densities import (
    _max_edges_by_size,
    bridge_join,
    classify,
    max_2_density,
    max_density,
)
from ramsey_lab.errors import DomainError
from ramsey_lab.gnp import sample_gnp
from ramsey_lab.graphs import Graph, enumerate_trees, matching, parse_graph, path, star

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
    """Both block splits (odd and even n) and Gray-code removals on
    graphs past the exhaustively checked 7-vertex atlas."""
    for n in range(10, 17):
        for trial, p in enumerate((0.2, 0.5, 0.8)):
            g = sample_gnp(n, p, seed=n, trial=trial)
            assert _max_edges_by_size(g) == max_edges_by_size_oracle(g), (n, p)


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
