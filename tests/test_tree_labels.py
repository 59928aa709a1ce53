import inspect
import math
import random
import sys

import pytest

from ramsey_lab.errors import BudgetError, DomainError
from ramsey_lab.graphs import (
    enumerate_trees,
    find_rainbow_copy,
    norm_edge,
    parse_graph,
    path,
    star,
)
from ramsey_lab.tree_labels import (
    descendant_colouring,
    descendant_counts,
    embed_rainbow_binary,
    lazy_descendant_colouring,
    min_max_path_product,
    path_product_at_least,
    rainbow_binary_host,
)
from ramsey_lab.trees import CompleteAryTree, LayeredTree, RootedTree

from oracles import best_labelling_oracle, mix_colour, random_tree


def test_descendant_counts():
    t = RootedTree.from_graph(path(2), 0)
    counts = descendant_counts(t)
    assert counts == {0: 3, 1: 2, 2: 1}
    big = RootedTree.from_graph(parse_graph("T(3,2)"), 0)
    counts = descendant_counts(big)
    assert counts[0] == 13
    assert all(counts[v] == 1 for v in range(4, 13))


def test_descendant_colouring_examples():
    centre_rooted = RootedTree.from_graph(path(2), 1)
    assert sorted(descendant_colouring(centre_rooted).values()) == [1, 2]
    chain = RootedTree.from_graph(path(2), 0)
    assert list(descendant_colouring(chain).values()) == [1, 1]
    k13 = RootedTree.from_graph(star(3), 0)
    assert sorted(descendant_colouring(k13).values()) == [1, 2, 3]


def test_descendant_colouring_orders_by_subtree_size():
    # a path hung off a star centre: the path child has the larger subtree
    g = parse_graph("5; 0 1; 0 2; 2 3; 3 4")
    t = RootedTree.from_graph(g, 0)
    labels = descendant_colouring(t)
    assert labels[(0, 2)] == 1  # three descendants
    assert labels[(0, 1)] == 2  # leaf


def test_descendant_inequality_on_random_trees():
    rng = random.Random(61)
    for _ in range(200):
        g = random_tree(rng, rng.randint(2, 60))
        t = RootedTree.from_graph(g, rng.randrange(g.n))
        counts = descendant_counts(t)
        labels = descendant_colouring(t)
        for v in range(g.n):
            p = t.parent_of(v)
            if p >= 0:
                assert counts[p] >= 1 + labels[norm_edge(p, v)] * counts[v]


def test_no_monochromatic_three_star_under_descendant_colouring():
    rng = random.Random(67)
    for _ in range(100):
        g = random_tree(rng, rng.randint(3, 40))
        t = RootedTree.from_graph(g, 0)
        labels = descendant_colouring(t)
        for v in range(g.n):
            incident = [labels[norm_edge(v, w)] for w in g.adj[v]]
            assert max(incident.count(c) for c in incident) <= 2


def test_min_max_path_product_values():
    assert min_max_path_product(parse_graph("K2")).value == 1
    assert min_max_path_product(path(2)).value == 2
    assert min_max_path_product(path(3)).value == 3
    assert min_max_path_product(star(3)).value == 3


def test_min_max_path_product_optimum_is_attained():
    best = min_max_path_product(path(3))
    t = RootedTree.from_graph(path(3), best.root)
    worst = 0
    for leaf in (v for v in range(4) if path(3).degree(v) == 1 and v != best.root):
        prod = 1
        v = leaf
        while v != best.root:
            prod *= best.labels[norm_edge(t.parent_of(v), v)]
            v = t.parent_of(v)
        worst = max(worst, prod)
    assert worst == best.value


def test_min_max_path_product_against_unrestricted_labels():
    """Rank compression: labels beyond {1..m} cannot beat the optimum,
    spot-checked by trying all injective labelings from {1..m+2}."""
    import itertools

    for g in (path(2), path(3), star(3)):
        m = g.e
        best = min_max_path_product(g).value
        leaves = [v for v in range(g.n) if g.degree(v) == 1]
        outer = best
        for root in range(g.n):
            t = RootedTree.from_graph(g, root)
            for labels in itertools.permutations(range(1, m + 3), m):
                lab = dict(zip([norm_edge(t.parent_of(v), v) for v in range(g.n) if v != root], labels))
                worst = 0
                for leaf in leaves:
                    if leaf == root:
                        continue
                    prod, v = 1, leaf
                    while v != root:
                        prod *= lab[norm_edge(t.parent_of(v), v)]
                        v = t.parent_of(v)
                    worst = max(worst, prod)
                outer = min(outer, worst)
        assert outer == best


@pytest.mark.parametrize("k", range(2, 8))
def test_pruned_labelling_search_returns_the_first_optimum(k):
    """Value, root and labels equal those of trying every labelling in
    the search's order, so the subtree bound cuts no labelling that the
    search would have returned."""
    for t in enumerate_trees(k):
        best = min_max_path_product(t)
        assert (best.value, best.root, best.labels) == best_labelling_oracle(t)


def test_path_products_beat_factorial_root():
    for d in range(1, 7):
        value = min_max_path_product(path(d)).value
        assert value >= math.isqrt(math.factorial(d))
        assert value * value >= math.factorial(d)


def test_binary_tree_height_two_exact():
    value = min_max_path_product(parse_graph("B2")).value
    assert value == 8
    assert value >= 2 ** 0


def test_height_three_lower_bound():
    assert path_product_at_least(parse_graph("B3"), 2, edge_budget=14)


def test_path_product_at_least_agrees_with_the_optimum():
    from ramsey_lab.graphs import enumerate_trees

    for k in range(2, 8):
        for g in enumerate_trees(k):
            value = min_max_path_product(g).value
            for bound in (1, value - 1, value, value + 1, 2 * value):
                assert path_product_at_least(g, bound) == (value >= bound)


def test_monotone_under_leaf_addition():
    rng = random.Random(71)
    for _ in range(15):
        g = random_tree(rng, rng.randint(2, 6))
        bigger = g.disjoint_union(parse_graph("K1")).add_edges([(rng.randrange(g.n), g.n)])
        assert min_max_path_product(bigger).value >= min_max_path_product(g).value


def test_budget_refusal():
    with pytest.raises(BudgetError):
        min_max_path_product(path(11))
    with pytest.raises(DomainError):
        min_max_path_product(parse_graph("M2"))


def test_rainbow_copy_in_descendant_coloured_tree_implies_size():
    """Hosting a rainbow copy forces the host order above the pattern's
    optimal path product, across all small rooted trees."""
    from ramsey_lab.graphs import enumerate_trees

    patterns = {h: min_max_path_product(parse_graph(h)).value for h in ("P2", "P3", "K1,3")}
    for k in range(2, 11):
        for g in enumerate_trees(k):
            for root in range(g.n):
                t = RootedTree.from_graph(g, root)
                labels = descendant_colouring(t)
                for spec, bound in patterns.items():
                    if find_rainbow_copy(g, labels, parse_graph(spec)) is not None:
                        assert g.n >= bound


def test_labelling_search_depth_does_not_grow_with_the_tree():
    # the recursive fill took one frame per labelled edge, 9 here
    g = path(8)
    assert g.is_forest  # fill the graph's cached properties first
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 15)
    try:
        best = min_max_path_product(g)
    finally:
        sys.setrecursionlimit(limit)
    assert best.value == 210


def test_rainbow_binary_host_shape():
    host = rainbow_binary_host(1)
    assert len(host.child_list(0)) == 8
    host = rainbow_binary_host(2)
    assert host.n == 137
    assert len(host.leaves()) == 128
    assert len(rainbow_binary_host(3).leaves()) == 2 ** 12


def test_embed_rainbow_binary():
    host = rainbow_binary_host(2)
    w = embed_rainbow_binary(host, lambda u, v: u * 10**6 + v, 2)
    assert w.kind == "rainbow"
    w = embed_rainbow_binary(host, lazy_descendant_colouring(host), 2)
    assert w.kind == "rainbow"
    w = embed_rainbow_binary(host, lambda u, v: 0, 2)
    assert w.kind == "monochromatic"
    assert w.pattern == star(3)


def test_embed_rainbow_binary_refuses_narrow_levels():
    host = CompleteAryTree(2, 3)
    with pytest.raises(DomainError):
        embed_rainbow_binary(host, lazy_descendant_colouring(host), 2)
    # depth 1 needs 2^4 children; the levels below the embedding are free
    host = LayeredTree((8, 15, 1))
    with pytest.raises(DomainError):
        embed_rainbow_binary(host, lazy_descendant_colouring(host), 2)
    host = LayeredTree((8, 16, 1))
    assert embed_rainbow_binary(host, lazy_descendant_colouring(host), 2).kind == "rainbow"
    # an explicit tree carries no level widths to check
    host = RootedTree.from_graph(rainbow_binary_host(2).graph, 0)
    with pytest.raises(DomainError):
        embed_rainbow_binary(host, lambda u, v: u * 10**6 + v, 2)


def test_embed_rainbow_binary_random_suite():
    rng = random.Random(73)
    host = rainbow_binary_host(3)
    for _ in range(30):
        chi = _random_star_free_colouring(host, rng.randrange(1 << 30))
        w = embed_rainbow_binary(host, chi, 3)
        assert w.kind == "rainbow"


def _random_star_free_colouring(host, seed):
    """Distinct colours on each vertex's child edges, pseudo-randomly:
    no vertex can then carry three equal-coloured incident edges."""
    mixer = mix_colour(seed, 1 << 30)

    def fn(u, v):
        child = max(u, v)
        parent = host.parent_of(child)
        base = host.child_list(parent)[0]
        return mixer(parent, 0) + (child - base)

    return fn
