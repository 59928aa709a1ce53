import itertools
import random

import pytest

from ramsey_lab.errors import GraphParseError
from ramsey_lab.graphs import (
    Colouring,
    Embedding,
    Graph,
    avoids,
    colour_degree,
    contains,
    enumerate_trees,
    find_embedding,
    find_monochromatic_copy,
    find_rainbow_copy,
    is_isomorphic,
    matching,
    parse_graph,
    path,
    rooted_code,
    star,
    tree_code,
    verify_witness,
)
from ramsey_lab.trees import CompleteAryTree, LayeredTree, RootedTree

from oracles import brute_force_trees, naive_copy, random_canonical_colouring, rooted_code_oracle


def test_parse_families():
    k3 = parse_graph("K3")
    assert (k3.n, k3.e) == (3, 3)
    t = parse_graph("T(3,2)")
    assert t.n == 13  # 1 + 3 + 9
    g = parse_graph("K1,2+K2")
    assert (g.n, g.e, len(g.components)) == (5, 3, 2)
    assert parse_graph("B2").n == 7
    sf = parse_graph("SF(2,3)")
    assert (sf.n, sf.e) == (7, 5)
    assert parse_graph("M3").e == 3
    assert parse_graph("P0").n == 1


def test_parse_star_vs_complete():
    assert parse_graph("K12").n == 12
    assert parse_graph("K1,2").n == 3
    assert parse_graph("K1,2").max_degree == 2


def test_parse_vertex_numbering():
    # centres first, then level order
    s = parse_graph("K1,4")
    assert s.degree(0) == 4
    t = parse_graph("T(2,2)")
    assert sorted(t.adj[0]) == [1, 2]
    assert sorted(t.adj[1]) == [0, 3, 4]


def test_parse_edge_list():
    g = parse_graph("5; 0 1; 2 3")
    assert (g.n, g.e) == (5, 2)
    g = parse_graph("3\n0 1  # a comment\n1 2\n")
    assert g.e == 2


@pytest.mark.parametrize("bad", ["", "K", "Q3", "K1,2+", "3; 0 5", "2; 0 0", "x; 0 1"])
def test_parse_errors(bad):
    with pytest.raises(GraphParseError):
        parse_graph(bad)


def test_mono_copy_examples():
    k3 = parse_graph("K3")
    assert find_monochromatic_copy(k3, Colouring.constant(k3), star(2)) is not None
    assert find_monochromatic_copy(k3, Colouring.rainbow(k3), star(2)) is None
    p3 = path(3)
    chi = Colouring.from_values(p3, [0, 0, 1])
    assert find_monochromatic_copy(p3, chi, matching(2)) is None


def test_rainbow_copy_examples():
    k3 = parse_graph("K3")
    assert find_rainbow_copy(k3, Colouring.rainbow(k3), star(2)) is not None
    p3 = path(3)
    assert find_rainbow_copy(p3, Colouring.from_values(p3, [0, 0, 1]), p3) is None
    g = parse_graph("K1,2+K2")
    emb = find_rainbow_copy(g, Colouring.from_values(g, [0, 1, 0]), matching(2))
    assert emb is not None
    assert (3, 4) in emb.image_edges()


def test_single_edge_always_monochromatic():
    rng = random.Random(5)
    for _ in range(30):
        n = rng.randint(2, 6)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5]
        g = Graph.of(n, pairs)
        if g.e == 0:
            continue
        chi = random_canonical_colouring(rng, g)
        assert find_monochromatic_copy(g, chi, Graph.of(2, [(0, 1)])) is not None


def test_colour_degree_examples():
    s = star(3)
    rainbow = Colouring.rainbow(s)
    assert colour_degree(s, rainbow, 0, range(4)) == 3
    assert colour_degree(s, Colouring.constant(s), 0, range(4)) == 1
    assert colour_degree(s, rainbow, 0, [1]) == 1


def test_colouring_canonical_under_renaming():
    g = parse_graph("P3")
    rng = random.Random(11)
    for _ in range(40):
        chi = random_canonical_colouring(rng, g)
        perm = list(range(chi.n_colours))
        rng.shuffle(perm)
        renamed = Colouring.from_values(g, [perm[c] for c in chi.colours])
        assert renamed == chi


def test_copy_finders_against_naive_oracle():
    rng = random.Random(99)
    patterns = [star(2), matching(2), path(3), star(3), parse_graph("K3")]
    for _ in range(150):
        n = rng.randint(2, 7)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.45]
        g = Graph.of(n, pairs)
        chi = random_canonical_colouring(rng, g)
        for h in patterns:
            got_mono = find_monochromatic_copy(g, chi, h) is not None
            got_rain = find_rainbow_copy(g, chi, h) is not None
            assert got_mono == naive_copy(g, chi, h, "mono")
            assert got_rain == naive_copy(g, chi, h, "rainbow")


def test_mono_copy_verifies_image():
    g = parse_graph("K4")
    chi = Colouring.from_values(g, [0, 1, 1, 0, 2, 1])
    emb = find_monochromatic_copy(g, chi, star(2))
    cols = {chi.colour_of(u, v) for u, v in emb.image_edges()}
    assert len(cols) == 1


def test_tree_enumeration_counts():
    assert [sum(1 for _ in enumerate_trees(k)) for k in range(1, 8)] == [1, 1, 1, 2, 3, 6, 11]


@pytest.mark.parametrize("k", range(1, 9))
def test_tree_enumeration_against_brute_force(k):
    mine = list(enumerate_trees(k))
    brute = brute_force_trees(k)
    assert len(mine) == len(brute)
    codes = {tree_code(t) for t in mine}
    assert len(codes) == len(mine)
    assert codes == {tree_code(t) for t in brute}


def test_rooted_code_matches_recursive_oracle():
    for k in range(1, 10):
        for t in enumerate_trees(k):
            for root in range(t.n):
                assert rooted_code(t, root) == rooted_code_oracle(t, root)


def test_tree_code_on_long_path_has_no_recursion_limit():
    # the recursive code needs two frames per level, so a 1501-vertex
    # path exceeded the default limit of 1000; the least code roots the
    # path at an end
    assert tree_code(path(1500)) == "(" * 1501 + ")" * 1501


def test_tree_enumeration_deterministic():
    a = [tree_code(t) for t in enumerate_trees(7)]
    b = [tree_code(t) for t in enumerate_trees(7)]
    assert a == b


def test_isolated_pattern_vertices_need_host_room():
    lonely = Graph.of(3, [(0, 1)])  # an edge plus an isolated vertex
    just_edge = Graph.of(2, [(0, 1)])
    assert not contains(just_edge, lonely)
    assert contains(Graph.of(3, [(0, 1)]), lonely)


def test_is_isomorphic():
    assert is_isomorphic(parse_graph("P2"), star(2))
    assert not is_isomorphic(path(3), star(3))


def test_finders_record_the_kind_of_copy():
    g = parse_graph("P3")
    chi = Colouring.rainbow(g)
    assert find_embedding(g, path(2)).kind == "plain"
    assert find_monochromatic_copy(g, Colouring.constant(g), path(2)).kind == "monochromatic"
    assert find_rainbow_copy(g, chi, path(2)).kind == "rainbow"
    assert find_monochromatic_copy(g, chi, Graph.of(2)).kind == "monochromatic"
    assert find_rainbow_copy(g, chi, Graph.of(2)).kind == "rainbow"


def test_verify_witness_accepts_finder_copies():
    rng = random.Random(83)
    for _ in range(40):
        g = Graph.of(6, [e for e in itertools.combinations(range(6), 2) if rng.random() < 0.6])
        chi = random_canonical_colouring(rng, g)
        for pattern in (path(2), star(3), matching(2), path(3)):
            for emb in (
                find_embedding(g, pattern),
                find_monochromatic_copy(g, chi, pattern),
                find_rainbow_copy(g, chi, pattern),
            ):
                if emb is not None:
                    verify_witness(g, chi, emb)


def test_verify_witness_rejects_broken_copies():
    g = path(3)
    chi = Colouring.from_values(g, [0, 0, 1])
    verify_witness(g, chi, Embedding(path(2), (0, 1, 2), "monochromatic"))
    verify_witness(g, chi, Embedding(path(2), (1, 2, 3), "rainbow"))
    broken = [
        Embedding(path(2), (0, 1, 0), "plain"),  # not injective
        Embedding(path(2), (0, 1, 3), "plain"),  # (1, 3) is not an edge
        Embedding(path(2), (1, 2, 3), "monochromatic"),  # colours 0 and 1
        Embedding(path(2), (0, 1, 2), "rainbow"),  # colour 0 twice
    ]
    for emb in broken:
        with pytest.raises(AssertionError):
            verify_witness(g, chi, emb)


def test_tree_has_edge_matches_explicit_graph():
    for lazy in (CompleteAryTree(3, 2), LayeredTree((2, 3, 1))):
        g = lazy.to_graph()
        rooted = RootedTree.from_graph(g, 4)
        for u in range(-1, g.n + 1):
            for v in range(-1, g.n + 1):
                assert lazy.has_edge(u, v) == rooted.has_edge(u, v) == g.has_edge(u, v)


def test_avoids_is_both_finders():
    rng = random.Random(89)
    for _ in range(40):
        g = Graph.of(5, [e for e in itertools.combinations(range(5), 2) if rng.random() < 0.5])
        chi = random_canonical_colouring(rng, g)
        for h1, h2 in ((path(2), path(2)), (matching(2), path(3)), (star(2), star(3))):
            expected = not naive_copy(g, chi, h1, "mono") and not naive_copy(g, chi, h2, "rainbow")
            assert avoids(g, chi, h1, h2) == expected
