import itertools
import random
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ramsey_lab.densities import classify
from ramsey_lab.errors import BudgetError, DomainError, GraphParseError
from ramsey_lab.graphs import (
    Colouring,
    Embedding,
    Graph,
    _coded_trees,
    _plan,
    _search,
    ary_tree_graph,
    avoids,
    colour_degree,
    complete_graph,
    contains,
    edge_orbit_plans,
    enumerate_trees,
    find_embedding,
    find_monochromatic_copy,
    find_rainbow_copy,
    matching,
    parse_graph,
    path,
    rooted_code,
    star,
    tree_code,
    verify_witness,
)
import ramsey_lab.graphs as graphs_module
from ramsey_lab.trees import CompleteAryTree, LayeredTree, RootedTree

from oracles import (
    brute_force_trees,
    coded_trees_oracle,
    copy_finder_oracle,
    isomorphic,
    naive_copy,
    orbit_representatives_oracle,
    pinned_order_oracle,
    random_canonical_colouring,
    rooted_code_oracle,
    search_oracle,
)


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
    # the least code over peripheral roots is the least over all roots,
    # under the brute-force labelling and its reverse
    for t in brute:
        flipped = Graph.of(k, [(k - 1 - u, k - 1 - v) for u, v in t.edges])
        for g in (t, flipped):
            assert tree_code(g) == min(rooted_code_oracle(g, r) for r in range(k))


def test_rooted_code_matches_recursive_oracle():
    for k in range(1, 10):
        for t in enumerate_trees(k):
            for root in range(t.n):
                assert rooted_code(t, root) == rooted_code_oracle(t, root)


def test_rooted_code_refuses_a_graph_that_is_not_a_tree():
    # its breadth-first order keeps no visited set, so on a cycle it never returned
    for g in (complete_graph(3), Graph.of(4, [(0, 1), (2, 3)]), Graph.of(0)):
        with pytest.raises(DomainError, match="rooted_code requires a single tree"):
            rooted_code(g, 0)


def test_tree_code_on_long_path_has_no_recursion_limit():
    # the recursive code needs two frames per level, so a 1501-vertex
    # path exceeded the default limit of 1000; the least code roots the
    # path at an end
    assert tree_code(path(1500)) == "(" * 1501 + ")" * 1501


def test_components_of_a_long_path_take_linear_memory():
    # per-vertex int bitmasks grow with the vertex numbering, about n^2/2
    # bits on a path: a components walk over them peaked at 190 MB on this
    # path, against about 23 MB for a walk over the edges
    g = path(50_000)
    tracemalloc.start()
    try:
        cls = classify(g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert cls.is_forest and cls.k_nonisolated == g.n
    assert peak < 1000 * g.n
    # components build no adjacency, so a forest asked only whether it is
    # one keeps none
    h = path(9)
    assert h.is_tree and "adj" not in vars(h) and "masks" not in vars(h)


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
    assert isomorphic(parse_graph("P2"), star(2))
    assert not isomorphic(path(3), star(3))


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
        g = lazy.graph
        rooted = RootedTree.from_graph(g, 4)
        for u in range(-1, g.n + 1):
            for v in range(-1, g.n + 1):
                assert lazy.has_edge(u, v) == rooted.has_edge(u, v) == g.has_edge(u, v)


def test_lazy_hosts_navigate_like_their_explicit_trees():
    hosts = [CompleteAryTree(d, h) for d in range(1, 5) for h in range(4)]
    hosts += [LayeredTree(w) for w in ((2, 3, 1), (1, 4), (5,), (8, 16))]
    for lazy in hosts:
        explicit = RootedTree.from_graph(lazy.graph, 0)
        assert (lazy.n, lazy.height) == (explicit.n, explicit.height)
        assert lazy.graph.e == lazy.n - 1
        for v in range(lazy.n):
            assert lazy.parent_of(v) == explicit.parent_of(v)
            assert tuple(lazy.child_list(v)) == explicit.child_list(v)
            assert lazy.depth_of(v) == explicit.depth_of(v)
            assert lazy.is_leaf(v) == explicit.is_leaf(v)
        for u in range(-1, lazy.n + 1):
            for v in range(-1, lazy.n + 1):
                assert lazy.has_edge(u, v) == explicit.has_edge(u, v)


def test_lazy_host_graph_is_budgeted():
    with pytest.raises(BudgetError, match="2097151 vertices exceeds the budget of 1048576"):
        CompleteAryTree(2, 20).graph


def test_dsl_terms_above_the_cap_are_refused_before_they_are_built():
    refusals = {
        "K1,30000000": "term K1,30000000 has 30000001 vertices, above the cap 1000000",
        "K30000000": "term K30000000 has 30000000 vertices, above the cap 1000000",
        "K1415": "term K1415 has 1000405 edges, above the cap 1000000",
        "P30000000": "term P30000000 has 30000001 vertices, above the cap 1000000",
        "M30000000": "term M30000000 has 60000000 vertices, above the cap 1000000",
        "SF(2,30000000)": r"term SF\(2,30000000\) has 30000004 vertices, above the cap 1000000",
    }
    tracemalloc.start()
    try:
        for spec, message in refusals.items():
            with pytest.raises(DomainError, match=f"^{message}$"):
                parse_graph(spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # any of these graphs, built, would take hundreds of megabytes
    assert peak < 1 << 20


def test_dsl_cap_boundary_for_terms_and_unions(monkeypatch):
    monkeypatch.setattr(graphs_module, "DSL_VERTEX_CAP", 10)
    for spec in ("K1,9", "K5", "P9", "M5", "SF(4,4)", "P4+P4", "K4+K1,3"):
        assert parse_graph(spec).n <= 10, spec
    refusals = {
        "K1,10": "term K1,10 has 11 vertices",
        "K6": "term K6 has 15 edges",
        "P10": "term P10 has 11 vertices",
        "M6": "term M6 has 12 vertices",
        "SF(4,5)": r"term SF\(4,5\) has 11 vertices",
        "T(3,2)": r"tree T\(3,2\) has 13 vertices",
        "P4+P5": "the union has 11 vertices",
        "K4+K4+P1": "the union has 12 edges",
    }
    for spec, message in refusals.items():
        with pytest.raises(DomainError, match=f"^{message}, above the cap 10$"):
            parse_graph(spec)


def test_tree_terms_are_refused_without_computing_their_order():
    # d^(h+1) here would have 40 million bits; the refusal reads d and h only
    refusals = {
        "B40000000": r"tree T\(2,40000000\) has at least 2\^40000000 vertices",
        "B10000000000": r"tree T\(2,10000000000\) has at least 2\^10000000000 vertices",
        "T(4,1000000)": r"tree T\(4,1000000\) has at least 2\^2000000 vertices",
        # a lower bound for an arity that is not a power of two: d^h >= 2^h
        "T(3,1000000)": r"tree T\(3,1000000\) has at least 2\^1000000 vertices",
        # small enough to count exactly, as before
        "T(10,5000)": r"tree T\(10,5000\) has at least 2\^16609 vertices",
    }
    tracemalloc.start()
    try:
        for spec, message in refusals.items():
            with pytest.raises(DomainError, match=f"^{message}, above the cap 1000000$"):
                parse_graph(spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_edge_lists_are_held_to_the_dsl_cap(monkeypatch):
    tracemalloc.start()
    try:
        with pytest.raises(DomainError, match="^the edge list has 100000000 vertices, above the cap 1000000$"):
            parse_graph("100000000; 0 1")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    monkeypatch.setattr(graphs_module, "DSL_VERTEX_CAP", 10)
    assert parse_graph("10; 0 1").n == 10
    assert parse_graph("5;" + "0 1;" * 10).e == 1
    with pytest.raises(DomainError, match="^the edge list has 11 vertices, above the cap 10$"):
        parse_graph("11; 0 1")
    # counted from the edge lines, before repeated lines are merged
    with pytest.raises(DomainError, match="^the edge list has 11 edges, above the cap 10$"):
        parse_graph("5;" + "0 1;" * 11)


def chained_union(parts):
    """The union of ``parts`` built one two-graph union at a time."""
    g = Graph.of(0)
    for part in parts:
        g = g.disjoint_union(part)
    return g


# a DSL term and the graphs its components are built from
DSL_TERMS = st.one_of(
    st.integers(0, 5).map(lambda n: (f"K{n}", [complete_graph(n)])),
    st.integers(0, 4).map(lambda s: (f"K1,{s}", [star(s)])),
    st.integers(0, 4).map(lambda d: (f"P{d}", [path(d)])),
    st.integers(0, 3).map(lambda k: (f"M{k}", [matching(k)])),
    st.lists(st.integers(0, 3), min_size=1, max_size=4).map(
        lambda s: (f"SF({','.join(map(str, s))})", [star(x) for x in s])
    ),
    st.tuples(st.integers(1, 3), st.integers(0, 2)).map(
        lambda dh: (f"T({dh[0]},{dh[1]})", [ary_tree_graph(*dh)])
    ),
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(DSL_TERMS, min_size=1, max_size=6))
@example([("K1", [Graph.of(1)]), ("K1", [Graph.of(1)]), ("SF(0,2,0)", [star(0), star(2), star(0)])])
def test_union_terms_parse_as_chained_unions(terms):
    spec = " + ".join(text for text, _ in terms)
    parts = [g for _, graphs in terms for g in graphs]
    assert parse_graph(spec) == chained_union(parts)


@st.composite
def small_graphs(draw):
    n = draw(st.integers(0, 5))
    pairs = list(itertools.combinations(range(n), 2))
    return Graph.of(n, draw(st.sets(st.sampled_from(pairs))) if pairs else ())


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(small_graphs(), st.lists(small_graphs(), max_size=5))
def test_one_union_call_equals_the_chain(first, rest):
    assert first.disjoint_union(*rest) == chained_union([first] + rest)


@pytest.mark.parametrize(
    "spec", ["+".join(["K2"] * 10_000), "SF(" + ",".join(["1"] * 10_000) + ")"], ids=["K2+...+K2", "SF(1,...,1)"]
)
def test_a_union_builds_each_edge_a_bounded_number_of_times(monkeypatch, spec):
    """A chain of two-graph unions copies every earlier edge again per
    term, about 5 * 10^7 edges for 10,000 terms; one pass copies each
    edge once into its term and once into each union that holds it (an
    SF term is a union, and so is the parsed text)."""
    sizes = []
    of = Graph.of.__func__

    def counting_of(cls, n, pairs=()):
        pairs = list(pairs)
        sizes.append(len(pairs))
        return of(cls, n, pairs)

    monkeypatch.setattr(Graph, "of", classmethod(counting_of))
    g = parse_graph(spec)
    assert (g.n, g.e) == (20_000, 10_000)
    assert len(sizes) <= 10_000 + 4
    assert sum(sizes) <= 3 * 10_000


def test_counts_past_the_digit_limit_are_refused_not_raised():
    # 10^5000 has more digits than the interpreter prints by default
    n = CompleteAryTree(10, 5000).n
    with pytest.raises(BudgetError, match=rf"^at least 2\^{n.bit_length() - 1} vertices exceeds"):
        CompleteAryTree(10, 5000).graph
    with pytest.raises(DomainError, match=r"^tree T\(10,5000\) has at least 2\^"):
        parse_graph("T(10,5000)")
    for spec in ("K1," + "1" * 5000, "P" + "1" * 5000, "SF(2," + "1" * 5000 + ")"):
        with pytest.raises(GraphParseError, match="a number in the term is too long"):
            parse_graph(spec)


def test_tree_host_reprs_at_any_size():
    assert repr(CompleteAryTree(2, 2)) == "CompleteAryTree(d=2, h=2, 7 vertices)"
    assert repr(LayeredTree((3, 2))) == "LayeredTree(widths=(3, 2), 10 vertices)"
    # 10^5000 has more digits than the interpreter prints by default
    k = CompleteAryTree(10, 5000).n.bit_length() - 1
    assert repr(CompleteAryTree(10, 5000)) == f"CompleteAryTree(d=10, h=5000, at least 2^{k} vertices)"
    assert repr(LayeredTree((10,) * 5000)).endswith(f"10), at least 2^{k} vertices)")


def test_avoids_is_both_finders():
    rng = random.Random(89)
    for _ in range(40):
        g = Graph.of(5, [e for e in itertools.combinations(range(5), 2) if rng.random() < 0.5])
        chi = random_canonical_colouring(rng, g)
        for h1, h2 in ((path(2), path(2)), (matching(2), path(3)), (star(2), star(3))):
            expected = not naive_copy(g, chi, h1, "mono") and not naive_copy(g, chi, h2, "rainbow")
            assert avoids(g, chi, h1, h2) == expected


def search_args(adj, rainbow):
    """``_search``'s host arguments for a set or dict adjacency: per vertex
    its neighbours as a bitmask, and for a rainbow search the neighbour ->
    colour dicts."""
    return [sum(1 << w for w in nbrs) for nbrs in adj], adj if rainbow else None


@st.composite
def search_cases(draw):
    """A host on at most 8 vertices with a colouring in at most 3 colours,
    and a pattern on at most 5 vertices."""
    n = draw(st.integers(1, 8))
    edges = draw(st.sets(st.sampled_from(list(itertools.combinations(range(n), 2))))) if n > 1 else set()
    host = Graph.of(n, edges)
    chi = Colouring.from_values(host, draw(st.lists(st.integers(0, 2), min_size=host.e, max_size=host.e)))
    k = draw(st.integers(1, min(n, 5)))
    pattern_edges = draw(st.sets(st.sampled_from(list(itertools.combinations(range(k), 2))))) if k > 1 else set()
    return host, chi, Graph.of(k, pattern_edges)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(search_cases())
def test_filtered_search_finds_the_unfiltered_first_copy(case):
    host, chi, pattern = case
    n, colour = host.n, chi.colour_of
    classes = []
    for cls in chi.classes():
        adj = [set() for _ in range(n)]
        for a, b in cls:
            adj[a].add(b)
            adj[b].add(a)
        classes.append(adj)
    # the prefix adjacency of the anchored check: neighbour -> colour
    coloured = [{w: colour(v, w) for w in host.adj[v]} for v in range(n)]

    plan = _plan(pattern)
    for adj, rainbow in [(host.adj, False), (coloured, True)] + [(c, False) for c in classes]:
        assert _search(pattern, *search_args(adj, rainbow)) == search_oracle(pattern, adj, rainbow, plan)
    for p in edge_orbit_plans(pattern):
        for a, b in host.sorted_edges:
            for pin in ((a, b), (b, a)):
                for adj, rainbow in ((host.adj, False), (coloured, True), (classes[colour(a, b)], False)):
                    assert _search(pattern, *search_args(adj, rainbow), p, pin) == search_oracle(
                        pattern, adj, rainbow, p, pin
                    )


FINDER_PATTERNS = (
    Graph.of(2), path(1), path(2), path(3), path(4), star(3), matching(2),
    complete_graph(3), parse_graph("K1,2+K2"),
)


@st.composite
def finder_cases(draw):
    """A host on at most 7 vertices, a colouring drawn from 1-4 colours,
    and a pattern with 0-4 edges."""
    n = draw(st.integers(1, 7))
    edges = draw(st.sets(st.sampled_from(list(itertools.combinations(range(n), 2))))) if n > 1 else set()
    host = Graph.of(n, edges)
    palette = draw(st.integers(1, 4))
    values = draw(st.lists(st.integers(0, palette - 1), min_size=host.e, max_size=host.e))
    return host, Colouring.from_values(host, values), draw(st.sampled_from(FINDER_PATTERNS))


_K4 = complete_graph(4)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(finder_cases())
# fewer colours than pattern edges, where the rainbow finder exits at once
@example((_K4, Colouring.constant(_K4), path(3)))
@example((_K4, Colouring.from_values(_K4, [0, 1, 0, 1, 0, 1]), star(3)))
# as many colours as pattern edges, where it has to search
@example((_K4, Colouring.from_values(_K4, [0, 1, 2, 0, 1, 2]), complete_graph(3)))
def test_finder_exits_keep_verdicts_and_first_copies(case):
    host, chi, pattern = case
    as_map = dict(zip(chi.edges, chi.colours))
    for kind, find in (("mono", find_monochromatic_copy), ("rainbow", find_rainbow_copy)):
        expected = copy_finder_oracle(host, chi, pattern, kind)
        assert (expected is not None) == naive_copy(host, chi, pattern, kind)
        # a Colouring takes the exits; a plain mapping takes none of them
        for colouring in (chi, as_map):
            emb = find(host, colouring, pattern)
            assert (None if emb is None else emb.mapping) == expected, kind


EXIT_PATTERNS = tuple(
    map(parse_graph, ("K1,2", "K1,3", "P3", "P4", "M2", "M3", "K3", "K1,2+K2", "K1,2+K1,2"))
)


@st.composite
def exit_cases(draw):
    """A graph or a forest on at most 9 vertices, relabelled at random,
    and a pattern from ``EXIT_PATTERNS``."""
    n = draw(st.integers(1, 9))
    if draw(st.booleans()):
        edges = draw(st.sets(st.sampled_from(list(itertools.combinations(range(n), 2))))) if n > 1 else set()
    else:
        # each vertex after the first joins an earlier one or starts a tree
        parents = [draw(st.integers(-1, v - 1)) for v in range(1, n)]
        edges = {(p, v) for v, p in enumerate(parents, 1) if p >= 0}
    label = draw(st.permutations(range(n)))
    host = Graph.of(n, [(label[u], label[v]) for u, v in edges])
    return host, draw(st.sampled_from(EXIT_PATTERNS))


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(exit_cases())
@example((complete_graph(6), parse_graph("M3")))
@example((path(8), parse_graph("K1,2+K1,2")))
def test_one_colour_and_all_distinct_exits_find_the_first_copy(case):
    """One colour and one colour per edge, the colourings whose finders
    search ``host.masks`` or answer at once, given as a ``Colouring``, a
    mapping and a function: each finder returns the copy the set-based
    search finds class by class (``copy_finder_oracle`` runs
    ``search_oracle``), and None exactly when no copy exists at all."""
    host, pattern = case
    for chi in (Colouring.constant(host), Colouring.rainbow(host)):
        as_map = dict(zip(chi.edges, chi.colours))
        for kind, find in (("mono", find_monochromatic_copy), ("rainbow", find_rainbow_copy)):
            expected = copy_finder_oracle(host, chi, pattern, kind)
            assert (expected is not None) == naive_copy(host, chi, pattern, kind)
            for colouring in (chi, as_map, lambda u, v: as_map[(u, v)]):
                emb = find(host, colouring, pattern)
                assert (None if emb is None else emb.mapping) == expected, kind
                assert emb is None or emb.kind == ("monochromatic" if kind == "mono" else "rainbow")


def test_search_depth_does_not_grow_with_the_pattern(low_recursion_limit):
    # the recursive search took one frame per placed pattern vertex
    assert contains(path(1100), path(1100))
    assert find_embedding(path(1100), path(1100)).mapping == tuple(range(1101))


@pytest.mark.parametrize("k", range(1, 11))
def test_tree_catalogue_matches_coding_every_sequence(k):
    old = coded_trees_oracle(k)
    new = _coded_trees(k)
    assert [c for c, _ in new] == [c for c, _ in old]
    # the same representatives with the same vertex labels
    assert [t.edges for _, t in new] == [t.edges for _, t in old]
    assert [t.edges for t in enumerate_trees(k)] == [t.edges for _, t in old]


def test_cached_plans_equal_fresh_ones():
    for spec in ("K3", "K4", "P4", "K1,3", "M2", "K1,2+K2", "T(2,2)", "3; 0 1"):
        g = parse_graph(spec)
        assert _plan(g) == _plan.__wrapped__(g)
        plans = edge_orbit_plans(g)
        assert plans == edge_orbit_plans.__wrapped__(g)
        for p in plans:
            assert p == _plan.__wrapped__(g, p[0][:2])
        # the cache is keyed by the pattern's value, not by the object
        assert edge_orbit_plans(Graph.of(g.n, g.edges)) is plans


# the patterns with the most twins that the copy search meets: stars,
# matchings, a clique, a complete bipartite graph, star forests and an
# isolated vertex next to an edge
_K23 = Graph.of(5, [(a, b) for a in (0, 1) for b in (2, 3, 4)])
TWIN_PATTERNS = (
    tuple(map(parse_graph, ("K1,2", "K1,3", "K1,4", "K1,5", "M2", "M3", "K4")))
    + (_K23,)
    + tuple(map(parse_graph, ("K1,2+K1,2", "K1,3+K2", "3; 0 1")))
)


@st.composite
def twin_search_cases(draw):
    """A host on at most 8 vertices with a colouring in 1-6 colours, and a
    pattern from ``TWIN_PATTERNS``."""
    n = draw(st.integers(1, 8))
    edges = draw(st.sets(st.sampled_from(list(itertools.combinations(range(n), 2))))) if n > 1 else set()
    host = Graph.of(n, edges)
    palette = draw(st.integers(1, 6))
    chi = Colouring.from_values(host, draw(st.lists(st.integers(0, palette - 1), min_size=host.e, max_size=host.e)))
    return host, chi, draw(st.sampled_from(TWIN_PATTERNS))


_K8 = complete_graph(8)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(twin_search_cases())
# dense hosts, where every twin floor cuts
@example((_K8, Colouring.from_values(_K8, [i % 6 for i in range(28)]), _K23))
@example((_K8, Colouring.from_values(_K8, [i % 5 for i in range(28)]), star(5)))
def test_twin_ordered_search_finds_the_unfiltered_first_copy(case):
    host, chi, pattern = case
    n, colour = host.n, chi.colour_of
    classes = []
    for cls in chi.classes():
        adj = [set() for _ in range(n)]
        for a, b in cls:
            adj[a].add(b)
            adj[b].add(a)
        classes.append(adj)
    coloured = [{w: colour(v, w) for w in host.adj[v]} for v in range(n)]
    plan = _plan(pattern)
    for adj, rainbow in [(host.adj, False), (coloured, True)] + [(c, False) for c in classes]:
        assert _search(pattern, *search_args(adj, rainbow)) == search_oracle(pattern, adj, rainbow, plan)
    for p in edge_orbit_plans(pattern):
        for a, b in host.sorted_edges:
            for pin in ((a, b), (b, a)):
                for adj, rainbow in ((host.adj, False), (coloured, True), (classes[colour(a, b)], False)):
                    assert _search(pattern, *search_args(adj, rainbow), p, pin) == search_oracle(
                        pattern, adj, rainbow, p, pin
                    )


def _floors(plan):
    """Position -> the position of its floor, for the positions that have one."""
    order, floor = plan[0], plan[3]
    return {i: order.index(f) for i, f in enumerate(floor) if f is not None}


def test_plan_floors_chain_unpinned_twins():
    k14 = star(4)
    # the three leaves after the pinned one rise in placement order
    p = _plan(k14, (0, 1))
    assert p[0] == (0, 1, 2, 3, 4)
    assert p[3] == (None, None, None, 2, 3)
    # every vertex of K4 is a twin of every other; only the last position
    # has an unpinned earlier twin
    p = _plan(complete_graph(4), (0, 1))
    assert p[3] == (None, None, None, p[0][2])
    # a path on five vertices has no twins at all
    p4 = parse_graph("P4")
    for p in (_plan(p4),) + edge_orbit_plans(p4):
        assert p[3] == (None,) * p4.n


def test_pinned_ends_are_never_floors():
    for pattern in TWIN_PATTERNS + (path(2), complete_graph(3), parse_graph("T(2,2)")):
        plans = [_plan(pattern, xy) for u, v in pattern.sorted_edges for xy in ((u, v), (v, u))]
        for p, start in [(p, 2) for p in plans] + [(_plan(pattern), 0)]:
            order, floor = p[0], p[3]
            for i, j in _floors(p).items():
                # a floor is an earlier, searched (not pinned) twin
                assert start <= j < i
                x, y = order[j], order[i]
                assert pattern.adj[x] - {y} == pattern.adj[y] - {x}
            if start:
                assert floor[:2] == (None, None)
                assert not set(order[:2]) & set(floor)


def test_orbit_plans_match_the_recounted_order_and_exhaustive_orbits():
    for pattern in TWIN_PATTERNS + (path(6), parse_graph("T(2,2)"), parse_graph("K1,2+K2"), complete_graph(3)):
        plans = edge_orbit_plans.__wrapped__(pattern)
        assert [p[0][:2] for p in plans] == orbit_representatives_oracle(pattern)
        for u, v in pattern.sorted_edges:
            for xy in ((u, v), (v, u)):
                assert _plan.__wrapped__(pattern, xy)[0] == pinned_order_oracle(pattern, xy)


def test_orbit_plans_of_a_long_path_pair_each_edge_with_its_mirror():
    # only the reversal maps one oriented edge of a path onto another
    plans = edge_orbit_plans.__wrapped__(path(200))
    assert [p[0][:2] for p in plans] == [xy for i in range(100) for xy in ((i, i + 1), (i + 1, i))]
    assert plans == tuple(_plan.__wrapped__(path(200), p[0][:2]) for p in plans)
