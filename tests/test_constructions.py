import random
from fractions import Fraction

import pytest

from ramsey_lab.arrows import arrows
from ramsey_lab.constructions import (
    AvoidMode,
    avoid_colouring,
    choose_avoid_mode,
    component_mono_colouring,
    constellation_arrow_tree,
    disjoint_rainbow_trees,
    find_mono_or_rainbow,
    find_monochromatic_star,
    greedy_rainbow_embed,
    rainbow_tree_params,
    spanning_tree_completion,
    star_arrow_tree,
    verify_avoiding,
    verify_witness,
)
from ramsey_lab.errors import ConstructionStall, DomainError
from ramsey_lab.graphs import (
    Colouring,
    avoids,
    colour_degree,
    complete_graph,
    find_rainbow_copy,
    matching,
    parse_graph,
    path,
    star,
    star_forest,
)
from ramsey_lab.tree_labels import lazy_descendant_colouring
from ramsey_lab.trees import LayeredTree, RootedTree

from oracles import mix_colour, rainbow_tree_params_oracle, random_forest


def test_avoid_colouring_examples():
    assert avoid_colouring(path(2), AvoidMode.HIGH_DEGREE).colours == (0, 1)
    assert avoid_colouring(star(4), AvoidMode.HIGH_DEGREE).n_colours == 1
    # raw labels (1,1,3) collapse to the canonical pair {e0,e1 | e2}
    assert avoid_colouring(path(3), AvoidMode.LONG_PATH).colours == (0, 0, 1)


def test_avoid_colouring_rejects_cycles():
    with pytest.raises(DomainError):
        avoid_colouring(complete_graph(3), AvoidMode.HIGH_DEGREE)


def test_choose_avoid_mode():
    assert choose_avoid_mode(star(3)) is AvoidMode.HIGH_DEGREE
    assert choose_avoid_mode(path(3)) is AvoidMode.LONG_PATH
    with pytest.raises(DomainError):
        choose_avoid_mode(parse_graph("K1,2+K2"))  # short forest


def test_high_degree_mode_local_colour_bound():
    rng = random.Random(31)
    for _ in range(40):
        f = random_forest(rng, 12)
        chi = avoid_colouring(f, AvoidMode.HIGH_DEGREE)
        for v in range(f.n):
            assert colour_degree(f, chi, v, range(f.n)) <= 2


def test_avoid_modes_colour_classes_are_stars():
    rng = random.Random(37)
    for _ in range(40):
        f = random_forest(rng, 12)
        for mode in AvoidMode:
            chi = avoid_colouring(f, mode)
            for cls in chi.classes():
                touch = set(cls[0])
                for u, v in cls[1:]:
                    touch &= {u, v}
                assert touch, f"colour class {cls} is not a star"


def test_long_path_mode_kills_three_edge_paths():
    rng = random.Random(41)
    for _ in range(40):
        f = random_forest(rng, 12)
        chi = avoid_colouring(f, AvoidMode.LONG_PATH)
        assert find_rainbow_copy(f, chi, path(3)) is None


def test_verify_avoiding_examples():
    f = parse_graph("K1,3+P3+K2")
    chi = avoid_colouring(f, AvoidMode.HIGH_DEGREE)
    assert verify_avoiding(f, chi, star_forest([2, 2]), star(3))
    p3 = path(3)
    assert not verify_avoiding(p3, Colouring.rainbow(p3), matching(2), p3)
    f2 = parse_graph("M2+P3")
    assert not verify_avoiding(f2, Colouring.constant(f2), matching(2), p3)


def test_verify_avoiding_scope():
    with pytest.raises(DomainError):
        verify_avoiding(path(3), Colouring.constant(path(3)), star(2), path(3))
    with pytest.raises(DomainError):
        verify_avoiding(path(3), Colouring.constant(path(3)), matching(2), star(2))


def test_component_mono_colouring():
    m3 = matching(3)
    assert component_mono_colouring(m3).n_colours == 3
    g = parse_graph("P2+K2")
    chi = component_mono_colouring(g)
    assert chi.colours == (0, 0, 1)
    # on a forest whose components are all smaller than the pattern,
    # the scheme avoids the pattern and every cherry is monochromatic
    rng = random.Random(43)
    h1 = star(3)
    for _ in range(20):
        f = random_forest(rng, 10)
        if any(len(c) >= h1.n for c in f.components):
            continue
        chi = component_mono_colouring(f)
        assert avoids(f, chi, h1, star(2))


def test_spanning_tree_completion():
    m2 = matching(2)
    done = spanning_tree_completion(m2)
    assert done.e == 3 and done.is_forest and len(done.components) == 1
    p3 = path(3)
    assert spanning_tree_completion(p3) == p3


def test_star_arrow_tree_shapes():
    plan = star_arrow_tree(2, path(3))
    assert (plan.tree.d, plan.tree.h, plan.tree.n) == (3, 3, 40)
    plan = star_arrow_tree(3, star(3))
    assert (plan.tree.d, plan.tree.h) == (5, 1)
    plan = star_arrow_tree(2, matching(2))
    assert plan.rooted_completion.graph.e == 3
    assert (plan.tree.d, plan.tree.h, plan.tree.n) == (3, 2, 13)


def test_star_arrow_tree_arrows_when_small():
    for s, h2 in [(2, path(2)), (3, path(2)), (2, star(3)), (3, star(3))]:
        plan = star_arrow_tree(s, h2)
        assert plan.tree.graph.e <= 16
        assert arrows(plan.tree.graph, star(s), h2).arrows


def test_greedy_embed_on_rainbow_and_constant():
    plan = star_arrow_tree(2, path(3))
    tree = plan.tree
    assert greedy_rainbow_embed(tree, Colouring.rainbow(tree.graph), plan.rooted_completion)
    assert greedy_rainbow_embed(tree, Colouring.constant(tree.graph), plan.rooted_completion) is None
    assert find_monochromatic_star(tree, Colouring.constant(tree.graph), 2) is not None


def test_small_trees_mono_or_greedy_disjunction():
    """On the fully enumerable arrowing trees, every canonical colouring
    admits a monochromatic star or a greedy rainbow embedding; the two
    facts together are the exhaustive arrowing verdict."""
    from ramsey_lab.arrows import enumerate_colourings

    for s, h2 in [(2, path(2)), (2, star(3)), (3, star(3))]:
        plan = star_arrow_tree(s, h2)
        tree = plan.tree
        for chi in enumerate_colourings(tree.graph):
            has_star = find_monochromatic_star(tree, chi, s) is not None
            emb = greedy_rainbow_embed(tree, chi, plan.rooted_completion)
            assert has_star or emb is not None
        assert arrows(tree.graph, star(s), h2).arrows


def test_greedy_embed_random_and_descendant_suite():
    rng = random.Random(47)
    for s, h2 in [(2, path(3)), (3, path(3))]:
        plan = star_arrow_tree(s, h2)
        tree = plan.tree
        for trial in range(300):
            n_colours = rng.choice([2, 3, 6, 12, 40])
            chi = mix_colour(rng.randrange(1 << 30), n_colours)
            emb = greedy_rainbow_embed(tree, chi, plan.rooted_completion)
            if emb is None:
                mono = find_monochromatic_star(tree, chi, s)
                assert mono is not None
                verify_witness(tree, chi, _star_witness(mono, s))
        desc = lazy_descendant_colouring_tree(tree)
        emb = greedy_rainbow_embed(tree, desc, plan.rooted_completion)
        if s == 3:
            assert emb is not None  # descendant colourings never stack 3 equal colours
        if emb is None:
            assert find_monochromatic_star(tree, desc, s) is not None


def lazy_descendant_colouring_tree(tree: RootedTree):
    from ramsey_lab.tree_labels import descendant_colouring

    return descendant_colouring(tree)


def _star_witness(emb, s):
    from ramsey_lab.graphs import Embedding

    return Embedding(star_forest([s]), emb.mapping, "monochromatic")


def test_complete_ary_tree_shapes_and_budget():
    from ramsey_lab.errors import BudgetError
    from ramsey_lab.trees import complete_ary_tree

    assert complete_ary_tree(2, 1).n == 3
    assert complete_ary_tree(3, 2).n == 13
    assert complete_ary_tree(2, 3).n == 15
    assert complete_ary_tree(1, 4).n == 5
    tree = complete_ary_tree(3, 2)
    assert all(len(tree.child_list(v)) == 3 for v in range(4))
    assert all(tree.depth_of(v) == 2 for v in range(4, 13) if tree.is_leaf(v))
    with pytest.raises(BudgetError):
        complete_ary_tree(10, 3, vertex_budget=100)


def test_constellation_tree_parameters():
    assert constellation_arrow_tree(2).d == 76
    assert constellation_arrow_tree(3).d == 225
    t = constellation_arrow_tree(2)
    assert t.n == 1 + 76 + 76**2 + 76**3 == 444829


def test_find_mono_or_rainbow_constant_and_avoiding():
    t = constellation_arrow_tree(2)
    w = find_mono_or_rainbow(t, lambda u, v: 0, 2)
    assert w.kind == "monochromatic"
    verify_witness(t, lambda u, v: 0, w)
    # the high-degree avoiding colouring on a level-ordered tree is min(u, v)
    w = find_mono_or_rainbow(t, lambda u, v: min(u, v), 2)
    assert w.kind == "rainbow"
    verify_witness(t, lambda u, v: min(u, v), w)


def test_find_mono_or_rainbow_random_suite():
    t = constellation_arrow_tree(2)
    rng = random.Random(53)
    kinds = set()
    for trial in range(100):
        chi = mix_colour(rng.randrange(1 << 30), rng.choice([1, 2, 3, 5, 20, 1000]))
        w = find_mono_or_rainbow(t, chi, 2)
        verify_witness(t, chi, w)
        kinds.add(w.kind)
    assert kinds == {"monochromatic", "rainbow"}


def test_find_mono_or_rainbow_adversarial_colourings():
    t = constellation_arrow_tree(2)
    depth1 = set(t.child_list(t.root))

    # every root child sees six distinct colours, forcing the greedy
    # branch over high-colour-degree centres
    def spread(u, v):
        child = max(u, v)
        return child % 6

    w = find_mono_or_rainbow(t, spread, 2)
    verify_witness(t, spread, w)
    assert w.kind == "rainbow"

    # one colour on all depth-1 stars: the star collection pigeonholes
    # straight into a monochromatic witness
    def flat_tops(u, v):
        parent = min(u, v)
        if parent == 0:
            return 10**6 + max(u, v)  # rainbow at the root itself
        if parent in depth1:
            return 0
        return 1 + max(u, v) % 3

    w = find_mono_or_rainbow(t, flat_tops, 2)
    verify_witness(t, flat_tops, w)
    assert w.kind == "monochromatic"


def test_find_mono_or_rainbow_s3():
    t = constellation_arrow_tree(3)
    w = find_mono_or_rainbow(t, lambda u, v: 0, 3)
    assert w.kind == "monochromatic" and w.pattern == star_forest([3, 3, 3])
    rng = random.Random(59)
    for _ in range(20):
        chi = mix_colour(rng.randrange(1 << 30), rng.choice([2, 7, 40, 10**5]))
        w = find_mono_or_rainbow(t, chi, 3)
        verify_witness(t, chi, w)


def test_find_mono_or_rainbow_refuses_narrow_levels():
    # the root is wide enough, the levels below it are not
    with pytest.raises(DomainError):
        find_mono_or_rainbow(LayeredTree((76, 1, 1)), lambda u, v: 0, 2)
    with pytest.raises(DomainError):
        find_mono_or_rainbow(LayeredTree((76, 76, 75)), lambda u, v: min(u, v), 2)
    with pytest.raises(DomainError):
        find_mono_or_rainbow(LayeredTree((76, 76)), lambda u, v: 0, 2)
    # an explicit tree carries no level widths to check
    with pytest.raises(DomainError):
        find_mono_or_rainbow(RootedTree.from_graph(star(80), 0), lambda u, v: 0, 2)


def test_rainbow_tree_params_match_recursion():
    for d in (2, 5):
        for h in range(1, 41):
            p = rainbow_tree_params(d, h)
            assert (p.b, p.c, p.r) == rainbow_tree_params_oracle(d, h)


def test_rainbow_tree_params_deep(low_recursion_limit):
    p = rainbow_tree_params(2, 300)
    assert p.r == 2 * 2**300 - 1
    g = complete_graph(6)
    rep = disjoint_rainbow_trees(g, Colouring.rainbow(g), 2, 300, parse_graph("K3"))
    assert rep.params == p
    assert (rep.quota, rep.copies, rep.mono) == (0, [], None)


def test_rainbow_tree_params_recursion():
    p = rainbow_tree_params(2, 1)
    assert (p.b, p.c, p.r) == (Fraction(1, 2), Fraction(1, 6), 1)
    p = rainbow_tree_params(2, 2)
    # base at arity 2*2^2=8 gives c'=1/18 and r'=7 feeding the step
    assert p.r == 7
    assert p.c == Fraction(1, 18) * Fraction(1, 6) / 2
    assert p.b == Fraction(1, 2) * Fraction(1, 18) / 2


def test_disjoint_rainbow_trees_on_rainbow_clique():
    g = complete_graph(30)
    chi = Colouring.rainbow(g)
    rep = disjoint_rainbow_trees(g, chi, 2, 1, parse_graph("K3"))
    assert rep.mono is None
    assert len(rep.copies) == rep.quota == 5
    seen = set()
    for emb in rep.copies:
        assert not (set(emb.mapping) & seen)
        seen.update(emb.mapping)
        cols = {chi.colour_of(emb.mapping[u], emb.mapping[v]) for u, v in emb.pattern.edges}
        assert len(cols) == emb.pattern.e


def test_disjoint_rainbow_trees_height_two():
    g = complete_graph(220)
    chi = mix_colour(3, 10**9)  # effectively rainbow
    rep = disjoint_rainbow_trees(g, chi, 2, 2, parse_graph("K3"))
    assert rep.quota == 1
    assert len(rep.copies) >= 1
    assert rep.copies[0].pattern.n == 7


def test_disjoint_rainbow_trees_on_rainbow_ary_tree():
    g = parse_graph("T(2,7)")
    chi = Colouring.rainbow(g)
    rep = disjoint_rainbow_trees(g, chi, 2, 1, parse_graph("K3"))
    assert rep.quota == g.n // 6
    assert len(rep.copies) == rep.quota


def test_disjoint_rainbow_trees_mono_early_return():
    g = complete_graph(12)
    rep = disjoint_rainbow_trees(g, Colouring.constant(g), 2, 1, star(2))
    assert rep.mono is not None and not rep.copies


def test_disjoint_rainbow_trees_q_verification():
    # r = 1 at arity 2: the property is undefined there, so it stays assumed
    g = complete_graph(30)
    rep = disjoint_rainbow_trees(g, Colouring.rainbow(g), 2, 1, parse_graph("K3"), verify_q=True)
    assert rep.q_status == "assumed"
    # arity 3 gives r = 2; on K4 a 2-element subset has colour-degree at
    # most 1, so the property fails while the (empty) quota is still met
    g = complete_graph(4)
    rep = disjoint_rainbow_trees(g, Colouring.rainbow(g), 3, 1, parse_graph("K3"), verify_q=True)
    assert rep.q_status == "refuted"
    assert rep.quota == 0 and rep.copies == []


def test_disjoint_rainbow_trees_stall_reports_stage():
    # a 1-colour star: no vertex ever has 2 distinct colours into the pool
    g = star(30)
    with pytest.raises(ConstructionStall) as err:
        disjoint_rainbow_trees(g, Colouring.constant(g), 2, 1, parse_graph("K3"))
    assert err.value.stage is not None
