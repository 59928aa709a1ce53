"""Acceptance suite: one criterion per test, one pass/fail line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines as the
criteria complete.  Expected values follow the oracle-first rule: they
were computed by the independent brute-force oracles in ``oracles.py``
(or are definitional) and frozen here.
"""

import functools
import math
import random
from fractions import Fraction

import networkx as nx
import numpy as np
import pytest

from ramsey_lab.arrows import arrows, constrained_ramsey_number
from ramsey_lab.constructions import (
    avoid_colouring,
    choose_avoid_mode,
    constellation_arrow_tree,
    find_mono_or_rainbow,
    find_monochromatic_star,
    greedy_rainbow_embed,
    star_arrow_tree,
    verify_witness,
)
from ramsey_lab.densities import bridge_join, max_2_density, max_density
from ramsey_lab.gnp import arrow_probability, containment_sweep, rows_to_csv
from ramsey_lab.graphs import (
    Graph,
    find_monochromatic_copy,
    find_rainbow_copy,
    matching,
    parse_graph,
    path,
    star,
    star_forest,
)
from ramsey_lab.mf import solve
from ramsey_lab.threshold import fired_clauses, threshold
from ramsey_lab.tree_labels import (
    descendant_colouring,
    descendant_counts,
    embed_rainbow_binary,
    lazy_descendant_colouring,
    min_max_path_product,
    rainbow_binary_host,
)
from ramsey_lab.trees import RootedTree

from oracles import density_oracle, isomorphic, mix_colour, random_forest, random_tree


def criterion(number, title):
    def wrap(fn):
        @functools.wraps(fn)
        def run():
            try:
                fn()
            except BaseException:
                print(f"criterion {number}: FAIL - {title}")
                raise
            print(f"criterion {number}: PASS - {title}")

        return run

    return wrap


def _atlas_graphs(max_n):
    for g in nx.graph_atlas_g()[1:]:
        if 1 <= g.number_of_nodes() <= max_n:
            yield Graph.of(g.number_of_nodes(), g.edges())


@criterion(1, "density values match the all-subsets oracle on every graph up to 7 vertices")
def test_criterion_1_density_oracle_equivalence():
    checked = 0
    for g in _atlas_graphs(7):
        om, om2 = density_oracle(g)
        assert max_density(g) == om, g
        assert max_2_density(g) == om2, g
        checked += 1
    assert checked == 1252


# exact 2-density of a bitmask-encoded graph, vectorised for 12-vertex joins
@functools.lru_cache(maxsize=None)
def _subset_tables(n):
    subs = np.arange(1 << n, dtype=np.uint32)
    pop = np.zeros(1 << n, dtype=np.uint8)
    for v in range(n):
        pop += ((subs >> v) & 1).astype(np.uint8)
    return subs, {v: pop == v for v in range(3, n + 1)}


def _m2_vectorised(n, edges):
    subs, masks = _subset_tables(n)
    ecount = np.zeros(len(subs), dtype=np.int16)
    for a, b in edges:
        ecount += ((subs >> a) & (subs >> b) & np.uint32(1)).astype(np.int16)
    best = None
    for v, mask in masks.items():
        e = int(ecount[mask].max())
        val = Fraction(e - 1, v - 2)
        if best is None or val > best:
            best = val
    return best


@criterion(2, "bridging any two connected graphs up to 6 vertices keeps m2 = max(m2, 1)")
def test_criterion_2_bridge_join_law():
    connected = [
        g for g in _atlas_graphs(6) if len(g.components) == 1
    ]
    assert len(connected) == 1 + 1 + 2 + 6 + 21 + 112
    m2s = {g: max_2_density(g) for g in connected}
    joins = 0
    for g1 in connected:
        if g1.e < 1:
            continue
        base = [(u, v) for u, v in g1.edges]
        for g2 in connected:
            if m2s[g1] < m2s[g2]:
                continue
            expected = max(m2s[g1], Fraction(1))
            shifted = [(u + g1.n, v + g1.n) for u, v in g2.edges]
            n = g1.n + g2.n
            for u in range(g1.n):
                for v in range(g2.n):
                    got = _m2_vectorised(n, base + shifted + [(u, g1.n + v)])
                    assert got == expected, (g1, g2, u, v)
                    joins += 1
    assert joins > 100_000
    # spot-check the vectorised oracle against the module on a few joins
    rng = random.Random(1)
    for _ in range(20):
        g1, g2 = rng.choice(connected), rng.choice(connected)
        u, v = rng.randrange(g1.n), rng.randrange(g2.n)
        j = bridge_join(g1, g2, u, v)
        assert max_2_density(j) == _m2_vectorised(j.n, list(j.edges))


@criterion(3, "arrowing ground truths and the first constrained Ramsey number")
def test_criterion_3_arrow_ground_truths():
    k12 = star(2)
    assert arrows(path(2), k12, k12).arrows
    assert not arrows(parse_graph("K2"), k12, k12).arrows
    assert arrows(parse_graph("K1,2+K2"), k12, matching(2)).arrows
    verdict = arrows(path(3), matching(2), path(3))
    assert not verdict.arrows
    cx = verdict.counterexample
    assert find_monochromatic_copy(path(3), cx, matching(2)) is None
    assert find_rainbow_copy(path(3), cx, path(3)) is None
    assert constrained_ramsey_number(k12, k12, 5) == 3


@criterion(4, "avoiding colourings defeat all three pattern pairs on 200 random forests")
def test_criterion_4_avoiding_colourings():
    pairs = [
        (star_forest([2, 2]), star(3)),
        (matching(2), path(3)),
        (star_forest([2, 2]), path(3)),
    ]
    rng = random.Random(424)
    failures = 0
    for _ in range(200):
        f = random_forest(rng, 12)
        for h1, h2 in pairs:
            chi = avoid_colouring(f, choose_avoid_mode(h2))
            if find_monochromatic_copy(f, chi, h1) is not None:
                failures += 1
            if find_rainbow_copy(f, chi, h2) is not None:
                failures += 1
    assert failures == 0


@criterion(5, "star-arrowing trees decide exactly when small and embed greedily when large")
def test_criterion_5_star_arrow_trees():
    for s in (2, 3):
        for h2 in (path(2), star(3)):
            plan = star_arrow_tree(s, h2)
            assert plan.tree.graph.e <= 16
            assert arrows(plan.tree.graph, star(s), h2).arrows
    # larger trees: the greedy embedding with verified returns only
    rng = random.Random(55)
    for s in (2, 3):
        plan = star_arrow_tree(s, path(3))
        tree = plan.tree
        assert tree.graph.e > 16
        for _ in range(1000):
            chi = mix_colour(rng.randrange(1 << 30), rng.choice([2, 3, 5, 9, 25, 200]))
            emb = greedy_rainbow_embed(tree, chi, plan.rooted_completion)
            if emb is None:
                mono = find_monochromatic_star(tree, chi, s)
                assert mono is not None
                cols = {chi(u, v) for u, v in [
                    tuple(sorted((mono.mapping[a], mono.mapping[b]))) for a, b in mono.pattern.edges
                ]}
                assert len(cols) == 1
        labels = descendant_colouring(tree)
        emb = greedy_rainbow_embed(tree, labels, plan.rooted_completion)
        if s == 3:
            assert emb is not None
        if emb is None:
            assert find_monochromatic_star(tree, labels, s) is not None


@criterion(6, "the lazy height-3 witness search settles every colouring tried")
def test_criterion_6_constellation_witness_search():
    t = constellation_arrow_tree(2)
    assert t.d == 76
    w = find_mono_or_rainbow(t, lambda u, v: 0, 2)
    assert w.kind == "monochromatic"
    verify_witness(t, lambda u, v: 0, w)
    high_degree = lambda u, v: min(u, v)
    w = find_mono_or_rainbow(t, high_degree, 2)
    assert w.kind == "rainbow"
    verify_witness(t, high_degree, w)
    rng = random.Random(606)
    for _ in range(100):
        chi = mix_colour(rng.randrange(1 << 30), rng.choice([1, 2, 4, 8, 50, 10**6]))
        w = find_mono_or_rainbow(t, chi, 2)
        verify_witness(t, chi, w)


@criterion(7, "exact arrowing-forest densities agree with the threshold clauses")
def test_criterion_7_mf_exact_values():
    report = solve(star(2), star(2))
    assert report.exact and report.upper == Fraction(2, 3)
    assert isomorphic(report.upper_witness, path(2))
    report2 = solve(star(2), matching(2))
    assert report2.upper == Fraction(2, 3)
    assert isomorphic(report2.upper_witness, parse_graph("K1,2+K2"))
    t1 = threshold(star(2), star(2))
    assert t1.exact == Fraction(-3, 2) == -1 / report.upper
    t2 = threshold(star(2), matching(2))
    assert t2.exact == Fraction(-3, 2) == -1 / report2.upper


@criterion(8, "descendant colourings and optimal path products behave as proved")
def test_criterion_8_descendant_machinery():
    assert min_max_path_product(parse_graph("K2")).value == 1
    assert min_max_path_product(path(2)).value == 2
    assert min_max_path_product(path(3)).value == 3
    assert min_max_path_product(star(3)).value == 3
    for d in range(1, 7):
        value = min_max_path_product(path(d)).value
        assert value * value >= math.factorial(d)
    b2 = min_max_path_product(parse_graph("B2")).value
    assert b2 == 8 and b2 >= 2 ** 0
    rng = random.Random(808)
    for _ in range(1000):
        g = random_tree(rng, rng.randint(2, 200))
        t = RootedTree.from_graph(g, rng.randrange(g.n))
        counts = descendant_counts(t)
        labels = descendant_colouring(t)
        for (u, v), lab in labels.items():
            parent, child = (u, v) if t.depth_of(u) < t.depth_of(v) else (v, u)
            assert counts[parent] >= 1 + lab * counts[child]
    from ramsey_lab.graphs import enumerate_trees

    bounds = {h: min_max_path_product(parse_graph(h)).value for h in ("P2", "P3", "K1,3")}
    for k in range(2, 11):
        for g in enumerate_trees(k):
            for root in range(g.n):
                labels = descendant_colouring(RootedTree.from_graph(g, root))
                for spec, bound in bounds.items():
                    if find_rainbow_copy(g, labels, parse_graph(spec)) is not None:
                        assert g.n >= bound


@criterion(9, "the geometric-arity host embeds a rainbow binary tree under every tried colouring")
def test_criterion_9_rainbow_binary_host():
    for h in (1, 2, 3):
        host = rainbow_binary_host(h)
        assert len(host.leaves()) == 2 ** (h * (h - 1) // 2 + 3 * h)
    rng = random.Random(909)
    for h in (1, 2, 3):
        host = rainbow_binary_host(h)
        w = embed_rainbow_binary(host, lazy_descendant_colouring(host), h)
        assert w.kind == "rainbow"
        for _ in range(100):
            chi = _star_free_colouring(host, rng.randrange(1 << 30))
            w = embed_rainbow_binary(host, chi, h)
            assert w.kind == "rainbow"


def _star_free_colouring(host, seed):
    mixer = mix_colour(seed, 1 << 40)

    def fn(u, v):
        child = max(u, v)
        parent = host.parent_of(child)
        return mixer(parent, 0) + (child - host.child_list(parent)[0])

    return fn


@criterion(10, "the threshold table reproduces all seven exponents and stays total")
def test_criterion_10_threshold_table():
    table = [
        ("K3", "P3", Fraction(-1, 2)),
        ("K1,2+K1,2", "K1,3", Fraction(-1)),
        ("M2", "P3", Fraction(-1)),
        ("K3", "K1,2", Fraction(-1)),
        ("K1,2", "K1,2", Fraction(-3, 2)),
        ("K2", "P3", Fraction(-2)),
    ]
    for h1, h2, q in table:
        assert threshold(parse_graph(h1), parse_graph(h2)).exact == q, (h1, h2)
    t = threshold(parse_graph("K1,2"), parse_graph("K1,2+K1,2"))
    lo, hi = t.bounds
    assert lo <= hi < -1
    graphs6 = list(_atlas_graphs(6))
    forests6 = [g for g in graphs6 if g.is_forest and g.e >= 1]
    checked = 0
    for h1 in graphs6:
        if h1.e < 1:
            continue
        for h2 in forests6:
            assert len(fired_clauses(h1, h2)) == 1, (h1, h2)
            checked += 1
    assert checked > 5000


@criterion(11, "random-graph probes replay bit-for-bit and land on the known threshold")
def test_criterion_11_gnp_harness():
    n = 60
    grid = [c / n for c in (0.25, 0.5, 1.0, 2.0, 4.0)]
    rows1 = containment_sweep(parse_graph("K3"), n, grid, 300, seed=2024)
    rows2 = containment_sweep(parse_graph("K3"), n, grid, 300, seed=2024)
    assert rows_to_csv(rows1) == rows_to_csv(rows2)
    crossing = next(r.p for r in rows1 if r.estimate >= 0.5)
    assert 0.25 / n <= crossing <= 4.0 / n
    lo = arrow_probability(6, 0.05, star(2), star(2), trials=200, seed=77)
    mid = arrow_probability(6, 0.2, star(2), star(2), trials=200, seed=77)
    hi = arrow_probability(6, 0.6, star(2), star(2), trials=200, seed=77)
    assert lo.successes <= mid.successes <= hi.successes
    assert lo.undecided == mid.undecided == hi.undecided == 0
