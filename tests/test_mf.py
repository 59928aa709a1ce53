import random
import sys
from fractions import Fraction

import pytest

from ramsey_lab.arrows import arrows
from ramsey_lab.errors import DomainError
from ramsey_lab.graphs import is_isomorphic, matching, parse_graph, path, star
from ramsey_lab.mf import (
    _level_candidates,
    construction_upper_bound,
    describe_forest,
    solve,
    strip_isolated,
)


def test_cherry_vs_cherry_exact():
    report = solve(star(2), star(2))
    assert report.upper == Fraction(2, 3)
    assert report.exact
    assert is_isomorphic(report.upper_witness, path(2))
    assert report.upper_verified
    assert report.lower == Fraction(1, 2)
    assert report.v_param_bounds == (3, 3)


def test_cherry_vs_matching():
    report = solve(star(2), matching(2))
    assert report.upper == Fraction(2, 3)
    assert is_isomorphic(report.upper_witness, parse_graph("K1,2+K2"))
    assert report.exact


def test_witness_replays_through_arrows():
    for h1, h2 in [(star(2), star(2)), (star(2), matching(2)), (star(3), star(2))]:
        report = solve(h1, h2)
        assert arrows(report.upper_witness, h1, h2).arrows


def test_star_forest_vs_cherry_cross_check():
    """The minimum arrowing-forest density of (star forest, cherry)
    pairs lands exactly at (k-1)/k for k non-isolated pattern vertices."""
    from ramsey_lab.densities import classify

    for spec in ("K1,2", "K1,3", "M2"):
        h1 = parse_graph(spec)
        k = classify(h1).k_nonisolated
        report = solve(h1, star(2))
        assert report.upper == Fraction(k - 1, k), spec
        assert report.exact, spec


def test_matching_pair_bottoms_out():
    report = solve(matching(2), matching(2))
    assert report.upper == Fraction(1, 2)
    assert report.exact


def test_two_cherries_bounds():
    report = solve(star(2), parse_graph("K1,2+K1,2"))
    assert report.upper == Fraction(4, 5)
    assert is_isomorphic(report.upper_witness, parse_graph("K1,4+K1,2"))
    assert not report.exact  # levels 3 and 4 fall to bounded enumeration only
    assert report.lower == Fraction(3, 4)
    assert report.lower <= report.upper


def test_construction_bound_for_cherry_vs_long_path():
    bound, verified, desc = construction_upper_bound(star(2), path(3))
    assert bound == Fraction(39, 40)
    assert "3-ary" in desc and "height 3" in desc
    assert not verified  # 39 edges is far beyond the exhaustive budget


def test_construction_bound_constellation():
    bound, verified, desc = construction_upper_bound(matching(2), parse_graph("K1,2+K2"))
    assert "76-ary" in desc or "ary" in desc
    assert 0 < bound < 1


def test_scope_enforced():
    with pytest.raises(DomainError):
        solve(parse_graph("P3"), star(2))  # pattern 1 neither star nor constellation
    with pytest.raises(DomainError):
        solve(matching(2), path(3))  # short-forest side required for constellations


def test_isolated_vertices_are_stripped():
    lonely = parse_graph("4; 0 1; 0 2")  # cherry plus an isolated vertex
    report = solve(lonely, star(2))
    assert report.upper == Fraction(2, 3)
    assert strip_isolated(lonely).n == 3


def test_adding_components_preserves_arrowing():
    rng = random.Random(79)
    for h1, h2 in [(star(2), star(2)), (star(2), matching(2))]:
        witness = solve(h1, h2).upper_witness
        for _ in range(5):
            extra = parse_graph(rng.choice(["K2", "P2", "K1,3"]))
            witness = witness.disjoint_union(extra)
            if witness.e > 12:
                break
            assert arrows(witness, h1, h2).arrows


def test_upper_and_lower_wrappers():
    report = solve(star(2), star(2))
    assert report.upper == Fraction(2, 3) and report.upper_witness is not None
    assert report.lower == Fraction(1, 2)
    assert report.levels[0].status == "sound"


def test_lower_bound_with_tight_level_cap():
    # components of <= 2 vertices contain no cherry, so the refutation
    # is unconditional and the bound stops at 1/2
    report = solve(star(2), star(2), vertex_budget=2)
    assert report.lower == Fraction(1, 2)
    assert report.levels[0].k == 2 and report.levels[0].status == "sound"
    # the capped search falls back to the construction, which here is the
    # cherry itself (2-ary tree of height 1), so the upper bound is tight
    assert report.upper == Fraction(2, 3)
    assert report.upper_source == "construction"


def test_level_candidates_depth_independent_of_shape_count():
    """Level 10 has 200 tree shapes on 2..10 vertices; building its
    candidates must not recurse once per shape."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(200)
    try:
        candidates = _level_candidates(10, 3, 10)
    finally:
        sys.setrecursionlimit(limit)
    # within a 10-vertex budget the only level-10 forests are the 106 trees
    assert len(candidates) == 106
    assert all(g.n == 10 and g.e == 9 and len(g.components) == 1 for g in candidates)


def test_certificate_serialises():
    report = solve(star(2), matching(2))
    text = report.to_text()
    assert "upper: 2/3" in text
    assert "exact: true" in text
    assert "level-2: sound" in text
    for line in text.splitlines():
        assert ": " in line


def test_binary_pattern_component_lower_bound():
    """Any arrowing forest found for a three-edge star versus a complete
    binary tree respects the proved component lower bound (trivial at
    this scale: >= 1 for height 2, >= 2 for height 3)."""
    for h, bound in ((2, 1), (3, 2)):
        report = solve(star(3), parse_graph(f"B{h}"), vertex_budget=8)
        if report.upper_witness is not None:
            assert max(len(c) for c in report.upper_witness.components) >= bound


def test_describe_forest():
    assert describe_forest(parse_graph("K1,2+K2")) == "K2+K1,2"
    assert describe_forest(parse_graph("P3")) == "P3"
