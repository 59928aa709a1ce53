import importlib.util
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from ramsey_lab.arrows import arrows
from ramsey_lab.errors import DomainError
from ramsey_lab.graphs import matching, parse_graph, path, star
from ramsey_lab.mf import (
    LEVEL_CACHE_SIZE,
    _level_candidates,
    _level_table,
    construction_upper_bound,
    describe_forest,
    solve,
    strip_isolated,
)
from ramsey_lab.threshold import threshold
from ramsey_lab.trees import LayeredTree

from oracles import isomorphic, level_candidates_oracle


def test_cherry_vs_cherry_exact():
    report = solve(star(2), star(2))
    assert report.upper == Fraction(2, 3)
    assert report.exact
    assert isomorphic(report.upper_witness, path(2))
    assert report.upper_verified
    assert report.lower == Fraction(1, 2)
    assert report.v_param_bounds == (3, 3)


def test_cherry_vs_matching():
    report = solve(star(2), matching(2))
    assert report.upper == Fraction(2, 3)
    assert isomorphic(report.upper_witness, parse_graph("K1,2+K2"))
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
    assert isomorphic(report.upper_witness, parse_graph("K1,4+K1,2"))
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


def test_copies_cap_below_one_refused():
    # with no candidates every level would read as exhausted and the
    # lower bound would pass the verified witness at level 5
    for cap in (0, -1):
        with pytest.raises(DomainError, match="copies cap must be >= 1"):
            solve(star(2), path(3), copies_cap=cap)


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
    _level_table.clear()  # a table hit would skip the build under test
    sys.setrecursionlimit(200)
    try:
        candidates = _level_candidates(10, 3, 10)
    finally:
        sys.setrecursionlimit(limit)
    # within a 10-vertex budget the only level-10 forests are the 106 trees
    assert len(candidates) == 106
    assert all(g.n == 10 and g.e == 9 and len(g.components) == 1 for _, g in candidates)


@pytest.mark.parametrize("k", range(2, 11))
def test_level_candidates_match_chained_unions_and_carry_their_names(k):
    candidates = _level_candidates(k, 3, 10)
    # the same forests, in the same order, with the same vertex labels
    assert [g for _, g in candidates] == level_candidates_oracle(k, 3, 10)
    assert [name for name, _ in candidates] == [describe_forest(g) for _, g in candidates]


def _held() -> int:
    return sum(map(len, _level_table.values()))


def test_level_table_returns_fresh_candidates_within_its_bound():
    """Every level with k <= vb <= 10 at caps 1-3, twice each in a shuffled
    order: more candidates than the table keeps, so levels are evicted
    and rebuilt, and every answer, hit or built, equals the chained
    unions in names, edges and order."""
    keys = [(k, cap, vb) for vb in range(2, 11) for k in range(2, vb + 1) for cap in (1, 2, 3)]
    expected = {key: level_candidates_oracle(*key) for key in keys}
    assert sum(map(len, expected.values())) > LEVEL_CACHE_SIZE
    visits = keys * 2
    random.Random(23).shuffle(visits)
    _level_table.clear()
    hits = 0
    for key in visits:
        kept = _level_table.get(key)
        candidates = _level_candidates(*key)
        hits += kept is not None
        assert kept is None or candidates is kept
        assert [g for _, g in candidates] == expected[key]
        assert [name for name, _ in candidates] == [describe_forest(g) for g in expected[key]]
        assert _held() <= LEVEL_CACHE_SIZE
        assert next(reversed(_level_table)) == key  # now the most recently used
    assert 0 < hits < len(visits)
    # a level larger than the bound comes back whole and is not kept; the
    # oracle recurses once per shape, and level 12 has 986 shapes
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(limit + 2000)
    try:
        expected = level_candidates_oracle(12, 3, 12)
    finally:
        sys.setrecursionlimit(limit)
    assert len(expected) == 551 > LEVEL_CACHE_SIZE
    kept = dict(_level_table)
    assert [g for _, g in _level_candidates(12, 3, 12)] == expected
    assert _level_table == kept


def _bench_pairs():
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
    )
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    pairs = [(a, b) for a in workloads.STARS for b in workloads.FORESTS]
    return pairs + [(a, b) for a in workloads.CONSTELLATIONS for b in workloads.SHORT_FORESTS]


def _certify(h1: str, h2: str, vb: int, cold: bool) -> str:
    """``solve`` and ``threshold`` on fresh patterns, rendered in full, with
    the level table emptied before each call when ``cold``."""
    out = []
    for op in ("mf", "threshold"):
        if cold:
            _level_table.clear()
        g1, g2 = parse_graph(h1), parse_graph(h2)
        try:
            if op == "mf":
                r = solve(g1, g2, vertex_budget=vb)
                witness = sorted(r.upper_witness.edges) if r.upper_witness else None
                out.append(f"{r.to_text()}\n{r.lower!r} {r.upper!r}\n{witness}")
            else:
                out.append(threshold(g1, g2, vertex_budget=vb).describe())
        except DomainError as exc:
            out.append(f"refused: {exc}")
    return "\n".join(out)


def test_level_table_is_invisible_in_certificates():
    """The benchmark's star/forest and constellation/short-forest pairs at
    budgets 6-8 certify the same text, fractions and witness edges whether
    every call builds its levels afresh or shares a warm table."""
    cases = [(h1, h2, vb) for h1, h2 in _bench_pairs() for vb in (6, 7, 8)]
    cold = [_certify(*case, cold=True) for case in cases]
    _level_table.clear()
    for case in cases:
        _certify(*case, cold=False)
    assert [_certify(*case, cold=False) for case in cases] == cold


def test_construction_bound_reads_the_tree_order_without_building_it(monkeypatch):
    def refuse(self):
        raise AssertionError("the construction host was materialised")

    monkeypatch.setattr(LayeredTree, "graph", property(refuse))
    assert construction_upper_bound(star(4), path(4)) == (
        Fraction(11110, 11111), False, "complete 10-ary tree of height 4"
    )


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
