import itertools
from fractions import Fraction

import pytest

from ramsey_lab.errors import DomainError, OpenProblemError
from ramsey_lab.graphs import Graph, matching, parse_graph, star
from ramsey_lab.mf import solve
from ramsey_lab.threshold import (
    CASE_APPEARANCE,
    CASE_FOREST_ARROWING,
    CASE_FOREST_CHERRY,
    CASE_M2,
    CASE_MATCHING,
    CASE_TRIVIAL,
    fired_clauses,
    threshold,
)


DISPATCH_TABLE = [
    ("K3", "P3", Fraction(-1, 2), CASE_M2),
    ("K1,2+K1,2", "K1,3", Fraction(-1), CASE_M2),
    ("M2", "P3", Fraction(-1), CASE_MATCHING),
    ("K3", "K1,2", Fraction(-1), CASE_APPEARANCE),
    ("K1,2", "K1,2", Fraction(-3, 2), CASE_FOREST_CHERRY),
    ("K2", "P3", Fraction(-2), CASE_TRIVIAL),
    ("K2", "K1,3", Fraction(-2), CASE_TRIVIAL),
]


@pytest.mark.parametrize("h1,h2,q,label", DISPATCH_TABLE)
def test_exact_dispatch_examples(h1, h2, q, label):
    t = threshold(parse_graph(h1), parse_graph(h2))
    assert t.exact == q
    assert t.case_label == label


def test_mf_based_dispatch_example():
    t = threshold(parse_graph("K1,2"), parse_graph("K1,2+K1,2"))
    assert t.case_label == CASE_FOREST_ARROWING
    assert t.exact is None
    lo, hi = t.bounds
    assert lo <= hi < -1
    assert t.symbol == "-1/m_F"


@pytest.mark.parametrize("h1,h2,_q,_label", DISPATCH_TABLE)
def test_forest_search_budgets_checked_in_every_case(h1, h2, _q, _label):
    """The budgets are refused before dispatch, also where no forest search runs."""
    h1, h2 = parse_graph(h1), parse_graph(h2)
    with pytest.raises(DomainError, match=r"^vertex budget must be >= 1$"):
        threshold(h1, h2, vertex_budget=0)
    with pytest.raises(DomainError, match=r"^copies cap must be >= 1$"):
        threshold(h1, h2, copies_cap=0)


def test_non_forest_rainbow_pattern_refused():
    with pytest.raises(OpenProblemError):
        threshold(star(2), parse_graph("K3"))


def test_cherry_boundary_consistency():
    """For a star forest versus a cherry, the dedicated clause exponent
    equals the reciprocal of the exact arrowing-forest density."""
    for spec in ("K1,2", "K1,3", "M2"):
        h1 = parse_graph(spec)
        t = threshold(h1, star(2))
        report = solve(h1, star(2))
        assert report.exact
        assert t.exact == -1 / report.upper


def test_two_matching_boundary_consistency():
    for spec in ("K1,2", "K1,3"):
        h1 = parse_graph(spec)
        t = threshold(h1, matching(2))
        report = solve(h1, matching(2))
        assert report.exact
        assert t.exact == -1 / report.upper


def test_mf_intervals_stay_below_minus_one():
    for h1, h2 in [("K1,2", "P2+K2"), ("M2", "K1,2+K2"), ("K1,3", "M3")]:
        t = threshold(parse_graph(h1), parse_graph(h2))
        if t.bounds is not None:
            assert t.bounds[1] < -1


def _all_graphs(n):
    pairs = list(itertools.combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        yield Graph.of(n, [p for i, p in enumerate(pairs) if mask >> i & 1])


def test_totality_and_disjointness_small():
    checked = 0
    for n1 in range(2, 5):
        for g1 in _all_graphs(n1):
            if g1.e < 1:
                continue
            for n2 in range(2, 5):
                for g2 in _all_graphs(n2):
                    if g2.e < 1 or not g2.is_forest:
                        continue
                    assert len(fired_clauses(g1, g2)) == 1
                    checked += 1
    assert checked > 1000
