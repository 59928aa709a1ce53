import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramsey_lab.arrows import (
    ColourDegreeParams,
    arrows,
    bell_number,
    check_colour_degree_property,
    constrained_ramsey_number,
    enumerate_colourings,
)
from ramsey_lab.errors import BudgetError, DomainError
from ramsey_lab.graphs import (
    Colouring,
    Graph,
    complete_graph,
    contains,
    find_monochromatic_copy,
    find_rainbow_copy,
    matching,
    parse_graph,
    path,
    star,
)

from oracles import colour_degree_oracle, naive_copy, reference_arrows


def bell_triangle(m: int) -> int:
    """Bell(m) from the Bell triangle: each row starts with the last
    entry of the row above, and each entry adds its upper neighbour."""
    row = [1]
    for _ in range(m):
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
    return row[0]


def test_enumerate_colourings_bell_counts():
    for k, expected in [(2, 2), (3, 5), (4, 15)]:
        host = matching(k)
        seen = list(enumerate_colourings(host))
        assert len(seen) == expected == bell_number(k)
        assert len(set(seen)) == expected


def test_enumerate_colourings_is_lexicographic_and_iterative(low_recursion_limit):
    host = parse_graph("P3+K1,2")
    strings = [chi.colours for chi in enumerate_colourings(host)]
    assert strings == sorted(strings) and len(strings) == bell_number(5)
    # the recursive generator took one frame per edge, 300 here
    assert next(enumerate_colourings(path(300))).colours == (0,) * 300


def test_bell_number_is_iterative():
    assert [bell_number(k) for k in range(8)] == [bell_triangle(k) for k in range(8)]
    assert bell_number(1200) == bell_triangle(1200)


def test_unbudgeted_search_accounts_beyond_recursion_depth():
    # two prunes at the second edge of K50 account for all 1225-edge colourings
    verdict = arrows(complete_graph(50), star(2), star(2), edge_budget=None)
    assert verdict.arrows
    assert verdict.colourings_examined == bell_triangle(1225)


def test_enumeration_is_canonical():
    host = path(3)
    for chi in enumerate_colourings(host):
        assert chi == Colouring.from_values(host, chi.colours)


def test_enumeration_matches_partition_oracle():
    """Every set partition of a 5-edge host appears exactly once."""
    host = parse_graph("SF(3,2)")
    assert host.e == 5

    def partitions(items):
        if not items:
            yield []
            return
        first, rest = items[0], items[1:]
        for part in partitions(rest):
            for i in range(len(part)):
                yield part[:i] + [[first] + part[i]] + part[i + 1 :]
            yield [[first]] + part

    expected = set()
    for part in partitions(list(host.sorted_edges)):
        expected.add(frozenset(frozenset(block) for block in part))
    got = set()
    for chi in enumerate_colourings(host):
        got.add(frozenset(frozenset(block) for block in chi.classes()))
    assert got == expected
    assert len(got) == bell_number(5) == 52


def test_counterexample_is_lexicographically_least():
    for g_spec, h1, h2 in [("P3", matching(2), path(3)), ("M3", star(2), path(3))]:
        g = parse_graph(g_spec)
        verdict = arrows(g, h1, h2)
        assert not verdict.arrows
        avoiding = [
            chi.colours
            for chi in enumerate_colourings(g)
            if find_monochromatic_copy(g, chi, h1) is None
            and find_rainbow_copy(g, chi, h2) is None
        ]
        assert verdict.counterexample.colours == min(avoiding)


def test_arrow_ground_truths():
    k12 = star(2)
    assert arrows(path(2), k12, k12).arrows
    assert not arrows(parse_graph("K2"), k12, k12).arrows
    assert arrows(parse_graph("K1,2+K2"), k12, matching(2)).arrows
    verdict = arrows(path(3), matching(2), path(3))
    assert not verdict.arrows
    assert verdict.counterexample.colours == (0, 0, 1)


def test_counterexample_replays_clean():
    verdict = arrows(path(3), matching(2), path(3))
    cx = verdict.counterexample
    host = path(3)
    assert find_monochromatic_copy(host, cx, matching(2)) is None
    assert find_rainbow_copy(host, cx, path(3)) is None


def test_examined_counts():
    assert arrows(path(2), star(2), star(2)).colourings_examined == 2
    assert arrows(parse_graph("K1,2+K2"), star(2), matching(2)).colourings_examined == 5
    # a full pruned run still accounts for every canonical colouring
    assert arrows(parse_graph("T(3,2)"), star(3), path(2)).colourings_examined == bell_number(12)


def test_budget_refusal():
    with pytest.raises(BudgetError):
        arrows(complete_graph(7), star(2), star(2))
    assert arrows(complete_graph(7), star(2), star(2), edge_budget=None).arrows


def test_constrained_ramsey_number():
    k12 = star(2)
    assert constrained_ramsey_number(k12, k12, 5) == 3
    assert constrained_ramsey_number(k12, k12, 2) is None
    # regression: a rainbow triangle has no monochromatic cherry and no 2-matching
    assert not arrows(complete_graph(3), k12, matching(2)).arrows
    # colouring each perfect matching of K4 its own colour avoids both patterns
    assert not arrows(complete_graph(4), k12, matching(2)).arrows
    assert constrained_ramsey_number(k12, matching(2), 5) == 5


def test_agreement_with_colour_function_enumeration():
    """Deciding over canonical partitions equals deciding over all
    colour functions, spot-checked on every graph with <= 4 edges."""
    hosts = [
        matching(2),
        path(2),
        path(3),
        star(3),
        parse_graph("K3"),
        parse_graph("K1,2+K2"),
        parse_graph("P4"),
        parse_graph("M2"),
    ]
    pairs = [(star(2), star(2)), (star(2), matching(2)), (matching(2), path(3))]
    for host in hosts:
        m = host.e
        for h1, h2 in pairs:
            expected = True
            for values in itertools.product(range(m), repeat=m):
                chi = Colouring.from_values(host, values)
                if naive_copy(host, chi, h1, "mono") or naive_copy(host, chi, h2, "rainbow"):
                    continue
                expected = False
                break
            assert arrows(host, h1, h2).arrows == expected, (host, h1, h2)


def test_edgeless_patterns_are_vacuous_copies():
    g = parse_graph("K3")
    assert arrows(g, Graph.of(2), Graph.of(2)).arrows  # any 2 vertices do
    assert arrows(g, Graph.of(5), Graph.of(2)).arrows  # rainbow side still vacuous
    assert not arrows(g, Graph.of(5), Graph.of(5)).arrows  # neither pattern fits


def test_agreement_on_random_hosts():
    rng = random.Random(271)
    pattern_pool = [star(2), star(3), matching(2), path(3), parse_graph("K3")]
    for _ in range(40):
        n = rng.randint(3, 6)
        g = Graph.of(n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.4])
        if not 1 <= g.e <= 5:
            continue
        h1, h2 = rng.choice(pattern_pool), rng.choice(pattern_pool)
        expected = True
        for values in itertools.product(range(g.e), repeat=g.e):
            chi = Colouring.from_values(g, values)
            if naive_copy(g, chi, h1, "mono") or naive_copy(g, chi, h2, "rainbow"):
                continue
            expected = False
            break
        assert arrows(g, h1, h2).arrows == expected


def test_pruned_search_equals_plain_enumeration():
    rng = random.Random(1312)
    pattern_pool = [star(2), star(3), matching(2), path(3)]
    for _ in range(30):
        n = rng.randint(3, 5)
        g = Graph.of(n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5])
        if g.e < 1:
            continue
        h1, h2 = rng.choice(pattern_pool), rng.choice(pattern_pool)
        plain = all(
            find_monochromatic_copy(g, chi, h1) is not None
            or find_rainbow_copy(g, chi, h2) is not None
            for chi in enumerate_colourings(g)
        )
        verdict = arrows(g, h1, h2)
        assert verdict.arrows == plain
        if verdict.arrows:
            assert verdict.colourings_examined == bell_number(g.e)


def test_monotone_in_host():
    rng = random.Random(17)
    h1, h2 = star(2), star(2)
    for _ in range(25):
        n = rng.randint(2, 5)
        all_pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        rng.shuffle(all_pairs)
        cut = rng.randint(0, len(all_pairs))
        g = Graph.of(n, all_pairs[:cut])
        if g.e > 8:
            continue
        if arrows(g, h1, h2).arrows and cut < len(all_pairs):
            bigger = g.add_edges([all_pairs[cut]])
            assert arrows(bigger, h1, h2).arrows


def test_all_one_colour_finds_contained_pattern():
    rng = random.Random(23)
    for _ in range(30):
        n = rng.randint(3, 6)
        g = Graph.of(n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5])
        h1 = star(2)
        if contains(g, h1):
            assert find_monochromatic_copy(g, Colouring.constant(g), h1) is not None


def test_colour_degree_property_examples():
    k12 = star(2)
    verdict = check_colour_degree_property(star(3), ColourDegreeParams(Fraction(1), 2, k12))
    assert verdict.holds
    verdict = check_colour_degree_property(parse_graph("K2"), ColourDegreeParams(Fraction(1), 2, k12))
    assert not verdict.holds
    assert verdict.witness_set is not None
    # the failing pair replays: no monochromatic pattern, no spread vertex
    assert find_monochromatic_copy(parse_graph("K2"), verdict.witness_colouring, k12) is None
    # a single-edge pattern makes every copy monochromatic: vacuous truth
    verdict = check_colour_degree_property(
        path(3), ColourDegreeParams(Fraction(1), 2, parse_graph("K2"))
    )
    assert verdict.holds


def test_colour_degree_param_validation():
    with pytest.raises(DomainError):
        ColourDegreeParams(Fraction(0), 2, star(2))
    with pytest.raises(DomainError):
        ColourDegreeParams(Fraction(1), 1, star(2))


REFERENCE_PATTERNS = [
    matching(2),
    matching(3),
    parse_graph("K1,2+K1,2"),
    parse_graph("K1,2+K2"),
    parse_graph("K2"),
    star(2),
    path(3),
    parse_graph("K3"),
] + [Graph.of(k) for k in (0, 2, 4, 7)]


@st.composite
def small_hosts(draw) -> Graph:
    n = draw(st.integers(1, 6))
    pairs = list(itertools.combinations(range(n), 2))
    size = draw(st.integers(0, min(7, len(pairs))))
    return Graph.of(n, draw(st.permutations(pairs))[:size])


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(small_hosts(), st.sampled_from(REFERENCE_PATTERNS), st.sampled_from(REFERENCE_PATTERNS))
def test_arrows_matches_prefix_reference(g, h1, h2):
    """Verdict, examined count and counterexample equal those of a search
    that tests every prefix with the brute-force oracle."""
    verdict = arrows(g, h1, h2)
    cx = verdict.counterexample.colours if verdict.counterexample is not None else None
    assert (verdict.arrows, verdict.colourings_examined, cx) == reference_arrows(g, h1, h2)


@st.composite
def deeper_hosts(draw) -> Graph:
    """A host on at most 7 vertices with 8 or 9 edges."""
    n = draw(st.integers(5, 7))
    pairs = list(itertools.combinations(range(n), 2))
    return Graph.of(n, draw(st.permutations(pairs))[: draw(st.integers(8, 9))])


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    deeper_hosts(),
    st.sampled_from([parse_graph(t) for t in ("M2", "K1,2", "P3", "K3")]),
    st.sampled_from([parse_graph(t) for t in ("M3", "K1,3", "P3", "K1,2+K1,2", "K3")]),
)
def test_arrows_reuse_matches_prefix_reference_on_deeper_walks(g, h1, h2):
    """Walks of 8-9 edges reach nodes deep enough that the free-colour
    rainbow check decides siblings and the class-mask memo answers from
    other branches; both must leave verdict, count and counterexample
    as the prefix reference has them."""
    verdict = arrows(g, h1, h2)
    cx = verdict.counterexample.colours if verdict.counterexample is not None else None
    assert (verdict.arrows, verdict.colourings_examined, cx) == reference_arrows(g, h1, h2)


MONOTONE_PATTERNS = [parse_graph(t) for t in ("K2", "P2", "K1,2", "P3", "M2", "K3", "K1,3", "K1,2+K1,2")]


@st.composite
def hosts_with_a_non_edge(draw) -> tuple[Graph, tuple[int, int]]:
    """A host on at most 7 vertices and 9 edges, and a pair that is not one of its edges."""
    n = draw(st.integers(2, 7))
    pairs = draw(st.permutations(list(itertools.combinations(range(n), 2))))
    size = draw(st.integers(0, min(9, len(pairs) - 1)))
    return Graph.of(n, pairs[:size]), pairs[size]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(hosts_with_a_non_edge(), st.sampled_from(MONOTONE_PATTERNS), st.sampled_from(MONOTONE_PATTERNS))
def test_arrowing_survives_an_added_edge(case, h1, h2):
    """A colouring of G + e restricts to one of G, and a copy in G is a
    copy in G + e, so a host that arrows keeps arrowing."""
    g, pair = case
    if arrows(g, h1, h2).arrows:
        assert arrows(g.add_edges([pair]), h1, h2).arrows


COLOUR_DEGREE_PATTERNS = [parse_graph(t) for t in ("K2", "K1,2", "P3", "M2", "K3")] + [Graph.of(1), Graph.of(7)]


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(
    small_hosts(),
    st.sampled_from(COLOUR_DEGREE_PATTERNS),
    st.sampled_from([Fraction(1, 2), Fraction(1)]),
    st.sampled_from([2, 3]),
)
def test_colour_degree_property_matches_enumerate_and_filter(g, pattern, b, r):
    """The pruned walk's colourings give the holds flag, witness colouring
    and witness set of filtering every colouring for a monochromatic
    copy; Graph.of(1) fits every host and Graph.of(7) none."""
    params = ColourDegreeParams(b, r, pattern)
    verdict = check_colour_degree_property(g, params)
    assert (verdict.holds, verdict.witness_colouring, verdict.witness_set) == colour_degree_oracle(g, params)
