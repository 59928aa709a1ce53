"""Exact decision of the arrowing property by exhaustive colouring search.

A graph G arrows the pair (H1, H2) when every edge colouring of G,
with any number of colours, contains a monochromatic copy of H1 or a
rainbow copy of H2.  Deciding over canonical set partitions of E(G)
(restricted-growth strings over the fixed edge order) is exhaustive,
because both pattern predicates are invariant under colour renaming.

The search colours the edges in order and prunes every extension of a
partial colouring that already contains one of the patterns: assigned
colours never change when the prefix is extended, so such copies
persist.  Pruned subtrees are accounted into the examined count by the
number of canonical colourings they cover.

The prune check is anchored on the newest coloured edge.  The search
only reaches a prefix of i edges when the prefix of i - 1 edges held no
copy, so the longer prefix holds one exactly when some copy uses edge
i - 1: a monochromatic H1 through it inside its colour class, or a
rainbow H2 through it.  Asking only that prunes exactly the nodes a
check of the whole prefix would.  The colour classes, the prefix
adjacency and the edge colours are kept up to date as edges are
coloured and uncoloured, and the pinned searches follow vertex orders
planned once per call (``graphs.edge_orbit_plans``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .errors import BudgetError, DomainError
from .graphs import (
    Colouring,
    Graph,
    avoids,
    colour_degree,
    complete_graph,
    contains,
    edge_orbit_plans,
    find_monochromatic_copy,
    has_copy_through,
)

DEFAULT_EDGE_BUDGET = 16


def enumerate_colourings(g: Graph) -> Iterator[Colouring]:
    """Every set partition of E(G), once each, as canonical colourings."""
    m = g.e
    if m == 0:
        yield Colouring.from_values(g, [])
        return
    values = [0] * m

    def rec(i: int, blocks: int):
        if i == m:
            yield Colouring.from_values(g, values)
            return
        for c in range(blocks + 1):
            values[i] = c
            yield from rec(i + 1, max(blocks, c + 1))

    yield from rec(0, 0)


def _completions(blocks: int, remaining: int) -> int:
    """Number of restricted-growth completions from a prefix state.

    Iterates C(b, r) = b * C(b, r - 1) + C(b + 1, r - 1), C(b, 0) = 1, one
    r at a time: after step r, ``row[j]`` holds C(blocks + j, r).
    """
    row = [1] * (remaining + 1)
    for r in range(1, remaining + 1):
        for j in range(remaining - r + 1):
            row[j] = (blocks + j) * row[j] + row[j + 1]
    return row[0]


def bell_number(m: int) -> int:
    return _completions(0, m)


@dataclass(frozen=True)
class ArrowVerdict:
    """Outcome of an arrowing decision.

    ``counterexample`` is present exactly when the graph does not
    arrow; replaying it through the copy finders yields neither
    pattern.  ``colourings_examined`` counts the canonical colourings
    settled by the search (the full Bell number when it ran to
    completion).
    """

    arrows: bool
    counterexample: Colouring | None
    colourings_examined: int

    def __post_init__(self):
        if self.arrows == (self.counterexample is not None):
            raise DomainError("counterexample present iff the verdict is NotArrows")


def _verified_not_arrows(g: Graph, chi: Colouring, h1: Graph, h2: Graph, examined: int) -> ArrowVerdict:
    if not avoids(g, chi, h1, h2):
        raise AssertionError("claimed counterexample contains a monochromatic or rainbow copy")
    return ArrowVerdict(False, chi, examined)


def arrows(g: Graph, h1: Graph, h2: Graph, edge_budget: int | None = DEFAULT_EDGE_BUDGET) -> ArrowVerdict:
    """Decide whether g arrows (h1, h2), exactly.

    Refuses graphs with more edges than ``edge_budget`` (pass None to
    lift the cap) rather than ever answering heuristically.  The
    counterexample returned for NotArrows is the lexicographically
    least canonical colouring avoiding both patterns.
    """
    if edge_budget is not None and g.e > edge_budget:
        raise BudgetError(
            f"{g.e} edges exceeds the colouring search budget of {edge_budget};"
            " raise edge_budget to force the search"
        )

    # A pattern that cannot embed at all settles the decision with a
    # one-colouring certificate, replay-verified like any other.
    if not contains(g, h1):
        if h2.e >= 2 or not contains(g, h2):
            return _verified_not_arrows(g, Colouring.constant(g), h1, h2, 1)
        return ArrowVerdict(True, None, 0)  # every copy of h2 is rainbow
    if not contains(g, h2):
        if h1.e >= 2:
            return _verified_not_arrows(g, Colouring.rainbow(g), h1, h2, 1)
        return ArrowVerdict(True, None, 0)  # every copy of h1 is monochromatic

    if h1.e == 0 or h2.e == 0:
        # an edgeless pattern that fits is a copy in every colouring
        return ArrowVerdict(True, None, bell_number(g.e))
    values, examined = _least_avoiding(g, h1, h2)
    if values is None:
        return ArrowVerdict(True, None, examined)
    return _verified_not_arrows(g, Colouring.from_values(g, values), h1, h2, examined)


def _least_avoiding(g: Graph, h1: Graph, h2: Graph) -> tuple[list[int] | None, int]:
    """Depth-first search of the restricted-growth strings of E(g), for
    patterns that both have edges.

    Returns the least string avoiding both patterns, or None, and the
    number of canonical colourings settled on the way.
    """
    n, m = g.n, g.e
    edges = g.sorted_edges
    e1, e2 = h1.e, h2.e
    plans1, plans2 = edge_orbit_plans(h1), edge_orbit_plans(h2)
    values = [0] * m
    blocks = [0] * (m + 1)  # blocks[i]: colours used by the first i edges
    # the prefix adjacency, holding each coloured edge's colour
    nbr_colour: list[dict[int, int]] = [{} for _ in range(n)]
    class_adj: list[list[set[int]]] = []  # per colour, its edges' adjacency
    class_size: list[int] = []
    counts: dict[tuple[int, int], int] = {}

    def colour(u: int, v: int) -> int:
        return nbr_colour[u][v]

    def assign(i: int, c: int) -> None:
        a, b = edges[i]
        values[i] = c
        blocks[i + 1] = max(blocks[i], c + 1)
        nbr_colour[a][b] = nbr_colour[b][a] = c
        if c == len(class_adj):
            class_adj.append([set() for _ in range(n)])
            class_size.append(0)
        class_adj[c][a].add(b)
        class_adj[c][b].add(a)
        class_size[c] += 1

    def undo(i: int) -> None:
        a, b = edges[i]
        c = values[i]
        del nbr_colour[a][b], nbr_colour[b][a]
        class_adj[c][a].discard(b)
        class_adj[c][b].discard(a)
        class_size[c] -= 1

    def settles(i: int) -> bool:
        """Does a copy run through edge i, the newest coloured one?"""
        c = values[i]
        if class_size[c] >= e1 and has_copy_through(h1, plans1, n, class_adj[c], edges[i]):
            return True
        return (
            i + 1 >= e2
            and blocks[i + 1] >= e2
            and has_copy_through(h2, plans2, n, nbr_colour, edges[i], colour)
        )

    examined = 0
    i = 0  # edges coloured so far
    while i < m:
        assign(i, 0)
        i += 1
        while settles(i - 1):
            # every extension keeps the copy: assigned colours are final
            key = (blocks[i], m - i)
            if key not in counts:
                counts[key] = _completions(*key)
            examined += counts[key]
            # move to the next colour string in order, past exhausted edges
            while True:
                i -= 1
                c = values[i]
                undo(i)
                if c < blocks[i]:
                    assign(i, c + 1)
                    i += 1
                    break
                if i == 0:
                    return None, examined
    return values, examined + 1


def constrained_ramsey_number(
    h1: Graph, h2: Graph, n_max: int, edge_budget: int | None = DEFAULT_EDGE_BUDGET
) -> int | None:
    """Least n <= n_max with K_n arrowing (h1, h2), or None."""
    for n in range(1, n_max + 1):
        verdict = arrows(complete_graph(n), h1, h2, edge_budget=edge_budget)
        if verdict.arrows:
            return n
    return None


@dataclass(frozen=True)
class ColourDegreeParams:
    """Parameters of the colour-degree spread property.

    A graph satisfies the property for (b, r, pattern) when every edge
    colouring without a monochromatic copy of the pattern leaves, in
    every vertex subset of density at least b, some vertex whose
    colour-degree into the subset exceeds r.
    """

    b: Fraction
    r: int
    pattern: Graph

    def __post_init__(self):
        if not 0 < self.b <= 1:
            raise DomainError("density parameter b must lie in (0, 1]")
        if self.r < 2:
            raise DomainError("colour-degree bound r must be >= 2")


@dataclass(frozen=True)
class ColourDegreeVerdict:
    holds: bool
    witness_colouring: Colouring | None
    witness_set: tuple[int, ...] | None


def check_colour_degree_property(
    g: Graph, params: ColourDegreeParams, edge_budget: int | None = 12
) -> ColourDegreeVerdict:
    """Exhaustively check the colour-degree spread property on g.

    Doubly exponential (all canonical colourings times all vertex
    subsets); intended for tiny graphs only.  A failing pair
    (colouring, subset) is returned as the witness.
    """
    if edge_budget is not None and g.e > edge_budget:
        raise BudgetError(f"{g.e} edges exceeds the property-check budget of {edge_budget}")
    n = g.n
    threshold = params.b * n
    subsets = [
        tuple(v for v in range(n) if s >> v & 1)
        for s in range(1, 1 << n)
        if s.bit_count() >= threshold
    ]
    for chi in enumerate_colourings(g):
        if find_monochromatic_copy(g, chi, params.pattern) is not None:
            continue
        for xs in subsets:
            if not any(colour_degree(g, chi, v, xs) > params.r for v in xs):
                return ColourDegreeVerdict(False, chi, xs)
    return ColourDegreeVerdict(True, None, None)
