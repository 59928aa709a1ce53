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
number of canonical colourings they cover, so an Arrows verdict has
examined exactly Bell(e(G)); the walk settles them all at its start when
a pattern has no edges and at most n(G) vertices.

The prune check is anchored on the newest coloured edge.  The search
only reaches a prefix of i edges when the prefix of i - 1 edges held no
copy, so the longer prefix holds one exactly when some copy uses edge
i - 1: a monochromatic H1 through it inside its colour class, or a
rainbow H2 through it.  Asking only that prunes exactly the nodes a
check of the whole prefix would.  The colour classes and the prefix
adjacency, as int bitmasks, and the edge colours are kept up to date as
edges are coloured and uncoloured, and the pinned searches follow vertex
orders planned once per pattern (``graphs.edge_orbit_plans``, cached by
the pattern's value).

Neither check repeats what the walk has proved.  The monochromatic check
reads only the class's edge set, whose top bit is the new edge, so a walk
memoizes it by that bitmask.  With edge i's prefix fixed, one rainbow
search gives edge i a fresh colour: a rainbow copy with edge i in colour c
stays rainbow in it, so if none is found no child is rainbow-pruned, and
a found copy prunes every child c its other edges do not colour.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Generator, Iterator

from .errors import BudgetError, DomainError
from .graphs import (
    Colouring,
    Graph,
    avoids,
    colour_degree,
    complete_graph,
    contains,
    edge_orbit_plans,
    has_copy_through,
)

DEFAULT_EDGE_BUDGET = 16


def enumerate_colourings(g: Graph) -> Iterator[Colouring]:
    """Every set partition of E(G), once each, as canonical colourings,
    in the order the arrowing search meets them."""
    for values, _ in _restricted_growth(g, None, None):
        yield Colouring.from_values(g, values)


@lru_cache(maxsize=256)  # every key a walk of up to 21 edges asks for
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
    settled by the search: Bell(e(G)) for every Arrows verdict, edgeless
    patterns included.
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
    least canonical colouring avoiding both patterns, with one
    exception: when H1 has at least two edges and embeds but H2 does
    not, the all-distinct colouring is returned at once (examined 1),
    although a lesser one may avoid both (``arrows(P3, M2, K4)`` gives
    ``(0,1,2)``, not ``(0,0,1)``).
    """
    if edge_budget is not None and g.e > edge_budget:
        raise BudgetError(
            f"{g.e} edges exceeds the colouring search budget of {edge_budget};"
            " raise edge_budget to force the search"
        )

    # the all-distinct certificate: one-edge classes hold no H1, H2 has no copy
    if h1.e >= 2 and not contains(g, h2) and contains(g, h1):
        return _verified_not_arrows(g, Colouring.rainbow(g), h1, h2, 1)
    walk = _restricted_growth(g, h1, h2)
    try:
        values, examined = next(walk)
    except StopIteration as end:
        return ArrowVerdict(True, None, end.value)
    return _verified_not_arrows(g, Colouring.from_values(g, values), h1, h2, examined)


def _restricted_growth(
    g: Graph, h1: Graph | None, h2: Graph | None
) -> Generator[tuple[list[int], int], None, int]:
    """Depth-first walk of the restricted-growth strings of E(g), in
    lexicographic order.  A prefix holding a monochromatic h1 or a
    rainbow h2 is pruned, its strings counted as settled; a pattern
    given as None is never found, and an edgeless one that fits is in
    every string.

    Yields each string reached (one live list) with the number settled
    so far, that one included; returns the number the walk settled.
    """
    n, m = g.n, g.e
    if any(h is not None and h.e == 0 and h.n <= n for h in (h1, h2)):
        return _completions(0, m)
    edges = g.sorted_edges
    values = [0] * m
    blocks = [0] * (m + 1)  # blocks[i]: colours used by the first i edges
    # the prefix adjacency, and each edge's colour (stale once uncoloured, and never read)
    prefix = [0] * n
    nbr_colour: list[dict[int, int]] = [{} for _ in range(n)]
    class_masks: list[list[int]] = []  # per colour, its edges' adjacency
    class_edges: list[int] = []  # per colour, its edge indices as a bitmask
    mono: dict[int, bool] = {}  # class edge set -> a copy runs through its top edge
    free: list = [None] * m  # per edge, its free-colour check: a copy's colours or False

    def toggle(i: int, c: int) -> None:  # edge i into, or out of, the prefix and class c
        a, b = edges[i]
        prefix[a] ^= 1 << b
        prefix[b] ^= 1 << a
        class_masks[c][a] ^= 1 << b
        class_masks[c][b] ^= 1 << a
        class_edges[c] ^= 1 << i

    def assign(i: int, c: int) -> None:
        a, b = edges[i]
        values[i] = c
        blocks[i + 1] = blocks[i] if c < blocks[i] else c + 1
        nbr_colour[a][b] = nbr_colour[b][a] = c
        if c == len(class_masks):
            class_masks.append([0] * n)
            class_edges.append(0)
        toggle(i, c)

    # a pattern given as None needs m + 1 edges, which no prefix has
    e1, plans1 = (m + 1, ()) if h1 is None else (h1.e, edge_orbit_plans(h1))
    e2, plans2 = (m + 1, ()) if h2 is None else (h2.e, edge_orbit_plans(h2))

    def settles(i: int) -> bool:
        """Does a copy run through edge i, the newest coloured one?"""
        c = values[i]
        s = class_edges[c]
        if s.bit_count() >= e1 and s not in mono:
            mono[s] = has_copy_through(h1, plans1, class_masks[c], edges[i]) is not None
        if mono.get(s):
            return True
        if blocks[i + 1] < e2:  # fewer colours than a rainbow copy needs
            return False
        if free[i] is None:
            a, b = edges[i]
            nbr_colour[a][b] = nbr_colour[b][a] = -1
            w = has_copy_through(h2, plans2, prefix, edges[i], nbr_colour)
            free[i] = False if w is None else {nbr_colour[w[x]][w[y]] for x, y in h2.edges}
            nbr_colour[a][b] = nbr_colour[b][a] = c
        return free[i] is not False and (
            c not in free[i] or has_copy_through(h2, plans2, prefix, edges[i], nbr_colour) is not None
        )

    examined = 0
    i = 0  # edges coloured so far
    while True:
        if i and settles(i - 1):
            # every extension keeps the copy: assigned colours are final
            examined += _completions(blocks[i], m - i)
        elif i < m:
            assign(i, 0)
            i += 1
            continue
        else:
            examined += 1
            yield values, examined
        # move to the next colour string in order, past exhausted edges
        while True:
            if i == 0:
                return examined
            i -= 1
            c = values[i]
            toggle(i, c)
            if c < blocks[i]:
                assign(i, c + 1)
                i += 1
                break
            free[i] = None  # edge i's prefix changes next


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
    # the walk reaches exactly the colourings without a monochromatic pattern
    for values, _ in _restricted_growth(g, params.pattern, None):
        chi = Colouring.from_values(g, values)
        for xs in subsets:
            if not any(colour_degree(g, chi, v, xs) > params.r for v in xs):
                return ColourDegreeVerdict(False, chi, xs)
    return ColourDegreeVerdict(True, None, None)
