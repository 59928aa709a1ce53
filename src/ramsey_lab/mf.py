"""Certified bounds for the least density of an arrowing forest.

The quantity of interest is the infimum of m(F) over forests F that
arrow a pattern pair; for a forest, m(F) = (k-1)/k where k is the
largest component order, so the search walks component-size levels
upward.  Levels are refuted either soundly, by an avoiding colouring
scheme that works for every forest of the level at once, or
exhaustively over the budget-capped candidate list; the first verified
arrowing forest found closes the upper bound.  Lower bounds beyond the
multiplicity cap are never claimed: avoiding colourings need not
compose across many copies of a shape, so exhausted levels are
reported as budget-conditional.

Each level's candidates are built from the tree catalogue of
``graphs._coded_trees``, which codes every tree shape once per process
instead of once per level, and every ``arrows`` call on the same
pattern pair reuses the pattern's cached search plans.  Neither cache
depends on a candidate forest or a verdict, so certificates are the
same as without them.  A candidate carries its name, joined from the
names of the catalogue shapes it is built from, so no candidate is
re-coded to be named; every refutation of it is still replayed on the
whole forest.

A third cache, the level table, keeps levels' candidates by (k, copies
cap, vertex budget), at most ``LEVEL_CACHE_SIZE`` in all, least recently
used out first.  It holds forests built from their key alone, never a
pattern or a verdict, so pairs that share it share no answer: each still
replays every refutation through ``avoids`` and runs ``arrows`` itself.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from fractions import Fraction
from itertools import takewhile

from .arrows import DEFAULT_EDGE_BUDGET, arrows
from .constructions import (
    component_mono_colouring,
    constellation_arrow_tree,
    star_arrow_tree,
)
from .densities import classify, max_density
from .errors import DomainError
from .graphs import Colouring, Graph, _coded_trees, avoids, tree_code

DEFAULT_VERTEX_BUDGET = 12
DEFAULT_COPIES_CAP = 3
# candidates the level table keeps in all; budgets 6-9 at cap 3 need 280
LEVEL_CACHE_SIZE = 512
_level_table: OrderedDict[tuple[int, int, int], tuple[tuple[str, Graph], ...]] = OrderedDict()


def strip_isolated(g: Graph) -> Graph:
    """Drop isolated vertices; arrowing forests and densities are
    insensitive to them on both sides of the problem."""
    return g.induced(g.nonisolated())


def describe_forest(f: Graph) -> str:
    return _join_names([_tree_name(f.induced(comp)) for comp in f.components])


def _tree_name(t: Graph, code: str | None = None) -> str:
    """Name of a tree from its order and largest degree; trees that are
    neither stars nor paths are named by their canonical code, which is
    computed only then unless the caller already holds it."""
    n = t.n
    if n == 1:
        return "K1"
    if n == 2:
        return "K2"
    if t.max_degree == n - 1:
        return f"K1,{n - 1}"
    if t.max_degree == 2:
        return f"P{n - 1}"
    return f"tree{tree_code(t) if code is None else code}"


def _join_names(names: list[str]) -> str:
    names.sort(key=lambda s: (len(s), s))
    return "+".join(names) if names else "empty"


@dataclass
class LevelRecord:
    """How one component-size level was settled."""

    k: int
    status: str  # "sound" | "exhausted" | "witness" | "incomplete"
    reason: str
    refuted: tuple[str, ...] = ()
    refusals: tuple[str, ...] = ()


@dataclass
class MfReport:
    """Bounds for the minimum arrowing-forest density of a pattern pair."""

    h1: Graph
    h2: Graph
    upper: Fraction
    upper_witness: Graph | None
    upper_verified: bool
    upper_source: str  # "search" | "construction"
    lower: Fraction
    exact: bool
    v_param_bounds: tuple[int, int | None]
    levels: list[LevelRecord]
    copies_cap: int

    def __post_init__(self):
        if self.lower > self.upper:
            raise DomainError("lower bound exceeded upper bound")

    def to_text(self) -> str:
        lines = [
            f"pair: ({describe_forest(strip_isolated(self.h1))},"
            f" {describe_forest(strip_isolated(self.h2))})",
            f"upper: {self.upper}",
            f"upper-witness: "
            + (describe_forest(self.upper_witness) if self.upper_witness else "none"),
            f"upper-verified: {str(self.upper_verified).lower()}",
            f"upper-source: {self.upper_source}",
            f"lower: {self.lower}",
            f"exact: {str(self.exact).lower()}",
            f"component-order-bounds: [{self.v_param_bounds[0]},"
            f" {self.v_param_bounds[1] if self.v_param_bounds[1] is not None else 'unknown'}]",
            f"copies-cap: {self.copies_cap}",
        ]
        for rec in self.levels:
            detail = rec.reason
            if rec.refuted:
                detail += f"; refuted: {', '.join(rec.refuted)}"
            if rec.refusals:
                detail += f"; refused: {', '.join(rec.refusals)}"
            lines.append(f"level-{rec.k}: {rec.status} ({detail})")
        return "\n".join(lines)


def _check_scope(h1: Graph, h2: Graph) -> None:
    c1, c2 = classify(h1), classify(h2)
    star_case = c1.is_star and c2.is_forest
    constellation_case = c1.is_constellation and c2.is_short_forest
    if not (star_case or constellation_case):
        raise DomainError(
            "the arrowing-forest search covers a star versus a forest, or a"
            " constellation versus a short forest"
        )
    if h1.e < 2 or h2.e < 2:
        raise DomainError("patterns need at least two edges each")


def _sound_level_reason(h1: Graph, h2: Graph, k: int) -> str | None:
    """A reason every forest with components of at most k vertices is
    refuted, independent of any enumeration, or None.

    Three schemes: the single colour wins when the monochromatic
    pattern cannot embed at all; the all-distinct colouring wins when
    the rainbow pattern cannot; one colour per component wins when the
    monochromatic pattern does not fit inside any single component and
    the rainbow pattern has a component with two or more edges.
    """
    max1 = max(len(c) for c in h1.components)
    max2 = max(len(c) for c in h2.components)
    if max1 > k:
        return "pattern-1 needs a larger component; single colour avoids both"
    if max2 > k:
        return "pattern-2 needs a larger component; all-distinct colours avoid both"
    big_rainbow_comp = any(h2.induced(c).e >= 2 for c in h2.components)
    if h1.n > k and big_rainbow_comp:
        return (
            "pattern-1 does not fit in one component; component-monochromatic"
            " colours avoid both"
        )
    return None


def _cheap_refutation(f: Graph, h1: Graph, h2: Graph) -> str | None:
    """A named avoiding colouring for this specific forest, replay-verified;
    each scheme's colouring is built only if the ones before it fail."""
    schemes = (
        ("single-colour", Colouring.constant),
        ("all-rainbow", Colouring.rainbow),
        ("component-monochromatic", component_mono_colouring),
    )
    for name, colouring in schemes:
        if avoids(f, colouring(f), h1, h2):
            return name
    return None


def _level_candidates(k: int, copies_cap: int, vertex_budget: int) -> tuple[tuple[str, Graph], ...]:
    """Forests whose largest component has exactly k vertices, each with
    its name: multisets of tree shapes on 2..k vertices with bounded
    multiplicity, ordered by total order and then canonical component
    codes.

    Shapes come from the catalogue ``_coded_trees`` with their codes, so
    each is named once here, and a forest's name, which equals
    ``describe_forest`` of it, joins its shapes' names.  A forest is one
    ``disjoint_union`` call over its shapes, in order.  The level table
    keeps what is built, unless one level alone exceeds its bound.
    """
    key = (k, copies_cap, vertex_budget)
    if key in _level_table:
        _level_table.move_to_end(key)
        return _level_table[key]
    shapes = [
        (size, code, t, _tree_name(t, code))
        for size in range(2, k + 1)
        for code, t in _coded_trees(size)
    ]
    shapes.sort(key=lambda s: (s[0], s[1]))
    found: list[tuple[int, tuple[str, ...], list[tuple[int, str, Graph, str]]]] = []
    # each stack entry is a multiset of shapes: (next shape index, vertices
    # used, (shape index, copies) pairs); its extensions add later shapes
    stack: list[tuple[int, int, tuple[tuple[int, int], ...]]] = [(0, 0, ())]
    while stack:
        start, total, chosen = stack.pop()
        if chosen and shapes[chosen[-1][0]][0] == k:
            picked = [shapes[j] for j, c in chosen for _ in range(c)]
            found.append((total, tuple(s[1] for s in picked), picked))
        for j in range(start, len(shapes)):
            size = shapes[j][0]
            if total + size > vertex_budget:
                break
            for c in range(1, copies_cap + 1):
                if total + c * size > vertex_budget:
                    break
                stack.append((j + 1, total + c * size, chosen + ((j, c),)))

    found.sort(key=lambda item: (item[0], item[1]))
    level = tuple(
        (_join_names([s[3] for s in picked]), picked[0][2].disjoint_union(*(s[2] for s in picked[1:])))
        for _, _, picked in found
    )
    if len(level) <= LEVEL_CACHE_SIZE:
        _level_table[key] = level
        while sum(map(len, _level_table.values())) > LEVEL_CACHE_SIZE:
            _level_table.popitem(last=False)
    return level


def check_budgets(vertex_budget: int = DEFAULT_VERTEX_BUDGET, copies_cap: int = DEFAULT_COPIES_CAP) -> None:
    """Refuse the budgets ``solve`` cannot honour."""
    if copies_cap < 1:
        # with no candidates every level would read as exhausted
        raise DomainError("copies cap must be >= 1")
    if vertex_budget < 1:
        # the fallback record would name a level below 2
        raise DomainError("vertex budget must be >= 1")


def solve(
    h1: Graph,
    h2: Graph,
    vertex_budget: int = DEFAULT_VERTEX_BUDGET,
    copies_cap: int = DEFAULT_COPIES_CAP,
    edge_budget: int | None = DEFAULT_EDGE_BUDGET,
) -> MfReport:
    """Walk component-size levels upward until a verified arrowing
    forest appears or the budget runs out; see the module docstring.

    Each level gets one record: sound, witness, incomplete or
    exhausted.  The lower end comes from the run of sound and exhausted
    levels from k = 2; without a witness the upper end is the
    construction tree's.
    """
    _check_scope(h1, h2)
    check_budgets(vertex_budget, copies_cap)
    h1, h2 = strip_isolated(h1), strip_isolated(h2)

    levels: list[LevelRecord] = []
    witness: Graph | None = None
    for k in range(2, vertex_budget + 1):
        reason = _sound_level_reason(h1, h2, k)
        if reason is not None:
            levels.append(LevelRecord(k, "sound", reason))
            continue
        refuted: list[str] = []
        refusals: list[str] = []
        for name, cand in _level_candidates(k, copies_cap, vertex_budget):
            scheme = _cheap_refutation(cand, h1, h2)
            if scheme is not None:
                refuted.append(f"{name} [{scheme}]")
            elif edge_budget is not None and cand.e > edge_budget:
                refusals.append(name)
            elif arrows(cand, h1, h2, edge_budget=edge_budget).arrows:
                witness, witness_name = cand, name
                break
            else:
                refuted.append(f"{name} [exhausted]")
        if witness is not None:
            status, reason = "witness", f"{witness_name} arrows the pair"
        elif refusals:
            status, reason = "incomplete", "some candidates exceeded the colouring budget"
        else:
            status, reason = "exhausted", f"all candidates with multiplicity <= {copies_cap} refuted"
        levels.append(LevelRecord(k, status, reason, tuple(refuted), tuple(refusals)))
        if witness is not None:
            break

    # levels run k = 2, 3, ..., so the settled run ends at k = 1 + its length
    settled = takewhile(lambda rec: rec.status in ("sound", "exhausted"), levels)
    deepest_refuted = 1 + sum(1 for _ in settled)
    if witness is not None:
        top = levels[-1].k
        upper, verified, source = Fraction(top - 1, top), True, "search"
        # the witness has at most vertex_budget vertices, a bound the caller chose
        if max_density(witness, vertex_budget=None) != upper:
            raise AssertionError("witness density disagrees with its level")
    else:
        top, source = None, "construction"
        upper, verified, desc = construction_upper_bound(h1, h2, edge_budget)
        levels.append(LevelRecord(vertex_budget + 1, "incomplete", f"fell back to {desc}"))
    return MfReport(
        h1,
        h2,
        upper=upper,
        upper_witness=witness,
        upper_verified=verified,
        upper_source=source,
        lower=Fraction(deepest_refuted - 1, deepest_refuted),
        exact=witness is not None and all(rec.status == "sound" for rec in levels[:-1]),
        v_param_bounds=(deepest_refuted + 1, top),
        levels=levels,
        copies_cap=copies_cap,
    )


def construction_upper_bound(
    h1: Graph, h2: Graph, edge_budget: int | None = DEFAULT_EDGE_BUDGET
) -> tuple[Fraction, bool, str]:
    """Density (n-1)/n of the explicit arrowing tree for the pair.

    Star versus forest uses the complete-tree construction sized by the
    star and the completed pattern; constellation versus short forest
    uses the height-3 tree.  Both are lazy, so only n is read, at any
    size, like every lazy host.  The bound is tagged verified
    only when the star tree has at most ``edge_budget`` edges; only then
    is its graph built and replayed through the exhaustive decision.
    """
    _check_scope(h1, h2)
    h1, h2 = strip_isolated(h1), strip_isolated(h2)
    verified = False
    if classify(h1).is_star:
        tree = star_arrow_tree(h1.e, h2).tree
        if edge_budget is not None and tree.n - 1 <= edge_budget:
            if not arrows(tree.graph, h1, h2, edge_budget=edge_budget).arrows:
                raise AssertionError("construction tree failed to arrow the pair")
            verified = True
    else:
        s = max(
            len(h1.components),
            max(len(c) - 1 for c in h1.components),
            len(h2.components),
            2,
        )
        tree = constellation_arrow_tree(s)
    return Fraction(tree.n - 1, tree.n), verified, f"complete {tree.d}-ary tree of height {tree.h}"
