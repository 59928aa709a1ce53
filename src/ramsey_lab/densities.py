"""Exact graph density parameters and pattern-family classification.

Both density maxima range over subgraphs but are attained at induced
subgraphs (dropping edges from a fixed vertex set can only lower the
ratios), and for a fixed order both ratios grow with the edge count.
So both read off one table, ``best[k]``: the largest edge count of an
induced subgraph on k vertices.  All values are exact rationals;
floating point never enters a density result.

The table comes from a two-block walk over all 2^n vertex subsets.  The
vertices split into a low block of ceil(n/2) vertices and a high block
holding the rest, so every subset is uniquely S | H with S inside the
low block and H inside the high one.  The low block is tabulated once:
the inner edge count of every S (lowest-bit recurrence), listed by
size, and for each high vertex u its neighbour count in every S.  The
high subsets H are then visited in Gray-code order, each exactly once;
a step adds or removes one high vertex u, which moves the running
count e(S) + e(S, H) of every low subset by u's column in one list
update, and the maxima over each size slice, plus e(H), give the best
counts of the 2^ceil(n/2) subsets S | H at once.  Each subset is thus
counted exactly once, the 2^n work runs inside ``map`` and ``max``,
and memory stays O(n 2^ceil(n/2)).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from operator import add, sub

from .errors import DomainError
from .graphs import Graph


def _max_edges_by_size(g: Graph) -> list[int]:
    """best[k] = the largest edge count of an induced subgraph on k vertices."""
    n = g.n
    low = (n + 1) // 2
    adj = [0] * n
    for u, v in g.edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    inner = [0] * (1 << low)
    for s in range(1, 1 << low):
        rest = s & (s - 1)
        inner[s] = inner[rest] + (adj[(s & -s).bit_length() - 1] & rest).bit_count()
    order = sorted(range(1 << low), key=int.bit_count)
    slices, start = [], 0
    for k in range(low + 1):
        slices.append((k, start, start + comb(low, k)))
        start += comb(low, k)
    tot = [inner[s] for s in order]
    cols = [[(adj[u] & s).bit_count() for s in order] for u in range(low, n)]
    best = [max(tot[a:b]) for _, a, b in slices] + [0] * (n - low)
    high = size = inner_high = 0
    for step in range(1, 1 << (n - low)):
        i = (step & -step).bit_length() - 1
        bit = 1 << (low + i)
        high ^= bit
        op, sign = (add, 1) if high & bit else (sub, -1)
        inner_high += sign * (adj[low + i] & high).bit_count()
        tot = list(map(op, tot, cols[i]))
        size += sign
        for k, a, b in slices:
            e = max(tot[a:b]) + inner_high
            if e > best[k + size]:
                best[k + size] = e
    return best


def max_density(h: Graph) -> Fraction:
    """max e(J)/v(J) over non-empty subgraphs J of h."""
    if h.n == 0:
        raise DomainError("maximum density needs at least one vertex")
    best_e, best_v = 0, 1
    for v, e in enumerate(_max_edges_by_size(h)):
        if e * best_v > best_e * v:
            best_e, best_v = e, v
    return Fraction(best_e, best_v)


def max_2_density(h: Graph) -> Fraction:
    """max d2(J) over subgraphs J with at least one edge, where
    d2(J) = (e(J)-1)/(v(J)-2) and d2(K2) = 1/2; 0 for an edgeless h."""
    if h.n == 0:
        raise DomainError("maximum 2-density needs at least one vertex")
    best_num, best_den = 0, 1
    for v, e in enumerate(_max_edges_by_size(h)):
        if e == 0:
            continue
        num, den = (e - 1, v - 2) if v > 2 else (1, 2)
        if num * best_den > best_num * den:
            best_num, best_den = num, den
    return Fraction(best_num, best_den)


@dataclass(frozen=True)
class GraphClass:
    """Family flags driving the threshold case analysis.

    Isolated vertices are ignored by every flag except the separately
    exposed non-isolated vertex count.
    """

    is_forest: bool
    is_star: bool
    is_matching: bool
    is_star_forest: bool
    is_constellation: bool
    is_short_forest: bool
    is_cherry: bool
    k_nonisolated: int


def _is_star_component(g: Graph, comp: tuple[int, ...]) -> bool:
    size = len(comp)
    degs = sorted(g.degree(v) for v in comp)
    if size == 2:
        return degs == [1, 1]
    return degs[-1] == size - 1 and all(d == 1 for d in degs[:-1])


def classify(h: Graph) -> GraphClass:
    nontrivial = [c for c in h.components if len(c) > 1]
    k = sum(len(c) for c in nontrivial)
    forest = h.is_forest
    has_edges = h.e > 0
    stars = has_edges and all(_is_star_component(h, c) for c in nontrivial)
    short = has_edges and all(
        len(c) == 2 or (len(c) == 3 and _is_star_component(h, c)) for c in nontrivial
    )
    return GraphClass(
        is_forest=forest,
        is_star=stars and len(nontrivial) == 1,
        is_matching=has_edges and all(len(c) == 2 for c in nontrivial),
        is_star_forest=stars,
        is_constellation=stars and len(nontrivial) >= 2,
        is_short_forest=short,
        is_cherry=len(nontrivial) == 1 and len(nontrivial[0]) == 3 and h.e == 2,
        k_nonisolated=k,
    )


def bridge_join(g1: Graph, g2: Graph, u: int, v: int) -> Graph:
    """Disjoint union of g1 and g2 plus the single bridge u--v."""
    if not (0 <= u < g1.n and 0 <= v < g2.n):
        raise DomainError("bridge endpoints out of range")
    return g1.disjoint_union(g2).add_edges([(u, g1.n + v)])
