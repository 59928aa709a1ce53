"""Exact graph density parameters and pattern-family classification.

Both density maxima range over subgraphs but are attained at induced
subgraphs (dropping edges from a fixed vertex set can only lower the
ratios), and for a fixed order both ratios grow with the edge count.
So both read off one table, ``best[k]``: the largest edge count of an
induced subgraph on k vertices.  All values are exact rationals;
floating point never enters a density result.

The table comes from a two-block walk over all 2^n vertex subsets.  The
vertices split into a low block 0..L-1 and a high block holding the
rest, so every subset is uniquely S | H with S inside the low block and
H inside the high one.  A column over the low block is one packed
integer whose byte j holds a count for the j-th low subset in size
order.  The running column starts at e(S), the sum of ``ind[u] &
ind[v]`` over the low edges uv, where ``ind[v]`` packs the indicator
"v in S"; each high vertex u gets the column of its neighbour counts.
The high subsets H are visited in Gray-code order, each exactly once; a
step adds or removes one high vertex u, which moves e(S) + e(S, H) for
every low subset S by one big-integer add or subtract of u's column.
That count is at most the number of edges touching the low block, and
L is the largest block of at most 12 vertices with at most 255 of them
(12 on every graph up to 27 vertices), so every field stays a byte and
no add or subtract carries or borrows across a field.  The size-slice
maxima of the fields, plus e(H), give the best counts of the subsets
S | H at once; one C-level ``bytes.translate`` deleting the values up
to the best count so far tells whether a slice needs its maximum.
Each subset is thus counted once, and the walk holds n + 1 packed
columns of at most 2^12 bytes each.

The indicators and size slices depend only on L, so ``_low_table``
builds them on first use and caches them.  The walk is 2^n time, so
``max_density`` and ``max_2_density`` refuse a graph above
``vertex_budget`` vertices from its order alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import combinations

from .errors import BudgetError, DomainError
from .graphs import Graph

# K26 walks in about 0.3 s on a 2-core host; the walk doubles with each vertex
DEFAULT_DENSITY_VERTEX_BUDGET = 26
LOW_BLOCK = 12
# its first t bytes are the values a slice may drop when only a field of
# at least t can raise a best count
_BYTE_VALUES = bytes(range(256))


@cache
def _low_table(low: int) -> tuple[tuple[int, ...], tuple[tuple[int, int, int], ...]]:
    """Packed indicators of "v in S" for each low vertex v, one byte per
    subset S of the 2^low in size order, and the (size, start, end) byte
    slice of each subset size in that order."""
    # subsets come one at a time from combinations: a list of all 2^low
    # of them would raise the peak memory of a small walk
    packed = [bytearray(1 << low) for _ in range(low)]
    slices, j = [], 0
    for k in range(low + 1):
        start = j
        for s in combinations(range(low), k):
            for v in s:
                packed[v][j] = 1
            j += 1
        slices.append((k, start, j))
    return tuple(int.from_bytes(p, "little") for p in packed), tuple(slices)


def _low_block(g: Graph) -> int:
    """The largest L <= min(n, LOW_BLOCK) with at most 255 edges touching
    vertices 0..L-1: every count the walk packs is bounded by that number."""
    low = min(g.n, LOW_BLOCK)
    while sum(u < low for u, _ in g.edges) > 255:
        low -= 1
    return low


def _max_edges_by_size(g: Graph) -> list[int]:
    """best[k] = the largest edge count of an induced subgraph on k vertices."""
    n = g.n
    low = _low_block(g)
    ind, slices = _low_table(low)
    adj = [0] * n
    for u, v in g.edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    tot = sum(ind[u] & ind[v] for u, v in g.edges if v < low)
    cols = [sum(ind[v] for v in range(low) if adj[u] >> v & 1) for u in range(low, n)]
    nbytes = 1 << low
    best = [0] * (n + 1)
    high = size = inner_high = 0
    for step in range(1 << (n - low)):
        if step:
            i = (step & -step).bit_length() - 1
            bit = 1 << (low + i)
            high ^= bit
            if high & bit:
                tot += cols[i]
                size += 1
                inner_high += (adj[low + i] & high).bit_count()
            else:
                tot -= cols[i]
                size -= 1
                inner_high -= (adj[low + i] & high).bit_count()
        fields = tot.to_bytes(nbytes, "little")
        for k, a, b in slices:
            # the fields above best - e(H), if any, hold the slice's maximum
            rest = fields[a:b].translate(None, _BYTE_VALUES[: max(best[k + size] - inner_high + 1, 0)])
            if rest:
                best[k + size] = max(rest) + inner_high
    return best


def _walk(h: Graph, vertex_budget: int | None, what: str) -> list[int]:
    """best[k] for h, refused from h's order alone before anything is built."""
    if h.n == 0:
        raise DomainError(f"{what} needs at least one vertex")
    if vertex_budget is not None and h.n > vertex_budget:
        raise BudgetError(
            f"{h.n} vertices exceeds the subset-walk budget of {vertex_budget};"
            f" raise --density-budget to walk all 2^{h.n} vertex subsets"
        )
    return _max_edges_by_size(h)


def max_density(h: Graph, vertex_budget: int | None = DEFAULT_DENSITY_VERTEX_BUDGET) -> Fraction:
    """max e(J)/v(J) over non-empty subgraphs J of h; refused above
    ``vertex_budget`` vertices (None lifts the cap)."""
    best_e, best_v = 0, 1
    for v, e in enumerate(_walk(h, vertex_budget, "maximum density")):
        if e * best_v > best_e * v:
            best_e, best_v = e, v
    return Fraction(best_e, best_v)


def max_2_density(h: Graph, vertex_budget: int | None = DEFAULT_DENSITY_VERTEX_BUDGET) -> Fraction:
    """max d2(J) over subgraphs J with at least one edge, where
    d2(J) = (e(J)-1)/(v(J)-2) and d2(K2) = 1/2; 0 for an edgeless h.
    Refused above ``vertex_budget`` vertices (None lifts the cap)."""
    best_num, best_den = 0, 1
    for v, e in enumerate(_walk(h, vertex_budget, "maximum 2-density")):
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
