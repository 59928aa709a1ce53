"""Finite simple graphs, canonical edge colourings, and copy finders.

Graphs are immutable: a vertex count and a set of unordered vertex
pairs.  Colourings are canonicalised set partitions of the edge set
(restricted-growth form over a fixed edge order), so two colourings are
equal exactly when they induce the same partition.  The two copy
finders locate a monochromatic or a rainbow embedded copy of a pattern
graph; both use subgraph (not induced) semantics.  Every found copy,
here or in a construction, is one ``Embedding`` record whose ``kind``
says which colour constraint it meets; ``verify_witness`` replays one
and ``avoids`` checks that a colouring has neither kind of copy.  Both
finders read a colouring as a ``Colouring`` over the host's edge order:
the rainbow finder answers None without a search when there are fewer
colours than pattern edges, and the monochromatic finder reads the
colour classes; one colour, or one per edge, needs no colour state
(see the finders).  No exit changes a verdict or the copy found.

All copy finders share one backtracking search, ``_search``, on an
explicit stack, over host neighbourhoods held as int bitmasks; with
ascending candidates it returns the least vertex map along its
placement order.  A position with placed neighbours ANDs their images'
masks and tries the bits lowest first, one without scans a range of
host vertices, a host vertex of too small usable degree is skipped, and
twin pattern vertices are placed in increasing order: no cut loses the
least map, so each finder returns the copy the unfiltered search finds.
The search plans (``_plan`` and ``edge_orbit_plans``) depend only on
the pattern's value and are cached by it, never by a host or a verdict.
Trees come from one catalogue per vertex count (``_coded_trees``),
which keeps each class's canonical code next to its representative.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cache, cached_property, lru_cache
from heapq import heapify, heappop, heappush
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .errors import DomainError, GraphParseError, n_vertices

Edge = tuple[int, int]


def norm_edge(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 0..n-1."""

    n: int
    edges: frozenset[Edge]

    def __post_init__(self):
        if self.n < 0:
            raise DomainError("vertex count must be non-negative")
        for u, v in self.edges:
            if u == v:
                raise DomainError(f"self-loop at vertex {u}")
            if not (0 <= u < v < self.n):
                raise DomainError(f"edge ({u},{v}) out of range for n={self.n}")

    @classmethod
    def of(cls, n: int, pairs: Iterable[tuple[int, int]] = ()) -> "Graph":
        return cls(n, frozenset(norm_edge(u, v) for u, v in pairs))

    @property
    def e(self) -> int:
        return len(self.edges)

    @cached_property
    def sorted_edges(self) -> tuple[Edge, ...]:
        """The fixed edge order used by colourings and enumerations."""
        return tuple(sorted(self.edges))

    @cached_property
    def masks(self) -> tuple[int, ...]:
        """Per vertex, its neighbours as a bitmask (bit w for neighbour w)."""
        masks = [0] * self.n
        for u, v in self.edges:
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        return tuple(masks)

    @cached_property
    def adj(self) -> tuple[frozenset[int], ...]:
        nbrs: list[set[int]] = [set() for _ in range(self.n)]
        for u, v in self.edges:
            nbrs[u].add(v)
            nbrs[v].add(u)
        return tuple(frozenset(s) for s in nbrs)

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    @cached_property
    def max_degree(self) -> int:
        return max((len(a) for a in self.adj), default=0)

    def has_edge(self, u: int, v: int) -> bool:
        return norm_edge(u, v) in self.edges

    @cached_property
    def components(self) -> tuple[tuple[int, ...], ...]:
        """Connected components as sorted vertex tuples, ordered by minimum."""
        seen = [False] * self.n
        comps = []
        for start in range(self.n):
            if seen[start]:
                continue
            stack = [start]
            seen[start] = True
            comp = []
            while stack:
                v = stack.pop()
                comp.append(v)
                for w in self.adj[v]:
                    if not seen[w]:
                        seen[w] = True
                        stack.append(w)
            comps.append(tuple(sorted(comp)))
        return tuple(comps)

    @cached_property
    def is_forest(self) -> bool:
        return self.e == self.n - len(self.components)

    def nonisolated(self) -> tuple[int, ...]:
        return tuple(v for v in range(self.n) if self.degree(v) > 0)

    def induced(self, vertices: Iterable[int]) -> "Graph":
        """Induced subgraph, relabelled to 0..k-1 in sorted vertex order."""
        vs = sorted(set(vertices))
        index = {v: i for i, v in enumerate(vs)}
        pairs = [(index[u], index[v]) for u, v in self.edges if u in index and v in index]
        return Graph.of(len(vs), pairs)

    def disjoint_union(self, *others: "Graph") -> "Graph":
        """This graph and then ``others``, joined by one ``Graph.of`` call:
        each part's vertices follow the previous part's, as in a chain of
        two-graph unions, but no part's edges are copied more than once."""
        pairs, n = list(self.edges), self.n
        for g in others:
            pairs += [(u + n, v + n) for u, v in g.edges]
            n += g.n
        return Graph.of(n, pairs)

    def add_edges(self, pairs: Iterable[tuple[int, int]]) -> "Graph":
        return Graph.of(self.n, list(self.edges) + [norm_edge(u, v) for u, v in pairs])

    def __repr__(self):
        return f"Graph(n={self.n}, edges={sorted(self.edges)})"


# ---------------------------------------------------------------------------
# colourings

ColourLike = "Colouring | Mapping[Edge, int] | Callable[[int, int], int]"


class Colouring:
    """Edge colouring in canonical restricted-growth form.

    Colour ids are contiguous from 0 in order of first appearance along
    the host's sorted edge order, so the representation is unique per
    partition of the edge set and independent of the raw colour labels.
    """

    __slots__ = ("edges", "colours", "_lookup")

    def __init__(self, edges: tuple[Edge, ...], raw_values: Iterable[int]):
        values = list(raw_values)
        if len(values) != len(edges):
            raise DomainError("colouring must assign every edge of the host")
        relabel: dict[int, int] = {}
        canonical = []
        for x in values:
            if x not in relabel:
                relabel[x] = len(relabel)
            canonical.append(relabel[x])
        self.edges = edges
        self.colours = tuple(canonical)
        self._lookup = None

    @classmethod
    def from_values(cls, host: Graph, values: Iterable[int]) -> "Colouring":
        return cls(host.sorted_edges, values)

    @classmethod
    def from_function(cls, host: Graph, fn: Callable[[int, int], int]) -> "Colouring":
        return cls(host.sorted_edges, [fn(u, v) for u, v in host.sorted_edges])

    @classmethod
    def constant(cls, host: Graph) -> "Colouring":
        return cls(host.sorted_edges, [0] * host.e)

    @classmethod
    def rainbow(cls, host: Graph) -> "Colouring":
        return cls(host.sorted_edges, range(host.e))

    @property
    def n_colours(self) -> int:
        return max(self.colours) + 1 if self.colours else 0

    def colour_of(self, u: int, v: int) -> int:
        if self._lookup is None:
            self._lookup = dict(zip(self.edges, self.colours))
        return self._lookup[norm_edge(u, v)]

    def classes(self) -> tuple[tuple[Edge, ...], ...]:
        out: list[list[Edge]] = [[] for _ in range(self.n_colours)]
        for e, c in zip(self.edges, self.colours):
            out[c].append(e)
        return tuple(tuple(cl) for cl in out)

    def __eq__(self, other):
        return (
            isinstance(other, Colouring)
            and self.edges == other.edges
            and self.colours == other.colours
        )

    def __hash__(self):
        return hash((self.edges, self.colours))

    def __repr__(self):
        body = " ".join(f"({u},{v})={c}" for (u, v), c in zip(self.edges, self.colours))
        return f"Colouring[{body}]"


def as_colour_fn(chi: "ColourLike") -> Callable[[int, int], int]:
    """Normalise a colouring-like object to an edge -> colour function."""
    if isinstance(chi, Colouring):
        return chi.colour_of
    if isinstance(chi, Mapping):
        return lambda u, v: chi[norm_edge(u, v)]
    if callable(chi):
        return lambda u, v: chi(*norm_edge(u, v))
    raise DomainError(f"not a colouring: {chi!r}")


def _as_colouring(host: Graph, chi: "ColourLike") -> Colouring:
    """``chi`` as a ``Colouring`` over the host's own edge order."""
    if isinstance(chi, Colouring) and chi.edges == host.sorted_edges:
        return chi
    return Colouring.from_function(host, as_colour_fn(chi))


# ---------------------------------------------------------------------------
# embeddings and copy finders


@dataclass(frozen=True)
class Embedding:
    """Injective map from a pattern graph's vertices into a host's.

    ``kind`` is "plain", "monochromatic" (all image edges share one
    colour) or "rainbow" (image edges pairwise distinct in colour).
    """

    pattern: Graph
    mapping: tuple[int, ...]
    kind: str = "plain"

    def image_edges(self) -> tuple[Edge, ...]:
        m = self.mapping
        return tuple(sorted(norm_edge(m[u], m[v]) for u, v in self.pattern.edges))


# placement order, then per position: placed neighbours (whose images' masks
# are ANDed; none means a range scan), degree, twin floor (or None)
Plan = tuple[tuple[int, ...], tuple[tuple[int, ...], ...], tuple[int, ...], tuple[int | None, ...]]

# each plan cache keeps at most this many patterns; a run uses a handful
PLAN_CACHE_SIZE = 1024


@lru_cache(maxsize=PLAN_CACHE_SIZE)
def _plan(pattern: Graph, pinned: Edge | None = None) -> Plan:
    """Placement order for ``_search``, and per position the pattern
    neighbours placed before that vertex, its degree and its twin floor.

    Without ``pinned``, vertices go in decreasing degree order.  A pinned
    oriented edge (x, y) puts x and y first; each later vertex is then the
    one with the most placed neighbours (ties to higher degree, then lower
    id), kept in a heap whose stale keys lose to a vertex's current one.
    Twins u, v have N(u) - {v} = N(v) - {u}: equal open or closed
    neighbourhoods.  A position's floor is the latest earlier twin of its
    vertex, never a pinned one.  A plan depends only on the pattern's
    value (``Graph`` equality is by n and edges) and is cached by it.
    """
    adj, degree = pattern.adj, pattern.degree
    if pinned is None:
        order = sorted(range(pattern.n), key=lambda v: (-degree(v), v))
    else:
        order, count = [], [0] * pattern.n  # placed neighbours; None once placed
        heap = [(-pattern.n - 1, i, v) for i, v in enumerate(pinned)]  # before any count
        heap += [(0, -degree(v), v) for v in range(pattern.n) if v not in pinned]
        heapify(heap)
        while heap:
            v = heappop(heap)[2]
            if count[v] is not None:
                order.append(v)
                count[v] = None
                for u in adj[v]:
                    if count[u] is not None:
                        count[u] += 1
                        heappush(heap, (-count[u], -degree(u), u))
    pos = {v: i for i, v in enumerate(order)}
    placed_nbrs = tuple(tuple(u for u in adj[v] if pos[u] < pos[v]) for v in order)
    start = 0 if pinned is None else 2
    floor, latest = [None] * start, {}  # open or closed neighbourhood -> latest vertex
    for v in order[start:]:
        floor.append(latest.get(adj[v], latest.get(adj[v] | {v})))
        latest[adj[v]] = latest[adj[v] | {v}] = v
    return tuple(order), placed_nbrs, tuple(degree(v) for v in order), tuple(floor)


def _search(
    pattern: Graph,
    masks: Sequence[int],
    colours: Sequence[Mapping[int, int]] | None = None,
    plan: Plan | None = None,
    pin: Edge | None = None,
) -> tuple[int, ...] | None:
    """Backtracking embedding search; returns a vertex map or None.

    ``masks[v]`` is the bitmask of host vertex v's usable neighbours, so
    callers can restrict the usable edges (the monochromatic finder
    passes one colour class).  Given ``colours``, the search is rainbow:
    ``colours[v]`` maps each usable neighbour w to the colour of vw, and
    image edges take pairwise distinct colours.  Vertices are placed in
    the order of ``plan`` (by default ``_plan(pattern)``) and candidates
    ascend, so the first embedding found is the least sequence of images
    in that order.  ``pin`` = (a, b) places the first two vertices of a
    pinned plan (``_plan(pattern, edge)``) on the host edge (a, b); a pin
    whose ends have fewer usable neighbours than those pattern vertices
    have edges is refused before anything is built.

    A position with placed neighbours tries, lowest bit first, the AND of
    their images' masks less the used vertices and the bits at or below
    its twin floor's image; one without scans ``range(lo + 1, host_n)``.
    Vertices of smaller usable degree (``bit_count``) than the pattern
    vertex are skipped.  Swapping two twins is an automorphism fixing
    every other vertex, so the least embedding maps the earlier twin
    lower: no cut drops it, and the unfiltered search finds it first.
    """
    vp, host_n = pattern.n, len(masks)
    order, placed_nbrs, need, floor = _plan(pattern) if plan is None else plan
    if vp > host_n or pin is not None and (masks[pin[0]].bit_count() < need[0] or masks[pin[1]].bit_count() < need[1]):
        return None

    mapping = [-1] * vp
    start = 0 if pin is None else 2
    if start:
        mapping[order[0]], mapping[order[1]] = pin
    if start == vp:
        return tuple(mapping)
    used = 0 if pin is None else 1 << pin[0] | 1 << pin[1]
    if colours is not None:
        used_colours = {colours[pin[0]][pin[1]]} if start else set()

    candidates: list = [None] * vp  # per position, its untried candidates: a mask or a range iterator
    i = start
    while True:
        nbrs, d, w, ws = placed_nbrs[i], need[i], -1, candidates[i]
        if ws is None:
            lo = 0 if floor[i] is None else mapping[floor[i]] + 1
            if not nbrs:
                ws = iter(range(lo, host_n))
            else:
                ws = masks[mapping[nbrs[0]]] >> lo << lo & ~used
                for u in nbrs[1:]:
                    ws &= masks[mapping[u]]
        if not nbrs:
            for x in ws:
                if not used >> x & 1 and masks[x].bit_count() >= d:
                    w = x
                    break
        elif colours is None:
            while ws:
                low = ws & -ws
                ws ^= low
                x = low.bit_length() - 1
                if masks[x].bit_count() >= d:
                    w = x
                    break
        elif len(nbrs) == 1:
            colour = colours[mapping[nbrs[0]]]
            while ws:
                low = ws & -ws
                ws ^= low
                x = low.bit_length() - 1
                if masks[x].bit_count() >= d and colour[x] not in used_colours:
                    used_colours.add(colour[x])
                    w = x
                    break
        else:
            while ws:
                low = ws & -ws
                ws ^= low
                x = low.bit_length() - 1
                if masks[x].bit_count() >= d:
                    new_colours = set()
                    for u in nbrs:
                        new_colours.add(colours[mapping[u]][x])
                    if len(new_colours) == len(nbrs) and used_colours.isdisjoint(new_colours):
                        used_colours |= new_colours
                        w = x
                        break
        candidates[i] = ws
        if w >= 0:
            mapping[order[i]] = w
            used |= 1 << w
            i += 1
            if i == vp:
                return tuple(mapping)
            continue
        # position i is exhausted: undo the placement before it
        candidates[i] = None
        i -= 1
        if i < start:
            return None
        w = mapping[order[i]]
        used ^= 1 << w
        if colours is not None:
            for u in placed_nbrs[i]:
                used_colours.discard(colours[mapping[u]][w])


@lru_cache(maxsize=PLAN_CACHE_SIZE)
def edge_orbit_plans(pattern: Graph) -> tuple[Plan, ...]:
    """Search plans pinning one oriented pattern edge each, one plan per
    orbit of oriented edges under the pattern's automorphisms.

    A copy through a host edge (a, b) maps some oriented pattern edge
    (x, y) onto it; composing that copy with an automorphism taking the
    orbit's representative to (x, y) gives a copy mapping the
    representative onto (a, b).  So pinning every representative to
    (a, b), one orientation only, finds a copy through (a, b) whenever
    one exists.  Orbit membership is a pinned search of the pattern in
    itself (a self-embedding is an automorphism), run only where the
    ends agree in an invariant: the vertex counts at each BFS distance.
    The plans depend only on the pattern's value and are cached by it.
    """
    adj = pattern.adj
    invariant = []
    for s in range(pattern.n):
        levels, seen, frontier = [], {s}, {s}
        while frontier:
            levels.append(len(frontier))
            frontier = set().union(*(adj[v] for v in frontier)) - seen
            seen |= frontier
        invariant.append(tuple(levels))
    plans, alike = [], {}  # every representative's plan; end invariants -> their plans
    for u, v in pattern.sorted_edges:
        for xy in ((u, v), (v, u)):
            reps = alike.setdefault((invariant[xy[0]], invariant[xy[1]]), [])
            if not any(_search(pattern, pattern.masks, None, p, xy) is not None for p in reps):
                reps.append(_plan(pattern, xy))
                plans.append(reps[-1])
    return tuple(plans)


def has_copy_through(
    pattern: Graph, plans: tuple[Plan, ...], masks: Sequence[int], edge: Edge, colours=None
) -> tuple[int, ...] | None:
    """The first copy of ``pattern`` that uses the host edge ``edge``, as
    a vertex map, or None.  ``plans`` are ``edge_orbit_plans(pattern)``,
    tried in order; ``masks`` (which must hold ``edge``) and ``colours``
    are as for ``_search``.
    """
    for p in plans:
        m = _search(pattern, masks, colours, p, edge)
        if m is not None:
            return m
    return None


def find_embedding(host: Graph, pattern: Graph) -> Embedding | None:
    """A copy of ``pattern`` in ``host`` under subgraph semantics."""
    m = _search(pattern, host.masks)
    return Embedding(pattern, m) if m is not None else None


def contains(host: Graph, pattern: Graph) -> bool:
    return find_embedding(host, pattern) is not None


def find_monochromatic_copy(host: Graph, chi: "ColourLike", pattern: Graph) -> Embedding | None:
    """A copy of ``pattern`` whose image edges all share one colour.

    Colour classes are tried in ascending id order.  A pattern without
    edges is vacuously monochromatic and only needs enough host
    vertices.  Any other colouring is first made a ``Colouring`` over
    the host's own edge order, whose canonical ids ascend in first-seen
    order, and its classes are read from that.  A single class holds
    every host edge, so its masks are ``host.masks``, searched as they
    are; with one edge per class no class holds two pattern edges.
    """
    if pattern.e > 0:
        chi = _as_colouring(host, chi)
        if chi.n_colours == host.e and pattern.e >= 2:
            return None  # every class is a single edge
    if pattern.e == 0 or chi.n_colours == 1:  # no colour to read, or one class of every edge
        m = _search(pattern, host.masks)
        return Embedding(pattern, m, "monochromatic") if m is not None else None
    for edges in chi.classes():
        if len(edges) < pattern.e:
            continue
        masks = [0] * host.n
        for u, v in edges:
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        m = _search(pattern, masks)
        if m is not None:
            return Embedding(pattern, m, "monochromatic")
    return None


def find_rainbow_copy(host: Graph, chi: "ColourLike", pattern: Graph) -> Embedding | None:
    """A copy of ``pattern`` whose image edges have pairwise distinct colours.

    The colouring is read as ``find_monochromatic_copy`` reads it.  With
    fewer colours than the pattern has edges there is no rainbow copy by
    pigeonhole, so no search runs.  With one colour per host edge every
    edge set is rainbow: no colour test can fail, so the plain search on
    ``host.masks`` visits the same candidates and finds the same copy.
    """
    chi = _as_colouring(host, chi)
    if chi.n_colours < pattern.e:
        return None
    colours: list[dict[int, int]] | None = None
    if chi.n_colours < host.e:  # otherwise every edge set is rainbow
        colours = [{} for _ in range(host.n)]
        for (u, v), c in zip(chi.edges, chi.colours):
            colours[u][v] = colours[v][u] = c
    m = _search(pattern, host.masks, colours)
    return Embedding(pattern, m, "rainbow") if m is not None else None


def avoids(host: Graph, chi: "ColourLike", h1: Graph, h2: Graph) -> bool:
    """True iff chi has no monochromatic h1 and no rainbow h2 in host."""
    return find_monochromatic_copy(host, chi, h1) is None and find_rainbow_copy(host, chi, h2) is None


def verify_witness(host, chi: "ColourLike", emb: Embedding) -> None:
    """Replay a found copy against the host and colouring.

    The mapping must be injective and every image edge must pass
    ``host.has_edge`` (a ``Graph`` or a rooted tree, explicit or lazy);
    a monochromatic copy needs one colour on its image edges, a rainbow
    copy pairwise distinct ones.  Raises AssertionError otherwise.
    """
    if len(set(emb.mapping)) != len(emb.mapping):
        raise AssertionError(f"{emb.kind} copy maps two pattern vertices to one host vertex")
    image = emb.image_edges()
    if not all(host.has_edge(a, b) for a, b in image):
        raise AssertionError(f"{emb.kind} copy uses a pair that is not a host edge")
    if emb.kind == "plain":
        return
    fn = as_colour_fn(chi)
    colours = [fn(a, b) for a, b in image]
    distinct = len(set(colours))
    if emb.kind == "monochromatic" and distinct > 1:
        raise AssertionError("monochromatic copy uses more than one colour")
    if emb.kind == "rainbow" and distinct != len(colours):
        raise AssertionError("rainbow copy repeats a colour")


def colour_degree(host: Graph, chi: "ColourLike", v: int, into: Iterable[int]) -> int:
    """Number of distinct colours on edges from v into the vertex set."""
    if not 0 <= v < host.n:
        raise DomainError(f"vertex {v} not in host")
    fn = as_colour_fn(chi)
    members = set(into)
    return len({fn(v, u) for u in host.adj[v] if u in members})


# ---------------------------------------------------------------------------
# parsing: family DSL and edge lists

DSL_VERTEX_CAP = 1_000_000


def complete_graph(n: int) -> Graph:
    return Graph.of(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def star(leaves: int) -> Graph:
    """K_{1,s}: centre is vertex 0, leaves follow."""
    return Graph.of(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def path(edges: int) -> Graph:
    """Path with the given number of edges, vertices numbered along it."""
    return Graph.of(edges + 1, [(i, i + 1) for i in range(edges)])


def matching(k: int) -> Graph:
    return Graph.of(2 * k, [(2 * i, 2 * i + 1) for i in range(k)])


def star_forest(sizes: Iterable[int]) -> Graph:
    return Graph.of(0).disjoint_union(*map(star, sizes))


def ary_tree_graph(d: int, h: int) -> Graph:
    """Complete d-ary tree of height h, numbered root-first in level order."""
    if d < 1 or h < 0:
        raise GraphParseError("arity must be >= 1 and height >= 0")
    # past about 2^20 bits d^(h+1) is not computed: d^h >= 2^k vertices
    if d > 1 and (h + 1) * d.bit_length() > 1 << 20:
        k = h * (d.bit_length() - 1)
        raise DomainError(f"tree T({d},{h}) has at least 2^{k} vertices, above the cap {DSL_VERTEX_CAP}")
    n = h + 1 if d == 1 else (d ** (h + 1) - 1) // (d - 1)
    _check_cap(f"tree T({d},{h})", n, n - 1)
    pairs = [((v - 1) // d, v) for v in range(1, n)]
    return Graph.of(n, pairs)


def _check_cap(what: str, n: int, e: int) -> None:
    """Refuse a DSL graph above ``DSL_VERTEX_CAP`` vertices or edges,
    from its counts alone, before anything is built."""
    if n > DSL_VERTEX_CAP:
        raise DomainError(f"{what} has {n_vertices(n)}, above the cap {DSL_VERTEX_CAP}")
    if e > DSL_VERTEX_CAP:
        raise DomainError(f"{what} has {e} edges, above the cap {DSL_VERTEX_CAP}")


# family terms as (regex, (vertices, edges) of the term's numbers, builder of
# those numbers), tried in order: a star K1,s is matched before the complete
# graphs K(n); the trees' builder holds them to the cap itself
_FAMILIES = (
    (re.compile(r"^K1,(\d+)$"), lambda s: (s + 1, s), star),
    (re.compile(r"^K(\d+)$"), lambda n: (n, n * (n - 1) // 2), complete_graph),
    (re.compile(r"^P(\d+)$"), lambda k: (k + 1, k), path),
    (re.compile(r"^M(\d+)$"), lambda k: (2 * k, k), matching),
    (re.compile(r"^SF\((\d+(?:,\d+)*)\)$"), lambda *s: (sum(s) + len(s), sum(s)), lambda *s: star_forest(s)),
    (re.compile(r"^T\((\d+),(\d+)\)$"), None, ary_tree_graph),
    (re.compile(r"^B(\d+)$"), None, lambda h: ary_tree_graph(2, h)),
)


def _parse_atom(token: str) -> Graph:
    for family, size, build in _FAMILIES:
        m = family.match(token)
        if m:
            try:
                nums = [int(x) for group in m.groups() for x in group.split(",")]
            except ValueError:  # a number past the digit limit
                raise GraphParseError("a number in the term is too long") from None
            if size is not None:
                _check_cap(f"term {token}", *size(*nums))
            return build(*nums)
    raise GraphParseError("unknown graph family", token)


def _parse_edge_list(text: str) -> Graph:
    chunks = (chunk.split("#", 1)[0].strip() for chunk in re.split(r"[;\n]", text))
    items = [chunk for chunk in chunks if chunk]
    if not items:
        raise GraphParseError("empty edge list")
    try:
        n = int(items[0])
    except ValueError:
        raise GraphParseError("edge list must start with a vertex count", items[0])
    _check_cap("the edge list", n, len(items) - 1)
    pairs = []
    for item in items[1:]:
        parts = item.split()
        if len(parts) != 2:
            raise GraphParseError("expected 'u v'", item)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphParseError("vertex ids must be integers", item)
        if not (0 <= u < n and 0 <= v < n and u != v):
            raise GraphParseError(f"edge out of range for n={n}", item)
        pairs.append((u, v))
    return Graph.of(n, pairs)


def parse_graph(text: str) -> Graph:
    """Parse a family term (``K3``, ``K1,2+K2``, ``T(3,2)``, ...) or edge list.

    Edge lists are ``n; u v; u v`` with ``;`` or newlines as separators
    and ``#`` comments.  Family terms join components with ``+``.
    Vertex numbering is deterministic: roots/centres first, then level
    order, with later components shifted past earlier ones.  A term, or
    the union so far, above ``DSL_VERTEX_CAP`` vertices or edges is
    refused from its counts before it is built, and so is an edge list;
    the terms are joined by one ``disjoint_union`` call, in linear time.
    """
    text = text.strip()
    if not text:
        raise GraphParseError("empty graph specification")
    head = re.split(r"[;\n]", text, maxsplit=1)[0].split("#", 1)[0].strip()
    if ";" in text or "\n" in text or (head and head[0].isdigit()):
        return _parse_edge_list(text)
    atoms, n, e = [], 0, 0
    for token in text.split("+"):
        token = token.strip()
        if not token:
            raise GraphParseError("empty term in disjoint union", text)
        atoms.append(_parse_atom(token))
        n, e = n + atoms[-1].n, e + atoms[-1].e
        _check_cap("the union", n, e)
    return Graph.of(0).disjoint_union(*atoms)


# ---------------------------------------------------------------------------
# isomorph-free tree enumeration

def _level_sequence_successor(seq: list[int]) -> list[int] | None:
    """Next canonical rooted level sequence in decreasing lexicographic order."""
    p = len(seq) - 1
    while p > 0 and seq[p] == 1:
        p -= 1
    if p == 0:
        return None
    q = p - 1
    while seq[q] != seq[p] - 1:
        q -= 1
    nxt = list(seq)
    for i in range(p, len(nxt)):
        nxt[i] = nxt[i - p + q]
    return nxt


def _level_sequence_to_graph(seq: list[int]) -> Graph:
    pairs = []
    stack: list[int] = []
    for v, depth in enumerate(seq):
        while len(stack) > depth:
            stack.pop()
        if stack:
            pairs.append((stack[-1], v))
        stack.append(v)
    return Graph.of(len(seq), pairs)


def _bfs(g: Graph, *roots: int) -> tuple[list[int], list[int], list[int]]:
    """Breadth-first order of the forest around ``roots``, one per tree,
    with each vertex's parent (-1 for a root) and distance from its root."""
    order, parent, dist = list(roots), [-1] * g.n, [0] * g.n
    for v in order:
        for w in g.adj[v]:
            if w != parent[v]:
                parent[w], dist[w] = v, dist[v] + 1
                order.append(w)
    return order, parent, dist


def rooted_code(g: Graph, root: int) -> str:
    """AHU-style parenthesis code of a tree rooted at ``root``: a vertex's
    code wraps its children's codes, sorted, in one pair of parentheses.

    Children are coded before their parent by walking a breadth-first
    order backwards, so no recursion depth grows with the tree.
    """
    if not g.is_forest or len(g.components) != 1:
        raise DomainError("rooted_code requires a single tree")
    order, parent, _ = _bfs(g, root)
    subs: dict[int, list[str]] = {v: [] for v in order}
    for v in reversed(order[1:]):
        subs[parent[v]].append("(" + "".join(sorted(subs.pop(v))) + ")")
    return "(" + "".join(sorted(subs[root])) + ")"


def tree_code(g: Graph) -> str:
    """Canonical code of a free tree: rooted code minimised over roots.

    A code rooted at r opens with ecc(r) + 1 "(", which sorts before ")",
    so only the peripheral roots are tried: ecc(v) = max(d(v, a), d(v, b))
    for the ends a, b of a longest path (a farthest from 0, b from a).
    """
    if not g.is_forest or len(g.components) != 1:
        raise DomainError("tree_code requires a single tree")
    d0 = _bfs(g, 0)[2]
    da = _bfs(g, d0.index(max(d0)))[2]
    diameter = max(da)
    db = _bfs(g, da.index(diameter))[2]
    return min(rooted_code(g, r) for r in range(g.n) if max(da[r], db[r]) == diameter)


@cache
def _coded_trees(k: int) -> tuple[tuple[str, Graph], ...]:
    """The catalogue of trees on k vertices: (canonical code, representative)
    per isomorphism class, in first-seen order.

    Rooted level sequences are enumerated by the successor rule and
    deduplicated by the canonical free-tree code; each class keeps the
    first sequence that reaches it, so representatives and their vertex
    labels are fixed.  Built once per k and shared by every caller.
    """
    if k < 1:
        raise DomainError("tree order must be >= 1")
    out: list[tuple[str, Graph]] = []
    seen: set[str] = set()
    seq: list[int] | None = list(range(k))
    while seq is not None:
        g = _level_sequence_to_graph(seq)
        c = tree_code(g)
        if c not in seen:
            seen.add(c)
            out.append((c, g))
        seq = _level_sequence_successor(seq)
    return tuple(out)


def enumerate_trees(k: int) -> Iterator[Graph]:
    """One representative per isomorphism class of trees on k vertices,
    in the fixed order of the catalogue ``_coded_trees(k)``."""
    for _, g in _coded_trees(k):
        yield g
