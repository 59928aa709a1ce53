"""Finite simple graphs, canonical edge colourings, and copy finders.

Graphs are immutable: a vertex count and a set of unordered vertex
pairs.  Colourings are canonicalised set partitions of the edge set
(restricted-growth form over a fixed edge order), so two colourings are
equal exactly when they induce the same partition.  The two copy
finders locate a monochromatic or a rainbow embedded copy of a pattern
graph; both use subgraph (not induced) semantics.  Every found copy,
here or in a construction, is one ``Embedding`` record whose ``kind``
says which colour constraint it meets; ``verify_witness`` replays one
and ``avoids`` checks that a colouring has neither kind of copy.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Iterator, Mapping

from .errors import DomainError, GraphParseError

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

    def disjoint_union(self, other: "Graph") -> "Graph":
        shift = self.n
        pairs = list(self.edges) + [(u + shift, v + shift) for u, v in other.edges]
        return Graph.of(self.n + other.n, pairs)

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


Plan = tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]


def _plan(pattern: Graph, pinned: Edge | None = None) -> Plan:
    """Placement order for ``_search`` and, per position, the pattern
    neighbours placed before that vertex.

    Without ``pinned``, vertices go in decreasing degree order.  A pinned
    oriented edge (x, y) puts x and y first; each later vertex is then the
    one with the most placed neighbours (ties to higher degree, then lower
    id), so the candidates of a connected vertex are one host neighbourhood.
    """
    degree = pattern.degree
    if pinned is None:
        order = sorted(range(pattern.n), key=lambda v: (-degree(v), v))
    else:
        order = list(pinned)
        rest = [v for v in range(pattern.n) if v not in pinned]
        while rest:
            placed = set(order)
            v = min(rest, key=lambda v: (-len(pattern.adj[v] & placed), -degree(v), v))
            order.append(v)
            rest.remove(v)
    pos = {v: i for i, v in enumerate(order)}
    placed_nbrs = tuple(tuple(u for u in pattern.adj[v] if pos[u] < pos[v]) for v in order)
    return tuple(order), placed_nbrs


def _search(
    pattern: Graph,
    host_n: int,
    host_adj,
    rainbow_colour: Callable[[int, int], int] | None,
    plan: Plan | None = None,
    pin: Edge | None = None,
) -> tuple[int, ...] | None:
    """Backtracking embedding search; returns a vertex map or None.

    ``host_adj`` may be any indexable of neighbour sets (or of mappings
    keyed by neighbour), so callers can restrict the usable edges (the
    monochromatic finder passes one colour class).  ``rainbow_colour``
    activates the pairwise-distinct colour constraint.  Vertices are
    placed in the order of ``plan`` (by default ``_plan(pattern)``) and
    host candidates ascend, so the first embedding found is
    deterministic.  ``pin`` = (a, b) places the plan's first two
    vertices, a pattern edge, on the host edge (a, b) before the search
    starts.
    """
    vp = pattern.n
    if vp > host_n:
        return None
    order, placed_nbrs = _plan(pattern) if plan is None else plan

    mapping = [-1] * vp
    used_host: set[int] = set()
    used_colours: set[int] = set()
    start = 0
    if pin is not None:
        a, b = pin
        mapping[order[0]], mapping[order[1]] = a, b
        used_host.update(pin)
        if rainbow_colour is not None:
            used_colours.add(rainbow_colour(a, b))
        start = 2

    def extend(i: int) -> bool:
        if i == vp:
            return True
        v = order[i]
        nbrs = placed_nbrs[i]
        # a placed pattern neighbour confines the candidates to one host
        # neighbourhood; unconstrained vertices scan everything
        candidates = sorted(host_adj[mapping[nbrs[0]]]) if nbrs else range(host_n)
        for w in candidates:
            if w in used_host:
                continue
            new_colours = []
            ok = True
            for u in nbrs:
                a = mapping[u]
                if w not in host_adj[a]:
                    ok = False
                    break
                if rainbow_colour is not None:
                    c = rainbow_colour(a, w)
                    if c in used_colours or c in new_colours:
                        ok = False
                        break
                    new_colours.append(c)
            if not ok:
                continue
            mapping[v] = w
            used_host.add(w)
            used_colours.update(new_colours)
            if extend(i + 1):
                return True
            mapping[v] = -1
            used_host.discard(w)
            used_colours.difference_update(new_colours)
        return False

    if extend(start):
        return tuple(mapping)
    return None


def edge_orbit_plans(pattern: Graph) -> tuple[Plan, ...]:
    """Search plans pinning one oriented pattern edge each, one plan per
    orbit of oriented edges under the pattern's automorphisms.

    A copy through a host edge (a, b) maps some oriented pattern edge
    (x, y) onto it; composing that copy with an automorphism taking the
    orbit's representative to (x, y) gives a copy mapping the
    representative onto (a, b).  So pinning every representative to
    (a, b), one orientation only, finds a copy through (a, b) whenever
    one exists.  Orbit membership is itself a pinned search: an
    embedding of the pattern into itself is an automorphism.
    """
    plans: list[Plan] = []
    for u, v in pattern.sorted_edges:
        for xy in ((u, v), (v, u)):
            if not any(_search(pattern, pattern.n, pattern.adj, None, p, xy) is not None for p in plans):
                plans.append(_plan(pattern, xy))
    return tuple(plans)


def has_copy_through(
    pattern: Graph,
    plans: tuple[Plan, ...],
    host_n: int,
    host_adj,
    edge: Edge,
    rainbow_colour: Callable[[int, int], int] | None = None,
) -> bool:
    """Is there a copy of ``pattern`` that uses the host edge ``edge``?

    ``plans`` are ``edge_orbit_plans(pattern)``; ``host_adj`` and
    ``rainbow_colour`` are as for ``_search``, and ``host_adj`` must hold
    ``edge``.
    """
    return any(_search(pattern, host_n, host_adj, rainbow_colour, p, edge) is not None for p in plans)


def find_embedding(host: Graph, pattern: Graph) -> Embedding | None:
    """A copy of ``pattern`` in ``host`` under subgraph semantics."""
    m = _search(pattern, host.n, host.adj, None)
    return Embedding(pattern, m) if m is not None else None


def contains(host: Graph, pattern: Graph) -> bool:
    return find_embedding(host, pattern) is not None


def find_monochromatic_copy(host: Graph, chi: "ColourLike", pattern: Graph) -> Embedding | None:
    """A copy of ``pattern`` whose image edges all share one colour.

    Colour classes are tried in ascending id order.  A pattern without
    edges is vacuously monochromatic and only needs enough host
    vertices.
    """
    if pattern.e == 0:
        m = _search(pattern, host.n, host.adj, None)
        return Embedding(pattern, m, "monochromatic") if m is not None else None
    fn = as_colour_fn(chi)
    classes: dict[int, list[Edge]] = {}
    order: list[int] = []
    for u, v in host.sorted_edges:
        c = fn(u, v)
        if c not in classes:
            classes[c] = []
            order.append(c)
        classes[c].append((u, v))
    for c in order:
        edges = classes[c]
        if len(edges) < pattern.e:
            continue
        adj: list[set[int]] = [set() for _ in range(host.n)]
        for u, v in edges:
            adj[u].add(v)
            adj[v].add(u)
        m = _search(pattern, host.n, adj, None)
        if m is not None:
            return Embedding(pattern, m, "monochromatic")
    return None


def find_rainbow_copy(host: Graph, chi: "ColourLike", pattern: Graph) -> Embedding | None:
    """A copy of ``pattern`` whose image edges have pairwise distinct colours."""
    fn = as_colour_fn(chi) if pattern.e else None
    m = _search(pattern, host.n, host.adj, fn)
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
    g = Graph.of(0)
    for s in sizes:
        g = g.disjoint_union(star(s))
    return g


def ary_tree_graph(d: int, h: int) -> Graph:
    """Complete d-ary tree of height h, numbered root-first in level order."""
    if d < 1 or h < 0:
        raise GraphParseError("arity must be >= 1 and height >= 0")
    n = h + 1 if d == 1 else (d ** (h + 1) - 1) // (d - 1)
    if n > DSL_VERTEX_CAP:
        raise DomainError(f"tree T({d},{h}) has {n} vertices, above the cap {DSL_VERTEX_CAP}")
    pairs = [((v - 1) // d, v) for v in range(1, n)]
    return Graph.of(n, pairs)


# family terms as (regex, builder of the matched groups), tried in order:
# a star K1,s is matched before the complete graphs K(n)
_FAMILIES = (
    (re.compile(r"^K1,(\d+)$"), lambda s: star(int(s))),
    (re.compile(r"^K(\d+)$"), lambda n: complete_graph(int(n))),
    (re.compile(r"^P(\d+)$"), lambda k: path(int(k))),
    (re.compile(r"^M(\d+)$"), lambda k: matching(int(k))),
    (re.compile(r"^SF\((\d+(?:,\d+)*)\)$"), lambda sizes: star_forest(map(int, sizes.split(",")))),
    (re.compile(r"^T\((\d+),(\d+)\)$"), lambda d, h: ary_tree_graph(int(d), int(h))),
    (re.compile(r"^B(\d+)$"), lambda h: ary_tree_graph(2, int(h))),
)


def _parse_atom(token: str) -> Graph:
    for family, build in _FAMILIES:
        m = family.match(token)
        if m:
            return build(*m.groups())
    raise GraphParseError("unknown graph family", token)


def _parse_edge_list(text: str) -> Graph:
    items = []
    for chunk in re.split(r"[;\n]", text):
        chunk = chunk.split("#", 1)[0].strip()
        if chunk:
            items.append(chunk)
    if not items:
        raise GraphParseError("empty edge list")
    try:
        n = int(items[0])
    except ValueError:
        raise GraphParseError("edge list must start with a vertex count", items[0])
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
    order, with later components shifted past earlier ones.
    """
    text = text.strip()
    if not text:
        raise GraphParseError("empty graph specification")
    head = re.split(r"[;\n]", text, 1)[0].split("#", 1)[0].strip()
    if ";" in text or "\n" in text or (head and head[0].isdigit()):
        return _parse_edge_list(text)
    g = Graph.of(0)
    for token in text.split("+"):
        token = token.strip()
        if not token:
            raise GraphParseError("empty term in disjoint union", text)
        g = g.disjoint_union(_parse_atom(token))
    return g


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


def rooted_code(g: Graph, root: int) -> str:
    """AHU-style parenthesis code of a tree rooted at ``root``: a vertex's
    code wraps its children's codes, sorted, in one pair of parentheses.

    Children are coded before their parent by walking a breadth-first
    order backwards, so no recursion depth grows with the tree.
    """
    parent = {root: -1}
    order = [root]
    for v in order:
        for w in g.adj[v]:
            if w != parent[v]:
                parent[w] = v
                order.append(w)
    subs: dict[int, list[str]] = {v: [] for v in order}
    for v in reversed(order[1:]):
        subs[parent[v]].append("(" + "".join(sorted(subs.pop(v))) + ")")
    return "(" + "".join(sorted(subs[root])) + ")"


def tree_code(g: Graph) -> str:
    """Canonical code of a free tree: rooted code minimised over roots."""
    if not g.is_forest or len(g.components) != 1:
        raise DomainError("tree_code requires a single tree")
    return min(rooted_code(g, r) for r in range(g.n))


def enumerate_trees(k: int) -> Iterator[Graph]:
    """One representative per isomorphism class of trees on k vertices.

    Rooted level sequences are enumerated by the successor rule and
    deduplicated by the canonical free-tree code, giving a fixed order.
    """
    if k < 1:
        raise DomainError("tree order must be >= 1")
    if k == 1:
        yield Graph.of(1)
        return
    seen: set[str] = set()
    seq: list[int] | None = list(range(k))
    while seq is not None:
        g = _level_sequence_to_graph(seq)
        c = tree_code(g)
        if c not in seen:
            seen.add(c)
            yield g
        seq = _level_sequence_successor(seq)


def is_isomorphic(a: Graph, b: Graph) -> bool:
    """Isomorphism test for small graphs via bidirectional embedding."""
    if a.n != b.n or a.e != b.e:
        return False
    if sorted(a.degree(v) for v in range(a.n)) != sorted(b.degree(v) for v in range(b.n)):
        return False
    return contains(a, b)
