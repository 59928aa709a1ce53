"""Rooted trees: lazily navigated construction hosts and explicit
rooted trees for patterns.

Construction hosts (complete d-ary trees, the geometric-arity hosts)
are ``LayeredTree``s, navigated arithmetically from the level-order
numbering at any size; only their ``graph``, built to print or replay
edges, is refused above the vertex budget.  ``RootedTree`` roots an
explicit tree: a pattern, a parsed forest, a labelling search's tree.  Both
offer ``n``, ``root``, ``height``, ``graph``, ``parent_of``,
``child_list``, ``depth_of``, ``is_leaf``, ``has_edge``, ``vertices``;
hosts also list a vertex's ``neighbours`` for the witness searches.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property

from .errors import BudgetError, DomainError, n_vertices
from .graphs import Graph, _bfs, norm_edge

DEFAULT_VERTEX_BUDGET = 1 << 20


@dataclass(frozen=True)
class RootedTree:
    """Explicit rooted tree with parent, children and depth annotations."""

    graph: Graph
    root: int
    parent: tuple[int, ...]
    children: tuple[tuple[int, ...], ...]
    depth: tuple[int, ...]

    @classmethod
    def from_graph(cls, g: Graph, root: int) -> "RootedTree":
        if not g.is_tree:
            raise DomainError("rooted tree requires a connected acyclic graph")
        if not 0 <= root < g.n:
            raise DomainError(f"root {root} not a vertex")
        _, parent, depth = _bfs(g, root)
        children: list[list[int]] = [[] for _ in range(g.n)]
        for v in range(g.n):
            if v != root:
                children[parent[v]].append(v)
        return cls(g, root, tuple(parent), tuple(tuple(c) for c in children), tuple(depth))

    @property
    def n(self) -> int:
        return self.graph.n

    @cached_property
    def height(self) -> int:
        return max(self.depth)

    def child_list(self, v: int) -> tuple[int, ...]:
        return self.children[v]

    def parent_of(self, v: int) -> int:
        return self.parent[v]

    def depth_of(self, v: int) -> int:
        return self.depth[v]

    def is_leaf(self, v: int) -> bool:
        return not self.children[v]

    def has_edge(self, u: int, v: int) -> bool:
        return self.graph.has_edge(u, v)

    def vertices(self) -> range:
        return range(self.n)


class LayeredTree:
    """Lazy rooted tree where every depth-i internal vertex has width[i] children.

    Vertices are numbered in level order starting from the root at 0,
    so all navigation is arithmetic on level offsets.
    """

    def __init__(self, widths: tuple[int, ...]):
        if any(w < 1 for w in widths):
            raise DomainError("level widths must be positive")
        self.widths = tuple(widths)
        sizes = [1]
        for w in widths:
            sizes.append(sizes[-1] * w)
        self.level_sizes = tuple(sizes)
        offsets = [0]
        for s in sizes:
            offsets.append(offsets[-1] + s)
        self.level_offsets = tuple(offsets)  # offsets[i] = first vertex at depth i
        self.n = offsets[-1]
        self.root = 0

    @property
    def height(self) -> int:
        return len(self.widths)

    def depth_of(self, v: int) -> int:
        if not 0 <= v < self.n:
            raise DomainError(f"vertex {v} out of range")
        return bisect_right(self.level_offsets, v) - 1

    def is_leaf(self, v: int) -> bool:
        return self.depth_of(v) == self.height

    def child_list(self, v: int) -> range:
        i = self.depth_of(v)
        if i == self.height:
            return range(0)
        w = self.widths[i]
        pos = v - self.level_offsets[i]
        start = self.level_offsets[i + 1] + pos * w
        return range(start, start + w)

    def parent_of(self, v: int) -> int:
        i = self.depth_of(v)
        if i == 0:
            return -1
        pos = v - self.level_offsets[i]
        return self.level_offsets[i - 1] + pos // self.widths[i - 1]

    def neighbours(self, v: int) -> list[int]:
        """The parent, when there is one, then the children."""
        p = self.parent_of(v)
        return ([p] if p >= 0 else []) + list(self.child_list(v))

    def has_edge(self, u: int, v: int) -> bool:
        # level order numbers every parent below its children
        u, v = norm_edge(u, v)
        return 0 <= u and v < self.n and self.parent_of(v) == u

    def vertices(self) -> range:
        return range(self.n)

    def leaves(self) -> range:
        return range(self.level_offsets[self.height], self.n)

    @cached_property
    def graph(self) -> Graph:
        """The explicit tree; refused above ``DEFAULT_VERTEX_BUDGET``."""
        if self.n > DEFAULT_VERTEX_BUDGET:
            raise BudgetError(f"{n_vertices(self.n)} exceeds the budget of {DEFAULT_VERTEX_BUDGET}")
        return Graph.of(self.n, [(self.parent_of(v), v) for v in range(1, self.n)])

    def __repr__(self):
        return f"LayeredTree(widths={self.widths}, {n_vertices(self.n)})"

class CompleteAryTree(LayeredTree):
    """Complete d-ary tree of height h, navigated lazily."""

    def __init__(self, d: int, h: int):
        if d < 1 or h < 0:
            raise DomainError("arity must be >= 1 and height >= 0")
        self.d = d
        self.h = h
        super().__init__((d,) * h)

    def __repr__(self):
        return f"CompleteAryTree(d={self.d}, h={self.h}, {n_vertices(self.n)})"
