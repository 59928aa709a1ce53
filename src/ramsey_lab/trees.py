"""Rooted trees: explicit ones and lazy arithmetic ones.

Large construction trees (complete d-ary trees with hundreds of
children, the geometric-arity hosts) are navigated arithmetically from
the level-order numbering; children are never materialised unless a
conversion to an explicit graph is requested, which is budget-guarded.
All tree classes share the same navigation surface: ``n``, ``root``,
``height``, ``parent``, ``children``, ``depth``, ``is_leaf``,
``has_edge``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import BudgetError, DomainError
from .graphs import Graph, norm_edge

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
        if not g.is_forest or len(g.components) != 1 or g.n == 0:
            raise DomainError("rooted tree requires a connected acyclic graph")
        if not 0 <= root < g.n:
            raise DomainError(f"root {root} not a vertex")
        parent = [-1] * g.n
        depth = [0] * g.n
        children: list[list[int]] = [[] for _ in range(g.n)]
        order = [root]
        seen = {root}
        for v in order:
            for w in sorted(g.adj[v]):
                if w not in seen:
                    seen.add(w)
                    parent[w] = v
                    depth[w] = depth[v] + 1
                    children[v].append(w)
                    order.append(w)
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
        for i in range(len(self.level_offsets) - 1):
            if v < self.level_offsets[i + 1]:
                return i
        raise DomainError(f"vertex {v} out of range")

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

    def has_edge(self, u: int, v: int) -> bool:
        # level order numbers every parent below its children
        u, v = norm_edge(u, v)
        return 0 <= u and v < self.n and self.parent_of(v) == u

    def vertices(self) -> range:
        return range(self.n)

    def leaves(self) -> range:
        return range(self.level_offsets[self.height], self.n)

    def to_graph(self, vertex_budget: int | None = DEFAULT_VERTEX_BUDGET) -> Graph:
        if vertex_budget is not None and self.n > vertex_budget:
            raise BudgetError(f"{self.n} vertices exceeds the budget of {vertex_budget}")
        return Graph.of(self.n, [(self.parent_of(v), v) for v in range(1, self.n)])

    def to_rooted(self, vertex_budget: int | None = DEFAULT_VERTEX_BUDGET) -> RootedTree:
        return RootedTree.from_graph(self.to_graph(vertex_budget), 0)

    def __repr__(self):
        return f"LayeredTree(widths={self.widths}, n={self.n})"


class CompleteAryTree(LayeredTree):
    """Complete d-ary tree of height h, navigated lazily."""

    def __init__(self, d: int, h: int):
        if d < 1 or h < 0:
            raise DomainError("arity must be >= 1 and height >= 0")
        self.d = d
        self.h = h
        super().__init__((d,) * h)

    def __repr__(self):
        return f"CompleteAryTree(d={self.d}, h={self.h}, n={self.n})"


def complete_ary_tree(d: int, h: int, vertex_budget: int | None = DEFAULT_VERTEX_BUDGET) -> RootedTree:
    """Explicit complete d-ary tree of height h; refuses above the budget."""
    lazy = CompleteAryTree(d, h)
    if vertex_budget is not None and lazy.n > vertex_budget:
        raise BudgetError(
            f"complete {d}-ary tree of height {h} has {lazy.n} vertices,"
            f" above the budget of {vertex_budget}"
        )
    return lazy.to_rooted(vertex_budget)
