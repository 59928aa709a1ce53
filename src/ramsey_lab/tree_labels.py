"""Descendant colourings, path-product labellings, and the rainbow
binary-tree host.

A descendant colouring orders the children of every vertex by
descending subtree size and colours the child edges 1..k in that
order.  Such colourings never put three equal colours at one vertex,
and a rainbow copy of a tree H inside a descendant-coloured host T
forces v(T) to be at least the optimal path-product value of H: labels
multiply along root-to-leaf paths, so the best injective labelling of
H bounds the host size from below.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable

from .errors import BudgetError, DomainError
from .graphs import Edge, Embedding, Graph, norm_edge, rooted_code
from .trees import CompleteAryTree, LayeredTree, RootedTree
from .constructions import find_monochromatic_star, greedy_rainbow_embed

# the labelling search is factorial in the edges: `f-of-h P10` takes about 9 s
DEFAULT_LABEL_BUDGET = 10


def descendant_counts(tree: RootedTree) -> dict[int, int]:
    """Subtree sizes: each vertex counts itself plus all descendants."""
    counts = {v: 1 for v in tree.vertices()}
    order = sorted(tree.vertices(), key=lambda v: -tree.depth_of(v))
    for v in order:
        p = tree.parent_of(v)
        if p >= 0:
            counts[p] += counts[v]
    return counts


def descendant_colouring(tree: RootedTree) -> dict[Edge, int]:
    """Labels 1..k on each vertex's child edges, larger subtrees first.

    Ties are broken by least child index.  The labels are meaningful
    integers (they multiply along paths), so the raw map is returned
    rather than a canonicalised partition; it is accepted anywhere a
    colouring is.
    """
    counts = descendant_counts(tree)
    labels: dict[Edge, int] = {}
    for v in tree.vertices():
        kids = sorted(tree.child_list(v), key=lambda w: (-counts[w], w))
        for i, w in enumerate(kids, start=1):
            labels[norm_edge(v, w)] = i
    return labels


def lazy_descendant_colouring(tree) -> Callable[[int, int], int]:
    """Descendant colouring of a lazily navigated layered tree.

    All siblings in such a tree carry equal subtree sizes, so the tie
    rule alone decides: the i-th child edge gets label i.
    """
    def fn(u: int, v: int) -> int:
        child = max(u, v)
        parent = tree.parent_of(child)
        if parent != min(u, v):
            raise DomainError(f"({u},{v}) is not a tree edge")
        return child - tree.child_list(parent)[0] + 1

    return fn


@dataclass(frozen=True)
class OptimalLabelling:
    """Minimiser of the worst root-to-leaf label product of a tree."""

    value: int
    root: int
    labels: dict[Edge, int]


def min_max_path_product(h: Graph, edge_budget: int = DEFAULT_LABEL_BUDGET) -> OptimalLabelling:
    """Minimum over roots and injective edge labellings of the maximum
    product of labels along a root-to-leaf path.

    Labels range over {1..e(H)}: rank-compressing any injective
    positive labelling into that set never increases a path product.
    Zero-length paths are excluded, so a root that is itself a leaf
    only competes through its genuine paths.
    """
    best = _best_labelling(h, None, edge_budget)
    assert best is not None
    return best


def path_product_at_least(h: Graph, bound: int, edge_budget: int = DEFAULT_LABEL_BUDGET) -> bool:
    """Certify min_max_path_product(h) >= bound without computing it:
    the same branch-and-bound, started with the bound as its incumbent,
    finds no labelling that beats it."""
    return _best_labelling(h, bound, edge_budget) is None


def _best_labelling(h: Graph, incumbent: int | None, edge_budget: int) -> OptimalLabelling | None:
    """The optimal labelling whose worst path product is below
    ``incumbent`` (None for no bound), or None when there is none.

    Exact branch-and-bound: edges are filled in breadth-first order
    from each candidate root (one root per rooted isomorphism class)
    and a partial labelling is pruned as soon as some partial path
    product reaches the incumbent, or once a vertex v cannot beat it:
    the path on to v's deepest leaf takes ``below[v]`` more unused
    labels, at least the ``below[v]`` least of them.
    """
    if h.n == 0 or not h.is_forest or len(h.components) != 1:
        raise DomainError("path-product labelling is defined on trees")
    m = h.e
    if m == 0:
        raise DomainError("the single-vertex tree has no root-to-leaf path")
    if m > edge_budget:
        raise BudgetError(
            f"{m} edges exceeds the labelling budget of {edge_budget};"
            " raise edge_budget for an exact (but factorial) search"
        )
    leaves = {v for v in range(h.n) if h.degree(v) == 1}
    best_value = math.inf if incumbent is None else incumbent
    best: OptimalLabelling | None = None
    seen_codes: set[str] = set()

    for root in range(h.n):
        code = rooted_code(h, root)
        if code in seen_codes:
            continue
        seen_codes.add(code)
        tree = RootedTree.from_graph(h, root)
        order = sorted(range(h.n), key=lambda v: (tree.depth_of(v), v))
        child_of = [v for v in order if v != root]
        edges = [norm_edge(tree.parent_of(v), v) for v in child_of]
        below = [0] * h.n  # edges from each vertex down to its deepest leaf
        for v in reversed(child_of):
            p = tree.parent_of(v)
            below[p] = max(below[p], below[v] + 1)

        prod = {root: 1}
        used = [False] * (m + 1)
        labels = [0] * m  # label at each position, 0 before the first try
        cur = [1] * m  # worst finished path product before each position
        i = 0  # the position being labelled; labels[:i] is the search stack
        while i >= 0:
            v = child_of[i]
            if labels[i]:
                used[labels[i]] = False
            lab = next((x for x in range(labels[i] + 1, m + 1) if not used[x]), 0)
            prod[v] = prod[tree.parent_of(v)] * lab
            # the least worst product below lab on v; it rises with lab, so
            # once it reaches the incumbent position i is exhausted
            rest = (x for x in range(1, m + 1) if not used[x] and x != lab)
            if not lab or max(cur[i], prod[v] * math.prod(itertools.islice(rest, below[v]))) >= best_value:
                labels[i] = 0
                i -= 1
                continue
            labels[i] = lab
            used[lab] = True
            nxt = max(cur[i], prod[v]) if v in leaves else cur[i]
            if i + 1 == m:
                best_value = nxt
                best = OptimalLabelling(nxt, root, dict(zip(edges, labels)))
                continue
            i += 1
            cur[i] = nxt

    return best


# ---------------------------------------------------------------------------
# the geometric-arity host and the rainbow binary-tree embedding


def rainbow_binary_host(h: int) -> LayeredTree:
    """The height-h host whose depth-i vertices have 2^(i+3) children.

    Its leaf count is 2^(h(h-1)/2 + 3h), and any colouring of it free
    of monochromatic three-edge stars admits a rainbow complete binary
    tree of height h.
    """
    if h < 1:
        raise DomainError("host height must be >= 1")
    return LayeredTree(tuple(2 ** (i + 3) for i in range(h)))


def embed_rainbow_binary(host, chi, h: int) -> Embedding:
    """A rainbow complete binary tree of height h inside the host.

    The greedy rainbow embedding proceeds level by level from the root,
    always extending along fresh-coloured child edges; every depth-i
    host vertex offers at least 2^(i+2) colours when no three incident
    edges share one.  If the greedy stalls, the colouring contains a
    monochromatic three-edge star, and that witness is returned instead.
    A host that is not a lazy ``LayeredTree``, or has fewer than
    2^(i+3) children at some depth i < h, is refused.
    """
    if host.height < h:
        raise DomainError("host is shorter than the requested binary tree")
    if not isinstance(host, LayeredTree) or any(host.widths[i] < 2 ** (i + 3) for i in range(h)):
        raise DomainError("host must be a layered tree with 2^(i+3) children at each depth i < h")
    emb = greedy_rainbow_embed(host, chi, CompleteAryTree(2, h))
    if emb is None:
        emb = find_monochromatic_star(host, chi, 3)
    if emb is None:
        raise AssertionError(
            "embedding stalled although the host has no monochromatic three-edge star"
        )
    return emb
