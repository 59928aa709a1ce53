"""Explicit colourings and embeddings behind the arrowing results.

Every construction here has a machine-checkable postcondition.  Avoiding
colourings are replayed through the copy finders (``graphs.avoids``).
Every copy a construction finds is a ``graphs.Embedding`` whose ``kind``
names its colour constraint, and it is replayed by
``graphs.verify_witness`` before it is returned; the height-3 search
replays once, on whichever branch produced its witness.  The witness
searches read a vertex's neighbours through one grouping step,
``_by_colour``, which lists them by the colour of the connecting edge,
colours in order of first appearance.  Guaranteed searches surface an
assertion violation rather than ever missing silently.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .arrows import ColourDegreeParams, check_colour_degree_property
from .errors import ConstructionStall, DomainError
from .graphs import (
    Colouring,
    Embedding,
    Graph,
    _bfs,
    as_colour_fn,
    avoids,
    contains,
    find_monochromatic_copy,
    path,
    star_forest,
    verify_witness,
)
from .densities import classify
from .trees import CompleteAryTree, LayeredTree, RootedTree


def _by_colour(fn, v: int, nbrs: Iterable[int]) -> dict[int, list[int]]:
    """The neighbours ``nbrs`` of v grouped by the colour of their edge
    to v, colours in order of first appearance."""
    groups: dict[int, list[int]] = {}
    for w in nbrs:
        groups.setdefault(fn(v, w), []).append(w)
    return groups


# ---------------------------------------------------------------------------
# forest colourings avoiding a monochromatic constellation / rainbow forest


class AvoidMode(enum.Enum):
    HIGH_DEGREE = "high-degree"  # defeats rainbow patterns with a degree-3 vertex
    LONG_PATH = "long-path"      # defeats rainbow paths with three edges


def _forest_ranks(f: Graph) -> tuple[list[int], list[int]]:
    """Depths (components rooted at their least vertex) and the
    depth-non-decreasing rank of every vertex."""
    depth = _bfs(f, *(comp[0] for comp in f.components))[2]
    by_depth = sorted(range(f.n), key=lambda v: (depth[v], v))
    rank = [0] * f.n
    for i, v in enumerate(by_depth):
        rank[v] = i
    return depth, rank


def avoid_colouring(f: Graph, mode: AvoidMode) -> Colouring:
    """Colour a forest so every colour class is a star.

    Components are rooted at their least vertex and vertices are ranked
    in depth-non-decreasing order.  HIGH_DEGREE colours each edge by
    the smaller endpoint rank, leaving at most two colours incident to
    any vertex.  LONG_PATH colours each edge by the rank of its unique
    odd-depth endpoint, leaving no rainbow path with three edges.
    """
    if not f.is_forest:
        raise DomainError("avoiding colourings are defined on forests")
    depth, rank = _forest_ranks(f)
    if mode is AvoidMode.HIGH_DEGREE:
        value = lambda u, v: min(rank[u], rank[v])
    elif mode is AvoidMode.LONG_PATH:
        value = lambda u, v: rank[u] if depth[u] % 2 == 1 else rank[v]
    else:
        raise DomainError(f"unknown mode {mode!r}")
    return Colouring.from_function(f, value)


def choose_avoid_mode(h2: Graph) -> AvoidMode:
    """The mode that defeats rainbow copies of h2 (a non-short forest)."""
    cls = classify(h2)
    if not cls.is_forest:
        raise DomainError("mode selection needs a forest")
    if h2.max_degree >= 3:
        return AvoidMode.HIGH_DEGREE
    if contains(h2, path(3)):
        return AvoidMode.LONG_PATH
    raise DomainError("a short forest is not defeated by either avoiding mode")


def verify_avoiding(f: Graph, chi, h1: Graph, h2: Graph) -> bool:
    """True iff chi has no monochromatic h1 and no rainbow h2 in f.

    The inputs are held to the avoiding construction's hypotheses: h1 a
    constellation, h2 a forest with at least three edges that is not
    short.  ``graphs.avoids`` is the same replay on any pattern pair.
    """
    if not classify(h1).is_constellation:
        raise DomainError("h1 must be a constellation")
    c2 = classify(h2)
    if not c2.is_forest or h2.e < 3 or c2.is_short_forest:
        raise DomainError("h2 must be a non-short forest with >= 3 edges")
    return avoids(f, chi, h1, h2)


def component_mono_colouring(f: Graph) -> Colouring:
    """One colour per component, all components differently coloured."""
    if not f.is_forest:
        raise DomainError("component colouring is stated for forests")
    comp_of = {}
    for i, comp in enumerate(f.components):
        for v in comp:
            comp_of[v] = i
    return Colouring.from_function(f, lambda u, v: comp_of[u])


# ---------------------------------------------------------------------------
# star vs forest: the arrowing tree and its greedy rainbow embedding


@dataclass(frozen=True)
class StarArrowTree:
    """A complete tree forced to contain a monochromatic star or a
    rainbow copy of the completed pattern forest.  Its arity and height
    are ``tree.d`` and ``tree.h``; the completion is
    ``rooted_completion.graph``."""

    tree: CompleteAryTree
    rooted_completion: RootedTree


def spanning_tree_completion(forest: Graph) -> Graph:
    """Complete a forest to a tree on the same vertex set.

    Components are chained in order of their least vertex, joining the
    least vertices of consecutive components.
    """
    if not forest.is_forest:
        raise DomainError("completion is defined on forests")
    if forest.n == 0:
        raise DomainError("cannot complete the empty graph")
    comps = forest.components
    extra = [(comps[i][0], comps[i + 1][0]) for i in range(len(comps) - 1)]
    return forest.add_edges(extra)


def star_arrow_tree(s: int, h2: Graph) -> StarArrowTree:
    """The complete ((s-1)(l-1)+1)-ary tree of the completion's height.

    Any colouring of it without a monochromatic s-edge star leaves, at
    every internal vertex, child edges in at least l distinct colours,
    which is what the greedy rainbow embedding consumes.  The tree is
    lazy at any size; only its ``graph`` is refused above the budget.
    """
    if s < 1:
        raise DomainError("star size must be >= 1")
    if not h2.is_forest:
        raise DomainError("the rainbow pattern must be a forest")
    if h2.n < 2:
        raise DomainError("the rainbow pattern needs at least one edge to complete")
    completion = spanning_tree_completion(h2)
    rooted = RootedTree.from_graph(completion, 0)
    ell = completion.e
    arity = (s - 1) * (ell - 1) + 1
    return StarArrowTree(CompleteAryTree(arity, rooted.height), rooted)


def greedy_rainbow_embed(tree, chi, pattern: RootedTree | CompleteAryTree) -> Embedding | None:
    """Embed the rooted pattern into the tree rainbow, level by level.

    The pattern root goes to the tree root; every extension step uses
    child edges of previously unused colours, least colour id first.
    Returns None when some vertex cannot supply enough fresh colours
    (which only happens when chi has a monochromatic star of the
    relevant size somewhere); callers fall back to reporting that
    monochromatic witness.
    """
    fn = as_colour_fn(chi)
    mapping = [-1] * pattern.n
    mapping[pattern.root] = tree.root
    used: set[int] = set()
    order = sorted(pattern.vertices(), key=lambda v: (pattern.depth_of(v), v))
    for u in order:
        kids = pattern.child_list(u)
        if not kids:
            continue
        host = mapping[u]
        groups = _by_colour(fn, host, tree.child_list(host))
        fresh = [(c, ws[0]) for c, ws in groups.items() if c not in used]
        if len(fresh) < len(kids):
            return None
        for (c, w), k in zip(sorted(fresh)[: len(kids)], kids):
            mapping[k] = w
            used.add(c)
    emb = Embedding(pattern.graph, tuple(mapping), "rainbow")
    verify_witness(tree, chi, emb)
    return emb


def find_monochromatic_star(tree, chi, s: int) -> Embedding | None:
    """A vertex of the tree with s incident edges of one colour, as a
    replayed monochromatic copy of the s-edge star."""
    fn = as_colour_fn(chi)
    for v in tree.vertices():
        groups = _by_colour(fn, v, tree.neighbours(v))
        for c in sorted(groups):
            if len(groups[c]) >= s:
                leaves = sorted(groups[c])[:s]
                emb = Embedding(star_forest([s]), tuple([v] + leaves), "monochromatic")
                verify_witness(tree, chi, emb)
                return emb
    return None


# ---------------------------------------------------------------------------
# constellation vs short forest: the height-3 witness search


def constellation_arrow_tree(s: int) -> CompleteAryTree:
    """The complete (6s^3+7s^2)-ary tree of height 3, lazily navigated."""
    if s < 2:
        raise DomainError("constellation parameter must be >= 2")
    return CompleteAryTree(6 * s**3 + 7 * s**2, 3)


_Star = tuple[int, int, list[int]]  # (colour, centre, leaves)


def _collect_stars(tree, fn, pool: Sequence[int], s: int) -> list[_Star] | Embedding | None:
    """2s vertex-disjoint monochromatic child-stars of distinct colours,
    centred at low-colour-degree vertices of the pool.

    Returns the stars, or None when fewer than 2s^2+1 pool vertices
    have colour-degree below 3s (the caller then has a large supply of
    high-colour-degree vertices instead).  When the collected stars
    span too few colours, s of them share one colour, and that
    monochromatic copy is returned instead.
    """
    star_size = 2 * s * s + 3 * s
    low = [v for v in pool if len(_by_colour(fn, v, tree.neighbours(v))) <= 3 * s - 1]
    if len(low) < 2 * s * s + 1:
        return None
    by_colour: dict[int, list[tuple[int, list[int]]]] = {}
    for v in low:
        groups = _by_colour(fn, v, tree.child_list(v))
        colour, leaves = max(groups.items(), key=lambda kv: (len(kv[1]), -kv[0]))
        if len(leaves) < star_size:
            raise AssertionError("low colour-degree centre lacks a large monochromatic star")
        by_colour.setdefault(colour, []).append((v, sorted(leaves)[:star_size]))
    if len(by_colour) >= 2 * s:
        return [(c, *min(by_colour[c])) for c in sorted(by_colour)[: 2 * s]]
    # too few colours across >= 2s^2+1 disjoint stars: some colour repeats
    # at least s+1 times
    colour = max(by_colour, key=lambda c: (len(by_colour[c]), -c))
    stars = sorted(by_colour[colour])[:s]
    if len(stars) < s:
        raise AssertionError("pigeonhole produced fewer stars than promised")
    mapping = [x for v, leaves in stars for x in (v, *leaves[:s])]
    return Embedding(star_forest([s] * s), tuple(mapping), "monochromatic")


def _first_fresh(stars: list[_Star], used: set[int], where: str) -> _Star:
    """The first of the stars whose colour is not in ``used``."""
    for star in stars:
        if star[0] not in used:
            return star
    raise AssertionError(f"ran out of fresh star colours {where}")


def _claim_cherries(tree, fn, s: int) -> Embedding | None:
    """The height-3 witness search: a monochromatic copy (collected stars
    pigeonholed into one colour) or s rainbow cherries, each centred one
    level below a star of fresh colour.  Where too few vertices of a pool
    (the root's children or one star's leaves) have low colour-degree,
    the cherry greedy's answer on that pool."""
    pool = tree.child_list(tree.root)
    top = _collect_stars(tree, fn, pool, s)
    if not isinstance(top, list):
        return _greedy_rainbow_cherries(tree, fn, pool, s) if top is None else top
    used: set[int] = set()
    mapping: list[int] = []
    for _ in range(s):
        colour_i, v_i, w_i = _first_fresh(top, used, "at the top level")
        sub = _collect_stars(tree, fn, w_i, s)
        if not isinstance(sub, list):
            return _greedy_rainbow_cherries(tree, fn, w_i, s) if sub is None else sub
        colour_z, z_i, z_leaves = _first_fresh(sub, used | {colour_i}, "one level down")
        mapping += [z_i, v_i, z_leaves[0]]  # cherry centred at z_i
        used.update({colour_i, colour_z})
    return Embedding(star_forest([2] * s), tuple(mapping), "rainbow")


def _greedy_rainbow_cherries(tree, fn, pool: Sequence[int], s: int) -> Embedding | None:
    """s vertex-disjoint cherries with 2s pairwise distinct colours, in
    one forward pass: centres ascend, and each takes the two least of
    its first three fresh colours, in neighbour order, or is skipped.

    No choice needs undoing.  The pool is a set of siblings, so a placed
    cherry takes at most one neighbour (their parent) from a later
    centre; with fewer than s placed, at most 2s - 2 colours are used,
    so a centre of colour-degree at least 3s keeps s + 1 >= 3 fresh
    colours.  The greedy runs only where at least 3s such centres exist."""
    used_v: set[int] = set()
    used_c: set[int] = set()
    mapping: list[int] = []
    for v in sorted(set(pool)):
        groups = _by_colour(fn, v, [w for w in tree.neighbours(v) if w not in used_v])
        fresh = [(c, ws[0]) for c, ws in groups.items() if c not in used_c][:3]
        if len(fresh) < 2:
            continue
        (c1, w1), (c2, w2) = sorted(fresh)[:2]
        used_v.update((v, w1, w2))
        used_c.update((c1, c2))
        mapping += [v, w1, w2]
        if len(mapping) == 3 * s:
            return Embedding(star_forest([2] * s), tuple(mapping), "rainbow")
    return None


def find_mono_or_rainbow(tree, chi, s: int) -> Embedding:
    """In a complete (6s^3+7s^2)-ary tree of height 3, locate either a
    monochromatic copy of s disjoint s-edge stars or a rainbow copy of
    s disjoint cherries.

    The search is local: it only ever inspects the root's children,
    the leaf sets of a few monochromatic stars, and their children, so
    it runs lazily on trees with hundreds of thousands of vertices.  A
    host that is not a lazy ``LayeredTree`` of height 3 with every
    level at least 6s^3+7s^2 wide is refused.  Failure to produce a verifiable witness is an
    assertion violation, never a silent miss.
    """
    d = constellation_arrow_tree(s).d
    if not isinstance(tree, LayeredTree) or tree.height != 3 or min(tree.widths) < d:
        raise DomainError("host must be the height-3 constellation arrow tree")
    fn = as_colour_fn(chi)
    witness = _claim_cherries(tree, fn, s)
    if witness is None:
        raise AssertionError(
            "height-3 witness search failed on both branches; the host does not"
            " satisfy the construction's hypotheses"
        )
    verify_witness(tree, chi, witness)
    return witness


# ---------------------------------------------------------------------------
# disjoint rainbow trees from the colour-degree spread property


@dataclass(frozen=True)
class RainbowTreeParams:
    """Constants (b, c, r) of the recursive disjoint-rainbow-tree extraction."""

    b: Fraction
    c: Fraction
    r: int

    def __post_init__(self):
        if not (0 < self.b <= 1 and 0 < self.c < 1 and self.r >= 1):
            raise DomainError("parameters out of range")


def rainbow_tree_params(d: int, h: int) -> RainbowTreeParams:
    """The recursion: base (1/2, 1/(2(d+1)), d-1) at height one; a step
    at height k combines the base at arity 2d^k with the step at k-1
    via b = b''c'/2, c = c'c''/2, r = max(r', r''), for k = 2, ..., h."""
    if d < 2 or h < 1:
        raise DomainError("need arity >= 2 and height >= 1")
    stepped = RainbowTreeParams(Fraction(1, 2), Fraction(1, 2 * (d + 1)), d - 1)
    for k in range(2, h + 1):
        base = rainbow_tree_params(2 * d**k, 1)
        stepped = RainbowTreeParams(
            b=stepped.b * base.c / 2,
            c=base.c * stepped.c / 2,
            r=max(base.r, stepped.r),
        )
    return stepped


@dataclass
class RainbowForestReport:
    """Result of the disjoint-rainbow-tree extraction."""

    params: RainbowTreeParams
    copies: list[Embedding]
    mono: Embedding | None
    quota: int
    q_status: str  # "verified" | "assumed"


def _extract_stars(g: Graph, fn, pool: list[int], arity: int, quota: int, stage: str):
    """Greedily remove rainbow stars with ``arity`` leaves from the pool."""
    alive = set(pool)
    stars: list[tuple[int, ...]] = []
    while len(stars) < quota:
        found = None
        for v in sorted(alive):
            groups = _by_colour(fn, v, [w for w in g.adj[v] if w in alive])
            if len(groups) >= arity:
                found = (v, *[groups[c][0] for c in sorted(groups)[:arity]])
                break
        if found is None:
            raise ConstructionStall(
                f"star extraction stalled at {len(stars)}/{quota} copies"
                f" with pool size {len(alive)}",
                stage=stage,
            )
        stars.append(found)
        alive.difference_update(found)
    return stars


def _extract_rainbow_trees(g: Graph, fn, pool: list[int], d: int, h: int, c: Fraction):
    """Vertex maps (level-order) of floor(c|pool|) rainbow copies of the
    complete d-ary tree of height h inside the pool, c being the constant
    of ``rainbow_tree_params(d, h)``."""
    quota = int(c * len(pool))
    if quota == 0:
        return []
    stage = f"(d={d}, h={h})"
    if h == 1:
        return [list(s) for s in _extract_stars(g, fn, pool, d, quota, stage)]
    d1 = 2 * d**h
    base = rainbow_tree_params(d1, 1)
    stars = _extract_stars(g, fn, pool, d1, int(base.c * len(pool)), stage)
    star_at = {s[0]: s for s in stars}
    # the step to height h multiplied the constant of height h-1 by base.c/2
    inner = _extract_rainbow_trees(g, fn, sorted(star_at), d, h - 1, 2 * c / base.c)
    extended: list[list[int]] = []
    low = CompleteAryTree(d, h - 1)
    for copy in inner:
        used = {fn(copy[low.parent_of(i)], copy[i]) for i in range(1, len(copy))}
        new_copy = list(copy)
        for i in range(low.level_offsets[h - 1], low.n):
            v = copy[i]
            groups = _by_colour(fn, v, star_at[v][1:])
            fresh = [(c, ws[0]) for c, ws in groups.items() if c not in used]
            if len(fresh) < d:
                raise ConstructionStall(
                    f"extension below vertex {v} found only {len(fresh)} fresh colours",
                    stage=stage,
                )
            for c, w in sorted(fresh)[:d]:
                new_copy.append(w)
                used.add(c)
        extended.append(new_copy)
        if len(extended) == quota:
            break
    if len(extended) < quota:
        raise ConstructionStall(
            f"only {len(extended)}/{quota} extended copies at {stage}", stage=stage
        )
    return extended


def disjoint_rainbow_trees(
    g: Graph, chi, d: int, h: int, pattern: Graph, verify_q: bool = False
) -> RainbowForestReport:
    """Either a monochromatic copy of the pattern, or floor(c v(G))
    vertex-disjoint rainbow copies of the complete d-ary height-h tree.

    The guarantee rests on the colour-degree spread property for the
    computed parameters; that assumption is checked exhaustively only
    on demand (tiny graphs), otherwise it is recorded as assumed and a
    stall during extraction reports the recursion stage that failed.
    """
    params = rainbow_tree_params(d, h)
    mono = find_monochromatic_copy(g, chi, pattern)
    if mono is not None:
        return RainbowForestReport(params, [], mono, 0, "assumed")
    q_status = "assumed"
    if verify_q and params.r >= 2:
        # the spread property is only defined for r >= 2; below that the
        # assumption stays on record instead of being checked loosely
        verdict = check_colour_degree_property(
            g, ColourDegreeParams(params.b, params.r, pattern)
        )
        q_status = "verified" if verdict.holds else "refuted"
    fn = as_colour_fn(chi)
    quota = int(params.c * g.n)
    raw = _extract_rainbow_trees(g, fn, list(range(g.n)), d, h, params.c)
    # the shape's vertex budget would refuse a tall tree whose quota is 0
    shape = CompleteAryTree(d, h).graph if raw else None
    copies = [Embedding(shape, tuple(copy), "rainbow") for copy in raw]
    seen: set[int] = set()
    for emb in copies:
        verify_witness(g, chi, emb)
        if seen.intersection(emb.mapping):
            raise AssertionError("extracted copies are not vertex-disjoint")
        seen.update(emb.mapping)
    return RainbowForestReport(params, copies, None, quota, q_status)
