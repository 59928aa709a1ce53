"""Explicit colourings and embeddings behind the arrowing results.

Every construction here has a machine-checkable postcondition.  Avoiding
colourings are replayed through the copy finders (``graphs.avoids``).
Every copy a construction finds is a ``graphs.Embedding`` whose ``kind``
names its colour constraint, and it is replayed by
``graphs.verify_witness`` before it is returned.  Guaranteed searches
surface an assertion violation rather than ever missing silently.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import ConstructionStall, DomainError
from .graphs import (
    Colouring,
    Embedding,
    Graph,
    as_colour_fn,
    avoids,
    contains,
    find_monochromatic_copy,
    norm_edge,
    path,
    star_forest,
    verify_witness,
)
from .densities import classify
from .trees import DEFAULT_VERTEX_BUDGET, CompleteAryTree, RootedTree, complete_ary_tree


# ---------------------------------------------------------------------------
# forest colourings avoiding a monochromatic constellation / rainbow forest


class AvoidMode(enum.Enum):
    HIGH_DEGREE = "high-degree"  # defeats rainbow patterns with a degree-3 vertex
    LONG_PATH = "long-path"      # defeats rainbow paths with three edges


def _forest_ranks(f: Graph) -> tuple[list[int], list[int]]:
    """Depths (components rooted at their least vertex) and the
    depth-non-decreasing rank of every vertex."""
    depth = [0] * f.n
    for comp in f.components:
        root = comp[0]
        order = [root]
        seen = {root}
        for v in order:
            for w in sorted(f.adj[v]):
                if w not in seen:
                    seen.add(w)
                    depth[w] = depth[v] + 1
                    order.append(w)
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
    rainbow copy of the completed pattern forest."""

    tree: RootedTree
    arity: int
    height: int
    completion: Graph          # the pattern forest completed to a tree
    rooted_completion: RootedTree

    @property
    def pattern_root(self) -> int:
        return self.rooted_completion.root


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


def star_arrow_tree(
    s: int, h2: Graph, vertex_budget: int | None = DEFAULT_VERTEX_BUDGET
) -> StarArrowTree:
    """The complete ((s-1)(l-1)+1)-ary tree of the completion's height.

    Any colouring of it without a monochromatic s-edge star leaves, at
    every internal vertex, child edges in at least l distinct colours,
    which is what the greedy rainbow embedding consumes.
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
    tree = complete_ary_tree(arity, rooted.height, vertex_budget)
    return StarArrowTree(tree, arity, rooted.height, completion, rooted)


def greedy_rainbow_embed(tree, chi, pattern: RootedTree) -> Embedding | None:
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
        fresh: dict[int, int] = {}
        for w in tree.child_list(host):
            c = fn(*norm_edge(host, w))
            if c not in used and c not in fresh:
                fresh[c] = w
        if len(fresh) < len(kids):
            return None
        for (c, w), k in zip(sorted(fresh.items())[: len(kids)], kids):
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
        groups: dict[int, list[int]] = {}
        p = tree.parent_of(v)
        if p >= 0:
            groups.setdefault(fn(*norm_edge(p, v)), []).append(p)
        for w in tree.child_list(v):
            groups.setdefault(fn(*norm_edge(v, w)), []).append(w)
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


class _ClaimMono(Exception):
    """Raised internally when the star-collection step pigeonholes into
    s disjoint same-coloured stars, i.e. a monochromatic witness."""

    def __init__(self, colour: int, stars: list[tuple[int, list[int]]]):
        self.colour = colour
        self.stars = stars


def _collect_stars(tree, fn, pool: Sequence[int], s: int) -> list[tuple[int, int, list[int]]] | None:
    """2s vertex-disjoint monochromatic child-stars of distinct colours,
    centred at low-colour-degree vertices of the pool.

    Returns a list of (colour, centre, leaves) or None when fewer than
    2s^2+1 pool vertices have colour-degree below 3s (the caller then
    has a large supply of high-colour-degree vertices instead).  Raises
    _ClaimMono when the collected stars span too few colours, which
    pins s disjoint stars of one colour.
    """
    star_size = 2 * s * s + 3 * s
    low: list[int] = []
    for v in pool:
        incident = {fn(*norm_edge(v, w)) for w in tree.child_list(v)}
        p = tree.parent_of(v)
        if p >= 0:
            incident.add(fn(*norm_edge(p, v)))
        if len(incident) <= 3 * s - 1:
            low.append(v)
    if len(low) < 2 * s * s + 1:
        return None
    stars: list[tuple[int, int, list[int]]] = []
    for v in low:
        groups: dict[int, list[int]] = {}
        for w in tree.child_list(v):
            groups.setdefault(fn(*norm_edge(v, w)), []).append(w)
        colour, leaves = max(groups.items(), key=lambda kv: (len(kv[1]), -kv[0]))
        if len(leaves) < star_size:
            raise AssertionError("low colour-degree centre lacks a large monochromatic star")
        stars.append((colour, v, sorted(leaves)[:star_size]))
    by_colour: dict[int, list[tuple[int, list[int]]]] = {}
    for colour, v, leaves in stars:
        by_colour.setdefault(colour, []).append((v, leaves))
    if len(by_colour) >= 2 * s:
        picked = []
        for c in sorted(by_colour)[: 2 * s]:
            v, leaves = min(by_colour[c], key=lambda t: t[0])
            picked.append((c, v, leaves))
        return picked
    # too few colours across >= 2s^2+1 disjoint stars: some colour repeats
    # at least s+1 times
    colour = max(by_colour, key=lambda c: (len(by_colour[c]), -c))
    raise _ClaimMono(colour, sorted(by_colour[colour])[:s])


def _greedy_rainbow_cherries(tree, fn, pool: Sequence[int], s: int) -> Embedding | None:
    """Backtracking greedy for s vertex-disjoint cherries with 2s
    pairwise distinct colours.

    The pool is any set of probed vertices; whenever the star
    collection fails it contains well over 3s vertices of colour-degree
    at least 3s, which is what makes the greedy feasible."""
    centres = sorted(set(pool))

    def build(i: int, used_v: set[int], used_c: set[int], acc: list[tuple[int, int, int]]):
        if i == s:
            return list(acc)
        for v in centres:
            if v in used_v:
                continue
            options: dict[int, int] = {}
            p = tree.parent_of(v)
            neighbours = ([p] if p >= 0 else []) + list(tree.child_list(v))
            for w in neighbours:
                if w in used_v:
                    continue
                c = fn(*norm_edge(v, w))
                if c in used_c or c in options:
                    continue
                options[c] = w
                if len(options) > 2:
                    break
            if len(options) < 2:
                continue
            (c1, w1), (c2, w2) = sorted(options.items())[:2]
            got = build(
                i + 1,
                used_v | {v, w1, w2},
                used_c | {c1, c2},
                acc + [(v, w1, w2)],
            )
            if got is not None:
                return got
        return None

    cherries = build(0, set(), set(), [])
    if cherries is None:
        return None
    pattern = star_forest([2] * s)
    mapping: list[int] = []
    for v, w1, w2 in cherries:
        mapping += [v, w1, w2]
    return Embedding(pattern, tuple(mapping), "rainbow")


def find_mono_or_rainbow(tree, chi, s: int) -> Embedding:
    """In a complete (6s^3+7s^2)-ary tree of height 3, locate either a
    monochromatic copy of s disjoint s-edge stars or a rainbow copy of
    s disjoint cherries.

    The search is local: it only ever inspects the root's children,
    the leaf sets of a few monochromatic stars, and their children, so
    it runs lazily on trees with hundreds of thousands of vertices.
    Failure to produce a verifiable witness is an assertion violation,
    never a silent miss.
    """
    if s < 2:
        raise DomainError("constellation parameter must be >= 2")
    d = 6 * s**3 + 7 * s**2
    if tree.height != 3 or len(tree.child_list(tree.root)) < d:
        raise DomainError("host must be the height-3 constellation arrow tree")
    fn = as_colour_fn(chi)
    fallback_pool: list[int] = []

    def mono_witness(colour: int, stars: list[tuple[int, list[int]]]) -> Embedding:
        if len(stars) < s:
            raise AssertionError("pigeonhole produced fewer stars than promised")
        pattern = star_forest([s] * s)
        mapping: list[int] = []
        for v, leaves in stars[:s]:
            mapping += [v] + leaves[:s]
        w = Embedding(pattern, tuple(mapping), "monochromatic")
        verify_witness(tree, chi, w)
        return w

    def claim_path() -> Embedding | None:
        try:
            top = _collect_stars(tree, fn, list(tree.child_list(tree.root)), s)
        except _ClaimMono as hit:
            return mono_witness(hit.colour, hit.stars)
        if top is None:
            fallback_pool.extend(tree.child_list(tree.root))
            return None
        used: set[int] = set()
        mapping: list[int] = []
        for _ in range(s):
            colour_i, v_i, w_i = next(
                ((c, v, l) for c, v, l in top if c not in used), (None, None, None)
            )
            if colour_i is None:
                raise AssertionError("ran out of fresh star colours at the top level")
            try:
                sub = _collect_stars(tree, fn, w_i, s)
            except _ClaimMono as hit:
                return mono_witness(hit.colour, hit.stars)
            if sub is None:
                fallback_pool.extend(w_i)
                return None
            colour_z, z_i, z_leaves = next(
                ((c, v, l) for c, v, l in sub if c not in used and c != colour_i),
                (None, None, None),
            )
            if colour_z is None:
                raise AssertionError("ran out of fresh star colours one level down")
            mapping += [z_i, v_i, z_leaves[0]]  # cherry centred at z_i
            used.update({colour_i, colour_z})
        w = Embedding(star_forest([2] * s), tuple(mapping), "rainbow")
        verify_witness(tree, chi, w)
        return w

    witness = claim_path()
    if witness is None:
        witness = _greedy_rainbow_cherries(tree, fn, fallback_pool, s)
        if witness is not None:
            verify_witness(tree, chi, witness)
    if witness is None:
        raise AssertionError(
            "height-3 witness search failed on both branches; the host does not"
            " satisfy the construction's hypotheses"
        )
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
    at height h combines the base at arity 2d^h with the step at h-1
    via b = b''c'/2, c = c'c''/2, r = max(r', r'')."""
    if d < 2 or h < 1:
        raise DomainError("need arity >= 2 and height >= 1")
    if h == 1:
        return RainbowTreeParams(Fraction(1, 2), Fraction(1, 2 * (d + 1)), d - 1)
    d1 = 2 * d**h
    base = RainbowTreeParams(Fraction(1, 2), Fraction(1, 2 * (d1 + 1)), d1 - 1)
    stepped = rainbow_tree_params(d, h - 1)
    return RainbowTreeParams(
        b=stepped.b * base.c / 2,
        c=base.c * stepped.c / 2,
        r=max(base.r, stepped.r),
    )


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
            per_colour: dict[int, int] = {}
            for w in g.adj[v]:
                if w in alive and w != v:
                    c = fn(*norm_edge(v, w))
                    if c not in per_colour:
                        per_colour[c] = w
            if len(per_colour) >= arity:
                leaves = [w for _, w in sorted(per_colour.items())[:arity]]
                found = (v, *leaves)
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


def _extract_rainbow_trees(g: Graph, fn, pool: list[int], d: int, h: int) -> list[list[int]]:
    """Vertex maps (level-order) of floor(c|pool|) rainbow copies of the
    complete d-ary tree of height h inside the pool."""
    params = rainbow_tree_params(d, h)
    quota = int(params.c * len(pool))
    if quota == 0:
        return []
    stage = f"(d={d}, h={h})"
    if h == 1:
        return [list(s) for s in _extract_stars(g, fn, pool, d, quota, stage)]
    d1 = 2 * d**h
    base = rainbow_tree_params(d1, 1)
    stars = _extract_stars(g, fn, pool, d1, int(base.c * len(pool)), stage)
    star_at = {s[0]: s for s in stars}
    inner = _extract_rainbow_trees(g, fn, sorted(star_at), d, h - 1)
    extended: list[list[int]] = []
    low = CompleteAryTree(d, h - 1)
    for copy in inner:
        used = {
            fn(*norm_edge(copy[low.parent_of(i)], copy[i]))
            for i in range(1, len(copy))
        }
        new_copy = list(copy)
        for i in range(low.level_offsets[h - 1], low.n):
            v = copy[i]
            fresh: dict[int, int] = {}
            for w in star_at[v][1:]:
                c = fn(*norm_edge(v, w))
                if c not in used and c not in fresh:
                    fresh[c] = w
            if len(fresh) < d:
                raise ConstructionStall(
                    f"extension below vertex {v} found only {len(fresh)} fresh colours",
                    stage=stage,
                )
            for c, w in sorted(fresh.items())[:d]:
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
        from .arrows import ColourDegreeParams, check_colour_degree_property

        verdict = check_colour_degree_property(
            g, ColourDegreeParams(params.b, params.r, pattern)
        )
        q_status = "verified" if verdict.holds else "refuted"
    fn = as_colour_fn(chi)
    quota = int(params.c * g.n)
    raw = _extract_rainbow_trees(g, fn, list(range(g.n)), d, h)
    shape = CompleteAryTree(d, h).to_graph()
    copies = [Embedding(shape, tuple(copy), "rainbow") for copy in raw]
    seen: set[int] = set()
    for emb in copies:
        verify_witness(g, chi, emb)
        if seen.intersection(emb.mapping):
            raise AssertionError("extracted copies are not vertex-disjoint")
        seen.update(emb.mapping)
    return RainbowForestReport(params, copies, None, quota, q_status)
