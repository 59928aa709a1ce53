"""Independent brute-force oracles the main code is checked against.

Everything here favours obviousness over speed: copies are found by
trying every injective vertex map, densities by walking every
(vertex subset, edge count) pair, per-size edge maxima one subset at a
time, tree isomorphism classes by generating every labelled tree and
deduplicating with a backtracking isomorphism test, arrowing by
testing every prefix of a colouring search with ``naive_copy``,
containment and arrow sweeps by a fresh sample and a full search per
grid point, the embedding search by the recursion it had before its
candidate filter, the tree catalogue by coding every rooted level
sequence again, optimal path-product labellings by trying every
labelling, a level's forest candidates by chaining
``disjoint_union`` over every shape multiset, and the copy finders'
first copies without their exits, and the colour-degree check by
filtering every colouring for a monochromatic copy.  None of it shares
code paths with the package algorithms it validates (the colour-degree
oracle is the check's earlier form: it takes every colouring from
``enumerate_colourings``, the package walk with no pattern to prune on,
and filters each with ``find_monochromatic_copy``; the arrow-sweep
oracle checks the sweep's bookkeeping and calls ``arrows``, which has
its own reference above; the search oracle takes the package's
placement plan, which fixes the order in which copies are found, and
the finder oracle takes that plan too; the catalogue oracle reuses the
level-sequence successor and ``tree_code``, which the catalogue only
stores).
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from ramsey_lab.arrows import ColourDegreeParams, arrows, enumerate_colourings
from ramsey_lab.gnp import pair_uniforms
from ramsey_lab.graphs import Graph, colour_degree, contains, find_monochromatic_copy, norm_edge


def naive_copy(host: Graph, chi, pattern: Graph, kind: str) -> bool:
    """Does a monochromatic/rainbow/plain copy exist?  All injective maps."""
    if pattern.n > host.n:
        return False
    for image in itertools.permutations(range(host.n), pattern.n):
        ok = True
        colours = []
        for u, v in pattern.edges:
            e = norm_edge(image[u], image[v])
            if e not in host.edges:
                ok = False
                break
            if kind != "plain":
                colours.append(chi.colour_of(*e) if hasattr(chi, "colour_of") else chi[e])
        if not ok:
            continue
        if kind == "mono" and len(set(colours)) > 1:
            continue
        if kind == "rainbow" and len(set(colours)) != len(colours):
            continue
        return True
    return False


def density_oracle(g: Graph) -> tuple[Fraction, Fraction]:
    """(max density, max 2-density) over every subgraph.

    Ranges over all vertex subsets and, for each, every possible edge
    count up to the induced one, which covers every subgraph since the
    ratios depend only on the order and size.  The 2-density ranges over
    subgraphs with at least one edge, with d2(K2) = 1/2, and is 0 on an
    edgeless graph.
    """
    best_m = Fraction(0)
    best_m2 = Fraction(0)
    vertices = range(g.n)
    for r in range(1, g.n + 1):
        for subset in itertools.combinations(vertices, r):
            members = set(subset)
            induced_e = sum(1 for u, v in g.edges if u in members and v in members)
            for e in range(induced_e + 1):
                best_m = max(best_m, Fraction(e, r))
                if e >= 1:
                    best_m2 = max(best_m2, Fraction(e - 1, r - 2) if r > 2 else Fraction(1, 2))
    return best_m, best_m2


def max_edges_by_size_oracle(g: Graph) -> list[int]:
    """best[k] = most edges on k vertices, one vertex subset at a time.

    Walks every non-empty subset and counts its edges by peeling off the
    lowest vertex, in a Python loop over the subset's bits.
    """
    n = g.n
    adj_mask = [0] * n
    for u, v in g.edges:
        adj_mask[u] |= 1 << v
        adj_mask[v] |= 1 << u
    best = [0] * (n + 1)
    for s in range(1, 1 << n):
        edges = 0
        rest = s
        while rest:
            v = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            edges += (adj_mask[v] & rest).bit_count()
        best[s.bit_count()] = max(best[s.bit_count()], edges)
    return best


def rooted_code_oracle(g: Graph, root: int) -> str:
    """The AHU parenthesis code of a rooted tree, by plain recursion:
    a vertex's code wraps its children's sorted codes in parentheses."""
    def code(v: int, parent: int) -> str:
        subs = sorted(code(w, v) for w in g.adj[v] if w != parent)
        return "(" + "".join(subs) + ")"

    return code(root, -1)


def best_labelling_oracle(h: Graph) -> tuple[int, int, dict]:
    """(value, root, labels) of the labelling ``min_max_path_product``
    returns, by trying every labelling: roots ascend, one per rooted
    isomorphism class, and at each root the labels 1..e(h) go onto the
    child edges in breadth-first order (by depth, then vertex) in every
    permutation, lexicographically; the first strictly better one is
    kept."""
    best = None
    seen = set()
    for root in range(h.n):
        code = rooted_code_oracle(h, root)
        if code in seen:
            continue
        seen.add(code)
        parent, depth, stack = {root: -1}, {root: 0}, [root]
        while stack:
            v = stack.pop()
            for w in h.adj[v]:
                if w not in parent:
                    parent[w], depth[w] = v, depth[v] + 1
                    stack.append(w)
        child_of = sorted((v for v in range(h.n) if v != root), key=lambda v: (depth[v], v))
        edges = [norm_edge(parent[v], v) for v in child_of]
        leaves = [v for v in child_of if h.degree(v) == 1]
        for labels in itertools.permutations(range(1, h.e + 1)):
            lab = dict(zip(edges, labels))
            worst = 0
            for v in leaves:
                prod = 1
                while parent[v] >= 0:
                    prod *= lab[norm_edge(parent[v], v)]
                    v = parent[v]
                worst = max(worst, prod)
            if best is None or worst < best[0]:
                best = (worst, root, lab)
    return best


def isomorphic(a: Graph, b: Graph) -> bool:
    """Isomorphism by backtracking over degree-matched vertex maps."""
    if a.n != b.n or a.e != b.e:
        return False
    deg_a = sorted(a.degree(v) for v in range(a.n))
    deg_b = sorted(b.degree(v) for v in range(b.n))
    if deg_a != deg_b:
        return False
    order = sorted(range(a.n), key=lambda v: -a.degree(v))
    used = [False] * b.n
    image = [-1] * a.n

    def place(i: int) -> bool:
        if i == a.n:
            return True
        u = order[i]
        for w in range(b.n):
            if used[w] or a.degree(u) != b.degree(w):
                continue
            good = True
            for x in a.adj[u]:
                if image[x] != -1 and image[x] not in b.adj[w]:
                    good = False
                    break
            if not good:
                continue
            image[u] = w
            used[w] = True
            if place(i + 1):
                return True
            image[u] = -1
            used[w] = False
        return False

    return place(0)


def _spans_tree(k: int, chosen) -> bool:
    parent = list(range(k))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    merged = 0
    for u, v in chosen:
        ru, rv = find(u), find(v)
        if ru == rv:
            return False
        parent[ru] = rv
        merged += 1
    return merged == k - 1


def brute_force_trees(k: int) -> list[Graph]:
    """Every isomorphism class of trees on k vertices, by generating all
    labelled trees from edge subsets and deduplicating pairwise."""
    if k == 1:
        return [Graph.of(1)]
    all_pairs = list(itertools.combinations(range(k), 2))
    reps: list[Graph] = []
    buckets: dict[tuple, list[int]] = {}
    for chosen in itertools.combinations(all_pairs, k - 1):
        if not _spans_tree(k, chosen):
            continue
        g = Graph.of(k, chosen)
        degs = tuple(sorted(g.degree(v) for v in range(k)))
        nbr_profile = tuple(
            sorted(tuple(sorted(g.degree(w) for w in g.adj[v])) for v in range(k))
        )
        key = (degs, nbr_profile)
        hit = False
        for idx in buckets.get(key, ()):
            if isomorphic(g, reps[idx]):
                hit = True
                break
        if not hit:
            buckets.setdefault(key, []).append(len(reps))
            reps.append(g)
    return reps


def random_tree(rng: random.Random, n: int) -> Graph:
    """Uniform labelled tree on n vertices from a random sequence code."""
    if n == 1:
        return Graph.of(1)
    if n == 2:
        return Graph.of(2, [(0, 1)])
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    import heapq

    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    pairs = []
    for v in seq:
        leaf = heapq.heappop(leaves)
        pairs.append((leaf, v))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    u, w = sorted(leaves)[:2]
    pairs.append((u, w))
    return Graph.of(n, pairs)


def random_forest(rng: random.Random, n_max: int) -> Graph:
    """A random forest with at most n_max vertices and >= 1 edge."""
    g = Graph.of(0)
    budget = rng.randint(2, n_max)
    while budget >= 2:
        size = rng.randint(2 if g.e == 0 else 1, min(budget, n_max // 2 + 1))
        if size == 1:
            g = g.disjoint_union(Graph.of(1))
        else:
            g = g.disjoint_union(random_tree(rng, size))
        budget -= size
    return g


def mix_colour(seed: int, n_colours: int):
    """A fixed mixing function usable as a deterministic random colouring."""
    def fn(u: int, v: int) -> int:
        x = u * 2654435761 + v * 97193 + seed * 1299721
        x ^= x >> 13
        return (x * 2246822519) % (1 << 61) % n_colours

    return fn


def random_canonical_colouring(rng: random.Random, g: Graph):
    """A uniform-ish random set partition of the edges via random growth."""
    from ramsey_lab.graphs import Colouring

    values = []
    blocks = 0
    for _ in range(g.e):
        c = rng.randint(0, blocks)
        values.append(c)
        blocks = max(blocks, c + 1)
    return Colouring.from_values(g, values)


def _growth_strings(blocks: int, remaining: int) -> int:
    """Restricted-growth completions of a prefix, counted one by one."""
    if remaining == 0:
        return 1
    return sum(_growth_strings(max(blocks, c + 1), remaining - 1) for c in range(blocks + 1))


def reference_arrows(g: Graph, h1: Graph, h2: Graph) -> tuple[bool, int, tuple[int, ...] | None]:
    """(verdict, colourings examined, counterexample colours) of G -> (H1, H2).

    Mirrors the contract of ``ramsey_lab.arrows.arrows``: a pattern that
    does not embed at all gives the one-colouring certificates, or Arrows
    with every one of the Bell(e) colourings counted; otherwise
    restricted-growth strings are searched in lexicographic order, every
    prefix is tested with ``naive_copy`` and a prefix holding a pattern
    counts all its completions as examined.
    """
    m = g.e
    if not naive_copy(g, None, h1, "plain"):
        if h2.e >= 2 or not naive_copy(g, None, h2, "plain"):
            return False, 1, (0,) * m
        return True, _growth_strings(0, m), None
    if not naive_copy(g, None, h2, "plain"):
        if h1.e >= 2:
            return False, 1, tuple(range(m))
        return True, _growth_strings(0, m), None

    edges = sorted(g.edges)
    values: list[int] = []
    examined = 0

    def holds_pattern() -> bool:
        prefix = Graph(g.n, frozenset(edges[: len(values)]))
        chi = dict(zip(edges, values))
        return naive_copy(prefix, chi, h1, "mono") or naive_copy(prefix, chi, h2, "rainbow")

    def search(blocks: int) -> tuple[int, ...] | None:
        nonlocal examined
        if holds_pattern():
            examined += _growth_strings(blocks, m - len(values))
            return None
        if len(values) == m:
            examined += 1
            return tuple(values)
        for c in range(blocks + 1):
            values.append(c)
            found = search(max(blocks, c + 1))
            values.pop()
            if found is not None:
                return found
        return None

    found = search(0)
    return found is None, examined, found


def colour_degree_oracle(g: Graph, params: ColourDegreeParams):
    """(holds, witness colouring, witness set) of the colour-degree spread
    property: every colouring of E(g), in the arrowing search's order,
    filtered by ``find_monochromatic_copy``, then every subset of at
    least b * n vertices in increasing bitmask order."""
    n = g.n
    subsets = [
        tuple(v for v in range(n) if s >> v & 1)
        for s in range(1, 1 << n)
        if s.bit_count() >= params.b * n
    ]
    for chi in enumerate_colourings(g):
        if find_monochromatic_copy(g, chi, params.pattern) is not None:
            continue
        for xs in subsets:
            if not any(colour_degree(g, chi, v, xs) > params.r for v in xs):
                return False, chi, xs
    return True, None, None


def containment_column_oracle(n: int, pattern: Graph, grid, seed: int, trial: int) -> list[bool]:
    """Does trial ``trial`` of G(n, p) contain ``pattern``, for each p in ``grid``?

    One sample per grid point, built from the trial's uniforms in
    lexicographic pair order, and one full copy search in each.
    """
    us = pair_uniforms(n, seed, trial)
    order = list(itertools.combinations(range(n), 2))
    return [contains(Graph.of(n, [e for e, u in zip(order, us) if u < p]), pattern) for p in grid]


def arrow_column_oracle(n: int, h1: Graph, h2: Graph, grid, seed: int, trial: int, edge_cap: int) -> list:
    """Does trial ``trial`` of G(n, p) arrow (h1, h2), for each p in ``grid``?

    One sample per grid point, built as in ``containment_column_oracle``,
    and one ``arrows`` call on each; None for a sample with more than
    ``edge_cap`` edges.
    """
    us = pair_uniforms(n, seed, trial)
    order = list(itertools.combinations(range(n), 2))
    out = []
    for p in grid:
        sample = Graph.of(n, [e for e, u in zip(order, us) if u < p])
        out.append(None if sample.e > edge_cap else arrows(sample, h1, h2, edge_budget=edge_cap).arrows)
    return out


def search_oracle(pattern: Graph, host_adj, rainbow: bool, plan, pin=None):
    """The embedding search without candidate filters, by plain recursion.

    Takes the same arguments as ``ramsey_lab.graphs._search``, with the
    plan given explicitly (only its placement order and placed
    neighbours are read), and tries host candidates in the same order,
    so it returns the first embedding in that order, or None.
    """
    vp, host_n = pattern.n, len(host_adj)
    if vp > host_n:
        return None
    order, placed_nbrs = plan[0], plan[1]
    mapping = [-1] * vp
    used_host: set[int] = set()
    used_colours: set[int] = set()
    start = 0
    if pin is not None:
        a, b = pin
        mapping[order[0]], mapping[order[1]] = a, b
        used_host.update(pin)
        if rainbow:
            used_colours.add(host_adj[a][b])
        start = 2

    def extend(i: int) -> bool:
        if i == vp:
            return True
        v = order[i]
        nbrs = placed_nbrs[i]
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
                if rainbow:
                    c = host_adj[a][w]
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

    return tuple(mapping) if extend(start) else None


def coded_trees_oracle(k: int) -> list[tuple[str, Graph]]:
    """(tree_code(t), t) for the trees on k vertices, enumerated without a
    catalogue: every rooted level sequence in successor order, coded on
    the spot and kept when its code is new."""
    from ramsey_lab.graphs import _level_sequence_successor, _level_sequence_to_graph, tree_code

    out = []
    seen: set[str] = set()
    seq = list(range(k))
    while seq is not None:
        g = _level_sequence_to_graph(seq)
        c = tree_code(g)
        if c not in seen:
            seen.add(c)
            out.append((c, g))
        seq = _level_sequence_successor(seq)
    return out


def level_candidates_oracle(k: int, copies_cap: int, vertex_budget: int) -> list[Graph]:
    """The forests of level k built one shape copy at a time with
    ``disjoint_union``: shapes on 2..k vertices from ``coded_trees_oracle``
    in (order, code) order, every multiset with at most ``copies_cap``
    copies of each shape and at most ``vertex_budget`` vertices whose
    largest shape has k vertices, sorted by order and then by the shapes'
    codes.  The multisets are walked with an explicit stack, so no
    recursion depth grows with the number of shapes."""
    shapes = sorted(
        ((size, c, t) for size in range(2, k + 1) for c, t in coded_trees_oracle(size)),
        key=lambda s: (s[0], s[1]),
    )
    out = []
    stack = [(0, 0, [])]
    while stack:
        i, total, picked = stack.pop()
        if i == len(shapes) or total + shapes[i][0] > vertex_budget:
            if picked and picked[-1][0] == k:
                forest = Graph.of(0)
                for _, _, t in picked:
                    forest = forest.disjoint_union(t)
                out.append((total, tuple(c for _, c, _ in picked), forest))
            continue
        for copies in range(copies_cap + 1):
            if total + copies * shapes[i][0] > vertex_budget:
                break
            stack.append((i + 1, total + copies * shapes[i][0], picked + [shapes[i]] * copies))
    out.sort(key=lambda item: (item[0], item[1]))
    return [forest for _, _, forest in out]


def copy_finder_oracle(host: Graph, chi, pattern: Graph, kind: str) -> tuple[int, ...] | None:
    """The vertex map ``find_monochromatic_copy`` ("mono") or
    ``find_rainbow_copy`` ("rainbow") returns, found without their exits:
    colour classes gathered by looking up every edge's colour and tried in
    first-seen order, and a rainbow search whatever the number of colours,
    each by ``search_oracle`` over the pattern's plan."""
    from ramsey_lab.graphs import _plan

    plan = _plan(pattern)
    if kind == "rainbow":
        coloured = [{w: chi.colour_of(v, w) for w in host.adj[v]} for v in range(host.n)]
        return search_oracle(pattern, coloured, True, plan)
    if pattern.e == 0:
        return search_oracle(pattern, host.adj, False, plan)
    classes: dict[int, list] = {}
    for u, v in host.sorted_edges:
        classes.setdefault(chi.colour_of(u, v), []).append((u, v))
    for edges in classes.values():
        adj = [set() for _ in range(host.n)]
        for u, v in edges:
            adj[u].add(v)
            adj[v].add(u)
        m = search_oracle(pattern, adj, False, plan)
        if m is not None:
            return m
    return None


def rainbow_tree_params_oracle(d: int, h: int) -> tuple[Fraction, Fraction, int]:
    """(b, c, r) of the disjoint-rainbow-tree recursion, computed
    recursively as stated: the base (1/2, 1/(2(d+1)), d-1) at height one,
    and at height h the base at arity 2d^h combined with height h-1."""
    if h == 1:
        return Fraction(1, 2), Fraction(1, 2 * (d + 1)), d - 1
    d1 = 2 * d**h
    base_c = Fraction(1, 2 * (d1 + 1))
    b, c, r = rainbow_tree_params_oracle(d, h - 1)
    return b * base_c / 2, base_c * c / 2, max(d1 - 1, r)


def pinned_order_oracle(pattern: Graph, pinned) -> tuple[int, ...]:
    """The placement order of a pinned plan, by recounting every step: the
    pinned ends first, then each time the unplaced vertex with the most
    placed neighbours, ties to higher degree, then lower id."""
    order = list(pinned)
    rest = [v for v in range(pattern.n) if v not in pinned]
    while rest:
        placed = set(order)
        v = min(rest, key=lambda v: (-len(pattern.adj[v] & placed), -pattern.degree(v), v))
        order.append(v)
        rest.remove(v)
    return tuple(order)


def orbit_representatives_oracle(pattern: Graph) -> list[tuple[int, int]]:
    """The oriented edges that start a new orbit under the pattern's
    automorphisms, in sorted-edge order, each tested by ``search_oracle``
    against every earlier representative with no invariant pre-check."""
    reps = []
    for u, v in sorted(pattern.edges):
        for xy in ((u, v), (v, u)):
            plans = [_oracle_plan(pattern, r) for r in reps]
            if all(search_oracle(pattern, pattern.adj, False, p, xy) is None for p in plans):
                reps.append(xy)
    return reps


def _oracle_plan(pattern: Graph, pinned):
    order = pinned_order_oracle(pattern, pinned)
    pos = {v: i for i, v in enumerate(order)}
    return order, tuple(tuple(u for u in pattern.adj[v] if pos[u] < pos[v]) for v in order)
