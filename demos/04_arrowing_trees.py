"""The two explicit arrowing-tree constructions, with verified witnesses.

Star versus forest: a complete ((s-1)(l-1)+1)-ary tree of the right
height forces a monochromatic s-edge star or a rainbow copy of the
completed forest, found by a greedy level-by-level embedding.

Constellation versus short forest: the complete (6s^3+7s^2)-ary tree of
height 3 forces s disjoint monochromatic s-stars of one colour or s
disjoint rainbow cherries; the witness search is local, so it runs on
the 444829-vertex tree for s=2 without materialising it.
"""

from ramsey_lab import (
    Colouring,
    constellation_arrow_tree,
    find_mono_or_rainbow,
    find_monochromatic_star,
    greedy_rainbow_embed,
    parse_graph,
    star_arrow_tree,
    verify_witness,
)

plan = star_arrow_tree(2, parse_graph("P3"))
print(f"star s=2 vs P3: complete {plan.tree.d}-ary tree of height {plan.tree.h},"
      f" {plan.tree.n} vertices")
rainbow = Colouring.rainbow(plan.tree.graph)
emb = greedy_rainbow_embed(plan.tree, rainbow, plan.rooted_completion)
print("  rainbow colouring -> embedded at", emb.mapping)
flat = Colouring.constant(plan.tree.graph)
print("  constant colouring -> greedy fails, monochromatic star at",
      find_monochromatic_star(plan.tree, flat, 2).mapping)

print()
tree = constellation_arrow_tree(2)
print(f"constellation s=2: arity {tree.d}, {tree.n} vertices (lazy)")
for name, chi in [
    ("constant", lambda u, v: 0),
    ("high-degree avoiding", lambda u, v: min(u, v)),
    ("random 5-colour", lambda u, v: (u * 2654435761 + v * 97193) % 5),
]:
    w = find_mono_or_rainbow(tree, chi, 2)
    verify_witness(tree, chi, w)
    print(f"  {name:>22} -> {w.kind} witness on vertices {sorted(set(w.mapping))}")
