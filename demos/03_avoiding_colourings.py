"""Colourings of forests that defeat both pattern types at once.

Rooting every component at its least vertex and ranking vertices in
depth order gives two schemes whose colour classes are all stars, so
no two disjoint monochromatic stars share a colour.  The high-degree
scheme leaves at most two colours at each vertex (killing rainbow
patterns with a degree-3 vertex); the long-path scheme colours by the
odd-depth endpoint (killing rainbow three-edge paths).
"""

from ramsey_lab import (
    AvoidMode,
    avoid_colouring,
    avoids,
    choose_avoid_mode,
    colour_degree,
    component_mono_colouring,
    parse_graph,
    verify_avoiding,
)

f = parse_graph("K1,3+P3")
for mode in AvoidMode:
    chi = avoid_colouring(f, mode)
    spread = max(colour_degree(f, chi, v, range(f.n)) for v in range(f.n))
    print(f"{mode.value:>12}: colours {chi.colours}, max colours at a vertex = {spread}")

pairs = [("K1,2+K1,2", "K1,3"), ("M2", "P3"), ("K1,2+K1,2", "P3")]
print()
for h1_spec, h2_spec in pairs:
    h1, h2 = parse_graph(h1_spec), parse_graph(h2_spec)
    mode = choose_avoid_mode(h2)
    ok = verify_avoiding(f, avoid_colouring(f, mode), h1, h2)
    print(f"({h1_spec}, {h2_spec}) defeated by {mode.value}: {ok}")

print()
print("one colour per component defeats any pattern larger than every component:")
big = parse_graph("P2+P2+K2")
chi = component_mono_colouring(big)
print("  colours:", chi.colours)
print("  avoids (K1,3, cherry):",
      avoids(big, chi, parse_graph("K1,3"), parse_graph("K1,2")))
