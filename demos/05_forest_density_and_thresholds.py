"""Arrowing-forest density bounds and the threshold-exponent table.

The threshold for the arrowing property of a random graph is n^q.  In
five cases q has a closed form in the classical densities; in the
sixth it is -1/m_F where m_F is the least density of an arrowing
forest, which the solver brackets (and often pins exactly) by walking
component-size levels with certified refutations.
"""

from ramsey_lab import parse_graph, threshold
from ramsey_lab.mf import solve

print("threshold table:")
for h1, h2 in [
    ("K3", "P3"),
    ("K1,2+K1,2", "K1,3"),
    ("M2", "P3"),
    ("K3", "K1,2"),
    ("K1,2", "K1,2"),
    ("K1,2", "K1,2+K1,2"),
    ("K2", "P3"),
]:
    t = threshold(parse_graph(h1), parse_graph(h2))
    print(f"  ({h1:>10}, {h2:>10})  {t.describe()}")

print()
print("forest-search certificate for (cherry, cherry):")
print(solve(parse_graph("K1,2"), parse_graph("K1,2")).to_text())

print()
print("certificate for (cherry, two cherries):")
print(solve(parse_graph("K1,2"), parse_graph("K1,2+K1,2")).to_text())
