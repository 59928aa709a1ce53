"""The complete threshold-exponent case dispatch for forest rainbow patterns.

For a pattern pair (H1, H2) with H2 a forest, the probability that a
random graph forces a monochromatic H1 or rainbow H2 jumps from 0 to 1
at n^q; this module returns q, exactly in five of the six cases and as
an interval around -1/(arrowing-forest density) in the remaining one.
A non-forest H2 is refused explicitly: that case is open.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import mf
from .arrows import DEFAULT_EDGE_BUDGET
from .densities import DEFAULT_DENSITY_VERTEX_BUDGET, classify, max_2_density, max_density
from .errors import DomainError, OpenProblemError
from .graphs import Graph

CASE_TRIVIAL = "single-edge-pattern"
CASE_FOREST_CHERRY = "forest-vs-cherry"
CASE_APPEARANCE = "pattern-appearance"
CASE_MATCHING = "matching-vs-long-forest"
CASE_M2 = "two-colour-density"
CASE_FOREST_ARROWING = "arrowing-forest-density"


@dataclass(frozen=True)
class ThresholdExponent:
    """The exponent q with threshold n^q.

    ``exact`` carries q when a closed form applies; otherwise
    ``bounds`` brackets q = -1/m_F between the solver's certified
    bounds (degenerate when the solver proves exactness).  The case
    label names which clause fired and ``provenance`` records the
    density values it consumed.
    """

    case_label: str
    exact: Fraction | None
    bounds: tuple[Fraction, Fraction] | None
    symbol: str | None
    provenance: dict

    def __post_init__(self):
        if (self.exact is None) == (self.bounds is None):
            raise DomainError("exactly one of exact/bounds must be present")
        if self.exact is not None and self.exact >= 0:
            raise DomainError("threshold exponents are negative")

    def describe(self) -> str:
        if self.exact is not None:
            return f"exponent = {self.exact}; case = {self.case_label}"
        lo, hi = self.bounds
        if lo == hi:
            return f"exponent = {lo}; case = {self.case_label}; symbol = {self.symbol}"
        return (
            f"exponent in [{lo}, {hi}]; case = {self.case_label};"
            f" symbol = {self.symbol}"
        )


def fired_clauses(h1: Graph, h2: Graph) -> list[str]:
    """Case labels whose guards hold for the pair; exactly one must."""
    c1, c2 = classify(h1), classify(h2)
    if not c2.is_forest:
        raise OpenProblemError(
            "the threshold when the rainbow pattern is not a forest is open;"
            " only the star anti-Ramsey special cases are known"
        )
    e1, e2 = h1.e, h2.e
    fired = []
    if min(e1, e2) <= 1:
        fired.append(CASE_TRIVIAL)
    if e1 >= 2 and e2 == 2:
        if c2.is_cherry and c1.is_forest:
            fired.append(CASE_FOREST_CHERRY)
        else:
            fired.append(CASE_APPEARANCE)
    if e1 >= 2 and e2 >= 3:
        if c1.is_matching and not c2.is_short_forest:
            fired.append(CASE_MATCHING)
        if not c1.is_star_forest or (
            c1.is_constellation and h1.max_degree >= 2 and not c2.is_short_forest
        ):
            fired.append(CASE_M2)
        if c1.is_star or (c1.is_constellation and c2.is_short_forest):
            fired.append(CASE_FOREST_ARROWING)
    return fired


def threshold(
    h1: Graph,
    h2: Graph,
    resolve_bounds: bool = True,
    density_budget: int | None = DEFAULT_DENSITY_VERTEX_BUDGET,
    vertex_budget: int = mf.DEFAULT_VERTEX_BUDGET,
    copies_cap: int = mf.DEFAULT_COPIES_CAP,
    edge_budget: int | None = DEFAULT_EDGE_BUDGET,
) -> ThresholdExponent:
    """Dispatch the pair to its threshold clause and evaluate it.

    With ``resolve_bounds`` false, the arrowing-forest case returns the
    symbolic answer without running the forest search (useful when only
    the dispatch itself is of interest).  ``density_budget`` is the
    vertex budget of the m and m2 walks; the last three budgets are the
    forest search's, and checked before any case is dispatched.
    """
    mf.check_budgets(vertex_budget, copies_cap)
    fired = fired_clauses(h1, h2)
    if len(fired) != 1:
        raise AssertionError(f"expected exactly one clause, got {fired}")
    case = fired[0]

    if case == CASE_TRIVIAL:
        return ThresholdExponent(case, Fraction(-2), None, None, {})

    if case == CASE_FOREST_CHERRY:
        k = classify(h1).k_nonisolated
        return ThresholdExponent(
            case, Fraction(-k, k - 1), None, None, {"k_nonisolated": k}
        )

    if case == CASE_APPEARANCE:
        m = max_density(h1, density_budget)
        return ThresholdExponent(case, -1 / m, None, None, {"m": m})

    if case == CASE_MATCHING:
        return ThresholdExponent(case, Fraction(-1), None, None, {})

    if case == CASE_M2:
        m2 = max_2_density(h1, density_budget)
        return ThresholdExponent(case, -1 / m2, None, None, {"m2": m2})

    if not resolve_bounds:
        return ThresholdExponent(
            case, None, (Fraction(-2), Fraction(-1)), "-1/m_F", {"m_F": "unresolved"}
        )
    report = mf.solve(h1, h2, vertex_budget, copies_cap, edge_budget)
    if report.upper >= 1:
        raise AssertionError("arrowing-forest density must stay below 1")
    if report.exact:
        q = -1 / report.upper
        bounds = (q, q)
    else:
        lo = Fraction(-2) if report.lower == 0 else -1 / report.lower
        bounds = (lo, -1 / report.upper)
    return ThresholdExponent(
        case,
        None,
        bounds,
        "-1/m_F",
        {"m_F_lower": report.lower, "m_F_upper": report.upper, "m_F_exact": report.exact},
    )
