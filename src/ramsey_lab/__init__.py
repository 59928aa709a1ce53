"""Exact desk-scale laboratory for monochromatic-vs-rainbow edge
colouring problems: graph densities, arrowing decisions, explicit
avoiding colourings and embedding constructions, arrowing-forest
density bounds, the threshold-exponent case table, and seeded random
graph probes."""

from .arrows import (
    ArrowVerdict,
    ColourDegreeParams,
    ColourDegreeVerdict,
    arrows,
    bell_number,
    check_colour_degree_property,
    constrained_ramsey_number,
    enumerate_colourings,
)
from .constructions import (
    AvoidMode,
    RainbowForestReport,
    RainbowTreeParams,
    StarArrowTree,
    avoid_colouring,
    choose_avoid_mode,
    component_mono_colouring,
    constellation_arrow_tree,
    disjoint_rainbow_trees,
    find_mono_or_rainbow,
    find_monochromatic_star,
    greedy_rainbow_embed,
    rainbow_tree_params,
    spanning_tree_completion,
    star_arrow_tree,
    verify_avoiding,
)
from .densities import GraphClass, bridge_join, classify, max_2_density, max_density
from .errors import (
    BudgetError,
    ConstructionStall,
    DomainError,
    GraphParseError,
    OpenProblemError,
    RamseyLabError,
)
from .gnp import (
    SweepRow,
    arrow_probability,
    arrow_sweep,
    containment_sweep,
    parse_p_grid,
    rows_to_csv,
    sample_gnp,
)
from .graphs import (
    Colouring,
    Embedding,
    Graph,
    avoids,
    colour_degree,
    complete_graph,
    contains,
    enumerate_trees,
    find_embedding,
    find_monochromatic_copy,
    find_rainbow_copy,
    is_isomorphic,
    matching,
    parse_graph,
    path,
    star,
    star_forest,
    tree_code,
    verify_witness,
)
from .mf import MfReport, construction_upper_bound
from .threshold import ThresholdExponent, fired_clauses, threshold
from .tree_labels import (
    OptimalLabelling,
    descendant_colouring,
    descendant_counts,
    embed_rainbow_binary,
    lazy_descendant_colouring,
    min_max_path_product,
    path_product_at_least,
    rainbow_binary_host,
)
from .trees import CompleteAryTree, LayeredTree, RootedTree, complete_ary_tree

__all__ = [name for name in dir() if not name.startswith("_")]
