"""Chordality variants of digraphs: recognition, knotting graphs, forbidden
patterns, and exhaustive small-order verification."""

from .chordality import (
    EliminationOrdering,
    Variant,
    Witness,
    elimination_ordering,
    is_chordal,
    is_di_simplicial,
    oracle_is_chordal,
    underlying_SD_is_chordal,
    verify_ordering,
    witness,
)
from .classes import (
    ClassReport,
    classify,
    generate_locally_semicomplete,
    generate_wqt,
    is_extended_semicomplete,
    is_locally_semicomplete,
    is_oriented,
    is_quasi_transitive,
    is_semicomplete,
    is_symmetric,
    is_transitive_oriented,
    is_weakly_quasi_transitive,
)
from .digraph import (
    Digraph,
    PairKind,
    asynchronous,
    build,
    digraph_count,
    digraph_from_index,
    enumerate_digraphs,
    induced,
    parse,
    parse_labeled,
    random_digraph,
    serialize,
    substitute,
    symmetric_subdigraph,
    to_dot,
)
from .knotting import (
    KnottingGraph,
    SplittingClass,
    group_max_degree,
    knot_classes,
    knotting_graph,
    lemma1_check,
    ss_chordal_via_knotting,
    theorem2_oracle,
)
from .patterns import (
    EdgeConstraint,
    Embedding,
    PatternTemplate,
    are_isomorphic,
    expand_template,
    fig1_templates,
    find_any_fig1,
    find_induced,
    find_lollipop,
    find_nonsym_induced_dicycle,
    lollipop_template,
    theorem4_rhs,
    theorem5_rhs,
)

__version__ = "0.1.0"
