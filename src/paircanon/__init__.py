"""Exact canonization of weighted graphs under vertex relabeling."""

from .frame import (
    CanonResult,
    InvariantVector,
    canonical_form,
    canonical_form_bruteforce,
    canonical_form_pruned,
    invariantize,
    is_isomorphic,
)
from .graphio import (
    ParseError,
    emit_graph6,
    emit_weighted,
    parse_graph6,
    parse_weighted,
)
from .pairgroup import (
    DEFAULT_MAX_N,
    EdgeVector,
    GroupSizeError,
    PairAction,
    VertexPermutation,
    act,
    enumerate_group,
    generating_set,
    index_pair,
    induced_pair_action,
    pair_index,
)
from .polyinv import (
    Monomial,
    Polynomial,
    classify_simple_graphs_n4,
    n4_generating_set,
    parse_monomial,
    reynolds,
    simple_graph_invariants,
)
from .sortframe import (
    PointVector,
    elementary_symmetric,
    order_statistics,
    permute_point,
    sort_frame,
)

__version__ = "0.1.0"

__all__ = [
    "CanonResult",
    "DEFAULT_MAX_N",
    "EdgeVector",
    "GroupSizeError",
    "InvariantVector",
    "Monomial",
    "PairAction",
    "ParseError",
    "PointVector",
    "Polynomial",
    "VertexPermutation",
    "act",
    "canonical_form",
    "canonical_form_bruteforce",
    "canonical_form_pruned",
    "classify_simple_graphs_n4",
    "elementary_symmetric",
    "emit_graph6",
    "emit_weighted",
    "enumerate_group",
    "generating_set",
    "index_pair",
    "induced_pair_action",
    "invariantize",
    "is_isomorphic",
    "n4_generating_set",
    "order_statistics",
    "pair_index",
    "parse_graph6",
    "parse_monomial",
    "parse_weighted",
    "permute_point",
    "reynolds",
    "simple_graph_invariants",
    "sort_frame",
]
