"""Exact canonization of weighted graphs under vertex relabeling.

The polynomial-invariant and sorting-frame modules load on first use of one
of their names, so that importing the package for canonization does not
compile them.
"""

from importlib import import_module

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
_LAZY = {
    **dict.fromkeys(
        (
            "Monomial",
            "Polynomial",
            "classify_simple_graphs_n4",
            "n4_generating_set",
            "parse_monomial",
            "reynolds",
            "simple_graph_invariants",
        ),
        "polyinv",
    ),
    **dict.fromkeys(
        ("PointVector", "elementary_symmetric", "order_statistics", "permute_point", "sort_frame"),
        "sortframe",
    ),
}


def __getattr__(name):
    if name in ("polyinv", "sortframe"):
        return import_module(f"{__name__}.{name}")
    if name in _LAZY:
        return getattr(import_module(f"{__name__}.{_LAZY[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
