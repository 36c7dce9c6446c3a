"""Exact canonization of weighted graphs under vertex relabeling.

The polynomial-invariant and sorting-frame modules are not imported with the
package, so that importing it for canonization does not compile them; use
``from paircanon.polyinv import reynolds``, or ``paircanon.polyinv``, which
loads the module on first access.
"""

from importlib import import_module

from .frame import (
    CanonResult,
    canonical_form,
    canonical_form_bruteforce,
    canonical_form_pruned,
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
    generating_set,
    induced_pair_action,
)


def __getattr__(name):
    if name in ("polyinv", "sortframe"):
        return import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__version__ = "0.1.0"

__all__ = [
    "CanonResult",
    "DEFAULT_MAX_N",
    "EdgeVector",
    "GroupSizeError",
    "PairAction",
    "ParseError",
    "VertexPermutation",
    "act",
    "canonical_form",
    "canonical_form_bruteforce",
    "canonical_form_pruned",
    "emit_graph6",
    "emit_weighted",
    "generating_set",
    "induced_pair_action",
    "is_isomorphic",
    "parse_graph6",
    "parse_weighted",
]
