"""Sorting as canonization for plain coordinate vectors.

Permuting the entries of a vector is the simplest relabeling action; sorting
picks the nondecreasing representative of each orbit.  The sorted entries are
the invariant coordinates of the orbit, and every symmetric polynomial is a
plain polynomial in them, so nothing algebraic is lost by sorting.
"""

from __future__ import annotations

from fractions import Fraction
from operator import attrgetter

from .pairgroup import VertexPermutation, _Value, _exact, _scatter


class PointVector(_Value):
    """A nonempty vector of exact rationals acted on by permuting coordinates."""

    __slots__ = _fields = ("values",)
    _key = property(attrgetter("values"))

    def __init__(self, values):
        self._set(values=tuple(_exact(v) for v in values))
        if not self.values:
            raise ValueError("empty vector")

    @property
    def n(self) -> int:
        return len(self.values)


def sort_frame(v: PointVector) -> tuple[PointVector, VertexPermutation]:
    """Sorted copy of v plus the permutation that achieves it.

    Repeated values make the achieving permutation non-unique; ranking
    stably by (value, original position) selects the one-line-lex smallest
    of them, so the frame is deterministic.
    """
    ranked = sorted(range(1, v.n + 1), key=lambda i: (v.values[i - 1], i))
    ordered = PointVector(tuple(v.values[i - 1] for i in ranked))
    return ordered, VertexPermutation._from_images(_scatter(range(1, v.n + 1), ranked))


def elementary_values(k: int, v: PointVector) -> list[Fraction]:
    """``[e_0, ..., e_k]``, e_j the sum of all j-fold products of distinct entries.

    One product recurrence, O(n*k) steps: after the first i entries, ``e[j]``
    is the j-th elementary symmetric value of those entries, so only j <= i moves.
    """
    if not 1 <= k <= v.n:
        raise ValueError(f"need 1 <= k <= {v.n}, got k={k}")
    e = [Fraction(1)] + [Fraction(0)] * k
    for i, value in enumerate(v.values, start=1):
        for j in range(min(i, k), 0, -1):
            e[j] += e[j - 1] * value
    return e


def elementary_symmetric(k: int, v: PointVector) -> Fraction:
    """Sum of all k-fold products of distinct entries of v."""
    return elementary_values(k, v)[k]
