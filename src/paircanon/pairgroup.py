"""Vertex permutations, their induced action on edge positions, and edge vectors.

A graph on n vertices is stored as the vector of its C(n,2) edge weights in
lexicographic pair order (1,2) < (1,3) < ... < (n-1,n).  Relabeling the
vertices by a permutation of {1..n} shuffles the edge positions; the group of
those induced position permutations, acting on weight vectors, is what the
rest of the package canonizes against.  All scalars are exact rationals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations
from typing import Iterable

#: Default bound on n for operations that enumerate all n! group elements.
DEFAULT_MAX_N = 8


class GroupSizeError(ValueError):
    """An operation would enumerate a group beyond the configured limit."""


def _exact(value) -> Fraction:
    """Coerce a scalar to an exact rational; binary floats are refused."""
    if isinstance(value, float):
        raise TypeError(
            "float weights are not accepted; pass an int, a Fraction, or an "
            "exact literal string such as '1/3' or '0.25'"
        )
    if isinstance(value, Fraction):
        return value
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not an exact rational literal: {value!r}") from exc


@dataclass(frozen=True, order=True)
class VertexPermutation:
    """A bijection of {1..n} in one-line notation: images[i-1] is the image of i."""

    images: tuple[int, ...]

    def __post_init__(self):
        images = tuple(int(v) for v in self.images)
        object.__setattr__(self, "images", images)
        n = len(images)
        if n < 1 or sorted(images) != list(range(1, n + 1)):
            raise ValueError(f"not a permutation of 1..{n}: {images}")

    @property
    def n(self) -> int:
        return len(self.images)

    @classmethod
    def identity(cls, n: int) -> VertexPermutation:
        return cls(tuple(range(1, n + 1)))

    def __call__(self, i: int) -> int:
        if not 1 <= i <= self.n:
            raise ValueError(f"vertex label out of range 1..{self.n}: {i}")
        return self.images[i - 1]

    def compose(self, other: VertexPermutation) -> VertexPermutation:
        """self after other: ``self.compose(other)(i) == self(other(i))``."""
        if self.n != other.n:
            raise ValueError(f"degree mismatch: {self.n} vs {other.n}")
        return VertexPermutation(tuple(self.images[v - 1] for v in other.images))

    def inverse(self) -> VertexPermutation:
        inv = [0] * self.n
        for i, v in enumerate(self.images, start=1):
            inv[v - 1] = i
        return VertexPermutation(tuple(inv))

    def is_identity(self) -> bool:
        return all(v == i for i, v in enumerate(self.images, start=1))


def pair_index(i: int, j: int, n: int) -> int:
    """1-based rank of the pair (i, j), i < j, in lexicographic pair order."""
    if not 1 <= i < j <= n:
        raise ValueError(f"need 1 <= i < j <= n, got i={i}, j={j}, n={n}")
    # pairs (1,*) fill the first n-1 slots, (2,*) the next n-2, and so on
    return (i - 1) * (2 * n - i) // 2 + (j - i)


def index_pair(s: int, n: int) -> tuple[int, int]:
    """Inverse of :func:`pair_index`: the pair sitting at position s."""
    m = n * (n - 1) // 2
    if not 1 <= s <= m:
        raise ValueError(f"position out of range 1..{m}: {s}")
    i = 1
    while s > n - i:
        s -= n - i
        i += 1
    return i, i + s


@dataclass(frozen=True)
class EdgeVector:
    """Edge weights of a graph on n >= 3 vertices, in lexicographic pair order.

    Weights are exact rationals; a simple graph is the special case where
    every weight is 0 or 1.
    """

    n: int
    weights: tuple[Fraction, ...]

    def __post_init__(self):
        if self.n < 3:
            raise ValueError(f"need n >= 3, got n={self.n}")
        weights = tuple(_exact(w) for w in self.weights)
        m = self.n * (self.n - 1) // 2
        if len(weights) != m:
            raise ValueError(
                f"expected {m} weights for n={self.n}, got {len(weights)}"
            )
        object.__setattr__(self, "weights", weights)

    @property
    def m(self) -> int:
        return len(self.weights)

    @classmethod
    def zero(cls, n: int) -> EdgeVector:
        return cls(n, (Fraction(0),) * (n * (n - 1) // 2))

    def weight(self, i: int, j: int) -> Fraction:
        """Weight of the edge {i, j} (either endpoint order)."""
        return self.weights[pair_index(min(i, j), max(i, j), self.n) - 1]

    def is_simple(self) -> bool:
        return all(w == 0 or w == 1 for w in self.weights)


def _induced_index_map(images: tuple[int, ...], n: int) -> tuple[int, ...]:
    """Position map induced by a vertex relabeling given in one-line notation."""
    imap = []
    for i, j in combinations(range(1, n + 1), 2):
        a, b = images[i - 1], images[j - 1]
        if a > b:
            a, b = b, a
        imap.append(pair_index(a, b, n))
    return tuple(imap)


@dataclass(frozen=True)
class PairAction:
    """The edge-position permutation induced by relabeling vertices by `source`.

    ``index_map[s-1]`` is where position s lands: the position holding the
    pair (i, j) is sent to the position of {source(i), source(j)}.
    """

    n: int
    source: VertexPermutation
    index_map: tuple[int, ...]

    def __post_init__(self):
        if self.n < 3:
            raise ValueError(f"need n >= 3, got n={self.n}")
        if self.source.n != self.n:
            raise ValueError(
                f"source permutes 1..{self.source.n} but n={self.n}"
            )
        index_map = tuple(int(v) for v in self.index_map)
        object.__setattr__(self, "index_map", index_map)
        m = self.n * (self.n - 1) // 2
        if sorted(index_map) != list(range(1, m + 1)):
            raise ValueError(f"index_map is not a permutation of 1..{m}")
        if index_map != _induced_index_map(self.source.images, self.n):
            raise ValueError("index_map is inconsistent with the source permutation")

    @property
    def m(self) -> int:
        return len(self.index_map)

    def __call__(self, s: int) -> int:
        if not 1 <= s <= self.m:
            raise ValueError(f"position out of range 1..{self.m}: {s}")
        return self.index_map[s - 1]

    def compose(self, other: PairAction) -> PairAction:
        """self after other, composing the vertex map and the position map alike."""
        if self.n != other.n:
            raise ValueError(f"degree mismatch: {self.n} vs {other.n}")
        imap = tuple(self.index_map[t - 1] for t in other.index_map)
        return PairAction(self.n, self.source.compose(other.source), imap)

    def inverse(self) -> PairAction:
        inv = [0] * self.m
        for s, t in enumerate(self.index_map, start=1):
            inv[t - 1] = s
        return PairAction(self.n, self.source.inverse(), tuple(inv))

    def is_identity(self) -> bool:
        return all(t == s for s, t in enumerate(self.index_map, start=1))


def induced_pair_action(sigma: VertexPermutation) -> PairAction:
    """The edge-position permutation induced by the vertex permutation sigma."""
    return PairAction(sigma.n, sigma, _induced_index_map(sigma.images, sigma.n))


def _check_enumerable(n: int, max_n: int) -> None:
    if n < 3:
        raise GroupSizeError(f"group enumeration needs n >= 3, got n={n}")
    if n > max_n:
        raise GroupSizeError(
            f"n={n} exceeds the enumeration limit max_n={max_n} "
            f"({math.factorial(n)} elements); pass a larger max_n to allow it"
        )


@lru_cache(maxsize=None)
def _group_table(n: int) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """All (vertex images, induced index_map) pairs, ascending by one-line order.

    Internal fast path shared by the enumerating canonizer and the averaging
    operator; cached because the table depends only on n.
    """
    return tuple(
        (images, _induced_index_map(images, n))
        for images in permutations(range(1, n + 1))
    )


def enumerate_group(n: int, max_n: int = DEFAULT_MAX_N) -> list[PairAction]:
    """All n! induced actions, identity first, ascending by source one-line order."""
    _check_enumerable(n, max_n)
    return [
        PairAction(n, VertexPermutation(images), imap)
        for images, imap in _group_table(n)
    ]


def act(action: PairAction, x: EdgeVector) -> EdgeVector:
    """Apply an induced position permutation to a weight vector.

    Position s of the input lands at position ``action(s)`` of the result, so
    the result holds the same multiset of weights rearranged the way a vertex
    relabeling rearranges edges.
    """
    if action.n != x.n:
        raise ValueError(f"dimension mismatch: action has n={action.n}, vector n={x.n}")
    out: list[Fraction | None] = [None] * x.m
    for s, t in enumerate(action.index_map):
        out[t - 1] = x.weights[s]
    return EdgeVector(x.n, tuple(out))


def _closure(
    gens: list[VertexPermutation], n: int, base: set[VertexPermutation] | None = None
) -> set[VertexPermutation]:
    """The group generated by gens and the group ``base`` (trivial when omitted).

    Dimino's algorithm: the result grows by whole right cosets of ``base``, one
    for each product of a coset representative and a generator not yet in it.
    """
    identity = VertexPermutation.identity(n)
    base = base or {identity}
    seen = set(base)
    reps = [identity]
    for r in reps:
        for g in gens:
            q = r.compose(g)
            if q not in seen:
                seen.update(h.compose(q) for h in base)
                reps.append(q)
    return seen


def generating_set(perms: Iterable[VertexPermutation]) -> list[VertexPermutation]:
    """A small deterministic generating set for a group of vertex permutations.

    Greedy: scan the elements in one-line order and keep each one not yet in
    the closure of the picks so far.  Returns [] for the trivial group.
    """
    elements = sorted(set(perms), key=lambda p: p.images)
    if not elements:
        raise ValueError("empty permutation collection")
    n = elements[0].n
    gens: list[VertexPermutation] = []
    closed = {VertexPermutation.identity(n)}
    for p in elements:
        if p in closed:
            continue
        gens.append(p)
        closed = _closure(gens, n, closed)
    return gens
