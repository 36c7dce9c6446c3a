"""Lexicographic canonization of edge vectors.

The canonical form of a weight vector is the lexicographically smallest
vector among all its relabelings.  Alongside it we report a frame: the
relabeling that reaches the minimum, made unique by picking the smallest
minimizer in one-line notation, plus the full automorphism group of the
input.  Two vectors have equal canonical forms exactly when one is a
relabeling of the other, so the canonical coordinates are a complete
isomorphism invariant.

Two engines compute the same result: a brute-force minimum over all n!
relabelings (the oracle, bounded by ``max_n``) and a row-refinement search
over the integer ranks of the weights, in which each label settles one row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .pairgroup import (
    DEFAULT_MAX_N,
    EdgeVector,
    VertexPermutation,
    _check_enumerable,
    _group_table,
    _scatter,
)


@dataclass(frozen=True)
class CanonResult:
    """Canonical vector, one relabeling reaching it, and the input's stabilizer."""

    canonical: EdgeVector
    frame: VertexPermutation
    automorphisms: frozenset[VertexPermutation]

    @property
    def aut_order(self) -> int:
        return len(self.automorphisms)

    @property
    def orbit_size(self) -> int:
        """Number of distinct relabelings of the input (orbit-stabilizer)."""
        return math.factorial(self.canonical.n) // len(self.automorphisms)


@dataclass(frozen=True)
class InvariantVector:
    """Coordinates of the canonical representative; separates isomorphism classes."""

    values: tuple[Fraction, ...]


def canonical_form_bruteforce(x: EdgeVector, max_n: int = DEFAULT_MAX_N) -> CanonResult:
    """Minimize over all n! relabelings; only viable within the enumeration limit."""
    _check_enumerable(x.n, max_n)
    w = x.weights
    best: tuple[Fraction, ...] | None = None
    best_images: tuple[int, ...] | None = None
    stabilizer = []
    for images, imap in _group_table(x.n):
        y = _scatter(w, imap)
        # strict improvement only: the first minimizer seen is the one-line
        # lex-smallest because the table is in ascending one-line order
        if best is None or y < best:
            best, best_images = y, images
        if y == w:
            stabilizer.append(images)
    return CanonResult(
        EdgeVector(x.n, best),
        VertexPermutation(best_images),
        frozenset(VertexPermutation(p) for p in stabilizer),
    )


def canonical_form_pruned(x: EdgeVector) -> CanonResult:
    """Row-refinement canonizer; agrees bit-exactly with the brute-force engine.

    Row k of the result lists the weights from the vertex labelled k+1 to those
    labelled k+2..n.  The search state is an ordered partition of the vertices
    without a label: rows 0..k-1 are smallest only if labels k+1..n go to the
    cells in order, so label k+1 goes to a member of the first cell.  Choosing
    v splits every cell by the weight to v, ascending, which settles row k.
    Only the siblings with the smallest row k survive, and a branch whose rows
    exceed the incumbent's is cut.  Each leaf reproducing the best vector adds
    one automorphism: frame^-1 composed with its relabeling.  The search runs
    on the integer ranks of the weights, with an explicit stack, and visits at
    least one leaf per automorphism.
    """
    n = x.n
    # Fraction hashing and comparison run in Python: key by (numerator,
    # denominator) and sort on floor(w * 2^64) first, on Fraction order in a tie
    keys = [w.as_integer_ratio() for w in x.weights]
    levels = sorted(
        dict(zip(keys, x.weights)).values(),
        key=lambda w: ((w.numerator << 64) // w.denominator, w),
    )
    rank_of = {w.as_integer_ratio(): r for r, w in enumerate(levels)}
    R = [[0] * n for _ in range(n)]
    for (i, j), key in zip(combinations(range(n), 2), keys):
        R[i][j] = R[j][i] = rank_of[key]

    order = [0] * n  # order[a] = original 0-based vertex given canonical label a+1
    rows: list[tuple[int, ...]] = [()] * (n - 1)  # rows of the current branch
    best: list[tuple[int, ...]] | None = None  # rows of the incumbent
    minimizers: list[tuple[int, ...]] = []  # one-line images of minimizing relabelings
    # (depth, vertex labelled depth, its row, cells after it, below, incumbent
    # at push time); below: rows[:depth] < that incumbent's, or it was None
    stack = [(0, -1, (), [list(range(n))], True, None)]
    while stack:
        depth, v, row, cells, below, pushed_best = stack.pop()
        if depth:
            order[depth - 1] = v
            rows[depth - 1] = row
        if pushed_best is not best:
            # A leaf replaced the incumbent after this entry was pushed.  The
            # leaf descends from a sibling of this entry, and kept siblings
            # share rows[:depth], so the prefix now equals the incumbent's.
            below = False
        if len(cells) == n - depth:
            # discrete: the rest of the relabeling, and so every row, is forced
            for a, cell in enumerate(cells, start=depth):
                order[a] = cell[0]
            for a in range(depth, n - 1):
                Ra = R[order[a]]
                rows[a] = tuple(Ra[u] for u in order[a + 1 :])
            if below or rows[depth:] < best[depth:]:
                best = rows.copy()
                minimizers.clear()
            elif rows[depth:] != best[depth:]:
                continue
            minimizers.append(_scatter(range(1, n + 1), [u + 1 for u in order]))
            continue
        first, rest = cells[0], cells[1:]
        children = []
        for u in first:
            Ru = R[u]
            split = [[w for w in first if w != u]] + rest if len(first) > 1 else rest
            child_row: list[int] = []
            child_cells = []
            for cell in split:
                if len(cell) == 1:
                    child_row.append(Ru[cell[0]])
                    child_cells.append(cell)
                    continue
                groups: dict[int, list[int]] = {}
                for w in cell:
                    groups.setdefault(Ru[w], []).append(w)
                for r in sorted(groups):
                    child_row.extend([r] * len(groups[r]))
                    child_cells.append(groups[r])
            children.append((tuple(child_row), u, child_cells))
        least = min(child[0] for child in children)
        child_below = below
        if not below:
            if least > best[depth]:
                continue
            child_below = least < best[depth]
        for child_row, u, child_cells in children:
            if child_row == least:
                stack.append((depth + 1, u, child_row, child_cells, child_below, best))

    assert best is not None and minimizers
    frame = VertexPermutation(min(minimizers))
    frame_inv = frame.inverse().images
    automorphisms = frozenset(
        VertexPermutation(tuple(frame_inv[s - 1] for s in images)) for images in minimizers
    )
    canonical = tuple(levels[r] for best_row in best for r in best_row)
    return CanonResult(EdgeVector(n, canonical), frame, automorphisms)


def canonical_form(
    x: EdgeVector, engine: str = "pruned", max_n: int = DEFAULT_MAX_N
) -> CanonResult:
    """Dispatch to the requested canonizer engine ("pruned" or "brute")."""
    if engine == "pruned":
        return canonical_form_pruned(x)
    if engine == "brute":
        return canonical_form_bruteforce(x, max_n=max_n)
    raise ValueError(f"unknown engine: {engine!r}")


def invariantize(
    x: EdgeVector, engine: str = "pruned", max_n: int = DEFAULT_MAX_N
) -> InvariantVector:
    """The invariant coordinates of x: the entries of its canonical vector."""
    return InvariantVector(canonical_form(x, engine=engine, max_n=max_n).canonical.weights)


def is_isomorphic(
    x: EdgeVector,
    y: EdgeVector,
    engine: str = "pruned",
    max_n: int = DEFAULT_MAX_N,
) -> tuple[bool, VertexPermutation | None]:
    """Decide whether y is a relabeling of x.

    On success also returns a witness: a vertex permutation whose induced
    action sends x exactly to y (frame(y)^-1 composed with frame(x)).
    """
    if x.n != y.n:
        raise ValueError(f"vertex count mismatch: {x.n} vs {y.n}")
    rx = canonical_form(x, engine=engine, max_n=max_n)
    ry = canonical_form(y, engine=engine, max_n=max_n)
    if rx.canonical != ry.canonical:
        return False, None
    return True, ry.frame.inverse().compose(rx.frame)

