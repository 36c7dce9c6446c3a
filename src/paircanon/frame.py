"""Lexicographic canonization of edge vectors.

The canonical form of a weight vector is the lexicographically smallest
vector among all its relabelings.  Alongside it we report a frame: the
relabeling that reaches the minimum, made unique by picking the smallest
minimizer in one-line notation, plus the automorphism group Aut of the
input.  The minimizers form the coset frame.Aut, so the frame is the coset's
smallest element once Aut is known.  Two vectors have equal canonical forms
exactly when one is a relabeling of the other, so the canonical coordinates
are a complete isomorphism invariant.

Two engines compute the same result from the vector's ranks: a brute-force
minimum over all n! relabelings (the oracle, bounded by ``max_n``) and a
row-refinement search, in which each label settles one row.
The search records the automorphisms it meets and prunes with them, so it
visits far fewer leaves than |Aut|.  Twins, vertices with equal weights to
every other vertex, are found before the search branches: each class's
symmetric group lies in Aut, so the search labels one member of a class and
skips the rest, and a partition whose cells are twins is a leaf.  Aut is held
as the twin classes and a chain of the found automorphisms' action on them
(:class:`paircanon.pairgroup._Group`), enumerated only on request, up to
``max_n``! elements.
"""

from __future__ import annotations

import math
from functools import cached_property
from itertools import chain, combinations
from operator import attrgetter, mul

from .pairgroup import (
    DEFAULT_MAX_N,
    EdgeVector,
    GroupSizeError,
    VertexPermutation,
    _Group,
    _Value,
    _check_enumerable,
    _group_table,
    _orbit,
    _scatter,
)


class CanonResult(_Value):
    """Canonical vector, the frame reaching it, and the input's stabilizer Aut.

    Aut is held as its twin classes and a chain of its action on them.  Two
    results are equal when their vectors, frames and greedy generating sets
    are; the greedy set depends on the group alone, so equal sets mean equal
    groups.
    """

    __slots__ = ("canonical", "frame", "group", "max_n", "__dict__")  # __dict__: cached properties
    _fields = ("canonical", "frame", "max_n")
    _key = property(attrgetter("canonical", "frame", "generators"))

    def __init__(
        self, canonical: EdgeVector, frame: VertexPermutation, group: _Group, max_n: int = DEFAULT_MAX_N
    ):
        self._set(canonical=canonical, frame=frame, group=group, max_n=max_n)

    @property
    def aut_order(self) -> int:
        return self.group.order

    @property
    def orbit_size(self) -> int:
        """Number of distinct relabelings of the input (orbit-stabilizer)."""
        return math.factorial(self.canonical.n) // self.aut_order

    @cached_property
    def generators(self) -> tuple[VertexPermutation, ...]:
        """The greedy generating set of Aut (:meth:`_Group.greedy_generators`),
        which ``canon`` prints; () for the trivial group."""
        return tuple(self.group.greedy_generators())

    @cached_property
    def automorphisms(self) -> frozenset[VertexPermutation]:
        """Every automorphism, enumerated on first use; at most max_n! of them."""
        # Aut has at most n! elements, so a limit of n or more never binds
        n = self.canonical.n
        if self.max_n < n and self.aut_order > math.factorial(max(self.max_n, 0)):
            raise GroupSizeError(
                f"the automorphism group has more than {self.max_n}! elements "
                f"(enumeration limit max_n={self.max_n}); pass a larger max_n to allow it"
            )
        return frozenset(
            VertexPermutation._from_images(tuple(v + 1 for v in a)) for a in self.group.elements()
        )


def _result(
    x: EdgeVector, canonical, frame, automorphisms: list[tuple], max_n: int, classes=None
) -> CanonResult:
    """The result for a minimizer's ranks and frame and automorphisms, 0-based, and
    the twin classes: Aut is the group they generate, the frame the least of frame.Aut."""
    group = _Group(x.n, automorphisms, classes)
    return CanonResult(
        EdgeVector._from_ranks(x.n, x.levels, canonical),
        VertexPermutation._from_images(tuple(v + 1 for v in group.coset_min(frame))),
        group,
        max_n,
    )


def canonical_form_bruteforce(x: EdgeVector, max_n: int = DEFAULT_MAX_N) -> CanonResult:
    """Minimize over all n! relabelings; only viable within the enumeration limit."""
    _check_enumerable(x.n, max_n)
    ranks = x.ranks
    # the identity starts the minimum; first in the table, it heads the stabilizer
    best, best_images = ranks, tuple(range(1, x.n + 1))
    stabilizer = []
    for images, take in _group_table(x.n):
        y = take(ranks)
        # strict improvement only: the first minimizer seen is the one-line
        # lex-smallest because the table is in ascending one-line order
        if y < best:
            best, best_images = y, images
        if y == ranks:
            stabilizer.append(images)
    frame = tuple(v - 1 for v in best_images)
    return _result(x, best, frame, _coset_leaders(stabilizer), max_n)


def _coset_leaders(group: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """The first member of each coset of G_(k+1) in G_k but G_(k+1), as 0-based
    tuples, for a group listed ascending in one-line order (1-based): at most
    C(n,2) transversal elements, which generate it.  G_k, the members fixing
    1..k, is a prefix: G_(k+1), then its other cosets, |G_(k+1)| members each."""
    identity = group[0]
    leaders = []
    size = 1  # |G_(k+1)|, from the trivial G_(n-1) on
    for k in reversed(range(len(identity) - 1)):
        i = size
        while i < len(group) and group[i][:k] == identity[:k]:
            leaders.append(tuple(v - 1 for v in group[i]))
            i += size
        size = i
    return leaders


def canonical_form_pruned(x: EdgeVector, max_n: int = DEFAULT_MAX_N) -> CanonResult:
    """Row-refinement canonizer with automorphism pruning; agrees bit-exactly
    with the brute-force engine.

    Row k of the result lists the weights from the vertex labelled k+1 to those
    labelled k+2..n.  The search state is an ordered partition of the vertices
    without a label: rows 0..k-1 are smallest only if labels k+1..n go to the
    cells in order, so label k+1 goes to a member v of the first cell, which
    settles row k.  Only the siblings with the least row k survive, and entering
    one splits every cell by the weight to v, ascending.  The incumbent has rows
    0..n-1, the last empty: a branch above it is cut, a row k below it becomes
    its row k with top rows after, and a leaf replaces it when its rows are lower.

    A leaf whose rows equal the incumbent's gives an automorphism g, with
    g(incumbent's order[a]) = order[a].  The search then returns to the node
    where this leaf's path left the incumbent's: the subtree it leaves is the
    g-image of one already searched.  Each depth keeps one record for the
    current parent: how many automorphisms it has examined, those among them
    that fix the labelled prefix, and the explored children closed under
    those, which are skipped.  Twins, found from the rank matrix first, share
    a cell while unlabelled and give equal rows, so a node has one child per
    class, and an explored child marks its class seen, closed under the fixing
    automorphisms, which map classes onto classes.  A partition whose every
    cell is one vertex or twins of one class, the root included, is a leaf:
    twins have equal weights among themselves, so each completion gives the
    same rows.  It takes the one the single path beneath it would give, each
    cell's largest member first.  The classes' symmetric groups and the
    automorphisms found generate Aut.  The search runs on the integer ranks of
    the weights, with an explicit stack.
    """
    n = x.n
    R = [[0] * n for _ in range(n)]
    for (i, j), r in zip(combinations(range(n), 2), x.ranks):
        R[i][j] = R[j][i] = r

    order = [0] * n  # order[a] = original 0-based vertex given canonical label a+1
    top = (len(x.levels),)  # above every row, since every rank is below len(levels)
    # rows 0..n-1 of the incumbent (the last one empty), or of a prefix that beat
    # it then top rows; at every node its first depth rows are the current branch's
    best: list[tuple[int, ...]] = [top] * n
    best_order: list[int] = []  # the incumbent's leaf
    twin_of = _twin_classes(R)  # each vertex's class of twins
    classes = [c for u, c in enumerate(twin_of) if c[0] == u]  # by first member
    automorphisms: list[tuple[int, ...]] = []  # those the search found
    # per depth: (automorphisms examined, those fixing the parent's prefix, the
    # children explored under the current parent closed under those)
    tried: list[tuple | None] = [None] * (n + 1)
    stack = [(0, -1, [list(range(n))], ())]  # (depth, vertex labelled depth, parent's cells, row)
    while stack:
        depth, v, cells, row = stack.pop()
        if depth:
            count, fixing, seen = tried[depth]
            if count < len(automorphisms):
                prefix = order[: depth - 1]
                fixing += [g for g in automorphisms[count:] if all(g[u] == u for u in prefix)]
                seen = _orbit(seen, fixing)
                tried[depth] = (len(automorphisms), fixing, seen)
            if v in seen:
                continue
            if stack and stack[-1][0] == depth:  # a sibling is left to skip
                seen.update(_orbit(twin_of[v], fixing))
            order[depth - 1] = v
            cells = _split(R, v, cells, row)
        if len(cells) == n - depth or len(classes) < n and all(
            all(twin_of[w] is twin_of[cell[0]] for w in cell) for cell in cells
        ):
            # every row is forced: the cells are vertices or twins
            tail = _complete(R, cells, depth, order)
            if tail < best[depth:]:
                best[depth:], best_order = tail, order.copy()
            elif tail == best[depth:]:
                automorphisms.append(_scatter(order, [u + 1 for u in best_order]))
                # back to the node where this path leaves the incumbent's
                fork = next(a for a in range(n) if order[a] != best_order[a])
                while stack and stack[-1][0] > fork + 1:
                    stack.pop()
            continue
        least, kept = _children(R, cells, twin_of)
        if least > best[depth]:
            continue
        if least < best[depth]:
            best[depth:] = [least] + [top] * (n - 1 - depth)
        tried[depth + 1] = (0, [], set())
        stack += [(depth + 1, u, cells, least) for u in kept]

    frame = _scatter(range(n), [u + 1 for u in best_order])
    return _result(x, tuple(chain.from_iterable(best)), frame, automorphisms, max_n, classes)


def _children(R: list[list[int]], cells: list[list[int]], twin_of: list[list[int]]):
    """The least row among the children of an ordered partition, one for the
    last member of each twin class in the first cell, and the vertices whose
    children reach it, in first-cell order.  A row lists the ranks to the other
    unlabelled vertices, each cell's sorted; :func:`_split` builds a child's cells."""
    first, rest = cells[0], cells[1:]
    last = {twin_of[u][0]: u for u in first}
    # each row is led by Ru[u] = 0, the least rank, which [1] is above
    least, kept = [1], []
    for u in first:
        if last[twin_of[u][0]] == u:
            Ru = R[u]
            row = sorted(map(Ru.__getitem__, first))
            for cell in rest:
                if len(cell) == 1:
                    row.append(Ru[cell[0]])
                else:
                    row += sorted(map(Ru.__getitem__, cell))
            if row < least:
                least, kept = row, [u]
            elif row == least:
                kept.append(u)
    return tuple(least[1:]), kept


def _split(R: list[list[int]], u: int, cells: list[list[int]], row: tuple[int, ...]):
    """The cells of the child labelling u with ``row`` from :func:`_children`: each
    cell, u left out, split by the rank to u, ascending; one of one rank stays whole."""
    Ru, child_cells, b = R[u], [], 0
    for cell in filter(None, [[w for w in cells[0] if w != u]] + cells[1:]):
        a, b = b, b + len(cell)
        if row[a] == row[b - 1]:  # one rank to u: the cell stays whole
            child_cells.append(cell)
            continue
        groups: dict[int, list[int]] = {r: [] for r in row[a:b]}  # ascending, as in row
        for w in cell:
            groups[Ru[w]].append(w)
        child_cells += groups.values()
    return child_cells


def _complete(R: list[list[int]], cells: list[list[int]], depth: int, order: list[int]):
    """Label a partition of single vertices and twin cells in order, each cell's
    last member first, into order[depth:]; return rows depth..n-1, the last empty."""
    order[depth:] = tail = [w for cell in cells for w in reversed(cell)]
    return [tuple(map(R[u].__getitem__, tail[a + 1 :])) for a, u in enumerate(tail)]


def _twin_classes(R: list[list[int]]) -> list[list[int]]:
    """Each vertex's class of twins, vertices whose ranks to every other vertex
    agree, ascending and shared by its members; [u] when u has no twin.  Twins
    have equal row sums, so a vertex is compared only with the first member of
    each class of its row sum: being twins is transitive.

    Row u's key is the sum of R[u][w] * mix[w], made only for a row sum that
    two vertices share.  Twins a and u have equal rows but at a and u, where
    each holds R[a][u] against the other's 0 on the diagonal, so their keys
    differ by R[a][u] * (mix[u] - mix[a]): a pair failing that test is rejected
    at once, and one passing it is compared.
    """
    by_sum: dict[int, list[int]] = {}
    for u, Ru in enumerate(R):
        by_sum.setdefault(sum(Ru), []).append(u)
    twin_of = [[u] for u in range(len(R))]
    mix: list[int] = []
    for group in by_sum.values():
        if len(group) == 1:
            continue
        mix = mix or [(w * 0x9E3779B97F4A7C15) >> 32 & 0xFFFFFFFF for w in range(1, len(R) + 1)]
        classes: list[tuple[list[int], int]] = []  # (class, its first member's key)
        for u in group:
            Ru, key_u = R[u], sum(map(mul, R[u], mix))
            for c, key_a in classes:
                a = c[0]  # below u, as each group ascends
                if key_a - key_u != Ru[a] * (mix[u] - mix[a]):
                    continue
                Ra, lo, hi = R[a], a + 1, u + 1
                if Ra[:a] == Ru[:a] and Ra[lo:u] == Ru[lo:u] and Ra[hi:] == Ru[hi:]:
                    break
            else:
                c = []
                classes.append((c, key_u))
            c.append(u)
            twin_of[u] = c
    return twin_of


def canonical_form(
    x: EdgeVector, engine: str = "pruned", max_n: int = DEFAULT_MAX_N
) -> CanonResult:
    """Dispatch to the requested canonizer engine ("pruned" or "brute")."""
    if engine == "pruned":
        return canonical_form_pruned(x, max_n=max_n)
    if engine == "brute":
        return canonical_form_bruteforce(x, max_n=max_n)
    raise ValueError(f"unknown engine: {engine!r}")


def is_isomorphic(x: EdgeVector, y: EdgeVector) -> tuple[bool, VertexPermutation | None]:
    """Decide whether y is a relabeling of x.

    On success also returns a witness: a vertex permutation whose induced
    action sends x exactly to y (frame(y)^-1 composed with frame(x)).
    """
    if x.n != y.n:
        raise ValueError(f"vertex count mismatch: {x.n} vs {y.n}")
    rx = canonical_form_pruned(x)
    ry = canonical_form_pruned(y)
    if rx.canonical != ry.canonical:
        return False, None
    return True, ry.frame.inverse().compose(rx.frame)

