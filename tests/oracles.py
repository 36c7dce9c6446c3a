"""Independent reference implementations used to compute expected test values.

Everything here goes through symmetric adjacency matrices and raw index
arithmetic, deliberately avoiding the package's position-permutation
machinery, so agreement is a real cross-check rather than a tautology.
The exceptions are :func:`all_actions`, the package's induced actions listed
by ``itertools.permutations``; :func:`frame_coset_check`, which states the
frame's defining property in terms of the package's own canonizer and actions,
:func:`generating_set_by_scan`, the definition of the greedy generating set
on the package's vertex permutations, and :func:`parse_weighted_by_line`,
the edge-list parser written line by line.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, permutations

from paircanon.frame import canonical_form_pruned
from paircanon.graphio import ParseError
from paircanon.pairgroup import (
    EdgeVector,
    PairAction,
    VertexPermutation,
    act,
    induced_pair_action,
)


def lex_pairs(n):
    """All pairs (i, j), i < j, of {1..n} in lexicographic order."""
    return list(combinations(range(1, n + 1), 2))


def pair_position(i, j, n):
    """1-based position of the pair (i, j), i < j, found by enumerating the pairs."""
    return lex_pairs(n).index((i, j)) + 1


def all_actions(n):
    """The n! induced actions, ascending by one-line order of the source."""
    return [PairAction(VertexPermutation(p)) for p in permutations(range(1, n + 1))]


def matrix_of(n, weights):
    """Symmetric (n+1)x(n+1) matrix (1-based) from a row-lex weight sequence."""
    W = [[Fraction(0)] * (n + 1) for _ in range(n + 1)]
    for (i, j), w in zip(lex_pairs(n), weights):
        W[i][j] = W[j][i] = Fraction(w)
    return W


def relabeled_vector(n, weights, sigma):
    """Weight vector after relabeling vertex i as sigma[i-1], via the matrix."""
    W = matrix_of(n, weights)
    inv = [0] * (n + 1)
    for i, v in enumerate(sigma, start=1):
        inv[v] = i
    return tuple(W[inv[a]][inv[b]] for a, b in lex_pairs(n))


def naive_canonical(n, weights):
    """Brute-force (canonical vector, frame one-line, sorted automorphism list)."""
    x = tuple(Fraction(w) for w in weights)
    best = None
    best_sigma = None
    automorphisms = []
    for sigma in permutations(range(1, n + 1)):
        y = relabeled_vector(n, x, sigma)
        if best is None or y < best:
            best, best_sigma = y, sigma
        if y == x:
            automorphisms.append(sigma)
    return best, best_sigma, automorphisms


def orbit_of(n, weights):
    """The set of all relabelings of a weight vector."""
    x = tuple(Fraction(w) for w in weights)
    return {relabeled_vector(n, x, sigma) for sigma in permutations(range(1, n + 1))}


def all_simple_vectors(n):
    """All 2^C(n,2) simple weight tuples."""
    m = n * (n - 1) // 2
    out = []
    for mask in range(1 << m):
        out.append(tuple(Fraction((mask >> s) & 1) for s in range(m)))
    return out


def random_rational_weights(rng: random.Random, m: int, distinct: bool = False):
    """Random exact-rational weight tuple; optionally with all entries distinct."""
    while True:
        weights = tuple(
            Fraction(rng.randrange(-30, 31), rng.randrange(1, 13)) for _ in range(m)
        )
        if not distinct or len(set(weights)) == m:
            return weights


def random_simple_weights(rng: random.Random, m: int):
    return tuple(Fraction(rng.randrange(2)) for _ in range(m))


def random_permutation(rng: random.Random, n: int):
    images = list(range(1, n + 1))
    rng.shuffle(images)
    return tuple(images)


def elementary_symmetric_by_subsets(k, values):
    """e_k by its definition: the sum over all k-subsets of the product of entries."""
    total = Fraction(0)
    for subset in combinations(values, k):
        term = Fraction(1)
        for value in subset:
            term *= value
        total += term
    return total


def frame_coset_check(x: EdgeVector, action: PairAction) -> bool:
    """Check the frame's defining property along one group element.

    The composite frame(action.x) o action o frame(x)^-1 must fix the
    canonical vector of x.  With a trivial stabilizer this forces exact
    equivariance of the frame; with symmetries present it still pins the
    frame down to the correct stabilizer coset.
    """
    if action.n != x.n:
        raise ValueError(f"dimension mismatch: action has n={action.n}, vector n={x.n}")
    rx = canonical_form_pruned(x)
    ry = canonical_form_pruned(act(action, x))
    composite = induced_pair_action(
        ry.frame.compose(action.source).compose(rx.frame.inverse())
    )
    return act(composite, rx.canonical) == rx.canonical


def closure(
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


def generating_set_by_scan(perms) -> list[VertexPermutation]:
    """The greedy generating set by its definition, for a whole group ``perms``.

    Scan the elements in one-line order and keep each one not yet in the
    closure of the picks so far.  Returns [] for the trivial group.
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
        closed = closure(gens, n, closed)
    return gens


def parse_weighted_by_line(text: str) -> EdgeVector:
    """The edge-list parser as first written: one ``Fraction`` and one pair
    lookup per line, the reference for :func:`paircanon.parse_weighted`
    (which also refuses decimal exponents beyond +-4300 before converting)."""
    n = None
    weights = []
    seen = {}  # position -> line that set it
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if n is None:
            if len(fields) != 2 or fields[0] != "n":
                raise ParseError("expected header `n <count>`", lineno)
            try:
                n = int(fields[1])
            except ValueError:
                raise ParseError(f"bad vertex count: {fields[1]!r}", lineno) from None
            if n < 3:
                raise ParseError(f"need at least 3 vertices, got {n}", lineno)
            weights = [Fraction(0)] * (n * (n - 1) // 2)
            continue
        if len(fields) != 3:
            raise ParseError(f"expected `i j w`, got {line!r}", lineno)
        try:
            i, j = int(fields[0]), int(fields[1])
        except ValueError:
            raise ParseError(f"bad vertex label in {line!r}", lineno) from None
        if not (1 <= i <= n and 1 <= j <= n):
            raise ParseError(f"vertex label out of range 1..{n}: ({i}, {j})", lineno)
        if i >= j:
            raise ParseError(f"need i < j, got ({i}, {j})", lineno)
        try:
            w = Fraction(fields[2])
            if max(abs(w.numerator), w.denominator) >= 10**4300:
                raise ValueError  # more digits than CPython prints
        except (ValueError, ZeroDivisionError):
            raise ParseError(f"bad weight literal: {fields[2]!r}", lineno) from None
        s = pair_position(i, j, n)
        if s in seen:
            raise ParseError(
                f"duplicate pair ({i}, {j}), first set on line {seen[s]}", lineno
            )
        seen[s] = lineno
        weights[s - 1] = w
    if n is None:
        raise ParseError("empty input: missing `n <count>` header")
    return EdgeVector(n, tuple(weights))
