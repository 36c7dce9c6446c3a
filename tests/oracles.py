"""Independent reference implementations used to compute expected test values.

Everything here goes through symmetric adjacency matrices and raw index
arithmetic, deliberately avoiding the package's position-permutation
machinery, so agreement is a real cross-check rather than a tautology.
The one exception is :func:`frame_coset_check`, which states the frame's
defining property in terms of the package's own canonizer and actions.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, permutations

from paircanon.frame import canonical_form_pruned
from paircanon.pairgroup import EdgeVector, PairAction, act, induced_pair_action


def lex_pairs(n):
    """All pairs (i, j), i < j, of {1..n} in lexicographic order."""
    return list(combinations(range(1, n + 1), 2))


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
    composite = (
        induced_pair_action(ry.frame)
        .compose(action)
        .compose(induced_pair_action(rx.frame).inverse())
    )
    return act(composite, rx.canonical) == rx.canonical
