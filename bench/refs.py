"""Independent reference answers for checking the program's output.

Everything here works on plain 0-based adjacency matrices and raw index
arithmetic and never imports paircanon, so agreement with the program is a
cross-check rather than a tautology.  A matrix ``M`` is an ``n x n`` list of
lists with ``M[i][j] == M[j][i]``; a relabeling ``sigma`` is given in 1-based
one-line notation, ``sigma[i-1]`` being the new label of vertex ``i``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations
from operator import itemgetter


def pairs(n: int) -> list[tuple[int, int]]:
    """All 0-based pairs (i, j), i < j, in lexicographic order."""
    return list(combinations(range(n), 2))


def matrix(n: int, weight) -> list[list]:
    """Symmetric matrix with ``weight(i, j)`` on each pair i < j and 0 on the diagonal."""
    M = [[0] * n for _ in range(n)]
    for i, j in pairs(n):
        M[i][j] = M[j][i] = weight(i, j)
    return M


def vector(M) -> tuple:
    """The weights of M in lexicographic pair order."""
    return tuple(M[i][j] for i, j in pairs(len(M)))


def relabel(M, sigma) -> list[list]:
    """The matrix R with ``R[sigma(i)][sigma(j)] == M[i][j]``."""
    n = len(M)
    inv = [0] * n
    for i, v in enumerate(sigma):
        inv[v - 1] = i
    return [[M[inv[a]][inv[b]] for b in range(n)] for a in range(n)]


def is_permutation(images, n: int) -> bool:
    return sorted(images) == list(range(1, n + 1))


@lru_cache(maxsize=None)
def _relabelings(n: int) -> list[tuple[tuple[int, ...], itemgetter]]:
    """Each permutation of range(n) in ascending one-line order, with a getter
    that reads the relabeled vector off the input vector."""
    ps = pairs(n)
    index = {p: s for s, p in enumerate(ps)}
    table = []
    inv = [0] * n
    for p in permutations(range(n)):
        for i, v in enumerate(p):
            inv[v] = i
        sources = [index[min(inv[a], inv[b]), max(inv[a], inv[b])] for a, b in ps]
        table.append((p, itemgetter(*sources)))
    return table


def brute_canon(M) -> tuple[tuple, tuple[int, ...], int]:
    """(canonical vector, frame, automorphism count) by trying all n! relabelings.

    The canonical vector is the lexicographically smallest relabeled vector;
    the frame is its smallest minimizer in one-line order.  A vector with one
    weight value is fixed by every relabeling and is answered directly.
    """
    n = len(M)
    x = vector(M)
    if len(set(x)) == 1:
        return x, tuple(range(1, n + 1)), math.factorial(n)
    best = frame = None
    aut = 0
    for p, relabeled in _relabelings(n):
        y = relabeled(x)
        if best is None or y < best:
            best, frame = y, p
        if y == x:
            aut += 1
    return best, tuple(v + 1 for v in frame), aut


def weighted_text(M) -> str:
    """Edge-list text: ``n <count>`` then ``i j w`` for each nonzero pair in pair order.

    Entries are Fractions, or preformatted literal strings with a false
    value (None or "") standing for weight 0.
    """
    lines = [f"n {len(M)}"]
    for i, j in pairs(len(M)):
        w = M[i][j]
        if w:
            lines.append(f"{i + 1} {j + 1} {w}")
    return "\n".join(lines) + "\n"


def graph6_encode(M) -> str:
    """graph6 string of a 0/1 matrix: bits of column j over rows i < j, six per byte."""
    n = len(M)
    if n <= 62:
        head = [63 + n]
    else:
        head = [126, 63 + ((n >> 12) & 63), 63 + ((n >> 6) & 63), 63 + (n & 63)]
    bits = [1 if M[i][j] else 0 for j in range(1, n) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    body = [
        63 + int("".join(map(str, bits[k : k + 6])), 2) for k in range(0, len(bits), 6)
    ]
    return bytes(head + body).decode("ascii")


def graph6_decode(s: str) -> list[list[int]]:
    """0/1 matrix of a graph6 string with a one-byte size field."""
    data = s.strip().encode("ascii")
    n = data[0] - 63
    bits = [((b - 63) >> shift) & 1 for b in data[1:] for shift in range(5, -1, -1)]
    M = [[0] * n for _ in range(n)]
    k = 0
    for j in range(1, n):
        for i in range(j):
            M[i][j] = M[j][i] = bits[k]
            k += 1
    return M


def position_map(sigma) -> list[int]:
    """0-based position map induced on pair positions by relabeling with sigma."""
    n = len(sigma)
    index = {p: s for s, p in enumerate(pairs(n))}
    out = []
    for i, j in pairs(n):
        a, b = sigma[i] - 1, sigma[j] - 1
        out.append(index[(min(a, b), max(a, b))])
    return out


def move_exponents(exponents, pmap) -> tuple[int, ...]:
    """Exponent tuple after sending position s to ``pmap[s]``."""
    out = [0] * len(exponents)
    for s, e in enumerate(exponents):
        out[pmap[s]] = e
    return tuple(out)


def poly_from_roots(values) -> list[Fraction]:
    """Coefficients of prod (t - v), lowest degree first, by repeated multiplication."""
    coeffs = [Fraction(1)]
    for v in values:
        shifted = [Fraction(0)] + coeffs  # t * p(t)
        for k, c in enumerate(coeffs):
            shifted[k] -= v * c
        coeffs = shifted
    return coeffs
