"""Checks of the row-refinement engine beyond the reach of brute force.

Above n = 8 the brute-force engine cannot run, so these tests rely on
metamorphic relations (relabel, then canonize again), automorphism groups of
known order, generating sets frozen from an earlier release, and the absence
of recursion in the search.
"""

import json
import math
import random
import sys
import time
from fractions import Fraction
from itertools import combinations

import pytest

from paircanon.cli import main
from paircanon.frame import canonical_form_pruned
from paircanon.graphio import emit_weighted
from paircanon.pairgroup import (
    EdgeVector,
    VertexPermutation,
    act,
    generating_set,
    induced_pair_action,
)

from oracles import frame_coset_check, lex_pairs, random_permutation, zero_vector


def graph(n, edges):
    """Simple graph on 1..n with the given edges."""
    edges = {(min(i, j), max(i, j)) for i, j in edges}
    return EdgeVector(n, tuple(int(pair in edges) for pair in lex_pairs(n)))


def cycle(n):
    return graph(n, [(i, i % n + 1) for i in range(1, n + 1)])


def twin_cycle(c, k):
    """The c-cycle with each vertex replaced by k non-adjacent twins: vertex v
    lies over cycle vertex (v - 1) % c, so no class has consecutive labels."""
    n = c * k
    edges = [(v, w) for v, w in combinations(range(1, n + 1), 2) if (w - v) % c in (1, c - 1)]
    return graph(n, edges)


def complete_bipartite(a, b):
    return graph(a + b, [(i, j) for i in range(1, a + 1) for j in range(a + 1, a + b + 1)])


PETERSEN = graph(
    10,
    [(i, i % 5 + 1) for i in range(1, 6)]
    + [(i, i + 5) for i in range(1, 6)]
    + [(i + 5, (i + 1) % 5 + 6) for i in range(1, 6)],
)


def _gnp(rng, n):
    return EdgeVector(n, tuple(rng.randrange(2) for _ in range(n * (n - 1) // 2)))


def _distinct(rng, n):
    m = n * (n - 1) // 2
    return EdgeVector(n, tuple(Fraction(v, 3) for v in rng.sample(range(-2 * m, 2 * m), m)))


def _three_values(rng, n):
    levels = (Fraction(-1, 3), Fraction(0), Fraction(2))
    return EdgeVector(n, tuple(rng.choice(levels) for _ in range(n * (n - 1) // 2)))


@pytest.mark.parametrize(
    "family", [_gnp, _distinct, _three_values], ids=["gnp", "distinct", "three_values"]
)
@pytest.mark.parametrize("n", [10, 17, 25, 40])
def test_relabeling_keeps_vector_and_group(family, n):
    rng = random.Random(f"{family.__name__}-{n}")
    x = family(rng, n)
    rx = canonical_form_pruned(x)
    for _ in range(3):
        tau = induced_pair_action(VertexPermutation(random_permutation(rng, n)))
        ry = canonical_form_pruned(act(tau, x))
        assert ry.canonical == rx.canonical
        assert ry.aut_order == rx.aut_order
        assert frame_coset_check(x, tau)


@pytest.mark.parametrize(
    "x, order",
    [
        (cycle(12), 2 * 12),
        (complete_bipartite(3, 5), math.factorial(3) * math.factorial(5)),
        (PETERSEN, 120),
        (zero_vector(7), math.factorial(7)),
    ],
    ids=["C12", "K3,5", "Petersen", "empty7"],
)
def test_known_automorphism_group_orders(x, order):
    result = canonical_form_pruned(x)
    assert result.aut_order == order
    assert all(act(induced_pair_action(p), x) == x for p in result.automorphisms)


@pytest.mark.parametrize(
    "x, order",
    [
        (zero_vector(30), math.factorial(30)),
        (graph(30, combinations(range(1, 31), 2)), math.factorial(30)),
        (complete_bipartite(1, 29), math.factorial(29)),
        (complete_bipartite(15, 15), 2 * math.factorial(15) ** 2),
        (cycle(30), 2 * 30),
        # twin classes closed under the rotations and reflections the search
        # finds; too large for test_known_automorphism_group_orders to enumerate
        (twin_cycle(5, 3), math.factorial(3) ** 5 * 10),
        (twin_cycle(7, 3), math.factorial(3) ** 7 * 14),
        # twin classes give these groups without search: each canonizes in
        # under a second, where searching for S_150 took about 30 s
        (zero_vector(150), math.factorial(150)),
        (graph(150, combinations(range(1, 151), 2)), math.factorial(150)),
        (complete_bipartite(1, 149), math.factorial(149)),
        (complete_bipartite(75, 75), 2 * math.factorial(75) ** 2),
    ],
    ids=["empty30", "complete30", "K1,29", "K15,15", "C30", "C5[3]", "C7[3]"]
    + ["empty150", "complete150", "K1,149", "K75,75"],
)
def test_large_symmetric_groups(x, order, tmp_path, capsys):
    start = time.perf_counter()
    result = canonical_form_pruned(x)
    assert result.aut_order == order
    assert result.orbit_size == math.factorial(x.n) // order
    path = tmp_path / "x.txt"
    path.write_text(emit_weighted(x))
    assert main(["canon", "--json", str(path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["aut_order"] == order
    assert payload["aut_generators"]
    for images in payload["aut_generators"]:
        assert act(induced_pair_action(VertexPermutation(tuple(images))), x) == x
    rng = random.Random(f"relabel-{order}")
    tau = induced_pair_action(VertexPermutation(random_permutation(rng, x.n)))
    assert frame_coset_check(x, tau)
    relabeled = canonical_form_pruned(act(tau, x))
    assert relabeled.canonical == result.canonical
    assert relabeled.aut_order == order
    assert time.perf_counter() - start < 10


# generating sets as printed by the prefix-pruned engine this one replaced
FROZEN_GENERATORS = [
    (
        zero_vector(6),
        [
            (1, 2, 3, 4, 6, 5),
            (1, 2, 3, 5, 4, 6),
            (1, 2, 4, 3, 5, 6),
            (1, 3, 2, 4, 5, 6),
            (2, 1, 3, 4, 5, 6),
        ],
    ),
    (
        complete_bipartite(2, 4),
        [
            (1, 2, 3, 4, 6, 5),
            (1, 2, 3, 5, 4, 6),
            (1, 2, 4, 3, 5, 6),
            (2, 1, 3, 4, 5, 6),
        ],
    ),
    (cycle(6), [(1, 6, 5, 4, 3, 2), (2, 1, 6, 5, 4, 3)]),
]


@pytest.mark.parametrize("x, expected", FROZEN_GENERATORS, ids=["empty6", "K2,4", "C6"])
def test_generators_frozen(x, expected):
    automorphisms = sorted(canonical_form_pruned(x).automorphisms)
    assert [g.images for g in generating_set(automorphisms)] == expected


def _stack_depth():
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    return depth


def test_search_does_not_recurse():
    # on a path the partition becomes discrete only near the bottom, so the
    # search goes about n levels deep
    n = 150
    x = graph(n, [(i, i + 1) for i in range(1, n)])
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 100)
    try:
        result = canonical_form_pruned(x)
    finally:
        sys.setrecursionlimit(limit)
    assert result.aut_order == 2
    assert result.canonical.weights.count(1) == n - 1
