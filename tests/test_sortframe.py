import math
import random
from fractions import Fraction
from itertools import permutations

import pytest

from paircanon.pairgroup import VertexPermutation
from paircanon.sortframe import (
    PointVector,
    elementary_symmetric,
    elementary_values,
    sort_frame,
)

from oracles import elementary_symmetric_by_subsets, permuted, random_permutation


def pv(*values):
    return PointVector(tuple(Fraction(v) for v in values))


def moved(sigma, v):
    """v with the entry at position i moved to position sigma(i)."""
    return PointVector(permuted(v.values, sigma.images))


def random_point(rng, n, pool=12):
    return PointVector(
        tuple(Fraction(rng.randrange(-pool, pool), rng.randrange(1, 5)) for _ in range(n))
    )


def test_sort_basic():
    ordered, frame = sort_frame(pv(3, 1, 2))
    assert ordered == pv(1, 2, 3)
    assert moved(frame, pv(3, 1, 2)) == ordered


def test_constant_vector_gets_identity_frame():
    ordered, frame = sort_frame(pv(5, 5, 5))
    assert ordered == pv(5, 5, 5)
    assert frame == VertexPermutation((1, 2, 3))


def test_tied_values_take_lex_smallest_achiever():
    v = pv(2, 1, 2, 1)
    ordered, frame = sort_frame(v)
    assert ordered == pv(1, 1, 2, 2)
    # enumerate all 24 permutations, keep those that achieve the sorted
    # vector, and check the frame is the one-line lex minimum of them
    achievers = [
        images
        for images in permutations(range(1, 5))
        if moved(VertexPermutation(images), v) == ordered
    ]
    assert len(achievers) == 4
    assert frame.images == min(achievers) == (3, 1, 4, 2)


def test_order_statistics_orbit_constant():
    rng = random.Random(103)
    for _ in range(100):
        n = rng.randrange(1, 9)
        v = random_point(rng, n)
        sigma = VertexPermutation(random_permutation(rng, n))
        assert sort_frame(moved(sigma, v))[0] == sort_frame(v)[0]
        assert sorted(v.values) == list(sort_frame(v)[0].values)


def test_order_statistics_small():
    assert sort_frame(pv(0, -1))[0] == pv(-1, 0)


def test_exact_equivariance_on_distinct_entries():
    rng = random.Random(107)
    for _ in range(50):
        n = rng.randrange(2, 9)
        while True:
            v = random_point(rng, n, pool=40)
            if len(set(v.values)) == n:
                break
        _, frame = sort_frame(v)
        sigma = VertexPermutation(random_permutation(rng, n))
        _, moved_frame = sort_frame(moved(sigma, v))
        assert moved_frame == frame.compose(sigma.inverse())


def test_sorted_vector_constant_on_orbits_with_repeats():
    v = pv(1, 1, 2, 2, 3)
    for images in permutations(range(1, 6)):
        assert sort_frame(moved(VertexPermutation(images), v))[0] == pv(1, 1, 2, 2, 3)


def test_elementary_symmetric_values():
    v = pv(1, 2, 3)
    assert elementary_symmetric(1, v) == 6
    assert elementary_symmetric(2, v) == 11
    assert elementary_symmetric(3, v) == 6


def test_elementary_symmetric_matches_subset_sums():
    rng = random.Random(113)
    for n in range(1, 11):
        for _ in range(4):
            v = random_point(rng, n)
            for k in range(1, n + 1):
                assert elementary_symmetric(k, v) == elementary_symmetric_by_subsets(
                    k, v.values
                )


def test_elementary_values_match_subset_sums():
    # one pass gives every e_j, j <= k; zeros, negatives and coprime denominators
    rng = random.Random(127)
    for n in range(1, 13):
        values = tuple(
            Fraction(rng.randrange(-9, 10), rng.choice((1, 2, 3, 5, 7, 11))) for _ in range(n)
        )
        v = PointVector(values)
        expected = [elementary_symmetric_by_subsets(j, values) for j in range(n + 1)]
        assert elementary_values(n, v) == expected
        k = rng.randrange(1, n + 1)
        assert elementary_values(k, v) == expected[: k + 1]
        assert all(type(e) is Fraction for e in elementary_values(n, v))


def test_elementary_values_range_errors():
    v = pv(1, 2, 3)
    assert elementary_values(1, v) == [1, 6]
    for k in (0, 4):
        with pytest.raises(ValueError):
            elementary_values(k, v)


def test_elementary_symmetric_of_forty_ones_is_binomial():
    # 2^40 subsets: only a polynomial-time method finishes
    ones = PointVector((Fraction(1),) * 40)
    for k in range(1, 41):
        assert elementary_symmetric(k, ones) == math.comb(40, k)


def test_elementary_symmetric_recovered_from_order_statistics():
    rng = random.Random(109)
    for _ in range(100):
        n = rng.randrange(1, 9)
        v = random_point(rng, n)
        stats = sort_frame(v)[0]
        for k in range(1, n + 1):
            assert elementary_symmetric(k, v) == elementary_symmetric(k, stats)


def test_elementary_symmetric_range_errors():
    v = pv(1, 2, 3)
    with pytest.raises(ValueError):
        elementary_symmetric(0, v)
    with pytest.raises(ValueError):
        elementary_symmetric(4, v)


def test_point_vector_validation():
    with pytest.raises(ValueError):
        PointVector(())
    with pytest.raises(TypeError):
        PointVector((0.5,))
    assert PointVector(("1/2", "0.25")).values == (Fraction(1, 2), Fraction(1, 4))
