"""The public contract of the immutable value types: construction and its
errors, immutability, equality and hashing, order, repr, copy and pickle."""

import copy
import pickle
from fractions import Fraction

import pytest

from paircanon.frame import CanonResult, canonical_form
from paircanon.pairgroup import EdgeVector, PairAction, VertexPermutation
from paircanon.sortframe import PointVector

P3 = EdgeVector(3, (1, 0, "1/2"))
SWAP = VertexPermutation((2, 1, 3))


def _values():
    """One instance of each value type, and the name of one of its fields."""
    return [
        (SWAP, "images"),
        (P3, "weights"),
        (PairAction(SWAP), "source"),
        (PointVector(("3", 1)), "values"),
        (canonical_form(P3), "frame"),
    ]


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: VertexPermutation((1, 1)), ValueError, "not a permutation of 1..2: (1, 1)"),
        (lambda: VertexPermutation(()), ValueError, "not a permutation of 1..0: ()"),
        (lambda: VertexPermutation((1.0,)), TypeError, None),
        (lambda: EdgeVector(2, ()), ValueError, "need n >= 3, got n=2"),
        (lambda: EdgeVector(3, (1, 0)), ValueError, "expected 3 weights for n=3, got 2"),
        (lambda: EdgeVector(3.0, (1, 0, 0)), TypeError, None),
        (lambda: EdgeVector(3, (0.5, 0, 0)), TypeError, None),
        (lambda: PairAction(VertexPermutation((2, 1))), ValueError, "need n >= 3, got n=2"),
        (lambda: PointVector(()), ValueError, "empty vector"),
        (lambda: PointVector(("x",)), ValueError, "not an exact rational literal: 'x'"),
    ],
)
def test_constructor_errors(build, error, message):
    with pytest.raises(error) as exc:
        build()
    if message is not None:
        assert str(exc.value) == message


def test_fields_by_keyword_and_conversion():
    assert VertexPermutation(images=[2, 1, 3]).images == (2, 1, 3)
    x = EdgeVector(n=3, weights=[1, 0, "1/2"])
    assert x.weights == (Fraction(1), Fraction(0), Fraction(1, 2)) and x == P3
    assert PairAction(source=SWAP).index_map == (1, 3, 2)
    assert PointVector(values=["1/2", 1]).values == (Fraction(1, 2), Fraction(1))
    result = canonical_form(P3)
    rebuilt = CanonResult(canonical=result.canonical, frame=result.frame, group=result.group)
    assert rebuilt.max_n == 8 and rebuilt == result


@pytest.mark.parametrize("value, field", _values())
def test_immutable(value, field):
    before = repr(value)
    with pytest.raises(AttributeError):
        setattr(value, field, getattr(value, field))
    with pytest.raises(AttributeError):
        delattr(value, field)
    with pytest.raises(AttributeError):
        value.other = 1
    assert repr(value) == before


@pytest.mark.parametrize("value, field", _values())
def test_equal_and_hash_by_value_copy_and_pickle(value, field):
    for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert twin is not value
        assert twin == value and not twin != value and hash(twin) == hash(value)
        with pytest.raises(AttributeError):
            setattr(twin, field, getattr(value, field))


def test_equality_compares_the_fields_within_one_class():
    assert VertexPermutation((2, 1, 3)) == SWAP and VertexPermutation((1, 2, 3)) != SWAP
    assert EdgeVector(3, (1, 0, Fraction(1, 2))) == P3 and EdgeVector(3, (1, 0, 0)) != P3
    assert PointVector((1, 2)) != PointVector((2, 1))
    assert PairAction(SWAP) != PairAction(VertexPermutation((1, 3, 2)))
    # instances of different classes are never equal, whatever their fields hold
    assert VertexPermutation((1, 2)) != PointVector((1, 2))
    assert PointVector((1, 2)) != VertexPermutation((1, 2))
    assert SWAP != SWAP.images and SWAP.__eq__(SWAP.images) is NotImplemented
    assert P3 != (3, P3.weights) and PairAction(SWAP) != SWAP


def test_pair_actions_compare_by_source_only():
    a, b = PairAction(SWAP), PairAction(SWAP)
    object.__setattr__(b, "index_map", ())  # a map no action derives
    assert a == b and hash(a) == hash(b)


def test_permutations_sort_by_images():
    perms = [VertexPermutation(p) for p in [(3, 1, 2), (1, 2, 3), (2, 3, 1), (1, 3, 2)]]
    assert [p.images for p in sorted(perms)] == sorted(p.images for p in perms)
    assert VertexPermutation((1, 2)) < VertexPermutation((2, 1)) <= VertexPermutation((2, 1))
    assert VertexPermutation((2, 1)) > VertexPermutation((1, 2)) >= VertexPermutation((1, 2))
    with pytest.raises(TypeError):
        VertexPermutation((1, 2)) < (2, 1)


def test_repr():
    assert repr(SWAP) == "VertexPermutation(images=(2, 1, 3))"
    assert repr(P3) == (
        "EdgeVector(n=3, weights=(Fraction(1, 1), Fraction(0, 1), Fraction(1, 2)))"
    )
    assert repr(PairAction(SWAP)) == (
        "PairAction(source=VertexPermutation(images=(2, 1, 3)), index_map=(1, 3, 2))"
    )
    assert repr(PointVector(("3", "-1/2"))) == (
        "PointVector(values=(Fraction(3, 1), Fraction(-1, 2)))"
    )
    # the group is left out
    assert repr(canonical_form(P3)) == (
        "CanonResult(canonical=EdgeVector(n=3, weights=(Fraction(0, 1), Fraction(1, 2), "
        "Fraction(1, 1))), frame=VertexPermutation(images=(2, 3, 1)), max_n=8)"
    )
