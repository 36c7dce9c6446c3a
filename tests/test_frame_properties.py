"""Property tests of an edge vector's levels and ranks, generated by Hypothesis.

``pairgroup._rank`` keys each weight by its (numerator, denominator) pair and
sorts the distinct values on floor(w * 2^64), breaking a tie by ``Fraction``
order.  A plain sort of the set of weights is the reference it must agree
with, on weights that share objects, repeat a value in distinct objects, or
differ by less than 2^-64, where the tie-break decides.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from paircanon.pairgroup import EdgeVector

from oracles import ranks_by_sorting


@st.composite
def edge_vectors(draw):
    """n <= 8, each weight one of a few base values: the base object itself,
    an equal value in a new object (1/2 as 2/4), or a value less than 2^-64
    away from it."""
    base = draw(st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=12), min_size=1))
    n = draw(st.integers(3, 8))
    weights = []
    for _ in range(n * (n - 1) // 2):
        w = draw(st.sampled_from(base))
        kind = draw(st.sampled_from(("shared", "equal", "close")))
        if kind == "equal":
            k = draw(st.integers(2, 5))
            w = Fraction(w.numerator * k, w.denominator * k)
        elif kind == "close":
            w += Fraction(draw(st.integers(-3, 3)), 2 ** draw(st.integers(65, 70)))
        weights.append(w)
    return EdgeVector(n, tuple(weights))


@settings(deadline=None, database=None, max_examples=300)
@given(edge_vectors())
def test_ranks_match_a_plain_sort(x):
    assert (x.ranks, list(x.levels)) == ranks_by_sorting(x.weights)
