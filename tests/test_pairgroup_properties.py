"""Property tests of the twin product, generated by Hypothesis.

A group that is the product of the symmetric groups of disjoint classes is
read off the classes by ``_TwinProduct``; the stabilizer chain of the same
classes is the reference it must answer as.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from paircanon import pairgroup


@st.composite
def twin_products(draw):
    """n <= 9, disjoint ascending classes of two or more points, and a permutation."""
    n = draw(st.integers(1, 9))
    labels = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    classes: dict[int, list[int]] = {}
    for point, label in enumerate(labels):
        classes.setdefault(label, []).append(point)
    twins = [c for c in classes.values() if len(c) > 1]
    return n, twins, tuple(draw(st.permutations(range(n))))


@settings(deadline=None, database=None, max_examples=300)
@given(twin_products())
def test_twin_product_answers_as_its_chain(case):
    n, twins, c = case
    product, chain = pairgroup._TwinProduct(n, twins), pairgroup._Chain(n, (), twins)
    assert product.order == chain.order
    assert product.coset_min(c) == chain.coset_min(c)
    assert product.greedy_generators() == chain.greedy_generators()
    if product.order <= 40320:
        assert sorted(product.elements()) == sorted(chain.elements())
