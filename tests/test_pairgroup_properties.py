"""Property tests of the automorphism-group type, generated by Hypothesis.

A ``_Group`` holds the symmetric group of each of its classes, extended by
generators that map classes onto classes, as the classes and a chain on the
class indices.  The Schreier-Sims chain of the same generators and the
transpositions of adjacent class members, sifted plainly, is the reference
it must answer as.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from paircanon import pairgroup

from oracles import twin_transpositions


@st.composite
def groups(draw):
    """n <= 9, every point's class ordered by first member, 0-2 generators
    that permute equal-size classes, and a permutation."""
    n = draw(st.integers(1, 9))
    labels = draw(st.lists(st.integers(0, draw(st.integers(0, n - 1))), min_size=n, max_size=n))
    by_label: dict[int, list[int]] = {}
    for point, label in enumerate(labels):
        by_label.setdefault(label, []).append(point)
    classes = sorted(by_label.values())
    by_size: dict[int, list[list[int]]] = {}
    for c in classes:
        by_size.setdefault(len(c), []).append(c)
    gens = []
    for _ in range(draw(st.integers(0, 2))):
        images = list(range(n))
        for same in by_size.values():
            for c, image in zip(same, draw(st.permutations(same))):
                for v, w in zip(c, draw(st.permutations(image))):
                    images[v] = w
        gens.append(tuple(images))
    return n, classes, gens, tuple(draw(st.permutations(range(n))))


@settings(deadline=None, database=None, max_examples=300)
@given(groups())
def test_group_answers_as_its_sifted_chain(case):
    n, classes, gens, c = case
    group = pairgroup._Group(n, gens, classes)
    sifted = gens + twin_transpositions(n, classes)
    chain = pairgroup._Chain(n, sifted)
    assert group.order == chain.order
    for level in range(n + 1):
        assert group.coset_min(c, level) == chain.coset_min(c, level)
    # with one point per class, the greedy set is the one-line scan of the chain
    assert group.greedy_generators() == pairgroup._Group(n, sifted).greedy_generators()
    if group.order <= 40320:
        assert sorted(group.elements()) == sorted(chain.elements())
