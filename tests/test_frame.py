import math
import random
from fractions import Fraction
from itertools import combinations

import pytest

from paircanon.frame import (
    CanonResult,
    _children,
    _coset_leaders,
    _split,
    _twin_classes,
    canonical_form,
    canonical_form_bruteforce,
    canonical_form_pruned,
    is_isomorphic,
)
from paircanon.pairgroup import (
    EdgeVector,
    GroupSizeError,
    VertexPermutation,
    _Group,
    _group_table,
    act,
    induced_pair_action,
)

from oracles import (
    all_actions,
    all_simple_vectors,
    children_by_full_split,
    frame_coset_check,
    generating_set_by_scan,
    lex_pairs,
    minimizers_by_levels,
    naive_canonical,
    orbit_of,
    random_permutation,
    random_rational_weights,
    random_simple_weights,
    twin_classes,
    twin_graph_weights,
    zero_vector,
)

P4 = EdgeVector(4, (1, 0, 0, 1, 0, 1))
STAR = EdgeVector(4, (1, 1, 1, 0, 0, 0))
TRIANGLE_PLUS_ISOLATED = EdgeVector(4, (0, 0, 0, 1, 1, 1))


def as_fracs(ints):
    return tuple(Fraction(v) for v in ints)


# ----------------------------------------------------------- brute force


def test_zero_vector_n4():
    result = canonical_form_bruteforce(zero_vector(4))
    assert result.canonical == zero_vector(4)
    assert result.frame == VertexPermutation((1, 2, 3, 4))
    assert result.aut_order == 24
    assert result.orbit_size == 1


def test_p4_path():
    # frozen from the matrix-route brute force over all 24 relabelings
    result = canonical_form_bruteforce(P4)
    assert result.canonical.weights == as_fracs((0, 0, 1, 1, 0, 1))
    assert result.frame.images == (1, 4, 3, 2)
    assert result.aut_order == 2
    assert {a.images for a in result.automorphisms} == {(1, 2, 3, 4), (4, 3, 2, 1)}


def test_triangle_plus_isolated_is_fixed_point():
    result = canonical_form_bruteforce(TRIANGLE_PLUS_ISOLATED)
    assert result.canonical == TRIANGLE_PLUS_ISOLATED
    assert result.frame == VertexPermutation((1, 2, 3, 4))
    assert result.aut_order == 6


def test_k4_constant_vector():
    k4 = EdgeVector(4, (1,) * 6)
    result = canonical_form_pruned(k4)
    assert result.canonical == k4
    assert result.frame == VertexPermutation((1, 2, 3, 4))
    assert result.aut_order == 24


def test_bruteforce_matches_matrix_oracle_exhaustive_n4():
    for w in all_simple_vectors(4):
        result = canonical_form_bruteforce(EdgeVector(4, w))
        best, sigma, auts = naive_canonical(4, w)
        assert result.canonical.weights == best
        assert result.frame.images == sigma
        assert sorted(a.images for a in result.automorphisms) == auts


def test_bruteforce_matches_matrix_oracle_random_n5():
    rng = random.Random(23)
    for _ in range(25):
        w = random_rational_weights(rng, 10)
        result = canonical_form_bruteforce(EdgeVector(5, w))
        best, sigma, auts = naive_canonical(5, w)
        assert result.canonical.weights == best
        assert result.frame.images == sigma
        assert sorted(a.images for a in result.automorphisms) == auts


def test_bruteforce_matches_matrix_oracle_on_close_weights_n6():
    # 1/3 and 1/3 + 2^-70 agree on floor(w * 2^64), the first key of the rank
    # step both engines share, and so do -1/3 and -1/3 + 2^-70: the Fraction
    # order alone tells them apart; repeats and negatives mixed in
    third, tiny = Fraction(1, 3), Fraction(1, 2**70)
    pool = [third, third + tiny, -third, -third + tiny, Fraction(-2), Fraction(0)]
    for a, b in ((pool[0], pool[1]), (pool[2], pool[3])):
        assert (a.numerator << 64) // a.denominator == (b.numerator << 64) // b.denominator
    rng = random.Random(59)
    for _ in range(12):
        values = pool[: rng.randrange(2, 7)]
        w = tuple(rng.choice(values) for _ in range(15))
        result = canonical_form_bruteforce(EdgeVector(6, w))
        best, sigma, auts = naive_canonical(6, w)
        assert result.canonical.weights == best
        assert result.frame.images == sigma
        assert sorted(a.images for a in result.automorphisms) == auts


def test_bruteforce_respects_max_n():
    x = EdgeVector(5, (0,) * 10)
    with pytest.raises(GroupSizeError):
        canonical_form_bruteforce(x, max_n=4)


# -------------------------------------------------------- result contract


def test_canon_result_invariants_random():
    rng = random.Random(29)
    group = all_actions(4)
    for _ in range(20):
        x = EdgeVector(4, random_simple_weights(rng, 6))
        result = canonical_form_bruteforce(x)
        # the frame actually reaches the canonical vector
        assert act(induced_pair_action(result.frame), x) == result.canonical
        # lex-minimality over the whole group
        images = [act(tau, x).weights for tau in group]
        assert result.canonical.weights == min(images)
        # automorphisms form a subgroup and satisfy orbit-stabilizer
        auts = result.automorphisms
        assert VertexPermutation((1, 2, 3, 4)) in auts
        for a in auts:
            assert a.inverse() in auts
            for b in auts:
                assert a.compose(b) in auts
            assert act(induced_pair_action(a), x) == x
        assert len({act(tau, x) for tau in group}) * len(auts) == math.factorial(4)


def test_stabilizer_is_exactly_the_fixing_set():
    rng = random.Random(31)
    group = all_actions(4)
    for _ in range(10):
        x = EdgeVector(4, random_simple_weights(rng, 6))
        expected = {tau.source for tau in group if act(tau, x) == x}
        assert canonical_form_bruteforce(x).automorphisms == frozenset(expected)


# ---------------------------------------------------------- pruned engine


@pytest.mark.parametrize("n", (3, 4))
def test_pruned_agrees_with_bruteforce_exhaustive_simple(n):
    for w in all_simple_vectors(n):
        x = EdgeVector(n, w)
        assert canonical_form_pruned(x) == canonical_form_bruteforce(x)


@pytest.mark.parametrize("n", (5, 6, 7, 8))
def test_pruned_agrees_with_bruteforce_random(n):
    rng = random.Random(37 + n)
    m = n * (n - 1) // 2
    for _ in range(40):
        x = EdgeVector(n, random_rational_weights(rng, m))
        assert canonical_form_pruned(x) == canonical_form_bruteforce(x)


def test_pruned_handles_repeated_weights():
    rng = random.Random(41)
    for _ in range(40):
        # small weight pool forces heavy ties, the hard case for pruning
        w = tuple(Fraction(rng.randrange(3)) for _ in range(10))
        x = EdgeVector(5, w)
        assert canonical_form_pruned(x) == canonical_form_bruteforce(x)


def test_pruned_agrees_with_bruteforce_three_value_pool_n8():
    rng = random.Random(53)
    values = sorted({Fraction(p, q) for p in range(-4, 5) for q in (1, 2, 3)})
    for _ in range(20):
        pool = rng.sample(values, 3)
        x = EdgeVector(8, tuple(rng.choice(pool) for _ in range(28)))
        assert canonical_form_pruned(x) == canonical_form_bruteforce(x)


# the 5-cycle 1-2-3-4-5 with vertex 1 doubled by its twin 6, joined to 2 and
# 5: Aut, of order 4, is the twin swap times a reflection the search must find
DOUBLED_C5 = EdgeVector(6, (1, 0, 0, 1, 0, 1, 0, 0, 1, 1, 0, 0, 1, 0, 1))


@pytest.mark.parametrize("n", (3, 4, 5, 6, 7, 8))
def test_pruned_agrees_with_bruteforce_on_weighted_twins(n):
    # fewer groups than vertices, so some have twins; internal weights other
    # than 0 and 1, one per group
    rng = random.Random(47 + n)
    inputs = [
        EdgeVector(n, twin_graph_weights(rng, n, rng.randrange(1, min(n - 1, 4) + 1)))
        for _ in range(12)
    ]
    if n == 6:
        inputs.append(DOUBLED_C5)
    for x in inputs:
        assert twin_classes(n, x.weights)
        assert canonical_form_pruned(x) == canonical_form_bruteforce(x)


@pytest.mark.parametrize("n", (3, 4, 5, 6, 7, 8))
def test_pruned_agrees_with_bruteforce_on_perturbed_twins(n):
    # one or two weights of a twin graph changed: some twins survive, some
    # classes split, and the twin-cell leaves must still reach brute force's
    # vector, frame and group
    rng = random.Random(83 + n)
    values = [0, 1, Fraction(1, 2), Fraction(5, 2)]
    for _ in range(12):
        weights = list(twin_graph_weights(rng, n, rng.randrange(1, min(n - 1, 3) + 1)))
        for s in rng.sample(range(len(weights)), rng.randrange(1, 3)):
            weights[s] = rng.choice(values)
        x = EdgeVector(n, weights)
        pruned, brute = canonical_form_pruned(x), canonical_form_bruteforce(x)
        assert pruned == brute and pruned.aut_order == brute.aut_order, x
        if n <= 7:
            assert pruned.automorphisms == brute.automorphisms



def _mixed_twin_graphs(rng):
    """Seeded twin graphs on 6 to 8 vertices whose Aut also moves classes.

    Two joined stars of three leaves, with one leaf of each star re-weighted
    alike or one weight between a leaf of each star changed, and K_a,a,
    a = 3 or 4, with one cross weight changed: a swap of the two sides
    survives and exchanges twin classes.  K_3,3 also comes with a seventh
    vertex joined to all the others, which keeps the swap.
    """
    values = [Fraction(1, 2), Fraction(5, 2), Fraction(-3, 2), 2]
    graphs = []
    for family, size, apex in (("stars", 3, 0), ("Kaa", 3, 0), ("Kaa", 3, 1), ("Kaa", 4, 0)):
        n = 2 * size + (2 if family == "stars" else apex)
        for _ in range(4):
            leaf, hub, cut = rng.sample(values, 3)
            W = {}
            if family == "stars":  # centres 0 and 4, leaves 1..3 and 5..7
                W[0, 4] = hub
                for c in (0, 4):
                    for i in (1, 2, 3):
                        W[c, c + i] = leaf
                if rng.randrange(2):
                    a = rng.randrange(1, 4)
                    W[0, a] = W[4, 4 + a] = cut
                else:
                    W[rng.randrange(1, 4), rng.randrange(5, 8)] = cut
            else:  # sides 0..size-1 and size..2*size-1
                for i in range(size):
                    for j in range(size, 2 * size):
                        W[i, j] = leaf
                W[rng.randrange(size), rng.randrange(size, 2 * size)] = cut
                if apex:
                    for i in range(n - 1):
                        W[i, n - 1] = hub
            graphs.append(EdgeVector(n, tuple(W.get((i - 1, j - 1), 0) for i, j in lex_pairs(n))))
    return graphs


def test_pruned_agrees_with_bruteforce_on_perturbed_twins_with_class_swaps():
    # the groups mix twin classes with an automorphism the search must find
    # that exchanges classes: Aut is larger than the classes' product
    for x in _mixed_twin_graphs(random.Random(97)):
        classes = twin_classes(x.n, x.weights)
        pruned, brute = canonical_form_pruned(x), canonical_form_bruteforce(x)
        assert classes and brute.aut_order > math.prod(math.factorial(len(c)) for c in classes)
        assert pruned.canonical == brute.canonical and pruned.frame == brute.frame, x
        assert pruned.aut_order == brute.aut_order
        assert pruned.generators == brute.generators
        if x.n <= 7:
            assert pruned.automorphisms == brute.automorphisms

def _rank_matrix(x):
    """The rank matrix of the search, with a zero diagonal."""
    n = x.n
    R = [[0] * n for _ in range(n)]
    for (i, j), r in zip(combinations(range(n), 2), x.ranks):
        R[i][j] = R[j][i] = r
    return R


def _root_twin_classes(x):
    """``_twin_classes`` on the rank matrix of the search."""
    twin_of = _twin_classes(_rank_matrix(x))
    return [c for u, c in enumerate(twin_of) if c[0] == u and len(c) > 1]


def test_twin_classes_match_the_pairwise_oracle():
    rng = random.Random(89)
    inputs = [EdgeVector(40, tuple(int(j - i in (1, 39)) for i, j in lex_pairs(40)))]  # C40
    for n in range(3, 11):
        for _ in range(8):
            weights = list(twin_graph_weights(rng, n, rng.randrange(1, min(n, 7))))
            weights[rng.randrange(len(weights))] = rng.choice((0, 1, Fraction(1, 3)))
            inputs.append(EdgeVector(n, weights))
            inputs.append(EdgeVector(n, random_simple_weights(rng, n * (n - 1) // 2)))
    for n in range(11, 41):
        inputs.append(EdgeVector(n, twin_graph_weights(rng, n, rng.randrange(1, 7))))
    for x in inputs:
        assert _root_twin_classes(x) == twin_classes(x.n, x.weights), x


def test_children_match_the_full_split_oracle():
    # random ordered partitions of some of the vertices, cells in random order,
    # over twin-rich, three-value and 0/1 rank matrices
    rng = random.Random(97)
    for case in range(600):
        n = rng.randrange(3, 13)
        m = n * (n - 1) // 2
        if case % 3 == 0:
            weights = twin_graph_weights(rng, n, rng.randrange(1, min(n, 5)))
        elif case % 3 == 1:
            pool = rng.sample([Fraction(p, 3) for p in range(-4, 5)], 3)
            weights = tuple(rng.choice(pool) for _ in range(m))
        else:
            weights = random_simple_weights(rng, m)
        R = _rank_matrix(EdgeVector(n, weights))
        twin_of = _twin_classes(R)
        vertices = rng.sample(range(n), rng.randrange(2, n + 1))
        cuts = sorted(rng.sample(range(1, len(vertices)), rng.randrange(len(vertices) - 1)))
        cells = [vertices[a:b] for a, b in zip([0, *cuts], [*cuts, len(vertices)])]
        full = children_by_full_split(R, cells[0], cells[1:], twin_of)
        least = min(row for row, _, _ in full)
        kept = [(u, child_cells) for row, u, child_cells in full if row == least]
        row, vertices = _children(R, cells, twin_of)
        children = [(u, _split(R, u, cells, row)) for u in vertices]
        assert (row, children) == (least, kept), (weights, cells)


def test_twin_only_group_at_500_vertices():
    # `n 500` plus one edge: the classes {1, 2} and {3..500} are all of Aut,
    # read off without a stabilizer chain of 124,251 transpositions
    n = 500
    x = EdgeVector._from_ranks(n, (Fraction(0), Fraction(1)), (1,) + (0,) * (n * (n - 1) // 2 - 1))
    result = canonical_form_pruned(x)
    assert result.aut_order == 2 * math.factorial(498)
    assert len(result.generators) == 498
    assert result.frame.images == (499, 500, *range(1, 499))
    assert result.canonical.weights[-1] == 1 and sum(result.canonical.weights) == 1


def _simple_graph_n8(adjacent):
    return EdgeVector(8, tuple(int(adjacent(i, j)) for i, j in lex_pairs(8)))


@pytest.mark.parametrize(
    "x, order",
    [
        (zero_vector(8), 40320),
        (_simple_graph_n8(lambda i, j: True), 40320),
        (_simple_graph_n8(lambda i, j: (i <= 4) != (j <= 4)), 2 * 24 * 24),  # K4,4
        (_simple_graph_n8(lambda i, j: i == 1), 5040),  # K1,7
        (_simple_graph_n8(lambda i, j: j - i in (1, 7)), 16),  # the 8-cycle
        (EdgeVector(8, (Fraction(-2, 3),) * 28), 40320),
    ],
    ids=["empty8", "complete8", "K4,4", "K1,7", "cycle8", "constant8"],
)
def test_pruned_agrees_with_bruteforce_on_large_groups_n8(x, order):
    # brute force builds its chain from the stabilizer it enumerates, here up
    # to all 8! relabelings; the search finds the same group from a few, and
    # answers a graph whose vertices are all twins at its root
    brute, pruned = canonical_form_bruteforce(x), canonical_form_pruned(x)
    assert brute.canonical == pruned.canonical and brute.frame == pruned.frame
    assert brute.aut_order == pruned.aut_order == order
    assert brute.generators == pruned.generators


def _edges_vector(n, edges):
    """The simple graph on 0-based vertices 0..n-1 with the given edges."""
    edges = {frozenset(e) for e in edges}
    return EdgeVector(n, tuple(int({i, j} in edges) for i, j in combinations(range(n), 2)))


def _oracle_inputs_n9_to_12():
    rng = random.Random(101)
    inputs = []
    for n in (9, 10, 11, 12):
        m = n * (n - 1) // 2
        pool = rng.sample([Fraction(p, 3) for p in range(-4, 5)], 3)
        inputs += [
            EdgeVector(n, random_rational_weights(rng, m)),
            EdgeVector(n, random_simple_weights(rng, m)),  # G(n, 1/2)
            EdgeVector(n, tuple(rng.choice(pool) for _ in range(m))),  # three values
            EdgeVector(n, twin_graph_weights(rng, n, 6)),  # weighted twins, |Aut| 48..1440
            _edges_vector(n, [(v, rng.randrange(v)) for v in range(1, n)]),  # random recursive tree
        ]
    return inputs + [
        _edges_vector(10, [(c + i, c + (i + 1) % 5) for c in (0, 5) for i in range(5)]),  # 2C5
        _edges_vector(12, [(c + i, c + (i + 1) % 6) for c in (0, 6) for i in range(6)]),  # 2C6
        _edges_vector(10, [(2 * i, 2 * i + 1) for i in range(5)]),  # the 5-pair matching
        # a tree on which skipping children by an automorphism that moves the
        # labelled prefix, not only by those fixing it, misses the least vector
        _edges_vector(9, enumerate([0, 1, 0, 1, 3, 3, 2, 5], start=1)),
    ]


def test_pruned_agrees_with_the_level_oracle_n9_to_12():
    # past brute force's reach: every minimizer, found level by level without
    # automorphisms or twins, gives the vector, the frame, |Aut| (up to 3840
    # here) and, through the scan's definition, the greedy generators
    for x in _oracle_inputs_n9_to_12():
        canonical, minimizers = minimizers_by_levels(x)
        frame = minimizers[0]
        automorphisms = [frame.inverse().compose(m) for m in minimizers]
        assert all(act(induced_pair_action(g), x) == x for g in automorphisms), x
        result = canonical_form_pruned(x)
        assert result.canonical == canonical and result.frame == frame, x
        assert result.aut_order == len(minimizers), x
        assert list(result.generators) == generating_set_by_scan(automorphisms), x


def test_bruteforce_hands_the_chain_one_element_per_coset():
    # the whole S_5, ascending: one leader for each first moved point k and
    # image j > k, the 10 coset representatives down its stabilizer chain
    leaders = _coset_leaders([images for images, _ in _group_table(5)])
    keys = [next((k, g[k]) for k in range(5) if g[k] != k) for g in leaders]
    assert sorted(keys) == [(k, j) for k in range(5) for j in range(k + 1, 5)]


def test_pruned_scales_past_the_enumeration_limit():
    # no group materialization: n=9 would be 362880 elements for brute force
    rng = random.Random(43)
    x = EdgeVector(9, random_rational_weights(rng, 36, distinct=True))
    result = canonical_form_pruned(x)
    assert act(induced_pair_action(result.frame), x) == result.canonical
    assert result.aut_order == 1


def test_results_with_a_proper_subgroup_of_aut_are_unequal():
    # rebuilt from one generator of Sym(5), the empty graph's Aut: same vector
    # and frame, but the chain holds a group of order 2
    result = canonical_form_pruned(zero_vector(5))
    gens = [tuple(v - 1 for v in g.images) for g in result.generators]
    partial = CanonResult(result.canonical, result.frame, _Group(5, gens[:1]))
    assert (partial.aut_order, result.aut_order) == (2, 120)
    assert partial != result and result != partial
    assert CanonResult(result.canonical, result.frame, _Group(5, gens)) == result


def test_engine_dispatch():
    assert canonical_form(P4, engine="brute") == canonical_form(P4, engine="pruned")
    with pytest.raises(ValueError):
        canonical_form(P4, engine="fast")


# ------------------------------------------------- idempotence, constancy


def test_idempotence_exhaustive_n4():
    for w in all_simple_vectors(4):
        can = canonical_form_pruned(EdgeVector(4, w)).canonical
        again = canonical_form_pruned(can)
        assert again.canonical == can
        assert again.frame == VertexPermutation((1, 2, 3, 4))


@pytest.mark.parametrize("n", (5, 6, 7))
def test_idempotence_sampled(n):
    rng = random.Random(47 + n)
    m = n * (n - 1) // 2
    for _ in range(10):
        can = canonical_form_pruned(EdgeVector(n, random_rational_weights(rng, m))).canonical
        again = canonical_form_pruned(can)
        assert again.canonical == can
        assert again.frame == VertexPermutation(tuple(range(1, n + 1)))


def test_orbit_constancy_exhaustive_n4():
    rng = random.Random(53)
    group = all_actions(4)
    for _ in range(20):
        x = EdgeVector(4, random_simple_weights(rng, 6))
        can = canonical_form_pruned(x).canonical
        for tau in group:
            assert canonical_form_pruned(act(tau, x)).canonical == can


def test_orbit_constancy_exhaustive_group_n5():
    rng = random.Random(59)
    group = all_actions(5)
    for _ in range(5):
        x = EdgeVector(5, random_rational_weights(rng, 10))
        can = canonical_form_pruned(x).canonical
        for tau in group:
            assert canonical_form_pruned(act(tau, x)).canonical == can


# ------------------------------------------------- invariant coordinates


def test_invariantize_equals_canonical_weights():
    iv = canonical_form(P4).canonical.weights
    assert iv == as_fracs((0, 0, 1, 1, 0, 1))
    assert iv == canonical_form_pruned(P4).canonical.weights


def test_invariantize_orbit_constant_exhaustive_n4():
    rng = random.Random(61)
    group = all_actions(4)
    for _ in range(20):
        x = EdgeVector(4, random_rational_weights(rng, 6))
        iv = canonical_form(x).canonical.weights
        for tau in group:
            assert canonical_form(act(tau, x)).canonical.weights == iv


def test_invariantize_preserves_multiset():
    rng = random.Random(67)
    for n in (4, 5, 6):
        m = n * (n - 1) // 2
        for _ in range(20):
            x = EdgeVector(n, random_rational_weights(rng, m))
            assert sorted(canonical_form(x).canonical.weights) == sorted(x.weights)


# ---------------------------------------------------------- completeness


@pytest.mark.parametrize("n", (4, 5))
def test_completeness_random_pairs(n):
    rng = random.Random(71 + n)
    m = n * (n - 1) // 2
    for k in range(40):
        x = EdgeVector(n, random_rational_weights(rng, m))
        if k % 2 == 0:
            tau = induced_pair_action(VertexPermutation(random_permutation(rng, n)))
            y = act(tau, x)
        else:
            y = EdgeVector(n, random_rational_weights(rng, m))
        same_invariants = (
            canonical_form(x).canonical.weights == canonical_form(y).canonical.weights
        )
        same_orbit = y.weights in orbit_of(n, x.weights)
        assert same_invariants == same_orbit


# ----------------------------------------------------------- is_isomorphic


def test_isomorphic_relabelings_and_witness():
    rng = random.Random(73)
    for n in (4, 5, 6):
        m = n * (n - 1) // 2
        for _ in range(30):
            x = EdgeVector(n, random_rational_weights(rng, m))
            tau = induced_pair_action(VertexPermutation(random_permutation(rng, n)))
            y = act(tau, x)
            found, witness = is_isomorphic(x, y)
            assert found
            assert act(induced_pair_action(witness), x) == y


def test_not_isomorphic_p4_star():
    # both have three edges but different degree multisets
    found, witness = is_isomorphic(P4, STAR)
    assert not found and witness is None
    assert canonical_form_pruned(STAR).canonical.weights == as_fracs((0, 0, 1, 0, 1, 1))


def test_self_isomorphism_witness_is_automorphism():
    result = canonical_form_pruned(P4)
    found, witness = is_isomorphic(P4, P4)
    assert found
    assert witness in result.automorphisms


def test_is_isomorphic_rejects_mismatched_n():
    with pytest.raises(ValueError):
        is_isomorphic(P4, zero_vector(5))


# ------------------------------------------------------ frame equivariance


def test_exact_equivariance_on_distinct_weights():
    rng = random.Random(79)
    group = all_actions(5)
    for _ in range(10):
        x = EdgeVector(5, random_rational_weights(rng, 10, distinct=True))
        rho_x = canonical_form_pruned(x).frame
        for tau in rng.sample(group, 20):
            rho_y = canonical_form_pruned(act(tau, x)).frame
            assert rho_y == rho_x.compose(tau.source.inverse())
            assert frame_coset_check(x, tau)


def test_coset_check_p4_all_group_elements():
    for tau in all_actions(4):
        assert frame_coset_check(P4, tau)


def test_coset_check_zero_vector():
    for tau in all_actions(4):
        assert frame_coset_check(zero_vector(4), tau)


# ------------------------------------------ piecewise structure of the map


def _monotone_remap(rng, weights):
    """Random strictly increasing remapping of the weight values."""
    levels = sorted(set(weights))
    new = []
    value = Fraction(rng.randrange(-50, 0))
    for _ in levels:
        value += Fraction(rng.randrange(1, 20), rng.randrange(1, 7))
        new.append(value)
    table = dict(zip(levels, new))
    return tuple(table[w] for w in weights)


def test_frame_stable_under_order_preserving_perturbation():
    rng = random.Random(83)
    for n in (4, 5):
        m = n * (n - 1) // 2
        for _ in range(25):
            # mix of repeated and distinct values
            w = tuple(Fraction(rng.randrange(4)) for _ in range(m))
            x = EdgeVector(n, w)
            x2 = EdgeVector(n, _monotone_remap(rng, w))
            r1 = canonical_form_pruned(x)
            r2 = canonical_form_pruned(x2)
            assert r1.frame == r2.frame
            assert r1.automorphisms == r2.automorphisms
            assert sorted(r1.canonical.weights) == sorted(w)


#: strictly increasing maps of the weights used below, which lie in [-30, 30]
MONOTONE_MAPS = {
    "affine": lambda w: 3 * w + Fraction(1, 7),
    "cubic": lambda w: w**3 + w,
    "reciprocal": lambda w: -1 / (w + 31),
}


@pytest.mark.parametrize("name", MONOTONE_MAPS)
def test_monotone_map_commutes_with_canonization(name):
    # both engines compare weights only by their order, so for a strictly
    # increasing f the canonical vector of f(x) is f of that of x, and the
    # frame and Aut do not move: the canonical coordinates are piecewise
    # coordinate projections, one piece per cell of the arrangement x_s = x_t
    f = MONOTONE_MAPS[name]
    rng = random.Random(name)
    cases = [(n, engine) for n in range(3, 8) for engine in ("brute", "pruned")]
    cases += [(n, "pruned") for n in (10, 20, 30)]
    for n, engine in cases:
        m = n * (n - 1) // 2
        for pool in (2, 3, m) * 2:  # simple graphs, heavy ties, mostly distinct
            levels = [Fraction(rng.randrange(-90, 91), 3) for _ in range(pool)]
            x = EdgeVector(n, tuple(rng.choice(levels) for _ in range(m)))
            r = canonical_form(x, engine=engine)
            rf = canonical_form(EdgeVector(n, tuple(map(f, x.weights))), engine=engine)
            assert rf.canonical.weights == tuple(map(f, r.canonical.weights))
            assert rf.frame == r.frame
            assert rf.aut_order == r.aut_order
            assert rf.generators == r.generators
