import math
import random
import re
import time
import tracemalloc
from decimal import Decimal
from fractions import Fraction
from itertools import permutations

import pytest

from paircanon import pairgroup
from paircanon.graphio import parse_weighted
from paircanon.pairgroup import (
    EdgeVector,
    GroupSizeError,
    PairAction,
    VertexPermutation,
    act,
    generating_set,
    induced_pair_action,
)
from paircanon.polyinv import Polynomial
from paircanon.sortframe import PointVector

from oracles import (
    all_actions,
    all_simple_vectors,
    closure,
    generating_set_by_scan,
    is_simple,
    lex_pairs,
    random_permutation,
    random_rational_weights,
    twin_classes,
    twin_transpositions,
    zero_vector,
)


# ------------------------------------------------------------ pair order


def test_pair_index_examples():
    # the position of (a, b) is _row_offsets(n)[a] + b
    assert pairgroup._row_offsets(4)[1] + 2 == 1
    assert pairgroup._row_offsets(4)[3] + 4 == 6
    # rank of (2,3) among the 10 pairs of {1..5}, frozen from enumeration
    assert pairgroup._row_offsets(5)[2] + 3 == 5


@pytest.mark.parametrize("n", range(3, 9))
def test_pair_index_matches_enumeration(n):
    start = pairgroup._row_offsets(n)
    for rank, (i, j) in enumerate(lex_pairs(n), start=1):
        assert start[i] + j == rank


# ------------------------------------------------------- VertexPermutation


def test_vertex_permutation_validation():
    with pytest.raises(ValueError):
        VertexPermutation((1, 1, 2))
    with pytest.raises(ValueError):
        VertexPermutation((0, 1, 2))
    with pytest.raises(ValueError):
        VertexPermutation(())


@pytest.mark.parametrize("images", [(1.9, 2.2, 3), ("1", "2", "3")], ids=["float", "str"])
def test_vertex_permutation_refuses_non_integer_images(images):
    # int() would truncate (1.9, 2.2, 3) to the identity
    with pytest.raises(TypeError):
        VertexPermutation(images)


def test_compose_inverse_identity():
    rng = random.Random(7)
    for n in (3, 4, 5, 8):
        for _ in range(20):
            sigma = VertexPermutation(random_permutation(rng, n))
            assert sigma.compose(sigma.inverse()) == VertexPermutation(tuple(range(1, n + 1)))
            assert sigma.inverse().compose(sigma) == VertexPermutation(tuple(range(1, n + 1)))


def test_composition_order():
    # compose(a, b) means apply b first
    a = VertexPermutation((2, 3, 1))
    b = VertexPermutation((1, 3, 2))
    assert a.compose(b).images == tuple(a.images[b.images[i - 1] - 1] for i in (1, 2, 3))
    assert a.compose(b).images == (2, 1, 3)


# ------------------------------------------------------------- EdgeVector


def test_edge_vector_validation():
    with pytest.raises(ValueError):
        EdgeVector(2, (Fraction(0),))
    with pytest.raises(ValueError):
        EdgeVector(4, (0, 0, 0))
    with pytest.raises(TypeError):
        EdgeVector(4, (0.5, 0, 0, 0, 0, 0))


def test_edge_vector_refuses_a_float_vertex_count():
    # a float n used to be kept and to fail deep inside the search
    with pytest.raises(TypeError):
        EdgeVector(4.0, (0,) * 6)

    class Four:
        def __index__(self):
            return 4

    x = EdgeVector(Four(), (0,) * 6)
    assert type(x.n) is int and x == zero_vector(4)


@pytest.mark.parametrize("literal", ["1e999999999", "1e-999999999", "1e4300", "-1E-4300", "99e4299"])
def test_edge_vector_refuses_what_parse_weighted_refuses(literal):
    # one rule for an exact literal: an exponent beyond +-4300 is refused
    # before Fraction expands it, a value CPython cannot print after
    start = time.perf_counter()
    with pytest.raises(ValueError, match="not an exact rational literal"):
        EdgeVector(3, (literal, 0, 0))
    assert time.perf_counter() - start < 1.0
    assert EdgeVector(3, ("1e4299", "-1E-4299", 0)).weights[0] == 10**4299


@pytest.mark.parametrize(
    "build",
    [
        lambda: EdgeVector(3, (10**4300, 0, 0)),
        lambda: EdgeVector(3, (Fraction(1, 10**4300), 0, 0)),
        lambda: PointVector((10**4300,)),
        lambda: Polynomial.monomial((1, 0, 0), coeff=10**4300),
    ],
    ids=["int", "fraction", "point", "polynomial"],
)
def test_every_value_must_be_printable(build):
    # ints and Fractions follow the rule strings do; the message cannot show
    # the value, whose repr would exceed the same limit
    start = time.perf_counter()
    with pytest.raises(ValueError) as exc:
        build()
    assert time.perf_counter() - start < 1.0
    assert re.search(r"\d{4300}", str(exc.value)) is None
    assert "more than 4300 digits" in str(exc.value)


def test_edge_vector_exact_literals():
    x = EdgeVector(4, ("1/3", "0.25", 0, 1, "-2", Fraction(7, 2)))
    assert x.weights[0] == Fraction(1, 3)
    assert x.weights[1] == Fraction(1, 4)
    assert not is_simple(x)
    assert is_simple(EdgeVector(4, (1, 0, 0, 1, 0, 1)))


#: values with several spellings each: int, Fraction, Decimal and strings
_SPELLINGS = {
    Fraction(0): [0, "0", "-0", "0/7", Decimal("0"), Decimal("-0.00"), Fraction(0)],
    Fraction(1): [1, "1", "1.0", "3/3", Decimal("1"), Fraction(3, 3)],
    Fraction(-3): [-3, "-3", "-6/2", "-3e0", Decimal("-3.00"), Fraction(-3)],
    Fraction(1, 2): ["1/2", "0.5", "2/4", Decimal("0.5"), Decimal("0.50"), Fraction(1, 2)],
    Fraction(7, 4): ["7/4", "1.75", "175e-2", Decimal("1.75"), Fraction(7, 4)],
    Fraction(-1, 3): ["-1/3", "-2/6", Fraction(-1, 3)],
}


def test_edge_vectors_from_values_follow_the_parsers_rule(monkeypatch):
    # each distinct input object is converted once and the distinct values
    # ranked once, as parse_weighted converts each distinct literal: equal
    # values spelled differently, and one object at many pairs, give the
    # vector of a text that spells every value as p/q
    converted, original = [], pairgroup._exact

    def exact(value):
        converted.append(id(value))  # not the value, which would keep it alive
        return original(value)

    monkeypatch.setattr(pairgroup, "_exact", exact)
    rng = random.Random(30)
    for n in range(3, 13):
        m = n * (n - 1) // 2
        pool = rng.sample(sorted(_SPELLINGS), rng.randint(1, len(_SPELLINGS)))
        shared = [rng.choice(_SPELLINGS[v]) for v in pool]  # each met at many pairs
        values = [rng.choice(pool) for _ in range(m)]
        inputs = [
            shared[pool.index(v)] if rng.random() < 0.5 else rng.choice(_SPELLINGS[v])
            for v in values
        ]
        scale = rng.randint(1, 3)
        text = f"n {n}\n" + "".join(
            f"{i} {j} {scale * v.numerator}/{scale * v.denominator}\n"
            for (i, j), v in zip(lex_pairs(n), values)
            if v or rng.random() < 0.5
        )
        del converted[:]
        x = EdgeVector(n, inputs)
        assert len(converted) == len(set(converted)) == len({id(w) for w in inputs})
        assert x == parse_weighted(text), text
        assert x.levels == tuple(sorted(set(values)))
        assert all(type(w) is Fraction for w in x.levels)
        # fresh objects from a generator, each gone once numbered unless held:
        # an id reused by a later input must not number it as the earlier one
        assert EdgeVector(n, (Fraction(v) for v in values)) == x
        assert EdgeVector(n, (str(v) for v in values)) == x
        assert EdgeVector(n, (f"{k}/7" for k in range(m))).ranks == tuple(range(m))


@pytest.mark.parametrize(
    "weights, error, message",
    [
        ((0.5,), TypeError, "float weights are not accepted"),  # not the length error
        (("x", [1], 0), ValueError, "not an exact rational literal: 'x'"),
        (([1], 0, 0), TypeError, "argument should be a string or a Rational instance"),
        ((Decimal("sNaN"), 0, 0), ValueError, re.escape("literal: Decimal('sNaN')")),
        (({}, 0, 0), TypeError, "Rational instance"),  # an unhashable input
        ((0, 0), ValueError, "expected 3 weights for n=3, got 2"),
    ],
    ids=["float-first", "first-bad-literal", "list", "sNaN", "dict", "length"],
)
def test_edge_vector_errors_keep_their_type_message_and_order(weights, error, message):
    # the inputs are converted in order, each once, before the length check
    with pytest.raises(error, match=message):
        EdgeVector(3, weights)


def test_edge_vector_from_repeated_values_allocates_per_distinct_input():
    # n = 1000 and one edge: two input objects, converted once each; the
    # inputs held while numbered, the numbers and the ranks take 8 bytes a
    # pair each (12 MB in all), where a Fraction and a (numerator,
    # denominator) tuple per pair took 61.5 MB
    weights = [1] + [0] * 499499
    tracemalloc.start()
    try:
        x = EdgeVector(1000, weights)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert x.levels == (0, 1) and x.ranks[:2] == (1, 0)
    assert peak < 20 << 20


# ------------------------------------------------------ induced_pair_action


def test_induced_identity_n4():
    tau = induced_pair_action(VertexPermutation((1, 2, 3, 4)))
    assert tau.index_map == (1, 2, 3, 4, 5, 6)


def test_induced_transposition_12_n4():
    # brute-force table: swapping vertices 1,2 exchanges (1,3)<->(2,3) and
    # (1,4)<->(2,4) while fixing (1,2) and (3,4)
    tau = induced_pair_action(VertexPermutation((2, 1, 3, 4)))
    assert tau.index_map == (1, 4, 5, 2, 3, 6)
    # independent check against the defining rule, pair by pair
    sigma = (2, 1, 3, 4)
    for rank, (i, j) in enumerate(lex_pairs(4), start=1):
        a, b = sorted((sigma[i - 1], sigma[j - 1]))
        assert tau.index_map[rank - 1] == lex_pairs(4).index((a, b)) + 1


def test_pair_action_derives_its_map_from_the_source(monkeypatch):
    sigma = VertexPermutation((2, 1, 3, 4))
    # no map can be passed in, so none can disagree with the source
    with pytest.raises(TypeError):
        PairAction(4, sigma, (1, 2, 3, 4, 5, 6))
    with pytest.raises(ValueError):
        PairAction(VertexPermutation((2, 1)))
    calls = []
    original = pairgroup._induced_index_map
    monkeypatch.setattr(
        pairgroup, "_induced_index_map", lambda *a: calls.append(a) or original(*a)
    )
    action = PairAction(sigma)
    assert (action.n, action.index_map) == (4, (1, 4, 5, 2, 3, 6))
    assert action == induced_pair_action(sigma)
    PairAction(sigma.compose(sigma))
    PairAction(sigma.inverse())
    assert len(calls) == 4  # once per construction, never to re-check a map


@pytest.mark.parametrize("n", (3, 4))
def test_homomorphism_exhaustive(n):
    actions = {p: induced_pair_action(VertexPermutation(p)) for p in permutations(range(1, n + 1))}
    for p in actions:
        for q in actions:
            sp = VertexPermutation(p).compose(VertexPermutation(q))
            # the map of p after q is the raw composition of their maps
            raw = tuple(actions[p].index_map[t - 1] for t in actions[q].index_map)
            assert raw == actions[sp.images].index_map


@pytest.mark.parametrize("n", (5, 6, 7))
def test_homomorphism_sampled(n):
    rng = random.Random(100 + n)
    for _ in range(40):
        p = VertexPermutation(random_permutation(rng, n))
        q = VertexPermutation(random_permutation(rng, n))
        lhs = induced_pair_action(p.compose(q)).index_map
        a, b = induced_pair_action(p).index_map, induced_pair_action(q).index_map
        assert lhs == tuple(a[t - 1] for t in b)


@pytest.mark.parametrize("n", (3, 4))
def test_injectivity_exhaustive(n):
    maps = {induced_pair_action(VertexPermutation(p)).index_map
            for p in permutations(range(1, n + 1))}
    assert len(maps) == math.factorial(n)


# ------------------------------------------------------- group enumeration


def test_enumerate_group_sizes():
    assert len(pairgroup._group_table(3)) == 6
    g4 = pairgroup._group_table(4)
    actions = all_actions(4)
    assert len(g4) == len(actions) == 24
    # a vector of distinct entries: its image determines the position map
    v = tuple(range(10, 16))
    for (images, take), a in zip(g4, actions):
        assert images == a.source.images
        assert take(v) == pairgroup._scatter(v, a.index_map)
    assert len({take(v) for _, take in g4}) == 24
    assert g4[0][0] == (1, 2, 3, 4) and g4[0][1](v) == v


def test_enumerate_group_closure_n5():
    v = tuple(range(10, 20))
    group = [take for _, take in pairgroup._group_table(5)]
    assert len(group) == 120
    table = {take(v) for take in group}
    assert len(table) == 120
    rng = random.Random(11)
    for _ in range(100):
        a = group[rng.randrange(120)]
        b = group[rng.randrange(120)]
        # the composite gather a after b, as one table element would apply it
        assert a(b(v)) in table


@pytest.mark.parametrize("n", (3, 4, 5, 6, 7))
def test_group_table_gathers_equal_scatters(n):
    # every element's getter applies its induced action the one way, _scatter
    v = tuple(Fraction(k, 3) for k in range(n * (n - 1) // 2))
    for images, take in pairgroup._group_table(n):
        index_map = induced_pair_action(VertexPermutation(images)).index_map
        assert take(v) == pairgroup._scatter(v, index_map)


def test_group_table_gathers_equal_scatters_sampled_n8():
    table = pairgroup._group_table(8)
    v = tuple(Fraction(k, 3) for k in range(28))
    for images, take in random.Random(8).sample(table, 2000):
        index_map = induced_pair_action(VertexPermutation(images)).index_map
        assert take(v) == pairgroup._scatter(v, index_map)


@pytest.mark.parametrize("n", (3, 4, 5, 6, 7, 8))
def test_group_table_lists_each_element_once_in_order(n):
    table = pairgroup._group_table(n)
    assert len(table) == math.factorial(n)
    images = [images for images, _ in table]
    assert all(a < b for a, b in zip(images, images[1:]))
    # a vector of distinct entries: distinct gathers of it are distinct maps
    v = tuple(range(n * (n - 1) // 2))
    assert len({take(v) for _, take in table}) == len(table)


def test_enumerate_group_size_errors():
    # both enumerating callers check the size before building the table
    from paircanon.frame import canonical_form_bruteforce
    from paircanon.polyinv import Polynomial, reynolds

    with pytest.raises(GroupSizeError, match="n >= 3"):
        reynolds(Polynomial.monomial((1,)), 2)
    with pytest.raises(GroupSizeError):
        canonical_form_bruteforce(zero_vector(9))
    with pytest.raises(GroupSizeError):
        canonical_form_bruteforce(zero_vector(5), max_n=4)
    with pytest.raises(GroupSizeError, match="max_n"):
        # 1800! has more digits than int-to-str allows
        reynolds(Polynomial(1800 * 1799 // 2), 1800)
    assert canonical_form_bruteforce(zero_vector(5), max_n=5).aut_order == 120


# ------------------------------------------------------------------- act


def test_act_identity():
    x = EdgeVector(4, (1, 0, 0, 1, 0, 1))
    tau = induced_pair_action(VertexPermutation((1, 2, 3, 4)))
    assert act(tau, x) == x


def test_act_basis_vector():
    # swapping vertices 1,2 carries the single edge {1,3} onto {2,3}
    e13 = EdgeVector(4, (0, 1, 0, 0, 0, 0))
    tau = induced_pair_action(VertexPermutation((2, 1, 3, 4)))
    moved = act(tau, e13)
    assert moved == EdgeVector(4, (0, 0, 0, 1, 0, 0))


def test_act_axioms_random():
    rng = random.Random(13)
    n, m = 5, 10
    for _ in range(100):
        x = EdgeVector(n, random_rational_weights(rng, m))
        a = induced_pair_action(VertexPermutation(random_permutation(rng, n)))
        b = induced_pair_action(VertexPermutation(random_permutation(rng, n)))
        assert sorted(act(a, x).weights) == sorted(x.weights)
        assert act(PairAction(a.source.compose(b.source)), x) == act(a, act(b, x))


def test_vectors_built_without_coercion_equal_checked_ones():
    # act, the parsers and both engines skip re-coercing weights that are
    # already Fractions; the public constructor still checks everything
    from paircanon.frame import canonical_form_bruteforce, canonical_form_pruned
    from paircanon.graphio import emit_graph6, emit_weighted, parse_graph6, parse_weighted
    from paircanon.polyinv import classify_simple_graphs_n4

    rng = random.Random(29)
    built = []
    for n in (4, 6, 9):
        x = EdgeVector(n, random_rational_weights(rng, n * (n - 1) // 2))
        tau = induced_pair_action(VertexPermutation(random_permutation(rng, n)))
        simple = EdgeVector(n, tuple(int(w > 0) for w in x.weights))
        built += [
            act(tau, x),
            parse_weighted(emit_weighted(x)),
            parse_graph6(emit_graph6(simple)),
            canonical_form_pruned(x).canonical,
        ]
        if n <= 6:
            built.append(canonical_form_bruteforce(x).canonical)
    # single-level vectors (no edge, K4) and one value spelled three ways, with
    # their relabelings and canonical forms under both engines
    for x in [
        parse_weighted("n 4\n"),
        parse_graph6("C?"),
        parse_graph6("C~"),
        parse_weighted("n 3\n1 2 1/2\n1 3 2/4\n2 3 0.5\n"),
        parse_weighted("n 4\n1 2 1/2\n2 4 2/4\n1 3 0.5\n"),
    ]:
        tau = induced_pair_action(VertexPermutation(random_permutation(rng, x.n)))
        built += [x, act(tau, x), canonical_form_pruned(x).canonical,
                  canonical_form_bruteforce(x).canonical]
    built += [y for members in classify_simple_graphs_n4().values() for y in members]
    for y in built:
        assert y == EdgeVector(y.n, y.weights)
        assert hash(y) == hash(EdgeVector(y.n, y.weights))
        assert all(type(w) is Fraction for w in y.weights)
    with pytest.raises(TypeError):
        EdgeVector(3, (Fraction(1), 0.5, 0))


def test_act_dimension_mismatch():
    x = EdgeVector(4, (1, 0, 0, 1, 0, 1))
    tau = induced_pair_action(VertexPermutation((1, 2, 3, 4, 5)))
    with pytest.raises(ValueError):
        act(tau, x)


def test_act_matches_matrix_relabeling():
    # the package's position shuffle must agree with relabeling the adjacency matrix
    from oracles import relabeled_vector

    rng = random.Random(17)
    for n in (4, 5, 6):
        m = n * (n - 1) // 2
        for _ in range(25):
            w = random_rational_weights(rng, m)
            sigma = random_permutation(rng, n)
            x = EdgeVector(n, w)
            tau = induced_pair_action(VertexPermutation(sigma))
            assert act(tau, x).weights == relabeled_vector(n, w, sigma)


# --------------------------------------------------------- generating_set


def test_generating_set_regenerates_group():
    full = [a.source for a in all_actions(4)]
    gens = generating_set(full)
    assert len(gens) <= 3
    from oracles import closure as _closure

    assert _closure(gens, 4) == set(full)


def test_generating_set_trivial_group():
    assert generating_set([VertexPermutation((1, 2, 3, 4))]) == []


def test_generating_set_degree_mismatch():
    # as in compose: the first permutation's degree, then the other's
    three, two = VertexPermutation((1, 2, 3)), VertexPermutation((2, 1))
    for perms, message in (([three, two], "3 vs 2"), ([two, three], "2 vs 3")):
        with pytest.raises(ValueError, match=f"^degree mismatch: {message}$"):
            generating_set(perms)


def _random_subgroup_generators(rng, n):
    """1-3 random permutations, each moving a random subset of the points."""
    gens = []
    for _ in range(rng.randrange(1, 4)):
        moved = rng.sample(range(1, n + 1), rng.randrange(2, n + 1))
        images = list(range(1, n + 1))
        for a, b in zip(moved, rng.sample(moved, len(moved))):
            images[a - 1] = b
        gens.append(VertexPermutation(tuple(images)))
    return gens


def test_generating_set_matches_greedy_scan_on_random_subgroups():
    rng = random.Random(31)
    for _ in range(300):
        n = rng.randrange(3, 8)
        gens = _random_subgroup_generators(rng, n)
        group = closure(gens, n)
        expected = generating_set_by_scan(group)
        assert generating_set(gens) == expected, gens
        assert generating_set(sorted(group)) == expected, gens


#: the outer 5-cycle, the spokes and the inner pentagram, on vertices 0..9
PETERSEN_EDGES = [(i, (i + 1) % 5) for i in range(5)] + [(i, i + 5) for i in range(5)]
PETERSEN_EDGES += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]


def _graph(n, edges):
    """The simple graph on n vertices with the given 0-based edges."""
    edges = {frozenset(e) for e in edges}
    return EdgeVector(n, tuple(int({i - 1, j - 1} in edges) for i, j in lex_pairs(n)))


def _bipartite(a, b):
    return _graph(a + b, [(i, j) for i in range(a) for j in range(a, a + b)])


def _cliques(k, size):
    """k disjoint copies of the complete graph on ``size`` vertices."""
    n = k * size
    return _graph(n, [(i, j) for i in range(n) for j in range(i) if i // size == j // size])


def test_generating_set_matches_greedy_scan_on_graph_groups():
    # every simple graph with n <= 5; with n = 6, every 5-vertex class plus a
    # sixth vertex joined to each subset, which reaches every 6-vertex class
    from paircanon.frame import canonical_form_pruned

    graphs = [EdgeVector(n, w) for n in (3, 4, 5) for w in all_simple_vectors(n)]
    classes5 = {canonical_form_pruned(x).canonical.weights for x in graphs if x.n == 5}
    for w5 in classes5:
        for mask in range(32):
            weight = dict(zip(lex_pairs(5), w5))
            weight.update(((i, 6), (mask >> (i - 1)) & 1) for i in range(1, 6))
            graphs.append(EdgeVector(6, tuple(weight[p] for p in lex_pairs(6))))
    # and symmetric graphs with n = 7..12 beyond those, |Aut| up to 10,080 (K2,7)
    graphs += [_graph(n, [(i, (i + 1) % n) for i in range(n)]) for n in range(7, 13)]
    graphs += [_bipartite(a, b) for a, b in ((3, 4), (3, 5), (4, 4), (3, 6), (4, 5), (2, 7))]
    graphs += [_cliques(2, 4), _cliques(3, 3), _graph(10, PETERSEN_EDGES)]
    graphs.append(_graph(8, [(i, i ^ 1 << b) for i in range(8) for b in range(3)]))  # Q3
    # C4 with twin classes {0, 3} and {1, 2}: the picks are (1 2) and the class
    # swap (0 1)(2 3), not (0 3), which the swap and (1 2) generate
    graphs.append(_graph(4, [(0, 1), (0, 2), (1, 3), (2, 3)]))
    for x in graphs:
        result = canonical_form_pruned(x)
        expected = generating_set_by_scan(result.automorphisms)
        assert list(result.generators) == expected, x
        found = generating_set(result.generators) if result.generators else []
        assert found == expected, x
        assert generating_set(sorted(result.automorphisms)) == expected, x


def _assert_same_group(built, sifted):
    assert built.order == sifted.order
    c = tuple(random.Random(built.n).sample(range(built.n), built.n))
    for level in range(built.n + 1):
        assert built.coset_min(c, level) == sifted.coset_min(c, level)
    if built.n <= 7:
        assert sorted(built.elements()) == sorted(sifted.elements())
    assert built.greedy_generators() == sifted.greedy_generators()


def _all_classes(n, twins):
    """Every point's class, singletons included, ordered by first member."""
    in_twins = {v for c in twins for v in c}
    return sorted(twins + [[v] for v in range(n) if v not in in_twins])


#: graphs with twin classes, and an automorphism outside the twins' groups
TWIN_CASES = [
    (_bipartite(3, 3), (3, 4, 5, 0, 1, 2)),
    (_cliques(3, 3), (3, 4, 5, 6, 7, 8, 0, 1, 2)),
]


def _weighted_twins():
    """Twin classes {0, 3, 5}, {1, 6}, {2, 4} with internal weights 5/2, -1/3
    and 7, and the weight 2 between any two classes."""
    group = [None, 0, 1, 2, 0, 2, 0, 1]  # by 1-based vertex
    inner = [Fraction(5, 2), Fraction(-1, 3), 7]
    return EdgeVector(
        7, tuple(inner[group[i]] if group[i] == group[j] else 2 for i, j in lex_pairs(7))
    )


@pytest.mark.parametrize(
    "x, extra",
    TWIN_CASES
    + [
        # the extra generator swaps the classes {1, 6} and {2, 4}
        (_weighted_twins(), (0, 2, 1, 3, 6, 5, 4)),
        # two stars with centres 0 and 3 joined: the twins fix 0, which the
        # extra generator moves onto the other centre
        (_graph(6, [(0, 1), (0, 2), (3, 4), (3, 5), (0, 3)]), (3, 4, 5, 0, 1, 2)),
    ],
    ids=["K3,3", "3K3", "weighted", "joined-stars"],
)
def test_twin_chain_matches_the_sifted_chain(x, extra):
    # the symmetric groups of the twin classes read off the classes, against
    # the same transpositions added by Schreier-Sims; then one more generator,
    # which maps the classes onto classes
    twins = twin_classes(x.n, x.weights)
    classes = _all_classes(x.n, twins)
    swaps = twin_transpositions(x.n, twins)
    built = pairgroup._Group(x.n, classes=classes)
    sifted = pairgroup._Group(x.n, swaps)
    assert built.order == math.prod(math.factorial(len(c)) for c in twins)
    _assert_same_group(built, sifted)
    chain = pairgroup._Chain(x.n, swaps)
    assert chain.add(extra)
    built = pairgroup._Group(x.n, [extra], classes)
    _assert_same_group(built, pairgroup._Group(x.n, swaps + [extra]))
    assert not chain.add(extra)
    assert pairgroup._Group(x.n, [extra, extra], classes).order == built.order


def test_weighted_twin_classes_are_found():
    from paircanon.frame import canonical_form_pruned

    x = _weighted_twins()
    assert twin_classes(x.n, x.weights) == [[0, 3, 5], [1, 6], [2, 4]]
    assert canonical_form_pruned(x).aut_order == 6 * 2 * 2


@pytest.mark.parametrize("n", [30, 45, 60])
def test_greedy_generators_beyond_the_scan(n):
    # no scan of n! elements can run here: check that the picks ascend, that
    # each one enlarges the group of the picks before it, and that together
    # they generate Aut, of known order
    from paircanon.frame import canonical_form_pruned

    a, k = n // 3, n // 2
    leaves = k - 1  # of each of two stars, whose centres 0 and k are joined
    stars = [(0, k)] + [(c, c + i) for c in (0, k) for i in range(1, leaves + 1)]
    cases = [
        (_graph(n, []), math.factorial(n)),
        (_graph(n, [(i, j) for i in range(n) for j in range(i)]), math.factorial(n)),
        (_bipartite(a, n - a), math.factorial(a) * math.factorial(n - a)),
        # mixed groups: twin classes and automorphisms the search finds
        (_graph(2 * k, stars), 2 * math.factorial(leaves) ** 2),
        (_graph(2 * k, [(i, i + k) for i in range(k)]), 2**k * math.factorial(k)),
        (_bipartite(k, k), 2 * math.factorial(k) ** 2),
    ]
    for x, order in cases:
        result = canonical_form_pruned(x)
        assert result.aut_order == order
        picks = [tuple(v - 1 for v in g.images) for g in result.generators]
        assert picks == sorted(set(picks))
        group = pairgroup._Chain(x.n)
        assert all(group.add(g) for g in picks)
        assert group.order == result.aut_order
