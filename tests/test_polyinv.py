import random
from fractions import Fraction
from itertools import product

import pytest

from paircanon.frame import canonical_form_pruned
from paircanon.pairgroup import (
    EdgeVector,
    VertexPermutation,
    act,
    induced_pair_action,
)
from paircanon.polyinv import (
    Polynomial,
    classify_simple_graphs_n4,
    parse_monomial,
    reynolds,
    simple_graph_invariants,
)

from oracles import (
    all_actions,
    classify_by_evaluate,
    evaluate_by_term,
    permuted,
    random_permutation,
    random_rational_weights,
    zero_vector,
)


def mono(*exponents):
    return exponents


def random_polynomial(rng, nvars, terms=4, degree=3):
    """Up to ``terms`` monomials of degree at most ``degree``, with nonzero
    Fraction coefficients; a constant term may occur."""
    coeffs = {}
    for _ in range(terms):
        exponents = [0] * nvars
        for _ in range(rng.randrange(degree + 1)):
            exponents[rng.randrange(nvars)] += 1
        numerator = rng.choice((-1, 1)) * rng.randrange(1, 10)
        coeffs[tuple(exponents)] = Fraction(numerator, rng.randrange(1, 8))
    return Polynomial(nvars, coeffs)


def moved_terms(f, tau):
    """The terms of f with every monomial's exponents moved by the action tau."""
    return {permuted(mono, tau.index_map): c for mono, c in f.terms.items()}


def combination(*scaled):
    """The polynomial sum of c * f over the (c, f) pairs, summed term by term."""
    terms = {}
    for c, f in scaled:
        for mono, coeff in f.terms.items():
            terms[mono] = terms.get(mono, 0) + c * coeff
    return Polynomial(scaled[0][1].nvars, terms)


X1 = Polynomial.monomial((1, 0, 0, 0, 0, 0))
X1X6 = Polynomial.monomial((1, 0, 0, 0, 0, 1))
X1X2 = Polynomial.monomial((1, 1, 0, 0, 0, 0))
X1X2X3 = Polynomial.monomial((1, 1, 1, 0, 0, 0))


# ---------------------------------------------------------- golden values


def test_reynolds_x1_golden():
    sixth = Fraction(1, 6)
    expected = Polynomial(
        6, {mono(*(1 if k == s else 0 for k in range(6))): sixth for s in range(6)}
    )
    assert reynolds(X1, 4) == expected


def test_reynolds_x1x6_golden():
    third = Fraction(1, 3)
    expected = Polynomial(
        6,
        {
            mono(1, 0, 0, 0, 0, 1): third,
            mono(0, 1, 0, 0, 1, 0): third,
            mono(0, 0, 1, 1, 0, 0): third,
        },
    )
    assert reynolds(X1X6, 4) == expected


def test_reynolds_x1x2x3_golden():
    quarter = Fraction(1, 4)
    expected = Polynomial(
        6,
        {
            mono(1, 1, 1, 0, 0, 0): quarter,
            mono(1, 0, 0, 1, 1, 0): quarter,
            mono(0, 1, 0, 1, 0, 1): quarter,
            mono(0, 0, 1, 0, 1, 1): quarter,
        },
    )
    assert reynolds(X1X2X3, 4) == expected


def test_reynolds_power_sums_golden():
    for d in (2, 3, 4, 5):
        expected = Polynomial(
            6,
            {
                mono(*(d if k == s else 0 for k in range(6))): Fraction(1, 6)
                for s in range(6)
            },
        )
        assert reynolds(Polynomial.monomial((d, 0, 0, 0, 0, 0)), 4) == expected


def test_reynolds_variable_count_mismatch():
    with pytest.raises(ValueError):
        reynolds(Polynomial.monomial((1, 0, 0)), 4)


# ------------------------------------------------------------ averaging


def test_projector_on_low_degree_monomials():
    for exponents in product(range(4), repeat=6):
        if sum(exponents) > 3:
            continue
        f = Polynomial.monomial(exponents)
        rf = reynolds(f, 4)
        assert reynolds(rf, 4) == rf


N4_SEEDS = [
    (1, 0, 0, 0, 0, 0),  # x1
    (2, 0, 0, 0, 0, 0),  # x1^2
    (1, 0, 0, 0, 0, 1),  # x1 x6
    (3, 0, 0, 0, 0, 0),  # x1^3
    (1, 1, 1, 0, 0, 0),  # x1 x2 x3
    (4, 0, 0, 0, 0, 0),  # x1^4
    (5, 0, 0, 0, 0, 0),  # x1^5
    (2, 1, 0, 0, 0, 0),  # x1^2 x2
    (3, 1, 0, 0, 0, 0),  # x1^3 x2
]


def test_invariance_of_reynolds_images():
    # x1 x2, and the nine seed monomials whose averages generate every
    # relabeling-invariant polynomial on 4 vertices
    group = all_actions(4)
    for f in [X1X2] + [Polynomial.monomial(e) for e in N4_SEEDS]:
        rf = reynolds(f, 4)
        for tau in group:
            assert moved_terms(rf, tau) == rf.terms


def test_linearity():
    rng = random.Random(91)
    for _ in range(20):
        a = Fraction(rng.randrange(-9, 10), rng.randrange(1, 7))
        b = Fraction(rng.randrange(-9, 10), rng.randrange(1, 7))
        f = Polynomial.monomial(tuple(rng.randrange(3) for _ in range(6)))
        g = Polynomial.monomial(tuple(rng.randrange(3) for _ in range(6)))
        rf, rg = reynolds(f, 4), reynolds(g, 4)
        assert reynolds(combination((a, f), (b, g)), 4) == combination((a, rf), (b, rg))
        # a relabeled copy of f has the same average as f
        tau = induced_pair_action(VertexPermutation(random_permutation(rng, 4)))
        moved = Polynomial(6, moved_terms(f, tau))
        assert reynolds(combination((a, f), (b, moved)), 4) == combination((a + b, rf))


@pytest.mark.parametrize("n", (4, 5))
def test_reynolds_equals_average_of_applied_actions(n):
    # the average through each action's index_map, not through the group table
    rng = random.Random(101 + n)
    m = n * (n - 1) // 2
    group = all_actions(n)
    pad = (0,) * (m - 2)
    # x1 - x2 averages to zero: x1 and x2 lie in one orbit
    cancelling = Polynomial(m, {(1, 0) + pad: 1, (0, 1) + pad: -1})
    # x1^2 x2 and x1 x2^2 share one orbit (swap 2 and 3) of n(n-1)(n-2) images,
    # so their coprime coefficients add on every image; x1 x_m lies elsewhere
    shared = Polynomial(m, {(2, 1) + pad: Fraction(1, 3), (1, 2) + pad: Fraction(1, 5)})
    mixed = Polynomial(m, {**shared.terms, (1,) + pad + (1,): Fraction(-3, 11), (0,) * m: 5})
    for f in [cancelling, shared, mixed] + [random_polynomial(rng, m) for _ in range(4)]:
        total = {}
        for tau in group:
            for key, c in moved_terms(f, tau).items():
                total[key] = total.get(key, 0) + c
        expected = {key: c / len(group) for key, c in total.items() if c}
        assert reynolds(f, n).terms == expected
    assert reynolds(cancelling, n).terms == {}
    assert set(reynolds(shared, n).terms.values()) == {Fraction(8, 15) / (n * (n - 1) * (n - 2))}


@pytest.mark.parametrize("n", (4, 5, 6))
def test_reynolds_of_a_monomial_is_its_orbit_over_the_orbit_size(n):
    # orbit-stabilizer: each of the |orbit| images is hit n!/|orbit| times
    rng = random.Random(131 + n)
    m = n * (n - 1) // 2
    group = all_actions(n)
    for _ in range(4):
        exponents = [0] * m
        for _ in range(rng.randrange(1, 5)):
            exponents[rng.randrange(m)] += 1
        f = Polynomial.monomial(exponents)
        orbit = reynolds(f, n).terms
        assert set(orbit.values()) == {Fraction(1, len(orbit))}
        stabilizer = sum(moved_terms(f, tau) == f.terms for tau in group)
        assert len(orbit) * stabilizer == len(group)
        assert set(orbit) == {permuted(exponents, tau.index_map) for tau in group}


# ----------------------------------------------------------- invariants


def test_simple_graph_invariants_list():
    invs = simple_graph_invariants()
    assert len(invs) == 4
    assert invs[0] == reynolds(X1, 4)
    assert invs[1] == reynolds(X1X6, 4)
    assert invs[2] == reynolds(X1X2, 4)
    assert invs[3] == reynolds(X1X2X3, 4)


def test_simple_graph_invariants_sample_values():
    invs = simple_graph_invariants()
    empty = zero_vector(4)
    assert tuple(evaluate_by_term(f, empty.weights) for f in invs) == (0, 0, 0, 0)
    p4 = EdgeVector(4, (1, 0, 0, 1, 0, 1))
    assert evaluate_by_term(invs[0], p4.weights) == Fraction(1, 2)


# ------------------------------------------------------------- evaluation


def test_evaluate_unit_and_k4():
    unit = Polynomial.monomial((0, 0, 0, 0, 0, 0))
    assert evaluate_by_term(unit, zero_vector(4).weights) == 1
    k4 = EdgeVector(4, (1,) * 6)
    assert evaluate_by_term(reynolds(X1X6, 4), k4.weights) == 1


def test_evaluate_invariance():
    rng = random.Random(101)
    rf = reynolds(Polynomial.monomial((2, 0, 0, 0, 1, 0)), 4)
    for _ in range(20):
        x = EdgeVector(4, random_rational_weights(rng, 6))
        tau = induced_pair_action(VertexPermutation(random_permutation(rng, 4)))
        assert evaluate_by_term(rf, act(tau, x).weights) == evaluate_by_term(rf, x.weights)


# ----------------------------------------------------------- classification


def test_classify_eleven_classes_summing_to_64():
    classes = classify_simple_graphs_n4()
    assert len(classes) == 11
    sizes = sorted(len(members) for members in classes.values())
    assert sum(sizes) == 64
    # frozen from brute-force orbit enumeration over all 64 vectors
    assert sizes == [1, 1, 3, 3, 4, 4, 6, 6, 12, 12, 12]


def test_classify_matches_evaluate_per_graph():
    # the same keys and members, both in the same order, as evaluating every
    # invariant at every graph
    classes, expected = classify_simple_graphs_n4(), classify_by_evaluate()
    assert list(classes) == list(expected)
    for key in classes:
        assert type(key) is tuple and all(type(v) is Fraction for v in key)
        assert classes[key] == expected[key]


def test_classes_come_by_least_member_which_each_lists_first():
    # classify-n4 numbers the classes in this order and prints each one's
    # first member as its representative, without sorting
    classes = list(classify_simple_graphs_n4().values())
    for members in classes:
        assert members[0].weights == min(x.weights for x in members)
    firsts = [members[0].weights for members in classes]
    assert firsts == sorted(firsts)
    assert len(set(firsts)) == len(firsts)


def test_classification_matches_canonical_partition():
    classes = classify_simple_graphs_n4()
    for members in classes.values():
        canonicals = {canonical_form_pruned(x).canonical for x in members}
        assert len(canonicals) == 1
    # distinct invariant tuples give distinct canonical forms
    reps = [canonical_form_pruned(members[0]).canonical for members in classes.values()]
    assert len(set(reps)) == 11


# ------------------------------------------------------------ text format


def test_to_text_golden():
    assert reynolds(X1, 4).to_text() == "\n".join(
        f"1/6 * x{s}^1" for s in range(1, 7)
    )
    assert reynolds(X1X6, 4).to_text() == (
        "1/3 * x1^1 x6^1\n1/3 * x2^1 x5^1\n1/3 * x3^1 x4^1"
    )
    assert Polynomial(6).to_text() == "0"
    assert Polynomial.monomial((0, 0, 0), coeff=Fraction(5, 2)).to_text() == "5/2 * 1"


def test_to_text_graded_lex_order():
    f = Polynomial(3, {(0, 1, 0): 1, (1, 0, 0): 1, (0, 2, 0): 1})
    assert f.to_text() == "1 * x2^2\n1 * x1^1\n1 * x2^1"


# ------------------------------------------------------- monomial parsing


def test_parse_monomial_forms():
    assert parse_monomial("x1^2*x2", 6) == Polynomial.monomial((2, 1, 0, 0, 0, 0))
    assert parse_monomial("x1 x6", 6) == X1X6
    assert parse_monomial("x3", 6) == Polynomial.monomial((0, 0, 1, 0, 0, 0))
    assert parse_monomial("1", 6) == Polynomial.monomial((0,) * 6)
    assert parse_monomial("x2*x2", 6) == Polynomial.monomial((0, 2, 0, 0, 0, 0))


def test_parse_monomial_errors():
    with pytest.raises(ValueError):
        parse_monomial("", 6)
    with pytest.raises(ValueError):
        parse_monomial("y1", 6)
    with pytest.raises(ValueError):
        parse_monomial("x7", 6)
    with pytest.raises(ValueError):
        parse_monomial("x1^-2", 6)


# ----------------------------------------------------- polynomial basics


def test_polynomial_validation():
    with pytest.raises(ValueError):
        Polynomial(2, {(1, -1): 1})
    with pytest.raises(TypeError):
        Polynomial.monomial((1, 0), coeff=0.5)


def test_arithmetic_results_equal_their_checked_construction():
    # an average skips the public constructor's checks: it must equal the
    # checked construction of the same terms
    rng = random.Random(107)
    for _ in range(10):
        f = random_polynomial(rng, 6)
        result = reynolds(f, 4)
        assert result == Polynomial(6, result.terms) and result.nvars == 6
        assert all(type(c) is Fraction and c for c in result.terms.values())
        assert all(type(key) is tuple and len(key) == 6 for key in result.terms)


def test_arithmetic_refuses_a_coefficient_past_the_digit_limit():
    # the coefficient prints, but its average over an orbit of 6 does not
    f = Polynomial.monomial((1, 0, 0, 0, 0, 0), coeff=Fraction(1, 7 * 10**4299))
    with pytest.raises(ValueError, match="more than 4300 digits"):
        reynolds(f, 4)


@pytest.mark.parametrize("exponents", [(1.5, 0), ("1", 0)], ids=["float", "str"])
def test_polynomial_refuses_non_integer_exponents(exponents):
    # int() would truncate (1.5, 0) to x1
    with pytest.raises(TypeError):
        Polynomial.monomial(exponents)


@pytest.mark.parametrize("nvars", [2.9, "2"], ids=["float", "str"])
def test_polynomial_refuses_a_non_integer_variable_count(nvars):
    # int() would truncate 2.9 to 2 variables and read "2" as 2
    with pytest.raises(TypeError):
        Polynomial(nvars, {(1, 0): 1})
