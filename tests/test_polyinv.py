import math
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
    n4_generating_set,
    parse_monomial,
    reynolds,
    simple_graph_invariants,
)

from oracles import (
    all_actions,
    classify_by_evaluate,
    evaluate_by_term,
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


# ------------------------------------------------------- operator algebra


def test_projector_on_low_degree_monomials():
    for exponents in product(range(4), repeat=6):
        if sum(exponents) > 3:
            continue
        f = Polynomial.monomial(exponents)
        rf = reynolds(f, 4)
        assert reynolds(rf, 4) == rf


def test_invariance_of_reynolds_images():
    group = all_actions(4)
    for f in (X1, X1X6, X1X2, X1X2X3, Polynomial.monomial((2, 1, 0, 0, 0, 0))):
        rf = reynolds(f, 4)
        for tau in group:
            assert rf.apply(tau) == rf


def test_linearity():
    rng = random.Random(91)
    for _ in range(20):
        a = Fraction(rng.randrange(-9, 10), rng.randrange(1, 7))
        b = Fraction(rng.randrange(-9, 10), rng.randrange(1, 7))
        f = Polynomial.monomial(tuple(rng.randrange(3) for _ in range(6)))
        g = Polynomial.monomial(tuple(rng.randrange(3) for _ in range(6)))
        assert reynolds(a * f + b * g, 4) == a * reynolds(f, 4) + b * reynolds(g, 4)


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
    mixed = shared + Polynomial(m, {(1,) + pad + (1,): Fraction(-3, 11), (0,) * m: 5})
    for f in [cancelling, shared, mixed] + [random_polynomial(rng, m) for _ in range(4)]:
        total = {}
        for tau in group:
            for key, c in f.apply(tau).terms.items():
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
        stabilizer = sum(f.apply(tau) == f for tau in group)
        assert len(orbit) * stabilizer == len(group)
        assert set(orbit) == {next(iter(f.apply(tau).terms)) for tau in group}


def test_apply_matches_action_on_evaluations():
    # (tau.f)(x) == f(tau^-1 . x), checked numerically
    rng = random.Random(97)
    for _ in range(20):
        f = Polynomial.monomial(tuple(rng.randrange(3) for _ in range(6)), coeff=Fraction(3, 7))
        tau = induced_pair_action(VertexPermutation(random_permutation(rng, 4)))
        x = EdgeVector(4, random_rational_weights(rng, 6))
        inverse = induced_pair_action(tau.source.inverse())
        assert f.apply(tau).evaluate(x) == f.evaluate(act(inverse, x))


# ----------------------------------------------------------- generators


def test_generating_set_has_nine_invariant_members():
    gens = n4_generating_set()
    assert len(gens) == 9
    group = all_actions(4)
    for g in gens:
        for tau in group:
            assert g.apply(tau) == g


def test_generating_set_expected_degrees():
    degrees = [g.degree for g in n4_generating_set()]
    assert degrees == [1, 2, 2, 3, 3, 4, 5, 3, 4]
    # the two computed mixed averages have degrees 3 and 4
    assert degrees[7] == 3 and degrees[8] == 4


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
    assert tuple(f.evaluate(empty) for f in invs) == (0, 0, 0, 0)
    p4 = EdgeVector(4, (1, 0, 0, 1, 0, 1))
    assert invs[0].evaluate(p4) == Fraction(1, 2)


# ------------------------------------------------------------- evaluation


def test_evaluate_unit_and_k4():
    unit = Polynomial.monomial((0, 0, 0, 0, 0, 0))
    assert unit.evaluate(zero_vector(4)) == 1
    k4 = EdgeVector(4, (1,) * 6)
    assert reynolds(X1X6, 4).evaluate(k4) == 1


def test_evaluate_invariance():
    rng = random.Random(101)
    rf = reynolds(Polynomial.monomial((2, 0, 0, 0, 1, 0)), 4)
    for _ in range(20):
        x = EdgeVector(4, random_rational_weights(rng, 6))
        tau = induced_pair_action(VertexPermutation(random_permutation(rng, 4)))
        assert rf.evaluate(act(tau, x)) == rf.evaluate(x)


def test_evaluate_matches_term_by_term_reference():
    rng = random.Random(103)
    for nvars in (1, 3, 6, 10):
        for k in range(25):
            f = random_polynomial(rng, nvars, terms=rng.randrange(1, 6), degree=4)
            if k == 0:
                point = [0] * nvars
            else:
                point = [
                    rng.choice((0, Fraction(rng.randrange(-9, 10), rng.randrange(1, 9))))
                    for _ in range(nvars)
                ]
            value = f.evaluate(point)
            assert type(value) is Fraction and value == evaluate_by_term(f, point)
    for n in (4, 5):
        x = EdgeVector(n, random_rational_weights(rng, n * (n - 1) // 2))
        f = random_polynomial(rng, len(x.weights), terms=6, degree=5)
        assert f.evaluate(x) == evaluate_by_term(f, x.weights)


def test_evaluate_over_one_denominator_matches_term_by_term():
    # pairwise coprime denominators, negative values, zeros and exponents up to 5
    rng = random.Random(137)
    primes = (1, 2, 3, 5, 7, 11, 13, 17, 19, 23)
    for nvars in (1, 2, 4, 6):
        for _ in range(30):
            terms = {}
            for _ in range(rng.randrange(1, 7)):
                mono = tuple(rng.randrange(6) if rng.random() < 0.6 else 0 for _ in range(nvars))
                terms[mono] = Fraction(rng.randrange(-20, 21) or 1, rng.choice(primes))
            f = Polynomial(nvars, terms)
            point = [Fraction(rng.randrange(-7, 8), rng.choice(primes)) for _ in range(nvars)]
            value = f.evaluate(point)
            assert type(value) is Fraction and value == evaluate_by_term(f, point)
            assert value.denominator > 0
            assert math.gcd(value.numerator, value.denominator) == 1


def test_evaluate_dimension_mismatch():
    with pytest.raises(ValueError):
        X1.evaluate((1, 2, 3))


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
    assert Polynomial.zero(6).to_text() == "0"
    assert Polynomial.monomial((0, 0, 0), coeff=Fraction(5, 2)).to_text() == "5/2 * 1"


def test_to_text_graded_lex_order():
    f = (
        Polynomial.monomial((0, 1, 0))
        + Polynomial.monomial((1, 0, 0))
        + Polynomial.monomial((0, 2, 0))
    )
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


def test_polynomial_arithmetic_and_validation():
    f = Polynomial.monomial((1, 0), coeff=2)
    g = Polynomial.monomial((0, 1), coeff=3)
    assert (f + g) - g == f
    assert f * g == Polynomial.monomial((1, 1), coeff=6)
    assert (f - f) == Polynomial.zero(2)
    with pytest.raises(ValueError):
        f + X1
    with pytest.raises(ValueError):
        Polynomial(2, {(1, -1): 1})
    with pytest.raises(TypeError):
        Polynomial.monomial((1, 0), coeff=0.5)


def test_arithmetic_results_equal_their_checked_construction():
    # results skip the public constructor's checks: each must equal the checked
    # construction of the same terms, summed by hand, zero coefficients included
    rng = random.Random(107)
    tau = induced_pair_action(VertexPermutation((2, 4, 1, 3)))
    for _ in range(10):
        f, g = random_polynomial(rng, 6), random_polynomial(rng, 6)
        total = dict(f.terms)
        for key, c in g.terms.items():
            total[key] = total.get(key, 0) + c
        product_terms = {}
        for ka, ca in f.terms.items():
            for kb, cb in g.terms.items():
                key = tuple(a + b for a, b in zip(ka, kb))
                product_terms[key] = product_terms.get(key, 0) + ca * cb
        moved = {}
        for key, c in f.terms.items():
            image = [0] * 6
            for s, e in enumerate(key):
                image[tau.index_map[s] - 1] = e
            moved[tuple(image)] = c
        cases = [
            (f + g, total),
            (-f, {key: -c for key, c in f.terms.items()}),
            (f - f, {key: 0 for key in f.terms}),
            (f * g, product_terms),
            (f * Fraction(-2, 3), {key: c * Fraction(-2, 3) for key, c in f.terms.items()}),
            (0 * f, {key: 0 for key in f.terms}),
            (f.apply(tau), moved),
            (reynolds(f, 4), reynolds(f, 4).terms),
        ]
        for result, terms in cases:
            checked = Polynomial(6, terms)
            assert result == checked and result.nvars == 6
            assert all(type(c) is Fraction and c for c in result.terms.values())
            assert all(type(key) is tuple and len(key) == 6 for key in result.terms)


def test_arithmetic_refuses_a_coefficient_past_the_digit_limit():
    # each factor prints, but the product of two 2200-digit numbers does not
    big = Polynomial.monomial((1, 0), coeff=10**2200)
    small = Polynomial.monomial((0, 1), coeff=Fraction(1, 10**2200 + 1))
    for make in (
        lambda: big * big,
        lambda: big * 10**2200,
        lambda: small + Polynomial.monomial((0, 1), coeff=Fraction(1, 10**2200 + 3)),
    ):
        with pytest.raises(ValueError, match="more than 4300 digits"):
            make()


@pytest.mark.parametrize("exponents", [(1.5, 0), ("1", 0)], ids=["float", "str"])
def test_polynomial_refuses_non_integer_exponents(exponents):
    # int() would truncate (1.5, 0) to x1
    with pytest.raises(TypeError):
        Polynomial.monomial(exponents)
