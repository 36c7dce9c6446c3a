"""Acceptance suite: one test per release criterion, exact arithmetic throughout.

Each test prints a `[criterion N] PASS (...)` line; run with `pytest -s` to
see them as they complete.
"""

import random
import time
from fractions import Fraction
from itertools import product

from paircanon.frame import (
    canonical_form,
    canonical_form_bruteforce,
    canonical_form_pruned,
)
from paircanon.graphio import emit_graph6, parse_graph6
from paircanon.pairgroup import (
    EdgeVector,
    VertexPermutation,
    act,
    induced_pair_action,
)
from paircanon.polyinv import (
    Polynomial,
    reynolds,
    simple_graph_invariants,
)
from paircanon.sortframe import PointVector, elementary_symmetric, sort_frame

from oracles import (
    all_actions,
    all_simple_vectors,
    evaluate_by_term,
    frame_coset_check,
    orbit_of,
    permuted,
    random_permutation,
    random_rational_weights,
)


def report(number: int, started: float, label: str) -> None:
    print(f"[criterion {number:2d}] PASS ({time.perf_counter() - started:.2f}s) {label}")


def test_criterion_1_eleven_class_census():
    started = time.perf_counter()
    classes = {}
    for w in all_simple_vectors(4):
        result = canonical_form_pruned(EdgeVector(4, w))
        classes.setdefault(result.canonical.weights, []).append(result)
    assert len(classes) == 11
    sizes = [len(members) for members in classes.values()]
    assert sum(sizes) == 64
    # each class size equals the orbit size reported via orbit-stabilizer
    for members in classes.values():
        assert {r.orbit_size for r in members} == {len(members)}
    report(1, started, "canonizing all 64 simple 4-vertex graphs gives 11 classes")


def test_criterion_2_polynomial_and_canonical_partitions_agree():
    started = time.perf_counter()
    invariants = simple_graph_invariants()
    by_tuple = {}
    by_canonical = {}
    for bits in product((Fraction(0), Fraction(1)), repeat=6):
        x = EdgeVector(4, bits)
        by_tuple.setdefault(tuple(evaluate_by_term(f, bits) for f in invariants), set()).add(bits)
        by_canonical.setdefault(
            canonical_form_pruned(x).canonical.weights, set()
        ).add(bits)
    assert set(map(frozenset, by_tuple.values())) == set(
        map(frozenset, by_canonical.values())
    )
    report(2, started, "4-invariant tuple partition equals canonical-form partition")


def test_criterion_3_reynolds_golden_values():
    started = time.perf_counter()

    def m(*exponents):
        return exponents

    sixth, third, quarter = Fraction(1, 6), Fraction(1, 3), Fraction(1, 4)
    golden = [
        (
            (1, 0, 0, 0, 0, 0),
            {m(*(1 if k == s else 0 for k in range(6))): sixth for s in range(6)},
        ),
        (
            (1, 0, 0, 0, 0, 1),
            {
                m(1, 0, 0, 0, 0, 1): third,
                m(0, 1, 0, 0, 1, 0): third,
                m(0, 0, 1, 1, 0, 0): third,
            },
        ),
        (
            (1, 1, 1, 0, 0, 0),
            {
                m(1, 1, 1, 0, 0, 0): quarter,
                m(1, 0, 0, 1, 1, 0): quarter,
                m(0, 1, 0, 1, 0, 1): quarter,
                m(0, 0, 1, 0, 1, 1): quarter,
            },
        ),
    ]
    for exponents, terms in golden:
        assert reynolds(Polynomial.monomial(exponents), 4) == Polynomial(6, terms)
    report(3, started, "orbit averages of x1, x1x6, x1x2x3 match term-for-term")


def test_criterion_4_projector_up_to_degree_5():
    started = time.perf_counter()
    count = 0
    for exponents in product(range(6), repeat=6):
        if sum(exponents) > 5:
            continue
        rf = reynolds(Polynomial.monomial(exponents), 4)
        assert reynolds(rf, 4) == rf
        count += 1
    assert count == 462  # all monomials of degree <= 5 in 6 variables
    report(4, started, f"averaging is a projector on all {count} monomials")


def test_criterion_5_pruned_equals_bruteforce():
    started = time.perf_counter()
    checked = 0
    for n in (3, 4, 5):
        for w in all_simple_vectors(n):
            x = EdgeVector(n, w)
            assert canonical_form_pruned(x) == canonical_form_bruteforce(x)
            checked += 1
    rng = random.Random(2024)
    for n, count in ((5, 200), (6, 150), (7, 150)):
        m = n * (n - 1) // 2
        for _ in range(count):
            x = EdgeVector(n, random_rational_weights(rng, m))
            assert canonical_form_pruned(x) == canonical_form_bruteforce(x)
            checked += 1
    report(5, started, f"engines agree bit-exactly on {checked} graphs")


def test_criterion_6_completeness_on_random_pairs():
    started = time.perf_counter()
    rng = random.Random(2025)
    n, m = 5, 10
    disagreements = 0
    for k in range(200):
        x = EdgeVector(n, random_rational_weights(rng, m))
        if k < 100:
            tau = induced_pair_action(VertexPermutation(random_permutation(rng, n)))
            y = act(tau, x)
        else:
            y = EdgeVector(n, random_rational_weights(rng, m))
        same_invariants = (
            canonical_form(x).canonical.weights == canonical_form(y).canonical.weights
        )
        same_orbit = y.weights in orbit_of(n, x.weights)
        if same_invariants != same_orbit:
            disagreements += 1
    assert disagreements == 0
    report(6, started, "invariant equality matched orbit membership on 200 pairs")


def test_criterion_7_equivariance_and_coset_property():
    started = time.perf_counter()
    rng = random.Random(2026)
    group = all_actions(5)
    for _ in range(100):
        x = EdgeVector(5, random_rational_weights(rng, 10, distinct=True))
        rho = canonical_form_pruned(x).frame
        for tau in group:
            moved = canonical_form_pruned(act(tau, x)).frame
            assert moved == rho.compose(tau.source.inverse())
    for _ in range(100):
        x = EdgeVector(5, tuple(Fraction(rng.randrange(2)) for _ in range(10)))
        for tau in group:
            assert frame_coset_check(x, tau)
    report(7, started, "exact equivariance (distinct weights) and coset checks hold")


def test_criterion_8_piecewise_structure():
    started = time.perf_counter()
    rng = random.Random(2027)
    for _ in range(100):
        n = rng.choice((4, 5))
        m = n * (n - 1) // 2
        weights = tuple(Fraction(rng.randrange(5)) for _ in range(m))
        x = EdgeVector(n, weights)
        result = canonical_form_pruned(x)
        assert sorted(result.canonical.weights) == sorted(weights)
        # strictly increasing remap of the value levels: all orderings and
        # equalities among coordinates survive, so the frame must not move
        levels = sorted(set(weights))
        remapped = {}
        value = Fraction(-100)
        for level in levels:
            value += Fraction(rng.randrange(1, 30), rng.randrange(1, 9))
            remapped[level] = value
        perturbed = EdgeVector(n, tuple(remapped[w] for w in weights))
        assert canonical_form_pruned(perturbed).frame == result.frame
    report(8, started, "canonical vector permutes input; frame stable under remaps")


def test_criterion_9_sorting_frame_identities():
    started = time.perf_counter()
    rng = random.Random(2028)
    for _ in range(100):
        n = rng.randrange(1, 9)
        v = PointVector(
            tuple(Fraction(rng.randrange(-9, 10), rng.randrange(1, 5)) for _ in range(n))
        )
        ordered, frame = sort_frame(v)
        assert list(ordered.values) == sorted(v.values)
        for k in range(1, n + 1):
            assert elementary_symmetric(k, v) == elementary_symmetric(k, ordered)
        sigma = VertexPermutation(random_permutation(rng, n))
        assert sort_frame(PointVector(permuted(v.values, sigma.images)))[0] == ordered
        assert PointVector(permuted(v.values, frame.images)) == ordered
    report(9, started, "symmetric values recovered from order statistics, 100 vectors")


def test_criterion_10_graph6_exhaustive_roundtrip():
    started = time.perf_counter()
    for n in (4, 5):
        for w in all_simple_vectors(n):
            x = EdgeVector(n, w)
            encoded = emit_graph6(x)
            assert parse_graph6(encoded) == x
            assert emit_graph6(parse_graph6(encoded)) == encoded
    report(10, started, "graph6 round-trips bit-exactly on all n=4,5 simple graphs")
