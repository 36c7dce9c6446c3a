import random
import time
import tracemalloc
from fractions import Fraction
from itertools import combinations

import networkx as nx
import pytest

from paircanon.graphio import (
    MAX_VERTICES,
    ParseError,
    emit_graph6,
    emit_weighted,
    parse_graph6,
    parse_weighted,
)
from paircanon.pairgroup import EdgeVector

from oracles import all_simple_vectors, random_rational_weights, zero_vector


# --------------------------------------------------------- weighted: parse


def test_parse_p4():
    text = "n 4\n1 2 1\n2 3 1\n3 4 1\n"
    assert parse_weighted(text).weights == tuple(map(Fraction, (1, 0, 0, 1, 0, 1)))


def test_parse_header_only_is_zero_vector():
    assert parse_weighted("n 4") == zero_vector(4)


def test_parse_exact_literals():
    x = parse_weighted("n 4\n1 2 1/3\n1 3 0.25\n1 4 -2\n")
    assert x.weights[0] == Fraction(1, 3)
    assert x.weights[1] == Fraction(1, 4)
    assert x.weights[2] == Fraction(-2)


def test_parse_comments_and_blank_lines():
    text = "# graph\n\nn 4   # header\n1 2 1\n  # done\n\n"
    assert parse_weighted(text).weights[0] == 1


@pytest.mark.parametrize(
    "text,line,needle",
    [
        ("n 4\n1 2 1\n1 2 2\n", 3, "duplicate"),
        ("n 4\n2 1 1\n", 2, "i < j"),
        ("n 4\n3 3 1\n", 2, "i < j"),
        ("n 4\n1 5 1\n", 2, "out of range"),
        ("n 4\n1 2 0.1.2\n", 2, "weight"),
        ("n 4\n1 2 1/0\n", 2, "weight"),
        ("n 2\n", 1, "at least 3"),
        ("n x\n", 1, "vertex count"),
        ("4\n1 2 1\n", 1, "header"),
        ("n 4\n1 2\n", 2, "i j w"),
    ],
)
def test_parse_errors_carry_line_numbers(text, line, needle):
    with pytest.raises(ParseError) as err:
        parse_weighted(text)
    assert err.value.line == line
    assert needle in str(err.value)


def test_parse_empty_input():
    with pytest.raises(ParseError):
        parse_weighted("# nothing here\n")


@pytest.mark.parametrize(
    "literal",
    # beyond the limit, then malformed literals with long exponents
    ["1e999999999", "1e-999999999", "-2.5E+4301", "1e1_000_000", ".5e-4301"]
    + ["1/2e99999", "e99999", "1e99999e1", "1e9__9999", "1.2.3e99999"],
)
def test_parse_refuses_decimal_exponents_beyond_4300(literal):
    start = time.perf_counter()
    with pytest.raises(ParseError) as err:
        parse_weighted(f"n 3\n1 2 1\n\n1 3 {literal}\n")
    assert time.perf_counter() - start < 1.0
    assert str(err.value) == f"line 4: bad weight literal: {literal!r}"


def test_parse_accepts_decimal_exponents_up_to_4300():
    # every accepted value can be printed: at most 4300 digits above and below the bar
    x = parse_weighted("n 3\n1 2 1e4299\n1 3 -1E-4299\n2 3 25e-4300\n")
    assert x.weights == (Fraction(10**4299), Fraction(-1, 10**4299), Fraction(25, 10**4300))
    assert parse_weighted(emit_weighted(x)) == x


@pytest.mark.parametrize("count", [100000, 10**40])
def test_parse_refuses_a_vertex_count_over_the_limit_before_allocating(count):
    start = time.perf_counter()
    tracemalloc.start()
    try:
        with pytest.raises(ParseError) as err:
            parse_weighted(f"n {count}\n1 2 1\n")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 1.0
    assert peak < 1 << 20
    assert err.value.line == 1
    assert str(err.value) == f"line 1: vertex count {count} exceeds the limit of {MAX_VERTICES}"


def test_parse_accepts_a_vertex_count_at_the_limit():
    x = parse_weighted(f"n {MAX_VERTICES}\n1 {MAX_VERTICES} 1/2\n")
    assert x.n == MAX_VERTICES
    assert x.weights[MAX_VERTICES - 2] == Fraction(1, 2)
    assert sum(1 for w in x.weights if w) == 1


def test_parse_a_dense_text_in_bounded_memory():
    # all 124750 pairs of n = 500 listed: the peak is the text's lines plus the
    # weights (9.9 MiB traced); a table of the line that set each pair added
    # more than both (21.4 MiB).  n = 500, not 1000, because tracemalloc slows
    # this parse about 35-fold.
    n, values = 500, ["0", "1/3", "-2"]
    pairs = list(combinations(range(1, n + 1), 2))
    text = "".join([f"n {n}\n", *(f"{i} {j} {values[(i * j) % 3]}\n" for i, j in pairs)])
    tracemalloc.start()
    try:
        x = parse_weighted(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 15 << 20
    assert set(x.weights) == {0, Fraction(1, 3), -2}
    assert x.weights[-1] == Fraction(values[(499 * 500) % 3])


# ---------------------------------------------------------- weighted: emit


def test_emit_zero_vector():
    assert emit_weighted(zero_vector(4)) == "n 4\n"


def test_emit_p4_edge_order():
    x = EdgeVector(4, (1, 0, 0, 1, 0, 1))
    assert emit_weighted(x) == "n 4\n1 2 1\n2 3 1\n3 4 1\n"


def test_weighted_roundtrip_random():
    rng = random.Random(113)
    for _ in range(200):
        n = rng.randrange(3, 8)
        x = EdgeVector(n, random_rational_weights(rng, n * (n - 1) // 2))
        assert parse_weighted(emit_weighted(x)) == x


def test_parse_then_emit_normalizes():
    messy = "# c\nn 4\n2 3 1  # later pair listed first\n1 2 2/4\n"
    x = parse_weighted(messy)
    assert emit_weighted(x) == "n 4\n1 2 1/2\n2 3 1\n"
    assert parse_weighted(emit_weighted(x)) == x


# ------------------------------------------------------------------ graph6


def nx_graph6(x: EdgeVector) -> str:
    graph = nx.Graph()
    graph.add_nodes_from(range(x.n))
    for (i, j), w in zip(combinations(range(1, x.n + 1), 2), x.weights):
        if w:
            graph.add_edge(i - 1, j - 1)
    return nx.to_graph6_bytes(graph, header=False).decode().strip()


def test_k4_and_empty_roundtrip():
    k4 = EdgeVector(4, (1,) * 6)
    assert parse_graph6(emit_graph6(k4)) == k4
    empty = zero_vector(4)
    assert parse_graph6(emit_graph6(empty)) == empty
    assert emit_graph6(k4) == "C~"
    assert emit_graph6(empty) == "C?"


@pytest.mark.parametrize("n", (4, 5))
def test_exhaustive_roundtrip_and_reference_agreement(n):
    for w in all_simple_vectors(n):
        x = EdgeVector(n, w)
        encoded = emit_graph6(x)
        assert encoded == nx_graph6(x)  # independent reference implementation
        assert parse_graph6(encoded) == x


def test_sampled_roundtrip_n6():
    rng = random.Random(127)
    for _ in range(200):
        x = EdgeVector(6, tuple(Fraction(rng.randrange(2)) for _ in range(15)))
        encoded = emit_graph6(x)
        assert encoded == nx_graph6(x)
        assert parse_graph6(encoded) == x


@pytest.mark.parametrize("n", (4, 5, 6))
def test_single_edge_positions_transpose_correctly(n):
    # graph6 packs bits grouped by the larger endpoint; verify every single
    # edge lands on the right bit by locating it independently
    m = n * (n - 1) // 2
    for s, (i, j) in enumerate(combinations(range(1, n + 1), 2)):
        weights = [Fraction(0)] * m
        weights[s] = Fraction(1)
        encoded = emit_graph6(EdgeVector(n, tuple(weights)))
        bitpos = (j - 1) * (j - 2) // 2 + (i - 1)  # rank of (i,j) in column order
        data = [ord(c) - 63 for c in encoded[1:]]
        bits = [(value >> shift) & 1 for value in data for shift in (5, 4, 3, 2, 1, 0)]
        assert bits[bitpos] == 1 and sum(bits) == 1


@pytest.mark.parametrize("n", [*range(3, 71), 100, 150, 295])
def test_roundtrip_and_reference_agreement_by_size(n):
    # n = 62, 63 straddle the 1-byte/4-byte size field, and n = 3..70 meet
    # every residue of C(n,2) mod 24, the encoder's packing unit
    rng = random.Random(n)
    m = n * (n - 1) // 2
    for density in (0, 0.5, 1):
        x = EdgeVector(n, [int(rng.random() < density) for _ in range(m)])
        encoded = emit_graph6(x)
        assert encoded == nx_graph6(x)
        assert parse_graph6(encoded) == x


def test_emit_names_the_first_non_simple_pair_in_graph6_order():
    # (2, 3) precedes (1, 4) in graph6 order, though not in pair order
    weights = [0] * 10
    weights[2], weights[4] = 2, 5  # (1, 4) and (2, 3)
    with pytest.raises(ValueError, match=r"^non-simple weight 5 at edge \(2, 3\)$"):
        emit_graph6(EdgeVector(5, weights))


def test_graph6_codecs_hold_no_table_of_bit_positions():
    # a dense n = 500 string: each codec peaks near 1.1-1.7 MiB traced; a
    # per-bit position table of C(500,2) ints took 5.7-6.8 MiB
    n = 500
    text = emit_graph6(EdgeVector(n, [1] * (n * (n - 1) // 2)))
    x = parse_graph6(text)
    for codec, arg in ((parse_graph6, text), (emit_graph6, x)):
        tracemalloc.start()
        try:
            codec(arg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3.5 * 2**20, codec.__name__
    assert emit_graph6(x) == text


def test_header_strip():
    x = EdgeVector(4, (1, 0, 0, 1, 0, 1))
    assert parse_graph6(">>graph6<<" + emit_graph6(x)) == x


def test_large_n_size_field():
    x = zero_vector(63)
    encoded = emit_graph6(x)
    assert encoded.startswith(chr(126))
    assert parse_graph6(encoded) == x
    assert encoded == nx_graph6(x)


def test_emit_rejects_non_simple():
    with pytest.raises(ValueError, match=r"^non-simple weight 1/2 at edge \(1, 2\)$"):
        emit_graph6(EdgeVector(4, ("1/2", 0, 0, 0, 0, 0)))
    with pytest.raises(ValueError, match=r"^non-simple weight -3 at edge \(2, 4\)$"):
        emit_graph6(EdgeVector(4, (0, 1, 0, 0, -3, 1)))


def test_parse_graph6_malformed():
    with pytest.raises(ParseError):
        parse_graph6("")
    with pytest.raises(ParseError):
        parse_graph6("C")  # length mismatch: n=4 needs one data byte
    with pytest.raises(ParseError):
        parse_graph6("C??")  # too many data bytes
    with pytest.raises(ParseError):
        parse_graph6("C" + chr(20))  # data byte out of range
    with pytest.raises(ParseError):
        parse_graph6("A?")  # n=2 rejected
    with pytest.raises(ParseError):
        parse_graph6("Cü")
    assert parse_graph6("B?") == zero_vector(3)  # smallest accepted size


def test_parse_graph6_refuses_a_vertex_count_over_the_limit():
    # "~?mx" is the size field of n = 3001 with no data bytes: the limit is
    # named before the length of the C(n,2) bits is checked
    with pytest.raises(ParseError) as err:
        parse_graph6("~?mx")
    assert str(err.value) == f"vertex count 3001 exceeds the limit of {MAX_VERTICES}"
    with pytest.raises(ParseError, match="^length mismatch: n=3000 needs"):
        parse_graph6("~?mw")


def test_parse_graph6_nonzero_padding():
    # n=4 has m=6 so there are no padding bits; n=5 has m=10, 2 padding bits
    good = emit_graph6(zero_vector(5))
    corrupted = good[:-1] + chr(ord(good[-1]) + 1)  # flips the lowest padding bit
    with pytest.raises(ParseError):
        parse_graph6(corrupted)
