"""Property tests of the text and graph6 codecs, generated by Hypothesis.

The edge-list parser, its literal rule and its writer are compared with the
references in ``oracles.py`` on generated inputs, valid and invalid; both
parsers must raise only ``ParseError`` on arbitrary text; and both formats
must read back what they write.
"""

import sys
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from paircanon.graphio import (
    ParseError,
    emit_graph6,
    emit_weighted,
    parse_graph6,
    parse_weighted,
)
from paircanon.pairgroup import EdgeVector, _exact

from oracles import (
    emit_weighted_by_pair,
    exact_by_fraction,
    pair_count,
    parse_weighted_by_line,
    ranks_by_sorting,
)

# no example database: the runs leave no files behind
PROPERTY = settings(
    deadline=None, database=None, suppress_health_check=[HealthCheck.too_slow]
)

#: equal values written differently, so a literal's value, not its text, must agree
SPELLINGS = [
    ["0", "-0", "+0", "0/7", "0.0", "0e5", ".0"],
    ["1/2", "0.5", "2/4", ".5", "5e-1", "+1/2", "50E-2"],
    ["3", "+3", "3.0", "6/2", "3e0", "0.3e1", "30E-1"],
    ["1e-2", "0.01", "1/100", "1E-2", "+.01"],
    ["-7/3", "-14/6", "-21/9"],
    ["1000", "1e3", "1E+3", "10e2", "2000/2"],
]
BAD_LITERALS = ["1/0", "0.1.2", "abc", "1e", "e5", "1/-2", "--1", "1/2/3", "0x10", "1,5", "."]
SEPARATORS = [" ", "\t", "  ", " \t "]
TRAILERS = ["", " ", "# note", "  # note", "#"]


#: U+0660..U+0669, the Arabic-Indic digits, which int() reads as 0..9
_ARABIC_INDIC = str.maketrans("0123456789", "".join(map(chr, range(0x660, 0x66A))))


def _spelled(v):
    """Vertex label v as written: mostly ``str(v)``, else a spelling int() reads as v."""
    return st.sampled_from([str(v)] * 4 + [f"0{v}", f"+{v}", str(v).translate(_ARABIC_INDIC)])


def _outcome(parse, text):
    """(True, n, weights) for a parse, (False, line, message) for a ParseError."""
    try:
        x = parse(text)
    except ParseError as exc:
        return False, exc.line, str(exc)
    return True, x.n, x.weights


@st.composite
def edge_lists(draw):
    """Edge-list text: mostly valid lines, with every kind of error mixed in."""
    n = draw(st.integers(3, 6))
    header = draw(
        st.sampled_from(
            [f"n {n}"] * 6 + [f"  n\t{n}  # header", f"n +{n}", "n x", "n 2", f"{n}", f"n {n} 1"]
        )
    )
    lines = draw(st.lists(st.sampled_from(["", "# comment", "   "]), max_size=2))
    lines.append(header)
    pairs = []
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.integers(0, 10))
        sep = draw(st.sampled_from(SEPARATORS))
        if kind <= 5 or (kind == 10 and pairs):  # a valid line; a repeated pair is an error
            if kind == 10:  # an earlier pair again, after blank and comment lines
                i, j = draw(st.sampled_from(pairs))
                lines += draw(st.lists(st.sampled_from(["", "# between", " \t"]), max_size=3))
            else:
                i = draw(st.integers(1, n - 1))
                j = draw(st.integers(i + 1, n))
                pairs.append((i, j))
            literal = draw(st.sampled_from(draw(st.sampled_from(SPELLINGS))))
            fields = [draw(_spelled(i)), draw(_spelled(j)), literal]
        elif kind in (6, 10):
            lines.append(draw(st.sampled_from(["", "#", "  # only a comment", "\t"])))
            continue
        elif kind == 7:  # labels out of range, in the wrong order, or not numbers
            label = st.one_of(st.integers(-1, n + 1).map(str), st.sampled_from(["x", "1.0", "+2"]))
            fields = [draw(label), draw(label), "1"]
        elif kind == 8:
            fields = ["1", "2", draw(st.sampled_from(BAD_LITERALS))]
        else:  # a wrong number of fields
            fields = draw(st.lists(st.sampled_from(["1", "2", "3"]), max_size=5).filter(
                lambda f: len(f) not in (0, 3)
            ))
        lines.append(sep.join(fields) + draw(st.sampled_from(TRAILERS)))
    return draw(st.sampled_from(["\n", "\r\n"])).join(lines)


@settings(PROPERTY, max_examples=150)
@given(edge_lists())
def test_parse_weighted_matches_the_line_by_line_reference(text):
    got = _outcome(parse_weighted, text)
    assert got == _outcome(parse_weighted_by_line, text)
    if got[0]:
        assert all(type(w) is Fraction for w in got[2])
        x = parse_weighted(text)
        assert (x.ranks, list(x.levels)) == ranks_by_sorting(x.weights)


@pytest.mark.parametrize(
    "text",
    [
        "n 4\n1 2 1\n1 2 2\n",
        "n 4\n2 1 1\n",
        "n 4\n3 3 1\n",
        "n 4\n1 5 1\n",
        "n 4\n1 2 0.1.2\n",
        "n 4\n1 2 1/0\n",
        "n 2\n",
        "n x\n",
        "4\n1 2 1\n",
        "n 4\n1 2\n",
        "n 4\n1 x 1 # c\n",
        "# nothing here\n",
        "n 4\r\n1 2 1\r\n3 4 x\r\n",
        "n 4\r\n1 2 1\r\n\r\n01 +2 1/2\r\n",
        "n 4\x0c1 2 1\x0c1 2 1\n",
        "n 4\u20281 3 1\u2028\u20283 1 1\n",
        "# a comment\n\n  # another\nn 4\n1 2 1\n2 3 1 # c\n# c\n02 3 1\n",
        "# a comment\n# n 4\n1 2 1\n",
    ],
)
def test_parse_errors_match_the_reference(text):
    assert _outcome(parse_weighted, text) == _outcome(parse_weighted_by_line, text)


_ARBITRARY_TEXT = st.one_of(
    st.text(max_size=80),
    st.text(alphabet="n 0123456789#e/.-+_\n\t\r\x0bE", max_size=60),
)


@settings(PROPERTY, max_examples=150)
@given(_ARBITRARY_TEXT)
def test_parse_weighted_raises_only_parse_errors(text):
    try:
        x = parse_weighted(text)
    except ParseError:
        return
    assert all(type(w) is Fraction for w in x.weights)


def _graph6_like():
    """Strings with a valid or broken size field and a body of any bytes."""
    size = st.sampled_from(["B", "C", "D", "H", "~??~", "~?A?", "~~", "A", "@", "\x7f", ""])
    body = st.text(alphabet=st.characters(min_codepoint=0, max_codepoint=130), max_size=14)
    header = st.sampled_from(["", ">>graph6<<", " "])
    return st.builds(lambda h, s, b: h + s + b, header, size, body)


@settings(PROPERTY, max_examples=200)
@given(st.one_of(st.text(max_size=40), _graph6_like()))
def test_parse_graph6_raises_only_parse_errors(text):
    try:
        x = parse_graph6(text)
    except ParseError:
        return
    # an accepted string holds exactly the data bytes emit_graph6 writes
    need = (pair_count(x) + 5) // 6
    assert text.strip()[len(text.strip()) - need :] == emit_graph6(x)[-need:]


_WEIGHTS = st.one_of(
    st.fractions(max_denominator=40),
    st.integers(-(10**30), 10**30).map(Fraction),
    st.sampled_from([Fraction(0), Fraction(0), Fraction(1, 3)]),
)


@st.composite
def weighted_vectors(draw):
    n = draw(st.integers(3, 7))
    m = n * (n - 1) // 2
    return EdgeVector(n, tuple(draw(st.lists(_WEIGHTS, min_size=m, max_size=m))))


@st.composite
def simple_vectors(draw):
    """Simple graphs up to n=70, past the one-byte graph6 size field."""
    n = draw(st.integers(3, 70))
    m = n * (n - 1) // 2
    mask = draw(st.integers(0, 2**m - 1))
    return EdgeVector(n, tuple((mask >> s) & 1 for s in range(m)))


@settings(PROPERTY, max_examples=75)
@given(weighted_vectors())
def test_weighted_text_reads_back_what_it_writes(x):
    assert parse_weighted(emit_weighted(x)) == x


@settings(PROPERTY, max_examples=100)
@given(simple_vectors())
def test_graph6_reads_back_what_it_writes(x):
    assert parse_graph6(emit_graph6(x)) == x


# digit runs: short ASCII ones, exactly MAX_EXPONENT and one more (also with
# leading zeros, whose value is short), and digits int() reads or refuses
_DIGITS = st.one_of(
    st.text(alphabet="0123456789", max_size=6),
    st.sampled_from(["9" * 4300, "1" * 4301, "0" * 4299 + "7", "0" * 4300 + "7"]),
    st.text(alphabet="0123456789\u0660\u0663\u0669\u00b2\u00b3\u2075_", min_size=1, max_size=5),
)


@st.composite
def literals(draw):
    """Strings around the rule for an exact literal: ``[+-]digits[/digits]`` and
    everything near it, decimals and exponents included."""
    sign = draw(st.sampled_from(["", "", "+", "-", "--", "+-"]))
    tail = draw(st.sampled_from(["", "", "/", "/", "//", "/-", "/+", ".", "e", "E-"]))
    text = sign + draw(_DIGITS) + tail + (draw(_DIGITS) if tail else "")
    text += draw(st.sampled_from(["", "", "", "e5", "E-3", "e4301", ".25", "/2"]))
    pad = st.sampled_from(["", "", "", "", "", " ", "\t", "\u3000"])
    return draw(pad) + text + draw(pad)


class _Text(str):
    """A ``str`` subclass whose ``partition`` misreads it: a subclass may
    override any method, so the integer path leaves it to ``Fraction``."""

    def partition(self, sep):
        return "0", "", ""


def _coerced(exact, text):
    """(type, numerator, denominator) of a value, (type, message) of an error."""
    try:
        w = exact(text)
    except (ValueError, TypeError) as exc:
        return type(exc), str(exc)
    return type(w), w.numerator, w.denominator


_LITERAL_TEXT = st.one_of(literals(), literals().map(_Text), st.text(max_size=12))

# the edges of the integer path, tried on every run
_LITERAL_EDGES = [
    "1" * 4301, "-" + "9" * 4300, "1/" + "1" * 4301, "0" * 4300 + "7", "7/" + "0" * 4300 + "3",
    "1/0", "-0/0", "1//2", "1/", "1/-2", "+5", "-0", "007/014", _Text("5"),
]


def _with_edges(test):
    for text in _LITERAL_EDGES:
        test = example(text)(test)
    return test


@settings(PROPERTY, max_examples=300)
@_with_edges
@given(_LITERAL_TEXT)
def test_exact_matches_fraction_of_str(text):
    assert _coerced(_exact, text) == _coerced(exact_by_fraction, text)


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="no int-str digit limit to lift"
)
@settings(PROPERTY, max_examples=150)
@_with_edges
@given(_LITERAL_TEXT)
def test_exact_matches_fraction_of_str_without_a_digit_limit(text):
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        assert _coerced(_exact, text) == _coerced(exact_by_fraction, text)
    finally:
        sys.set_int_max_str_digits(limit)


@st.composite
def mixed_vectors(draw):
    """n = 3..70, weights drawn from a few values, 0 among them, with equal
    values also held by distinct objects."""
    n = draw(st.integers(3, 70))
    pool = draw(st.lists(_WEIGHTS, min_size=1, max_size=5)) + [Fraction(0)]
    rng = draw(st.randoms(use_true_random=False))
    weights = (rng.choice(pool) for _ in range(n * (n - 1) // 2))
    return EdgeVector(n, tuple(w if rng.random() < 0.8 else Fraction(w) for w in weights))


@settings(PROPERTY, max_examples=100)
@given(mixed_vectors())
def test_emit_weighted_matches_the_pair_by_pair_writer(x):
    assert emit_weighted(x) == emit_weighted_by_pair(x)
