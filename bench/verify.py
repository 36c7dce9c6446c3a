"""Checks of the program's answers against the references in :mod:`refs`.

Each check takes an op's output and the data the op was generated from, and
raises :class:`CheckError` on the first thing that is wrong.  Checks never
call paircanon, so they also run unchanged while tracing is switched on.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction

import refs


class CheckError(Exception):
    """An op's output is wrong."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def _permutation(images, n: int, what: str) -> tuple[int, ...]:
    images = tuple(images)
    _require(refs.is_permutation(images, n), f"{what} is not a permutation of 1..{n}")
    return images


_GROUP_ORDERS: dict = {}  # (n, generators) -> order of the group they generate


def group_order(gens, n: int) -> int:
    """Order of the group the permutations ``gens`` of 1..n generate.

    Builds a stabilizer chain with base 0..n-1 by Knuth's form of the
    Schreier-Sims algorithm (Combinatorica 11, 1991), holding at most n^2
    permutations, so checking a large group does not raise the process's
    peak memory.  ``trans[k][j]`` maps k to j and fixes 0..k-1; the order
    is the product of the orbit lengths.  Results are cached: the same
    input gives the same generators on every pass.
    """
    key = (n, tuple(sorted(gens)))
    if key in _GROUP_ORDERS:
        return _GROUP_ORDERS[key]
    identity = tuple(range(n))
    trans = [{k: identity} for k in range(n)]
    strong = [[] for _ in range(n)]

    def compose(a, b):  # a after b
        return tuple(a[x] for x in b)

    def inverse(a):
        out = [0] * n
        for x, y in enumerate(a):
            out[y] = x
        return tuple(out)

    def is_member(k, g):  # g, fixing 0..k-1, lies in the group the chain holds from k on
        for m in range(k, n):
            u = trans[m].get(g[m])
            if u is None:
                return False
            g = compose(inverse(u), g)
        return True

    def add(k, g):  # add g, fixing 0..k-1, to the generators of level k
        if is_member(k, g):
            return
        strong[k].append(g)
        for u in list(trans[k].values()):
            extend(k, compose(g, u))

    def extend(k, t):  # t, fixing 0..k-1, sends k into the orbit of level k
        j = t[k]
        if j not in trans[k]:
            trans[k][j] = t
            for g in strong[k]:
                extend(k, compose(g, t))
        else:
            add(k + 1, compose(inverse(trans[k][j]), t))

    for g in gens:
        add(0, tuple(v - 1 for v in g))
    _GROUP_ORDERS[key] = math.prod(len(t) for t in trans)
    return _GROUP_ORDERS[key]


def check_canon(text: str, M, brute=None, order=None) -> tuple:
    """Check ``canon --json`` output for the input matrix M.

    The frame must map M to the printed canonical vector, every printed
    generator must fix M, the order must divide n!, and the generators must
    generate a group of exactly that order; with ``brute`` (the
    :func:`refs.brute_canon` answer for M) vector, frame and order must match
    it exactly, and with ``order`` (known for the structured families) the
    order must equal it.  Returns (canonical vector, aut_order), which must
    agree across relabelings of one input.
    """
    n = len(M)
    data = json.loads(text)
    _require(data["n"] == n, f"n is {data['n']}, expected {n}")
    canonical = tuple(Fraction(w) for w in data["canonical"])
    frame = _permutation(data["frame"], n, "frame")
    _require(
        refs.vector(refs.relabel(M, frame)) == canonical,
        "frame does not map the input to the canonical vector",
    )
    gens = [_permutation(g, n, "generator") for g in data["aut_generators"]]
    for g in gens:
        _require(refs.relabel(M, g) == M, f"generator {list(g)} does not fix the input")
    aut_order = data["aut_order"]
    _require(
        isinstance(aut_order, int) and aut_order >= 1 and math.factorial(n) % aut_order == 0,
        f"aut_order {aut_order} does not divide {n}!",
    )
    generated = group_order(gens, n)
    _require(
        generated == aut_order,
        f"generators give a group of order {generated}, aut_order is {aut_order}",
    )
    if order is not None:
        _require(aut_order == order, f"aut_order {aut_order}, the graph's is {order}")
    if brute is not None:
        vec, brute_frame, brute_order = brute
        _require(canonical == vec, "canonical vector differs from brute force")
        _require(frame == brute_frame, "frame differs from brute force")
        _require(aut_order == brute_order, "aut_order differs from brute force")
    return canonical, aut_order


def check_weighted_io(text: str, expected: str) -> None:
    """The relabeled edge list must equal the matrix reference byte for byte."""
    _require(text == expected, "relabeled edge list differs from the matrix reference")


def check_graph6_io(result, original: str, bits: tuple[int, ...]) -> None:
    """A graph6 round trip must reproduce the input and decode to the right edges."""
    text, weights = result
    _require(text == original, "graph6 round trip changed the string")
    _require(tuple(weights) == tuple(bits), "decoded weights differ from the matrix reference")


_TERM_RE = re.compile(r"^(\S+) \* (.+)$")
_FACTOR_RE = re.compile(r"^x(\d+)\^(\d+)$")


def _parse_terms(lines, m: int) -> dict[tuple[int, ...], Fraction]:
    terms = {}
    for line in lines:
        match = _TERM_RE.match(line)
        _require(match is not None, f"bad term line {line!r}")
        exps = [0] * m
        if match.group(2) != "1":
            for factor in match.group(2).split():
                fm = _FACTOR_RE.match(factor)
                _require(fm is not None, f"bad factor {factor!r}")
                exps[int(fm.group(1)) - 1] += int(fm.group(2))
        key = tuple(exps)
        _require(key not in terms, f"repeated monomial in {line!r}")
        terms[key] = Fraction(match.group(1))
    return terms


def check_reynolds(text: str, n: int, exponents: tuple[int, ...], sigma) -> None:
    """The group average of a monomial: invariant under sigma, coefficients sum to 1.

    Every term must also be a rearrangement of the input monomial's exponents.
    """
    data = json.loads(text)
    m = n * (n - 1) // 2
    terms = _parse_terms(data["terms"], m)
    _require(bool(terms), "empty average")
    _require(sum(terms.values()) == 1, "coefficients do not sum to 1")
    shape = sorted(exponents)
    for key in terms:
        _require(sorted(key) == shape, f"term {key} is not an image of the monomial")
    pmap = refs.position_map(sigma)
    moved = {refs.move_exponents(key, pmap): c for key, c in terms.items()}
    _require(moved == terms, "average is not invariant under the relabeling")


def check_classify(text: str) -> None:
    """The 11 classes of simple 4-vertex graphs: canonical, distinct, orbits sum to 64."""
    classes = json.loads(text)["classes"]
    _require(len(classes) == 11, f"{len(classes)} classes, expected 11")
    seen = set()
    for row in classes:
        M = refs.graph6_decode(row["graph6"])
        vec, _, aut = refs.brute_canon(M)
        _require(refs.vector(M) == vec, f"class {row['id']} representative is not canonical")
        _require(row["orbit_size"] * aut == 24, f"class {row['id']} has a wrong orbit size")
        seen.add(vec)
    _require(len(seen) == 11, "two classes share a representative")
    _require(sum(row["orbit_size"] for row in classes) == 64, "orbit sizes do not sum to 64")


def check_sortframe(text: str, values: tuple[Fraction, ...]) -> None:
    """Sorted entries, the stable sorting frame, and e_1..e_n from prod (t - v_i)."""
    n = len(values)
    data = json.loads(text)
    ordered = [Fraction(v) for v in data["sorted"]]
    _require(ordered == sorted(values), "sorted entries are wrong")
    frame = _permutation(data["frame"], n, "frame")
    placed = [None] * n
    for i, v in enumerate(values):
        placed[frame[i] - 1] = v
    _require(placed == ordered, "frame does not sort the vector")
    for i in range(n):
        for j in range(i + 1, n):
            if values[i] == values[j]:
                _require(frame[i] < frame[j], "frame is not the smallest sorting permutation")
    coeffs = refs.poly_from_roots(values)
    expected = [(-1) ** k * coeffs[n - k] for k in range(1, n + 1)]
    _require(
        [Fraction(e) for e in data["elementary"]] == expected,
        "elementary symmetric values differ from the expanded product",
    )
