"""Exact multivariate polynomials on edge coordinates and their group averages.

Averaging a polynomial over every induced edge-position permutation projects
it onto the subalgebra of functions unchanged by vertex relabeling.  For four
vertices, a tuple of four such averages separates the eleven isomorphism
types of simple graphs.
"""

from __future__ import annotations

import math
import re
from collections.abc import Mapping
from fractions import Fraction
from itertools import product
from operator import index

from .pairgroup import (
    DEFAULT_MAX_N,
    EdgeVector,
    _check_enumerable,
    _exact,
    _group_table,
)


class Polynomial:
    """Sparse polynomial over exact rationals in variables x1..x{nvars}.

    Terms map exponent tuples, read by ``operator.index``, to nonzero
    coefficients; equality is term-map equality and printing uses descending
    graded-lex order, so outputs are byte-stable.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Mapping[tuple[int, ...], Fraction] | None = None):
        self.nvars = index(nvars)
        if self.nvars < 1:
            raise ValueError(f"need at least one variable, got {nvars}")
        clean: dict[tuple[int, ...], Fraction] = {}
        if terms:
            for mono, coeff in terms.items():
                mono = tuple(map(index, mono))
                if len(mono) != self.nvars:
                    raise ValueError(
                        f"monomial has {len(mono)} exponents, expected {self.nvars}"
                    )
                if any(e < 0 for e in mono):
                    raise ValueError(f"negative exponent in {mono}")
                c = _exact(coeff)
                if c:
                    clean[mono] = c
        self.terms = clean

    @classmethod
    def _from_exact(cls, nvars: int, terms: dict[tuple[int, ...], Fraction]) -> Polynomial:
        """Checked exponent tuples and Fractions: drops zeros, checks only the digit limit."""
        f = object.__new__(cls)
        f.nvars, f.terms = nvars, {mono: _exact(c) for mono, c in terms.items() if c}
        return f

    @classmethod
    def monomial(cls, exponents, coeff=1) -> Polynomial:
        exponents = tuple(exponents)
        return cls(len(exponents), {exponents: coeff})

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def to_text(self) -> str:
        """One term per line, descending graded-lex, as ``coeff * x<i>^<e> ...``."""
        if not self.terms:
            return "0"
        # graded lex with x1 > x2 > ...: degree first, then the exponent tuple
        monos = sorted(self.terms, key=lambda e: (sum(e), e), reverse=True)
        lines = []
        for mono in monos:
            factors = " ".join(f"x{i}^{e}" for i, e in enumerate(mono, start=1) if e)
            lines.append(f"{self.terms[mono]} * {factors or '1'}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"Polynomial(nvars={self.nvars}, terms={len(self.terms)})"


def reynolds(f: Polynomial, n: int, max_n: int = DEFAULT_MAX_N) -> Polynomial:
    """Average f over all induced edge-position permutations for n vertices.

    The average is fixed by every relabeling, acts as the identity on
    polynomials that are already invariant, and is therefore a projector.
    By orbit-stabilizer each of the |orbit| images of a monomial is hit
    n!/|orbit| times, so the monomial averages to its orbit sum times
    coeff/|orbit|; images shared by several monomials add up.
    """
    m = n * (n - 1) // 2
    if f.nvars != m:
        raise ValueError(f"f has {f.nvars} variables but n={n} needs {m}")
    _check_enumerable(n, max_n)
    acc: dict[tuple[int, ...], Fraction] = {}
    for mono, coeff in f.terms.items():
        orbit = {take(mono) for _, take in _group_table(n)}
        share = coeff / len(orbit)
        for image in orbit:
            acc[image] = acc[image] + share if image in acc else share
    return Polynomial._from_exact(m, acc)


def simple_graph_invariants() -> list[Polynomial]:
    """The four averages whose value tuple separates simple 4-vertex graphs."""
    seeds = [
        (1, 0, 0, 0, 0, 0),  # x1
        (1, 0, 0, 0, 0, 1),  # x1 x6
        (1, 1, 0, 0, 0, 0),  # x1 x2
        (1, 1, 1, 0, 0, 0),  # x1 x2 x3
    ]
    return [reynolds(Polynomial.monomial(e), 4) for e in seeds]


def classify_simple_graphs_n4() -> dict[tuple[Fraction, ...], list[EdgeVector]]:
    """Partition all 64 simple 4-vertex graphs by their 4-invariant value tuple.

    At a 0/1 point a monomial is 1 when its support is a set of edges and 0
    otherwise, so each value is the sum of the coefficients whose support
    mask lies inside the graph's edge mask: an integer over the lcm of the
    invariant's denominators.  The graphs come in ``product`` order, so a
    graph's index is its edge mask, with position s in bit 5 - s, each class
    lists its members ascending, and the classes come by least member ascending.
    """
    dens, sums = [], []
    for f in simple_graph_invariants():
        den = math.lcm(*(c.denominator for c in f.terms.values()))
        dens.append(den)
        sums.append([
            (sum(1 << 5 - s for s, e in enumerate(mono) if e), c.numerator * den // c.denominator)
            for mono, c in f.terms.items()
        ])
    groups: dict[tuple[int, ...], list[EdgeVector]] = {}
    for edges, bits in enumerate(product((0, 1), repeat=6)):
        key = tuple(sum(c for m, c in terms if m & edges == m) for terms in sums)
        groups.setdefault(key, []).append(EdgeVector._from_bits(4, bytes(bits)))
    return {tuple(map(Fraction, key, dens)): members for key, members in groups.items()}


_FACTOR_RE = re.compile(r"^x(\d+)(?:\^(\d+))?$")


def parse_monomial(text: str, nvars: int) -> Polynomial:
    """Parse a power product like ``x1^2*x2`` or ``x1 x6`` into a polynomial."""
    tokens = text.replace("*", " ").split()
    if not tokens:
        raise ValueError("empty monomial")
    exponents = [0] * nvars
    for token in tokens:
        if token == "1":
            continue
        match = _FACTOR_RE.match(token)
        if not match:
            raise ValueError(f"bad monomial factor: {token!r}")
        i = int(match.group(1))
        if not 1 <= i <= nvars:
            raise ValueError(f"variable x{i} out of range 1..{nvars}")
        exponents[i - 1] += int(match.group(2) or 1)
    return Polynomial.monomial(tuple(exponents))
