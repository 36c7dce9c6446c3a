"""Independent reference implementations used to compute expected test values.

Everything here goes through symmetric adjacency matrices and raw index
arithmetic, deliberately avoiding the package's position-permutation
machinery, so agreement is a real cross-check rather than a tautology.
The exceptions are :func:`all_actions`, the package's induced actions listed
by ``itertools.permutations``; :func:`frame_coset_check`, which states the
frame's defining property in terms of the package's own canonizer and actions,
:func:`generating_set_by_scan`, the definition of the greedy generating set
on the package's vertex permutations, :func:`parse_weighted_by_line`, the
edge-list parser written line by line, :func:`exact_by_fraction`, the rule
for an exact literal with every string going through ``Fraction(str)``,
:func:`emit_weighted_by_pair`, the edge-list writer written pair by pair,
:func:`evaluate_by_term`, a polynomial's value from its terms in ``Fraction``
arithmetic, :func:`elementary_symmetric_per_k`, one e_k by its own pass of
the product recurrence, and :func:`classify_by_evaluate`, the simple 4-vertex
graphs grouped by :func:`evaluate_by_term` of each of the package's four
simple-graph invariants.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, permutations, product

from paircanon.frame import canonical_form_pruned
from paircanon.graphio import ParseError
from paircanon.pairgroup import (
    EdgeVector,
    PairAction,
    VertexPermutation,
    act,
    induced_pair_action,
)
from paircanon.polyinv import simple_graph_invariants


def zero_vector(n):
    """The edge vector of the graph on n vertices with every weight 0."""
    return EdgeVector(n, (Fraction(0),) * (n * (n - 1) // 2))


def lex_pairs(n):
    """All pairs (i, j), i < j, of {1..n} in lexicographic order."""
    return list(combinations(range(1, n + 1), 2))


def pair_count(x):
    """The number of pairs, C(n,2), of an edge vector."""
    return len(x.weights)


def is_simple(x):
    """Whether every weight of an edge vector is 0 or 1."""
    return all(w == 0 or w == 1 for w in x.weights)


def pair_position(i, j, n):
    """1-based position of the pair (i, j), i < j, found by enumerating the pairs."""
    return lex_pairs(n).index((i, j)) + 1


def all_actions(n):
    """The n! induced actions, ascending by one-line order of the source."""
    return [PairAction(VertexPermutation(p)) for p in permutations(range(1, n + 1))]


def matrix_of(n, weights):
    """Symmetric (n+1)x(n+1) matrix (1-based) from a row-lex weight sequence."""
    W = [[Fraction(0)] * (n + 1) for _ in range(n + 1)]
    for (i, j), w in zip(lex_pairs(n), weights):
        W[i][j] = W[j][i] = Fraction(w)
    return W


def relabeled_vector(n, weights, sigma):
    """Weight vector after relabeling vertex i as sigma[i-1], via the matrix."""
    W = matrix_of(n, weights)
    inv = [0] * (n + 1)
    for i, v in enumerate(sigma, start=1):
        inv[v] = i
    return tuple(W[inv[a]][inv[b]] for a, b in lex_pairs(n))


def naive_canonical(n, weights):
    """Brute-force (canonical vector, frame one-line, sorted automorphism list)."""
    x = tuple(Fraction(w) for w in weights)
    best = None
    best_sigma = None
    automorphisms = []
    for sigma in permutations(range(1, n + 1)):
        y = relabeled_vector(n, x, sigma)
        if best is None or y < best:
            best, best_sigma = y, sigma
        if y == x:
            automorphisms.append(sigma)
    return best, best_sigma, automorphisms


def orbit_of(n, weights):
    """The set of all relabelings of a weight vector."""
    x = tuple(Fraction(w) for w in weights)
    return {relabeled_vector(n, x, sigma) for sigma in permutations(range(1, n + 1))}


def all_simple_vectors(n):
    """All 2^C(n,2) simple weight tuples."""
    m = n * (n - 1) // 2
    out = []
    for mask in range(1 << m):
        out.append(tuple(Fraction((mask >> s) & 1) for s in range(m)))
    return out


def random_rational_weights(rng: random.Random, m: int, distinct: bool = False):
    """Random exact-rational weight tuple; optionally with all entries distinct."""
    while True:
        weights = tuple(
            Fraction(rng.randrange(-30, 31), rng.randrange(1, 13)) for _ in range(m)
        )
        if not distinct or len(set(weights)) == m:
            return weights


def random_simple_weights(rng: random.Random, m: int):
    return tuple(Fraction(rng.randrange(2)) for _ in range(m))


def twin_graph_weights(rng: random.Random, n: int, classes: int):
    """Weights of a graph whose n vertices fall into ``classes`` groups of twins.

    Each group gets its own internal weight, neither 0 nor 1, and each two
    groups a cross weight from a small pool, so groups may also be twins of
    one another.  Vertices are assigned to groups at random.
    """
    group = [rng.randrange(classes) for _ in range(n)]
    inner = rng.sample([Fraction(p, q) for p in (-3, 5, 7) for q in (2, 3)], classes)
    cross = {}
    for i, j in combinations(range(classes), 2):
        cross[i, j] = cross[j, i] = rng.choice((0, 1, Fraction(1, 2)))
    return tuple(
        inner[group[i - 1]] if group[i - 1] == group[j - 1] else cross[group[i - 1], group[j - 1]]
        for i, j in lex_pairs(n)
    )


def twin_classes(n, weights):
    """The classes of two or more vertices with equal weights to every other
    vertex, 0-based and ascending, by comparing matrix rows pairwise."""
    W = matrix_of(n, weights)
    classes = []
    for u in range(1, n + 1):
        for c in classes:
            if all(W[c[0] + 1][w] == W[u][w] for w in range(1, n + 1) if w not in (c[0] + 1, u)):
                c.append(u - 1)
                break
        else:
            classes.append([u - 1])
    return [c for c in classes if len(c) > 1]


def children_by_full_split(R, first, rest, twin_of):
    """Every child of the ordered partition [first, *rest] of a search over the
    matrix R of ranks or weights, as (row, vertex, cells), built together:
    the reference for ``paircanon.frame._children``, which finds the least row
    and the vertices reaching it, composed with ``paircanon.frame._split``,
    which builds such a child's cells.  A child labels the last member of a
    twin class in ``first`` and splits each cell by the rank to it, ascending;
    its row lists the ranks in the order of its cells."""
    children = []
    for u in first:
        if [w for w in first if twin_of[w] == twin_of[u]][-1] != u:
            continue
        row, cells = [], []
        for cell in [[w for w in first if w != u]] + rest:
            for r in sorted({R[u][w] for w in cell}):
                group = [w for w in cell if R[u][w] == r]
                row += [r] * len(group)
                cells.append(group)
        children.append((tuple(row), u, cells))
    return children


def minimizers_by_levels(x):
    """The canonical vector of an edge vector and all its minimizers, ascending
    in one-line order, by a level-synchronous refinement over the weights: the
    second opinion on ``paircanon.frame.canonical_form_pruned`` where brute
    force cannot run.

    A node is a labelled prefix and an ordered partition of the other vertices.
    Its children, from :func:`children_by_full_split` over the weight matrix
    with every vertex its own class, label each member v of its first cell in
    turn; a child's row lists v's weights to the other unlabelled vertices,
    each cell's sorted, and every cell splits by the weight to v, ascending.
    At each depth only the children whose row is that depth's least survive.
    No node is merged or skipped, and no automorphism or twin is used, so the
    final frontier holds every minimizer: |Aut| of them, the least one the frame."""
    n = x.n
    W = [[None] * n for _ in range(n)]
    for (i, j), w in zip(combinations(range(n), 2), x.weights):
        W[i][j] = W[j][i] = w
    alone = [[u] for u in range(n)]
    rows, frontier = [], [((), [list(range(n))])]
    for _ in range(n):
        children = [
            (row, prefix + (v,), cells)
            for prefix, (first, *rest) in frontier
            for row, v, cells in children_by_full_split(W, first, rest, alone)
        ]
        rows.append(min(row for row, _, _ in children))
        frontier = [(prefix, cells) for row, prefix, cells in children if row == rows[-1]]
    minimizers = []
    for order, _ in frontier:
        images = [0] * n
        for label, v in enumerate(order, start=1):
            images[v] = label
        minimizers.append(VertexPermutation(images))
    return EdgeVector(n, [w for row in rows for w in row]), sorted(minimizers)


def ranks_by_sorting(weights):
    """Each weight's rank among the distinct values, and those values ascending,
    by a plain sort: the reference for ``paircanon.pairgroup._rank``, which gives
    every edge vector its ``ranks`` and ``levels``."""
    levels = sorted(set(weights))
    rank_of = {w: r for r, w in enumerate(levels)}
    return tuple(rank_of[w] for w in weights), levels


def twin_transpositions(n, classes):
    """The transposition of each two adjacent members of a class, as 0-based
    image tuples; they generate the product of the classes' symmetric groups."""
    swaps = []
    for c in classes:
        for a, b in zip(c, c[1:]):
            images = list(range(n))
            images[a], images[b] = b, a
            swaps.append(tuple(images))
    return swaps


def random_permutation(rng: random.Random, n: int):
    images = list(range(1, n + 1))
    rng.shuffle(images)
    return tuple(images)


def permuted(values, images):
    """``values`` with entry i moved to 1-based position ``images[i-1]``, each
    position filled by searching ``images`` for it: moves a point's entries by
    a vertex permutation, and a monomial's exponents by an induced action's
    ``index_map``, the way :func:`paircanon.pairgroup.act` moves weights."""
    if sorted(images) != list(range(1, len(values) + 1)):
        raise ValueError(f"not a permutation of 1..{len(values)}: {images}")
    return tuple(values[images.index(t)] for t in range(1, len(values) + 1))


def elementary_symmetric_by_subsets(k, values):
    """e_k by its definition: the sum over all k-subsets of the product of entries."""
    total = Fraction(0)
    for subset in combinations(values, k):
        term = Fraction(1)
        for value in subset:
            term *= value
        total += term
    return total


def elementary_symmetric_per_k(k, values):
    """e_k by a product recurrence of its own over all n entries: O(n*k) per k."""
    e = [Fraction(1)] + [Fraction(0)] * k
    for value in values:
        for j in range(k, 0, -1):
            e[j] += e[j - 1] * value
    return e[k]


def frame_coset_check(x: EdgeVector, action: PairAction) -> bool:
    """Check the frame's defining property along one group element.

    The composite frame(action.x) o action o frame(x)^-1 must fix the
    canonical vector of x.  With a trivial stabilizer this forces exact
    equivariance of the frame; with symmetries present it still pins the
    frame down to the correct stabilizer coset.
    """
    if action.n != x.n:
        raise ValueError(f"dimension mismatch: action has n={action.n}, vector n={x.n}")
    rx = canonical_form_pruned(x)
    ry = canonical_form_pruned(act(action, x))
    composite = induced_pair_action(
        ry.frame.compose(action.source).compose(rx.frame.inverse())
    )
    return act(composite, rx.canonical) == rx.canonical


def closure(
    gens: list[VertexPermutation], n: int, base: set[VertexPermutation] | None = None
) -> set[VertexPermutation]:
    """The group generated by gens and the group ``base`` (trivial when omitted).

    Dimino's algorithm: the result grows by whole right cosets of ``base``, one
    for each product of a coset representative and a generator not yet in it.
    """
    identity = VertexPermutation(tuple(range(1, n + 1)))
    base = base or {identity}
    seen = set(base)
    reps = [identity]
    for r in reps:
        for g in gens:
            q = r.compose(g)
            if q not in seen:
                seen.update(h.compose(q) for h in base)
                reps.append(q)
    return seen


def generating_set_by_scan(perms) -> list[VertexPermutation]:
    """The greedy generating set by its definition, for a whole group ``perms``.

    Scan the elements in one-line order and keep each one not yet in the
    closure of the picks so far.  Returns [] for the trivial group.
    """
    elements = sorted(set(perms), key=lambda p: p.images)
    if not elements:
        raise ValueError("empty permutation collection")
    n = elements[0].n
    gens: list[VertexPermutation] = []
    closed = {VertexPermutation(tuple(range(1, n + 1)))}
    for p in elements:
        if p in closed:
            continue
        gens.append(p)
        closed = closure(gens, n, closed)
    return gens


def parse_weighted_by_line(text: str) -> EdgeVector:
    """The edge-list parser as first written: one ``Fraction`` and one pair
    lookup per line, the reference for :func:`paircanon.parse_weighted`
    (which also refuses decimal exponents beyond +-4300 before converting)."""
    n = None
    weights = []
    seen = {}  # position -> line that set it
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if n is None:
            if len(fields) != 2 or fields[0] != "n":
                raise ParseError("expected header `n <count>`", lineno)
            try:
                n = int(fields[1])
            except ValueError:
                raise ParseError(f"bad vertex count: {fields[1]!r}", lineno) from None
            if n < 3:
                raise ParseError(f"need at least 3 vertices, got {n}", lineno)
            weights = [Fraction(0)] * (n * (n - 1) // 2)
            continue
        if len(fields) != 3:
            raise ParseError(f"expected `i j w`, got {line!r}", lineno)
        try:
            i, j = int(fields[0]), int(fields[1])
        except ValueError:
            raise ParseError(f"bad vertex label in {line!r}", lineno) from None
        if not (1 <= i <= n and 1 <= j <= n):
            raise ParseError(f"vertex label out of range 1..{n}: ({i}, {j})", lineno)
        if i >= j:
            raise ParseError(f"need i < j, got ({i}, {j})", lineno)
        try:
            w = Fraction(fields[2])
            if max(abs(w.numerator), w.denominator) >= 10**4300:
                raise ValueError  # more digits than CPython prints
        except (ValueError, ZeroDivisionError):
            raise ParseError(f"bad weight literal: {fields[2]!r}", lineno) from None
        s = pair_position(i, j, n)
        if s in seen:
            raise ParseError(
                f"duplicate pair ({i}, {j}), first set on line {seen[s]}", lineno
            )
        seen[s] = lineno
        weights[s - 1] = w
    if n is None:
        raise ParseError("empty input: missing `n <count>` header")
    return EdgeVector(n, tuple(weights))


def exact_by_fraction(value) -> Fraction:
    """The rule for an exact scalar as first written, every string through
    ``Fraction(str)``: the reference for ``paircanon.pairgroup._exact``."""
    if isinstance(value, float):
        raise TypeError(
            "float weights are not accepted; pass an int, a Fraction, or an "
            "exact literal string such as '1/3' or '0.25'"
        )
    try:
        if isinstance(value, str):
            # a literal Fraction accepts has at most one e, and int() reads its exponent
            _, e, exponent = value.replace("E", "e").partition("e")
            if e and abs(int(exponent)) > 4300:
                raise ValueError
        w = value if isinstance(value, Fraction) else Fraction(value)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not an exact rational literal: {value!r}") from exc
    if abs(w.numerator) >= 10**4300 or w.denominator >= 10**4300:
        shown = repr(value) if isinstance(value, str) else f"{type(value).__name__} value"
        raise ValueError(f"not an exact rational literal: {shown} (more than 4300 digits)")
    return w


def emit_weighted_by_pair(x: EdgeVector) -> str:
    """The edge-list writer pair by pair, each nonzero weight printed where it
    stands: the reference for :func:`paircanon.emit_weighted`."""
    lines = [f"n {x.n}"]
    for (i, j), w in zip(lex_pairs(x.n), x.weights):
        if w:
            lines.append(f"{i} {j} {w}")
    return "\n".join(lines) + "\n"


def evaluate_by_term(f, values):
    """The value of a polynomial at a point, every power and product a ``Fraction``."""
    total = Fraction(0)
    for mono, coeff in f.terms.items():
        term = Fraction(coeff)
        for v, e in zip(values, mono):
            term *= Fraction(v) ** e
        total += term
    return total


def classify_by_evaluate():
    """The 64 simple 4-vertex graphs, in ``product`` order, grouped by the
    tuple of their general-point values of the four simple-graph invariants:
    the reference for :func:`paircanon.polyinv.classify_simple_graphs_n4`."""
    invariants = simple_graph_invariants()
    classes = {}
    for bits in product((Fraction(0), Fraction(1)), repeat=6):
        x = EdgeVector(4, bits)
        key = tuple(evaluate_by_term(f, bits) for f in invariants)
        classes.setdefault(key, []).append(x)
    return classes
