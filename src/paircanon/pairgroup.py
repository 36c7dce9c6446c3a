"""Vertex permutations, their induced action on edge positions, and edge vectors.

A graph on n vertices is stored as the vector of its C(n,2) edge weights in
lexicographic pair order (1,2) < (1,3) < ... < (n-1,n).  Relabeling the
vertices by a permutation of {1..n} shuffles the edge positions; the group of
those induced position permutations, acting on weight vectors, is what the
rest of the package canonizes against.  All scalars are exact rationals.
A group of vertex permutations, such as a graph's automorphism group, is
held as classes of points whose symmetric groups it holds and a Schreier-Sims
chain of its action on the classes; its greedy generating set is read level
by level from the two.  The pair order, the scatter that moves a vector's
entries where a permutation sends them, the group operations, the list of all
n! relabelings, whose getters gather in C what that scatter moves, and the
rules for an exact literal and a weight's rank each have one definition here.
"""

from __future__ import annotations

import gc
from collections.abc import Collection, Iterable
from fractions import Fraction
from functools import lru_cache, total_ordering
from itertools import chain, permutations, starmap
from math import factorial, prod
from operator import attrgetter, index, itemgetter

#: Default bound on n for operations that enumerate all n! group elements.
DEFAULT_MAX_N = 8


class GroupSizeError(ValueError):
    """An operation would enumerate a group beyond the configured limit."""


MAX_EXPONENT = 4300  #: largest decimal exponent: CPython's default int-str digit limit
_UNPRINTABLE = 10**MAX_EXPONENT  #: smallest integer with more than MAX_EXPONENT digits
_BITS = (Fraction(0), Fraction(1))  #: the levels of a simple graph with both bits


def _exact(value) -> Fraction:
    """Coerce a scalar to an exact rational; binary floats are refused, and so is
    a string whose decimal exponent exceeds +-4300 (``Fraction`` would expand
    10**exponent) or any value with more digits than CPython prints.  An ASCII
    ``[+-]digits[/digits]`` of at most MAX_EXPONENT characters, always printable,
    is read by ``int()``: the value and errors of ``Fraction(str)``, in half the time."""
    if isinstance(value, float):
        raise TypeError(
            "float weights are not accepted; pass an int, a Fraction, or an "
            "exact literal string such as '1/3' or '0.25'"
        )
    try:
        if isinstance(value, str):
            # the integer path; a str subclass may override the methods it calls
            if type(value) is str and len(value) <= MAX_EXPONENT and value.isascii():
                num, slash, den = value.partition("/")
                if (num[1:] if num[:1] in "+-" else num).isdigit() and (den.isdigit() or not slash):
                    return Fraction(int(num), int(den)) if slash else Fraction(int(num))
            # a literal Fraction accepts has at most one e, and int() reads its exponent
            _, e, exponent = value.replace("E", "e").partition("e")
            if e and abs(int(exponent)) > MAX_EXPONENT:
                raise ValueError
        w = value if isinstance(value, Fraction) else Fraction(value)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not an exact rational literal: {value!r}") from exc
    if abs(w.numerator) >= _UNPRINTABLE or w.denominator >= _UNPRINTABLE:
        # only a string is shown: the repr of a number this long raises
        shown = repr(value) if isinstance(value, str) else f"{type(value).__name__} value"
        raise ValueError(
            f"not an exact rational literal: {shown} (more than {MAX_EXPONENT} digits)"
        )
    return w


class _Value:
    """An immutable value: ``__init__`` sets each slot once, by ``_set``; ``repr``
    shows the ``_fields``; one class's instances compare and hash by ``_key``."""

    __slots__ = ()

    def _set(self, **fields):
        """Set the named slots; returns self, so ``object.__new__(cls)._set(...)`` builds."""
        for name, value in fields.items():
            object.__setattr__(self, name, value)
        return self

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __setstate__(self, state):  # copy and pickle restore the slots this way
        self._set(**state[1])

    def __eq__(self, other):
        return self._key == other._key if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


@total_ordering
class VertexPermutation(_Value):
    """A bijection of {1..n} in one-line notation: images[i-1] is the image of i.
    Images are read by ``operator.index``: a float or a string raises TypeError.
    Permutations are ordered by their images."""

    __slots__ = _fields = ("images",)
    _key = property(attrgetter("images"))

    def __init__(self, images: Iterable[int]):
        self._set(images=tuple(map(index, images)))
        n = len(self.images)
        if n < 1 or sorted(self.images) != list(range(1, n + 1)):
            raise ValueError(f"not a permutation of 1..{n}: {self.images}")

    @classmethod
    def _from_images(cls, images: tuple[int, ...]) -> VertexPermutation:
        """A permutation of 1..n from a tuple of int images known to be one, unchecked."""
        return object.__new__(cls)._set(images=images)

    @property
    def n(self) -> int:
        return len(self.images)

    def compose(self, other: VertexPermutation) -> VertexPermutation:
        """self after other: i goes to ``self.images[other.images[i-1] - 1]``."""
        if self.n != other.n:
            raise ValueError(f"degree mismatch: {self.n} vs {other.n}")
        return VertexPermutation._from_images(tuple(self.images[v - 1] for v in other.images))

    def inverse(self) -> VertexPermutation:
        return VertexPermutation._from_images(_scatter(range(1, self.n + 1), self.images))

    def __lt__(self, other):
        return self.images < other.images if other.__class__ is self.__class__ else NotImplemented


class EdgeVector(_Value):
    """Edge weights of a graph on n >= 3 vertices, in lexicographic pair order.

    Weights are exact rationals; a simple graph is the special case where
    every weight is 0 or 1.  n is read by ``operator.index``, as images are.
    Held as ``levels``, the distinct weights ascending, and ``ranks`` into them.
    """

    __slots__ = ("n", "levels", "ranks")
    _fields = ("n", "weights")
    _key = property(attrgetter("n", "levels", "ranks"))

    def __init__(self, n: int, weights: Iterable):
        self._set(n=index(n))
        if self.n < 3:
            raise ValueError(f"need n >= 3, got n={self.n}")
        weights = tuple(weights)  # held while numbered, so no two inputs share an id
        number_of: dict[int, int] = {}  # each input object's id -> its number, by first use
        numbers = [number_of.setdefault(id(w), len(number_of)) for w in weights]
        values = [_exact(w) for w in dict(zip(numbers, weights)).values()]  # by number
        if len(numbers) != (m := self.n * (self.n - 1) // 2):
            raise ValueError(f"expected {m} weights for n={self.n}, got {len(numbers)}")
        levels, ranks = _rank(numbers, values)
        self._set(levels=levels, ranks=ranks)

    @classmethod
    def _from_ranks(cls, n: int, levels: tuple, ranks: tuple[int, ...]) -> EdgeVector:
        """An edge vector from its levels, ascending ``Fraction``s, and ranks, unchecked."""
        return object.__new__(cls)._set(n=n, levels=levels, ranks=ranks)

    @classmethod
    def _from_bits(cls, n: int, bits: bytes) -> EdgeVector:
        """The simple graph whose C(n,2) edge bits, 0 or 1 in pair order, are ``bits``."""
        if 0 not in bits:  # K_n: every pair at the one level, 1
            return cls._from_ranks(n, _BITS[1:], (0,) * len(bits))
        return cls._from_ranks(n, _BITS if 1 in bits else _BITS[:1], tuple(bits))

    @property
    def weights(self) -> tuple[Fraction, ...]:
        """The C(n,2) weights in pair order, as a new tuple on each access."""
        return itemgetter(*self.ranks)(self.levels)

    def _strings(self) -> tuple[str, ...]:
        """Each weight's text in pair order, built once per level."""
        return itemgetter(*self.ranks)([str(w) for w in self.levels])


def _rank(numbers: list[int], values: list[Fraction]) -> tuple[tuple[Fraction, ...], tuple]:
    """The distinct ``values`` ascending, and the rank of values[k] for each k in ``numbers``."""
    # Fraction hashing and comparison run in Python: key by (numerator,
    # denominator) and sort on floor(w * 2^64) first, on Fraction order in a tie
    keys = [w.as_integer_ratio() for w in values]
    distinct = dict(zip(keys, values))
    floors = [(p << 64) // q for p, q in distinct]
    _, levels, ordered = zip(*sorted(zip(floors, distinct.values(), distinct)))
    rank_of = dict(zip(ordered, range(len(ordered))))
    return levels, tuple(map([rank_of[k] for k in keys].__getitem__, numbers))


def _scatter(values, index_map) -> tuple:
    """``values`` rearranged: ``values[s]`` moves to 1-based position ``index_map[s]``.

    How relabelings move weight, exponent and point vectors, and on a range
    how a permutation is inverted.  ``_compose``, ``VertexPermutation.compose``
    and the getters of ``_group_table`` gather: position i takes values[g[i]].
    """
    out = [None] * len(index_map)
    for value, t in zip(values, index_map):
        out[t - 1] = value
    return tuple(out)


def _row_offsets(n: int) -> list[int]:
    """The pair order: ``offsets[a] + b`` is the 1-based position of (a, b), a < b."""
    return [(a - 1) * (2 * n - a) // 2 - a for a in range(n)]


def _induced_index_map(images: tuple[int, ...], n: int) -> tuple[int, ...]:
    """Position map induced by a vertex relabeling given in one-line notation."""
    start = _row_offsets(n)
    return tuple([  # from a list, not a generator: a sixth faster at n = 295
        start[a] + b if a < b else start[b] + a
        for i, a in enumerate(images)
        for b in images[i + 1 :]
    ])


class PairAction(_Value):
    """The edge-position permutation induced by relabeling vertices by `source`.

    ``index_map[s-1]`` is where position s lands: the position holding the
    pair (i, j) is sent to the position of {source(i), source(j)}.  The map is
    derived from ``source`` once, at construction; actions compare by source.
    """

    __slots__ = _fields = ("source", "index_map")
    _key = property(attrgetter("source"))

    def __init__(self, source: VertexPermutation):
        if source.n < 3:
            raise ValueError(f"need n >= 3, got n={source.n}")
        self._set(source=source, index_map=_induced_index_map(source.images, source.n))

    @property
    def n(self) -> int:
        return self.source.n


def induced_pair_action(sigma: VertexPermutation) -> PairAction:
    """The edge-position permutation induced by the vertex permutation sigma."""
    return PairAction(sigma)


def _check_enumerable(n: int, max_n: int) -> None:
    if n < 3:
        raise GroupSizeError(f"group enumeration needs n >= 3, got n={n}")
    if n > max_n:
        raise GroupSizeError(
            f"n={n} exceeds the enumeration limit max_n={max_n} "
            f"({n}! elements); pass a larger max_n to allow it"
        )


@lru_cache(maxsize=None)
def _group_table(n: int) -> tuple[tuple[tuple[int, ...], itemgetter], ...]:
    """All n! (vertex images, take) pairs, ascending by one-line order; the getter
    ``take(v) == _scatter(v, index_map)`` gathers from the inverse of index_map.

    The one enumeration of the group, shared by the enumerating canonizer and
    the averaging operator; cached because the table depends only on n.  It is
    built down the stabilizer chain of S_n on 0..n-1: S_k, which fixes 0..k-1,
    is the union of the cosets c_j.S_(k+1), j = k..n-1, where c_j sends k to j
    and k+1..n-1 ascending onto the rest of k..n-1.  So c_j.h ascends as (j, h)
    does, and its gather is take_cj applied to h's: only the C(n,2) coset
    representatives other than the identity are scattered.
    """
    m = n * (n - 1) // 2
    enabled = gc.isenabled()
    gc.disable()  # the n! new tuples, none of them garbage, would trigger it again and again
    try:
        level = [tuple(range(m))]  # the gathers of S_(n-1), the identity alone
        for k in reversed(range(n - 1)):
            takes = []
            for j in range(k + 1, n):
                images = (*range(1, k + 1), j + 1, *range(k + 1, j + 1), *range(j + 2, n + 1))
                takes.append(itemgetter(*_scatter(range(m), _induced_index_map(images, n))))
            gathers = chain(level, *(map(take, level) for take in takes))
            # S_0's gathers become getters one by one, so the n! of them never all exist
            level = list(gathers) if k else starmap(itemgetter, gathers)
        return tuple(zip(permutations(range(1, n + 1)), level))
    finally:
        if enabled:
            gc.enable()


def act(action: PairAction, x: EdgeVector) -> EdgeVector:
    """Apply an induced position permutation to a weight vector.

    Position s of the input lands at position ``action.index_map[s-1]`` of the
    result, so the result holds the same multiset of weights rearranged the
    way a vertex relabeling rearranges edges.
    """
    if action.n != x.n:
        raise ValueError(f"dimension mismatch: action has n={action.n}, vector n={x.n}")
    return EdgeVector._from_ranks(x.n, x.levels, _scatter(x.ranks, action.index_map))


def _orbit(points: Iterable[int], perms: list[tuple[int, ...]]) -> set[int]:
    """The union of the orbits of ``points`` under the group ``perms`` generate."""
    orbit = set(points)
    frontier = list(orbit)
    while frontier:
        p = frontier.pop()
        for g in perms:
            if g[p] not in orbit:
                orbit.add(g[p])
                frontier.append(g[p])
    return orbit


def _compose(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """``a`` after ``b``, on 0-based image tuples: the result maps i to a[b[i]]."""
    return tuple(map(a.__getitem__, b))


class _Chain:
    """A permutation group on 0..n-1 as a Schreier-Sims chain with base 0..n-1.

    Level k holds ``gens[k]``, strong generators fixing 0..k-1 that generate
    G_k, the pointwise stabilizer of 0..k-1; and ``trans[k]``, which maps each
    point b of the orbit of k under G_k to a pair (u, u^-1) with u in G_k and
    u[k] == b.  So |G| is the product of the orbit lengths, and G_k is the
    union of the cosets u.G_(k+1) (Sims 1970; Seress, *Permutation Group
    Algorithms*, 2003, ch. 4).  Permutations are 0-based image tuples.
    """

    def __init__(self, n: int, gens: Iterable[tuple] = ()):
        identity = tuple(range(n))
        self.n = n
        self.gens: list[list[tuple]] = [[] for _ in range(n)]  # (s, s^-1) pairs
        self.trans = [{k: (identity, identity)} for k in range(n)]
        for g in gens:
            self.add(g)

    @property
    def order(self) -> int:
        return prod(len(orbit) for orbit in self.trans)

    def _sift(self, g: tuple[int, ...], level: int = 0) -> tuple[tuple[int, ...] | None, int]:
        """g stripped by the transversals from ``level`` on: (None, n) when g is
        in the group, else the residue and the level whose orbit lacks its image."""
        for k in range(level, self.n):
            b = g[k]
            if b != k:
                entry = self.trans[k].get(b)
                if entry is None:
                    return g, k
                g = _compose(entry[1], g)
        return None, self.n

    def add(self, g: tuple[int, ...]) -> bool:
        """Extend the group by g; False when g is in the group already.

        Each (level, generator, orbit point) pair is handled once: the product
        either reaches a new orbit point, or gives a Schreier generator that is
        sifted through the deeper levels and, if it does not sift to the
        identity, becomes a strong generator there.
        """
        residue, last = self._sift(g)
        if residue is None:
            return False
        work = self._strong_generator(residue, 0, last)
        while work:
            k, (s, s_inv), b = work.pop()
            u, u_inv = self.trans[k][b]
            t = _compose(s, u)
            known = self.trans[k].get(t[k])
            if known is None:
                self.trans[k][t[k]] = (t, _compose(u_inv, s_inv))
                work.extend((k, pair, t[k]) for pair in self.gens[k])
            elif known[0] != t:
                residue, last = self._sift(_compose(known[1], t), k + 1)
                if residue is not None:
                    work += self._strong_generator(residue, k + 1, last)
        return True

    def _strong_generator(self, h: tuple[int, ...], first: int, last: int) -> list:
        """Put h into gens[first..last]; the (level, pair, point) work it adds."""
        pair = (h, _scatter(range(self.n), [v + 1 for v in h]))
        work = []
        for k in range(first, last + 1):
            self.gens[k].append(pair)
            # at the base point itself, below ``last``, the Schreier generator
            # is h, which is in gens[k+1]
            work.extend((k, pair, b) for b in self.trans[k] if b != k or k == last)
        return work

    def coset_min(self, c: tuple, level: int = 0) -> tuple:
        """The one-line smallest member of c.G_level, base point by base point;
        c may hold any comparable keys."""
        for orbit in self.trans[level:]:
            if len(orbit) > 1:
                c = _compose(c, orbit[min(orbit, key=c.__getitem__)][0])
        return c

    def elements(self) -> list[tuple[int, ...]]:
        """Every element, as products u_0 u_1 ... u_(n-1) of transversal elements."""
        elements = [tuple(range(self.n))]
        for orbit in reversed(self.trans):
            if len(orbit) > 1:
                elements = [_compose(u, e) for u, _ in orbit.values() for e in elements]
        return elements


class _Group:
    """The permutation group G on 0..n-1 generated by ``gens``, which map
    classes onto classes, and the symmetric groups of the ``classes``: every
    point ascending, ordered by first member, singletons by default.  The
    classes are blocks of G, and T, the product of their symmetric groups, is
    the kernel of G's action on them (Seress, *Permutation Group Algorithms*,
    2003): G is T extended by H, the group the generators induce on the class
    indices, held as a ``_Chain`` (None without generators).  The sorted lift
    L(h), mapping each class i onto class h(i) in ascending order, lies in G,
    and L is a homomorphism that keeps one-line order (two lifts first differ
    at the first member of the first class they map apart).  So G = L(H).T, and
    G_k, the pointwise stabilizer of 0..k-1, is L(H_K).T_k: H_K fixes the K
    classes that start below k, and T_k permutes each class's points from k on.
    """

    def __init__(self, n: int, gens: Collection[tuple] = (), classes: list | None = None):
        self.n = n
        self.classes = classes or [[v] for v in range(n)]
        self.twins = [c for c in self.classes if len(c) > 1]
        self.class_of: Collection[int] = range(n)  # each point's class; read only with gens
        if self.twins and gens:
            self.class_of = {v: i for i, c in enumerate(self.classes) for v in c}
            gens = [tuple(self.class_of[g[c[0]]] for c in self.classes) for g in gens]
        self.quotient = _Chain(len(self.classes), gens) if gens else None
        factorials = prod(factorial(len(c)) for c in self.twins)
        self.order = factorials * self.quotient.order if self.quotient else factorials

    def _lift(self, h: tuple[int, ...]) -> tuple[int, ...]:
        """L(h), as an image tuple."""
        if not self.twins:
            return h
        targets = [w for j in h for w in self.classes[j]]
        return _scatter(targets, [v + 1 for c in self.classes for v in c])

    def coset_min(self, c: tuple[int, ...], level: int = 0) -> tuple[int, ...]:
        """The one-line smallest member of c.G_level.  It maps each class i's
        points from ``level`` on, ascending, to c's ascending images of class
        h(i)'s, h being H_K's least under the keys (c's least image in a class,
        its index), which order the points where two choices of h first differ."""
        if not self.twins:
            return self.quotient.coset_min(c, level) if self.quotient else c
        moves = zip(self.twins, self.twins)  # (class, its image)
        if self.quotient:
            keys = [(min(map(c.__getitem__, cls)), i) for i, cls in enumerate(self.classes)]
            h = self.quotient.coset_min(keys, sum(cls[0] < level for cls in self.classes))
            moves = zip(self.classes, (self.classes[j] for _, j in h))
        least = list(c)
        for cls, image in moves:
            if cls[0] < level:  # H_K fixes cls
                cls = image = [v for v in cls if v >= level]
            for v, w in zip(cls, sorted(map(c.__getitem__, image))):
                least[v] = w
        return tuple(least)

    def elements(self) -> list[tuple[int, ...]]:
        """Every element: each lift, with its images of each class in every order."""
        hs = self.quotient.elements() if self.quotient else [tuple(range(len(self.classes)))]
        elements = list(map(self._lift, hs))
        for c in self.twins:
            # gathers e + p as e with the images p at the points of c
            take = itemgetter(*(self.n + c.index(v) if v in c else v for v in range(self.n)))
            elements = [take(e + p) for e in elements for p in permutations(map(e.__getitem__, c))]
        return elements

    def greedy_generators(self) -> list[VertexPermutation]:
        """Greedy in one-line order: each element, ascending, that is not in the
        group the picks before it generate; [] for the trivial group.

        In one-line order G_(k+1) precedes G_k minus G_(k+1), whose members sort
        by their image of k first.  So when the scan reaches level k the picks
        generate some P with G_(k+1) <= P <= G_k, and a member of G_k is in P
        exactly when its image of k is in P's orbit of k: the picks at level k
        are the smallest members of the cosets whose image of k is outside it.
        Unless k starts its class i and H_i moves i, that orbit is the rest of i,
        which G_(k+1) permutes, and no class H_K may map onto i starts between k
        and the next member b: the one pick is (k b).  Elsewhere P's orbit of k,
        once past k, is the classes that meet the scanned picks' orbit of k.
        """
        classes, class_of = self.classes, self.class_of
        orbits = self.quotient.trans if self.quotient else ()
        scans = {classes[i][0]: orbit for i, orbit in enumerate(orbits) if len(orbit) > 1}
        later = {k: b for c in self.twins for k, b in zip(c, c[1:])}
        picks, scanned = [], []  # every pick; those made by scanning, as image tuples
        for k in sorted(scans.keys() | later.keys(), reverse=True):
            if k not in scans:
                images = list(range(1, self.n + 1))
                images[k], images[later[k]] = later[k] + 1, k + 1
                picks.append(VertexPermutation._from_images(tuple(images)))
                continue
            reached = {k}
            for b in sorted(v for j in scans[k] for v in classes[j]):
                if b not in reached:
                    u = list(self._lift(scans[k][class_of[b]][0]))
                    a = u.index(b)  # in k's class: with k and a swapped, k goes to b
                    u[k], u[a] = b, u[k]
                    scanned.append(self.coset_min(tuple(u), k + 1))
                    picks.append(VertexPermutation._from_images(tuple(v + 1 for v in scanned[-1])))
                    reached = {v for a in _orbit([k], scanned) for v in classes[class_of[a]]}
        return picks


def generating_set(perms: Collection[VertexPermutation]) -> list[VertexPermutation]:
    """The greedy generating set (:meth:`_Group.greedy_generators`) of the group
    the permutations generate."""
    if not perms:
        raise ValueError("empty permutation collection")
    gens = [tuple(v - 1 for v in p.images) for p in perms]
    for g in gens:
        if len(g) != len(gens[0]):
            raise ValueError(f"degree mismatch: {len(gens[0])} vs {len(g)}")
    return _Group(len(gens[0]), gens).greedy_generators()
