"""The benchmark's seeded workloads.

A workload is a fixed list of ops (one pass) built from a seed, plus the
warm-up calls that set-up makes.  The seed decides the random parts of each
input (weights, edges, labelings, monomials); the mix of op kinds and sizes
is fixed, so every seed asks for about the same amount of work.  The program
receives only the generated text: CLI ops run ``paircanon.cli.main`` in this
process with stdin and stdout replaced, library ops call the package's public
functions.  Reference answers are computed here, at build time, by
:mod:`refs`, which does not use paircanon.
"""

from __future__ import annotations

import io
import math
import random
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import refs
import verify


class OpError(Exception):
    """The program signalled failure for an op (nonzero exit code)."""


@dataclass
class Op:
    """One request to the program and the check of its answer."""

    label: str  # the op's kind and size, e.g. "random_simple8"
    inputs: tuple  # everything the program receives
    call: Callable  # call(package) -> output
    check: Callable  # check(output) -> summary; raises verify.CheckError
    group: object = None  # ops of one group must return equal summaries


def cli_call(argv: list[str], stdin: str = "") -> Callable:
    """An op body that runs ``paircanon.cli.main(argv)`` and returns its stdout."""

    def call(pc):
        out = io.StringIO()
        saved, sys.stdin = sys.stdin, io.StringIO(stdin)
        try:
            with redirect_stdout(out), redirect_stderr(io.StringIO()):
                code = pc.cli.main(argv)
        finally:
            sys.stdin = saved
        if code != 0:
            raise OpError(f"exit code {code}")
        return out.getvalue()

    return call


def cli_op(label, argv, stdin, check, group=None) -> Op:
    return Op(label, (tuple(argv), stdin), cli_call(argv, stdin), check, group)


def _rational(rng: random.Random, num: int = 999, den: int = 24) -> Fraction:
    return Fraction(rng.randint(-num, num), rng.randint(1, den))


def _shuffled(rng: random.Random, n: int) -> list[int]:
    sigma = list(range(1, n + 1))
    rng.shuffle(sigma)
    return sigma


def _shuffles(rng: random.Random, n: int, count: int) -> list[list[int]]:
    return [_shuffled(rng, n) for _ in range(count)]


# ------------------------------------------------------------------ canon ops


BRUTE_MAX_N = 7  # inputs this small are also checked against brute force


def canon_ops(label, M, sigmas, group, fmt="graph6", engine="pruned", order=None) -> list[Op]:
    """M relabeled by each of ``sigmas``, canonized with ``canon --json``.

    The ops form one group, so they must agree on the canonical vector and
    aut_order.  Inputs with at most BRUTE_MAX_N vertices, and inputs with a
    single weight value, are also compared with the brute-force reference;
    ``order`` is M's automorphism count where it is known.
    """
    ops = []
    for sigma in sigmas:
        R = refs.relabel(M, sigma)
        text = refs.graph6_encode(R) if fmt == "graph6" else refs.weighted_text(R)
        small = len(M) <= BRUTE_MAX_N or len(set(refs.vector(R))) == 1
        brute = refs.brute_canon(R) if small else None
        argv = ["canon", "--json", "--format", fmt, "--engine", engine, "-"]
        check = lambda out, R=R, brute=brute: verify.check_canon(out, R, brute, order)
        ops.append(cli_op(label, argv, text, check, group))
    return ops


def distinct_weights(rng, n):
    m = n * (n - 1) // 2
    values = set()
    while len(values) < m:
        values.add(_rational(rng))
    values = sorted(values)
    rng.shuffle(values)
    it = iter(values)
    return refs.matrix(n, lambda i, j: next(it))


def random_simple(rng, n):
    """G(n, 1/2): each pair is an edge with probability 1/2."""
    bits = iter(format(rng.getrandbits(n * (n - 1) // 2), f"0{n * (n - 1) // 2}b"))
    return refs.matrix(n, lambda i, j: int(next(bits)))


def heavy_ties(rng, n):
    pool = set()
    while len(pool) < 3:
        pool.add(_rational(rng, 9, 4))
    pool = sorted(pool)
    return refs.matrix(n, lambda i, j: rng.choice(pool))


# (maker, input format, vertex count, base inputs per pass).  Each base input
# is canonized twice, as generated and relabeled.  The counts give every
# seed nearly the same amount of work; sizes whose cost varies too much from
# input to input for that are left out, see NOTES.md.
GENERIC_STRATA = [
    (distinct_weights, "weighted", 8, 175),
    (distinct_weights, "weighted", 9, 56),
    (random_simple, "graph6", 7, 175),
    (random_simple, "graph6", 8, 28),
    (heavy_ties, "weighted", 8, 175),
]


def build_generic(rng) -> list[Op]:
    ops = []
    for maker, fmt, n, count in GENERIC_STRATA:
        label = f"{maker.__name__}{n}"
        for k in range(count):
            M = maker(rng, n)
            ops += canon_ops(label, M, _shuffles(rng, n, 2), (label, k), fmt)
    return ops


def _edges(n, edges) -> list[list[int]]:
    M = [[0] * n for _ in range(n)]
    for i, j in edges:
        M[i][j] = M[j][i] = 1
    return M


def symmetric_graphs(n):
    """(name, matrix, relabeling-invariant, automorphism count) for the
    structured families on n vertices."""
    yield f"empty{n}", _edges(n, []), True, math.factorial(n)
    yield f"complete{n}", _edges(n, refs.pairs(n)), True, math.factorial(n)
    yield f"cycle{n}", _edges(n, [(i, (i + 1) % n) for i in range(n)]), False, 2 * n
    for a in range(1, n // 2 + 1):
        edges = [(i, j) for i in range(a) for j in range(a, n)]
        order = math.factorial(a) * math.factorial(n - a) * (2 if 2 * a == n else 1)
        yield f"K{a},{n - a}", _edges(n, edges), False, order


def petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(i + 5, (i + 2) % 5 + 5) for i in range(5)]
    return _edges(10, outer + spokes + inner)


# relabelings per pass of each graph that relabeling changes, by vertex
# count; empty and complete graphs are the same input under any relabeling
# and appear once.  complete8 is left out: it has the same 8! automorphisms
# as empty8 and would add 4 s to every pass.
SYMMETRIC_COPIES = {5: 12, 6: 12, 7: 6, 8: 6}
# The seed engine's time on a star K1,n-1 depends on the centre's label,
# and on the Petersen graph on its labeling (1.1 to 2.2 s).  So that every
# seed asks for the same work, each star centre label appears STAR_ROUNDS
# times (the seed orders the leaves), and the Petersen graph comes in two
# fixed labelings.  The 16 K1,7 stars also put op_p90_ms inside one block
# of similar ops.
STAR_ROUNDS = 2
PETERSEN_LABELINGS = [tuple(range(1, 11)), (4, 9, 1, 7, 10, 2, 6, 3, 8, 5)]
PETERSEN_ORDER = 120  # its automorphism group is S5


def star_ops(rng, name, M, order) -> list[Op]:
    """The star M (centre 0) with each centre label STAR_ROUNDS times."""
    n = len(M)
    sigmas = []
    for k in range(STAR_ROUNDS * n):
        centre = k % n + 1
        leaves = [v for v in range(1, n + 1) if v != centre]
        rng.shuffle(leaves)
        sigmas.append([centre] + leaves)
    return canon_ops(name, M, sigmas, name, order=order)


def build_symmetric(rng) -> list[Op]:
    ops = []
    for n, copies in SYMMETRIC_COPIES.items():
        for name, M, invariant, order in symmetric_graphs(n):
            if name == "complete8":
                continue
            if name.startswith("K1,"):
                ops += star_ops(rng, name, M, order)
            else:
                sigmas = _shuffles(rng, n, 1 if invariant else copies)
                ops += canon_ops(name, M, sigmas, name, order=order)
    ops += canon_ops("petersen", petersen(), PETERSEN_LABELINGS, "petersen", order=PETERSEN_ORDER)
    return ops


# -------------------------------------------------------------------- io ops

IO_SIZES = range(100, 300, 5)


# every p/q with 1 <= |p| <= 99 and 1 <= q <= 29, as Fraction prints it
_LITERALS = [str(Fraction(p, q)) for p in range(-99, 100) if p for q in range(1, 30)]


def _sparse_literal(rng) -> str | None:
    """A random literal from _LITERALS, or None (weight 0) with probability 1/2."""
    r = rng.random() * 2 * len(_LITERALS)
    return _LITERALS[int(r)] if r < len(_LITERALS) else None


def weighted_io_op(rng, n) -> Op:
    """parse_weighted, relabel with act(induced_pair_action(sigma)), emit_weighted."""
    T = refs.matrix(n, lambda i, j: _sparse_literal(rng))
    sigma = _shuffled(rng, n)
    text = refs.weighted_text(T)
    expected = refs.weighted_text(refs.relabel(T, sigma))

    def call(pc):
        x = pc.parse_weighted(text)
        action = pc.induced_pair_action(pc.VertexPermutation(sigma))
        return pc.emit_weighted(pc.act(action, x))

    check = lambda out: verify.check_weighted_io(out, expected)
    return Op(f"weighted{n}", (text, tuple(sigma)), call, check)


def graph6_io_op(rng, n) -> Op:
    """parse_graph6 then emit_graph6 of a random simple graph."""
    B = random_simple(rng, n)
    text = refs.graph6_encode(B)
    bits = bytes(refs.vector(B))

    def call(pc):
        x = pc.parse_graph6(text)
        return pc.emit_graph6(x), x.weights

    check = lambda out: verify.check_graph6_io(out, text, bits)
    return Op(f"graph6_{n}", (text,), call, check)


def build_io(rng) -> list[Op]:
    return [make(rng, n) for n in IO_SIZES for make in (weighted_io_op, graph6_io_op)]


# ---------------------------------------------------------------- oracle ops

ORACLE_BRUTE = {6: 6, 7: 10}  # vertex count -> base inputs per pass, each twice
REYNOLDS_DEGREES = (1, 2, 3, 4)
# vertex count -> monomials per degree.  With these counts op_p50_ms falls
# among the brute-force n=6 ops, whose cost does not depend on the seed,
# and op_p90_ms among the classify-n4 ops.
REYNOLDS_COPIES = {4: 6, 5: 6, 6: 3}
CLASSIFY_COPIES = 12
SORTFRAME_SIZES = (4, 6, 8, 10, 12, 14)


def small_weights(rng, n):
    return refs.matrix(n, lambda i, j: rng.randrange(3))


def reynolds_op(rng, n, degree) -> Op:
    m = n * (n - 1) // 2
    exps = [0] * m
    for _ in range(degree):
        exps[rng.randrange(m)] += 1
    mono = "*".join(f"x{s + 1}^{e}" for s, e in enumerate(exps) if e)
    sigma = _shuffled(rng, n)
    check = lambda out: verify.check_reynolds(out, n, tuple(exps), sigma)
    return cli_op(f"reynolds{n}", ["reynolds", "--json", mono, str(n)], "", check)


def sortframe_op(rng, n) -> Op:
    values = tuple(_rational(rng, 9, 4) for _ in range(n))  # small range: ties occur
    vector = ",".join(str(v) for v in values)
    check = lambda out: verify.check_sortframe(out, values)
    return cli_op(f"sortframe{n}", ["sortframe-demo", "--json", "--", vector], "", check)


def build_oracle(rng) -> list[Op]:
    ops = []
    for n, count in ORACLE_BRUTE.items():
        for k in range(count):
            M = small_weights(rng, n)
            sigmas = _shuffles(rng, n, 2)
            ops += canon_ops(f"brute{n}", M, sigmas, (n, k), "weighted", "brute")
    ops += [
        reynolds_op(rng, n, d)
        for n, copies in REYNOLDS_COPIES.items()
        for d in REYNOLDS_DEGREES
        for _ in range(copies)
    ]
    ops += [
        cli_op("classify", ["classify-n4", "--json"], "", verify.check_classify)
        for _ in range(CLASSIFY_COPIES)
    ]
    ops += [sortframe_op(rng, n) for n in SORTFRAME_SIZES]
    return ops


# ------------------------------------------------------------------ registry

_W5 = "n 5\n1 2 1\n2 3 1/2\n3 4 1\n4 5 1/2\n1 5 2\n"
_G5 = "DQc"  # a path on 5 vertices


def _library_warmup(pc):
    x = pc.parse_weighted(_W5)
    action = pc.induced_pair_action(pc.VertexPermutation((2, 3, 4, 5, 1)))
    pc.emit_weighted(pc.act(action, x))
    pc.emit_graph6(pc.parse_graph6(_G5))


CANON_WARMUP = [
    cli_call(["canon", "--json", "-"], _W5),
    cli_call(["canon", "--json", "--format", "graph6", "-"], _G5),
]
ORACLE_WARMUP = [
    cli_call(["canon", "--json", "--engine", "brute", "-"], f"n {n}\n1 2 1\n")
    for n in ORACLE_BRUTE
] + [cli_call(["reynolds", "--json", "x1", str(n)]) for n in REYNOLDS_COPIES] + [
    cli_call(["classify-n4", "--json"]),
    cli_call(["sortframe-demo", "--json", "3,1,2"]),
]


@dataclass(frozen=True)
class Workload:
    build: Callable[[random.Random], list[Op]]
    warmup: list[Callable]  # calls made during set-up to fill lazy caches


WORKLOADS = {
    "generic": Workload(build_generic, CANON_WARMUP),
    "symmetric": Workload(build_symmetric, CANON_WARMUP),
    "io": Workload(build_io, [_library_warmup]),
    "oracle": Workload(build_oracle, ORACLE_WARMUP),
}


def build(name: str, seed: int) -> list[Op]:
    """One pass of the named workload, in a seeded order."""
    rng = random.Random(f"{name}:{seed}")
    ops = WORKLOADS[name].build(rng)
    rng.shuffle(ops)
    return ops
