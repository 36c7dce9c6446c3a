"""Command-line interface: canonize, compare, and evaluate invariants of graphs.

Exit codes: 0 success, 1 `iso` found the graphs non-isomorphic, 2 input or
parse error or recursion limit, 3 group-size limit, a group or orbit size of
more than 4300 digits, or out of memory, 141 (128 + SIGPIPE, no ``error:``
line) when the reader closes stdout early.  Each command returns its exit
code, JSON payload and text lines, the two built on demand; ``main`` alone
prints, only after the command has built all of its output, so an error prints
one ``error:`` line on stderr, never a traceback, and nothing on stdout.  The
polyinv and sortframe modules are imported by the commands that use them, so
a graph command does not load them: it loads frame, graphio, pairgroup and
their stdlib imports (argparse, fractions, functools, itertools, math,
operator, gc, collections.abc), and json only for ``--json``; it builds only
its own command's parser.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Callable, Iterable
from functools import cache

from .frame import CanonResult, canonical_form, is_isomorphic
from .graphio import emit_graph6, parse_graph6, parse_weighted
from .pairgroup import (
    DEFAULT_MAX_N,
    MAX_EXPONENT,
    EdgeVector,
    GroupSizeError,
    _UNPRINTABLE,
    _check_enumerable,
)

EXIT_OK = 0
EXIT_NOT_ISOMORPHIC = 1
EXIT_PARSE = 2
EXIT_SIZE = 3
EXIT_PIPE = 141  #: what a shell reports for a program stopped by SIGPIPE

#: a command's exit code, JSON payload and text lines; only the printed form is built
Output = tuple[int, Callable[[], dict], Callable[[], Iterable[str]]]


def _read_graph(path: str, fmt: str) -> EdgeVector:
    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path, encoding="utf-8") as f:
            text = f.read()
    text = text.removeprefix("\ufeff")  # the byte-order mark some Windows editors write
    return parse_weighted(text) if fmt == "weighted" else parse_graph6(text)


def _values(items) -> str:
    return " ".join(map(str, items))


def _printable(size: int, name: str) -> int:
    """``size``, or a GroupSizeError when it has more digits than CPython prints."""
    if size >= _UNPRINTABLE:
        raise GroupSizeError(f"{name} has more than {MAX_EXPONENT} digits, too many to print")
    return size


def _canonize(args: argparse.Namespace, **options) -> CanonResult:
    """Read the input graph and canonize it with the given ``canonical_form`` options."""
    return canonical_form(_read_graph(args.input, args.format), **options)


def cmd_canon(args: argparse.Namespace) -> Output:
    result = _canonize(args, engine=args.engine, max_n=args.max_n)
    order = _printable(result.aut_order, "the automorphism group's order")
    canonical = result.canonical._strings()
    generators = [g.images for g in result.generators]
    return (
        EXIT_OK,
        lambda: {
            "n": result.canonical.n,
            "canonical": canonical,
            "frame": result.frame.images,
            "aut_order": order,
            "aut_generators": generators,
        },
        lambda: [
            f"canonical {' '.join(canonical)}",
            f"frame {_values(result.frame.images)}",
            f"aut_order {order}",
            *(f"aut_gen {_values(g)}" for g in generators),
        ],
    )


def cmd_iso(args: argparse.Namespace) -> Output:
    if args.a == args.b == "-":  # the second read of stdin would find it empty
        raise ValueError("only one of the two inputs can be `-` (stdin)")
    x = _read_graph(args.a, args.format)
    y = _read_graph(args.b, args.format)
    found, witness = is_isomorphic(x, y)
    if found:
        images = witness.images
        text = f"isomorphic {_values(images)}"
        return EXIT_OK, lambda: {"isomorphic": True, "witness": images}, lambda: [text]
    return EXIT_NOT_ISOMORPHIC, lambda: {"isomorphic": False}, lambda: ["not isomorphic"]


def cmd_aut(args: argparse.Namespace) -> Output:
    result = _canonize(args, max_n=args.max_n)
    n, order = result.canonical.n, result.aut_order
    automorphisms = sorted(p.images for p in result.automorphisms)
    return (
        EXIT_OK,
        lambda: {"n": n, "aut_order": order, "automorphisms": automorphisms},
        lambda: map(_values, automorphisms),
    )


def cmd_orbit(args: argparse.Namespace) -> Output:
    result = _canonize(args)
    n, size = result.canonical.n, _printable(result.orbit_size, "the orbit size")
    return EXIT_OK, lambda: {"n": n, "orbit_size": size}, lambda: [f"orbit_size {size}"]


def cmd_invariants(args: argparse.Namespace) -> Output:
    invariants = _canonize(args).canonical._strings()
    return EXIT_OK, lambda: {"invariants": invariants}, lambda: [" ".join(invariants)]


def cmd_reynolds(args: argparse.Namespace) -> Output:
    from .polyinv import parse_monomial, reynolds

    if args.n < 3:
        raise ValueError(f"need n >= 3, got {args.n}")
    # before parse_monomial allocates one exponent slot per pair
    _check_enumerable(args.n, args.max_n)
    m = args.n * (args.n - 1) // 2
    f = parse_monomial(args.monomial, m)
    text = reynolds(f, args.n, max_n=args.max_n).to_text()
    return EXIT_OK, lambda: {"n": args.n, "terms": text.splitlines()}, lambda: [text]


def cmd_classify_n4(args: argparse.Namespace) -> Output:
    from .polyinv import classify_simple_graphs_n4

    # the classes come by least member, ascending, and each lists that one first
    rows = [
        (idx, key, emit_graph6(members[0]), len(members))
        for idx, (key, members) in enumerate(classify_simple_graphs_n4().items(), start=1)
    ]
    return (
        EXIT_OK,
        lambda: {
            "classes": [
                {"id": idx, "invariants": [str(v) for v in key], "graph6": g6, "orbit_size": size}
                for idx, key, g6, size in rows
            ]
        },
        lambda: (f"{idx} {_values(key)} {g6} {size}" for idx, key, g6, size in rows),
    )


def cmd_sortframe_demo(args: argparse.Namespace) -> Output:
    from .sortframe import PointVector, elementary_values, sort_frame

    tokens = args.vector.replace(",", " ").split()
    if not tokens:
        raise ValueError("empty vector")
    try:
        v = PointVector(tokens)
    except ValueError:
        raise ValueError(f"bad rational literal in vector: {args.vector!r}") from None
    ordered, frame = sort_frame(v)
    ordered_text = [str(w) for w in ordered.values]
    elementary = []
    for k, value in enumerate(elementary_values(v.n, v)[1:], start=1):
        try:
            elementary.append(str(value))
        except ValueError:  # CPython refuses to print an int this long
            raise ValueError(
                f"e_{k} of {args.vector!r} has more than {MAX_EXPONENT} digits"
            ) from None
    return (
        EXIT_OK,
        lambda: {"sorted": ordered_text, "frame": frame.images, "elementary": elementary},
        lambda: [
            f"sorted {' '.join(ordered_text)}",
            f"frame {_values(frame.images)}",
            f"e {' '.join(elementary)}",
        ],
    )


#: every option and positional argument of a subcommand, with its ``add_argument`` keywords
_ARGUMENTS = {
    "--json": dict(action="store_true", help="machine-readable output"),
    "--format": dict(
        choices=("weighted", "graph6"), default="weighted", help="input format (default: weighted)"
    ),
    "--engine": dict(
        choices=("brute", "pruned"), default="pruned", help="canonizer engine (default: pruned)"
    ),
    "--max-n": dict(
        type=int,
        default=DEFAULT_MAX_N,
        help=f"limit for full group enumeration (default: {DEFAULT_MAX_N})",
    ),
    "input": dict(help="input path, or - for stdin"),
    "a": dict(help="first input path, or - for stdin"),
    "b": dict(help="second input path"),
    "monomial": dict(help="power product, e.g. 'x1^2*x2' or 'x1 x6'"),
    "n": dict(type=int, help="vertex count"),
    "vector": dict(help="rational entries, e.g. '3,1,2' or '1/2 0.25 -1'"),
}

#: each subcommand by name: handler, its arguments in ``_ARGUMENTS``, help.  Only
#: ``canon`` takes ``--engine``, since both engines print the same answer, and
#: ``--max-n`` goes only where a whole group is enumerated.
_COMMANDS = {
    "canon": (
        cmd_canon,
        "--json --format --engine --max-n input",
        "canonical vector, frame permutation, automorphism group",
    ),
    "iso": (cmd_iso, "--json --format a b", "isomorphism test with witness relabeling"),
    "aut": (cmd_aut, "--json --format --max-n input", "list all automorphisms"),
    "orbit": (cmd_orbit, "--json --format input", "orbit size under relabeling"),
    "invariants": (cmd_invariants, "--json --format input", "invariant coordinates I_1..I_m"),
    "reynolds": (cmd_reynolds, "--json --max-n monomial n", "group average of a monomial"),
    "classify-n4": (cmd_classify_n4, "--json", "the 11 simple-graph classes on 4 vertices"),
    "sortframe-demo": (
        cmd_sortframe_demo,
        "--json vector",
        "sort a vector: sorted entries, frame, elementary symmetric values",
    ),
}


def _with_arguments(parser: argparse.ArgumentParser, name: str) -> argparse.ArgumentParser:
    """``parser`` with command ``name``'s arguments and handler added."""
    func, arguments, _ = _COMMANDS[name]
    for argument in arguments.split():
        parser.add_argument(argument, **_ARGUMENTS[argument])
    parser.set_defaults(func=func)
    return parser


@cache
def _command_parser(name: str) -> argparse.ArgumentParser:
    """Command ``name``'s own parser, as ``build_parser`` adds it; built on first use."""
    return _with_arguments(argparse.ArgumentParser(prog=f"paircanon {name}"), name)


def build_parser() -> argparse.ArgumentParser:
    """The top-level parser, with a subparser for every command."""
    parser = argparse.ArgumentParser(
        prog="paircanon",
        description="Canonical forms, automorphisms, and exact invariants of "
        "weighted graphs under vertex relabeling.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, _, help_text) in _COMMANDS.items():
        _with_arguments(sub.add_parser(name, help=help_text), name)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] in _COMMANDS:  # parsed once, by the command's own parser
        args = _command_parser(argv[0]).parse_args(argv[1:])
    else:
        args = build_parser().parse_args(argv)
    try:
        code, payload, lines = args.func(args)
        if args.json:
            import json
            print(json.dumps(payload()))
        else:
            print("\n".join(lines()))
        return code
    except BrokenPipeError:  # the reader left: the rest, and the flush at exit, go nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    except (GroupSizeError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_SIZE
    except (OSError, ValueError, RecursionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


def run() -> None:
    """Console-script entry point."""
    raise SystemExit(main())


if __name__ == "__main__":
    run()
