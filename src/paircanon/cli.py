"""Command-line interface: canonize, compare, and evaluate invariants of graphs.

Exit codes: 0 success, 1 `iso` found the graphs non-isomorphic, 2 input or
parse error or recursion limit, 3 group-size limit or out of memory; an error
prints one ``error:`` line on stderr, never a traceback.  The polyinv and
sortframe modules are imported by the commands that use them, so a graph
command does not load them.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache
from pathlib import Path

from .frame import CanonResult, canonical_form, is_isomorphic
from .graphio import ParseError, emit_graph6, parse_graph6, parse_weighted
from .pairgroup import (
    DEFAULT_MAX_N,
    EdgeVector,
    GroupSizeError,
    _check_enumerable,
    _exact,
)

EXIT_OK = 0
EXIT_NOT_ISOMORPHIC = 1
EXIT_PARSE = 2
EXIT_SIZE = 3


def _read_graph(path: str, fmt: str) -> EdgeVector:
    text = sys.stdin.read() if path == "-" else Path(path).read_text(encoding="utf-8")
    return parse_weighted(text) if fmt == "weighted" else parse_graph6(text)


def _values(items) -> str:
    return " ".join(str(v) for v in items)


def _canonize(args: argparse.Namespace) -> tuple[EdgeVector, CanonResult]:
    """Read the input graph and canonize it with the requested engine."""
    x = _read_graph(args.input, args.format)
    return x, canonical_form(x, engine=args.engine, max_n=args.max_n)


def cmd_canon(args: argparse.Namespace) -> int:
    x, result = _canonize(args)
    if args.json:
        payload = {
            "n": x.n,
            "canonical": [str(w) for w in result.canonical.weights],
            "frame": list(result.frame.images),
            "aut_order": result.aut_order,
            "aut_generators": [list(g.images) for g in result.generators],
        }
        print(json.dumps(payload))
    else:
        print(f"canonical {_values(result.canonical.weights)}")
        print(f"frame {_values(result.frame.images)}")
        print(f"aut_order {result.aut_order}")
        for g in result.generators:
            print(f"aut_gen {_values(g.images)}")
    return EXIT_OK


def cmd_iso(args: argparse.Namespace) -> int:
    x = _read_graph(args.a, args.format)
    y = _read_graph(args.b, args.format)
    found, witness = is_isomorphic(x, y, engine=args.engine, max_n=args.max_n)
    if found:
        if args.json:
            print(json.dumps({"isomorphic": True, "witness": list(witness.images)}))
        else:
            print(f"isomorphic {_values(witness.images)}")
        return EXIT_OK
    if args.json:
        print(json.dumps({"isomorphic": False}))
    else:
        print("not isomorphic")
    return EXIT_NOT_ISOMORPHIC


def cmd_aut(args: argparse.Namespace) -> int:
    x, result = _canonize(args)
    automorphisms = sorted(result.automorphisms, key=lambda p: p.images)
    if args.json:
        print(
            json.dumps(
                {
                    "n": x.n,
                    "aut_order": result.aut_order,
                    "automorphisms": [list(p.images) for p in automorphisms],
                }
            )
        )
    else:
        for p in automorphisms:
            print(_values(p.images))
    return EXIT_OK


def cmd_orbit(args: argparse.Namespace) -> int:
    x, result = _canonize(args)
    if args.json:
        print(json.dumps({"n": x.n, "orbit_size": result.orbit_size}))
    else:
        print(f"orbit_size {result.orbit_size}")
    return EXIT_OK


def cmd_invariants(args: argparse.Namespace) -> int:
    _, result = _canonize(args)
    if args.json:
        print(json.dumps({"invariants": [str(w) for w in result.canonical.weights]}))
    else:
        print(_values(result.canonical.weights))
    return EXIT_OK


def cmd_reynolds(args: argparse.Namespace) -> int:
    from .polyinv import parse_monomial, reynolds

    if args.n < 3:
        raise ValueError(f"need n >= 3, got {args.n}")
    # before parse_monomial allocates one exponent slot per pair
    _check_enumerable(args.n, args.max_n)
    m = args.n * (args.n - 1) // 2
    f = parse_monomial(args.monomial, m)
    g = reynolds(f, args.n, max_n=args.max_n)
    if args.json:
        print(json.dumps({"n": args.n, "terms": g.to_text().splitlines()}))
    else:
        print(g.to_text())
    return EXIT_OK


def cmd_classify_n4(args: argparse.Namespace) -> int:
    from .polyinv import classify_simple_graphs_n4

    classes = classify_simple_graphs_n4()
    rows = []
    for key, members in classes.items():
        representative = canonical_form(members[0], engine=args.engine).canonical
        rows.append((representative.weights, key, representative, len(members)))
    rows.sort(key=lambda row: row[0])
    if args.json:
        print(
            json.dumps(
                {
                    "classes": [
                        {
                            "id": idx,
                            "invariants": [str(v) for v in key],
                            "graph6": emit_graph6(rep),
                            "orbit_size": size,
                        }
                        for idx, (_, key, rep, size) in enumerate(rows, start=1)
                    ]
                }
            )
        )
    else:
        for idx, (_, key, rep, size) in enumerate(rows, start=1):
            print(f"{idx} {_values(key)} {emit_graph6(rep)} {size}")
    return EXIT_OK


def cmd_sortframe_demo(args: argparse.Namespace) -> int:
    from .sortframe import PointVector, elementary_symmetric, sort_frame

    tokens = args.vector.replace(",", " ").split()
    if not tokens:
        raise ValueError("empty vector")
    try:
        values = tuple(map(_exact, tokens))
    except ValueError:
        raise ValueError(f"bad rational literal in vector: {args.vector!r}") from None
    v = PointVector(values)
    ordered, frame = sort_frame(v)
    elementary = [elementary_symmetric(k, v) for k in range(1, v.n + 1)]
    if args.json:
        print(
            json.dumps(
                {
                    "sorted": [str(w) for w in ordered.values],
                    "frame": list(frame.images),
                    "elementary": [str(e) for e in elementary],
                }
            )
        )
    else:
        print(f"sorted {_values(ordered.values)}")
        print(f"frame {_values(frame.images)}")
        print(f"e {_values(elementary)}")
    return EXIT_OK


_INPUT = ("input", "input path, or - for stdin")

#: subcommands that read graphs: name, handler, help, positional arguments
_GRAPH_COMMANDS = (
    (
        "canon",
        cmd_canon,
        "canonical vector, frame permutation, automorphism group",
        (_INPUT,),
    ),
    (
        "iso",
        cmd_iso,
        "isomorphism test with witness relabeling",
        (("a", "first input path, or - for stdin"), ("b", "second input path")),
    ),
    ("aut", cmd_aut, "list all automorphisms", (_INPUT,)),
    ("orbit", cmd_orbit, "orbit size under relabeling", (_INPUT,)),
    ("invariants", cmd_invariants, "invariant coordinates I_1..I_m", (_INPUT,)),
)


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by later calls."""
    parser = argparse.ArgumentParser(
        prog="paircanon",
        description="Canonical forms, automorphisms, and exact invariants of "
        "weighted graphs under vertex relabeling.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    out_opts = argparse.ArgumentParser(add_help=False)
    out_opts.add_argument("--json", action="store_true", help="machine-readable output")
    format_opts = argparse.ArgumentParser(add_help=False)
    format_opts.add_argument(
        "--format",
        choices=("weighted", "graph6"),
        default="weighted",
        help="input format (default: weighted)",
    )
    engine_opts = argparse.ArgumentParser(add_help=False)
    engine_opts.add_argument(
        "--engine",
        choices=("brute", "pruned"),
        default="pruned",
        help="canonizer engine (default: pruned)",
    )
    max_n_opts = argparse.ArgumentParser(add_help=False)
    max_n_opts.add_argument(
        "--max-n",
        type=int,
        default=DEFAULT_MAX_N,
        dest="max_n",
        help=f"limit for full group enumeration (default: {DEFAULT_MAX_N})",
    )
    graph_opts = [out_opts, format_opts, engine_opts, max_n_opts]

    for name, func, help_text, positionals in _GRAPH_COMMANDS:
        p = sub.add_parser(name, parents=graph_opts, help=help_text)
        for dest, arg_help in positionals:
            p.add_argument(dest, help=arg_help)
        p.set_defaults(func=func)

    p = sub.add_parser(
        "reynolds", parents=[out_opts, max_n_opts], help="group average of a monomial"
    )
    p.add_argument("monomial", help="power product, e.g. 'x1^2*x2' or 'x1 x6'")
    p.add_argument("n", type=int, help="vertex count")
    p.set_defaults(func=cmd_reynolds)

    p = sub.add_parser(
        "classify-n4",
        parents=[out_opts, engine_opts],
        help="the 11 simple-graph classes on 4 vertices",
    )
    p.set_defaults(func=cmd_classify_n4)

    p = sub.add_parser(
        "sortframe-demo",
        parents=[out_opts],
        help="sort a vector: sorted entries, frame, elementary symmetric values",
    )
    p.add_argument("vector", help="rational entries, e.g. '3,1,2' or '1/2 0.25 -1'")
    p.set_defaults(func=cmd_sortframe_demo)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
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
