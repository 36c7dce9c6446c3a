import argparse
import io
import json
import os
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

import paircanon
from paircanon.cli import _command_parser, build_parser, main, run
from paircanon.frame import CanonResult, canonical_form_pruned
from paircanon.graphio import emit_graph6, emit_weighted, parse_graph6
from paircanon.pairgroup import (
    EdgeVector,
    VertexPermutation,
    _Group,
    act,
    induced_pair_action,
)
from paircanon.polyinv import classify_simple_graphs_n4

from oracles import elementary_symmetric_per_k

P4_TEXT = "n 4\n1 2 1\n2 3 1\n3 4 1\n"
P4 = EdgeVector(4, (1, 0, 0, 1, 0, 1))
STAR_TEXT = "n 4\n1 2 1\n1 3 1\n1 4 1\n"


@pytest.fixture
def p4_file(tmp_path):
    path = tmp_path / "p4.txt"
    path.write_text(P4_TEXT)
    return str(path)


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# ----------------------------------------------------------------- canon


def test_canon_text_output(p4_file, capsys):
    assert main(["canon", p4_file]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "canonical 0 0 1 1 0 1"
    assert out[1] == "frame 1 4 3 2"
    assert out[2] == "aut_order 2"
    assert out[3] == "aut_gen 4 3 2 1"


def test_canon_json_output(p4_file, capsys):
    assert main(["canon", "--json", p4_file]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["canonical"] == ["0", "0", "1", "1", "0", "1"]
    assert payload["aut_order"] == 2
    frame = VertexPermutation(tuple(payload["frame"]))
    assert act(induced_pair_action(frame), P4).weights == tuple(
        Fraction(v) for v in payload["canonical"]
    )


def test_canon_engines_agree_byte_for_byte(p4_file, capsys):
    assert main(["canon", "--engine", "pruned", p4_file]) == 0
    pruned = capsys.readouterr().out
    assert main(["canon", "--engine", "brute", p4_file]) == 0
    brute = capsys.readouterr().out
    assert pruned == brute


def test_canon_reads_stdin(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(P4_TEXT))
    assert main(["canon", "-"]) == 0
    assert capsys.readouterr().out.startswith("canonical 0 0 1 1 0 1")


def test_canon_graph6_format(tmp_path, capsys):
    from paircanon.graphio import emit_graph6

    path = write(tmp_path, "p4.g6", emit_graph6(P4) + "\n")
    assert main(["canon", "--format", "graph6", path]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "canonical 0 0 1 1 0 1"


@pytest.mark.parametrize("fmt", ["weighted", "graph6"])
def test_a_leading_byte_order_mark_is_skipped(fmt, tmp_path, capsys, monkeypatch):
    # Windows editors may start a UTF-8 file with U+FEFF
    text = P4_TEXT if fmt == "weighted" else emit_graph6(P4) + "\n"
    path = tmp_path / "bom.txt"
    path.write_bytes(b"\xef\xbb\xbf" + text.encode())
    monkeypatch.setattr("sys.stdin", io.StringIO("\ufeff" + text))
    for source in (str(path), "-"):
        assert main(["canon", "--format", fmt, source]) == 0
        assert capsys.readouterr().out.startswith("canonical 0 0 1 1 0 1\n")


# ------------------------------------------------------------------- iso


def test_iso_relabeled_p4(tmp_path, capsys):
    a = write(tmp_path, "a.txt", P4_TEXT)
    relabeled = act(induced_pair_action(VertexPermutation((3, 1, 4, 2))), P4)
    b = write(tmp_path, "b.txt", emit_weighted(relabeled))
    assert main(["iso", a, b]) == 0
    out = capsys.readouterr().out
    assert out.startswith("isomorphic ")
    witness = VertexPermutation(tuple(int(v) for v in out.split()[1:]))
    assert act(induced_pair_action(witness), P4) == relabeled


def test_iso_not_isomorphic(tmp_path, capsys):
    a = write(tmp_path, "a.txt", P4_TEXT)
    b = write(tmp_path, "b.txt", STAR_TEXT)
    assert main(["iso", a, b]) == 1
    assert capsys.readouterr().out.strip() == "not isomorphic"


def test_iso_json(tmp_path, capsys):
    a = write(tmp_path, "a.txt", P4_TEXT)
    b = write(tmp_path, "b.txt", STAR_TEXT)
    assert main(["iso", "--json", a, b]) == 1
    assert json.loads(capsys.readouterr().out) == {"isomorphic": False}


def test_iso_mismatched_sizes_is_input_error(tmp_path, capsys):
    a = write(tmp_path, "a.txt", P4_TEXT)
    b = write(tmp_path, "b.txt", "n 5\n1 2 1\n")
    assert main(["iso", a, b]) == 2
    assert "mismatch" in capsys.readouterr().err


def test_iso_refuses_stdin_twice_before_reading_it(capsys, monkeypatch):
    stdin = io.StringIO(P4_TEXT)
    monkeypatch.setattr("sys.stdin", stdin)
    assert main(["iso", "-", "-"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: only one of the two inputs can be `-` (stdin)\n"
    assert stdin.tell() == 0


# ------------------------------------------------------- aut / orbit / inv


def test_aut_lists_stabilizer(p4_file, capsys):
    assert main(["aut", p4_file]) == 0
    assert capsys.readouterr().out.splitlines() == ["1 2 3 4", "4 3 2 1"]


def test_aut_over_the_enumeration_limit_exits_3(tmp_path, capsys):
    # the empty graph on 12 vertices: canon answers, aut would list 12! lines
    path = write(tmp_path, "empty12.txt", "n 12\n")
    assert main(["canon", path]) == 0
    assert "aut_order 479001600" in capsys.readouterr().out
    assert main(["aut", path]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "max_n=8" in captured.err


def test_aut_max_n_sets_the_enumeration_limit(p4_file, tmp_path, capsys):
    # |Aut(P4)| = 2 <= 3!, so it is listed; |Aut(K4)| = 24 > 2!, so it is not
    assert main(["aut", "--max-n", "3", p4_file]) == 0
    assert capsys.readouterr().out.splitlines() == ["1 2 3 4", "4 3 2 1"]
    k4 = write(tmp_path, "k4.txt", "n 4\n1 2 1\n1 3 1\n1 4 1\n2 3 1\n2 4 1\n3 4 1\n")
    assert main(["aut", "--max-n", "2", k4]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "max_n=2" in captured.err


def test_aut_lists_the_cycle_on_12_vertices(tmp_path, capsys):
    text = "n 12\n1 12 1\n" + "".join(f"{i} {i + 1} 1\n" for i in range(1, 12))
    assert main(["aut", write(tmp_path, "c12.txt", text)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 24
    assert lines[0] == " ".join(str(i) for i in range(1, 13))
    assert lines == sorted(set(lines), key=lambda line: [int(v) for v in line.split()])


def test_orbit_size(p4_file, capsys):
    assert main(["orbit", p4_file]) == 0
    assert capsys.readouterr().out.strip() == "orbit_size 12"


def test_invariants(p4_file, capsys):
    assert main(["invariants", "--json", p4_file]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["invariants"] == ["0", "0", "1", "1", "0", "1"]


# -------------------------------------------------------------- reynolds


def test_reynolds_golden_text(capsys):
    assert main(["reynolds", "x1", "4"]) == 0
    assert capsys.readouterr().out == "\n".join(
        f"1/6 * x{s}^1" for s in range(1, 7)
    ) + "\n"


def test_reynolds_product_monomial(capsys):
    assert main(["reynolds", "x1*x6", "4"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "1/3 * x1^1 x6^1",
        "1/3 * x2^1 x5^1",
        "1/3 * x3^1 x4^1",
    ]


def test_reynolds_bad_monomial_exits_2(capsys):
    assert main(["reynolds", "z9", "4"]) == 2
    assert "error" in capsys.readouterr().err


def test_reynolds_over_limit_exits_3(capsys):
    assert main(["reynolds", "x1", "9"]) == 3
    assert "max_n" in capsys.readouterr().err


def test_reynolds_far_over_limit_exits_3_before_allocating(capsys):
    # n=3000 has 4498500 pairs and 3000! has 9131 digits; neither is built
    _command_parser("reynolds")
    tracemalloc.start()
    try:
        code = main(["reynolds", "x1", "3000"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3
    assert "max_n" in capsys.readouterr().err
    assert peak < 1 << 20


# ------------------------------------------------------------ classify-n4

# the output pinned byte for byte: class order, invariant values, graph6 of
# each representative and orbit sizes
CLASSIFY_N4_TEXT = """\
1 0 0 0 0 C? 1
2 1/6 0 0 0 C@ 6
3 1/3 0 1/12 0 CB 12
4 1/2 0 1/4 0 CJ 4
5 1/2 0 1/4 1/4 CF 4
6 1/3 1/3 0 0 CK 3
7 1/2 1/3 1/6 0 CL 12
8 2/3 1/3 5/12 1/4 CN 12
9 2/3 2/3 1/3 0 C] 3
10 5/6 2/3 2/3 1/2 C^ 6
11 1 1 1 1 C~ 1
"""

CLASSIFY_N4_JSON = (
    '{"classes": [{"id": 1, "invariants": ["0", "0", "0", "0"], "graph6": "C?", "orbit_size": 1}, '
    '{"id": 2, "invariants": ["1/6", "0", "0", "0"], "graph6": "C@", "orbit_size": 6}, '
    '{"id": 3, "invariants": ["1/3", "0", "1/12", "0"], "graph6": "CB", "orbit_size": 12}, '
    '{"id": 4, "invariants": ["1/2", "0", "1/4", "0"], "graph6": "CJ", "orbit_size": 4}, '
    '{"id": 5, "invariants": ["1/2", "0", "1/4", "1/4"], "graph6": "CF", "orbit_size": 4}, '
    '{"id": 6, "invariants": ["1/3", "1/3", "0", "0"], "graph6": "CK", "orbit_size": 3}, '
    '{"id": 7, "invariants": ["1/2", "1/3", "1/6", "0"], "graph6": "CL", "orbit_size": 12}, '
    '{"id": 8, "invariants": ["2/3", "1/3", "5/12", "1/4"], "graph6": "CN", "orbit_size": 12}, '
    '{"id": 9, "invariants": ["2/3", "2/3", "1/3", "0"], "graph6": "C]", "orbit_size": 3}, '
    '{"id": 10, "invariants": ["5/6", "2/3", "2/3", "1/2"], "graph6": "C^", "orbit_size": 6}, '
    '{"id": 11, "invariants": ["1", "1", "1", "1"], "graph6": "C~", "orbit_size": 1}]}'
    "\n"
)


def test_classify_n4_golden(capsys):
    assert main(["classify-n4"]) == 0
    assert capsys.readouterr().out == CLASSIFY_N4_TEXT
    assert main(["classify-n4", "--json"]) == 0
    assert capsys.readouterr().out == CLASSIFY_N4_JSON


def test_classify_n4_representative_is_every_members_canonical_form():
    # the representative is the least member, which is the canonical form
    # only if each class is one orbit: every member canonizes to it
    for members in classify_simple_graphs_n4().values():
        least = min(members, key=lambda x: x.weights)
        for x in members:
            assert canonical_form_pruned(x).canonical == least


def test_classify_n4(capsys):
    assert main(["classify-n4"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 11
    sizes = []
    for idx, line in enumerate(lines, start=1):
        fields = line.split()
        assert int(fields[0]) == idx
        assert len(fields) == 7  # id, four invariant values, graph6, orbit size
        x = parse_graph6(fields[5])
        assert canonical_form_pruned(x).canonical == x  # representative is canonical
        sizes.append(int(fields[6]))
    assert sum(sizes) == 64
    assert sorted(sizes) == [1, 1, 3, 3, 4, 4, 6, 6, 12, 12, 12]


def test_classify_n4_json(capsys):
    assert main(["classify-n4", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["classes"]) == 11
    assert sum(c["orbit_size"] for c in payload["classes"]) == 64


def test_classify_n4_takes_no_engine(p4_file, capsys):
    # both engines give the same answer, and only aut lists a whole group, so
    # these commands take no such option: passing one is a usage error
    removed = [("classify-n4", [], "--engine brute")]
    removed += [("iso", [p4_file, p4_file], "--engine brute")]
    removed += [(command, [p4_file], "--engine brute") for command in ("aut", "orbit", "invariants")]
    removed += [("iso", [p4_file, p4_file], "--max-n 9")]
    removed += [(command, [p4_file], "--max-n 9") for command in ("orbit", "invariants")]
    for command, inputs, option in removed:
        with pytest.raises(SystemExit) as exc:
            main([command, *inputs, *option.split()])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"unrecognized arguments: {option}" in captured.err


def test_usage_errors_name_the_command(capsys):
    # a command's arguments are parsed by its own parser, whose usage line
    # heads the error
    for command, extra in (("orbit", ["--engine", "brute", "-"]), ("canon", ["-", "extra"])):
        with pytest.raises(SystemExit) as exc:
            main([command, *extra])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"usage: paircanon {command} ")
        assert "unrecognized arguments:" in captured.err


@pytest.mark.parametrize("argv, code", [([], 2), (["-h"], 0), (["bogus"], 2)])
def test_without_a_command_the_top_level_parser_answers(argv, code, capsys):
    outputs = []
    for parse in (build_parser().parse_args, main):
        with pytest.raises(SystemExit) as exc:
            parse(argv)
        outputs.append((exc.value.code, *capsys.readouterr()))
    assert outputs[1] == outputs[0]
    assert outputs[1][0] == code
    assert "".join(outputs[1][1:]).startswith("usage: paircanon [-h]")


def test_main_parses_argv_once(capsys, monkeypatch):
    parsed = []
    parse_known_args = argparse.ArgumentParser.parse_known_args

    def counting(parser, *args, **kwargs):
        parsed.append(parser.prog)
        return parse_known_args(parser, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counting)
    monkeypatch.setattr("sys.stdin", io.StringIO(emit_graph6(P4) + "\n"))
    assert main(["canon", "--json", "--format", "graph6", "-"]) == 0
    assert json.loads(capsys.readouterr().out)["aut_order"] == 2
    assert parsed == ["paircanon canon"]


# --------------------------------------------------------- sortframe-demo


def test_sortframe_demo(capsys):
    assert main(["sortframe-demo", "3,1,2"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "sorted 1 2 3",
        "frame 3 1 2",
        "e 6 11 6",
    ]


def test_sortframe_demo_rationals(capsys):
    assert main(["sortframe-demo", "1/2 0.25"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "sorted 1/4 1/2"
    assert lines[1] == "frame 2 1"


def test_sortframe_demo_matches_the_per_k_recurrence(capsys):
    # the one pass over e_0..e_n prints what n passes, one per e_k, print
    values = [Fraction((i * 37) % 101 - 50, i % 9 + 1) for i in range(1, 61)]
    vector = ",".join(map(str, values))
    expected = [str(elementary_symmetric_per_k(k, values)) for k in range(1, 61)]
    assert main(["sortframe-demo", "--", vector]) == 0
    assert capsys.readouterr().out.splitlines()[2] == f"e {' '.join(expected)}"
    assert main(["sortframe-demo", "--json", "--", vector]) == 0
    assert json.loads(capsys.readouterr().out)["elementary"] == expected


def test_sortframe_demo_bad_literal(capsys):
    assert main(["sortframe-demo", "1,zebra"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: bad rational literal in vector: '1,zebra'\n"


# the literal rule of parse_weighted: an exponent beyond +-4300 is refused
# before Fraction expands it, a value CPython cannot print after
@pytest.mark.parametrize("vector", ["1e999999999", "1e4300,2", "3 -1E-4300", "99e4299,1"])
def test_sortframe_demo_refuses_huge_literals_at_once(capsys, vector):
    start = time.perf_counter()
    assert main(["sortframe-demo", vector]) == 2
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: bad rational literal in vector: {vector!r}\n"


def test_sortframe_demo_prints_nothing_when_a_value_cannot_be_printed(capsys):
    # every entry prints, but e_3 has more than 4300 digits: the whole output
    # is built first, so stdout stays empty
    for options in ([], ["--json"]):
        assert main(["sortframe-demo", *options, "1e2000,1e2000,1e2000"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1


def test_sortframe_demo_names_the_unprintable_elementary_value(capsys):
    # e_1 = 3e2000 and e_2 = 3e4000 print; e_3 = 1e6000 does not
    vector = "1e2000,1e2000,1e2000"
    for options in ([], ["--json"]):
        assert main(["sortframe-demo", *options, vector]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: e_3 of {vector!r} has more than 4300 digits\n"


# ------------------------------------------------------------ exit codes


def test_parse_error_exit_2(tmp_path, capsys):
    path = write(tmp_path, "bad.txt", "n 4\n2 1 1\n")
    assert main(["canon", path]) == 2
    err = capsys.readouterr().err
    assert "line 2" in err


def test_missing_file_exit_2(capsys):
    assert main(["canon", "/nonexistent/graph.txt"]) == 2


# the last three are within the exponent limit, but their values have more
# than 4300 digits above or below the bar, which CPython cannot print
@pytest.mark.parametrize(
    "literal", ["1e999999999", "1e-999999999", "1e4300", "-1E-4300", "99e4299"]
)
def test_huge_decimal_exponent_exits_2_at_once(tmp_path, capsys, literal):
    path = write(tmp_path, "huge.txt", f"n 3\n1 2 1\n1 3 {literal}\n")
    start = time.perf_counter()
    assert main(["canon", path]) == 2
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: line 3: ")
    assert captured.err.count("\n") == 1


def test_vertex_count_over_the_limit_exits_2_at_once(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO("n 100000\n1 2 1\n"))
    start = time.perf_counter()
    assert main(["canon", "-"]) == 2
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: line 1: vertex count 100000 exceeds the limit")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("path", ["p4", "/nonexistent/graph.txt"])
def test_console_script_exits_with_mains_code(p4_file, capsys, monkeypatch, path):
    argv = ["canon", p4_file if path == "p4" else path]
    code = main(argv)
    expected = capsys.readouterr()
    monkeypatch.setattr(sys, "argv", ["paircanon", *argv])
    with pytest.raises(SystemExit) as exc:
        run()
    assert exc.value.code == code
    assert capsys.readouterr() == expected


def _raise(exc):
    def parse(text):
        raise exc

    return parse


@pytest.mark.parametrize(
    "exc,code,message",
    [
        (MemoryError(), 3, "out of memory"),
        (RecursionError("maximum recursion depth exceeded"), 2, "maximum recursion depth exceeded"),
    ],
)
def test_resource_errors_end_in_one_error_line(p4_file, capsys, monkeypatch, exc, code, message):
    # raised by a stand-in parser: nothing is allocated or recursed for real
    monkeypatch.setattr("paircanon.cli.parse_weighted", _raise(exc))
    assert main(["canon", p4_file]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_a_closed_stdout_exits_141_quietly():
    # `aut` on the empty graph with 8 vertices prints 40,320 lines, far more
    # than a pipe holds, so the write meets the reader's closed end
    env = dict(os.environ, PYTHONPATH=str(Path(paircanon.__file__).parents[1]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "paircanon.cli", "aut", "-"],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    proc.stdin.write(b"n 8\n")
    proc.stdin.close()
    assert proc.stdout.readline() == b"1 2 3 4 5 6 7 8\n"
    proc.stdout.close()
    try:
        code = proc.wait(timeout=60)
        err = proc.stderr.read()
    finally:
        proc.kill()
        proc.stderr.close()
    assert code == 141
    assert err == b""


def test_size_limit_exit_3(tmp_path, p4_file, capsys):
    path = write(tmp_path, "big.txt", "n 9\n1 2 1\n")
    assert main(["canon", "--engine", "brute", path]) == 3
    assert "max_n" in capsys.readouterr().err
    # brute force on P4 under a lowered limit
    assert main(["canon", "--engine", "brute", "--max-n", "3", p4_file]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "max_n=3" in captured.err


def test_brute_size_limit_exit_3_for_huge_n(tmp_path, capsys):
    path = write(tmp_path, "huge.txt", "n 2000\n1 2 1\n")
    assert main(["canon", "--engine", "brute", path]) == 3
    assert "max_n" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, group, name",
    [
        ("canon", _Group(1600, classes=[list(range(1600))]), "the automorphism group's order"),
        ("orbit", _Group(1600), "the orbit size"),
    ],
    ids=["aut_order", "orbit_size"],
)
def test_sizes_beyond_4300_digits_exit_3(tmp_path, capsys, monkeypatch, command, group, name):
    # |Aut| = 1600! and, for the trivial group, the orbit size 1600! have 4434
    # digits; the result is made without a search
    n = 1600
    zeros = EdgeVector._from_ranks(n, (Fraction(0),), (0,) * (n * (n - 1) // 2))
    result = CanonResult(zeros, VertexPermutation(tuple(range(1, n + 1))), group)
    monkeypatch.setattr("paircanon.cli.canonical_form", lambda x, **options: result)
    assert main([command, "--json", write(tmp_path, "g.txt", f"n {n}\n")]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {name} has more than 4300 digits, too many to print\n"


def test_pruned_engine_handles_n9(tmp_path, capsys):
    # all-distinct weights: trivial stabilizer, so the orbit is all of 9!
    x = EdgeVector(9, tuple(range(1, 37)))
    path = write(tmp_path, "big.txt", emit_weighted(x))
    assert main(["orbit", path]) == 0
    assert capsys.readouterr().out.strip() == "orbit_size 362880"


# --------------------------------------------------------- parser reuse


def test_repeated_main_calls_match_fresh_processes(tmp_path, capsys):
    # one parser serves every call, so no flag or default may carry over
    p4 = write(tmp_path, "p4.txt", P4_TEXT)
    relabeled = act(induced_pair_action(VertexPermutation((3, 1, 4, 2))), P4)
    other = write(tmp_path, "q4.txt", emit_weighted(relabeled))
    star_g6 = emit_graph6(EdgeVector(4, (1, 1, 1, 0, 0, 0)))
    star = write(tmp_path, "star.g6", star_g6 + "\n")
    bad = write(tmp_path, "bad.txt", "n 4\n2 1 1\n")
    calls = [
        ["canon", "--json", p4],
        ["canon", p4],
        ["aut", "--format", "graph6", "--json", star],
        ["iso", p4, other],
        ["canon", bad],
        ["orbit", p4],
        ["aut", p4],
    ]
    env = dict(os.environ, PYTHONPATH=str(Path(paircanon.__file__).parents[1]))
    for argv in calls:
        code = main(argv)
        out = capsys.readouterr().out
        fresh = subprocess.run(
            [sys.executable, "-m", "paircanon.cli", *argv],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        assert (code, out) == (fresh.returncode, fresh.stdout), argv


def test_canon_does_not_load_polyinv_or_sortframe():
    # the graph commands must not compile the algebra modules; attribute
    # access on the package still loads them on demand
    code = "\n".join(
        [
            "import io, sys",
            "import paircanon.cli",
            "sys.stdin = io.StringIO(%r)" % P4_TEXT,
            "assert paircanon.cli.main(['canon', '--json', '-']) == 0",
            "print([m for m in sys.modules if m.endswith(('.polyinv', '.sortframe'))])",
            "import paircanon",
            "print(paircanon.polyinv.reynolds.__name__, paircanon.sortframe.sort_frame.__name__)",
        ]
    )
    env = dict(os.environ, PYTHONPATH=str(Path(paircanon.__file__).parents[1]))
    run = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[1:] == ["[]", "reynolds sort_frame"]


def test_graph_command_loads_no_dataclasses_pathlib_typing_or_inspect(p4_file):
    # they cost more import time than a small graph's canonization; without
    # site, nothing but paircanon could load them
    code = (
        "import sys, paircanon.cli; paircanon.cli.main(['canon', '--json', sys.argv[1]]); "
        "print(sorted({'dataclasses', 'pathlib', 'typing', 'inspect'} & set(sys.modules)))"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(paircanon.__file__).parents[1]))
    run = subprocess.run(
        [sys.executable, "-S", "-c", code, p4_file],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert run.returncode == 0, run.stderr
    canon, loaded = run.stdout.splitlines()
    assert json.loads(canon)["aut_order"] == 2
    assert loaded == "[]"
