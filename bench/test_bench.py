"""Tests of the benchmark itself: its checks, its seeding and its report.

Run with ``python -m pytest bench``; they take a few seconds.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from itertools import permutations
from pathlib import Path

import pytest

import refs
import verify
import worker
import workloads

if str(worker.SRC) not in sys.path:
    sys.path.insert(0, str(worker.SRC))

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


@pytest.fixture
def pc():
    """A freshly loaded paircanon; the modules loaded before are put back after."""
    saved = {k: v for k, v in sys.modules.items() if k.split(".")[0] == "paircanon"}
    yield worker.load_program()
    for name in [k for k in sys.modules if k.split(".")[0] == "paircanon"]:
        del sys.modules[name]
    sys.modules.update(saved)


def _canon(pc, M):
    text = refs.weighted_text(M)
    return workloads.cli_call(["canon", "--json", "-"], text)(pc)


def _rejects(check, *args):
    with pytest.raises(verify.CheckError):
        check(*args)


# a path 1-2-3-4-5 with one heavier edge: Aut is trivial
PATH5 = refs.matrix(5, lambda i, j: Fraction(2 if (i, j) == (0, 1) else 1) if j == i + 1 else 0)
# the 4-cycle plus an isolated vertex: Aut has order 8
C4K1 = refs.matrix(5, lambda i, j: 1 if (i, j) in {(0, 1), (1, 2), (2, 3), (0, 3)} else 0)


def test_canon_check_accepts_the_program_and_rejects_corruption(pc):
    for M in (PATH5, C4K1):
        out = _canon(pc, M)
        verify.check_canon(out, M, refs.brute_canon(M))
    data = json.loads(_canon(pc, C4K1))

    def corrupt(**changes):
        return json.dumps({**data, **changes})

    canonical = list(data["canonical"])
    canonical[-1] = "7"
    _rejects(verify.check_canon, corrupt(canonical=canonical), C4K1)
    frame = list(data["frame"])
    frame[0], frame[-1] = frame[-1], frame[0]
    _rejects(verify.check_canon, corrupt(frame=frame), C4K1)
    gens = [list(g) for g in data["aut_generators"]]
    gens[0] = [2, 1, 3, 4, 5] if gens[0] != [2, 1, 3, 4, 5] else [1, 2, 3, 5, 4]
    _rejects(verify.check_canon, corrupt(aut_generators=gens), C4K1)
    _rejects(verify.check_canon, corrupt(aut_order=4), C4K1, refs.brute_canon(C4K1))
    # without the brute-force answer the generators still pin the order down
    _rejects(verify.check_canon, corrupt(aut_order=4), C4K1)
    _rejects(verify.check_canon, corrupt(aut_generators=gens[1:]), C4K1)
    verify.check_canon(json.dumps(data), C4K1, None, 8)
    _rejects(verify.check_canon, json.dumps(data), C4K1, None, 16)


def _closure_order(gens, n):
    """Order of the generated group by listing all of its elements."""
    elements = {tuple(range(1, n + 1))}
    frontier = list(elements)
    while frontier:
        grown = [tuple(e[v - 1] for v in g) for e in frontier for g in gens]
        frontier = [h for h in set(grown) if h not in elements]
        elements.update(frontier)
    return len(elements)


def test_group_order_matches_closure():
    rng = random.Random(0)
    for _ in range(200):
        n = rng.randint(1, 6)
        gens = [tuple(rng.sample(range(1, n + 1), n)) for _ in range(rng.randint(0, 3))]
        if n > 1 and rng.random() < 0.5:  # a transposition, so small groups occur too
            i, j = rng.sample(range(n), 2)
            swap = list(range(1, n + 1))
            swap[i], swap[j] = swap[j], swap[i]
            gens = gens[:1] + [tuple(swap)]
        assert verify.group_order(gens, n) == _closure_order(gens, n), (n, gens)
    cycle8 = tuple(range(2, 9)) + (1,)
    assert verify.group_order([(2, 1, 3, 4, 5, 6, 7, 8), cycle8], 8) == 40320


def test_io_checks_reject_corruption():
    expected = "n 3\n1 2 1/2\n2 3 -4\n"
    verify.check_weighted_io(expected, expected)
    _rejects(verify.check_weighted_io, expected.replace("-4", "4"), expected)
    B = refs.matrix(5, lambda i, j: (i + j) % 2)
    text = refs.graph6_encode(B)
    bits = bytes(refs.vector(B))
    weights = tuple(Fraction(b) for b in bits)
    verify.check_graph6_io((text, weights), text, bits)
    flipped = text[:-1] + chr(ord(text[-1]) ^ 1)
    _rejects(verify.check_graph6_io, (flipped, weights), text, bits)
    _rejects(verify.check_graph6_io, (text, weights[::-1]), text, bits)


def test_reynolds_and_sortframe_checks_reject_corruption(pc):
    out = workloads.cli_call(["reynolds", "--json", "x1^2*x2", "4"])(pc)
    verify.check_reynolds(out, 4, (2, 1, 0, 0, 0, 0), (2, 3, 1, 4))
    lines = json.loads(out)["terms"]
    bad = json.dumps({"n": 4, "terms": ["1 * " + lines[0].split(" * ")[1]] + lines[1:]})
    _rejects(verify.check_reynolds, bad, 4, (2, 1, 0, 0, 0, 0), (2, 3, 1, 4))
    values = (Fraction(3), Fraction(-1, 2), Fraction(3))
    out = workloads.cli_call(["sortframe-demo", "--json", "--", "3,-1/2,3"])(pc)
    verify.check_sortframe(out, values)
    data = json.loads(out)
    _rejects(verify.check_sortframe, json.dumps({**data, "elementary": ["1", "2", "3"]}), values)
    _rejects(verify.check_sortframe, json.dumps({**data, "frame": [3, 1, 2]}), values)


def test_brute_reference_matches_definition():
    M = refs.matrix(4, lambda i, j: Fraction((i * j) % 3, 2))
    relabeled = [(refs.vector(refs.relabel(M, s)), s) for s in permutations(range(1, 5))]
    vec, frame = min(relabeled)  # ties on the vector go to the smaller frame
    aut = sum(1 for y, _ in relabeled if y == refs.vector(M))
    assert refs.brute_canon(M) == (vec, frame, aut)
    assert refs.brute_canon(refs.matrix(6, lambda i, j: 1)) == ((1,) * 15, (1, 2, 3, 4, 5, 6), 720)
    assert refs.graph6_decode(refs.graph6_encode(C4K1)) == C4K1


@pytest.fixture
def small_workloads(monkeypatch):
    """Shrink the op lists so that building every workload takes little time."""
    monkeypatch.setattr(workloads, "IO_SIZES", range(100, 112, 4))
    strata = [(m, f, n, 2) for m, f, n, _ in workloads.GENERIC_STRATA]
    monkeypatch.setattr(workloads, "GENERIC_STRATA", strata)


def test_same_seed_same_inputs_other_seed_other_inputs(small_workloads):
    for name in workloads.WORKLOADS:
        first = [op.inputs for op in workloads.build(name, 1)]
        again = [op.inputs for op in workloads.build(name, 1)]
        other = [op.inputs for op in workloads.build(name, 2)]
        assert first == again, name
        assert first != other, name


CHEAP_ORACLE_OPS = ("brute6", "reynolds4", "sortframe8", "classify")


def _pick(name, labels):
    ops = workloads.build(name, 1)
    return [next(op for op in ops if op.label == label) for label in labels]


def test_corrupted_answer_raises_fail_ratio(pc, monkeypatch):
    monkeypatch.setattr(worker, "SETUP_REPEATS", 1)
    ops = _pick("oracle", CHEAP_ORACLE_OPS)
    result, _ = worker.measure("oracle", 1, 0, False, ops)
    assert result["correct"] and result["failed"] == 0

    def corrupted(p, good=ops[0].call):
        data = json.loads(good(p))
        data["canonical"][0] = "9"
        return json.dumps(data)

    ops[0].call = corrupted
    result, lines = worker.measure("oracle", 1, 0, False, ops)
    assert not result["correct"]
    assert result["failed"] / result["attempted"] > 0
    assert any(line.startswith("failure: brute6") for line in lines)


def test_times_are_scaled_by_the_calibration(pc, monkeypatch):
    # a machine running at half the reference speed: every time is halved
    monkeypatch.setattr(worker, "calibrate", lambda: 2 * worker.CAL_REF_S)
    tally = worker.Tally()
    busy, ok, passes, raw = worker.run_passes(pc, _pick("oracle", CHEAP_ORACLE_OPS), 0, 0, tally)
    assert passes == 1 and ok[0] == len(tally.latencies) == 4
    assert busy[0] == pytest.approx(raw / 2)
    assert sum(tally.latencies) == pytest.approx(raw / 2)
    assert tally.calibrations == [2 * worker.CAL_REF_S]


def test_metric_names_match_benchmark_json(pc, tmp_path, monkeypatch):
    monkeypatch.setattr(worker, "OUT_DIR", tmp_path)
    monkeypatch.setattr(worker, "SETUP_REPEATS", 1)
    ops = _pick("oracle", CHEAP_ORACLE_OPS)
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        result, _ = worker.measure("oracle", 1, 0, trace, ops)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        printed = {m: v["unit"] for m, v in result["metrics"].items()}
        assert printed == {m["name"]: m["unit"] for m in SPEC[key]}
        assert result["correct"]
    spans = [json.loads(s) for s in (tmp_path / "spans-oracle-seed1.jsonl").read_text().splitlines()]
    names = {s["name"] for s in spans}
    assert {"cli.main", "frame.canonical_form", "polyinv.reynolds"} <= names
    assert all(s["parent"] is None for s in spans if s["name"] == "cli.main")
    assert {w["name"] for w in SPEC["workloads"]} == set(workloads.WORKLOADS)


def test_run_fails_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    cmd = [sys.executable, "bench/run.py", "--workload", "oracle", "--seed", "1"]
    cmd += ["--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
