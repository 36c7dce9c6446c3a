"""Runs one workload in this process and prints its report; started by run.py.

Order of work: print a header, build the op list and its reference answers
from the seed, set up the program several times (import plus warm-up calls),
then run whole passes over the op list as a closed loop with one client,
checking each answer right after timing it, then set up the program several
times more; ``setup_s`` is the median of all set-ups.  Every timed interval
lies between two calibrations, runs of a fixed piece of pure-Python work,
and is scaled to the time it would take at the calibration's reference
speed (NOTES.md, "Calibrated time").  With ``--trace 1`` every op runs twice
back to back, once traced and once not, and the report holds the per-layer
metrics.  The last line printed is the JSON result.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
from contextlib import nullcontext
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import refs
import tracing
import verify
import workloads

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT_DIR = HERE / "out"
SETUP_REPEATS = 11  # before the timed phase, and again after it
MIN_SAMPLES = 100  # op_p90_ms needs at least 10 samples beyond it
BLOCK_S = 0.5  # op time between two calibrations
CAL_MATRIX = refs.matrix(6, lambda i, j: Fraction((i * j + i) % 3, 2))
CAL_REF_S = 0.009  # the calibration's time at the reference speed

#: end-to-end metric name -> unit, in report order
END_TO_END = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def load_program():
    """Import paircanon afresh, so lazy caches start empty."""
    for name in [m for m in sys.modules if m == "paircanon" or m.startswith("paircanon.")]:
        del sys.modules[name]
    pc = importlib.import_module("paircanon")
    importlib.import_module("paircanon.cli")
    return pc


def calibrate() -> float:
    """Time of a fixed piece of pure-Python work that does not use paircanon."""
    t0 = perf_counter()
    for _ in range(3):
        refs.brute_canon(CAL_MATRIX)
    return perf_counter() - t0


def scale(before: float, after: float) -> float:
    """Factor taking a time measured between two calibrations to the reference speed."""
    return 2 * CAL_REF_S / (before + after)


def set_up(workload, repeats: int) -> tuple[object, list[float]]:
    """The program after the last of several set-ups, and the scaled time of each."""
    times = []
    cal = calibrate()
    for _ in range(repeats):
        gc.collect()  # the modules of the previous set-up are garbage now
        t0 = perf_counter()
        pc = load_program()
        for call in workload.warmup:
            call(pc)
        dt = perf_counter() - t0
        before, cal = cal, calibrate()
        times.append(dt * scale(before, cal))
    return pc, times


class Tally:
    """Latency and outcome of every timed op."""

    def __init__(self):
        self.latencies: list[float] = []  # scaled to the reference speed
        self.calibrations: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.summaries: dict = {}  # group -> first summary seen

    def record(self, op, output, error) -> bool:
        """Count the op; True if it passed its check."""
        self.attempted += 1
        if error is None:
            try:
                summary = op.check(output)
                if op.group is not None:
                    expected = self.summaries.setdefault(op.group, summary)
                    if summary != expected:
                        raise verify.CheckError("relabelings disagree on the answer")
                return True
            except (verify.CheckError, LookupError, AttributeError, TypeError, ValueError) as exc:
                error = f"wrong answer: {exc}"
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(f"{op.label}: {error}")
        return False


def run_passes(pc, ops, seconds, min_samples, tally, tracer=None):
    """The whole number of passes over ops whose op time is nearest ``seconds``.

    Runs at least one pass and at least ``min_samples`` ops.  Whole passes
    keep the mix of ops the same whatever the program's speed.  With a
    tracer, each op runs twice back to back, untraced and traced, the order
    alternating from op to op, so that the machine's changes of speed fall
    on both alike.  A calibration follows every block of ops that takes
    BLOCK_S or more, and the ops of a block are scaled by the two
    calibrations around it.  Returns (summed scaled op latency, ops that
    passed their check, passes, summed op time as measured), the first two
    as [untraced, traced].
    """
    busy = [0.0, 0.0]
    ok = [0, 0]
    raw = 0.0
    passes = 0
    start_attempted = tally.attempted
    block = []  # (traced, op time) since the last calibration
    cal = calibrate()

    def end_block():
        nonlocal cal
        before, cal = cal, calibrate()
        tally.calibrations.append(cal)
        k = scale(before, cal)
        for traced, dt in block:
            busy[traced] += dt * k
            if traced == 0:
                tally.latencies.append(dt * k)
        block.clear()

    while (
        passes == 0
        or raw * (1 + 0.5 / passes) < seconds
        or tally.attempted - start_attempted < min_samples
    ):
        gc.collect()
        for i, op in enumerate(ops):
            if tracer is None:
                modes = (0,)
            else:
                tracer.op = (passes, i)
                modes = (0, 1) if (i + passes) % 2 == 0 else (1, 0)
            for traced in modes:
                error = output = None
                with tracer if traced else nullcontext():
                    t0 = perf_counter()
                    try:
                        output = op.call(pc)
                    except (Exception, SystemExit) as exc:  # a failed op, not a harness error
                        error = repr(exc)
                    dt = perf_counter() - t0
                block.append((traced, dt))
                raw += dt
                ok[traced] += tally.record(op, output, error)
                if sum(t for _, t in block) >= BLOCK_S:
                    end_block()
        if block:
            end_block()
        passes += 1
        print(f"progress {tally.attempted} {tally.failed}", flush=True)
    return busy, ok, passes, raw


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: at least (1-q)*len(values) samples lie above it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def measure(name: str, seed: int, seconds: float, trace: bool, ops=None) -> tuple[dict, list[str]]:
    """Run one workload; returns the JSON result and the human-readable lines."""
    workload = workloads.WORKLOADS[name]
    if ops is None:
        ops = workloads.build(name, seed)
    pc, setup_times = set_up(workload, SETUP_REPEATS)
    gc.collect()
    gc.freeze()  # later collections skip the inputs and the loaded program
    print(f"planned {len(ops) * (2 if trace else 1)}", flush=True)  # ops in one pass
    tally = Tally()
    lines = [f"ops per pass: {len(ops)}"]
    if not trace:
        busy, ok, passes, raw = run_passes(pc, ops, seconds, MIN_SAMPLES, tally)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        gc.unfreeze()
        setup_times += set_up(workload, SETUP_REPEATS)[1]
        n = len(tally.latencies)
        values = {
            "ops_per_s": ok[0] / busy[0],
            "op_p50_ms": percentile(tally.latencies, 0.5) * 1e3,
            "op_p90_ms": percentile(tally.latencies, 0.9) * 1e3,
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": rss_mb,
        }
        units = END_TO_END
        lines.append(f"timed: {passes} passes, {n} ops, {raw:.3f} s of op time as measured")
        cal_ms = statistics.median(tally.calibrations) * 1e3
        lines.append(
            f"calibration: median {cal_ms:.3f} ms of {len(tally.calibrations)} "
            f"(reference {CAL_REF_S * 1e3:g} ms); ops_per_s unscaled {ok[0] / raw}"
        )
        lines.append(f"op_p90_ms samples: {n}, {n - math.ceil(0.9 * n)} beyond it")
        lines.append(f"setup_s: median of {len(setup_times)} set-ups, half before and half after")
    else:
        tracer = tracing.Tracer(pc)
        busy, ok, passes, _ = run_passes(pc, ops, seconds, 0, tally, tracer)
        gc.unfreeze()
        values = tracing.layer_metrics(tracer.spans, passes)
        # untraced over traced ops_per_s
        values["trace_overhead_ratio"] = ok[0] * busy[1] / (busy[0] * ok[1]) if ok[1] else 0.0
        units = tracing.PER_LAYER
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"spans-{name}-seed{seed}.jsonl"
        tracer.write(path)
        lines.append(f"traced: {passes} passes, {len(tracer.spans)} spans in {path}")
        lines.append("per-layer values are per pass of the op list; max_call_ms is over all calls")
    ratio = tally.failed / tally.attempted
    lines.append(f"fail_ratio {ratio} ({tally.failed} of {tally.attempted} ops)")
    lines += [f"failure: {e}" for e in tally.errors]
    lines += [f"{metric} {values[metric]} {unit}" for metric, unit in units.items()]
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m: {"value": values[m], "unit": u} for m, u in units.items()},
    }
    return result, lines


def git_commit() -> str:
    """HEAD of the checkout's git repository, read without running git."""
    git = HERE.parent / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "paircanon" / "__init__.py").is_file():
        print(f"error: no paircanon sources under {SRC}", file=sys.stderr)
        return 2
    cpus = os.sched_getaffinity(0)
    # The cores of a shared host run at different speeds at the same moment,
    # so the calibrations and the ops they scale must run on the same one.
    os.sched_setaffinity(0, {max(cpus)})
    print(
        f"# paircanon benchmark: python {platform.python_version()}, "
        f"nproc {len(cpus)}, pinned to cpu {max(cpus)}, commit {git_commit()}, "
        f"workload {args.workload}, seed {args.seed}, seconds {args.seconds:g}, "
        f"trace {args.trace}",
        flush=True,
    )
    sys.path.insert(0, str(SRC))
    result, lines = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in lines:
        print(line)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
