"""paircanon benchmark: run one seeded workload in a fresh process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``.  The arguments go unchanged to ``worker.py``, which runs the
workload in a child process under a wall-clock limit and prints a header
(Python version, nproc, git commit, seed), one line per metric with its
unit, and a JSON result as the last line.  If the limit kills the worker,
its unfinished ops count as failed and the exit code is 1.  Workloads,
metrics and the reasons for them are in NOTES.md.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
LIMIT_S = 170  # the whole command must end within 180 s


def main() -> int:
    cmd = [sys.executable, str(HERE / "worker.py"), *sys.argv[1:]]
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.Popen(
        cmd, cwd=HERE.parent, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
    )
    try:
        out, err = proc.communicate(timeout=LIMIT_S)
        killed = False
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        killed = True

    planned = attempted = failed = 0
    report = []
    for line in out.splitlines():
        word = line.split(" ", 1)[0]
        if word == "planned":
            planned = int(line.split()[1])
        elif word == "progress":
            attempted, failed = map(int, line.split()[1:])
        else:
            report.append(line)

    if killed:
        # the interrupted pass: its ops were not all finished and checked
        attempted += planned
        failed += planned
        print("\n".join(report))
        print(f"killed after {LIMIT_S} s; {planned} unfinished ops counted as failed")
        result = {"correct": False, "attempted": max(attempted, 1), "failed": failed, "metrics": {}}
        print(json.dumps(result))
        return 1
    try:
        if proc.returncode != 0:
            raise ValueError(f"worker exited with code {proc.returncode}")
        result = json.loads(report[-1])
        if set(result) != {"correct", "attempted", "failed", "metrics"}:
            raise ValueError("worker printed no result")
    except (ValueError, IndexError, TypeError) as exc:
        sys.stderr.write(err)
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print("\n".join(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
