"""Fast self-test of the benchmark harness.

    python3 benchmarks/selftest.py

Runs every workload at its tiny size, untraced and traced, and checks that
the last line is the result object, that every metric named in
``BENCHMARK.json`` is emitted with its unit, and that no operation failed.
Exits non-zero on the first problem.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def check(workload, trace, spec):
    cmd = [sys.executable, os.path.join(HERE, "bench.py"), "--workload", workload,
           "--seed", "7", "--seconds", "0", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        return f"exit {proc.returncode}: {proc.stderr[-2000:]}"
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        return f"result keys {sorted(result)}"
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1):
        return f"attempted {result['attempted']!r}"
    if not result["correct"] or result["failed"]:
        return f"{result['failed']} failed operations:\n{proc.stdout}"
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"] or not isinstance(got["value"], (int, float)):
            return f"metric {m['name']}: {got!r}"
    return None


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    bad = 0
    for w in spec["workloads"]:
        for trace in (0, 1):
            problem = check(w["name"], trace, spec)
            print(f"{w['name']:<16} trace {trace}: {problem or 'ok'}")
            bad += problem is not None
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
