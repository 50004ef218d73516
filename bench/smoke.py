#!/usr/bin/env python3
"""Smoke run: every workload at a tiny size, untraced and traced.

    python3 bench/smoke.py

Runs bench/run.py --seconds 1 (a few generator rounds per workload) one
workload at a time and fails unless every run exits 0 with a correct result that
names every metric BENCHMARK.json lists.  Takes about a minute; it is not
part of the test suite.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    want = {0: {m["name"] for m in spec["end_to_end"]}, 1: {m["name"] for m in spec["per_layer"]}}
    bad = 0
    for w in spec["workloads"]:
        for trace in (0, 1):
            argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", w["name"],
                    "--seed", "1", "--seconds", "1", "--trace", str(trace)]
            out = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
            lines = out.stdout.strip().splitlines()
            res = json.loads(lines[-1]) if lines else {}
            got = set(res.get("metrics", {}))
            ok = out.returncode == 0 and res.get("correct") is True and got == want[trace]
            print(f"{w['name']:11s} trace={trace} exit={out.returncode} "
                  f"items={res.get('attempted')} {'ok' if ok else 'FAIL'}")
            if not ok:
                bad += 1
                print(out.stderr[-2000:], file=sys.stderr)
                print("missing:", sorted(want[trace] - got), "extra:", sorted(got - want[trace]),
                      file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
