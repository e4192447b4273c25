#!/usr/bin/env python3
"""Self-check of the end-to-end benchmark, at the smallest run length.

    python3 e2ebench/selftest.py

For every workload:
  * the same seed twice gives the same inputs, the same transaction count,
    the same stored bytes (an exact count) and the same digest of every
    answer the system returned;
  * another seed gives other inputs, so the seed reaches the generator;
  * every run is correct (the output oracle and the storage accounting
    identities hold).
On txn_long_history and asof_query a traced run must account for the
operations' wall time: the module spans cover at least 95% of it.
Exits 0 when every check holds.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SECONDS = "1"


def run(workload, seed, trace=0):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", SECONDS, "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = out.stdout.strip().splitlines()
    info = [json.loads(l[len("# info: "):]) for l in lines
            if l.startswith("# info: ")]
    if out.returncode != 0 or not info:
        raise SystemExit("%s seed %d failed:\n%s" % (workload, seed,
                                                     out.stderr[-3000:]))
    return info[-1], json.loads(lines[-1])


def main():
    failures = []

    def check(ok, what):
        print(("ok    " if ok else "FAIL  ") + what, flush=True)
        if not ok:
            failures.append(what)

    for workload in ("txn_long_history", "ingest_pipelined", "asof_query"):
        first, result = run(workload, 7)
        second, _ = run(workload, 7)
        other, _ = run(workload, 8)
        check(result["correct"] and result["failed"] == 0,
              "%s: correct, nothing failed" % workload)
        for key in ("input_digest", "final_txn", "stored_bytes",
                    "answers_digest"):
            check(first[key] == second[key],
                  "%s: same seed, same %s (%s)" % (workload, key, first[key]))
        check(first["input_digest"] != other["input_digest"],
              "%s: another seed changes the inputs" % workload)

    for workload in ("txn_long_history", "asof_query"):
        _, traced = run(workload, 7, trace=1)
        coverage = traced["metrics"]["trace.coverage_ratio"]["value"]
        check(0.95 <= coverage <= 1.0,
              "%s: module spans cover %.3f of the operations' wall time"
              % (workload, coverage))

    if failures:
        print("%d check(s) failed" % len(failures))
        return 1
    print("all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
