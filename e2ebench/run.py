#!/usr/bin/env python3
"""End-to-end benchmark of the transaction-time system.

Usage, from the root of the repository:

    python3 e2ebench/run.py --workload txn_long_history --seed 1 \
        --seconds 10 --trace 0

Builds the system and the benchmark program from source (Release, under
$CARGO_TARGET_DIR or .bench_build), runs the system under test in a child
process on a fresh directory of the real disk, runs the output oracle in a
second child process, removes the directory and prints, as its last line,
one JSON object: {"correct", "attempted", "failed", "metrics"}. The line
before it, starting with "# info:", records the host (CPU count and model,
filesystem of the run directory, build type) and the run's exact counts.

--seconds sets the amount of work, not a deadline: each workload does a
fixed number of operations per second of --seconds (see workload.cc), so
history length and the database are the same in every run with the same
arguments. With --trace 1 the metrics are the per-layer ones.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("txn_long_history", "ingest_pipelined", "asof_query")
SUT_TIMEOUT_S = 150
ORACLE_TIMEOUT_S = 120


def log(message):
    print("e2ebench: " + message, file=sys.stderr, flush=True)


def build_root():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, root) if not os.path.isabs(root) else root


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    if not os.path.isdir(os.path.join(ROOT, "src")):
        raise RuntimeError("no system sources: %s/src is missing" % ROOT)
    out = os.path.join(build_root(), "e2ebench")
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, timeout=300)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", out, "-j", jobs],
                   check=True, stdout=sys.stderr, timeout=840)
    return os.path.join(out, "e2e_bench")


def run_child(argv, timeout):
    """Runs one child to completion; returns its last stdout line as JSON."""
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=timeout)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError("%s exited with %d" % (argv[1], proc.returncode))
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 600:
        parser.error("--seed must be ≥ 0 and --seconds in [1, 600]")

    try:
        binary = build()
    except (RuntimeError, OSError, subprocess.SubprocessError) as err:
        log("build failed: %s" % err)
        return 2

    run_dir = os.path.join(build_root(), "e2e-runs", "%s-%d-%d" % (
        args.workload, args.seed, os.getpid()))
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--dir", run_dir]
    try:
        shutil.rmtree(run_dir, ignore_errors=True)
        os.makedirs(run_dir)
        # Write back what the build and earlier runs left dirty before the
        # timed child starts, so its fsyncs do not pay for it.
        os.sync()
        sut = run_child([binary, "sut", "--trace", str(args.trace)] + common,
                        SUT_TIMEOUT_S)
        oracle = run_child([binary, "oracle"] + common, ORACLE_TIMEOUT_S)
        if args.trace:
            traces = os.path.join(build_root(), "e2e-traces")
            os.makedirs(traces, exist_ok=True)
            kept = os.path.join(traces, "%s-%d.jsonl" % (args.workload,
                                                         args.seed))
            os.replace(os.path.join(run_dir, "trace.jsonl"), kept)
            log("spans written to %s" % kept)
    except (RuntimeError, OSError, ValueError,
            subprocess.SubprocessError) as err:
        log("run failed: %s" % err)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        # The deletes' discards, issued now rather than in the next run.
        os.sync()

    failed = sut["errors"] + oracle["mismatches"]
    info = dict(sut["info"])
    info["oracle_checked"] = oracle["checked"]
    info["failed_ratio"] = failed / sut["attempted"]
    print("# info: " + json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sut["attempted"],
        "failed": failed,
        "metrics": sut["metrics"],
    }), flush=True)
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
