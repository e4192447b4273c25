#!/bin/sh
# Local gate: build + test in several configurations. Passes can be run
# independently or all together.
#
#   tools/check.sh            # all passes: normal, ASan/UBSan, TSan, tidy,
#                             # stress, bench
#   tools/check.sh --fast     # tier-1 gate only: ctest -L tier1, no
#                             # sanitizers, no bench
#   tools/check.sh --asan     # ASan/UBSan pass only (memory gate)
#   tools/check.sh --tsan     # ThreadSanitizer pass only (race gate)
#   tools/check.sh --stress   # stress-labeled suites (concurrency oracle,
#                             # crash sweeps) with extra randomized seeds
#   tools/check.sh --faults   # fault-schedule torture oracle (label
#                             # `faults`) with a deep seed sweep
#   tools/check.sh --tidy     # clang-tidy + thread-safety analysis
#                             # (skips whichever clang tool is missing)
#   tools/check.sh --model    # deterministic protocol model checker
#                             # (schedule exploration of the commit
#                             # pipeline) + static lock-order analysis
#   tools/check.sh --lint     # ttra-lint multi-pass static analysis
#                             # (IO-under-lock, epoch-escape, hot-path
#                             # allocation budget, WAL-kind
#                             # exhaustiveness) + fixture must-fail checks
#   tools/check.sh --compact  # compact-storage property oracle (label
#                             # `compact`) with a deep seed sweep
#
# Run from the repository root. Build trees go to build/ (normal),
# build-san/ (ASan/UBSan), build-tsan/ (TSan), and build-release/ (bench
# smoke) so the configurations never collide.
set -eu

jobs=$(nproc 2>/dev/null || echo 4)

do_normal=0
do_asan=0
do_tsan=0
do_tidy=0
do_stress=0
do_faults=0
do_model=0
do_lint=0
do_compact=0
do_bench=0
case "${1:-}" in
  "")      do_normal=1 do_asan=1 do_tsan=1 do_tidy=1 do_stress=1 do_faults=1 do_model=1 do_lint=1 do_compact=1 do_bench=1 ;;
  --fast)  do_normal=1 ;;
  --asan)  do_asan=1 ;;
  --tsan)  do_tsan=1 ;;
  --tidy)  do_tidy=1 ;;
  --stress) do_stress=1 ;;
  --faults) do_faults=1 ;;
  --model) do_model=1 ;;
  --lint)  do_lint=1 ;;
  --compact) do_compact=1 ;;
  *) echo "usage: tools/check.sh [--fast|--asan|--tsan|--stress|--faults|--tidy|--model|--lint|--compact]" >&2; exit 2 ;;
esac

# Stale-.o guard: incremental builds trust file timestamps, so a clock
# that jumped backwards (VM snapshot restore, NTP step) can leave .o
# files stamped in the future — they look newer than any source edit, the
# build "succeeds" without recompiling, and the tests run old code.
# Detect it directly: stamp a reference file with the current wall clock
# and look for object files strictly newer than it. Any hit means the
# tree's timestamps are ahead of the clock and cannot be trusted, so
# force a clean configure of that tree.
check_clock_skew() {
  dir=$1
  [ -d "$dir" ] || return 0
  ref=$(mktemp "${TMPDIR:-/tmp}/ttra-clockref.XXXXXX")
  future=$(find "$dir" -name '*.o' -newer "$ref" -print -quit 2>/dev/null)
  rm -f "$ref"
  if [ -n "$future" ]; then
    echo "== clock skew: $future is newer than the wall clock; wiping $dir for a clean configure"
    rm -rf "$dir"
  fi
}

# run_pass <build-dir> <ctest-label|-> [cmake args...]; "-" runs every
# test, a label runs only the suites carrying it (see tests/CMakeLists.txt:
# tier1 = the fast gate, stress = randomized concurrency/crash suites).
run_pass() {
  dir=$1
  label=$2
  shift 2
  check_clock_skew "$dir"
  echo "== configure $dir ($*)"
  cmake -B "$dir" -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON "$@" >/dev/null
  echo "== build $dir"
  cmake --build "$dir" -j "$jobs"
  echo "== test $dir${label:+ (-L $label)}"
  if [ "$label" = "-" ]; then
    ctest --test-dir "$dir" --output-on-failure -j "$jobs"
  else
    ctest --test-dir "$dir" --output-on-failure -j "$jobs" -L "$label"
  fi
}

if [ "$do_normal" -eq 1 ]; then
  run_pass build tier1
fi

if [ "$do_asan" -eq 1 ]; then
  # Leak detection needs ptrace; fall back gracefully inside containers.
  ASAN_OPTIONS="${ASAN_OPTIONS:-detect_leaks=0}" \
  UBSAN_OPTIONS="${UBSAN_OPTIONS:-halt_on_error=1}" \
  run_pass build-san - "-DTTRA_SANITIZE=address;undefined"
fi

if [ "$do_tsan" -eq 1 ]; then
  # Race gate: the whole suite builds under TSan, but only the
  # multi-threaded binaries are worth the (heavy) instrumented run time.
  TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}" \
  run_pass build-tsan - -DTTRA_SANITIZE=thread \
    || { echo "== TSan gate FAILED"; exit 1; }
fi

if [ "$do_tidy" -eq 1 ]; then
  # Lint gate: needs clang-tidy plus a compile database (exported by the
  # normal pass). Opt-in by toolchain: skip, loudly, when not installed.
  if command -v clang-tidy >/dev/null 2>&1; then
    [ -f build/compile_commands.json ] || \
      cmake -B build -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null
    echo "== clang-tidy (config: .clang-tidy)"
    find src tools -name '*.cc' -o -name '*.cpp' | \
      xargs clang-tidy -p build --quiet --warnings-as-errors='*'
  else
    echo "== clang-tidy not installed; skipping lint pass"
  fi

  # Lock-discipline gate: clang's thread-safety analysis over every
  # annotated translation unit (util/thread_annotations.h enables the
  # attributes only under clang, so g++ builds are unaffected). Syntax-only
  # is enough — the analysis is a frontend pass.
  if command -v clang++ >/dev/null 2>&1; then
    echo "== clang -Wthread-safety (lock-discipline gate)"
    tu_list=$(find src tools -name '*.cc' -o -name '*.cpp')
    # The commit pipeline's TUs must be in the sweep: if a rename or a
    # find-pattern edit ever drops one, fail here instead of silently
    # shrinking the gate.
    for required in \
        src/rollback/sharded_executor.cc \
        src/rollback/serial_executor.cc \
        src/modelcheck/sched.cc; do
      echo "$tu_list" | grep -qx "$required" || {
        echo "== FAILED: $required missing from thread-safety sweep" >&2
        exit 1
      }
    done
    echo "$tu_list" | while read -r tu; do
      clang++ -std=c++20 -fsyntax-only -Isrc \
        -Wthread-safety -Werror=thread-safety "$tu" || exit 1
    done

    # Negative compile tests: every deliberately mis-locked mutation in
    # tests/negative_compile/ MUST be rejected, or the gate above is
    # silently toothless.
    for negative in tests/negative_compile/*.cc; do
      echo "== thread-safety negative test: $negative (must fail to compile)"
      if clang++ -std=c++20 -fsyntax-only -Isrc \
           -Wthread-safety -Werror=thread-safety \
           "$negative" 2>/dev/null; then
        echo "== FAILED: $negative compiled cleanly; annotations are dead" >&2
        exit 1
      fi
      echo "   rejected, as required"
    done
  else
    echo "== clang++ not installed; skipping thread-safety gate"
  fi
fi

if [ "$do_stress" -eq 1 ]; then
  # Stress gate: the randomized concurrency/crash suites (label `stress`)
  # with a deeper seed sweep than the tier-1 defaults (the differential
  # concurrency oracle reads TTRA_ORACLE_SEEDS when it runs). This
  # includes the shard sweep: ConcurrentOracleTest and ShardedOracleTest
  # run every seed at N = 1 and N ∈ {2, 4} writer shards, merging the
  # shard WALs and requiring byte-equality with serial replay.
  TTRA_ORACLE_SEEDS="${TTRA_ORACLE_SEEDS:-200}" \
  run_pass build stress
fi

if [ "$do_faults" -eq 1 ]; then
  # Fault gate: the seeded fault-schedule torture oracle (label `faults`)
  # over a deep sweep. Every seed derives a schedule of transient-EIO
  # bursts, torn appends, lying fsyncs and ENOSPC; the oracle requires
  # every acked commit durable-or-cleanly-failed, a gap-free transaction
  # chain, working degraded-mode reads, and that fsck --repair turns every
  # corrupted schedule into a successful recovery.
  TTRA_FAULT_SEEDS="${TTRA_FAULT_SEEDS:-200}" \
  run_pass build faults
fi

if [ "$do_compact" -eq 1 ]; then
  # Compact-storage gate: the property oracle (label `compact`) proving
  # the delta-encoded segment engine, the only checkpoint format, equal to
  # the full-copy semantics — byte-equal databases after reopen, ρ(I, N)
  # probe equality at every epoch, FINDSTATE-cache-on/off agreement —
  # between the Serial spec and the Sharded executor (one and three
  # shards), plus migration of a hand-built legacy directory (checkpoint.db
  # and a single-writer wal.log) into one shard.
  TTRA_ORACLE_SEEDS="${TTRA_ORACLE_SEEDS:-100}" \
  run_pass build compact
fi

if [ "$do_model" -eq 1 ]; then
  # Model gate, two halves.
  #
  # Static: the lock-order analyzer proves the acquires-while-holding
  # graph of the annotated sources acyclic, self-tests its own parser,
  # must still flag the planted ABBA fixture, and pins the probe cache
  # (FindStateCache) as a leaf towards the store and executor locks.
  if command -v python3 >/dev/null 2>&1; then
    echo "== lockorder self-test"
    python3 tools/lockorder/lockorder.py --self-test
    echo "== lockorder: src acyclic + probe cache pinned as a leaf"
    python3 tools/lockorder/lockorder.py src \
      --forbid-edge CompactStore::mutex_ FindStateCache::mutex_ \
      --forbid-edge FindStateCache::mutex_ CompactStore::mutex_ \
      --forbid-edge FindStateCache::mutex_ SerialExecutor::mutex_
    echo "== lockorder: injected cycle fixture (must fail)"
    if python3 tools/lockorder/lockorder.py \
         tools/lockorder/testdata/injected_cycle.cc >/dev/null 2>&1; then
      echo "== FAILED: injected cycle not detected; analyzer is dead" >&2
      exit 1
    fi
    echo "   rejected, as required"
  else
    echo "== python3 not installed; skipping lock-order pass"
  fi

  # Dynamic: the deterministic model checker executes EVERY schedule of
  # the scaled-down commit protocols within the preemption bound (CHESS
  # bound 2 — empirically where protocol bugs live) and checks the full
  # invariant set on each: gap-free transaction chaining, durability
  # watermark monotonicity, read-your-writes after ack, epoch-pinned
  # reads, clean Stop() quiescence. Then the seeded watermark bug must be
  # caught, proving the harness can actually see protocol violations.
  echo "== configure/build ttra_cli (model checker driver)"
  cmake -B build -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null
  cmake --build build -j "$jobs" --target ttra_cli >/dev/null
  echo "== modelcheck: exhaustive exploration, preemption bound 2"
  ./build/tools/ttra modelcheck --preemptions 2
  echo "== modelcheck: seeded watermark bug (must be caught)"
  # Capture rather than pipe: in POSIX sh a pipeline's status is the LAST
  # command's, which would let a seeded-bug escape slip past `set -e`.
  seeded=$(./build/tools/ttra modelcheck --seeded-bug --preemptions 2 \
             --max-schedules 2000)
  echo "$seeded" | head -4
fi

if [ "$do_lint" -eq 1 ]; then
  # ttra-lint gate (tools/ttralint): four build-free static passes over
  # the annotated sources, sharing the lock-order analyzer's parsing core.
  # `--require-clean` makes stale waivers (entries that no longer match
  # anything) failures too, so the waiver files cannot rot. The injected
  # fixtures must KEEP failing — a pass that stops seeing its planted
  # violation has gone blind, which is worse than noisy.
  if command -v python3 >/dev/null 2>&1; then
    echo "== ttra-lint self-test"
    python3 tools/ttralint/ttralint.py self-test
    echo "== ttra-lint: all passes over the repo (--require-clean)"
    python3 tools/ttralint/ttralint.py all --require-clean
    echo "== ttra-lint: hot-alloc report (ranked inventory -> lint-alloc-report.json)"
    python3 tools/ttralint/ttralint.py hot-alloc --json \
      --out lint-alloc-report.json >/dev/null
    echo "== ttra-lint: injected fixtures (each must fail)"
    for fixture in \
        "io-under-lock tools/ttralint/testdata/injected_io_under_lock.cc --no-waivers" \
        "epoch-escape tools/ttralint/testdata/injected_epoch_escape.cc --no-waivers" \
        "hot-alloc tools/ttralint/testdata/injected_alloc_regression.cc --baseline tools/ttralint/testdata/alloc_fixture_baseline.json" \
        "wal-kinds --config tools/ttralint/testdata/wal_kinds_fixture.json --no-waivers"; do
      if python3 tools/ttralint/ttralint.py $fixture >/dev/null 2>&1; then
        echo "== FAILED: fixture passed clean ($fixture); pass is blind" >&2
        exit 1
      fi
      echo "   rejected, as required: ${fixture%% *}"
    done
  else
    echo "== python3 not installed; skipping ttra-lint pass"
  fi
fi

if [ "$do_bench" -eq 1 ]; then
  # Release bench smoke: exercises the hash-join fast path (experiment
  # E12) and ρ against history length and probe position on the full-copy
  # log (E2) under optimization. The short, filtered runs go to
  # build-release/bench-smoke/, never over the committed BENCH_*.json
  # files, which are full recordings with host context.
  smoke=build-release/bench-smoke
  echo "== configure build-release (bench smoke)"
  cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
  echo "== build build-release benches"
  cmake --build build-release -j "$jobs" --target bench_operators bench_rollback bench_concurrent bench_storage bench_quel bench_wal
  mkdir -p "$smoke"
  echo "== bench smoke (operators, rollback, concurrent, storage, quel, wal -> $smoke/)"
  ./build-release/bench/bench_operators \
    --benchmark_filter='BM_EquiJoin' \
    --benchmark_min_time=0.05 \
    --benchmark_out="$smoke/BENCH_operators.json" --benchmark_out_format=json
  ./build-release/bench/bench_rollback \
    --benchmark_filter='BM_Rollback/' \
    --benchmark_min_time=0.05 \
    --benchmark_out="$smoke/BENCH_rollback.json" --benchmark_out_format=json
  ./build-release/bench/bench_concurrent \
    --benchmark_min_time=0.05 \
    --benchmark_out="$smoke/BENCH_concurrent.json" --benchmark_out_format=json
  # Experiment E17: compact segment engine — bytes appended per
  # transaction, and FINDSTATE probe latency against loading a full-copy
  # export image. (The deleted full-copy write path's bytes per
  # transaction are recorded in EXPERIMENTS.md E17.)
  ./build-release/bench/bench_storage \
    --benchmark_filter='BM_BytesPerTxn|BM_FindStateProbe' \
    --benchmark_min_time=0.05 \
    --benchmark_out="$smoke/BENCH_storage.json" --benchmark_out_format=json
  # Experiment E19: the read script path stage by stage (parse or Quel
  # compile, analyze, optimize, evaluate) over 20k-state rollback and
  # temporal histories.
  ./build-release/bench/bench_quel \
    --benchmark_filter='BM_AsofScriptPath' \
    --benchmark_min_time=0.05 \
    --benchmark_out="$smoke/BENCH_quel.json" --benchmark_out_format=json
  # Experiments E11, E20, E21: one synchronous client's commit under each
  # sync policy (committed on the client's own thread when the log is
  # idle), and the record sync a commit waits for, by log file kind.
  ./build-release/bench/bench_wal \
    --benchmark_filter='BM_CommitSync|BM_LogRecordSync' \
    --benchmark_min_time=0.05 \
    --benchmark_out="$smoke/BENCH_wal.json" --benchmark_out_format=json
fi

echo "== all requested checks passed"
