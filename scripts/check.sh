#!/usr/bin/env bash
# Tier-1 verification across the sanitizer matrix.
#
#   scripts/check.sh          # plain, then ASan/UBSan, then TSan
#   scripts/check.sh --fast   # plain only
#
# Tiers build into separate trees so they cache independently:
#   build/       plain            (the tier-1 command from ROADMAP.md)
#   build-asan/  MIC_SANITIZE=address   -> -fsanitize=address,undefined
#   build-tsan/  MIC_SANITIZE=thread    -> -fsanitize=thread
#
# The TSan tier exports MIC_PATH_WARMUP_THREADS=4 so every controller in
# the suite constructs its PathEngine through the multi-threaded warm-up
# path (ControllerConfig::effective_warmup_threads honours the override),
# putting the rows_mu_-guarded cache under real contention instead of only
# in the handful of tests that opt in.  It also exports MIC_SIM_SHARDS=4 so
# every default-constructed Fabric runs the pod-sharded engine (serial-exact
# regime), and the sharded-window tests exercise the worker pool under the
# race detector.
set -euo pipefail
cd "$(dirname "$0")/.."

run_suite() {
  local dir=$1; shift
  cmake -B "$dir" -S . "$@" > /dev/null
  cmake --build "$dir" -j "$(nproc)"
  ctest --test-dir "$dir" --output-on-failure -j "$(nproc)"
}

echo "== plain =="
run_suite build

echo "== perf-regression guards =="
# The timing wheel must beat the frozen heap engine, and the pod-sharded
# engine must not regress against the single engine.  Thresholds leave
# headroom for scheduler noise on loaded single-core CI boxes (the real
# parallel speedup needs cores; BENCH_parallel.json records the honest
# sweep) -- a true regression (accidental serialization, coordination on
# the hot path) lands far below them.  A flow-rule install must not grow
# with the table: per-rule exact-install cost in a table of 4096 rules may
# be at most 2x the cost at 64 (an O(table) install is ~20-60x).
./build/bench/micro_sim --min_speedup 1.0
./build/bench/micro_flowtable --max_install_growth 2.0
./build/bench/macro_dataplane --k 4 --flows 4 --mb 2 --reps 3 --min_speedup 0.7

echo "== admission flood guard =="
# Honest establishment p99 under a 10x flood + slowloris trickle must stay
# within a fixed multiple of the unloaded p99 (latencies are simulated
# time, so this is exact, not a wall-clock threshold).
./build/bench/control_flood --smoke

echo "== recovery + failover smoke (audit-gated) =="
# The crash/recover sweep plus the warm-standby failover leg; each point
# re-checks audit::run_all, so a reconciliation bug fails the run even if
# the latency numbers look fine.
(cd build && ./bench/controller_recovery --smoke)

echo "== soak trace-hash replay (single + 4 shards) =="
# Every seeded chaos / MC-crash / failover soak fingerprint must replay
# bit-identically against the recorded golden file, on both engines.
scripts/record_trace_hashes.sh verify build

if [[ "${1:-}" != "--fast" ]]; then
  echo "== sanitized (address,undefined) =="
  run_suite build-asan -DMIC_SANITIZE=address

  echo "== sanitized (thread, warm-up threads >= 4, 4 sim shards) =="
  MIC_PATH_WARMUP_THREADS=4 MIC_SIM_SHARDS=4 run_suite build-tsan \
    -DMIC_SANITIZE=thread

  echo "== flood soak under TSan (sharded attack replay) =="
  # The admission flood + slowloris soak on the sharded engine under the
  # race detector: the attack schedule draws all randomness at arm() time,
  # so the shard pool must replay it bit-identically.
  MIC_PATH_WARMUP_THREADS=4 MIC_SIM_SHARDS=4 ./build-tsan/tests/mic_tests \
    --gtest_filter='FloodSoak.*'

  echo "== scheduler differential, deep (SIM-2 oracle x20k ops/seed) =="
  # The default suite already fuzzes >10k ops; the instrumented tier is
  # the cheapest place to go deeper, so rerun the wheel-vs-reference
  # oracle with the per-seed op count raised an order of magnitude.
  MIC_SIM_DIFF_CASES=20000 ./build-tsan/tests/mic_tests \
    --gtest_filter='SimulatorDiff.*'
fi

echo "OK"
