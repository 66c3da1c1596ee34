#!/usr/bin/env bash
# Tier-1 verification across the sanitizer matrix.
#
#   scripts/check.sh          # plain, then ASan/UBSan
#   scripts/check.sh --fast   # plain only
#
# Tiers build into separate trees so they cache independently:
#   build/       plain            (the tier-1 command from ROADMAP.md)
#   build-asan/  MIC_SANITIZE=address   -> -fsanitize=address,undefined
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
# The timing wheel must beat the frozen heap engine.  Flow-table costs
# must not grow with the table: at 4096 rules the per-rule exact-install
# cost, the per-rule cost of filling an L3-shaped table and the cost of an
# L3 lookup may each be at most 2x their cost at 64 rules (an O(table)
# install or lookup is ~20-60x).  The dataplane smoke must bring up every
# channel and deliver every byte.
./build/bench/micro_sim --min_speedup 1.0
./build/bench/micro_flowtable --max_install_growth 2.0
./build/bench/macro_dataplane --smoke

echo "== admission flood guard =="
# Honest establishment p99 under a 10x establishment flood must stay
# within a fixed multiple of the unloaded p99 (latencies are simulated
# time, so this is exact, not a wall-clock threshold).
./build/bench/control_flood --smoke

echo "== recovery + failover smoke (audit-gated) =="
# The crash/recover sweep plus the warm-standby failover leg; each point
# re-checks audit::run_all, so a reconciliation bug fails the run even if
# the latency numbers look fine.
(cd build && ./bench/controller_recovery --smoke)

echo "== soak trace-hash replay =="
# Every seeded chaos / MC-crash / failover soak fingerprint must replay
# bit-identically against the recorded golden file.
scripts/record_trace_hashes.sh verify build

if [[ "${1:-}" != "--fast" ]]; then
  echo "== sanitized (address,undefined) =="
  run_suite build-asan -DMIC_SANITIZE=address

  echo "== scheduler differential, deep (SIM-2 oracle x20k ops/seed) =="
  # The default suite already fuzzes >10k ops; rerun the wheel-vs-reference
  # oracle instrumented, with the per-seed op count raised an order of
  # magnitude.
  MIC_SIM_DIFF_CASES=20000 ./build-asan/tests/mic_tests \
    --gtest_filter='SimulatorDiff.*'
fi

echo "OK"
