#!/usr/bin/env bash
# Tier-1 gate: the full build + test cycle, then the fault/resilience tests
# again under ASan+UBSan (the paths that juggle raw state across crash,
# restart and retry deserve the extra scrutiny), and the concurrent KV /
# feedback paths under TSan (shared_mutex shards + pool fan-out).
#
# Usage: scripts/tier1.sh [--no-sanitize] [--bench] [-L <label>]
#   --bench additionally runs scripts/bench_smoke.sh (reduced-scale JSON
#   benches with output validation) after the test stage.
#   -L <label> restricts the ctest stage to one taxonomy stage (unit,
#   property, integration, contract — see TESTING.md); repeatable.
set -euo pipefail
cd "$(dirname "$0")/.."

jobs=$(nproc 2>/dev/null || echo 4)
no_sanitize=0
bench=0
label_args=()
while [[ $# -gt 0 ]]; do
  case "$1" in
    --no-sanitize) no_sanitize=1; shift ;;
    --bench) bench=1; shift ;;
    -L)
      [[ $# -ge 2 ]] || { echo "-L requires a label" >&2; exit 2; }
      label_args+=(-L "$2"); shift 2 ;;
    *) echo "unknown option: $1" >&2; exit 2 ;;
  esac
done

echo "=== tier 1: regular build + ctest ${label_args[*]:-(all stages)} ==="
cmake -B build -S . >/dev/null
cmake --build build -j "$jobs"
ctest_log=$(mktemp)
ctest --test-dir build --output-on-failure -j "$jobs" \
  ${label_args[@]+"${label_args[@]}"} | tee "$ctest_log"

echo "=== tier 1: slowest 10 tests ==="
# The last filter reads all of sort's output: `head` would exit early and,
# under pipefail, sort's SIGPIPE would fail the whole script.
awk '/ Test +#[0-9]+:/ && / sec$/ {
       for (i = 1; i <= NF; i++) if ($i == "sec") t = $(i - 1);
       print t, $4
     }' "$ctest_log" | sort -rn | awk 'NR <= 10'
rm -f "$ctest_log"

if [[ "$bench" == 1 ]]; then
  echo "=== tier 1: bench smoke (reduced scale, JSON validated) ==="
  scripts/bench_smoke.sh build
fi

echo "=== tier 1: telemetry-off build compiles obs:: to no-ops ==="
# The instrumented call sites stay in the source; -DMUMMI_TELEMETRY=OFF must
# still build them (against the no-op shells) and the probe must observe a
# registry/tracer that records nothing.
cmake -B build-notelem -S . -DMUMMI_TELEMETRY=OFF >/dev/null
cmake --build build-notelem -j "$jobs" --target obs_noop_probe
./build-notelem/tests/obs_noop_probe

if [[ "$no_sanitize" == 1 ]]; then
  echo "=== tier 1: PASS (sanitizer stage skipped) ==="
  exit 0
fi

echo "=== tier 1: ASan+UBSan build, fault/resilience tests ==="
# ForBlocks: a block that throws must not let the caller's frame unwind
# while other blocks still write into it (use-after-scope under ASan).
cmake -B build-asan -S . -DMUMMI_SANITIZE="address;undefined" >/dev/null
cmake --build build-asan -j "$jobs" --target mummi_tests
./build-asan/tests/mummi_tests \
  --gtest_filter='*Backoff*:*FaultPlan*:*ResilientKv*:*FailNode*:*Resilience*:*FsStoreFault*:*JobTrackerBoundary*:*ForBlocks*:*BlockScratch*'

echo "=== tier 1: ASan+UBSan build, crash-point sweep ==="
# The crash-consistency sweep throws SimulatedCrash through half-finished
# I/O stacks and then reuses the survivors — exactly where use-after-scope
# or leaked-state bugs would hide; run the whole sweep under ASan.
./build-asan/tests/mummi_tests \
  --gtest_filter='*CrashPoint*:*CrashConsistency*:*CrashSweep*:*Checkpoint*'

echo "=== tier 1: ASan+UBSan build, checkpoint journal decoder contract ==="
# Journal records and selector mutation logs are decoded from disk on every
# resume: torn tails, flipped bits, inflated lengths, stale or foreign bases
# and diverging replays must keep a valid prefix or throw FormatError, with
# no out-of-bounds read and no allocation beyond the input.
./build-asan/tests/mummi_tests \
  --gtest_filter='CheckpointJournalTest.*:SelectorLog.*:Resilience.*Journal*'

echo "=== tier 1: TSan build, concurrent KV + feedback tests ==="
# The shared-lock shards, pooled scans/mgets and batch retry paths are the
# code that races if anything does; run them under ThreadSanitizer.
cmake -B build-tsan -S . -DMUMMI_SANITIZE=thread >/dev/null
cmake --build build-tsan -j "$jobs" --target mummi_tests
./build-tsan/tests/mummi_tests \
  --gtest_filter='*KvCluster*:*KvBatch*:*SharedLock*:*ResilientKv*:*Aa2Cg*:*Cg2Cont*'

echo "=== tier 1: TSan build, supervision plane tests ==="
# The supervision plane (watchdog ticks, quarantine ledger, node health,
# campaign-level supervision) mutates scheduler state from timer callbacks;
# reuse the TSan build to prove those paths are race-free too.
./build-tsan/tests/mummi_tests \
  --gtest_filter='*Watchdog*:*Specul*:*Quarantine*:*NodeHealth*:*Supervis*'

echo "=== tier 1: TSan build, threaded MD engine tests ==="
# The MD force engine scatters into per-block buffers from pool workers and
# folds them on the caller; the neighbor build fills CSR rows the same way,
# and the Langevin / Velocity-Verlet particle loops and the minimizer's
# max-force scan and displacement run as blocked passes too. The
# determinism suite drives those paths at 1/2/4/8 workers — any cross-block
# write or unsynchronized scratch access shows up here.
./build-tsan/tests/mummi_tests \
  --gtest_filter='*ParallelMd*:*NveDrift*:*Langevin*:*Minimize*'

echo "=== tier 1: TSan build, threaded continuum engine tests ==="
# The continuum engine runs the same scatter-into-block-buffers / fold-on-
# caller discipline over DDFT stencil rows and protein blocks; its
# determinism suite drives 2- and 8-worker pools against the serial
# reference, so any cross-block write or racy scratch reuse trips here.
./build-tsan/tests/mummi_tests \
  --gtest_filter='*ParallelContinuum*'

echo "=== tier 1: TSan build, threaded campaign tick tests ==="
# The campaign maintain tick runs one blocked pass over the running sims
# (each pool task steps and then analyzes its block, touching only those
# sims' state), then folds serially on the caller in ascending sim-id order.
# The determinism suites drive 2/4/8-worker pools against the serial
# reference, and the for_blocks / BlockScratch suites cover the primitive
# itself, so a cross-block write or a racy scratch reuse trips here.
./build-tsan/tests/mummi_tests \
  --gtest_filter='*ForBlocks*:*BlockScratch*:*InSitu*:*ParallelCampaign*'

echo "=== tier 1: PASS ==="
