#!/usr/bin/env sh
# Tier-1 verification: configure, build, run every test suite, smoke the
# benchmark harnesses (tiny scale) to prove they still emit valid JSON, then
# run the deterministic-simulation (DST) quick seed sweep under TSan (data
# races in the replay pipelines), ASan (epoch GC reclaiming a reachable
# version, wire-decoder out-of-bounds reads), and UBSan (signed overflow,
# misaligned loads in the wire codecs), plus the static-analysis lane
# (clang thread-safety + clang-tidy) when clang is installed.
# Exits nonzero on the first failure.
# The concurrent suites also run in a stress lane (20 repeats under
# parallel load, stopping at the first failure).
# Usage: scripts/check.sh [--quick] [--static] [build-dir]
#   --quick:  build and run only the fast perf-guard suite (the alloc-budget
#             regression test) — seconds, not minutes; the inner loop for
#             work on the shipping pipeline. Full tier-1 otherwise.
#   --static: run ONLY the static-analysis lane (clang -Werror=thread-safety
#             build + clang-tidy over the compile database). The full run
#             includes it automatically when clang is available; this flag is
#             the inner loop for annotation work.
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
quick=0
static_only=0
build_dir=""
for arg in "$@"; do
  case "$arg" in
    --quick) quick=1 ;;
    --static) static_only=1 ;;
    *) build_dir=$arg ;;
  esac
done
[ -n "$build_dir" ] || build_dir="$repo_root/build"

if command -v nproc >/dev/null 2>&1; then
  jobs=$(nproc)
else
  jobs=4
fi

# Static-analysis lane: a clang build with the thread-safety analysis as a
# hard error (the annotations in src/common/thread_annotations.h expand to
# attributes only under clang), then clang-tidy (.clang-tidy at the repo
# root) over the lane's compile database. Skipped with a message when clang
# is not installed — the annotations are no-ops under gcc, so the gcc lanes
# still build everything; only the ANALYSIS needs clang.
run_static_lane() {
  if ! command -v clang++ >/dev/null 2>&1; then
    echo "check.sh: SKIP static-analysis lane (clang++ not installed;" \
         "thread-safety analysis needs clang)"
    return 0
  fi
  static_dir="${build_dir}-static"
  cmake -B "$static_dir" -S "$repo_root" \
    -DCMAKE_CXX_COMPILER=clang++ \
    -DCMAKE_EXPORT_COMPILE_COMMANDS=ON \
    -DC5_WERROR=ON >/dev/null
  cmake --build "$static_dir" -j "$jobs"
  if command -v clang-tidy >/dev/null 2>&1; then
    # Tidy only src/: tests and benches follow looser idioms (gtest macros,
    # throwaway mains) that the bugprone/concurrency checks are not tuned
    # for. Findings are errors (see WarningsAsErrors in .clang-tidy).
    find "$repo_root/src" -name '*.cc' | \
      xargs clang-tidy -p "$static_dir" --quiet
  else
    echo "check.sh: SKIP clang-tidy (not installed)"
  fi
}

if [ "$static_only" -eq 1 ]; then
  run_static_lane
  exit 0
fi

if [ "$quick" -eq 1 ]; then
  cmake -B "$build_dir" -S "$repo_root" >/dev/null
  cmake --build "$build_dir" -j "$jobs" --target alloc_budget_test >/dev/null
  "$build_dir/alloc_budget_test"
  exit 0
fi

cmake -B "$build_dir" -S "$repo_root"
cmake --build "$build_dir" -j "$jobs"
ctest --test-dir "$build_dir" --output-on-failure -j "$jobs"

# c5bench (the end-to-end benchmark) is a package of its own outside the
# root build, so compile it here too: an API change that breaks it fails
# this lane instead of the benchmark run.
cmake -S "$repo_root/c5bench" -B "${build_dir}-c5bench" >/dev/null
cmake --build "${build_dir}-c5bench" -j "$jobs" --target c5bench

# Stress lane: the concurrency-heavy suites, all at once, 20 times over (or
# until the first failure). A race that fires one run in ten shows up here
# as a red lane instead of a "flaky" test. It includes the epoch limbo
# buckets (epoch_test), reclamation while replay workers run (replica_test)
# and the GC-every-pass DST sweep (dst_test).
ctest --test-dir "$build_dir" --output-on-failure -j "$jobs" \
  --repeat until-fail:20 \
  -R 'replica|dst|epoch|property|failover|session|net|cluster|ordered_index|hash_index|tpcc|checkpoint|c5_core|integration|query_fresh|engine|two_phase_locking'
"$repo_root/scripts/bench.sh" --quick "$build_dir"

run_static_lane

# Sanitizer lanes: the DST harness (the classic sweep, the GC-every-pass
# sweep — under ASan a reclaimed version that a reader or worker can still
# reach is a crash — AND the sharded 16-seed sweep; the sharded sweep seeds
# live reshard migrations mid-workload, so the epoch-aware router oracle and
# the commit/abort migration ledger run under both sanitizers), the epoch
# limbo buckets and reclamation while replay workers run, the wire fuzz
# loop, the real-socket shipping suite (net_test: loopback TCP round trips,
# NAK-driven retransmit, reconnect-after-disconnect — every listener binds
# port 0, so parallel lanes never collide on a port), and the public-API
# cluster suite (including the ShardedCluster Rebalance-under-traffic tests
# and the promoted-read regression) are rebuilt and run (the quick 16-seed
# list keeps each lane to seconds of test time). The lock-rank registry
# (common/lock_rank.h) is active in every lane — none of them are Release
# builds — so lock-order inversions abort these runs deterministically.
# Lane build trees derive from the caller's build dir so concurrent
# invocations with distinct build dirs never race on shared trees.
# A failing seed prints itself; replay it under the same lane with
#   C5_DST_SEED=<n> <lane-build-dir>/dst_test
# ordered_index_test (lock-free skiplist readers racing CAS-linking writers)
# and htap_scan_test (streaming Scan/Aggregate over a live replica) join the
# concurrency-sensitive lane set: TSan checks the reader/writer memory
# ordering, ASan the inline-tower arena lifetimes. hash_index_test joins it
# too: its shards start at 8 slots and double while readers probe, so TSan
# checks the shard lock covers every Grow() and ASan that no probe touches a
# freed slot array. The DST ordered-index oracle runs inside dst_test in
# every lane.
tsan_dir="${build_dir}-tsan"
cmake -B "$tsan_dir" -S "$repo_root" -DC5_SANITIZE=thread >/dev/null
cmake --build "$tsan_dir" -j "$jobs" --target dst_test cluster_test net_test \
  ordered_index_test hash_index_test htap_scan_test epoch_test replica_test
C5_DST_SEED_COUNT=16 "$tsan_dir/dst_test"
"$tsan_dir/epoch_test"
"$tsan_dir/replica_test" --gtest_filter='*ReclaimWhileReplaying*'
"$tsan_dir/cluster_test"
"$tsan_dir/net_test"
"$tsan_dir/ordered_index_test"
"$tsan_dir/hash_index_test"
"$tsan_dir/htap_scan_test"

asan_dir="${build_dir}-asan"
cmake -B "$asan_dir" -S "$repo_root" -DC5_SANITIZE=address >/dev/null
cmake --build "$asan_dir" -j "$jobs" --target dst_test wire_test cluster_test \
  net_test ordered_index_test hash_index_test htap_scan_test epoch_test \
  replica_test
C5_DST_SEED_COUNT=16 "$asan_dir/dst_test"
"$asan_dir/epoch_test"
"$asan_dir/replica_test" --gtest_filter='*ReclaimWhileReplaying*'
"$asan_dir/wire_test"
"$asan_dir/cluster_test"
"$asan_dir/net_test"
"$asan_dir/ordered_index_test"
"$asan_dir/hash_index_test"
"$asan_dir/htap_scan_test"

ubsan_dir="${build_dir}-ubsan"
cmake -B "$ubsan_dir" -S "$repo_root" -DC5_SANITIZE=undefined >/dev/null
cmake --build "$ubsan_dir" -j "$jobs" --target dst_test wire_test cluster_test \
  net_test ordered_index_test
C5_DST_SEED_COUNT=16 "$ubsan_dir/dst_test"
"$ubsan_dir/wire_test"
"$ubsan_dir/cluster_test"
"$ubsan_dir/net_test"
"$ubsan_dir/ordered_index_test"

# Release compile-out probe: lock_rank_test deliberately links no c5_core,
# so this rebuilds two translation units, runs the static_asserts proving
# SpinLock carries no rank member in Release, and executes the inert-hook
# test. Guards the zero-overhead contract of the lock-rank registry.
release_dir="${build_dir}-release"
cmake -B "$release_dir" -S "$repo_root" -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build "$release_dir" -j "$jobs" --target lock_rank_test
"$release_dir/lock_rank_test"
