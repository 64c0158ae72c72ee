#!/usr/bin/env bash
# Full verification: release build + tests, ASan+UBSan build + tests, the
# repo benchmark's smoke test, a bench smoke run that emits
# BENCH_datapath.json, the end-to-end gates of scripts/smoke.sh, and a TSan
# pass over the threaded suites.  Set ROFL_CHECK_FULL=1 to also run every
# figure bench at full length (slow).
set -euo pipefail
cd "$(dirname "$0")/.."

# Use whatever generator the existing build trees were configured with;
# default to the CMake default on fresh checkouts.
cmake -B build -S .
cmake --build build -j
ctest --test-dir build --output-on-failure -j

cmake -B build-asan -S . \
  -DCMAKE_BUILD_TYPE=Debug \
  -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-omit-frame-pointer"
cmake --build build-asan -j
ctest --test-dir build-asan --output-on-failure -j

# Repo benchmark smoke: all four perfbench/ workloads at ~1% size with every
# check on (section 6.3 parity, the codec round trip on the live frame
# corpus, counter parity with net::run_mesh); ~2.5 s once built.
cmake -S perfbench -B .bench_build -DCMAKE_BUILD_TYPE=Release
cmake --build .bench_build --target rofl_bench -j
ctest --test-dir .bench_build --output-on-failure

# Datapath bench smoke: short run, but long enough for stable ns/op, and it
# exercises the JSON trajectory plumbing end to end.  The pointer cache's
# hit and evict-on-insert costs and the serial all-routers SPF are among
# the figures the docs quote.
python3 scripts/bench_trajectory.py run --min-time 0.05
grep -q '"BM_PointerCacheInsertEvict/1024"' BENCH_datapath.json
grep -q '"BM_PointerCacheBestMatch/1024"' BENCH_datapath.json
grep -q '"BM_AllRoutersSpf/0"' BENCH_datapath.json

# End-to-end smoke gates (codec size pins, same-seed determinism of every
# simulator mode, trace/timeline renderers, live mesh on every backend); the
# same script is CI's smoke step.
scripts/smoke.sh

# TSan leg: the suites that actually spin threads -- the UDP transport pump
# and meshes (test_net) and the sharded engine's workers (test_sharded) --
# must run clean under ThreadSanitizer.
cmake -B build-tsan -S . \
  -DCMAKE_BUILD_TYPE=Debug \
  -DCMAKE_CXX_FLAGS="-fsanitize=thread -fno-omit-frame-pointer"
cmake --build build-tsan --target rofl_tests -j
TSAN_OPTIONS=halt_on_error=1 build-tsan/tests/rofl_tests \
  --gtest_filter='PumpHeader.*:DedupWindow.*:Loopback.*:Udp.*:Mesh.*:SpscQueue.*:BalancedShardMap.*:ShardedSimulator.*:ShardScaleModel.*'

if [ "${ROFL_CHECK_FULL:-0}" = "1" ]; then
  for b in build/bench/*; do
    if [ -x "$b" ] && [ "$(basename "$b")" != "micro_datapath" ]; then
      "$b"
    fi
  done
  # Perf gate: diff the fresh datapath snapshot against a pinned baseline
  # (checkout-relative path in ROFL_BENCH_BASELINE).  Per-benchmark headroom
  # comes from scripts/bench_thresholds.json; exits 1 on regression.
  if [ -n "${ROFL_BENCH_BASELINE:-}" ] && [ -f "${ROFL_BENCH_BASELINE}" ]; then
    python3 scripts/bench_trajectory.py compare "${ROFL_BENCH_BASELINE}" \
      BENCH_datapath.json --thresholds scripts/bench_thresholds.json
  else
    echo "check.sh: no bench baseline (set ROFL_BENCH_BASELINE to a" \
         "BENCH_datapath.json from a prior run); skipping perf compare"
  fi
fi
