#!/usr/bin/env bash
# End-to-end smoke gates over a built tree: the codec size pins, same-seed
# determinism of every simulator mode (faults, corruption, audit, routes
# digest, shards, timelines), the trace and timeline renderers, and the live
# mesh on every backend.  Each roflsim run exits nonzero on a failed
# convergence, audit or parity gate, and `set -e` turns that into a failure
# here.  Expects a release build in build/ (cmake -B build -S . && cmake
# --build build); CI and scripts/check.sh both run it after their builds.
set -euo pipefail
cd "$(dirname "$0")/.."

# Codec micro-benchmark: per-type encode/decode timings for every control
# frame (DESIGN.md section 12), and BENCH_wire.json's pin of the section 6.3
# sizes: a 256-finger JoinRequest is 1638 bytes in two MTU fragments.
(
  cd build
  bench/wire_codec --benchmark_min_time=0.01
  grep -q '"wire.size.join_request_256f": 1638' BENCH_wire.json
  grep -q '"wire.fragments.join_request_256f": 2' BENCH_wire.json
)

# Observability smoke: a small sim with the trace sink + flight recorder on
# must emit a trace that chrome://tracing / Perfetto would accept, and with
# --timeline the trace must also carry live "ph":"C" counter tracks (the
# intra model is synchronous, so gate on msgs.join rather than sim.events).
# The timeline file must render, whole and filtered.
build/tools/roflsim intra --hosts 200 --routes 100 --seed 7 \
  --trace build/trace_smoke.json --timeline build/timeline_smoke.jsonl \
  --traceroute --metrics > /dev/null
python3 scripts/validate_trace.py build/trace_smoke.json --min-events 50 \
  --require-counter msgs.join
build/tools/roflsim timeline --file build/timeline_smoke.jsonl > /dev/null
build/tools/roflsim timeline --file build/timeline_smoke.jsonl \
  --metric msgs > /dev/null

# Fault-matrix smoke: churn under 5% loss with link flaps must converge to
# canonical rings (roflsim exits nonzero otherwise), and two same-seed runs
# must produce byte-identical metrics -- the determinism contract that makes
# faulty runs debuggable.
build/tools/roflsim faults --hosts 120 --churn 40 --loss 0.05 --flaps 3 \
  --seed 11 --metrics-json build/faults_run1.json > /dev/null
build/tools/roflsim faults --hosts 120 --churn 40 --loss 0.05 --flaps 3 \
  --seed 11 --metrics-json build/faults_run2.json > /dev/null
cmp build/faults_run1.json build/faults_run2.json
grep -q '"faults.dropped"' build/faults_run1.json

# Corruption smoke: the same contract with byte corruption in the loss mix.
# Every corrupted frame must be CRC-rejected (counted under
# "faults.corrupted"), the run must still converge, and two same-seed runs
# must stay byte-identical.
build/tools/roflsim faults --hosts 120 --churn 40 --loss 0.02 --corrupt 0.01 \
  --seed 13 --metrics-json build/corrupt_run1.json > /dev/null
build/tools/roflsim faults --hosts 120 --churn 40 --loss 0.02 --corrupt 0.01 \
  --seed 13 --metrics-json build/corrupt_run2.json > /dev/null
cmp build/corrupt_run1.json build/corrupt_run2.json
grep -q '"faults.corrupted"' build/corrupt_run1.json
grep -q '"bytes.join"' build/corrupt_run1.json

# Invariant-auditor smoke: a churn run with periodic audits must finish with
# zero hard violations and converge (roflsim exits nonzero otherwise), both
# fault-free and under loss; two same-seed runs must produce byte-identical
# metrics snapshots -- the digest printed on stdout covers the audit reports
# violation-by-violation.
build/tools/roflsim audit --events 120 --initial-hosts 32 --seed 11 \
  --metrics-json build/audit_run1.json > build/audit_out1.txt
build/tools/roflsim audit --events 120 --initial-hosts 32 --seed 11 \
  --metrics-json build/audit_run2.json > build/audit_out2.txt
cmp build/audit_run1.json build/audit_run2.json
cmp <(grep 'audit digest' build/audit_out1.txt) \
    <(grep 'audit digest' build/audit_out2.txt)
build/tools/roflsim audit --events 120 --initial-hosts 32 --seed 11 \
  --loss 0.05 > /dev/null
grep -q '"audit.runs"' build/audit_run1.json

# Routes-digest pin: the faulty churn run routes every flow twice and folds
# both outcomes into its "routes digest".  A same-seed double run under
# loss+duplication must produce byte-identical metrics and digests, and the
# digest is pinned, so a forwarding change that moves any route outcome fails
# here even though both runs move alike.
build/tools/roflsim audit --events 120 --initial-hosts 32 --seed 11 \
  --loss 0.05 --dup 0.02 --metrics-json build/routes_run1.json \
  > build/routes_out1.txt
build/tools/roflsim audit --events 120 --initial-hosts 32 --seed 11 \
  --loss 0.05 --dup 0.02 --metrics-json build/routes_run2.json \
  > build/routes_out2.txt
cmp build/routes_run1.json build/routes_run2.json
cmp <(grep 'routes digest' build/routes_out1.txt) \
    <(grep 'routes digest' build/routes_out2.txt)
grep -q 'routes digest.*fnv=19b882c9a49ae42a' build/routes_out1.txt

# Shard-determinism smoke: the same seeded scale scenario at 1 and 4 shards
# must produce byte-identical merged metrics and identical flight-recorder /
# shard-audit digests (the shard count may change performance, never
# results), and the shard audit must be clean (roflsim exits nonzero
# otherwise).
build/tools/roflsim shard --shards 1 --hosts 20000 --ases 400 \
  --duration 500 --seed 11 --metrics-json build/shard_run1.json \
  > build/shard_out1.txt
build/tools/roflsim shard --shards 4 --hosts 20000 --ases 400 \
  --duration 500 --seed 11 --metrics-json build/shard_run4.json \
  > build/shard_out4.txt
cmp build/shard_run1.json build/shard_run4.json
cmp <(grep -E 'flight digest|shard audit' build/shard_out1.txt) \
    <(grep -E 'flight digest|shard audit' build/shard_out4.txt)
# Pinned too: a change that moves both shard counts alike (renumbering a
# flight-recorder hop kind, say) still fails.
grep -q 'flight digest: 0x3359663f4624b6f4' build/shard_out1.txt
grep -q '"scale.ops.lookup"' build/shard_run1.json
# The event queue's other paths (DESIGN.md section 13), pinned with a clean
# shard audit: with no lookahead every cross-AS hop lands in the bucket being
# drained, and 0.3 ms is a bucket width with no exact binary value, on three
# shards.
build/tools/roflsim shard --shards 1 --lookahead 0 --hosts 20000 --ases 400 \
  --duration 500 --seed 11 > build/shard_out_la0.txt
grep -q 'flight digest: 0xda3c732a71019bbb' build/shard_out_la0.txt
grep -q 'shard audit: checks=[0-9]*;hard=0;' build/shard_out_la0.txt
build/tools/roflsim shard --shards 3 --lookahead 0.3 --hosts 20000 \
  --ases 400 --duration 500 --seed 11 > build/shard_out_la03.txt
grep -q 'flight digest: 0x64b0747f835213f2' build/shard_out_la03.txt
grep -q 'shard audit: checks=[0-9]*;hard=0;' build/shard_out_la03.txt

# Timeline-determinism smoke: the merged timeline (per-window counter deltas,
# gauges, histogram percentiles) must also be shard-count independent.  The
# JSONL trailer carries wall-clock provenance ({"run": ...}), which varies by
# construction, so scrub it before the byte-compare (DESIGN.md section 14),
# and check that it is there to scrub.
build/tools/roflsim shard --shards 1 --hosts 20000 --ases 400 \
  --duration 500 --seed 11 --timeline build/shard_tl1.jsonl > /dev/null
build/tools/roflsim shard --shards 4 --hosts 20000 --ases 400 \
  --duration 500 --seed 11 --timeline build/shard_tl4.jsonl > /dev/null
cmp <(grep -v '"run"' build/shard_tl1.jsonl) \
    <(grep -v '"run"' build/shard_tl4.jsonl)
grep -q '"sim.events"' build/shard_tl1.jsonl
grep -q '"run"' build/shard_tl1.jsonl
build/tools/roflsim timeline --file build/shard_tl1.jsonl \
  --metric sim.events > /dev/null

# Net smoke: the control plane over actual sockets (DESIGN.md section 15).
# An 8-router live UDP mesh must converge its join storm with a clean ring
# audit (roflsim exits nonzero otherwise), also under loss + duplication;
# the deterministic loopback backend must hit the section 6.3 byte-parity
# gate (1638 bytes per 256-finger JoinRequest, enforced by the run itself);
# and spawn mode -- one real process per router -- must do the same over a
# fixed port range.  Hard timeouts: a wedged mesh fails, never hangs.
timeout 120 build/tools/roflsim net --routers 8 --hosts 400 --fingers 8 \
  --seed 11 > /dev/null
timeout 120 build/tools/roflsim net --routers 8 --hosts 300 --fingers 8 \
  --seed 11 --loss 0.02 --dup 0.01 > /dev/null
timeout 120 build/tools/roflsim net --backend loopback --routers 4 \
  --hosts 200 --fingers 256 --seed 11 > build/net_loopback.txt
grep -q 'byte parity (6.3).*exact' build/net_loopback.txt
timeout 120 build/tools/roflsim net --spawn --routers 6 --hosts 240 \
  --fingers 8 --seed 11 --base-port 47500 > build/net_spawn.txt
grep -q 'audit=clean' build/net_spawn.txt

# Lookup + leave smoke: data-plane lookups over the converged live mesh (all
# probes must hit) followed by a clean departure whose post-leave ring audit
# stays exact (roflsim exits nonzero on either failing); the deterministic
# loopback run must reproduce byte-identical metrics across two same-seed
# runs with both phases on.
timeout 120 build/tools/roflsim net --routers 4 --hosts 200 --fingers 8 \
  --seed 11 --lookups 50 --leave 2 > build/net_lookup_leave.txt
grep -q 'lookups hit/served  *50/50' build/net_lookup_leave.txt
grep -q 'departure  *clean' build/net_lookup_leave.txt
timeout 120 build/tools/roflsim net --backend loopback --routers 4 \
  --hosts 200 --fingers 8 --seed 11 --lookups 50 --leave 2 \
  --metrics-json build/net_ll_run1.json > /dev/null
timeout 120 build/tools/roflsim net --backend loopback --routers 4 \
  --hosts 200 --fingers 8 --seed 11 --lookups 50 --leave 2 \
  --metrics-json build/net_ll_run2.json > /dev/null
cmp build/net_ll_run1.json build/net_ll_run2.json
grep -q '"net.lookups.hit"' build/net_ll_run1.json
grep -q '"net.leave.relinks"' build/net_ll_run1.json

# Closed-loop UDP lookups: two routers keep their probes in flight back to
# back for a few hundred ms, the sustained busy loop in which a router's step
# waits on its own socket between passes (DESIGN.md section 16).  Every probe
# must hit and the ring audit stay exact.
timeout 60 build/tools/roflsim net --routers 2 --hosts 1000 --fingers 8 \
  --lookups 20000 --seed 11 > build/net_closed_loop.txt
grep -q 'lookups hit/served  *20000/20000' build/net_closed_loop.txt
grep -q 'audit  *clean' build/net_closed_loop.txt

# Lossy loopback exactness: the 64-router storm under 10 % loss and 20 ms
# jitter must end with an exact ring on every seed (no id spliced twice
# after a stale redirect or a JoinRequest's retries; DESIGN.md section 15).
# Each run takes about a second.
for seed in 1 2 3 4 5 6 7 8; do
  timeout 60 build/tools/roflsim net --backend loopback --routers 64 \
    --hosts 10000 --fingers 8 --loss 0.1 --jitter 20 --deadline-ms 600000 \
    --seed "$seed" > /dev/null
done

echo "smoke.sh: all gates passed"
