#!/usr/bin/env python3
"""Run the datapath microbenchmarks and track their trajectory over time.

Stdlib-only driver around build/bench/micro_datapath, which writes
BENCH_datapath.json (see bench/emit_json.hpp).  Two subcommands:

  run      -- execute the bench binary and emit the JSON.
  compare  -- diff two BENCH_datapath.json files (e.g. from two commits)
              and print per-benchmark deltas.  Exits 1 when any benchmark
              regresses beyond its threshold, so it works as a CI perf gate
              (scripts/check.sh wires it in under ROFL_CHECK_FULL against
              the baseline named by ROFL_BENCH_BASELINE).

compare thresholds: --tolerance sets the default allowed slowdown percent;
per-benchmark overrides come from --thresholds FILE (JSON, see
scripts/bench_thresholds.json: {"default": pct, "overrides": {name: pct}})
and/or repeatable --override NAME=PCT flags (highest precedence).  Override
names match benchmarks by substring, so "SimulatorChurn" covers every sized
variant of that bench.

Typical trajectory workflow:

  python3 scripts/bench_trajectory.py run --out before.json   # at HEAD~1
  python3 scripts/bench_trajectory.py run --out after.json    # at HEAD
  python3 scripts/bench_trajectory.py compare before.json after.json \\
      --thresholds scripts/bench_thresholds.json
"""

import argparse
import json
import os
import subprocess
import sys

DEFAULT_BENCH = os.path.join("build", "bench", "micro_datapath")
DEFAULT_JSON = "BENCH_datapath.json"


def load(path):
    with open(path) as f:
        doc = json.load(f)
    schema = doc.get("schema", "")
    if not schema.startswith("rofl-bench"):
        sys.exit(f"{path}: unexpected schema {schema!r}")
    # Sweep-style emitters (churn/faults/shard) carry no per-benchmark
    # timings; treat them as an empty set so a diff degrades gracefully.
    return {name: row["ns_per_op"]
            for name, row in doc.get("benchmarks", {}).items()}


def cmd_run(args):
    if not os.path.exists(args.bench):
        sys.exit(f"bench binary not found: {args.bench} (build it first)")
    cmd = [args.bench, f"--benchmark_min_time={args.min_time}"]
    if args.filter:
        cmd.append(f"--benchmark_filter={args.filter}")
    env = dict(os.environ, ROFL_BENCH_JSON=args.out)
    subprocess.run(cmd, env=env, check=True)


def load_thresholds(args):
    """Resolves (default_pct, [(pattern, pct)...]) from flags and the
    optional thresholds file.  --override beats the file, which beats
    --tolerance."""
    default = args.tolerance
    overrides = []
    if args.thresholds:
        with open(args.thresholds) as f:
            doc = json.load(f)
        if not isinstance(doc, dict):
            sys.exit(f"{args.thresholds}: expected a JSON object")
        default = float(doc.get("default", default))
        file_over = doc.get("overrides", {})
        if not isinstance(file_over, dict):
            sys.exit(f"{args.thresholds}: \"overrides\" must be an object")
        overrides.extend((pat, float(pct)) for pat, pct in file_over.items())
    for spec in args.override or []:
        pat, sep, pct = spec.partition("=")
        if not sep or not pat:
            sys.exit(f"bad --override {spec!r} (want NAME=PCT)")
        try:
            overrides.append((pat, float(pct)))
        except ValueError:
            sys.exit(f"bad --override percent in {spec!r}")
    return default, overrides


def threshold_for(name, default, overrides):
    """Last matching override wins (so --override beats the file)."""
    pct = default
    for pat, value in overrides:
        if pat in name:
            pct = value
    return pct


def cmd_compare(args):
    old, new = load(args.old), load(args.new)
    default, overrides = load_thresholds(args)
    names = sorted(set(old) | set(new))
    if not names:
        sys.exit("no benchmarks in either file")
    width = max(len(n) for n in names)
    print(f"{'benchmark':<{width}}  {'old ns':>10}  {'new ns':>10}  "
          f"{'delta':>8}  {'limit':>6}")
    regressions = 0
    for name in names:
        # A bench introduced after the old snapshot was taken is "new", not
        # an error; one that disappeared is "removed".  Neither regresses.
        if name not in old:
            print(f"{name:<{width}}  {'-':>10}  {new[name]:>10.1f}  "
                  f"{'new':>8}")
            continue
        if name not in new:
            print(f"{name:<{width}}  {old[name]:>10.1f}  {'-':>10}  "
                  f"{'removed':>8}")
            continue
        limit = threshold_for(name, default, overrides)
        delta = (new[name] - old[name]) / old[name] * 100.0
        flag = ""
        if delta > limit:
            regressions += 1
            flag = "  <-- regression"
        print(f"{name:<{width}}  {old[name]:>10.1f}  {new[name]:>10.1f}  "
              f"{delta:>+7.1f}%  {limit:>5.0f}%{flag}")
    if regressions:
        print(f"\n{regressions} benchmark(s) regressed beyond their "
              f"threshold")
        sys.exit(1)
    print("\ncompare: no regressions beyond thresholds")


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="cmd", required=True)

    run = sub.add_parser("run", help="run micro_datapath and emit the JSON")
    run.add_argument("--bench", default=DEFAULT_BENCH)
    run.add_argument("--out", default=DEFAULT_JSON)
    run.add_argument("--filter", default="",
                     help="--benchmark_filter regex passed through")
    run.add_argument("--min-time", default="0.1",
                     help="--benchmark_min_time seconds (default 0.1)")
    run.set_defaults(fn=cmd_run)

    comp = sub.add_parser("compare", help="diff two BENCH_datapath.json files")
    comp.add_argument("old")
    comp.add_argument("new")
    comp.add_argument("--tolerance", type=float, default=10.0,
                      help="flag regressions beyond this percent (default 10)")
    comp.add_argument("--thresholds", default="",
                      help="JSON file with {\"default\": pct, \"overrides\": "
                           "{name-substring: pct}}")
    comp.add_argument("--override", action="append", metavar="NAME=PCT",
                      help="per-benchmark threshold override (repeatable, "
                           "substring match, beats --thresholds)")
    comp.set_defaults(fn=cmd_compare)

    args = p.parse_args()
    args.fn(args)


if __name__ == "__main__":
    main()
