#!/usr/bin/env python3
"""Builds and runs the repo benchmark (perfbench/rofl_bench.cpp).

One run of one workload, printing its metrics and, as the last line, the
result object {"correct", "attempted", "failed", "metrics"}:

    python3 perfbench/run_bench.py --workload NAME [--seed N] [--seconds S]
                                   [--trace 0|1]

A set: every workload --reps times, each run in its own process, plus one
traced run per workload with --trace.  Prints median and quartiles per
metric, checks that exact counts repeat across the set, writes one results
file and exits nonzero if any check failed:

    python3 perfbench/run_bench.py [--seed N] [--reps N] [--seconds S]
                                   [--trace] [--out FILE]

Two result files, metric by metric against the bounds in BENCHMARK.json:

    python3 perfbench/run_bench.py compare A.json B.json

The benchmark builds itself from the sources next to it into .bench_build/
at the repository root.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "rofl_bench")
SPEC = os.path.join(ROOT, "BENCHMARK.json")
DEFAULT_SEED = 2006  # bench::kSeed in rofl_bench.cpp
RUN_TIMEOUT_S = 170


def die(msg, code=2):
    print(f"run_bench: {msg}", file=sys.stderr)
    sys.exit(code)


def load_spec():
    with open(SPEC) as f:
        return json.load(f)


def build():
    """Configures (once) and builds rofl_bench; build output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die(f"no ROFL sources under {ROOT}/src; nothing to benchmark")
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)  # keep compiler temporaries in here
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "rofl_bench",
                  "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
            die("build failed: " + " ".join(cmd))


def run_once(workload, seed, seconds, trace):
    """One rofl_bench process; returns (human lines, parsed result)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"{workload}: no result within {RUN_TIMEOUT_S} s", 1)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    results = [l for l in lines if l.startswith("RESULT ")]
    if not results:
        die(f"{workload}: rofl_bench exited {proc.returncode} without a "
            "result", 1)
    return ([l for l in lines if not l.startswith("RESULT ")],
            json.loads(results[-1][len("RESULT "):]))


def check_names(result, spec):
    """The run must emit exactly the metrics BENCHMARK.json lists."""
    want = spec["per_layer" if result["trace"] else "end_to_end"]
    want = {m["name"]: m["unit"] for m in want}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        die(f"{result['workload']}: metrics differ from BENCHMARK.json: "
            f"missing {sorted(set(want) - set(got))}, "
            f"extra {sorted(set(got) - set(want))}, "
            f"units {[k for k in want if k in got and got[k] != want[k]]}", 1)


def fingerprint(build_type):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"cpu": cpu, "nproc": os.cpu_count(), "build_type": build_type}


def summarize(values):
    if len(values) >= 2:
        q1, med, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = med = q3 = values[0]
    return {"median": med, "q1": q1, "q3": q3, "values": values}


def one_run(args, spec):
    build()
    lines, result = run_once(args.workload, args.seed, args.seconds,
                             args.trace == "1")
    check_names(result, spec)
    print("\n".join(lines))
    print(json.dumps({k: result[k] for k in
                      ("correct", "attempted", "failed", "metrics")}))
    sys.exit(0 if result["correct"] else 1)


def run_set(args, spec):
    build()
    names = [w["name"] for w in spec["workloads"]]
    checks = []
    out = {"schema": "rofl-perfbench-v1", "created": time.time(),
           "seed": args.seed, "reps": args.reps, "seconds": args.seconds,
           "workloads": {}}
    build_type = None
    for w in names:
        runs = []
        for rep in range(args.reps):
            _, r = run_once(w, args.seed, args.seconds, False)
            check_names(r, spec)
            runs.append(r)
            print(f"{w} rep {rep + 1}/{args.reps}: "
                  f"{'ok' if r['correct'] else 'FAILED'}", file=sys.stderr)
        traced = None
        if args.trace:
            _, traced = run_once(w, args.seed, args.seconds, True)
            check_names(traced, spec)
        build_type = runs[0]["build_type"]
        for r in runs + ([traced] if traced else []):
            checks += [f"{w}: {e}" for e in r["errors"]]
        # Same seed, same inputs: every exact count must repeat in every
        # process of the set, the traced one included.
        exacts = [r["exact"] for r in runs + ([traced] if traced else [])]
        if any(e != exacts[0] for e in exacts):
            checks.append(f"{w}: exact counters differ between runs of one "
                          "set")
        entry = {"runs": runs, "summary": {}}
        for m in spec["end_to_end"]:
            entry["summary"][m["name"]] = dict(
                summarize([r["metrics"][m["name"]]["value"] for r in runs]),
                unit=m["unit"])
        if traced:
            entry["trace"] = traced
        out["workloads"][w] = entry
    out["fingerprint"] = fingerprint(build_type)
    out["checks"] = checks

    for w, entry in out["workloads"].items():
        print(f"\n{w}")
        for name, s in entry["summary"].items():
            print(f"  {name:<16} {s['median']:>14.6g} {s['unit']:<5} "
                  f"[q1 {s['q1']:.6g}, q3 {s['q3']:.6g}]")
        if "trace" in entry:
            for name, v in entry["trace"]["metrics"].items():
                print(f"  {name:<38} {v['value']:>14.6g} {v['unit']}")
    for c in checks:
        print(f"CHECK FAILED: {c}")
    path = args.out or os.path.join(
        BUILD, "results", time.strftime("%Y%m%d-%H%M%S") + ".json")
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w") as f:
        json.dump(out, f, indent=1)
    print(f"\nresults written to {path}")
    sys.exit(1 if checks else 0)


def verdict(a, b, bound, better):
    """worse / better / unchanged / unresolved for B against A.

    The medians decide when both quartile spreads are within the bound.
    When a spread is wider, they still decide if every B run is on the same
    side of every A run; otherwise the verdict is unresolved.
    """
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (b["median"] - a["median"]) / a["median"]
    clear = max((s["q3"] - s["q1"]) / s["median"] for s in (a, b)) <= bound
    pairs = [sign * (y - x) for x in a["values"] for y in b["values"]]
    if worse_by > bound and (clear or all(d > 0 for d in pairs)):
        return worse_by, "worse"
    if clear or all(d < 0 for d in pairs):
        return worse_by, "better" if worse_by < -bound else "unchanged"
    return worse_by, "unresolved"


def compare(paths, spec):
    a, b = (json.load(open(p)) for p in paths)
    if a["fingerprint"] != b["fingerprint"]:
        die(f"host fingerprints differ: {a['fingerprint']} vs "
            f"{b['fingerprint']}")
    worse = False
    print(f"{'workload':<14} {'metric':<14} {'A median [q1,q3]':>30} "
          f"{'B median [q1,q3]':>30} {'worse by':>8}  verdict")
    for w in a["workloads"]:
        if w not in b["workloads"]:
            continue
        for m in spec["end_to_end"]:
            sa = a["workloads"][w]["summary"][m["name"]]
            sb = b["workloads"][w]["summary"][m["name"]]
            change, v = verdict(sa, sb, m["bound"], m["better"])
            worse = worse or v == "worse"

            def cell(s):
                return f"{s['median']:.4g} [{s['q1']:.4g},{s['q3']:.4g}]"
            print(f"{w:<14} {m['name']:<14} {cell(sa):>30} {cell(sb):>30} "
                  f"{change:>+8.1%}  {v}")
    sys.exit(1 if worse else 0)


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "compare":
        p = argparse.ArgumentParser(prog="run_bench.py compare")
        p.add_argument("files", nargs=2)
        compare(p.parse_args(sys.argv[2:]).files, load_spec())
        return
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", nargs="?", const="1", default="0",
                   choices=["0", "1"])
    p.add_argument("--reps", type=int, default=5)
    p.add_argument("--out")
    args = p.parse_args()
    if not os.path.isfile(SPEC):
        die(f"missing {SPEC}")
    spec = load_spec()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.workload:
        one_run(args, spec)
    else:
        run_set(args, spec)


if __name__ == "__main__":
    main()
