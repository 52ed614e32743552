#!/usr/bin/env python3
"""Drive the built benchmark binary: run all workloads, validate its output
against BENCHMARK.json (`check`), collect seeds (`sweep`), and compare two
sweeps (`compare`). `run.sh` builds first and calls this; see its header.

Spread is measured the way the A/A criterion states it: the distance between
the first and third quartile of a metric's values over the seeds, as
`statistics.quantiles(values, n=4)` gives them, as a share of their median.
"""

import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# Workloads whose latencies and failures are simulated: exact for a seed.
SIMULATED = {"sim-steady", "sim-mega-fleet", "cluster-faults-recorded"}


def run(bench, workload, seed, seconds, trace, quiet=False):
    """One workload in a fresh process; returns the parsed result line."""
    cmd = [bench, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    if not quiet:
        print("\n".join(lines[:-1]))
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited with {proc.returncode}")
    return json.loads(lines[-1])


def flag(args, name, default):
    return args[args.index(name) + 1] if name in args else default


def cmd_all(bench, args):
    seed = int(flag(args, "--seed", 1))
    seconds = int(flag(args, "--seconds", SPEC["run_seconds"]))
    traces = [0, 1] if "--traced" in args else [0]
    failed = []
    for workload in WORKLOADS:
        for trace in traces:
            result = run(bench, workload, seed, seconds, trace)
            if not result["correct"] or result["failed"]:
                failed.append(f"{workload} (trace {trace})")
    if failed:
        sys.exit("output checks failed: " + ", ".join(failed))
    print(f"all {len(WORKLOADS)} workloads ran clean; results under benchmark/out/")


def cmd_check(bench):
    """Every workload at 1/10 scale in both trace modes: names, units and
    counts exactly as BENCHMARK.json lists them, every check passing, and
    simulated metrics identical when a seed is repeated."""
    problems = []
    for workload in WORKLOADS:
        untraced = None
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            result = run(bench, workload, 1, 1, trace, quiet=True)
            want = {m["name"]: m["unit"] for m in SPEC[section]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            where = f"{workload} --trace {trace}"
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{where}: result keys {sorted(result)}")
            if got != want:
                odd = sorted(set(got.items()) ^ set(want.items()))
                problems.append(f"{where}: metrics differ from BENCHMARK.json: {odd}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{where}: correct={result['correct']} failed={result['failed']}")
            if trace == 0:
                untraced = result
                zero = [k for k, v in result["metrics"].items() if v["value"] == 0]
                if zero:
                    problems.append(f"{where}: end-to-end metrics read 0: {zero}")
            print(f"checked {where}: {len(got)} metrics", flush=True)
        if workload in SIMULATED:
            again = run(bench, workload, 1, 1, 0, quiet=True)
            for name in ("op_p50_ms", "op_p99_ms", "ok_frac"):
                a, b = (r["metrics"][name]["value"] for r in (untraced, again))
                if a != b:
                    problems.append(f"{workload}: {name} not exact for a seed: {a} vs {b}")
            print(f"checked {workload}: simulated metrics repeat exactly for a seed", flush=True)
    if problems:
        sys.exit("check FAILED:\n  " + "\n  ".join(problems))
    print("check ok")


def cmd_sweep(bench, args):
    out = os.path.abspath(args[0])
    seeds = [int(s) for s in flag(args, "--seeds", "1 2 3 4 5 6 7 8 9 10").split()]
    workloads = flag(args, "--workloads", " ".join(WORKLOADS)).split()
    trace = int(flag(args, "--trace", 0))
    os.makedirs(os.path.join(out, "full"), exist_ok=True)
    for workload in workloads:
        for seed in seeds:
            result = run(bench, workload, seed, SPEC["run_seconds"], trace, quiet=True)
            with open(os.path.join(out, f"{workload}.seed{seed}.json"), "w") as f:
                json.dump(result, f)
            # The full result (per-unit numbers, provenance) beside it.
            full = os.path.join(ROOT, "benchmark", "out", f"{workload}.{'traced.' if trace else ''}json")
            os.replace(full, os.path.join(out, "full", f"{workload}.seed{seed}.json"))
            flat = " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()) if trace == 0 else ""
            print(f"{workload} seed {seed}: correct={result['correct']} failed={result['failed']} {flat}",
                  flush=True)
    print(f"sweep written to {out}")


def load_sweep(directory):
    """{workload: {metric: [values over seeds]}} plus the runs not clean."""
    values, unclean = {}, []
    for name in sorted(os.listdir(directory)):
        if not name.endswith(".json"):
            continue
        workload = name.split(".seed")[0]
        result = json.load(open(os.path.join(directory, name)))
        if not result["correct"] or result["failed"]:
            unclean.append(name)
        for metric, v in result["metrics"].items():
            values.setdefault(workload, {}).setdefault(metric, []).append(v["value"])
    return values, unclean


def spread(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / abs(med) if med else 0.0


def cmd_compare(args):
    """A is the parent (or first) sweep, B the change (or second)."""
    a, unclean_a = load_sweep(args[0])
    b, unclean_b = load_sweep(args[1])
    bad = False
    print(f"{'workload':<24} {'metric':<16} {'median A':>13} {'median B':>13} {'B vs A':>8} "
          f"{'bound':>6} {'spread A':>8} {'spread B':>8}  verdict")
    for workload in WORKLOADS:
        for m in SPEC["end_to_end"]:
            name, bound = m["name"], m["bound"]
            va, vb = a.get(workload, {}).get(name), b.get(workload, {}).get(name)
            if not va or not vb:
                continue
            ma, mb = statistics.median(va), statistics.median(vb)
            worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
            sa, sb = spread(va), spread(vb)
            if name != "setup_s" and max(sa, sb) > bound:
                verdict, bad = "unresolved (spread > bound)", True
            elif worse > bound:
                verdict, bad = "REGRESSION", True
            else:
                verdict = "within bound"
            print(f"{workload:<24} {name:<16} {ma:>13.6g} {mb:>13.6g} {worse:>+8.2%} "
                  f"{bound:>6.0%} {sa:>8.2%} {sb:>8.2%}  {verdict}")
    for name in unclean_a + unclean_b:
        print(f"not clean (a check failed or an operation failed): {name}")
        bad = True
    if bad:
        sys.exit("compare: at least one row is a regression, unresolved, or unclean")
    print("compare ok: every (metric, workload) within its bound, no unresolved row")


def main():
    mode, rest = sys.argv[1], sys.argv[2:]
    if mode == "all":
        cmd_all(rest[0], rest[1:])
    elif mode == "check":
        cmd_check(rest[0])
    elif mode == "sweep":
        cmd_sweep(rest[0], rest[1:])
    elif mode == "compare":
        cmd_compare(rest)
    else:
        sys.exit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    main()
