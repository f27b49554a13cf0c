#!/usr/bin/env python3
"""Runs the benchmark on one workload over several seeds and reports, per
end-to-end metric, the median and the spread between runs: the distance
between the first and third quartiles as a share of the median, next to the
metric's bound from BENCHMARK.json. Run from the repository root:

    python3 _perfbench/spread.py --workload cold-solve --seeds 1-10

A second seed range (--against 11-20) is checked the way a later change is
judged: its median may not be worse than the first range's by more than the
bound.
"""
import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload, seed, seconds):
    out = subprocess.run(
        ["bash", "_perfbench/run.sh", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        check=True, capture_output=True, text=True).stdout
    fp = next((l.split()[0] for l in out.splitlines() if l.startswith("results_fp=")), "?")
    res = json.loads(out.strip().splitlines()[-1])
    if not res["correct"]:
        sys.exit(f"seed {seed}: run not correct:\n{out}")
    return {k: v["value"] for k, v in res["metrics"].items()}, fp


def collect(workload, seed_list, seconds):
    runs = []
    for s in seed_list:
        m, fp = run(workload, s, seconds)
        runs.append(m)
        print(f"seed {s}: {fp} " + " ".join(f"{k}={v:.4g}" for k, v in sorted(m.items())), flush=True)
    return runs


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--against", help="second seed range compared by median")
    ap.add_argument("--seconds", type=int)
    args = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    seconds = args.seconds or bench["run_seconds"]
    first = collect(args.workload, seeds(args.seeds), seconds)
    second = collect(args.workload, seeds(args.against), seconds) if args.against else None
    ok = True
    for m in bench["end_to_end"]:
        name, bound = m["name"], m["bound"]
        vals = [r[name] for r in first]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med
        line = f"{name:18s} median {med:10.4g} spread {spread:6.3f} bound {bound:5.2f}"
        if name != "setup_s" and spread > bound:
            ok = False
            line += "  SPREAD OVER BOUND"
        if second:
            med2 = statistics.median(r[name] for r in second)
            worse = (med2 - med) / med if m["better"] == "lower" else (med - med2) / med
            line += f"  second median {med2:10.4g} ({worse:+.3f} worse)"
            if worse > bound:
                ok = False
                line += "  OVER BOUND"
        print(line)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
