#!/usr/bin/env python3
"""Measure how steady the benchmark is across seeds.

Runs the command of BENCHMARK.json once per (workload, seed) untraced and
once per workload traced, then reports for every end-to-end metric the
quartiles of its per-run values and their spread (q3 - q1) / median, as
`statistics.quantiles(values, n=4)` gives them, beside a third of the
metric's bound. With --record it appends this set of runs to a JSON
record (every set ever appended stays there) and prints how far each
median moved from the record's previous set, against the metric's bound:
the check a second set of runs of the same code must pass.

Run from the repository root:

    python3 perfbench/steadiness.py --seeds 1-10 --record perfbench/STEADINESS.json
    python3 perfbench/steadiness.py --workloads dist-uds-3d24p8 --seeds 1-5
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(command, workload, seed, seconds, trace):
    args = command + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "1" if trace else "0",
    ]
    started = time.monotonic()
    proc = subprocess.run(args, capture_output=True, text=True, check=False)
    wall = time.monotonic() - started
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: {result}")
    return result, wall


def summarise(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"q1": q1, "median": q2, "q3": q3, "spread": (q3 - q1) / q2}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", help="comma-separated subset (default: all)")
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--record", help="append this set to the JSON record here")
    ap.add_argument("--note", default="", help="what this set measured, kept in the record")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    os.environ.setdefault("CARGO_TARGET_DIR", ".bench_build")
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")
    seeds = parse_seeds(args.seeds)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    record = {"sets": []}
    if args.record and os.path.exists(args.record):
        with open(args.record) as f:
            record = json.load(f)
    previous = record["sets"][-1]["workloads"] if record["sets"] else {}
    this_set = {
        "note": args.note,
        "run_seconds": seconds,
        "seeds": seeds,
        "host": {"cpus": os.cpu_count(), "date": time.strftime("%Y-%m-%d %H:%M UTC", time.gmtime())},
        "workloads": {},
    }
    for name in names:
        per_metric = {m: [] for m in bounds}
        walls = []
        for seed in seeds:
            result, wall = run_once(bench["command"], name, seed, seconds, False)
            walls.append(wall)
            for m in bounds:
                per_metric[m].append(result["metrics"][m]["value"])
            print(f"{name} seed {seed}: " + ", ".join(
                f"{m}={result['metrics'][m]['value']:.4g}" for m in bounds), flush=True)
        entry = {"run_wall_s": summarise(walls), "end_to_end": {}}
        for m, values in per_metric.items():
            s = summarise(values)
            s["bound"] = bounds[m]
            s["values"] = values
            entry["end_to_end"][m] = s
            flag = "ok" if m == "setup_s" or s["spread"] < bounds[m] / 3 else "WIDE"
            print(f"  {m:20s} median {s['median']:.5g}  spread {s['spread']:.4f}"
                  f"  (bound/3 {bounds[m] / 3:.4f}) {flag}")
            if name in previous:
                old = previous[name]["end_to_end"][m]["median"]
                worse = (s["median"] - old) / old
                if better[m] == "higher":
                    worse = -worse
                verdict = "ok" if worse <= bounds[m] else "WORSE THAN BOUND"
                print(f"  {'':20s} vs previous set {old:.5g}: {worse:+.4f} worse {verdict}")
        traced, wall = run_once(bench["command"], name, seeds[0], seconds, True)
        tm = traced["metrics"]
        entry["traced_seed"] = seeds[0]
        entry["traced_run_wall_s"] = wall
        # Work per request and its per-request spread: 0 while the
        # workload repeats its work exactly.
        entry["solves_per_rhs"] = tm["core.solves_per_rhs"]["value"]
        entry["solves_iqr_frac"] = tm["core.solves_iqr_frac"]["value"]
        entry["rounds_per_rhs"] = tm["net.rounds_per_rhs"]["value"]
        print(f"  traced: solves_per_rhs {entry['solves_per_rhs']}, "
              f"solves_iqr_frac {entry['solves_iqr_frac']:.4f}, wall {wall:.1f} s", flush=True)
        this_set["workloads"][name] = entry

    this_set["host"]["finished"] = time.strftime("%Y-%m-%d %H:%M UTC", time.gmtime())
    if args.record:
        record["sets"].append(this_set)
        with open(args.record, "w") as f:
            json.dump(record, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
