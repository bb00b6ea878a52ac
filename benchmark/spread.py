#!/usr/bin/env python3
"""Run-to-run spread of every end-to-end metric, as the driver computes it.

Runs the command of BENCHMARK.json N times per workload, each time with
another seed, and prints for each metric the median and the distance
between the first and third quartile as a share of the median, beside the
metric's bound. Run from the root of the repo:

    python3 benchmark/spread.py [--runs 10] [--first-seed 1] [--workload NAME]
"""
import argparse
import json
import statistics
import subprocess

ap = argparse.ArgumentParser()
ap.add_argument("--runs", type=int, default=10)
ap.add_argument("--first-seed", type=int, default=1)
ap.add_argument("--workload", action="append")
args = ap.parse_args()

manifest = json.load(open("BENCHMARK.json"))
bounds = {m["name"]: m["bound"] for m in manifest["end_to_end"]}
for workload in args.workload or [w["name"] for w in manifest["workloads"]]:
    values = {name: [] for name in bounds}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = manifest["command"] + [
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(manifest["run_seconds"]), "--trace", "0",
        ]
        out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
        result = json.loads(out.strip().splitlines()[-1])
        assert result["correct"] and result["failed"] == 0, result
        for name in bounds:
            values[name].append(result["metrics"][name]["value"])
    for name, v in values.items():
        q1, median, q3 = statistics.quantiles(v, n=4)
        spread = (q3 - q1) / median
        flag = "" if spread <= bounds[name] / 3 or name == "setup_s" else "  <-- above a third of the bound"
        print(f"{workload:18} {name:13} median {median:<12.6g} spread {spread:.4f} bound {bounds[name]}{flag}", flush=True)
        print(f"{'':18} {'':13} values {' '.join(f'{x:.5g}' for x in v)}", flush=True)
