#!/usr/bin/env python3
"""Repeat the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py [--out FILE]

It runs every workload once per seed 1..10.  For every end-to-end metric it
prints the median of the runs and the quartile distance as a share of the
median, next to the metric's bound from BENCHMARK.json.  With --out it also
makes one traced run per workload and writes medians, spreads, per-layer
values and each run's provenance to FILE as a BENCH trajectory entry.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

from run import ROOT, WORKLOADS

SEEDS = range(1, 11)


def bench(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    got = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                          "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                         cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = got.stdout.strip().splitlines()
    if got.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{workload} seed {seed}: exit {got.returncode}\n{got.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect result\n{got.stderr}")
    return result, json.loads(lines[-2])["provenance"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    entry = {"run_seconds": spec["run_seconds"], "runs": len(SEEDS), "workloads": {}}
    worst = 0.0
    for name in WORKLOADS:
        values = {m: [] for m in bounds}
        raw_wall, provs = [], []
        for seed in SEEDS:
            result, prov = bench(name, seed, spec["run_seconds"], 0)
            for m in bounds:
                values[m].append(result["metrics"][m]["value"])
            raw_wall.append(prov["samples"]["wall_s"])
            provs.append(prov)
            print(f"{name} seed {seed}: " + " ".join(
                f"{m}={v[-1]:.4g}" for m, v in values.items()), flush=True)
        summary = {}
        for m, xs in values.items():
            q1, med, q3 = statistics.quantiles(xs, n=4)
            spread = (q3 - q1) / med
            summary[m] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                          "bound": bounds[m], "values": xs}
            if m != "setup_s":
                worst = max(worst, spread / bounds[m])
            print(f"  {m}: median {med:.6g}  spread {spread:.4f}  bound {bounds[m]}"
                  f"  ({spread / bounds[m]:.2f} of it)", flush=True)
        q1, med, q3 = statistics.quantiles(raw_wall, n=4)
        print(f"  (unnormalised wall_s: median {med:.6g}  spread {(q3 - q1) / med:.4f})")
        entry["workloads"][name] = {"end_to_end": summary, "wall_s": raw_wall,
                                    "provenance": provs}
        if args.out:
            traced, prov = bench(name, SEEDS[0], spec["run_seconds"], 1)
            entry["workloads"][name]["per_layer"] = {
                m: v["value"] for m, v in traced["metrics"].items()}
            entry["workloads"][name]["traced_provenance"] = prov
    print(f"largest spread as a share of its bound (setup_s excluded): {worst:.2f}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(entry, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
