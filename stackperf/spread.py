#!/usr/bin/env python3
"""Runs the benchmark on several seeds and prints each metric's median and
quartile spread (the distance between the first and third quartile as a
share of the median), next to a third of the metric's bound.

    python3 stackperf/spread.py [--seeds 1,2,3] [--workloads a,b] [--trace 0|1]

Run it from the repository root; it uses BENCHMARK.json's command and
run_seconds.
"""
import argparse
import json
import statistics
import subprocess
import sys
import time


def main():
    bench = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--trace", default="0")
    ap.add_argument("--seconds", default=str(bench["run_seconds"]))
    args = ap.parse_args()
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    for workload in args.workloads.split(","):
        values = {}
        for seed in args.seeds.split(","):
            cmd = bench["command"] + ["--workload", workload, "--seed", seed,
                                      "--seconds", args.seconds, "--trace", args.trace]
            start = time.monotonic()
            out = subprocess.run(cmd, capture_output=True, text=True)
            took = time.monotonic() - start
            if out.returncode != 0:
                sys.exit(f"{workload} seed {seed} failed:\n{out.stdout}{out.stderr}")
            result = json.loads(out.stdout.strip().splitlines()[-1])
            assert result["correct"] and result["failed"] == 0, result
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed} ({took:.1f} s): " + " ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
        for name, vs in values.items():
            med = statistics.median(vs)
            q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            b = bounds.get(name)
            limit = f"{b / 3:.3f}" if b else "-"
            print(f"{workload:12} {name:36} median {med:12.4f} spread {spread:.3f} (bound/3 {limit})")


if __name__ == "__main__":
    main()
