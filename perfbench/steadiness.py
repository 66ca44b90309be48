#!/usr/bin/env python3
"""Steadiness report for the serving benchmark.

Runs every workload of BENCHMARK.json N times, seeds 1..N, each in a
fresh process, and prints every metric's median, quartiles, min/max, the
spread (quartile distance over median) next to the bound recorded for it
in BENCHMARK.json, and its value for each seed in run order, with the
share of CPU time the host stole during each run, the windows its
figures were taken over and its CPU time per request in µs. Run from the
repository root:

    python3 perfbench/steadiness.py --runs 10
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(command, workload, seed, seconds):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        sys.stderr.write(done.stdout + done.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit code {done.returncode}")
    lines = done.stdout.strip().splitlines()
    audit = dict(kv.split("=", 1) for line in lines if line.startswith("audit ")
                 for kv in line.split()[1:] if "=" in kv)
    host = (f"{audit.get('steal_share', '?')}({audit.get('windows_used', '?')})"
            f" cpu_us={float(audit.get('cpu_us_per_request_p50', 'nan')):.2f}")
    return json.loads(lines[-1]), host


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    worst = {}
    for workload in (w["name"] for w in bench["workloads"]):
        values = {}
        hosts = []
        for seed in range(1, args.runs + 1):
            result, host = run_once(bench["command"], workload, seed,
                                    bench["run_seconds"])
            hosts.append(host)
            if not result["correct"] or result["failed"]:
                raise SystemExit(f"{workload} seed {seed}: {result}")
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"== {workload}: {args.runs} runs, seeds 1..{args.runs}")
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(name)
            verdict = ""
            if bound is not None:
                verdict = f"bound {bound:.3f}" + (" OVER" if spread > bound else "")
                worst[f"{workload}/{name}"] = spread / bound
            print(f"  {name:32s} median {med:12.4f}  q1 {q1:12.4f}  q3 {q3:12.4f}"
                  f"  min {min(vals):12.4f}  max {max(vals):12.4f}"
                  f"  spread {spread:.4f}  {verdict}")
            print(f"  {'':32s} by seed: " + " ".join(f"{v:.4g}" for v in vals))
        print(f"  {'steal (windows), raw CPU':32s} by seed: " + " ".join(hosts))
    if worst:
        key = max(worst, key=worst.get)
        print(f"largest spread/bound: {key} {worst[key]:.3f}")


if __name__ == "__main__":
    main()
