#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

Run from the repository root:

    python3 perfbench/spread.py --workload open-mixed --seeds 1-5 [--trace 0] [--out FILE]

Each seed is one `perfbench/run.py` run of BENCHMARK.json's `run_seconds`.
For every metric it prints the median, the quartiles (Python's
`statistics.quantiles(values, n=4)`) and the spread, the distance between
the quartiles as a share of the median, next to the metric's bound. With
`--out` it also writes the values, the statistics and each run's stamp
(host, toolchain, commit, digest) as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds_of(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    metrics = spec["per_layer" if args.trace else "end_to_end"]
    values = {m["name"]: [] for m in metrics}
    runs = []
    for seed in seeds_of(args.seeds):
        cmd = [*spec["command"], "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            sys.stderr.write(done.stderr)
            print(f"seed {seed}: run failed (exit {done.returncode})")
            return 1
        result = json.loads(lines[-1])
        stamp = json.loads(lines[-2])["stamp"] if len(lines) > 1 else None
        runs.append({"seed": seed, "result": result, "stamp": stamp})
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: " + ", ".join(f"{k}={v[-1]:.6g}" for k, v in values.items()),
              flush=True)

    summary = {}
    print(f"\n{'metric':<34} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for m in metrics:
        vals = values[m["name"]]
        q1, med, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else vals * 3
        spread = (q3 - q1) / med if med else 0.0
        summary[m["name"]] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                              "min": min(vals), "max": max(vals), "n": len(vals)}
        bound = m.get("bound", "")
        print(f"{m['name']:<34} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {spread:>8.4f} {bound:>6}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"workload": args.workload, "trace": args.trace,
                       "run_seconds": spec["run_seconds"], "summary": summary,
                       "values": values, "runs": runs}, f, indent=1)
            f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
