#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

Runs one workload once per seed through run.py and prints, per metric,
the median and the interquartile range as a share of the median (the
quantity BENCHMARK.json's bounds are checked against):

    python3 e2e_bench/spread.py --workload replay_14d --seeds 1-10 --seconds 20
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-5")
    ap.add_argument("--seconds", type=float, default=20)
    args = ap.parse_args()

    bench = json.load(open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")))
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values = {}
    for seed in seeds(args.seeds):
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
        res = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        if res.returncode != 0:
            print(f"seed {seed}: exit {res.returncode}", file=sys.stderr)
            return 1
        result = json.loads(res.stdout.strip().splitlines()[-1])
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + " ".join(f"{k}={v['value']:.4g}"
                                          for k, v in result["metrics"].items()), flush=True)
    worst = 0.0
    for name, vals in values.items():
        med = statistics.median(vals)
        q = statistics.quantiles(vals, n=4) if len(vals) > 1 else [vals[0]] * 3
        spread = (q[2] - q[0]) / med if med else float("inf")
        bound = bounds.get(name)
        mark = ""
        if bound is not None and name != "setup_s":
            worst = max(worst, spread / bound)
            mark = " OK" if spread < bound / 3 else (" within bound" if spread <= bound else " OVER")
        print(f"{name:32s} median {med:14.6g}  iqr/median {spread:7.4f}"
              + (f"  bound {bound}" if bound is not None else "") + mark)
    print(f"worst spread/bound (excluding setup_s): {worst:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
