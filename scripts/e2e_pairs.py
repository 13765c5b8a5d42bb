#!/usr/bin/env python3
"""Alternating parent/change pairs of the end-to-end benchmark.

Builds a base commit (default HEAD) from `git archive` under a work
directory, then runs the base tree's e2e_bench/run.py and this working
tree's in alternating order — base first on even pairs, change first on
odd ones — once per workload and pair, each pair on a fresh seed. Prints
per metric the median [q1, q3] of both sides and how many pairs the
change won (by each metric's "better" direction in BENCHMARK.json), and
the failed operations of every run:

    python3 scripts/e2e_pairs.py --pairs 10 --seconds 20
    python3 scripts/e2e_pairs.py --base HEAD~1 --workloads replay_14d --pairs 5

The base checkout and its benchmark build are reused by later runs with
the same --workdir (default .bench_build/pairs) and base commit.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def checkout(base, workdir):
    """The base commit's tree under workdir, extracted once per commit."""
    rev = subprocess.run(["git", "-C", ROOT, "rev-parse", base], check=True,
                         stdout=subprocess.PIPE, text=True).stdout.strip()
    tree = os.path.join(workdir, rev[:12])
    if not os.path.isdir(os.path.join(tree, "e2e_bench")):
        shutil.rmtree(tree, ignore_errors=True)
        os.makedirs(tree)
        archive = subprocess.Popen(["git", "-C", ROOT, "archive", rev], stdout=subprocess.PIPE)
        subprocess.run(["tar", "-x", "-C", tree], stdin=archive.stdout, check=True)
        if archive.wait() != 0:
            sys.exit(f"e2e_pairs: git archive {base} failed")
    return rev, tree


def run(tree, workload, seed, seconds):
    """One run.py result ({correct, attempted, failed, metrics}), or None."""
    cmd = [sys.executable, os.path.join(tree, "e2e_bench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    res = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    if res.returncode != 0 or not res.stdout.strip():
        print(f"  {tree}: {workload} seed {seed}: exit {res.returncode}", file=sys.stderr)
        return None
    return json.loads(res.stdout.strip().splitlines()[-1])


def quartiles(vals):
    if len(vals) < 2:
        return vals[0], vals[0], vals[0]
    q1, med, q3 = statistics.quantiles(vals, n=4)
    return med, q1, q3


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", default="HEAD", help="commit to compare against")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--seed", type=int, default=1001, help="first pair's seed")
    ap.add_argument("--workloads", default="", help="comma-separated (default: all)")
    ap.add_argument("--workdir", default=os.path.join(ROOT, ".bench_build", "pairs"))
    args = ap.parse_args()

    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    workloads = [w for w in args.workloads.split(",") if w] or \
        [w["name"] for w in bench["workloads"]]
    rev, base_tree = checkout(args.base, os.path.abspath(args.workdir))
    print(f"base {args.base} ({rev[:12]}) vs working tree, {args.pairs} pairs", flush=True)

    sides = {"base": base_tree, "change": ROOT}
    for workload in workloads:
        values = {"base": {}, "change": {}}
        failed = {"base": [], "change": []}
        wins = {}
        for k in range(args.pairs):
            seed = args.seed + k
            order = ["base", "change"] if k % 2 == 0 else ["change", "base"]
            got = {side: run(sides[side], workload, seed, args.seconds) for side in order}
            if None in got.values():
                return 1
            for side, result in got.items():
                failed[side].append(result["failed"])
                for name, m in result["metrics"].items():
                    values[side].setdefault(name, []).append(m["value"])
            for name, direction in better.items():
                b = got["base"]["metrics"][name]["value"]
                c = got["change"]["metrics"][name]["value"]
                wins[name] = wins.get(name, 0) + (c < b if direction == "lower" else c > b)
            print(f"  {workload} pair {k + 1}/{args.pairs} (seed {seed}): " +
                  " ".join(f"{n}={got['base']['metrics'][n]['value']:.4g}"
                           f"->{got['change']['metrics'][n]['value']:.4g}" for n in better),
                  flush=True)
        print(f"== {workload}: median [q1, q3], base -> change; change wins of {args.pairs}")
        for name in values["base"]:
            bm, bq1, bq3 = quartiles(values["base"][name])
            cm, cq1, cq3 = quartiles(values["change"].get(name, [float("nan")]))
            tail = f"  wins {wins[name]}/{args.pairs}" if name in wins else ""
            print(f"  {name:40s} {bm:11.5g} [{bq1:.5g}, {bq3:.5g}] -> "
                  f"{cm:11.5g} [{cq1:.5g}, {cq3:.5g}]{tail}")
        print(f"  failed: base {sum(failed['base'])}, change {sum(failed['change'])}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
