#!/usr/bin/env python3
"""End-to-end stream replay benchmark launcher.

Builds the benchmark program (e2e_replay.cpp) and the v6class libraries
it links from the repository's sources, then runs one workload:

    python3 e2e_bench/run.py --workload replay_14d --seed 7 --seconds 30 --trace 0

The build lives in .bench_build/e2e_bench under the repository root and
is reused by later runs. The program's last stdout line is the result
JSON ({correct, attempted, failed, metrics}); build output and progress
go to stderr. Exits non-zero, without a result line, when the build
fails, the oracle finds a mismatch, or the run exceeds its time limit.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "e2e_bench")
BINARY = os.path.join(BUILD, "e2e_replay")
RUN_TIMEOUT_S = 170


def build():
    """Configures once, then builds incrementally; returns success."""
    for needed in ("src", "include"):
        if not os.path.isdir(os.path.join(ROOT, needed)):
            print(f"run.py: {needed}/ not found next to e2e_bench/", file=sys.stderr)
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD])
    steps.append(["cmake", "--build", BUILD, "--target", "e2e_replay", "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            print("run.py: build failed: " + " ".join(cmd), file=sys.stderr)
            return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny-scale inputs (the benchmark's own tests)")
    args = ap.parse_args()

    if not build():
        return 2
    workdir = os.path.join(ROOT, ".bench_build", f"work-{os.getpid()}")
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir]
    if args.trace:
        traces = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, f"{args.workload}-seed{args.seed}.json")]
    if args.smoke:
        cmd.append("--smoke")
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print(f"run.py: timed out after {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        # Keep diagnostics, never a result line, on failure.
        sys.stderr.write(out)
        return proc.returncode
    sys.stdout.write(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
