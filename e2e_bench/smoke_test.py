#!/usr/bin/env python3
"""The benchmark's own tests: every workload at tiny scale, untraced and
traced. Each run must pass the batch oracle, stamp its environment, and
emit every metric BENCHMARK.json names, with that metric's unit.

    python3 e2e_bench/smoke_test.py
"""
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = json.load(open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")))
ENV_KEYS = {"workload", "seed", "nproc", "simd", "pmu_tier", "report_lag_samples",
            "dash_samples"}


def run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke"]
    res = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                         timeout=900)
    lines = res.stdout.strip().splitlines()
    if res.returncode != 0 or len(lines) < 2:
        return [f"exit {res.returncode}: {res.stderr[-2000:]}"]
    errors = []
    env = json.loads(lines[-2]).get("env", {})
    missing_env = ENV_KEYS - env.keys()
    if missing_env:
        errors.append(f"environment stamp lacks {sorted(missing_env)}")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        errors.append(f"oracle: correct={result.get('correct')} failed={result.get('failed')}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        errors.append(f"attempted={result.get('attempted')}")
    wanted = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    got = result.get("metrics", {})
    for spec in wanted:
        m = got.get(spec["name"])
        if m is None:
            errors.append(f"metric {spec['name']} missing")
        elif m.get("unit") != spec["unit"] or not isinstance(m.get("value"), (int, float)):
            errors.append(f"metric {spec['name']}: {m} (want unit {spec['unit']})")
    extra = set(got) - {spec["name"] for spec in wanted}
    if extra:
        errors.append(f"metrics not in BENCHMARK.json: {sorted(extra)}")
    if trace and got.get("bench.spans_dropped", {}).get("value") != 0:
        errors.append("traced run dropped spans")
    return errors


def check_manifest():
    """Shape limits of BENCHMARK.json itself."""
    errors = []
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(BENCH) != keys:
        errors.append(f"BENCHMARK.json keys {sorted(BENCH)}")
    name_re = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit_re = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    names = set()
    for group, keyset in (("workloads", {"name", "why"}),
                          ("end_to_end", {"name", "unit", "better", "bound"}),
                          ("per_layer", {"name", "unit", "better"})):
        for item in BENCH.get(group, []):
            if set(item) != keyset:
                errors.append(f"{group} entry keys {sorted(item)}")
            name = item.get("name", "")
            if not name_re.match(name) or name in names:
                errors.append(f"bad or repeated name {name!r}")
            names.add(name)
            if "unit" in keyset and not unit_re.match(item.get("unit", "")):
                errors.append(f"{name}: bad unit {item.get('unit')!r}")
            if "why" in item and (len(item["why"]) > 200 or "\n" in item["why"]):
                errors.append(f"{name}: why longer than 200 characters")
            if "bound" in item and not 0 < item["bound"] <= 0.25:
                errors.append(f"{name}: bound {item['bound']} out of (0, 0.25]")
    if not 2 <= len(BENCH["workloads"]) <= 8:
        errors.append("need 2 to 8 workloads")
    if not any(m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower"
               for m in BENCH["end_to_end"]):
        errors.append("end_to_end lacks setup_s")
    if len(json.dumps(BENCH)) > 64 * 1024:
        errors.append("BENCHMARK.json larger than 64 KiB")
    return errors


def main():
    failures = 0
    errors = check_manifest()
    print(f"BENCHMARK.json: {'ok' if not errors else 'FAIL'}")
    for e in errors:
        print(f"  {e}")
    failures += bool(errors)
    for w in BENCH["workloads"]:
        for trace in (0, 1):
            errors = run(w["name"], trace)
            status = "ok" if not errors else "FAIL"
            print(f"{w['name']} trace={trace}: {status}", flush=True)
            for e in errors:
                print(f"  {e}")
            failures += bool(errors)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
