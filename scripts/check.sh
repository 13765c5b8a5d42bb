#!/usr/bin/env bash
# check.sh — the full local gate: build + ctest under every preset.
#
#   scripts/check.sh            default + asan + tsan
#   scripts/check.sh default    one preset
#   FAST=1 scripts/check.sh     exclude slow-labeled tests everywhere
#
# The default preset runs the whole suite including the slow-labeled
# statistical accuracy tests (10^6-element sketch bounds); the
# sanitizer presets always exclude them (-LE slow) — under ASan/TSan
# they take minutes and bound floating-point estimator error, not
# memory or ordering behaviour, so they buy nothing there.
set -euo pipefail
cd "$(dirname "$0")/.."

presets=("$@")
[ ${#presets[@]} -eq 0 ] && presets=(default asan tsan)

jobs=$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)

for preset in "${presets[@]}"; do
    echo "=== preset: ${preset} ==="
    cmake --preset "${preset}"
    cmake --build --preset "${preset}" -j "${jobs}"
    label_args=()
    if [ "${preset}" != default ] || [ -n "${FAST:-}" ]; then
        label_args=(-LE slow)
    fi
    ctest --preset "${preset}" -j "${jobs}" "${label_args[@]}"

    if [ "${preset}" = default ]; then
        # Forced-scalar sweep: the same engine/wire/store tests must pass
        # with the SIMD dispatch pinned to the portable level — the
        # differential suite proves the kernels bit-identical, this
        # proves the consumers behave identically end to end.
        echo "=== forced-scalar: ctest under V6CLASS_FORCE_SCALAR=1 ==="
        V6CLASS_FORCE_SCALAR=1 ctest --preset default -j "${jobs}" \
            -R "Simd|Stream|Wire|Collector|ObservationStore|Trie|Mra"

        # Kill-switch sweep: the whole suite (minus the slow statistical
        # tests, which never touch counters) must behave identically
        # with the PMU probe forced off — spans skip counting, /pmu and the
        # export degrade to mode+reason, nothing else notices.
        echo "=== pmu kill switch: ctest under V6CLASS_DISABLE_PMU=1 ==="
        V6CLASS_DISABLE_PMU=1 ctest --preset default -j "${jobs}" -LE slow

        # Bench gates: every microbenchmark must still run, the registry
        # reporter must still emit the machine-readable dump, and no
        # benchmark may run >25% slower than the committed baseline.
        # The gate compares the per-benchmark minimum across fresh runs
        # (noise only adds time); starting from two runs, up to two more
        # repetitions are folded in before the gate is allowed to fail,
        # since the first runs land right after a parallel ctest and can
        # be scheduler-noisy. On a pass the min-merged result replaces
        # the baseline so drift shows up as a diff.
        # (This google-benchmark takes a plain double, not "0.01s".)
        bench_gate() {
            local name=$1 bin=$2 run runs=()
            echo "=== bench gate: $(basename "${bin}") vs BENCH_${name}.json ==="
            for run in 1 2 3 4 5 6; do
                # Let the post-ctest scheduler churn settle before timing;
                # memory-bound benches see neighbors for minutes on this box.
                sleep 2
                "${bin}" --benchmark_min_time=0.01 \
                    --metrics-out="BENCH_${name}.fresh${run}.json"
                test -s "BENCH_${name}.fresh${run}.json"
                runs+=("BENCH_${name}.fresh${run}.json")
                [ "${run}" -lt 2 ] && continue
                if python3 scripts/bench_gate.py "BENCH_${name}.json" \
                    "${runs[@]}" --threshold=1.25 \
                    --merge-out="BENCH_${name}.merged.json"; then
                    mv "BENCH_${name}.merged.json" "BENCH_${name}.json"
                    rm -f "BENCH_${name}".fresh*.json
                    return 0
                fi
                echo "bench gate: noisy run, folding in another repetition"
            done
            rm -f "BENCH_${name}".fresh*.json "BENCH_${name}.merged.json"
            return 1
        }
        # Every committed BENCH_*.json baseline gates its benchmark; the
        # binary is resolved by which bench source names that baseline
        # dump, so adding a gated benchmark is: write bench/micro_X.cpp
        # mentioning BENCH_X.json, run it once, commit the baseline.
        # Tracked baselines only: ad-hoc bench runs can drop stray
        # BENCH_*.json dumps in the work tree, and those have no
        # committed numbers to gate against.
        for baseline in $(git ls-files 'BENCH_*.json'); do
            name=${baseline#BENCH_}
            name=${name%.json}
            src=$(grep -l "BENCH_${name}\\.json" bench/*.cpp || true)
            if [ -z "${src}" ] || [ "$(printf '%s\n' "${src}" | wc -l)" -ne 1 ]; then
                echo "bench gate: ${baseline} maps to [${src}]," \
                     "want exactly one bench source" >&2
                exit 1
            fi
            bench_gate "${name}" "./build/bench/$(basename "${src}" .cpp)"
        done
        # bench_gate self-test: the IPC gate must actually fail on a
        # synthetic >25% IPC drop (fresh time unchanged), and must pass
        # the same dump against itself. Runs everywhere — it needs no
        # PMU, only the script's own arithmetic.
        echo "=== bench gate self-test: synthetic IPC regression ==="
        python3 - <<'EOF'
import json, subprocess, sys, tempfile, os
def dump(path, ipc):
    rows = [{"name": "v6_bench_benchmark_seconds",
             "labels": {"benchmark": "BM_selftest"}, "value": 1.0},
            {"name": "v6_bench_ipc",
             "labels": {"benchmark": "BM_selftest"}, "value": ipc}]
    json.dump({"metrics": rows}, open(path, "w"))
d = tempfile.mkdtemp()
base, drop = f"{d}/base.json", f"{d}/drop.json"
dump(base, 2.0)
dump(drop, 1.4)  # 0.70x: past the 0.75x floor
gate = ["python3", "scripts/bench_gate.py"]
ok = subprocess.run(gate + [base, base], capture_output=True)
bad = subprocess.run(gate + [base, drop], capture_output=True)
assert ok.returncode == 0, ok.stdout + ok.stderr
assert bad.returncode == 1, "ipc drop not caught"
assert b"baseline IPC" in bad.stderr, bad.stderr
print("bench gate self-test ok: synthetic 0.70x IPC drop fails the gate")
EOF

        # PMU overhead: with counting armed, every obs::span site on
        # the ingest path is counted (shard.ingest_batch and par.task
        # per batch, plus the per-seal sites such as shard.seal,
        # seal_day and build_report — two group read(2)s each) and must
        # stay within 5% of the same 1M-record ingest with counting off.
        # Same-run ratio, best of a few attempts, like the federate gate
        # below: single pairs on a shared 1-vCPU box jitter more than
        # the budget.
        echo "=== pmu overhead: scopes armed vs off (same-run ratio) ==="
        pmu_ratio_ok=""
        for attempt in 1 2 3 4 5 6; do
            ./build/bench/micro_trace_overhead \
                --benchmark_filter='BM_stream_ingest_pmu' \
                --benchmark_min_time=2x \
                --metrics-out=/tmp/pmu_ratio.json >/dev/null
            if python3 - <<'EOF'
import json
doc = json.load(open("/tmp/pmu_ratio.json"))
t = {m["labels"]["benchmark"]: m["value"]
     for m in doc["metrics"] if m["name"] == "v6_bench_benchmark_seconds"}
off = t["BM_stream_ingest_pmu/0"]
on = t["BM_stream_ingest_pmu/1"]
ok = on <= off * 1.05
print(f"pmu scope overhead {on / off - 1:+.1%} vs scopes-off ingest"
      f" ({'ok' if ok else 'retry'})")
raise SystemExit(0 if ok else 1)
EOF
            then
                pmu_ratio_ok=1
                break
            fi
        done
        rm -f /tmp/pmu_ratio.json
        if [ -z "${pmu_ratio_ok}" ]; then
            echo "pmu scope overhead exceeded 5% in every attempt" >&2
            exit 1
        fi

        # The federation overhead claim: pushing every seal to a loopback
        # aggregator must not meaningfully slow bare full-stream ingest.
        # The ratio is taken within a single run (both variants share one
        # noise window) and the best of a few attempts is gated — ratios
        # of cross-run minimums decouple under the merge ratchet, and a
        # single wall-clock pair on a shared 1-vCPU box jitters ±15%.
        # Budget is 25% wall: on one vCPU the pusher and aggregator
        # threads contend with the shard threads rather than overlap,
        # and the SIMD engine made the bare side faster, so the fixed
        # push cost is a larger fraction (CPU time stays flat).
        echo "=== federate overhead: push vs bare (same-run ratio) ==="
        fed_ratio_ok=""
        for attempt in 1 2 3 4; do
            ./build/bench/micro_federate \
                --benchmark_filter='BM_stream_with_push' \
                --benchmark_min_time=1x \
                --metrics-out=/tmp/fed_ratio.json >/dev/null
            if python3 - <<'EOF'
import json
doc = json.load(open("/tmp/fed_ratio.json"))
t = {m["labels"]["benchmark"]: m["value"]
     for m in doc["metrics"] if m["name"] == "v6_bench_benchmark_seconds"}
bare = t["BM_stream_with_push/0/real_time"]
push = t["BM_stream_with_push/1/real_time"]
ok = push <= bare * 1.25
print(f"federate push overhead {push / bare - 1:+.1%} vs bare ingest"
      f" ({'ok' if ok else 'retry'})")
raise SystemExit(0 if ok else 1)
EOF
            then
                fed_ratio_ok=1
                break
            fi
        done
        rm -f /tmp/fed_ratio.json
        if [ -z "${fed_ratio_ok}" ]; then
            echo "federate push overhead exceeded 25% in every attempt" >&2
            exit 1
        fi

        # SIMD substrate claims, gated on the min-merged numbers: the
        # batch kernels must beat the one-at-a-time address API, the
        # dispatched level must not lose to its own scalar fallback, and
        # the flat store must hold its near-linear ingest scaling.
        # Margins sit well under the quiet-machine ratios (see
        # DESIGN.md section 14) so only a real regression trips them.
        python3 - <<'EOF'
import json

def seconds(path):
    doc = json.load(open(path))
    return {m["labels"]["benchmark"]: m["value"]
            for m in doc["metrics"]
            if m["name"] == "v6_bench_benchmark_seconds"}

t = seconds("BENCH_substrate.json")
item = lambda b: t[b] / 1024.0  # batch kernels run 1024-lane blocks

def claim(label, lhs, rhs, factor):
    assert lhs * factor <= rhs, (
        f"{label}: {lhs:.3g}s * {factor} > {rhs:.3g}s "
        f"(speedup {rhs / lhs:.2f}x, want >= {factor}x)")
    print(f"simd gate ok: {label} {rhs / lhs:.2f}x (want >= {factor}x)")

claim("parse batch vs one-at-a-time", item("BM_parse_batch"), t["BM_parse"], 1.8)
claim("format batch vs one-at-a-time", item("BM_format_batch"), t["BM_format"], 2.0)
claim("classify batch vs one-at-a-time", item("BM_classify_batch"), t["BM_classify"], 3.0)
claim("radix block sort vs std::sort path",
      t["BM_block_sort_unique/100000"], t["BM_address_sort_unique/100000"], 1.2)
claim("block store ingest vs record loop",
      t["BM_observation_store_ingest_block/50000"],
      t["BM_observation_store_ingest/50000"], 1.0)
# The dispatched level must never lose to the portable fallback it
# replaces (equality is fine on machines without AVX2).
for pair in ("parse", "format", "classify"):
    a, s = t[f"BM_{pair}_batch"], t[f"BM_{pair}_batch_scalar"]
    assert a <= s * 1.10, f"{pair}: dispatched {a:.3g}s slower than scalar {s:.3g}s"
# No scaling-shape assertion on 50000/10000: cross-run minimums skew
# the ratio (the short bench catches a quiet scheduler window far more
# often than the long one).  The absolute-time gate above pins the
# flat store's ~6x ingest win over the unordered_map seed directly.
EOF

        # Collector smoke: the real binaries end to end over loopback
        # UDP — v6synth records a wire capture, v6stream listens on an
        # ephemeral port (parsed from its stderr), v6wire sends the
        # capture, and a clean SIGTERM must still produce sealed day
        # reports and the final summary on stdout.
        echo "=== collector smoke: loopback UDP e2e ==="
        smoke=$(mktemp -d)
        ./build/tools/v6synth --wire="${smoke}/feed.v6w" \
            --first=360 --last=362 --scale=0.02 --seed=7
        ./build/tools/v6stream --listen --shards=2 \
            >"${smoke}/out.json" 2>"${smoke}/err.txt" &
        stream_pid=$!
        port=""
        for _ in $(seq 1 100); do
            port=$(sed -n 's/^listening on udp port \([0-9]*\)$/\1/p' \
                "${smoke}/err.txt")
            [ -n "${port}" ] && break
            sleep 0.1
        done
        if [ -z "${port}" ]; then
            kill "${stream_pid}" 2>/dev/null || true
            echo "collector smoke: v6stream never reported its port" >&2
            exit 1
        fi
        ./build/tools/v6wire send "${smoke}/feed.v6w" ::1 "${port}"
        sleep 1
        kill -TERM "${stream_pid}"
        wait "${stream_pid}"
        grep -q '"type":"day"' "${smoke}/out.json"
        grep -q '"type":"final"' "${smoke}/out.json"
        grep -q 'collector: .* 0 rejected' "${smoke}/err.txt"
        rm -rf "${smoke}"
        echo "collector smoke passed"

        # Shard invariance: the engine shards by /64 and seals its shards
        # in parallel, so the tool output must not depend on the shard
        # count or the SIMD dispatch level. One small capture, replayed
        # at several shard counts and forced scalar: every stdout (day
        # reports and the final summary) byte-identical.
        echo "=== shard invariance: v6stream --replay across shard counts ==="
        smoke=$(mktemp -d)
        ./build/tools/v6synth --wire="${smoke}/feed.v6w" \
            --first=360 --last=373 --scale=0.05 --seed=7
        for shards in 1 2 3 8; do
            ./build/tools/v6stream --replay="${smoke}/feed.v6w" \
                --shards="${shards}" >"${smoke}/shards${shards}.json"
        done
        V6CLASS_FORCE_SCALAR=1 ./build/tools/v6stream \
            --replay="${smoke}/feed.v6w" >"${smoke}/scalar.json"
        grep -q '"type":"final"' "${smoke}/shards1.json"
        for out in shards2 shards3 shards8 scalar; do
            cmp "${smoke}/shards1.json" "${smoke}/${out}.json"
        done
        rm -rf "${smoke}"
        echo "shard invariance passed"

        # Enrichment path: the world's routes, compiled by v6mkdb, tag
        # every record through the snapshot's flat ASN table. Every
        # non-listen source enters v6stream through one ingest step, so
        # the same days as a text feed, a day_<n>.log corpus and a wire
        # capture must print the same stdout (day reports, day_asn
        # lines, final) at any shard count, and routed rows must exist.
        # A seventh run paces the capture (60,128 records at 30k/s, ~2 s)
        # so reports drain mid-run, as the days seal: same stdout.
        echo "=== enrichment: v6stream sources x shard counts with --asn-db ==="
        smoke=$(mktemp -d)
        ./build/tools/v6synth --out="${smoke}/world" --routes \
            --first=360 --last=366 --scale=0.05 --seed=7
        ./build/tools/v6synth --stream \
            --first=360 --last=366 --scale=0.05 --seed=7 >"${smoke}/feed.txt"
        ./build/tools/v6synth --wire="${smoke}/feed.v6w" \
            --first=360 --last=366 --scale=0.05 --seed=7
        ./build/tools/v6mkdb --in="${smoke}/world/routes.txt" \
            --out="${smoke}/routes.asndb"
        for shards in 1 4; do
            for src in wire text dir; do
                case "${src}" in
                    wire) input="--replay=${smoke}/feed.v6w" ;;
                    text) input="${smoke}/feed.txt" ;;
                    dir) input="--replay=${smoke}/world" ;;
                esac
                ./build/tools/v6stream "${input}" --status-every=0 \
                    --asn-db="${smoke}/routes.asndb" --shards="${shards}" \
                    >"${smoke}/${src}${shards}.json"
            done
        done
        ./build/tools/v6stream --replay="${smoke}/feed.v6w" --rate=30000 \
            --status-every=0 --asn-db="${smoke}/routes.asndb" --shards=4 \
            >"${smoke}/paced4.json"
        grep -q '"type":"day_asn".*"asn":[1-9]' "${smoke}/wire1.json"
        grep -q '"type":"final"' "${smoke}/wire1.json"
        for out in text1 dir1 wire4 text4 dir4 paced4; do
            cmp "${smoke}/wire1.json" "${smoke}/${out}.json"
        done
        rm -rf "${smoke}"
        echo "enrichment passed"

        # Long histories: a year of days, so addresses that return past
        # their first 64 days run their day bitmaps into the records'
        # overflow words (and past 128 days into several of them). Same
        # pattern as above: stdout byte-identical at every shard count,
        # under the default window and under one wider than a bitmap
        # word (--back=100), whose splits read across those words.
        echo "=== long history: a year replayed across shard counts ==="
        smoke=$(mktemp -d)
        ./build/tools/v6synth --wire="${smoke}/year.v6w" \
            --first=300 --last=664 --scale=0.05 --seed=7
        for shards in 1 3 8; do
            ./build/tools/v6stream --replay="${smoke}/year.v6w" \
                --shards="${shards}" >"${smoke}/shards${shards}.json"
            ./build/tools/v6stream --replay="${smoke}/year.v6w" \
                --shards="${shards}" --back=100 --fwd=3 --n=70 \
                >"${smoke}/wide${shards}.json"
        done
        grep -q '"type":"final"' "${smoke}/shards1.json"
        for shards in 3 8; do
            cmp "${smoke}/shards1.json" "${smoke}/shards${shards}.json"
            cmp "${smoke}/wide1.json" "${smoke}/wide${shards}.json"
        done
        rm -rf "${smoke}"
        echo "long history passed"

        # Stream vs batch window: the engine reads the windowed split off
        # its day bitmaps, the batch tool merges day sets. One small world,
        # written as a corpus and as a capture, classified both ways under
        # a non-default window: every report whose reference day is in the
        # corpus must carry v6stable's stable count (--n=1) and active
        # count (--n=0: every active address is 0d-stable).
        echo "=== stream vs batch window: v6stream vs v6stable, (-3d,+5d) ==="
        smoke=$(mktemp -d)
        ./build/tools/v6synth --out="${smoke}/corpus" \
            --first=360 --last=373 --scale=0.05 --seed=7
        ./build/tools/v6synth --wire="${smoke}/feed.v6w" \
            --first=360 --last=373 --scale=0.05 --seed=7
        ./build/tools/v6stream --replay="${smoke}/feed.v6w" \
            --n=1 --back=3 --fwd=5 >"${smoke}/out.json"
        batch_count() {  # $1=ref day  $2=n: v6stable's printed stable set
            ./build/tools/v6stable --corpus="${smoke}/corpus" --ref="$1" \
                --n="$2" --back=3 --fwd=5 --print-stable \
                | grep -v -c -e '^day ' -e '^  ' || true
        }
        checked=0
        while read -r ref stable active; do
            [ -f "${smoke}/corpus/day_${ref}.log" ] || continue
            want_stable=$(batch_count "${ref}" 1)
            want_active=$(batch_count "${ref}" 0)
            if [ "${stable}" != "${want_stable}" ] ||
               [ "${active}" != "${want_active}" ]; then
                echo "stream vs batch window: ref day ${ref}: stream" \
                     "${stable}/${active}, batch ${want_stable}/${want_active}" \
                     "(stable/active)" >&2
                exit 1
            fi
            checked=$((checked + 1))
        done < <(python3 -c 'import json, sys
for line in open(sys.argv[1]):
    r = json.loads(line)
    if r.get("type") == "day":
        print(r["ref_day"], r["stable"], r["active"])' "${smoke}/out.json")
        rm -rf "${smoke}"
        if [ "${checked}" -ne 9 ]; then
            echo "stream vs batch window: ${checked} reports checked, want 9" >&2
            exit 1
        fi
        echo "stream vs batch window passed (${checked} reference days)"

        # PMU smoke: replay a wire capture with --pmu-out and check the
        # exit snapshot end to end. On a box with hardware counters the
        # ingest sites must show a positive IPC; anywhere else the
        # snapshot (and the one-line startup log) must say which tier
        # the probe landed on and why — silent absence is the one
        # failure mode this stage exists to catch.
        echo "=== pmu smoke: v6stream --replay --pmu-out e2e ==="
        smoke=$(mktemp -d)
        ./build/tools/v6synth --wire="${smoke}/feed.v6w" \
            --first=360 --last=362 --scale=0.02 --seed=7
        ./build/tools/v6stream --replay="${smoke}/feed.v6w" --shards=2 \
            --pmu-out="${smoke}/pmu.json" \
            >"${smoke}/out.json" 2>"${smoke}/err.txt"
        grep -q '^pmu: ' "${smoke}/err.txt"
        python3 - "${smoke}/pmu.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
mode, reason = doc["mode"], doc["reason"]
assert mode in ("hardware", "software", "unavailable"), mode
if mode == "hardware":
    ipcs = [s["ipc"] for s in doc["sites"]
            if s["site"] == "shard.ingest_batch" and "ipc" in s]
    assert ipcs and ipcs[0] > 0, f"hardware tier but no ingest ipc: {doc}"
    print(f"pmu smoke ok: hardware counters, ingest ipc {ipcs[0]:.2f}")
else:
    assert reason, f"degraded tier must explain itself: {doc}"
    print(f"pmu smoke ok: {mode} tier ({reason})")
EOF
        rm -rf "${smoke}"
        echo "pmu smoke passed"

        # Restart-resume smoke: the durable flight recorder end to end.
        # Run 1 ingests days 360-362 with --state-dir and an alert rule
        # set, then is SIGTERMed mid-run; run 2 reopens the same state
        # dir, ingests days 363-365, and must serve one continuous
        # /api/series range spanning both runs plus the run-1 alert
        # firing->resolved transitions from the durable event log.
        echo "=== restart-resume smoke: flight recorder + alerts e2e ==="
        smoke=$(mktemp -d)
        ./build/tools/v6synth --wire="${smoke}/feed1.v6w" \
            --first=360 --last=362 --scale=0.02 --seed=7
        ./build/tools/v6synth --wire="${smoke}/feed2.v6w" \
            --first=363 --last=365 --scale=0.02 --seed=8
        cat >"${smoke}/alerts.txt" <<'EOF'
lifecycle_watch event=lifecycle level=info
sane_active series=v6class_active_addresses below=1000000000
EOF
        run_daemon() {  # $1=err-file  $2=out-file  extra args...
            local err=$1 out=$2
            shift 2
            ./build/tools/v6stream --listen --shards=2 --tick=1 \
                --state-dir="${smoke}/state" --alerts="${smoke}/alerts.txt" \
                --metrics-port=0 "$@" >"${out}" 2>"${err}" &
            stream_pid=$!
            udp_port=""
            http_port=""
            for _ in $(seq 1 100); do
                udp_port=$(sed -n 's/^listening on udp port \([0-9]*\)$/\1/p' \
                    "${err}")
                http_port=$(sed -n \
                    's|^metrics on http://0\.0\.0\.0:\([0-9]*\)/metrics.*|\1|p' \
                    "${err}")
                [ -n "${udp_port}" ] && [ -n "${http_port}" ] && return 0
                sleep 0.1
            done
            kill "${stream_pid}" 2>/dev/null || true
            echo "restart smoke: v6stream never reported its ports" >&2
            exit 1
        }
        run_daemon "${smoke}/err1.txt" "${smoke}/out1.json"
        ./build/tools/v6wire send "${smoke}/feed1.v6w" ::1 "${udp_port}"
        sleep 2.5  # two --tick=1 rounds: the lifecycle alert fires, then resolves
        kill -TERM "${stream_pid}"
        wait "${stream_pid}"
        grep -q '"type":"day"' "${smoke}/out1.json"

        run_daemon "${smoke}/err2.txt" "${smoke}/out2.json"
        grep -q 'points recovered' "${smoke}/err2.txt"
        ./build/tools/v6wire send "${smoke}/feed2.v6w" ::1 "${udp_port}"
        sleep 1
        # SIGHUP hot-reloads the alert rules alongside the ASN db.
        kill -HUP "${stream_pid}"
        sleep 0.5
        curl -fsS "http://127.0.0.1:${http_port}/api/series?name=v6class_active_addresses" \
            >"${smoke}/series.json"
        curl -fsS "http://127.0.0.1:${http_port}/api/events?level=info" \
            >"${smoke}/events.json"
        curl -fsS "http://127.0.0.1:${http_port}/alerts" >"${smoke}/alerts.json"
        curl -fsS "http://127.0.0.1:${http_port}/healthz" >"${smoke}/healthz.json"
        curl -fsS "http://127.0.0.1:${http_port}/dashboard" >"${smoke}/dashboard.html"
        curl -fsS "http://127.0.0.1:${http_port}/metrics" >"${smoke}/metrics.txt"
        kill -TERM "${stream_pid}"
        wait "${stream_pid}"
        grep -q 'reloaded .* alert rules' "${smoke}/err2.txt"
        # One continuous, duplicate-free range spanning both runs. The
        # open day (365) seals only at shutdown, so the live query must
        # cover at least 360..364.
        python3 - "${smoke}/series.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
ts = [p[0] for p in doc["points"]]
assert ts, "no points stored"
assert ts == sorted(set(ts)), f"duplicates or disorder: {ts}"
assert ts == list(range(ts[0], ts[-1] + 1)), f"gap in days: {ts}"
assert ts[0] <= 362 and ts[-1] >= 363, f"range does not span both runs: {ts}"
print(f"series continuity ok: days {ts[0]}..{ts[-1]}")
EOF
        # The run-1 alert transitions survived the restart in the
        # durable event log.
        grep -q '"message":"alert lifecycle_watch firing"' "${smoke}/events.json"
        grep -q '"message":"alert lifecycle_watch resolved"' "${smoke}/events.json"
        grep -q '"name":"lifecycle_watch"' "${smoke}/alerts.json"
        grep -q '"state_dir":' "${smoke}/healthz.json"
        grep -q '"alerts":{"firing":' "${smoke}/healthz.json"
        # The dashboard's "drift events" stat is the drift counter, not
        # the whole event log (lifecycle, alert and reload events are
        # not drift): this steady feed raises none.
        python3 - "${smoke}/dashboard.html" "${smoke}/metrics.txt" <<'EOF'
import re, sys
page = open(sys.argv[1]).read()
stat = re.search(r"drift events <b>(\d+)</b>", page)
assert stat, "dashboard has no drift events stat"
counter = re.search(r"^v6class_drift_events_total (\d+)$",
                    open(sys.argv[2]).read(), re.M)
assert counter, "/metrics has no v6class_drift_events_total"
assert stat.group(1) == counter.group(1) == "0", \
    f"drift events: dashboard {stat.group(1)}, metrics {counter.group(1)}"
print("dashboard drift events ok: 0, matching /metrics")
EOF
        rm -rf "${smoke}"
        echo "restart-resume smoke passed"

        # Federation smoke: v6agg + two v6stream pushers end to end on
        # loopback. Both collectors replay the SAME capture, so each
        # node's day sketch equals the other's and the fleet union must
        # equal either one exactly — the global estimate matching a
        # per-node estimate IS the exact-union check, to the last digit.
        # Killing one pusher must then drive its node-absence alert to
        # firing within one staleness window + hold-down.
        echo "=== federation smoke: v6agg + two pushers e2e ==="
        smoke=$(mktemp -d)
        ./build/tools/v6synth --wire="${smoke}/feed.v6w" \
            --first=360 --last=362 --scale=0.02 --seed=7
        cat >"${smoke}/fleet-alerts.txt" <<'EOF'
east-gone node=east level=error
west-gone node=west level=error
EOF
        ./build/tools/v6agg --port=0 --metrics-port=0 \
            --state-dir="${smoke}/fleet" --alerts="${smoke}/fleet-alerts.txt" \
            --staleness=2 --tick=1 2>"${smoke}/agg.err" &
        agg_pid=$!
        agg_port=""
        agg_http=""
        for _ in $(seq 1 100); do
            agg_port=$(sed -n 's/^aggregating on tcp port \([0-9]*\)$/\1/p' \
                "${smoke}/agg.err")
            agg_http=$(sed -n \
                's|^metrics on http://0\.0\.0\.0:\([0-9]*\)/metrics.*|\1|p' \
                "${smoke}/agg.err")
            [ -n "${agg_port}" ] && [ -n "${agg_http}" ] && break
            sleep 0.1
        done
        if [ -z "${agg_port}" ] || [ -z "${agg_http}" ]; then
            kill "${agg_pid}" 2>/dev/null || true
            echo "federation smoke: v6agg never reported its ports" >&2
            exit 1
        fi
        run_pusher() {  # $1=node-name  $2=err-file
            ./build/tools/v6stream --listen --shards=2 --tick=1 \
                --push="127.0.0.1:${agg_port}" --node="$1" \
                >/dev/null 2>"$2" &
            pusher_pid=$!
            pusher_udp=""
            for _ in $(seq 1 100); do
                pusher_udp=$(sed -n \
                    's/^listening on udp port \([0-9]*\)$/\1/p' "$2")
                [ -n "${pusher_udp}" ] && return 0
                sleep 0.1
            done
            kill "${pusher_pid}" 2>/dev/null || true
            echo "federation smoke: pusher $1 never reported its port" >&2
            exit 1
        }
        run_pusher east "${smoke}/east.err"
        east_pid=${pusher_pid}
        east_udp=${pusher_udp}
        run_pusher west "${smoke}/west.err"
        west_pid=${pusher_pid}
        west_udp=${pusher_udp}
        ./build/tools/v6wire send "${smoke}/feed.v6w" ::1 "${east_udp}"
        ./build/tools/v6wire send "${smoke}/feed.v6w" ::1 "${west_udp}"
        sleep 1.5  # drain + a tick: both nodes push status and sealed days
        # Kill east: its shutdown seals (and pushes) the open day 362,
        # which settles the fleet's day-361 union into the tsdb; then
        # the staleness window runs out and east-gone must fire.
        kill -TERM "${east_pid}"
        wait "${east_pid}"
        firing=""
        for _ in $(seq 1 60); do
            if curl -fsS "http://127.0.0.1:${agg_http}/alerts" \
                | grep -q '"name":"east-gone","state":"firing"'; then
                firing=yes
                break
            fi
            sleep 0.25
        done
        if [ -z "${firing}" ]; then
            echo "federation smoke: east-gone never reached firing" >&2
            curl -fsS "http://127.0.0.1:${agg_http}/alerts" >&2 || true
            kill "${west_pid}" "${agg_pid}" 2>/dev/null || true
            exit 1
        fi
        curl -fsS "http://127.0.0.1:${agg_http}/api/nodes" \
            >"${smoke}/nodes.json"
        fetch_series() {  # $1=name  $2=label  $3=out
            curl -fsS "http://127.0.0.1:${agg_http}/api/series?name=$1&label=$2" \
                >"$3"
        }
        fetch_series v6fleet_day_distinct_addresses_estimate "" \
            "${smoke}/global.json"
        fetch_series v6class_day_distinct_addresses_estimate node%3Deast \
            "${smoke}/east.json"
        fetch_series v6class_day_distinct_addresses_estimate node%3Dwest \
            "${smoke}/west.json"
        python3 - "${smoke}" <<'EOF'
import json, sys
d = sys.argv[1]
nodes = json.load(open(f"{d}/nodes.json"))
by = {n["node"]: n for n in nodes["nodes"]}
assert set(by) == {"east", "west"}, f"registry: {sorted(by)}"
assert not by["east"]["fresh"], "east should be stale after SIGTERM"
assert by["west"]["fresh"], "west should still be fresh"
glob = {p[0]: p[1] for p in json.load(open(f"{d}/global.json"))["points"]}
east = {p[0]: p[1] for p in json.load(open(f"{d}/east.json"))["points"]}
west = {p[0]: p[1] for p in json.load(open(f"{d}/west.json"))["points"]}
assert 361 in glob, f"global day series missing 361: {sorted(glob)}"
assert east[361] == west[361], "identical feeds must give identical sketches"
# Identical feeds: union(east, west) == east == west, so the fleet
# estimate must equal the per-node one EXACTLY — register-level union,
# not approximate agreement.
assert glob[361] == east[361], f"union not exact: {glob[361]} vs {east[361]}"
print(f"federation union exact: day 361 distinct ~= {glob[361]}")
EOF
        kill -TERM "${west_pid}"
        wait "${west_pid}"
        kill -TERM "${agg_pid}"
        wait "${agg_pid}"
        grep -q 'aggregated .* frames (0 rejected)' "${smoke}/agg.err"
        rm -rf "${smoke}"
        echo "federation smoke passed"
    fi
done

echo "=== all presets passed: ${presets[*]} ==="
