#!/usr/bin/env bash
# Local gate: formatting, lints, the full test suite, and a smoke sweep
# through the parallel runner. Everything runs offline.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy -D warnings"
cargo clippy --offline --workspace --all-targets -- -D warnings

# benchmark/ is its own workspace, so nothing above compiles it: this
# is the gate that notices a public-API change breaking the benchmark
# driver. Read-only (committed Cargo.lock, output under target/).
echo "==> cargo check benchmark/ (out-of-workspace API pin)"
cargo check --offline --release --manifest-path benchmark/Cargo.toml

echo "==> cargo test"
cargo test --offline --workspace -q

# Smoke sweeps write their CSVs to a disposable dir so they never
# clobber the checked-in full-settings tables under results/.
SMOKE_RESULTS="$(mktemp -d "${TMPDIR:-/tmp}/agr-smoke-results.XXXXXX")"
trap 'rm -rf "$SMOKE_RESULTS"' EXIT

echo "==> smoke sweep (fig1a, 1 seed, 60 simulated seconds)"
AGR_RESULTS_DIR="$SMOKE_RESULTS" AGR_SEEDS=1 AGR_DURATION_S=60 AGR_NODES=50,75 \
    cargo run --offline --release -q -p agr-bench --bin fig1a -- \
    --bench-json "${TMPDIR:-/tmp}/BENCH_smoke.json"

echo "==> smoke fault sweep (lossless + 10% loss, 1 seed, 60 simulated seconds)"
AGR_RESULTS_DIR="$SMOKE_RESULTS" AGR_SEEDS=1 AGR_DURATION_S=60 AGR_NODES=50 AGR_LOSS=0,0.1 \
    cargo run --offline --release -q -p agr-bench --bin fault_sweep -- \
    --bench-json "${TMPDIR:-/tmp}/BENCH_fault_smoke.json"

echo "==> smoke adversary sweep (clean + 20% blackholes, 1 seed, 60 simulated seconds)"
AGR_RESULTS_DIR="$SMOKE_RESULTS" AGR_SEEDS=1 AGR_DURATION_S=60 AGR_NODES=50 AGR_ADV=0,0.2 \
    cargo run --offline --release -q -p agr-bench --bin adversary_sweep -- \
    --bench-json "${TMPDIR:-/tmp}/BENCH_adversary_smoke.json"

# ALS service smoke: a --quick loadgen run (the two engine arms plus
# the multi-process UDP arm) gated against the checked-in --quick
# reference per arm. The runs are duration-matched
# (same op counts, same knobs), so a 2x bar tolerates machine noise
# while catching a hot path falling off a cliff — a lock held across a
# batch, a clone sneaking back into the store path, a batched syscall
# quietly degrading to per-frame. An absolute floor backstops the gate
# when no baseline is checked in.
ALS_FLOOR=25000
ALS_BASELINE="results/BENCH_als_quick.json"
echo "==> ALS service smoke (als_loadgen --quick vs ${ALS_BASELINE})"
ALS_SMOKE="$SMOKE_RESULTS/BENCH_als_smoke.json"
cargo run --offline --release -q -p agr-bench --bin als_loadgen -- \
    --quick --out "$ALS_SMOKE" >/dev/null
# "arm ops_per_sec" per line, sorted by arm name.
als_rates() {
    awk -F'"' '/"arm":/ { arm = $4 }
               /"ops_per_sec":/ { gsub(/[^0-9.]/, "", $3); print arm, $3 }' "$1" | sort
}
if [[ -f "$ALS_BASELINE" ]] && grep -q '"arm"' "$ALS_BASELINE"; then
    # Joined on the arm *name*: an arm added, removed or filtered out on
    # one side fails loudly instead of shifting every later comparison.
    join -a1 -a2 -e MISSING -o 0,1.2,2.2 <(als_rates "$ALS_BASELINE") <(als_rates "$ALS_SMOKE") |
    while read -r arm base now; do
        if [[ "$base" == MISSING || "$now" == MISSING ]]; then
            echo "ALS gate: arm '$arm' is in only one of $ALS_BASELINE (${base}) and the smoke run (${now})" >&2
            exit 1
        fi
        printf '    %-14s baseline %12.0f ops/s   now %12.0f ops/s\n' "$arm" "$base" "$now"
        if awk -v b="$base" -v n="$now" 'BEGIN { exit !(n * 2 < b) }'; then
            echo "ALS regression: arm '$arm' runs at less than half the recorded ops/sec" >&2
            exit 1
        fi
    done
else
    echo "    (no per-arm $ALS_BASELINE checked in; absolute floor only)"
fi
als_rates "$ALS_SMOKE" |
while read -r arm rate; do
    if awk -v r="$rate" -v f="$ALS_FLOOR" 'BEGIN { exit !(r < f) }'; then
        echo "ALS throughput collapse: arm '$arm' fell below ${ALS_FLOOR} ops/s" >&2
        exit 1
    fi
done

# Cluster smoke: a 3-node loopback UDP ring under seeded packet chaos
# (drop/duplicate/reorder on every client and sync path) with one
# kill/restart cycle under zipfian load. The binary itself asserts the
# invariants that matter — anti-entropy re-converges the restarted
# (empty) node over the lossy network, the chaos window degrades at
# least one write, and queries over fully-acked keys stay >= 99%
# available across the whole run *and inside the fault window* — so the
# gate here is just "finishes cleanly, fast". The observed wall clock is
# ~60 s (mostly chaotic-sync retry timeouts in the pre-kill and
# post-restart quiesces); the 240 s timeout trips only on a hang (a
# quiesce that never converges, a socket wait without a deadline), not
# on a slow machine.
echo "==> ALS cluster smoke (cluster_harness --smoke, 3 nodes, packet chaos, 1 kill/restart)"
timeout 240 cargo run --offline --release -q -p agr-bench --bin cluster_harness -- \
    --smoke --out "$SMOKE_RESULTS/BENCH_cluster_smoke.json"

# Telemetry smoke, two halves. (1) A clean 1-node ring must answer a UDP
# stats scrape with a valid Prometheus exposition of >= 20 metric
# families (asserted inside the binary). (2) `simulate --viz-json` must
# produce a non-empty JSONL event stream where every line matches the
# agr-telemetry viz schema, and `--metrics-json` a stamped registry
# snapshot. The schema regex mirrors `validate_jsonl_line`: t_ns then
# kind, then optional node / x+y pair / info, nothing else.
echo "==> telemetry smoke (UDP stats scrape + simulate --viz-json)"
timeout 120 cargo run --offline --release -q -p agr-bench --bin cluster_harness -- \
    --scrape-smoke
VIZ_SMOKE="$SMOKE_RESULTS/viz_smoke.jsonl"
METRICS_SMOKE="$SMOKE_RESULTS/metrics_smoke.json"
cargo run --offline --release -q -p agr-bench --bin simulate -- \
    --protocol agfw --nodes 50 --duration 60 --seed 1 --flows 10 --senders 5 \
    --viz-json "$VIZ_SMOKE" --metrics-json "$METRICS_SMOKE" >/dev/null
test -s "$VIZ_SMOKE" || { echo "viz smoke: empty event stream" >&2; exit 1; }
VIZ_RE='^\{"t_ns":[0-9]+,"kind":"(tx|rx|drop|deliver|suspicion|pseudonym_change)"(,"node":[0-9]+)?(,"x":-?[0-9]+\.[0-9]+,"y":-?[0-9]+\.[0-9]+)?(,"info":"([^"\\]|\\.)*")?\}$'
if grep -qEv "$VIZ_RE" "$VIZ_SMOKE"; then
    echo "viz smoke: schema-invalid JSONL line(s):" >&2
    grep -Ev "$VIZ_RE" "$VIZ_SMOKE" | head -3 >&2
    exit 1
fi
echo "    viz stream ok: $(wc -l < "$VIZ_SMOKE") schema-valid events"
grep -q '"format": "agr-telemetry-snapshot-v1"' "$METRICS_SMOKE" ||
    { echo "metrics smoke: snapshot missing format tag" >&2; exit 1; }

# Perf smoke: a --quick perf_profile run vs the checked-in --quick
# reference (results/BENCH_perf.json is the full 300 s trajectory and is
# NOT rate-comparable: aant's ~2 s of RSA/ring-signature startup
# amortizes over 5x the events there, roughly doubling its apparent
# rate). The 2x bar tolerates machine-to-machine noise while still
# catching a hot path falling off a cliff.
echo "==> perf smoke (perf_profile --quick vs results/BENCH_perf_quick.json)"
PERF_BASELINE="results/BENCH_perf_quick.json"
if [[ -f "$PERF_BASELINE" ]]; then
    PERF_SMOKE="$SMOKE_RESULTS/BENCH_perf_smoke.json"
    cargo run --offline --release -q -p agr-bench --bin perf_profile -- \
        --quick --out "$PERF_SMOKE" >/dev/null
    # Both files come from perf_profile's fixed-order writer, so the Nth
    # events_per_sec in each belongs to the Nth scenario name.
    paste <(grep -o '"name": "[a-z]*"' "$PERF_BASELINE" | cut -d'"' -f4) \
          <(grep -o '"events_per_sec": [0-9.]*' "$PERF_BASELINE" | awk '{print $2}') \
          <(grep -o '"events_per_sec": [0-9.]*' "$PERF_SMOKE" | awk '{print $2}') |
    while read -r name base now; do
        printf '    %-10s baseline %12.0f ev/s   now %12.0f ev/s\n' "$name" "$base" "$now"
        if awk -v b="$base" -v n="$now" 'BEGIN { exit !(n * 2 < b) }'; then
            echo "perf regression: '$name' runs at less than half the recorded events/sec" >&2
            exit 1
        fi
    done
    # Allocator regression: allocations-per-event are a property of the
    # code, not the machine, so the bar is much tighter than the 2x
    # wall-clock one — 1.5x the recorded steady-state rate. Catches a
    # clone or per-call buffer sneaking back into the crypto hot path.
    if grep -q '"alloc_calls_per_event"' "$PERF_BASELINE"; then
        paste <(grep -o '"name": "[a-z]*"' "$PERF_BASELINE" | cut -d'"' -f4) \
              <(grep -o '"alloc_calls_per_event": [0-9.]*' "$PERF_BASELINE" | awk '{print $2}') \
              <(grep -o '"alloc_calls_per_event": [0-9.]*' "$PERF_SMOKE" | awk '{print $2}') |
        while read -r name base now; do
            printf '    %-10s baseline %8.2f allocs/event   now %8.2f allocs/event\n' \
                "$name" "$base" "$now"
            if awk -v b="$base" -v n="$now" 'BEGIN { exit !(n > b * 1.5) }'; then
                echo "alloc regression: '$name' allocates >1.5x the recorded calls per event" >&2
                exit 1
            fi
        done
    else
        echo "    (baseline predates alloc_calls_per_event; skipping alloc gate)"
    fi
else
    echo "    (no $PERF_BASELINE checked in; skipping)"
fi

echo "ok"
