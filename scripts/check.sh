#!/usr/bin/env bash
# Local gate: formatting, lints, docs, the full test suite, smoke sweeps
# through the parallel runner, the telemetry smoke, and one traced run of
# the benchmark. Everything runs offline.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy -D warnings"
cargo clippy --offline --workspace --all-targets -- -D warnings

# Crates that use `unsafe` at all deny it crate-wide and allow it in
# exactly two islands: als-service's `mmsg` FFI module and crypto's
# SHA-256 backend dispatch. A third island, or a second `allow` in one of
# these files, fails here instead of slipping past the `deny`.
echo "==> unsafe islands (only als-service mmsg and crypto sha256)"
islands=$(grep -rnE --include='*.rs' '(allow|expect)\([^)]*unsafe_code' crates/ || true)
expected=$'crates/als-service/src/lib.rs\ncrates/crypto/src/sha256.rs'
if [ "$(cut -d: -f1 <<<"$islands" | sort)" != "$expected" ]; then
    echo "unsafe islands changed; expected one allow each in:" >&2
    echo "$expected" >&2
    echo "found:" >&2
    echo "${islands:-(none)}" >&2
    exit 1
fi

# The public surface is meant to be small enough to read in cargo doc:
# a link to a private or deleted item fails here, not in a browser.
echo "==> cargo doc -D warnings"
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --workspace

# The fingerprint goldens hash every simulated statistic, so any change
# to event order or RNG consumption fails here first, under their names.
echo "==> fingerprint tests (adversary_acceptance, telemetry_determinism)"
cargo test --offline -q -p agr-bench --test adversary_acceptance --test telemetry_determinism

# --include-ignored: the two cluster_conformance tests that boot a UDP
# ring wait on wall-clock timeouts (~2 min), so tier-1 skips them and
# this gate runs them. They are the cluster's socket smoke: packet chaos,
# a kill/restart, and >= 99% availability overall and in the fault window.
echo "==> cargo test (ignored tests included)"
cargo test --offline --workspace -q -- --include-ignored

# benchmark/ is its own workspace, so nothing above compiles or tests
# it: this both runs its unit tests (JSON, Zipf, exact percentiles,
# compare rules) and notices a public-API change breaking the driver.
# Read-only (committed Cargo.lock, output under target/).
echo "==> cargo test benchmark/ (out-of-workspace unit tests + API pin)"
cargo test --release --offline --manifest-path benchmark/Cargo.toml

# Smoke sweeps write their CSVs and SVGs to a disposable dir so they
# never clobber the checked-in full-settings files under results/ (the
# git diff after the smokes proves it).
SMOKE_RESULTS="$(mktemp -d "${TMPDIR:-/tmp}/agr-smoke-results.XXXXXX")"
trap 'rm -rf "$SMOKE_RESULTS"' EXIT

echo "==> smoke sweep (fig1, 1 seed, 60 simulated seconds)"
AGR_RESULTS_DIR="$SMOKE_RESULTS" AGR_SEEDS=1 AGR_DURATION_S=60 AGR_NODES=50,75 \
    cargo run --offline --release -q -p agr-bench --bin fig1
for f in fig1a.csv fig1b.csv fig1a.svg fig1b.svg; do
    test -s "$SMOKE_RESULTS/$f" || { echo "fig1 smoke: $f missing from AGR_RESULTS_DIR" >&2; exit 1; }
done

echo "==> smoke fault sweep (lossless + 10% loss, 1 seed, 60 simulated seconds)"
AGR_RESULTS_DIR="$SMOKE_RESULTS" AGR_SEEDS=1 AGR_DURATION_S=60 AGR_NODES=50 AGR_LOSS=0,0.1 \
    cargo run --offline --release -q -p agr-bench --bin fault_sweep

echo "==> smoke adversary sweep (clean + 20% blackholes, 1 seed, 60 simulated seconds)"
AGR_RESULTS_DIR="$SMOKE_RESULTS" AGR_SEEDS=1 AGR_DURATION_S=60 AGR_NODES=50 AGR_ADV=0,0.2 \
    cargo run --offline --release -q -p agr-bench --bin adversary_sweep

# The privacy tables at their defaults (~3.5 s together) must reproduce
# the checked-in files byte for byte: every eavesdropper reads payloads
# through agr-privacy's `Discloses`, so a change to what a packet type
# declares, or to how the observers fold it, fails here.
echo "==> privacy tables (privacy_eval, privacy_sniffers at defaults) reproduce results/"
AGR_RESULTS_DIR="$SMOKE_RESULTS" cargo run --offline --release -q -p agr-bench --bin privacy_eval >/dev/null
AGR_RESULTS_DIR="$SMOKE_RESULTS" cargo run --offline --release -q -p agr-bench --bin privacy_sniffers >/dev/null
for f in privacy_exposure.csv privacy_tracking.csv privacy_sniffers.csv; do
    cmp "$SMOKE_RESULTS/$f" "results/$f" || { echo "privacy tables: $f differs from results/" >&2; exit 1; }
done

# Telemetry smoke: `simulate --viz-json` must produce a non-empty JSONL
# event stream where every line matches the agr-telemetry viz schema,
# and `--metrics-json` a stamped registry snapshot. The schema regex
# mirrors `validate_jsonl_line`: t_ns then kind, then optional node /
# x+y pair / info, nothing else. (A live node's UDP stats scrape is the
# tier-1 test `cluster::tests::live_node_answers_udp_stats_scrape`.)
echo "==> telemetry smoke (simulate --viz-json)"
VIZ_SMOKE="$SMOKE_RESULTS/viz_smoke.jsonl"
METRICS_SMOKE="$SMOKE_RESULTS/metrics_smoke.json"
cargo run --offline --release -q -p agr-bench --bin simulate -- \
    --protocol agfw --nodes 50 --duration 60 --seed 1 --flows 10 --senders 5 \
    --viz-json "$VIZ_SMOKE" --metrics-json "$METRICS_SMOKE" >/dev/null
test -s "$VIZ_SMOKE" || { echo "viz smoke: empty event stream" >&2; exit 1; }
VIZ_RE='^\{"t_ns":[0-9]+,"kind":"(tx|rx|pseudonym_change)"(,"node":[0-9]+)?(,"x":-?[0-9]+\.[0-9]+,"y":-?[0-9]+\.[0-9]+)?(,"info":"([^"\\]|\\.)*")?\}$'
if grep -qEv "$VIZ_RE" "$VIZ_SMOKE"; then
    echo "viz smoke: schema-invalid JSONL line(s):" >&2
    grep -Ev "$VIZ_RE" "$VIZ_SMOKE" | head -3 >&2
    exit 1
fi
echo "    viz stream ok: $(wc -l < "$VIZ_SMOKE") schema-valid events"
grep -q '"format": "agr-telemetry-snapshot-v1"' "$METRICS_SMOKE" ||
    { echo "metrics smoke: snapshot missing format tag" >&2; exit 1; }

echo "==> no smoke wrote into results/"
git diff --exit-code -- results/

# The one benchmark, traced, 1 s per workload: its exit code carries
# every per-run correctness check benchmark/README.md lists (sim Stats
# bit-identical across repetitions and traced == untraced, ALS uid/kind
# matching and read-back, cluster_r2 last-acked-write + digests_agree).
# A behaviour gate: it does not care how fast the host is. The ~570
# lines of per-layer metrics go to a log; a failure shows its reasons.
echo "==> benchmark smoke (benchmark/run.sh traced, all six workloads, correctness checks)"
TRACED="$SMOKE_RESULTS/benchmark_traced.json"
if ! bash benchmark/run.sh traced --seed 1 --seconds 1 --out "$TRACED" >"$TRACED.log"; then
    grep 'CHECK FAILED' "$TRACED.log" >&2 || tail -20 "$TRACED.log" >&2
    exit 1
fi

# Exact counts: the seed-1 values in results/BENCHMARK_exact.json (config
# hash, events, frames, collisions, frames and bytes on air, protocol
# counters) must come back bit for bit. Behaviour drift fails here; host
# speed never does.
EXACT=results/BENCHMARK_exact.json
drift=$(jq -r --slurpfile traced "$TRACED" '
    .workloads | to_entries[] | .key as $w
    | ($traced[0].workloads | map(select(.workload == $w)) | first) as $run
    | .value | to_entries[]
    | (if .key == "config_hash" then $run.stamp.config_hash
       else $run.per_layer[.key].value end) as $got
    | select($got != .value)
    | "\($w) \(.key): expected \(.value), got \($got)"' "$EXACT")
if [ -n "$drift" ]; then
    echo "exact-count drift against $EXACT:" >&2
    echo "$drift" >&2
    exit 1
fi
echo "    exact counts match $EXACT"

# Allocations per event are a property of the code, not the host, but not
# bit-stable between identical runs, so they are gated by literal ceilings at 1.5x the seed-1 values
# this command measured once transmissions stopped allocating and a memo
# hit stopped hashing (sim_agfw_dense 0.0145, sim_gpsr_dense 0.0041,
# sim_aant_crypto 0.412).
# Catches a clone or per-call buffer sneaking back into a hot path. The
# result file is one line whose records each end at their "workload"
# key: split there.
for gate in sim_agfw_dense:0.0218 sim_gpsr_dense:0.0062 sim_aant_crypto:0.62; do
    workload="${gate%:*}" ceiling="${gate#*:}"
    now=$(sed 's/"workload":"[a-z0-9_]*"/&\n/g' "$TRACED" | grep "\"workload\":\"$workload\"" |
        grep -o '"sim.world.allocs_per_event":{"unit":"count","value":[0-9.e+-]*' |
        grep -o '[0-9.e+-]*$' || true)
    echo "    $workload: ${now:-missing} allocs/event (ceiling $ceiling)"
    if ! awk -v n="$now" -v c="$ceiling" 'BEGIN { exit !(n != "" && n + 0 <= c + 0) }'; then
        echo "alloc regression: $workload exceeds $ceiling allocations per event (or the metric is missing)" >&2
        exit 1
    fi
done

echo "ok"
