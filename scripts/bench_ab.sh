#!/usr/bin/env bash
# A/B run of the benchmark: a parent revision against the working tree.
#
#   scripts/bench_ab.sh <parent-rev> <workload> [--pairs N] [--seconds S]
#                       [--seed K] [--metric M]
#   scripts/bench_ab.sh --self-test
#
# Builds benchmark/ twice, offline, each into its own target directory
# under target/bench_ab/: once from an export of <parent-rev> (git
# archive, so an interrupted run leaves nothing registered in .git) and
# once from the working tree. Then runs N pairs of
# `run --workload <workload> --trace 0`, alternating which side goes
# first, and reads metric M (default: see default_metric) from each run's
# `record` line. Whether higher or
# lower is better, and the regression bound, come from BENCHMARK.json.
# `--metric all` reads every end-to-end metric from the same pairs and
# gives each its own verdict.
#
# Verdict (choosing-metrics §8): a gain needs the change to win at least
# nine tenths of all pairs (ties count for neither) and its median to
# beat the parent's by more than the parent's interquartile range. A loss
# is a median worse than the parent's by more than the metric's bound.
# Neither is unresolved when the parent's interquartile range is wider
# than that bound, unless every change run beats every parent run, or
# when no run reported the metric; otherwise it is no gain.
# Exit codes: 0 gain, 1 no gain, 2 loss, 3 usage or run error,
# 4 unresolved. With `--metric all`: 2 if any metric shows a loss, else 0.
set -euo pipefail
cd "$(dirname "$0")/.."

die() {
    echo "bench_ab: $*" >&2
    exit 3
}

# Reads "parent change" value pairs on stdin and prints the summary.
# Arguments: better (higher|lower), bound (relative). Exits 0/1/2/4.
verdict() {
    awk -v better="$1" -v bound="$2" '
    function sort(a, n,    i, j, t) {
        for (i = 2; i <= n; i++)
            for (j = i; j > 1 && a[j - 1] > a[j]; j--) { t = a[j]; a[j] = a[j - 1]; a[j - 1] = t }
    }
    # Exclusive-method quartile k (1..3) of ascending a[1..n], as
    # benchmark/src/stats.rs and Python statistics.quantiles compute it.
    function quart(a, n, k,    m, j, d) {
        if (n == 1) return a[1]
        m = n + 1; j = int(k * m / 4)
        if (j < 1) j = 1
        if (j > n - 1) j = n - 1
        d = k * m - 4 * j
        return (a[j] * (4 - d) + a[j + 1] * d) / 4
    }
    NF == 2 {
        n++; p[n] = $1; c[n] = $2
        s = (better == "higher") ? $2 - $1 : $1 - $2
        if (s > 0) wins++; else if (s < 0) losses++
    }
    END {
        if (n == 0) { print "verdict: unresolved (no run reported it)"; exit 4 }
        sort(p, n); sort(c, n)
        pq1 = quart(p, n, 1); pm = quart(p, n, 2); pq3 = quart(p, n, 3)
        cq1 = quart(c, n, 1); cm = quart(c, n, 2); cq3 = quart(c, n, 3)
        gap = (better == "higher") ? cm - pm : pm - cm
        iqr = pq3 - pq1
        printf "parent  median %.6g  q1 %.6g  q3 %.6g\n", pm, pq1, pq3
        printf "change  median %.6g  q1 %.6g  q3 %.6g\n", cm, cq1, cq3
        printf "change wins %d of %d pairs (parent %d, ties %d); median gap %+.6g (%+.1f%%), parent IQR %.6g\n",
            wins, n, losses, n - wins - losses, gap, (pm != 0 ? 100 * gap / (pm < 0 ? -pm : pm) : 0), iqr
        if (10 * wins >= 9 * n && gap > iqr) { print "verdict: gain"; exit 0 }
        if (-gap > bound * (pm < 0 ? -pm : pm)) { printf "verdict: loss (worse than the %g bound)\n", bound; exit 2 }
        apart = (better == "higher") ? c[1] > p[n] : c[n] < p[1]
        if (iqr > bound * (pm < 0 ? -pm : pm) && !apart) { printf "verdict: unresolved (parent IQR wider than the %g bound)\n", bound; exit 4 }
        print "verdict: no gain"; exit 1
    }'
}

# The metric a workload is judged by when --metric is not given: what
# the workload exists to move. The open loop's ops_per_s is its fixed
# send rate, so on als_udp_paced only the latency can move.
default_metric() {
    case "$1" in
    sim_*) echo events_per_s ;;
    als_udp_paced) echo query_p50_us ;;
    *) echo ops_per_s ;;
    esac
}

# Reads "metric parent change" lines on stdin and gives every end-to-end
# metric of BENCHMARK.json its own verdict. Exits 2 if any is a loss.
verdict_all() {
    local rows metric better bound code worst=0
    rows=$(cat)
    while read -r metric better bound; do
        echo "== $metric ($better is better, bound $bound)"
        code=0
        awk -v m="$metric" '$1 == m && NF == 3 { print $2, $3 }' <<<"$rows" |
            verdict "$better" "$bound" | sed 's/^/   /' || code=$?
        [ "$code" = 2 ] && worst=2
    done < <(jq -r '.end_to_end[] | "\(.name) \(.better) \(.bound)"' BENCHMARK.json)
    return "$worst"
}

# The rule on canned pairs: each case names its expected exit code.
self_test() {
    local failed=0
    check() {
        local name=$1 want=$2 better=$3 pairs=$4 got=0
        printf '%b' "$pairs" | verdict "$better" 0.25 >/dev/null || got=$?
        if [ "$got" != "$want" ]; then
            echo "self-test $name: exit $got, want $want" >&2
            failed=1
        fi
    }
    local clear="" noisy="" tight="" eight="" slower="" lower="" tie=""
    for i in 0 1 2 3 4 5 6 7 8 9; do
        clear+="10$i 13$i\n"      # +30 %, every pair won
        noisy+="1$i 1$((9 - i))\n" # same spread, change wins half
        tight+="10$i 10$((9 - i))\n" # as noisy, spread inside the bound
        lower+="20$i 15$i\n"      # lower is better: change lower
        slower+="100$i 60$i\n"     # 40 % worse than a 25 % bound
    done
    for i in 0 1 2 3 4 5 6 7; do eight+="10$i 13$i\n"; done
    eight+="108 100\n109 100\n" # 8 of 10 pairs won
    for i in 0 1 2 3 4 5 6 7 8; do tie+="10$i 13$i\n"; done
    tie+="109 109\n" # 9 wins and a tie: still nine tenths
    check gain 0 higher "$clear"
    check unresolved-noise 4 higher "$noisy"
    check no-gain-tight 1 higher "$tight"
    check no-gain-eight-wins 1 higher "$eight"
    check gain-with-tie 0 higher "$tie"
    check gain-lower-is-better 0 lower "$lower"
    check loss 2 higher "$slower"
    # Every pair won, but by less than the parent's own spread.
    check no-gain-within-iqr 1 higher "100 101\n110 111\n120 121\n130 131\n"
    # A parent spread wider than the bound: unresolved either way,
    # unless every change run beats every parent run.
    check unresolved-wide-parent 4 higher "50 49\n100 99\n150 149\n200 199\n"
    check no-gain-wide-but-apart 1 higher "50 201\n100 202\n150 203\n200 204\n"
    check unresolved-no-pairs 4 higher ""
    # Several metrics from the same pairs: a gain, a no-gain and a
    # missing metric exit 0; add one metric's loss and the whole is 2.
    local several="" lossy=""
    for i in 0 1 2 3 4 5 6 7 8 9; do
        several+="setup_s 0.2$i 0.1$i\nevents_per_s 1$i 1$((9 - i))\n"
        lossy+="peak_rss_mb 10$i 14$i\n"
    done
    check_all() {
        local name=$1 want=$2 rows=$3 got=0
        printf '%b' "$rows" | verdict_all >/dev/null || got=$?
        if [ "$got" != "$want" ]; then
            echo "self-test $name: exit $got, want $want" >&2
            failed=1
        fi
    }
    check_all all-without-loss 0 "$several"
    check_all all-with-one-loss 2 "$several$lossy"
    # Every workload of BENCHMARK.json gets a default metric it names.
    local workload metric pair
    for workload in $(jq -r '.workloads[].name' BENCHMARK.json); do
        metric=$(default_metric "$workload")
        if ! jq -e --arg m "$metric" 'any(.end_to_end[]; .name == $m)' BENCHMARK.json >/dev/null; then
            echo "self-test default-metric: $workload -> $metric is not an end-to-end metric" >&2
            failed=1
        fi
    done
    for pair in sim_agfw_dense:events_per_s als_udp_sat:ops_per_s \
        als_udp_paced:query_p50_us cluster_r2:ops_per_s; do
        metric=$(default_metric "${pair%%:*}")
        if [ "$metric" != "${pair#*:}" ]; then
            echo "self-test default-metric: ${pair%%:*} -> $metric, want ${pair#*:}" >&2
            failed=1
        fi
    done
    [ "$failed" = 0 ] && echo "bench_ab self-test: ok"
    return "$failed"
}

if [ "${1:-}" = "--self-test" ]; then
    self_test
    exit
fi

[ $# -ge 2 ] || die "usage: scripts/bench_ab.sh <parent-rev> <workload> [--pairs N] [--seconds S] [--seed K] [--metric M] | --self-test"
rev=$1 workload=$2
shift 2
pairs=10 seconds=15 seed=1 metric=""
while [ $# -gt 0 ]; do
    [ $# -ge 2 ] || die "$1 needs a value"
    case "$1" in
    --pairs) pairs=$2 ;;
    --seconds) seconds=$2 ;;
    --seed) seed=$2 ;;
    --metric) metric=$2 ;;
    *) die "unknown option $1" ;;
    esac
    shift 2
done
for n in "$pairs" "$seconds" "$seed"; do
    [[ "$n" =~ ^[0-9]+$ ]] || die "not a whole number: $n"
done
[ "$pairs" -ge 1 ] || die "--pairs must be at least 1"
[ -n "$metric" ] || metric=$(default_metric "$workload")
if [ "$metric" = all ]; then
    better="each metric's own direction"
else
    better=$(jq -r --arg m "$metric" '.end_to_end[] | select(.name == $m) | .better' BENCHMARK.json)
    bound=$(jq -r --arg m "$metric" '.end_to_end[] | select(.name == $m) | .bound' BENCHMARK.json)
    [ -n "$better" ] || die "BENCHMARK.json has no end-to-end metric $metric"
fi
jq -e --arg w "$workload" 'any(.workloads[]; .name == $w)' BENCHMARK.json >/dev/null ||
    die "BENCHMARK.json has no workload $workload"

sha=$(git rev-parse --verify "$rev^{commit}") || die "unknown revision $rev"
work="$PWD/target/bench_ab"
src="$work/src-$sha"
if [ ! -d "$src" ]; then
    rm -rf "$src.partial"
    mkdir -p "$src.partial"
    git archive "$sha" | tar -x -C "$src.partial"
    mv "$src.partial" "$src"
fi
echo "==> building benchmark/ at ${sha:0:12} and at the working tree"
CARGO_TARGET_DIR="$work/target-parent" cargo build --release --offline --quiet \
    --manifest-path "$src/benchmark/Cargo.toml" || die "parent build failed"
CARGO_TARGET_DIR="$work/target-change" cargo build --release --offline --quiet \
    --manifest-path benchmark/Cargo.toml || die "working-tree build failed"

# Runs one side from its own checkout root (the benchmark writes under
# benchmark/out relative to it) and prints the metric, or with
# `--metric all` one "name value" line per end-to-end metric.
run_side() {
    local dir=$1 exe=$2 record
    record=$(cd "$dir" && "$exe" run --workload "$workload" --seed "$seed" \
        --seconds "$seconds" --trace 0 | sed -n 's/^record //p')
    jq -e '.correct == true' <<<"$record" >/dev/null || die "$dir: run not correct: $record"
    if [ "$metric" = all ]; then
        jq -r '.end_to_end | to_entries[] | select(.value.value != null) | "\(.key) \(.value.value)"' <<<"$record"
    else
        jq -r --arg m "$metric" '.end_to_end[$m].value' <<<"$record"
    fi
}

echo "==> $pairs pairs of $workload, seed $seed, $seconds s each; $metric ($better is better)"
results=""
for i in $(seq 1 "$pairs"); do
    if [ $((i % 2)) = 1 ]; then
        p=$(run_side "$src" "$work/target-parent/release/agr-benchmark")
        c=$(run_side "$PWD" "$work/target-change/release/agr-benchmark")
        order="parent first"
    else
        c=$(run_side "$PWD" "$work/target-change/release/agr-benchmark")
        p=$(run_side "$src" "$work/target-parent/release/agr-benchmark")
        order="change first"
    fi
    if [ "$metric" = all ]; then
        # Join the two sides by metric name: "metric parent change".
        pair=$(awk 'NR == FNR { p[$1] = $2; next } $1 in p { print $1, p[$1], $2 }' \
            <(printf '%s\n' "$p") <(printf '%s\n' "$c"))
        echo "pair $i ($order)"
        sed 's/^/   /' <<<"$pair"
        results+="$pair"$'\n'
    else
        printf 'pair %2d  parent %-14.6g change %-14.6g (%s)\n' "$i" "$p" "$c" "$order"
        results+="$p $c"$'\n'
    fi
done
if [ "$metric" = all ]; then
    printf '%s' "$results" | verdict_all
else
    printf '%s' "$results" | verdict "$better" "$bound"
fi
