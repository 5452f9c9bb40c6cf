#!/usr/bin/env bash
# CI smoke test for the observability tier: boot one shard daemon and a
# router in front of it, drive some /search load with a known
# X-Trace-Id, then verify over the real wire that
#
#   1. both daemons serve /metrics as Prometheus text exposition 0.0.4
#      (every line matches the exposition grammar) with *populated*
#      request-stage histograms (search and snippet counts > 0 where the
#      work happened),
#   2. both daemons serve /debug/traces as valid JSON (checked with the
#      dependency-free `jsonv` binary), and the *same* trace ID appears
#      in the router's and the shard's flight recorders — one request,
#      followable end to end,
#   3. the router echoes the client's X-Trace-Id response header,
#   4. one ingest and one delete against the shard leave exactly one
#      sample in each `extract_mutation_duration_seconds{op,phase}` series
#      they should have produced (a count, not a timing: the smoke
#      corpus is tiny),
#   5. the shard reports what its snippet cache holds: the
#      `extract_snippet_cache_bytes` gauge is present and non-zero after
#      the load above.
#
# Usage: scripts/metrics_smoke.sh
#
# All commands run with --offline: every dependency is a path-local
# vendored shim (vendor/), so no registry access is needed or wanted.
set -euo pipefail
cd "$(dirname "$0")/.."

SERVE=target/release/serve
ROUTER=target/release/router
JSONV=target/release/jsonv

echo "==> metrics_smoke: building the daemon, the router and the JSON validator"
cargo build --release --offline --bin serve --bin jsonv
cargo build --release --offline -p extract-router --bin router

if ! command -v curl >/dev/null; then
    # The in-process equivalents run in tests/router.rs
    # (a_trace_id_follows_one_request_across_both_tiers); this script's
    # value is the real-multi-process wire check, which needs an
    # external client.
    echo "metrics_smoke: curl not available — skipping wire probes"
    exit 0
fi

SHARD_OUT=$(mktemp)
ROUTER_OUT=$(mktemp)
SCRATCH=$(mktemp -d)
PIDS=()
cleanup() {
    for pid in "${PIDS[@]+"${PIDS[@]}"}"; do kill "$pid" 2>/dev/null || true; done
    rm -rf "$SHARD_OUT" "$ROUTER_OUT" "$SCRATCH"
}
trap cleanup EXIT

await_ready() { # await_ready OUTFILE READY_PREFIX NAME
    local out=$1 prefix=$2 name=$3 url=""
    for _ in $(seq 1 100); do
        url=$(sed -n "s/^${prefix} listening on \(http:[^ ]*\).*/\1/p" "$out")
        [[ -n "$url" ]] && break
        sleep 0.2
    done
    if [[ -z "$url" ]]; then
        echo "metrics_smoke: $name never printed its ready line" >&2
        cat "$out" >&2
        exit 1
    fi
    echo "$url"
}

echo "==> metrics_smoke: booting one shard and the router"
"$SERVE" --port 0 --gen-docs 4 --gen-nodes 400 --seed 1 --workers 2 --queue-depth 8 >"$SHARD_OUT" &
PIDS+=($!)
SHARD_URL=$(await_ready "$SHARD_OUT" "extract-serve" "shard")
"$ROUTER" --port 0 --shards "${SHARD_URL#http://}" \
    --workers 2 --queue-depth 8 --deadline-ms 2000 >"$ROUTER_OUT" &
ROUTER_PID=$!; PIDS+=("$ROUTER_PID")
ROUTER_URL=$(await_ready "$ROUTER_OUT" "extract-router" "router")
echo "metrics_smoke: shard at $SHARD_URL, router at $ROUTER_URL"

TRACE="feedc0de12345678"
echo "==> metrics_smoke: driving load (one request pinned to trace $TRACE)"
for q in texas "store+name" city; do
    curl -s "$ROUTER_URL/search?q=$q&k=3" > /dev/null
done
HEADERS=$(curl -s -D - -o /dev/null -H "X-Trace-Id: $TRACE" "$ROUTER_URL/search?q=texas&k=2")
case "$HEADERS" in
    *"X-Trace-Id: $TRACE"*) echo "metrics_smoke: router echoed the client trace ID" ;;
    *) echo "metrics_smoke: X-Trace-Id not echoed; headers were:" >&2
       echo "$HEADERS" >&2
       exit 1 ;;
esac

echo "==> metrics_smoke: one ingest and one delete against the shard"
mutate() { # mutate URL [curl args…] — POST, require 200
    local status
    status=$(curl -s -o /dev/null -w '%{http_code}' -X POST "${@:2}" "$1")
    if [[ "$status" != "200" ]]; then
        echo "metrics_smoke: POST $1 returned $status" >&2
        exit 1
    fi
}
mutate "$SHARD_URL/ingest?name=smoke" \
    --data '<stores><store><name>Smoke</name><state>Texas</state></store></stores>'
mutate "$SHARD_URL/delete?doc=smoke"

# check_metrics URL NAME — scrape and validate one daemon's /metrics.
check_metrics() {
    local url=$1 name=$2 body="$SCRATCH/$2.metrics" status
    status=$(curl -s -o "$body" -w '%{http_code}' "$url/metrics")
    if [[ "$status" != "200" ]]; then
        echo "metrics_smoke: $name /metrics returned $status" >&2
        cat "$body" >&2
        exit 1
    fi
    # Every line must match the text exposition 0.0.4 grammar: a # HELP
    # or # TYPE directive, or `name{labels} value`.
    if LC_ALL=C grep -Ev \
        '^(# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]* .*|[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? -?[0-9.e+-]+|\+?Inf|)$' \
        "$body" | grep -q .; then
        echo "metrics_smoke: $name /metrics has lines outside the exposition grammar:" >&2
        LC_ALL=C grep -Ev \
            '^(# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]* .*|[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? -?[0-9.e+-]+|\+?Inf|)$' \
            "$body" >&2
        exit 1
    fi
    # The stage histograms must be populated where the work happened.
    local count
    count=$(sed -n 's/^extract_request_stage_duration_seconds_count{stage="search"} \([0-9]*\)$/\1/p' "$body")
    if [[ -z "$count" || "$count" -lt 1 ]]; then
        echo "metrics_smoke: $name search stage histogram is empty (count=$count)" >&2
        cat "$body" >&2
        exit 1
    fi
    echo "metrics_smoke: $name /metrics valid, search stage count=$count"
}

echo "==> metrics_smoke: scraping /metrics on both tiers"
check_metrics "$ROUTER_URL" router
check_metrics "$SHARD_URL" shard
grep -q 'extract_router_shard_latency_seconds_bucket{shard="0"' "$SCRATCH/router.metrics" \
    || { echo "metrics_smoke: router missing per-shard latency histogram" >&2; exit 1; }
grep -q '^extract_request_stage_duration_seconds_count{stage="snippet"} [1-9]' "$SCRATCH/shard.metrics" \
    || { echo "metrics_smoke: shard snippet stage histogram is empty" >&2; exit 1; }
grep -q '^extract_snippet_cache_bytes [1-9]' "$SCRATCH/shard.metrics" \
    || { echo "metrics_smoke: shard extract_snippet_cache_bytes gauge missing or zero" >&2
         grep '^extract_snippet_cache_bytes' "$SCRATCH/shard.metrics" >&2
         exit 1; }
echo "metrics_smoke: shard snippet cache holds $(sed -n 's/^extract_snippet_cache_bytes //p' "$SCRATCH/shard.metrics") bytes"

for series in 'op="ingest",phase="parse"' 'op="ingest",phase="index"' \
    'op="ingest",phase="publish"' 'op="ingest",phase="invalidate"' \
    'op="delete",phase="publish"' 'op="delete",phase="invalidate"'; do
    grep -q "^extract_mutation_duration_seconds_count{$series} 1\$" "$SCRATCH/shard.metrics" \
        || { echo "metrics_smoke: shard mutation series {$series} is not at count 1" >&2
             grep '^extract_mutation_duration_seconds_count' "$SCRATCH/shard.metrics" >&2
             exit 1; }
done
echo "metrics_smoke: shard mutation histograms hold one ingest and one delete"

echo "==> metrics_smoke: the pinned trace must appear in both flight recorders"
check_traces() { # check_traces URL NAME
    local url=$1 name=$2 body="$SCRATCH/$2.traces" status
    status=$(curl -s -o "$body" -w '%{http_code}' "$url/debug/traces")
    if [[ "$status" != "200" ]]; then
        echo "metrics_smoke: $name /debug/traces returned $status" >&2
        exit 1
    fi
    "$JSONV" "$body" || { echo "metrics_smoke: $name /debug/traces is not valid JSON" >&2; exit 1; }
    if ! grep -q "\"$TRACE\"" "$body"; then
        echo "metrics_smoke: trace $TRACE missing from $name /debug/traces:" >&2
        cat "$body" >&2
        exit 1
    fi
    echo "metrics_smoke: $name /debug/traces valid, trace $TRACE present"
}
check_traces "$ROUTER_URL" router
check_traces "$SHARD_URL" shard

echo "==> metrics_smoke: graceful shutdown"
curl -s -X POST "$ROUTER_URL/shutdown" > /dev/null
for _ in $(seq 1 100); do
    kill -0 "$ROUTER_PID" 2>/dev/null || break
    sleep 0.2
done
if kill -0 "$ROUTER_PID" 2>/dev/null; then
    echo "metrics_smoke: router did not exit after /shutdown" >&2
    exit 1
fi
wait "$ROUTER_PID" || { echo "metrics_smoke: router exited non-zero" >&2; exit 1; }
curl -s -X POST "$SHARD_URL/shutdown" > /dev/null || true
echo "metrics_smoke: green"
