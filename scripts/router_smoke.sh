#!/usr/bin/env bash
# CI smoke test for the scatter-gather router: build the shard daemon
# and the router, boot two shards plus a router in front of them, probe
# /healthz, /search and /stats over the wire (200 + well-formed JSON,
# validated by the dependency-free `jsonv` binary), require that the
# healthy searches never left the inline scatter path
# (`extract_router_scatter_escalations_total 0`), then hard-kill one
# shard and require graceful degradation: /search keeps answering 200
# with `"partial": true`, exactly one shard answering, and the dead
# shard's circuit breaker opens. Finishes with a graceful router
# shutdown and a clean exit.
#
# Usage: scripts/router_smoke.sh
#
# All commands run with --offline: every dependency is a path-local
# vendored shim (vendor/), so no registry access is needed or wanted.
set -euo pipefail
cd "$(dirname "$0")/.."

SERVE=target/release/serve
ROUTER=target/release/router
JSONV=target/release/jsonv

echo "==> router_smoke: building the daemon, the router and the JSON validator"
cargo build --release --offline --bin serve --bin jsonv
cargo build --release --offline -p extract-router --bin router

if ! command -v curl >/dev/null; then
    # The in-process equivalents of every probe below run in the test
    # suites (crates/router/tests/scatter.rs, tests/router.rs); this
    # script's value is the real-multi-process wire check, which needs
    # an external client.
    echo "router_smoke: curl not available — skipping wire probes"
    exit 0
fi

SHARD_A_OUT=$(mktemp)
SHARD_B_OUT=$(mktemp)
ROUTER_OUT=$(mktemp)
PIDS=()
cleanup() {
    for pid in "${PIDS[@]+"${PIDS[@]}"}"; do kill "$pid" 2>/dev/null || true; done
    rm -f "$SHARD_A_OUT" "$SHARD_B_OUT" "$ROUTER_OUT"
}
trap cleanup EXIT

# await_ready OUTFILE READY_PREFIX NAME — waits for the single ready
# line and prints the bound http URL.
await_ready() {
    local out=$1 prefix=$2 name=$3 url=""
    for _ in $(seq 1 100); do
        url=$(sed -n "s/^${prefix} listening on \(http:[^ ]*\).*/\1/p" "$out")
        [[ -n "$url" ]] && break
        sleep 0.2
    done
    if [[ -z "$url" ]]; then
        echo "router_smoke: $name never printed its ready line" >&2
        cat "$out" >&2
        exit 1
    fi
    echo "$url"
}

echo "==> router_smoke: booting two shard daemons"
"$SERVE" --port 0 --gen-docs 4 --gen-nodes 400 --seed 1 --workers 2 --queue-depth 8 >"$SHARD_A_OUT" &
SHARD_A_PID=$!; PIDS+=("$SHARD_A_PID")
"$SERVE" --port 0 --gen-docs 3 --gen-nodes 400 --seed 2 --workers 2 --queue-depth 8 >"$SHARD_B_OUT" &
SHARD_B_PID=$!; PIDS+=("$SHARD_B_PID")
SHARD_A_URL=$(await_ready "$SHARD_A_OUT" "extract-serve" "shard A")
SHARD_B_URL=$(await_ready "$SHARD_B_OUT" "extract-serve" "shard B")
echo "router_smoke: shards ready at $SHARD_A_URL and $SHARD_B_URL"

echo "==> router_smoke: booting the router in front of them"
"$ROUTER" --port 0 --shards "${SHARD_A_URL#http://},${SHARD_B_URL#http://}" \
    --workers 2 --queue-depth 8 --deadline-ms 2000 --breaker-cooldown-ms 500 >"$ROUTER_OUT" &
ROUTER_PID=$!; PIDS+=("$ROUTER_PID")
URL=$(await_ready "$ROUTER_OUT" "extract-router" "router")
echo "router_smoke: router ready at $URL"

probe() { # probe METHOD PATH EXPECTED_STATUS
    local method=$1 path=$2 want=$3 body status
    body=$(mktemp)
    status=$(curl -s -X "$method" -o "$body" -w '%{http_code}' "$URL$path")
    if [[ "$status" != "$want" ]]; then
        echo "router_smoke: $method $path returned $status (want $want)" >&2
        cat "$body" >&2
        rm -f "$body"
        exit 1
    fi
    "$JSONV" "$body" || { echo "router_smoke: $method $path body is not valid JSON" >&2; exit 1; }
    rm -f "$body"
    echo "router_smoke: $method $path → $status, valid JSON"
}

probe GET  "/healthz" 200
probe GET  "/search?q=texas&k=3" 200
probe GET  "/search?q=store+name&k=2&offset=1" 200
probe GET  "/stats" 200
probe GET  "/search" 400
probe GET  "/no-such-route" 404

echo "==> router_smoke: both shards answering, response must not be partial"
BODY=$(curl -s "$URL/search?q=texas&k=5")
case "$BODY" in
    *'"partial":false'*) echo "router_smoke: full result from 2 shards" ;;
    *) echo "router_smoke: expected \"partial\":false, got: $BODY" >&2; exit 1 ;;
esac

echo "==> router_smoke: healthy searches must not have left the inline scatter path"
ESCALATIONS=$(curl -s "$URL/metrics" | sed -n 's/^extract_router_scatter_escalations_total \([0-9]*\)$/\1/p')
if [[ "$ESCALATIONS" != "0" ]]; then
    echo "router_smoke: extract_router_scatter_escalations_total is '$ESCALATIONS' (want 0)" >&2
    exit 1
fi
echo "router_smoke: extract_router_scatter_escalations_total 0"

echo "==> router_smoke: hard-killing shard B"
kill -9 "$SHARD_B_PID"
wait "$SHARD_B_PID" 2>/dev/null || true

# The very next search must still be 200 — degraded, not down: the dead
# shard is dropped from the response after its retries fail.
BODY=$(curl -s -w '\n%{http_code}' "$URL/search?q=texas&k=5")
STATUS=${BODY##*$'\n'}
BODY=${BODY%$'\n'*}
if [[ "$STATUS" != "200" ]]; then
    echo "router_smoke: search after shard death returned $STATUS (want 200)" >&2
    echo "$BODY" >&2
    exit 1
fi
case "$BODY" in
    *'"partial":true'*'"answered":1'*) echo "router_smoke: degraded to partial, 1 of 2 shards answering" ;;
    *) echo "router_smoke: expected partial result with answered:1, got: $BODY" >&2; exit 1 ;;
esac

echo "==> router_smoke: the dead shard's breaker must open"
OPENS=""
for _ in $(seq 1 50); do
    curl -s "$URL/search?q=texas&k=2" > /dev/null
    OPENS=$(curl -s "$URL/stats" | sed -n 's/.*"breaker_opens":\([0-9]*\).*/\1/p')
    [[ -n "$OPENS" && "$OPENS" -ge 1 ]] && break
    sleep 0.1
done
if [[ -z "$OPENS" || "$OPENS" -lt 1 ]]; then
    echo "router_smoke: breaker never opened for the dead shard (breaker_opens=$OPENS)" >&2
    curl -s "$URL/stats" >&2
    exit 1
fi
echo "router_smoke: breaker opened (breaker_opens=$OPENS)"

echo "==> router_smoke: router /healthz stays 200 with one live shard"
probe GET "/healthz" 200

echo "==> router_smoke: graceful shutdown"
probe POST "/shutdown" 200
for _ in $(seq 1 100); do
    kill -0 "$ROUTER_PID" 2>/dev/null || break
    sleep 0.2
done
if kill -0 "$ROUTER_PID" 2>/dev/null; then
    echo "router_smoke: router did not exit after /shutdown" >&2
    exit 1
fi
wait "$ROUTER_PID" || { echo "router_smoke: router exited non-zero" >&2; exit 1; }

curl -s -X POST "$SHARD_A_URL/shutdown" > /dev/null || true
echo "router_smoke: green"
