#!/usr/bin/env bash
# CI smoke test for the `serve` daemon: build it, boot it against a small
# generated corpus, hit /healthz, /search and /stats, assert 200 + well-
# formed JSON (validated by the dependency-free `jsonv` binary), then
# exercise graceful shutdown and require a clean exit.
#
# Usage: scripts/serve_smoke.sh
#
# Three layers:
#   1. `serve --self-check` — the daemon's built-in loopback round
#      (including two requests over one kept-alive socket), which needs
#      no external tools at all;
#   2. raw bytes over a bash `/dev/tcp` socket against the shipped
#      binary's framing guard: a duplicate `Content-Length` is a `400`
#      that closes the connection, `Transfer-Encoding` a `501`, and a
#      fresh `/search` after both still answers `200`;
#   3. when `curl` is available, the self-check's probes again from a
#      real external client over the wire, plus a keep-alive probe: two
#      requests on one reused connection, verified against the server's
#      own `reused_requests` counter on /stats.
#
# All commands run with --offline: every dependency is a path-local
# vendored shim (vendor/), so no registry access is needed or wanted.
set -euo pipefail
cd "$(dirname "$0")/.."

SERVE=target/release/serve
JSONV=target/release/jsonv

echo "==> serve_smoke: building the daemon and the JSON validator"
cargo build --release --offline --bin serve --bin jsonv

echo "==> serve_smoke: built-in self-check (ephemeral port, loopback round)"
"$SERVE" --self-check --gen-docs 6 --gen-nodes 500 --workers 2 --queue-depth 8

echo "==> serve_smoke: booting the daemon for external probes"
OUT=$(mktemp)
"$SERVE" --port 0 --gen-docs 6 --gen-nodes 500 --workers 2 --queue-depth 8 >"$OUT" &
PID=$!
trap 'kill "$PID" 2>/dev/null || true; rm -f "$OUT"' EXIT

# Wait for the single ready line and extract the bound address.
URL=""
for _ in $(seq 1 100); do
    URL=$(sed -n 's/^extract-serve listening on \(http:[^ ]*\).*/\1/p' "$OUT")
    [[ -n "$URL" ]] && break
    if ! kill -0 "$PID" 2>/dev/null; then
        echo "serve_smoke: daemon died before becoming ready" >&2
        cat "$OUT" >&2
        exit 1
    fi
    sleep 0.2
done
if [[ -z "$URL" ]]; then
    echo "serve_smoke: daemon never printed its ready line" >&2
    exit 1
fi
echo "serve_smoke: daemon ready at $URL"
ADDR=${URL#http://}

raw() { # raw REQUEST → the whole response, read until the server closes
    local fd
    exec {fd}<>"/dev/tcp/${ADDR%:*}/${ADDR##*:}"
    printf '%b' "$1" >&"$fd"
    timeout 10 cat <&"$fd" || true
    exec {fd}>&-
}

raw_probe() { # raw_probe NAME REQUEST STATUS_LINE BODY
    local name=$1 request=$2 want_status=$3 want_body=$4 response
    response=$(raw "$request" | tr -d '\r')
    if [[ "$(head -n 1 <<<"$response")" != "$want_status" ]] \
        || ! grep -qx 'Connection: close' <<<"$response" \
        || [[ "$(tail -n 1 <<<"$response")" != "$want_body" ]]; then
        echo "serve_smoke: $name: want $want_status, Connection: close, $want_body; got" >&2
        echo "$response" >&2
        exit 1
    fi
    echo "serve_smoke: $name → $want_status, connection closed"
}

echo "==> serve_smoke: framing guard over a raw socket"
raw_probe "duplicate Content-Length" \
    'POST /ingest?name=smuggle HTTP/1.1\r\nHost: smoke\r\nContent-Length: 2\r\nContent-Length: 2\r\n\r\nhi' \
    'HTTP/1.1 400 Bad Request' '{"error":"duplicate Content-Length"}'
raw_probe "Transfer-Encoding" \
    'POST /ingest?name=smuggle HTTP/1.1\r\nHost: smoke\r\nTransfer-Encoding: chunked\r\n\r\n2\r\nhi\r\n0\r\n\r\n' \
    'HTTP/1.1 501 Not Implemented' '{"error":"Transfer-Encoding not supported"}'
SEARCH=$(raw 'GET /search?q=texas&k=1 HTTP/1.1\r\nHost: smoke\r\nConnection: close\r\n\r\n' | tr -d '\r')
if [[ "$(head -n 1 <<<"$SEARCH")" != "HTTP/1.1 200 OK" ]]; then
    echo "serve_smoke: /search after the framing probes did not answer 200:" >&2
    echo "$SEARCH" >&2
    exit 1
fi
echo "serve_smoke: a fresh /search after both → 200"

if ! command -v curl >/dev/null; then
    echo "serve_smoke: curl not available — skipping the curl probes"
else
    echo "==> serve_smoke: external probes over the wire (curl)"

    probe() { # probe METHOD PATH EXPECTED_STATUS
        local method=$1 path=$2 want=$3 body status
        body=$(mktemp)
        status=$(curl -s -X "$method" -o "$body" -w '%{http_code}' "$URL$path")
        if [[ "$status" != "$want" ]]; then
            echo "serve_smoke: $method $path returned $status (want $want)" >&2
            cat "$body" >&2
            rm -f "$body"
            exit 1
        fi
        "$JSONV" "$body" || { echo "serve_smoke: $method $path body is not valid JSON" >&2; exit 1; }
        rm -f "$body"
        echo "serve_smoke: $method $path → $status, valid JSON"
    }

    probe GET  "/healthz" 200
    probe GET  "/search?q=texas&k=3" 200
    probe GET  "/search?q=store+name&k=2&offset=1" 200
    probe GET  "/stats" 200
    probe GET  "/search" 400
    probe GET  "/no-such-route" 404

    echo "==> serve_smoke: keep-alive probe (two requests, one socket)"
    # One curl invocation with two URLs reuses the connection; the server's
    # own counter proves it (the self-check already covered this without
    # curl, but this exercises a real external client).
    BEFORE=$(curl -s "$URL/stats" | sed -n 's/.*"reused_requests":\([0-9]*\).*/\1/p')
    curl -s "$URL/search?q=texas&k=1" "$URL/healthz" > /dev/null
    AFTER=$(curl -s "$URL/stats" | sed -n 's/.*"reused_requests":\([0-9]*\).*/\1/p')
    if [[ -z "$BEFORE" || -z "$AFTER" ]]; then
        echo "serve_smoke: /stats is missing the reused_requests counter" >&2
        exit 1
    fi
    if (( AFTER <= BEFORE )); then
        echo "serve_smoke: connection was not reused (reused_requests $BEFORE -> $AFTER)" >&2
        exit 1
    fi
    echo "serve_smoke: connection reused (reused_requests $BEFORE -> $AFTER)"
fi

echo "==> serve_smoke: graceful shutdown"
SHUTDOWN=$(raw 'POST /shutdown HTTP/1.1\r\nHost: smoke\r\nConnection: close\r\n\r\n' | tr -d '\r')
if [[ "$(head -n 1 <<<"$SHUTDOWN")" != "HTTP/1.1 200 OK" \
    || "$(tail -n 1 <<<"$SHUTDOWN")" != '{"draining":true}' ]]; then
    echo "serve_smoke: POST /shutdown did not answer 200 {\"draining\":true}:" >&2
    echo "$SHUTDOWN" >&2
    exit 1
fi
echo "serve_smoke: POST /shutdown → 200, draining"
for _ in $(seq 1 100); do
    kill -0 "$PID" 2>/dev/null || break
    sleep 0.2
done
if kill -0 "$PID" 2>/dev/null; then
    echo "serve_smoke: daemon did not exit after /shutdown" >&2
    exit 1
fi
wait "$PID" || { echo "serve_smoke: daemon exited non-zero" >&2; exit 1; }
trap 'rm -f "$OUT"' EXIT

echo "serve_smoke: green"
