#!/usr/bin/env bash
# The benchmark's one entry point: build the release `serve`, `router`
# and harness binaries (offline, into $CARGO_TARGET_DIR or
# benchmark/target), then hand every argument to the harness.
#
#   benchmark/run.sh                         all four workloads, end-to-end table
#   benchmark/run.sh --traced                … plus the traced pass and the per-layer table
#   benchmark/run.sh --check                 1 s per workload: spawn → oracle → metrics → teardown
#   benchmark/run.sh --repeat 5 --save A.json
#   benchmark/run.sh --compare A.json B.json
#   benchmark/run.sh --workload shard_hot --seed 7 --seconds 25 --trace 0   (BENCHMARK.json contract)
#   benchmark/run.sh --test                  the harness's own unit tests
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root"

# A relative CARGO_TARGET_DIR is taken from the repo root.
target="${CARGO_TARGET_DIR:-$here/target}"
case "$target" in /*) ;; *) target="$root/$target" ;; esac
export CARGO_TARGET_DIR="$target"

if [ "${1:-}" = "--test" ]; then
    exec cargo test --release --offline --manifest-path "$here/Cargo.toml"
fi

# All three binaries come out of one build of the benchmark's own
# workspace, so they share one profile and one target directory. Build
# chatter goes to stderr; stdout belongs to the harness.
cargo build --release --offline --manifest-path "$here/Cargo.toml" \
    -p extract --bin serve \
    -p extract-router --bin router \
    -p extract-benchmark --bin extract-benchmark 1>&2

exec "$target/release/extract-benchmark" --out "$here/out" "$@"
