#!/usr/bin/env bash
# Tier-1 verification gate for the eXtract workspace.
#
# Usage: scripts/verify.sh
#
# Runs, in order:
#   1. cargo build --release          — every crate, bin, and example
#   2. cargo test -q                  — unit, integration, property, doc tests
#      cargo test --release --test alloc_budget
#                                     — the allocation budgets again, on the
#                                       profile that ships
#   3. cargo clippy ... -D warnings   — lint-clean across all targets
#   4. xlint --deny-warnings          — workspace invariants (lock order,
#                                       condvar loops, panic-free serving
#                                       path, unsafe hygiene, casts, and
#                                       the GuardFlow lints L6-L9)
#   5. xlint_list_check.sh            — README lint catalog matches --list
#   6. cargo bench --no-run           — every Criterion bench compiles
#   7. scripts/bench.sh --check       — the bench binaries compile
#
# The serving daemon additionally has scripts/serve_smoke.sh (boot, probe,
# drain), run as its own CI job.
#
# All commands run with --offline: every dependency is a path-local
# vendored shim (vendor/), so no registry access is needed or wanted.
set -euo pipefail
cd "$(dirname "$0")/.."

run() {
    echo "==> $*"
    "$@"
}

run cargo build --release --offline
run cargo test -q --offline
run cargo test -q --offline --release --test alloc_budget
run cargo clippy --workspace --all-targets --offline -- -D warnings
run cargo run --offline -q -p extract-xlint -- --deny-warnings
run scripts/xlint_list_check.sh
run cargo bench --no-run --offline
run scripts/bench.sh --check

echo "verify: all gates green"
