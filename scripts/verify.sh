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
#      cargo test --release -p extract-search
#                                     — the search proptests where integer
#                                       overflow wraps instead of panicking
#      cargo test --release -p extract-analyzer
#                                     — the analyzer oracles, likewise
#      PROPTEST_CASES=2048 cargo test --release -p extract-core
#      PROPTEST_CASES=2048 cargo test --release --test snippet_digest
#                                     — the snippet kernel's oracles (IList
#                                       dedup and order, return entities,
#                                       the tree, the selectors, whole-
#                                       document results read from the
#                                       root record), the LRU reference
#                                       models and the served snippet
#                                       bytes at CI's case count
#      PROPTEST_CASES=16384 cargo test --release -p extract-core
#          --test lru_model           — the LRU reference models again,
#                                       colliding keys walking the hash
#                                       chains, plain and admitting caches
#                                       (the snippet cache's door) alike
#                                       (well under a second)
#      PROPTEST_CASES=2048 cargo test --release
#          -p extract-xml -p extract-index -p extract-corpus
#                                     — the interner, tokenizer, index and
#                                       routing oracles at CI's case count
#      PROPTEST_CASES=2048 cargo test --release -p extract --lib session::
#      PROPTEST_CASES=2048 cargo test --release -p extract --test corpus
#      PROPTEST_CASES=2048 cargo test --release -p extract --test live --
#          every_search_through_the_caches_equals_a_cacheless_twin
#          miss_hit_and_uncached_bodies_are_byte_equal
#          page_misses_made_of_cached_snippets_equal_a_cacheless_twin
#                                     — the window oracles (the ranking
#                                       prefix arithmetic saturates at
#                                       usize::MAX), the corpus oracles
#                                       (sessions on several threads over
#                                       one cache bundle), the caches
#                                       against a cache-less twin across
#                                       random mutations (the rankings
#                                       patched to them) and the joined
#                                       result objects of page misses at
#                                       CI's case count
#      PROPTEST_CASES=32 cargo test --release --test router
#                                     — router ≡ union daemon byte for
#                                       byte (windows, ties, a delete) at
#                                       CI's case count
#   3. cargo clippy ... -D warnings   — lint-clean across all targets
#   4. xlint --deny-warnings          — workspace invariants (lock order,
#                                       condvar loops, panic-free serving
#                                       path, unsafe hygiene, casts, and
#                                       the GuardFlow lints L6-L9)
#   5. xlint_list_check.sh            — README lint catalog matches --list
#   6. cargo build -p extract-bench --bins
#                                     — the bench binaries compile
#      cargo check --manifest-path benchmark/Cargo.toml
#                                     — the end-to-end harness compiles
#                                       against the library API (it is its
#                                       own package, outside the workspace)
#   7. obs_overhead                   — stage timing on vs off over the
#                                       live daemon, cache-hot: < 5 %
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
run cargo test -q --offline --release -p extract-search
run cargo test -q --offline --release -p extract-analyzer
run env PROPTEST_CASES=2048 cargo test -q --offline --release -p extract-core
run env PROPTEST_CASES=2048 cargo test -q --offline --release --test snippet_digest
run env PROPTEST_CASES=16384 cargo test -q --offline --release -p extract-core --test lru_model
run env PROPTEST_CASES=2048 cargo test -q --offline --release \
    -p extract-xml -p extract-index -p extract-corpus
run env PROPTEST_CASES=2048 cargo test -q --offline --release -p extract --lib session::
run env PROPTEST_CASES=2048 cargo test -q --offline --release -p extract --test corpus
run env PROPTEST_CASES=2048 cargo test -q --offline --release -p extract --test live -- \
    every_search_through_the_caches_equals_a_cacheless_twin \
    miss_hit_and_uncached_bodies_are_byte_equal \
    page_misses_made_of_cached_snippets_equal_a_cacheless_twin
run env PROPTEST_CASES=32 cargo test -q --offline --release --test router
run cargo clippy --workspace --all-targets --offline -- -D warnings
run cargo run --offline -q -p extract-xlint -- --deny-warnings
run scripts/xlint_list_check.sh
run cargo build --release --offline -p extract-bench --bins
run cargo check --offline --manifest-path benchmark/Cargo.toml
run cargo run --release --offline -q -p extract-bench --bin obs_overhead

echo "verify: all gates green"
