#!/usr/bin/env bash
# Tier-1 CI gate, run fully offline. The workspace has no external
# dependencies (see DESIGN.md §5), so CARGO_NET_OFFLINE=true must never
# cause a failure — if it does, a crates.io dependency crept back in.
set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true

echo "== cargo fmt --check"
cargo fmt --all --check

# Test-only code stays out of production paths: an item only tests use
# is deleted or moved into the test module, never kept alive behind an
# allow(dead_code).
echo "== no allow(dead_code) under crates/*/src or src/"
if grep -rnE "allow\([^)]*dead_code" crates/*/src src; then
    echo "allow(dead_code) found above: delete the unused item instead" >&2
    exit 1
fi

echo "== cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo build --release"
cargo build --release

echo "== cargo test -q"
cargo test -q

echo "== cargo test --workspace -q"
cargo test --workspace -q

# The huge-object region's own test module gates merges explicitly
# (extent-table invariants, routing, recovery, repair, transactions).
echo "== cargo test -p poseidon huge (huge-region module)"
cargo test -p poseidon -q huge

# Fuzzers gate merges too, with fixed seeds for determinism: a bounded
# crash-point sweep, and the same sweep with uncorrectable media errors
# interleaved (every case must end in a clean recovery with accurate
# quarantine accounting or a typed MediaError — never a panic). The
# workload mixes huge allocations/frees, huge+micro spanning
# transactions, and cached-path churn bursts in with the small ops, and
# the harness checks the extent-table invariant plus the cache-residency
# invariant (cache-held blocks stay media-FREE) after every power cycle.
echo "== crashfuzz --iters 50 --tx (fixed seed)"
cargo run --release --bin crashfuzz -- --iters 50 --tx --seed 314159

echo "== crashfuzz --iters 50 --tx --poison (fixed seed)"
cargo run --release --bin crashfuzz -- --iters 50 --tx --poison --seed 314159

echo "== crashfuzz --iters 40 --tx --poison (fixed seed, huge-heavy)"
cargo run --release --bin crashfuzz -- --iters 40 --tx --poison --seed 271828

echo "== crashfuzz --iters 50 (fixed seed, cached-path sweep)"
cargo run --release --bin crashfuzz -- --iters 50 --seed 161803

# Online self-healing gates: live-fault cases (poison armed while the
# heap serves, scrubber ticking concurrently; every case must end with
# balanced quarantine accounting, a poison-free cache, no poisoned
# block handed out, and verdicts that survive a crash), plus the
# quarantine-vs-frontend race and bulk-fault integration tests.
echo "== crashfuzz --iters 40 --poison-live (fixed seed)"
cargo run --release --bin crashfuzz -- --iters 40 --poison-live --seed 314159

echo "== cargo test online_ (live self-healing integration)"
cargo test -q --test robustness online_

# Online-growth gates: the layout-epoch commit must be crash-atomic at
# every mutation event (fixed-seed fuzz sweeps, with and without media
# faults interleaved), and the growth integration tests cover the
# 256 MiB -> 4 GiB concurrent-serving scenario, the post-grow TooLarge
# regression, the v1 -> v2 reopen migration, and torn-epoch repair.
echo "== crashfuzz --iters 50 --grow (fixed seed)"
cargo run --release --bin crashfuzz -- --iters 50 --grow --seed 314159

echo "== crashfuzz --iters 40 --grow --poison (fixed seed)"
cargo run --release --bin crashfuzz -- --iters 40 --grow --poison --seed 271828

echo "== cargo test --test growth (online-growth integration)"
cargo test -q --test growth

echo "== pfsck tool tests"
cargo test -q --test pfsck_tool

# KV service soak gate: the traffic-shaped regression test. Mixed
# zipfian traffic from 4 client threads over 4 FAST-FAIR shards on one
# uncached heap, with a kill-and-resume (reopen must verify every
# acknowledged key in O(metadata) time) and live media poison (service
# must degrade, heal by rewrite, and keep the quarantine books
# balanced) injected mid-run. The binary panics on any lost key,
# corrupt value, out-of-order scan, failed recovery, or accounting
# imbalance — fixed seed for determinism.
echo "== kvserve soak gate (fixed seed, kill+poison)"
cargo run --release -q -p bench --bin kvserve -- \
    --threads 4 --shards 4 --keys 4000 --ops 4000 --seed 424242 \
    --events kill,poison

# The KV service contract suite: arbitrary-point kill-and-resume
# (acknowledged inserts survive any crash point), reopen-latency
# scaling (16x the data bytes at equal block count must leave reopen
# flat), and a full soak riding out kill + poison + grow in one run.
echo "== cargo test --test service (KV service contract)"
cargo test -q --test service

# Maintenance-engine gates: the unit/integration tests for the budgeted
# incremental defragmenter (budget ceilings, cursor persistence,
# fragmentation accounting, trigger policy, engine-on-vs-off soak
# comparison), then fixed-seed crash sweeps over a pre-fragmented heap
# where the crash lands at maintenance-unit commit points — block
# accounting and extent tiling must audit clean after every recovery,
# and a post-recovery convergence loop must drive coalescing debt to
# exactly zero. The grow arm exercises the superblock undo area's
# re-driven rollback as well.
echo "== cargo test --workspace maint (maintenance engine)"
cargo test --workspace -q maint

echo "== crashfuzz --iters 50 --maint (fixed seed)"
cargo run --release --bin crashfuzz -- --iters 50 --maint --seed 314159

echo "== crashfuzz --iters 40 --maint --poison (fixed seed)"
cargo run --release --bin crashfuzz -- --iters 40 --maint --poison --seed 271828

echo "== crashfuzz --iters 40 --maint --grow (fixed seed)"
cargo run --release --bin crashfuzz -- --iters 40 --maint --grow --seed 161803

# The benchmark's smoke test builds perfbench (its own package, path
# dependencies on these crates) and runs every workload at tiny scale,
# so a program change that breaks the benchmark fails the gate.
echo "== perfbench smoke test"
cargo test --release --offline --manifest-path perfbench/Cargo.toml -q

echo "CI gate passed."
