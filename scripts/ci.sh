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

# The batched undo scopes' exhaustive crash check: one 32-block cache
# refill and one 129-block drain, cut at every mutation event in Strict
# mode and under 8 Adversarial seeds (some 11k cut runs), each recovered
# to the pre- or post-scope metadata image byte for byte. Unoptimised
# builds skip it (minutes there, seconds here).
echo "== cargo test --release -p poseidon every_cut (exhaustive scope crash points)"
cargo test --release -q -p poseidon every_cut

# The whole substrate, optimised as the benchmark builds it: the one
# access body in both view modes and its seeded differential (device API
# against a mapped view: every result and error, every counter but
# validations and meta_maps, the media after Strict and Adversarial
# crashes), the fence domains, and the sparse chunk store's own
# differential against a flat byte array with its racing readers,
# writers and first-touch materialisation.
echo "== cargo test --release -p pmem (substrate)"
cargo test --release -q -p pmem

# The building blocks under every device access and every cached
# operation, optimised as the benchmark builds them: the lazily
# materialised array (racing first touch, absent and past-the-end reads,
# iteration), the striped counter rows (exact sums across threads,
# reset), the shared hash functions against their reference vectors, and
# the rest of the platform layer.
echo "== cargo test --release -p platform (building blocks)"
cargo test --release -q -p platform

# Fuzzers gate merges too, with fixed seeds for determinism: every case
# injects a crash at a random mutation event anywhere in its workload
# (or, under --poison-live, poison while the heap serves) and must end in
# a clean recovery with accurate quarantine accounting or a typed
# MediaError — never a panic.
# After every power cycle the harness checks the undo ordering, the
# sub-heap and extent-table audits and that the heap still serves; the
# default, full-home and threads arms also check the cache-residency
# invariant (cache-held blocks stay media-FREE). The threads arm's
# interleaving is not fixed by its seed, only each worker's op stream.
# One row per sweep: iters, seed, flags, and why the row exists.
crashfuzz_rows=(
    "50 314159 --tx"                # crash points over small, huge, cached, tx and ptx ops
    "50 314159 --tx --poison"       # the same sweep with media errors armed beside the crash
    "40 271828 --tx --poison"       # a second seed whose draws run huge-heavy
    "50 161803"                     # no ptx pool: the cached-path sweep
    "40 314159 --poison-live"       # poison while serving: live quarantine, failover, scrubber
    "50 314159 --grow"              # the layout-epoch commit is crash-atomic
    "40 271828 --grow --poison"     # growth with media errors interleaved
    "50 314159 --maint"             # crashes at maintenance commit points, then convergence
    "40 271828 --maint --poison"    # maintenance with media errors interleaved
    "40 161803 --maint --grow"      # maintenance beside growth: the superblock's re-driven rollback
    "100 314159 --full-home"        # a full home: spill refills, spill-pool drains, last-resort eviction
    "200 314159 --threads 2"        # two workers in flight at the cut: per-thread fences, cross-thread frees
)
for row in "${crashfuzz_rows[@]}"; do
    read -r iters seed flags <<<"$row"
    echo "== crashfuzz --iters $iters${flags:+ $flags} --seed $seed"
    # $flags stays unquoted: it splits into separate arguments.
    cargo run --release --bin crashfuzz -- --iters "$iters" $flags --seed "$seed"
done

# Online self-healing gates: the quarantine-vs-frontend race and
# bulk-fault integration tests.
echo "== cargo test online_ (live self-healing integration)"
cargo test -q --test robustness online_

# Online-growth gates: the growth integration tests cover the
# 256 MiB -> 4 GiB concurrent-serving scenario, the post-grow TooLarge
# regression, the v1 -> v2 reopen migration, and torn-epoch repair.
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
# comparison).
echo "== cargo test --workspace maint (maintenance engine)"
cargo test --workspace -q maint

# The benchmark's smoke test builds perfbench (its own package, path
# dependencies on these crates) and runs every workload at tiny scale,
# so a program change that breaks the benchmark fails the gate.
echo "== perfbench smoke test"
cargo test --release --offline --manifest-path perfbench/Cargo.toml -q

# The design ablations at quick scale (~12 s on 2 vCPUs): besides the
# projected panels, the per-op validations, fences, flushes, locks and
# cache hits of warm 256B pairs, the 1-64 MiB huge-path sweep, which
# asserts that it leaves the extent table empty, and the ptx/pds costs.
echo "== repro ablation (quick scale)"
cargo run --release -q -p bench --bin repro -- ablation

# Exact-counter gate: the benchmark's counter pass (fences, flushes,
# validations, metadata maps, undo traffic, metadata lines, wrpkru, lock
# acquisitions per fixed request stream) is host-independent and
# identical on every run of a seed. Full scale, because tiny scale keeps
# larson-spill inside the cache, away from the persistent paths. A field
# above scripts/counter_baseline.txt fails the gate; a field below it is
# printed with the new line, which the change that lowered it commits.
echo "== perfbench exact-counter gate"
span_dir=$(mktemp -d)
trap 'rm -rf "$span_dir"' EXIT
for workload in micro-256 larson-spill kv-soak; do
    now=$(cargo run --release -q --offline --manifest-path perfbench/Cargo.toml -- \
        --workload "$workload" --seed 1 --seconds 1 --trace 1 --out "$span_dir" | grep '^counter pass:')
    base=$(grep "^$workload counter pass:" scripts/counter_baseline.txt || true)
    echo "$workload $now"
    awk -v workload="$workload" -v now="$now" -v base="$base" '
        # Fields are name=value; name=local+remoter splits in two.
        function parse(line, out,   n, i, tok, kv, parts) {
            n = split(line, tok, " ")
            for (i = 1; i <= n; i++) {
                if (split(tok[i], kv, "=") != 2) continue
                if (split(kv[2], parts, "+") == 2) {
                    sub(/r$/, "", parts[2])
                    out[kv[1]] = parts[1]
                    out[kv[1] "_remote"] = parts[2]
                } else {
                    out[kv[1]] = kv[2]
                }
            }
        }
        BEGIN {
            if (base == "") { print workload ": no baseline line"; exit 1 }
            parse(base, b)
            parse(now, c)
            bad = 0
            for (k in b) {
                if (!(k in c)) { print workload ": " k " missing"; bad = 1 }
                else if (c[k] + 0 > b[k] + 0) { print workload ": " k " rose " b[k] " -> " c[k]; bad = 1 }
                else if (c[k] + 0 < b[k] + 0) { print workload ": " k " fell " b[k] " -> " c[k] " (refresh the baseline)" }
            }
            for (k in c) if (!(k in b)) { print workload ": " k " has no baseline"; bad = 1 }
            exit bad
        }'
done

echo "CI gate passed."
