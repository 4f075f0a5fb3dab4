//! Integration tests for the transient caching layer: the lock-free fast
//! path in front of the persistent buddy allocator. Pins the tentpole's
//! acceptance bar (a warm cached pair costs zero fences, zero lock
//! acquisitions, zero device traffic), the durability contract
//! (publish-on-`set_root`, publish-and-drain on clean close, evaporation
//! plus reclamation across a crash), the bounded-cache degradations, and
//! the full-home detour (the full-class hint, the cached spill and the
//! last-resort eviction).

use std::collections::HashSet;
use std::sync::Arc;

use pmem::{CrashMode, DeviceConfig, NumaTopology, PmemDevice};
use poseidon::{HeapConfig, NvmPtr, PoseidonError, PoseidonHeap};

fn fresh(bytes: u64) -> Arc<PmemDevice> {
    Arc::new(PmemDevice::new(DeviceConfig::new(bytes)))
}

#[test]
fn warm_cached_pairs_cost_no_fences_locks_or_device_ops() {
    let dev = fresh(64 << 20);
    let heap = PoseidonHeap::create(dev.clone(), HeapConfig::new().with_subheaps(1)).unwrap();
    pmem::numa::set_current_cpu(0);

    // Warm up: the first alloc refills the magazine, the frees park in it.
    let warm: Vec<_> = (0..16).map(|_| heap.alloc(64).unwrap()).collect();
    for p in warm {
        heap.free(p).unwrap();
    }

    let locks_before: u64 = heap.contention_profile().iter().map(|p| p.acquisitions).sum();
    let before = dev.stats();
    for _ in 0..1000 {
        let p = heap.alloc(64).unwrap();
        heap.free(p).unwrap();
    }
    let after = dev.stats();
    let locks_after: u64 = heap.contention_profile().iter().map(|p| p.acquisitions).sum();

    // The acceptance bar, pinned exactly: no fences, no flushes, no
    // metadata word traffic, no locks — 2000 operations of pure DRAM.
    assert_eq!(after.sfence_count, before.sfence_count, "cached path fenced");
    assert_eq!(after.clwb_count, before.clwb_count, "cached path flushed");
    assert_eq!(after.write_ops, before.write_ops, "cached path wrote the device");
    assert_eq!(after.read_ops, before.read_ops, "cached path read the device");
    assert_eq!(locks_after, locks_before, "cached path took a lock");

    // And the stats agree: 2000 hits, no refills or drains in the loop.
    let profile = heap.contention_profile();
    let cache = profile[0].cache.expect("sub-heap profile carries cache stats");
    assert!(cache.hits >= 2000, "expected >= 2000 cache hits, got {}", cache.hits);
    assert!(cache.hit_rate() > 0.90, "hit rate {:.3}", cache.hit_rate());
}

#[test]
fn close_drains_the_cache_and_the_audit_balances() {
    let dev = fresh(64 << 20);
    let heap = PoseidonHeap::create(dev.clone(), HeapConfig::new().with_subheaps(2)).unwrap();
    let free_before: u64 = {
        // Touch both sub-heaps so creation doesn't skew the totals.
        pmem::numa::set_current_cpu(0);
        let a = heap.alloc(64).unwrap();
        pmem::numa::set_current_cpu(1);
        let b = heap.alloc(64).unwrap();
        heap.free(b).unwrap();
        pmem::numa::set_current_cpu(0);
        heap.free(a).unwrap();
        heap.audit().unwrap().iter().map(|(_, a)| a.free_bytes).sum()
    };
    // Leave the cache loaded: resident blocks in magazines and pools.
    let held: Vec<_> = (0..32).map(|_| heap.alloc(96).unwrap()).collect();
    for p in held {
        heap.free(p).unwrap();
    }
    heap.close().unwrap();

    // The reload must see an ordinary heap: nothing flagged, nothing
    // reclaimed, every byte back on the free lists.
    let heap = PoseidonHeap::load(dev, HeapConfig::new()).unwrap();
    assert_eq!(heap.recovery_report().cached_blocks_reclaimed, 0, "clean close left flagged records");
    let audits = heap.audit().unwrap();
    let free_after: u64 = audits.iter().map(|(_, a)| a.free_bytes).sum();
    let alloc_after: u64 = audits.iter().map(|(_, a)| a.alloc_bytes).sum();
    assert_eq!(alloc_after, 0);
    assert_eq!(free_after, free_before, "close leaked cached bytes");
}

#[test]
fn checked_out_blocks_survive_close_as_real_allocations() {
    let dev = fresh(64 << 20);
    let heap = PoseidonHeap::create(dev.clone(), HeapConfig::new().with_subheaps(1)).unwrap();
    pmem::numa::set_current_cpu(0);
    let p = heap.alloc(256).unwrap();
    // Still checked out (never freed): the clean close publishes it.
    heap.close().unwrap();

    let heap = PoseidonHeap::load(dev, HeapConfig::new()).unwrap();
    assert_eq!(heap.block_size(p).unwrap(), 256, "published block lost its record");
    heap.free(p).unwrap();
    assert!(matches!(heap.free(p), Err(PoseidonError::DoubleFree { .. })));
}

#[test]
fn set_root_publishes_cached_allocations_before_anchoring() {
    let dev = fresh(64 << 20);
    let heap = PoseidonHeap::create(dev.clone(), HeapConfig::new().with_subheaps(1)).unwrap();
    pmem::numa::set_current_cpu(0);
    let p = heap.alloc(128).unwrap();
    heap.set_root(p).unwrap();
    // Crash without a clean close: the anchored block must survive.
    drop(heap);
    dev.simulate_crash(CrashMode::Strict, 11);

    let heap = PoseidonHeap::load(dev, HeapConfig::new()).unwrap();
    let root = heap.root().unwrap();
    assert_eq!(root, p, "root pointer lost");
    assert_eq!(heap.block_size(root).unwrap(), 128, "anchored block evaporated");
    heap.free(root).unwrap();
}

#[test]
fn crash_reclaims_cache_withdrawn_blocks() {
    let dev = fresh(64 << 20);
    let heap = PoseidonHeap::create(dev.clone(), HeapConfig::new().with_subheaps(1)).unwrap();
    pmem::numa::set_current_cpu(0);
    let free_seeded: u64 = {
        let p = heap.alloc(64).unwrap();
        heap.free(p).unwrap();
        // The cache now holds a withdrawn magazine batch; the audit
        // accounts it as free capacity.
        heap.audit().unwrap().iter().map(|(_, a)| a.free_bytes).sum()
    };
    assert!(!heap.cache_snapshot().is_empty(), "cache should be holding blocks");
    // No close: the cache evaporates.
    drop(heap);
    dev.simulate_crash(CrashMode::Strict, 5);

    let heap = PoseidonHeap::load(dev, HeapConfig::new()).unwrap();
    let report = heap.recovery_report();
    assert!(report.cached_blocks_reclaimed > 0, "no flagged records reclaimed: {report:?}");
    let audits = heap.audit().unwrap();
    assert_eq!(audits.iter().map(|(_, a)| a.alloc_bytes).sum::<u64>(), 0);
    assert_eq!(
        audits.iter().map(|(_, a)| a.free_bytes).sum::<u64>(),
        free_seeded,
        "reclaimed bytes don't balance"
    );
}

#[test]
fn unpublished_cached_allocations_evaporate_across_a_crash() {
    // The documented durability contract: a cached allocation never
    // anchored via set_root and never cleanly closed is transient.
    let dev = fresh(64 << 20);
    let heap = PoseidonHeap::create(dev.clone(), HeapConfig::new().with_subheaps(1)).unwrap();
    pmem::numa::set_current_cpu(0);
    let p = heap.alloc(64).unwrap();
    drop(heap);
    dev.simulate_crash(CrashMode::Strict, 3);

    let heap = PoseidonHeap::load(dev, HeapConfig::new()).unwrap();
    // The block went back to the free lists; the stale pointer is now an
    // invalid free, rejected like any other.
    assert!(heap.block_size(p).is_err(), "unpublished cached allocation survived the crash");
    assert_eq!(heap.audit().unwrap().iter().map(|(_, a)| a.alloc_bytes).sum::<u64>(), 0);
}

#[test]
fn tiny_pool_degrades_to_cache_bypass_without_oom() {
    // A pool so small the cache's worst-case footprint would eat it: the
    // footprint gate must bypass large classes, and exhaustive
    // allocation must still reach the usual NoSpace — never an OOM
    // caused by blocks parked in the cache.
    let dev = fresh(8 << 20);
    let heap = PoseidonHeap::create(dev.clone(), HeapConfig::new().with_subheaps(1)).unwrap();
    pmem::numa::set_current_cpu(0);
    let mut held = Vec::new();
    loop {
        match heap.alloc(4096) {
            Ok(p) => held.push(p),
            Err(PoseidonError::NoSpace { .. }) => break,
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
    assert!(!held.is_empty());
    // Everything comes back, and the heap still audits clean.
    for p in held {
        heap.free(p).unwrap();
    }
    heap.audit().unwrap();
    // The big class went around the cache on this tiny pool.
    let profile = heap.contention_profile();
    let cache = profile[0].cache.expect("cache stats");
    assert_eq!(cache.hits, 0, "4 KiB blocks must bypass the cache on an 8 MiB pool");
}

#[test]
fn bounded_cache_drains_when_the_pool_overflows() {
    // The default cache holds a magazine of 32 blocks per CPU and class
    // and a transfer pool of 128 per sub-heap and class. Freeing far more
    // blocks than that must overflow into batched drains (visible in the
    // stats) while the audit stays balanced.
    let dev = fresh(64 << 20);
    let heap = PoseidonHeap::create(dev.clone(), HeapConfig::new().with_subheaps(1)).unwrap();
    pmem::numa::set_current_cpu(0);
    let held: Vec<_> = (0..2048).map(|_| heap.alloc(64).unwrap()).collect();
    for p in held {
        heap.free(p).unwrap();
    }
    let profile = heap.contention_profile();
    let cache = profile[0].cache.expect("cache stats");
    assert!(cache.drains > 0, "2048 frees through a 192-slot cache never drained: {cache:?}");
    // The cache never holds more than its bound.
    assert!(
        heap.cache_snapshot().len() <= 128 + 2 * 32,
        "cache exceeded its bound: {} blocks",
        heap.cache_snapshot().len()
    );
    let audits = heap.audit().unwrap();
    assert_eq!(audits.iter().map(|(_, a)| a.alloc_bytes).sum::<u64>(), 0);
}

#[test]
fn nospace_retry_evicts_the_cache_instead_of_failing() {
    // Fill the heap to the brim, free everything (loading the cache),
    // then ask for one maximal block: the slow path must evict the
    // cache's withdrawn capacity rather than reporting NoSpace.
    let dev = fresh(8 << 20);
    let heap = PoseidonHeap::create(dev.clone(), HeapConfig::new().with_subheaps(1)).unwrap();
    pmem::numa::set_current_cpu(0);
    let mut held = Vec::new();
    while let Ok(p) = heap.alloc(1024) {
        held.push(p);
        if held.len() > 100_000 {
            panic!("allocation never exhausted an 8 MiB pool");
        }
    }
    for p in held {
        heap.free(p).unwrap();
    }
    // The cache sits on withdrawn small blocks; a maximal allocation
    // needs them back (defragmented) to assemble its extent.
    let big = heap.alloc(heap.layout().max_alloc()).unwrap();
    heap.free(big).unwrap();
    heap.audit().unwrap();
}

/// A cached heap of two sub-heaps on the bench device, driven from CPU 0
/// (home: sub-heap 0).
fn two_subheaps() -> PoseidonHeap {
    let dev = Arc::new(PmemDevice::new(DeviceConfig::bench(64 << 20).with_topology(NumaTopology::new(1, 2))));
    let heap = PoseidonHeap::create(dev, HeapConfig::new().with_subheaps(2)).unwrap();
    pmem::numa::set_current_cpu(0);
    heap
}

/// Allocates `size`-byte blocks until one spills out of the full home into
/// sub-heap 1; returns every block, the spilled one last.
fn fill_home(heap: &PoseidonHeap, size: u64) -> Vec<NvmPtr> {
    let mut held = Vec::new();
    loop {
        let p = heap.alloc(size).unwrap();
        held.push(p);
        if p.subheap() == 1 {
            return held;
        }
        assert!(held.len() < 1 << 20, "sub-heap 0 never filled");
    }
}

fn lock_acquisitions(heap: &PoseidonHeap, sub: usize) -> u64 {
    heap.contention_profile()[sub].acquisitions
}

#[test]
fn a_full_home_is_skipped_without_taking_its_lock() {
    // 256 KiB blocks bypass the cache: every request takes the slow path,
    // whose spill order skips the home on its full-class hint.
    let heap = two_subheaps();
    fill_home(&heap, 256 << 10);
    heap.reset_contention();
    for _ in 0..16 {
        assert_eq!(heap.alloc(256 << 10).unwrap().subheap(), 1, "a spill left sub-heap 1");
    }
    assert_eq!(lock_acquisitions(&heap, 0), 0, "the full home's lock was taken");
}

#[test]
fn a_full_home_spills_cached_allocations_through_the_next_pool() {
    // 256 B blocks are cached: a miss at the full home is served from
    // sub-heap 1's transfer pool, refilled a magazine batch at a time.
    let heap = two_subheaps();
    fill_home(&heap, 256);
    heap.reset_contention();
    let spilled: Vec<_> = (0..256).map(|_| heap.alloc(256).unwrap()).collect();
    assert!(spilled.iter().all(|p| p.subheap() == 1), "a spill left sub-heap 1");
    assert_eq!(lock_acquisitions(&heap, 0), 0, "the full home's lock was taken");
    let spill_locks = lock_acquisitions(&heap, 1);
    assert!(spill_locks <= 32, "256 spilled allocations took sub-heap 1's lock {spill_locks} times");

    // The frees park in the spill pool and drain in batches.
    heap.reset_contention();
    for p in spilled {
        heap.free(p).unwrap();
    }
    let free_locks = lock_acquisitions(&heap, 1);
    assert!(free_locks <= 8, "256 spilled frees took sub-heap 1's lock {free_locks} times");
    heap.audit().unwrap();
}

#[test]
fn every_release_path_clears_the_full_class_hint() {
    // Slow free: an uncacheable block returns to the home's free lists.
    let heap = two_subheaps();
    let held = fill_home(&heap, 256 << 10);
    assert_eq!(heap.alloc(256 << 10).unwrap().subheap(), 1, "the home is not known full");
    heap.free(held[0]).unwrap();
    assert_eq!(heap.alloc(256 << 10).unwrap().subheap(), 0, "a slow free left the hint set");

    // Cache drain: CPU 1 frees the home's cached blocks into sub-heap 0's
    // transfer pool (128 slots) until it overflows and drains, leaving
    // CPU 0's magazine and the pool empty. (A few fill blocks took the
    // slow path when the hash table grew a level; their frees would be
    // slow frees, so they are left alone.)
    let heap = two_subheaps();
    let held = fill_home(&heap, 256);
    assert_eq!(heap.alloc(256).unwrap().subheap(), 1, "the home is not known full");
    let cached: HashSet<(u16, u64)> = heap.cache_snapshot().into_iter().collect();
    heap.reset_contention();
    pmem::numa::set_current_cpu(1);
    for &p in held.iter().filter(|p| cached.contains(&(0, p.offset()))).take(129) {
        heap.free(p).unwrap();
    }
    pmem::numa::set_current_cpu(0);
    let stats = heap.contention_profile()[0].cache.unwrap();
    assert_eq!((stats.hits, stats.drains), (129, 1), "129 cached frees should drain the pool once");
    assert_eq!(heap.alloc(256).unwrap().subheap(), 0, "a cache drain left the hint set");

    // tx_abort: the open transaction's block returns to the home.
    let heap = two_subheaps();
    assert_eq!(heap.tx_alloc(256 << 10, false).unwrap().subheap(), 0);
    fill_home(&heap, 256 << 10);
    assert_eq!(heap.alloc(256 << 10).unwrap().subheap(), 1, "the home is not known full");
    heap.tx_abort().unwrap();
    assert_eq!(heap.alloc(256 << 10).unwrap().subheap(), 0, "tx_abort left the hint set");
}

#[test]
fn nospace_retry_evicts_every_cache_when_no_subheap_can_serve() {
    // The two-sub-heap twin of the eviction test above: fill both
    // sub-heaps, free everything (loading both caches), then ask for one
    // maximal block. Both sub-heaps fail from their free lists, so the
    // last resort hands every cache back and the retry succeeds.
    let heap = two_subheaps();
    let mut held = Vec::new();
    while let Ok(p) = heap.alloc(4096) {
        held.push(p);
    }
    assert!(held.iter().any(|p| p.subheap() == 1), "the home never spilled");
    for p in held {
        heap.free(p).unwrap();
    }
    let cached = heap.cache_snapshot();
    for sub in 0..2 {
        assert!(cached.iter().any(|&(s, _)| s == sub), "sub-heap {sub}'s cache is empty");
    }
    let big = heap.alloc(heap.layout().max_alloc()).unwrap();
    heap.free(big).unwrap();
    let audits = heap.audit().unwrap();
    assert_eq!(audits.iter().map(|(_, a)| a.alloc_bytes).sum::<u64>(), 0);
    assert_eq!(audits.iter().map(|(_, a)| a.free_bytes).sum::<u64>(), 2 * heap.layout().user_size);
}

#[test]
fn every_cached_allocation_counts_one_hit_or_one_miss() {
    // Spilled allocations included: a home miss served from sub-heap 1's
    // pool is one hit there, a refill one miss at the home.
    let heap = two_subheaps();
    fill_home(&heap, 256);
    heap.reset_contention();
    for _ in 0..256 {
        heap.alloc(256).unwrap();
    }
    let stats: Vec<_> = heap.contention_profile().iter().filter_map(|p| p.cache).collect();
    let hits: u64 = stats.iter().map(|s| s.hits).sum();
    let misses: u64 = stats.iter().map(|s| s.misses).sum();
    assert_eq!(hits + misses, 256, "{hits} hits and {misses} misses for 256 allocations");
    assert!(hits >= 224, "spill-pool pops should count as hits: {hits} of 256");
}
