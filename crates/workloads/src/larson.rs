//! The Larson server benchmark (§7.3, Figure 7).
//!
//! Larson & Krishnan's classic allocator stress: a shared slot array that
//! every thread mutates — pick a random slot, free whatever lives there
//! (often allocated by *another* thread), allocate a new object of random
//! size, store it. This exercises cross-thread frees, the case §5.7
//! identifies as Poseidon's only source of sub-heap lock contention.

use platform::sync::Mutex;

use crate::alloc_api::PersistentAllocator;
use crate::driver::{run_timed, RunResult, Xorshift};
use std::time::Duration;

/// Parameters of a Larson run.
#[derive(Debug, Clone, Copy)]
pub struct LarsonConfig {
    /// Worker thread count.
    pub threads: usize,
    /// Run duration (the paper uses 10 s; scale down for CI).
    pub duration: Duration,
    /// Slots per thread in the shared array.
    pub slots_per_thread: usize,
    /// Minimum object size.
    pub min_size: u64,
    /// Maximum object size (exclusive).
    pub max_size: u64,
    /// RNG seed.
    pub seed: u64,
}

impl LarsonConfig {
    /// Paper-like defaults at the given scale.
    pub fn new(threads: usize, duration: Duration) -> LarsonConfig {
        LarsonConfig { threads, duration, slots_per_thread: 512, min_size: 8, max_size: 512, seed: 0x1A250 }
    }
}

/// Runs the benchmark; one operation = one free (if the slot was
/// occupied) plus one allocation.
///
/// # Panics
///
/// Panics on allocator failure.
pub fn run<A: PersistentAllocator + ?Sized>(alloc: &A, config: LarsonConfig) -> RunResult {
    let slots: Vec<Mutex<u64>> =
        (0..config.threads * config.slots_per_thread).map(|_| Mutex::new(0)).collect();
    let result = run_timed(config.threads, config.duration, |thread_index, stop| {
        let mut rng = Xorshift::new(config.seed ^ (thread_index as u64 + 1).wrapping_mul(0xABCD));
        let mut ops = 0u64;
        while !stop.load(std::sync::atomic::Ordering::Relaxed) {
            let slot = &slots[rng.below(slots.len() as u64) as usize];
            let size = config.min_size + rng.below(config.max_size - config.min_size);
            let mut guard = slot.lock();
            if *guard != 0 {
                alloc.free(*guard).unwrap_or_else(|e| panic!("{}: larson free failed: {e}", alloc.name()));
            }
            let offset =
                alloc.alloc(size).unwrap_or_else(|e| panic!("{}: larson alloc failed: {e}", alloc.name()));
            *guard = offset;
            drop(guard);
            ops += 1;
        }
        ops
    });
    // Drain the slots so the allocator ends balanced (and Poseidon's audit
    // can verify zero leaks in tests).
    for slot in &slots {
        let offset = *slot.lock();
        if offset != 0 {
            let _ = alloc.free(offset);
        }
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alloc_api::AllocatorKind;
    use pmem::{DeviceConfig, PmemDevice};
    use std::sync::Arc;

    #[test]
    fn cross_thread_churn_on_all_allocators() {
        for kind in AllocatorKind::ALL {
            let dev = Arc::new(PmemDevice::new(DeviceConfig::bench(128 << 20)));
            let alloc = kind.build(dev);
            let result = run(&*alloc, LarsonConfig::new(4, Duration::from_millis(100)));
            assert!(result.total_ops > 0, "{}", kind.name());
        }
    }

    #[test]
    fn poseidon_balanced_after_drain() {
        let dev = Arc::new(PmemDevice::new(DeviceConfig::bench(128 << 20)));
        let heap = poseidon::PoseidonHeap::create(dev, poseidon::HeapConfig::new().with_subheaps(4)).unwrap();
        run(&heap, LarsonConfig::new(4, Duration::from_millis(100)));
        for (sub, audit) in heap.audit().unwrap() {
            assert_eq!(audit.alloc_bytes, 0, "sub-heap {sub} leaked after drain");
        }
    }
}
