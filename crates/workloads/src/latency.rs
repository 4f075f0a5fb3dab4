//! Operation-latency measurement — the §4.7 constant-time claim.
//!
//! Poseidon manages memory-block records in a multi-level hash table so
//! that "regardless of the pool size or allocation size, allocation and
//! free time is constant"; PMDK indexes free chunks in an AVL tree
//! (logarithmic) and rebuilds its DRAM caches by re-scanning NVMM
//! (linear), so its latency grows — and spikes — with heap population.
//! This module measures single-threaded alloc/free latency percentiles
//! at a configurable live-object population.

use crate::alloc_api::PersistentAllocator;

/// Latency percentiles of one measurement run, in nanoseconds of thread
/// CPU time per operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyReport {
    /// Median.
    pub p50: u64,
    /// 90th percentile.
    pub p90: u64,
    /// 99th percentile.
    pub p99: u64,
    /// 99.9th percentile.
    pub p999: u64,
    /// Worst observed.
    pub max: u64,
    /// Arithmetic mean.
    pub mean: u64,
}

impl LatencyReport {
    fn from_samples(mut samples: Vec<u64>) -> LatencyReport {
        assert!(!samples.is_empty());
        samples.sort_unstable();
        // Nearest-rank (ceil) percentiles: the q-th percentile is the
        // smallest sample with at least ceil(q * len) samples at or below
        // it. A truncating index ((len-1) * q) biases high quantiles low
        // at small sample counts (10 samples: p999 would return the
        // 9th-smallest instead of the max).
        let at = |q: f64| {
            let rank = ((samples.len() as f64 * q).ceil() as usize).clamp(1, samples.len());
            samples[rank - 1]
        };
        // Sum in u128: len * u64-sized samples overflows a u64 sum.
        let sum: u128 = samples.iter().map(|&v| v as u128).sum();
        LatencyReport {
            p50: at(0.50),
            p90: at(0.90),
            p99: at(0.99),
            p999: at(0.999),
            max: *samples.last().expect("non-empty"),
            mean: (sum / samples.len() as u128) as u64,
        }
    }
}

/// Parameters of a latency run.
#[derive(Debug, Clone, Copy)]
pub struct LatencyConfig {
    /// Live objects resident in the heap while measuring (the §4.7 sweep
    /// variable: constant-time designs are insensitive to it).
    pub live_objects: u64,
    /// Alloc+free pairs to measure.
    pub pairs: u64,
    /// Object size in bytes.
    pub size: u64,
    /// Free every other resident object before measuring, fragmenting
    /// the free space (grows PMDK's AVL tree / Makalu's chunk map with
    /// `live_objects / 2` disjoint ranges).
    pub fragment: bool,
}

impl LatencyConfig {
    /// Defaults at a given population.
    pub fn new(live_objects: u64, pairs: u64) -> LatencyConfig {
        LatencyConfig { live_objects, pairs, size: 256, fragment: false }
    }

    /// Sets the object size.
    pub fn with_size(mut self, size: u64) -> LatencyConfig {
        self.size = size;
        self
    }

    /// Enables free-space fragmentation before measurement.
    pub fn fragmented(mut self) -> LatencyConfig {
        self.fragment = true;
        self
    }
}

/// Fills the heap with `config.live_objects` live blocks, then measures
/// the CPU-time latency of `config.pairs` alloc+free pairs. Returns
/// `(alloc_report, free_report)`.
///
/// # Panics
///
/// Panics on allocator failure (size the pool generously).
pub fn measure<A: PersistentAllocator + ?Sized>(
    alloc: &A,
    config: LatencyConfig,
) -> (LatencyReport, LatencyReport) {
    pmem::numa::set_current_cpu(0);
    let mut resident = Vec::with_capacity(config.live_objects as usize);
    for _ in 0..config.live_objects {
        resident.push(
            alloc.alloc(config.size).unwrap_or_else(|e| panic!("{}: latency fill failed: {e}", alloc.name())),
        );
    }
    if config.fragment {
        // Free every other resident: the surviving neighbours prevent
        // coalescing, so the free-space index holds ~live/2 ranges.
        let mut keep = Vec::with_capacity(resident.len() / 2);
        for (i, offset) in resident.drain(..).enumerate() {
            if i % 2 == 0 {
                alloc.free(offset).unwrap_or_else(|e| panic!("{}: fragment free: {e}", alloc.name()));
            } else {
                keep.push(offset);
            }
        }
        resident = keep;
    }
    let mut alloc_ns = Vec::with_capacity(config.pairs as usize);
    let mut free_ns = Vec::with_capacity(config.pairs as usize);
    for _ in 0..config.pairs {
        let t0 = platform::thread::cpu_time_ns();
        let offset = alloc
            .alloc(config.size)
            .unwrap_or_else(|e| panic!("{}: latency alloc failed: {e}", alloc.name()));
        let t1 = platform::thread::cpu_time_ns();
        alloc.free(offset).unwrap_or_else(|e| panic!("{}: latency free failed: {e}", alloc.name()));
        let t2 = platform::thread::cpu_time_ns();
        alloc_ns.push(t1 - t0);
        free_ns.push(t2 - t1);
    }
    for offset in resident {
        let _ = alloc.free(offset);
    }
    (LatencyReport::from_samples(alloc_ns), LatencyReport::from_samples(free_ns))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alloc_api::AllocatorKind;
    use pmem::{DeviceConfig, PmemDevice};
    use std::sync::Arc;

    #[test]
    fn percentiles_are_ordered() {
        let r = LatencyReport::from_samples((1..=1000).collect());
        assert!(r.p50 <= r.p90 && r.p90 <= r.p99 && r.p99 <= r.p999 && r.p999 <= r.max);
        assert_eq!(r.max, 1000);
        assert_eq!(r.mean, 500);
    }

    #[test]
    fn small_sample_percentiles_use_nearest_rank() {
        // 10 samples: nearest-rank p99/p999 are the max. The old
        // truncating index ((len-1) * q) returned the 9th-smallest for
        // both, silently under-reporting the tail.
        let r = LatencyReport::from_samples((1..=10).collect());
        assert_eq!(r.p50, 5, "p50 of 1..=10 is the 5th-smallest (rank ceil(5.0))");
        assert_eq!(r.p90, 9);
        assert_eq!(r.p99, 10, "p99 of 10 samples must be the max");
        assert_eq!(r.p999, 10, "p999 of 10 samples must be the max");
        assert_eq!(r.max, 10);

        // A single outlier must show up in every tail percentile of a
        // small run, not get truncated away.
        let mut spike = vec![100u64; 99];
        spike.push(1_000_000);
        let r = LatencyReport::from_samples(spike);
        assert_eq!(r.p99, 100, "rank ceil(100 * 0.99) = 99 -> the 99th-smallest");
        assert_eq!(r.p999, 1_000_000, "rank ceil(100 * 0.999) = 100 -> the max (old code: 99th)");

        // Degenerate single sample: every percentile is that sample.
        let r = LatencyReport::from_samples(vec![7]);
        assert_eq!((r.p50, r.p90, r.p99, r.p999, r.max, r.mean), (7, 7, 7, 7, 7, 7));
    }

    #[test]
    fn mean_survives_u64_sum_overflow() {
        // Two near-max samples: the old u64 sum wrapped (or panicked in
        // debug builds); the u128 sum reports the true mean.
        let r = LatencyReport::from_samples(vec![u64::MAX, u64::MAX]);
        assert_eq!(r.mean, u64::MAX);
        let r = LatencyReport::from_samples(vec![u64::MAX - 1, u64::MAX]);
        assert_eq!(r.mean, u64::MAX - 1);
    }

    #[test]
    fn measures_all_allocators() {
        for kind in AllocatorKind::ALL {
            let dev = Arc::new(PmemDevice::new(DeviceConfig::bench(256 << 20)));
            let alloc = kind.build(dev);
            let (a, f) = measure(&*alloc, LatencyConfig::new(200, 100));
            assert!(a.p50 > 0, "{}", kind.name());
            assert!(f.p50 > 0, "{}", kind.name());
        }
    }

    #[test]
    fn poseidon_latency_is_population_insensitive() {
        // The §4.7 claim, as a test: p50 at 8000 live blocks is within 4x
        // of p50 at 100 live blocks (generous bound for CI noise).
        let run = |live: u64| {
            let dev = Arc::new(PmemDevice::new(DeviceConfig::bench(1 << 30)));
            let alloc = AllocatorKind::Poseidon.build(dev);
            measure(&*alloc, LatencyConfig::new(live, 300)).0
        };
        let small = run(100);
        let large = run(8_000);
        assert!(
            large.p50 < small.p50 * 4,
            "alloc p50 grew with population: {} -> {} ns",
            small.p50,
            large.p50
        );
    }
}
