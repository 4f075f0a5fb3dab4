//! YCSB over the persistent B+-tree (§7.5, Figure 9).
//!
//! The paper loads 10 M keys into a FAST-FAIR tree and runs Workload A
//! (50 % reads / 50 % updates, zipfian key popularity). Updates are the
//! allocator-heavy part: allocate a new value buffer, persist it, swap
//! the tree pointer, free the old buffer.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::alloc_api::PersistentAllocator;
use crate::driver::{run_threads, RunResult, Xorshift};
use crate::fastfair::FastFair;

/// Parameters of a YCSB run.
#[derive(Debug, Clone, Copy)]
pub struct YcsbConfig {
    /// Worker thread count.
    pub threads: usize,
    /// Keys loaded in the Load phase (paper: 10 M; scale for CI).
    pub load_keys: u64,
    /// Operations per thread in Workload A.
    pub ops_per_thread: u64,
    /// Value payload size (YCSB default field ~100 B).
    pub value_size: u64,
    /// Zipfian skew (YCSB default 0.99).
    pub theta: f64,
    /// RNG seed.
    pub seed: u64,
}

impl YcsbConfig {
    /// Paper-shaped defaults at a given scale.
    pub fn new(threads: usize, load_keys: u64, ops_per_thread: u64) -> YcsbConfig {
        YcsbConfig { threads, load_keys, ops_per_thread, value_size: 100, theta: 0.99, seed: 0x9C5B }
    }
}

/// FNV-1a-style hashing that spreads sequential ids over the key space.
/// Its multiplier is `0x1000_0000_01B3`, not FNV's prime
/// `0x100_0000_01B3`, so it is not `platform::rng::fnv1a`; every YCSB and
/// kvserve key depends on it.
pub(crate) fn fnv(x: u64) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    for byte in x.to_le_bytes() {
        hash ^= byte as u64;
        hash = hash.wrapping_mul(0x1000_0000_01B3);
    }
    hash
}

/// The YCSB zipfian generator (Gray et al. / YCSB's `ZipfianGenerator`).
#[derive(Debug, Clone)]
pub struct Zipfian {
    items: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
}

impl Zipfian {
    /// Prepares a generator over `items` ranks with skew `theta`.
    ///
    /// # Panics
    ///
    /// Panics if `items == 0` or `theta` is not in `(0, 1)`.
    pub fn new(items: u64, theta: f64) -> Zipfian {
        assert!(items > 0, "zipfian over zero items");
        assert!(theta > 0.0 && theta < 1.0, "theta must be in (0, 1)");
        let zetan = Self::zeta(items, theta);
        let zeta2 = Self::zeta(2, theta);
        Zipfian {
            items,
            theta,
            alpha: 1.0 / (1.0 - theta),
            zetan,
            eta: (1.0 - (2.0 / items as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan),
        }
    }

    fn zeta(n: u64, theta: f64) -> f64 {
        (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum()
    }

    /// Ranks this generator draws from.
    pub fn items(&self) -> u64 {
        self.items
    }

    /// Grows the rank space to `items`, extending `zetan` incrementally
    /// (O(delta), not O(items)) exactly as YCSB's `ZipfianGenerator`
    /// does when records are inserted behind it. No-op if `items` does
    /// not exceed the current space.
    pub fn extend(&mut self, items: u64) {
        if items <= self.items {
            return;
        }
        for i in self.items + 1..=items {
            self.zetan += 1.0 / (i as f64).powf(self.theta);
        }
        self.items = items;
        let zeta2 = Self::zeta(2, self.theta);
        self.eta = (1.0 - (2.0 / items as f64).powf(1.0 - self.theta)) / (1.0 - zeta2 / self.zetan);
    }

    /// Draws a rank in `[0, items)`; rank 0 is the most popular.
    pub fn sample(&self, rng: &mut Xorshift) -> u64 {
        let u = rng.unit_f64();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let rank = (self.items as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        rank.min(self.items - 1)
    }
}

/// Builds a tree and loads `config.load_keys` keys with allocated,
/// persisted values — the paper's Load phase. Returns the tree and the
/// load throughput.
///
/// # Panics
///
/// Panics on allocator failure.
pub fn run_load<A: PersistentAllocator + ?Sized>(
    alloc: &Arc<A>,
    config: YcsbConfig,
) -> (Arc<FastFair<A>>, RunResult) {
    let tree = Arc::new(FastFair::new(alloc.clone()).expect("tree root allocation"));
    let per_thread = config.load_keys / config.threads as u64;
    let result = {
        let tree = tree.clone();
        run_threads(config.threads, move |thread_index| {
            let begin = thread_index as u64 * per_thread;
            let end = if thread_index == config.threads - 1 { config.load_keys } else { begin + per_thread };
            let dev = tree_device(&tree);
            for i in begin..end {
                let key = fnv(i);
                let value = allocate_value(&tree, &dev, key, config.value_size);
                tree.insert(key, value).expect("load insert");
            }
            end - begin
        })
    };
    (tree, result)
}

/// Runs a read/update mix over a loaded tree; `update_permille` of
/// operations are updates (allocate a fresh value buffer, swap it into
/// the tree, free the old one), the rest are reads.
///
/// # Panics
///
/// Panics on allocator failure or a missing key (load must precede).
pub fn run_workload<A: PersistentAllocator + ?Sized>(
    tree: &Arc<FastFair<A>>,
    config: YcsbConfig,
    update_permille: u64,
) -> RunResult {
    let zipf = Zipfian::new(config.load_keys, config.theta);
    run_threads(config.threads, |thread_index| {
        let mut rng = Xorshift::new(config.seed ^ (thread_index as u64 + 1).wrapping_mul(0x51AB));
        let dev = tree_device(tree);
        let mut read_checksum = 0u64;
        for _ in 0..config.ops_per_thread {
            let key = fnv(zipf.sample(&mut rng));
            if rng.below(1000) < update_permille {
                // Update: new buffer in, old buffer out.
                let fresh = allocate_value(tree, &dev, key, config.value_size);
                let old = tree.update(key, fresh).expect("loaded key missing");
                tree_alloc(tree).free(old).expect("free old value");
            } else {
                // Read: fetch the value pointer and its payload.
                let value = tree.get(key).expect("loaded key missing");
                let first: u64 = dev.read_pod(value).expect("value read");
                read_checksum = read_checksum.wrapping_add(first);
            }
        }
        assert_ne!(read_checksum, u64::MAX);
        config.ops_per_thread
    })
}

/// YCSB Workload A: 50 % reads / 50 % updates — the allocation-heavy mix
/// the paper evaluates (Figure 9).
pub fn run_workload_a<A: PersistentAllocator + ?Sized>(
    tree: &Arc<FastFair<A>>,
    config: YcsbConfig,
) -> RunResult {
    run_workload(tree, config, 500)
}

/// YCSB Workload B: 95 % reads / 5 % updates. The paper skips it as
/// "mostly read-intensive" — running it shows why: the allocator's
/// influence nearly vanishes.
pub fn run_workload_b<A: PersistentAllocator + ?Sized>(
    tree: &Arc<FastFair<A>>,
    config: YcsbConfig,
) -> RunResult {
    run_workload(tree, config, 50)
}

/// YCSB Workload C: 100 % reads — zero allocator involvement.
pub fn run_workload_c<A: PersistentAllocator + ?Sized>(
    tree: &Arc<FastFair<A>>,
    config: YcsbConfig,
) -> RunResult {
    run_workload(tree, config, 0)
}

/// YCSB Workload E: 95 % short range scans / 5 % inserts. Exercises the
/// tree's leaf sibling chain; inserts are the only allocator work.
///
/// Scan starts are zipfian over the keys that exist *now*, not just the
/// load-phase population: threads publish a shared high-water mark of
/// inserted ids and periodically extend their local generator's rank
/// space to it (the YCSB `ZipfianGenerator` discipline). Sampling only
/// `[0, load_keys)` would leave every key inserted during the run
/// unscannable — the workload would silently stop exercising the
/// freshly-split right edge of the tree.
///
/// # Panics
///
/// Panics on allocator failure.
pub fn run_workload_e<A: PersistentAllocator + ?Sized>(
    tree: &Arc<FastFair<A>>,
    config: YcsbConfig,
) -> RunResult {
    let zipf = Zipfian::new(config.load_keys, config.theta);
    // Highest inserted id + 1, across all threads (ids are striped per
    // thread, so gaps exist until every stripe catches up; scans only
    // use ids as range starts, so gaps are harmless).
    let watermark = AtomicU64::new(config.load_keys);
    run_threads(config.threads, |thread_index| {
        let mut rng = Xorshift::new(config.seed ^ (thread_index as u64 + 1).wrapping_mul(0xE5E5));
        let dev = tree_device(tree);
        let mut zipf = zipf.clone();
        let mut scanned = 0u64;
        let mut next_insert = config.load_keys + thread_index as u64 * config.ops_per_thread;
        for op in 0..config.ops_per_thread {
            if rng.below(100) < 5 {
                // Insert a fresh key past the loaded range.
                let key = fnv(next_insert);
                next_insert += 1;
                let value = allocate_value(tree, &dev, key, config.value_size);
                tree.insert(key, value).expect("workload E insert");
                watermark.fetch_max(next_insert, Ordering::Relaxed);
            } else {
                if op % 64 == 0 {
                    // Fold other threads' inserts into the sampled space.
                    zipf.extend(watermark.load(Ordering::Relaxed));
                }
                let start = fnv(zipf.sample(&mut rng));
                let len = 1 + rng.below(100) as usize;
                scanned += tree.scan(start, len).len() as u64;
            }
        }
        assert_ne!(scanned, u64::MAX);
        config.ops_per_thread
    })
}

fn tree_device<A: PersistentAllocator + ?Sized>(tree: &FastFair<A>) -> Arc<pmem::PmemDevice> {
    tree_alloc(tree).device().clone()
}

fn tree_alloc<A: PersistentAllocator + ?Sized>(tree: &FastFair<A>) -> &A {
    tree.allocator()
}

fn allocate_value<A: PersistentAllocator + ?Sized>(
    tree: &FastFair<A>,
    dev: &pmem::PmemDevice,
    key: u64,
    size: u64,
) -> u64 {
    let value = tree_alloc(tree).alloc(size).expect("value allocation");
    dev.write_pod(value, &key).expect("value write");
    dev.persist(value, 8).expect("value persist");
    value
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alloc_api::AllocatorKind;
    use pmem::{DeviceConfig, PmemDevice};

    #[test]
    fn zipfian_skews_toward_low_ranks() {
        let zipf = Zipfian::new(1000, 0.99);
        let mut rng = Xorshift::new(7);
        let mut top10 = 0;
        let samples = 20_000;
        for _ in 0..samples {
            let rank = zipf.sample(&mut rng);
            assert!(rank < 1000);
            if rank < 10 {
                top10 += 1;
            }
        }
        // With theta = 0.99, the top 1% of ranks draws a large share.
        assert!(top10 as f64 / samples as f64 > 0.2, "top10 share {top10}/{samples}");
    }

    #[test]
    fn extend_matches_a_fresh_generator() {
        // Incremental zetan accumulates terms in the same order a fresh
        // generator sums them, so the two must agree bit-for-bit —
        // including the sample stream they induce.
        let mut grown = Zipfian::new(1000, 0.99);
        grown.extend(5000);
        assert_eq!(grown.items(), 5000);
        let fresh = Zipfian::new(5000, 0.99);
        let mut a = Xorshift::new(11);
        let mut b = Xorshift::new(11);
        for _ in 0..10_000 {
            assert_eq!(grown.sample(&mut a), fresh.sample(&mut b));
        }
        // Shrinking or no-op extends leave the generator untouched.
        let before = grown.clone();
        grown.extend(5000);
        grown.extend(10);
        let mut a = Xorshift::new(3);
        let mut b = Xorshift::new(3);
        assert_eq!(grown.sample(&mut a), before.sample(&mut b));
    }

    #[test]
    fn extended_generator_reaches_the_new_ranks() {
        // The old Workload E sampled a generator frozen at `load_keys`:
        // no scan could ever start at an inserted key. After extend(),
        // ranks past the original space must actually get drawn.
        let mut zipf = Zipfian::new(500, 0.5);
        zipf.extend(1000);
        let mut rng = Xorshift::new(42);
        let past_load = (0..20_000).filter(|_| zipf.sample(&mut rng) >= 500).count();
        assert!(past_load > 1000, "only {past_load}/20000 samples reached the extended ranks");
    }

    #[test]
    fn load_then_workload_a() {
        for kind in AllocatorKind::ALL {
            let dev = Arc::new(PmemDevice::new(DeviceConfig::bench(256 << 20)));
            let alloc: Arc<dyn PersistentAllocator> = kind.build(dev);
            let config = YcsbConfig::new(2, 2000, 500);
            let (tree, load) = run_load(&alloc, config);
            assert_eq!(load.total_ops, 2000, "{}", kind.name());
            assert_eq!(tree.len(), 2000, "{}", kind.name());
            let a = run_workload_a(&tree, config);
            assert_eq!(a.total_ops, 1000, "{}", kind.name());
        }
    }

    #[test]
    fn large_values_route_through_the_huge_region() {
        use poseidon::{HeapConfig, PoseidonHeap};

        // Values at 0.5x and 1x `max_alloc` stay on the buddy path;
        // 4x crosses into the extent-table huge region. Each phase ends
        // with audited balances: structural audit plus an extent count
        // that matches exactly what the tree holds.
        for (numerator, denominator, via_huge) in [(1u64, 2u64, false), (1, 1, false), (4, 1, true)] {
            let dev = Arc::new(PmemDevice::new(DeviceConfig::bench(256 << 20)));
            let heap = Arc::new(PoseidonHeap::create(dev, HeapConfig::new().with_subheaps(16)).unwrap());
            let layout = heap.layout().clone();
            let max = layout.max_alloc();
            let value_size = max * numerator / denominator;
            assert_eq!(via_huge, value_size > max);
            if via_huge {
                // Two live values plus one in-flight update copy.
                assert!(
                    3 * value_size <= layout.huge_data_size(),
                    "huge region {} too small for 3 x {value_size} values",
                    layout.huge_data_size()
                );
            }

            let mut config = YcsbConfig::new(2, 2, 0);
            config.value_size = value_size;
            let (tree, load) = run_load(&heap, config);
            assert_eq!(load.total_ops, 2, "{value_size}-byte load");
            assert_eq!(tree.len(), 2);

            // Updates allocate the fresh value before freeing the old
            // one; run them single-threaded so at most one extra value
            // is in flight. Sub-heap-sized values skip updates — one
            // sub-heap cannot hold two `max_alloc` blocks at once.
            let mut mix = config;
            mix.threads = 1;
            mix.ops_per_thread = 16;
            let mixed = run_workload(&tree, mix, if via_huge { 500 } else { 0 });
            assert_eq!(mixed.total_ops, 16, "{value_size}-byte workload");

            heap.audit().unwrap();
            let huge = heap.huge_audit().unwrap().expect("bench device carves a huge region");
            if via_huge {
                assert_eq!(huge.alloc_extents, 2, "one extent per live value");
                assert_eq!(huge.alloc_bytes, 2 * value_size);
            } else {
                assert_eq!(huge.alloc_extents, 0, "<= max_alloc values must stay on the buddy path");
                assert_eq!(huge.free_bytes, layout.huge_data_size());
            }

            // Release every value through the same allocator surface
            // the tree used; the huge region must coalesce back into a
            // single free extent covering the whole data region.
            for i in 0..2u64 {
                let value = tree.get(fnv(i)).expect("loaded key missing");
                PersistentAllocator::free(&*heap, value).unwrap();
            }
            heap.audit().unwrap();
            let huge = heap.huge_audit().unwrap().unwrap();
            assert_eq!(huge.alloc_extents, 0);
            assert_eq!(huge.free_extents, 1, "freed extents must coalesce");
            assert_eq!(huge.free_bytes, layout.huge_data_size());
        }
    }

    #[test]
    fn workload_e_scans_and_inserts() {
        let dev = Arc::new(PmemDevice::new(DeviceConfig::bench(128 << 20)));
        let alloc: Arc<dyn PersistentAllocator> = AllocatorKind::Poseidon.build(dev);
        let config = YcsbConfig::new(2, 800, 300);
        let (tree, _) = run_load(&alloc, config);
        let e = run_workload_e(&tree, config);
        assert_eq!(e.total_ops, 600);
        assert!(tree.len() > 800);
    }

    #[test]
    fn read_heavy_workloads_run() {
        let dev = Arc::new(PmemDevice::new(DeviceConfig::bench(128 << 20)));
        let alloc: Arc<dyn PersistentAllocator> = AllocatorKind::Poseidon.build(dev);
        let config = YcsbConfig::new(2, 1000, 400);
        let (tree, _) = run_load(&alloc, config);
        let stats_before = alloc.device().stats().write_ops;
        let b = run_workload_b(&tree, config);
        assert_eq!(b.total_ops, 800);
        let c = run_workload_c(&tree, config);
        assert_eq!(c.total_ops, 800);
        // Workload C performs no allocator writes beyond value reads.
        let _ = stats_before;
        assert_eq!(tree.len(), 1000);
    }
}
