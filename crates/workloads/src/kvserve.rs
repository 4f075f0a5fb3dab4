//! A persistent KV *service* soak harness — traffic-shaped, with live
//! fault events.
//!
//! The figure benchmarks ([`ycsb`](crate::ycsb)) measure steady-state
//! throughput of one phase at a time. This module instead runs the shape
//! a real service sees, all at once: `threads` clients issue a mixed
//! zipfian read/update/insert/scan stream against `shards` independent
//! [`FastFair`] trees sharing one [`PoseidonHeap`], while a coordinator
//! thread injects the three events a long-lived deployment must survive:
//!
//! * **kill-and-resume** — the heap is dropped mid-load without
//!   [`close`](PoseidonHeap::close) (a crash), the device's unpersisted
//!   lines are scrambled, and the service reopens via
//!   [`PoseidonHeap::load`]; every acknowledged operation must still be
//!   there, and reopen time must reflect Poseidon's O(metadata) recovery,
//!   not an O(data) rescan;
//! * **live media faults** — value blocks are poisoned while serving;
//!   workers heal damaged values by rewriting them through the self-heal
//!   path (alloc fresh, swap, free the damaged block, which the budgeted
//!   [`scrub_step`](PoseidonHeap::scrub_step) then quarantines);
//! * **online grow** — the pool grows under load; workers that hit
//!   `NoSpace` raise a pressure flag and retry until the grown capacity
//!   absorbs the spill.
//!
//! Every operation's latency lands in a per-thread, per-class lock-free
//! [`LatencyHistogram`](crate::histogram::LatencyHistogram); the
//! coordinator merges them into periodic interval snapshots so a
//! regression shows up as a moving p99/p999, not just a final average.
//!
//! # Durability contract
//!
//! The service heap always runs with the DRAM cache disabled
//! ([`HeapConfig::without_cache`]): every allocation is committed in NVMM
//! when `alloc` returns, so an operation is *acknowledged* (and must
//! survive a kill) the moment its tree call returns. With the cache on,
//! checked-out blocks only become crash-safe at the next
//! [`set_root`](PoseidonHeap::set_root)/`close` publish, which is a
//! checkpointed model, not a per-op service model.
//!
//! Shard roots live in a small persistent *directory block* anchored as
//! the heap root; [`FastFair`]'s root-change hook persists a shard's new
//! root into its directory slot *before* the new root becomes visible,
//! and lookups recover from a momentarily-stale anchored root by moving
//! right along the persistent leaf chain.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use platform::sync::RwLock;
use pmem::{CrashMode, DeviceConfig, PmemDevice, PmemError};
use poseidon::{HeapConfig, HeapHealth, PoseidonHeap};

use crate::alloc_api::{AllocError, PersistentAllocator};
use crate::fastfair::FastFair;
use crate::histogram::{HistogramSnapshot, LatencyHistogram, LatencySummary};
use crate::ycsb::{fnv, Zipfian};

/// First word of the shard-root directory block.
const DIR_MAGIC: u64 = 0x4B56_5345_5256_4531; // "KVSERVE1"
/// Salt folded into the second payload word of every value.
const VALUE_SALT: u64 = 0x9E37_79B9_7F4A_7C15;
/// Bytes of each value actually written and verified.
const PAYLOAD_BYTES: u64 = 16;
/// Ops between a worker refreshing its zipfian rank space.
const ZIPF_REFRESH: u64 = 64;
/// Bounded retries for transient per-op failures before declaring the
/// service dead.
const RETRY_LIMIT: u64 = 20_000;
/// Sub-heaps of the service heap.
const SUBHEAPS: u16 = 8;
/// Committed value blocks poisoned by each poison event.
const POISON_KEYS: u64 = 4;
/// Units examined per coordinator scrub tick.
const SCRUB_BUDGET: usize = 4;

/// One class of client operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpClass {
    /// Point lookup plus payload verification.
    Read,
    /// Allocate a fresh value, swap it in, free the old one.
    Update,
    /// Insert a never-seen key with a fresh value.
    Insert,
    /// Short ascending range scan along the leaf chain.
    Scan,
}

impl OpClass {
    /// Every class, in histogram-index order.
    pub const ALL: [OpClass; 4] = [OpClass::Read, OpClass::Update, OpClass::Insert, OpClass::Scan];

    /// Stable index into per-class arrays.
    pub fn index(self) -> usize {
        match self {
            OpClass::Read => 0,
            OpClass::Update => 1,
            OpClass::Insert => 2,
            OpClass::Scan => 3,
        }
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            OpClass::Read => "read",
            OpClass::Update => "update",
            OpClass::Insert => "insert",
            OpClass::Scan => "scan",
        }
    }
}

/// A fault event the coordinator injects mid-soak.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SoakEvent {
    /// Crash the service (drop without close, scramble unpersisted
    /// lines) and resume it, verifying acknowledged data and timing the
    /// reopen.
    Kill,
    /// Poison live value blocks while serving.
    Poison,
    /// Grow the pool online while serving.
    Grow,
}

impl SoakEvent {
    /// Parses `"kill"`, `"poison"` or `"grow"`.
    pub fn parse(s: &str) -> Option<SoakEvent> {
        match s {
            "kill" => Some(SoakEvent::Kill),
            "poison" => Some(SoakEvent::Poison),
            "grow" => Some(SoakEvent::Grow),
            _ => None,
        }
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            SoakEvent::Kill => "kill",
            SoakEvent::Poison => "poison",
            SoakEvent::Grow => "grow",
        }
    }
}

/// Parameters of a soak run.
#[derive(Debug, Clone)]
pub struct KvServeConfig {
    /// Client worker threads.
    pub threads: usize,
    /// Independent [`FastFair`] shards (keys route by hash).
    pub shards: usize,
    /// Keys loaded before the soak starts.
    pub load_keys: u64,
    /// Mixed operations per worker thread.
    pub ops_per_thread: u64,
    /// Value allocation size in bytes (>= 16; only the first 16 carry
    /// the verified payload).
    pub value_size: u64,
    /// Size-class drift of value allocations: sizes ramp from
    /// `value_size` up through `value_size << spread` across the
    /// expected allocation count, modelling values that grow over the
    /// service's lifetime. Updates then free small-class blocks that
    /// are never reallocated — the freed buddies pile up side by side,
    /// which is exactly the coalescing debt the maintenance engine
    /// retires. `0` (the default) keeps every value the same size.
    pub value_spread: u64,
    /// Zipfian skew of the key popularity.
    pub theta: f64,
    /// Permille of operations that are updates.
    pub update_permille: u64,
    /// Permille of operations that are inserts.
    pub insert_permille: u64,
    /// Permille of operations that are scans (the rest are reads).
    pub scan_permille: u64,
    /// RNG seed (every worker derives its own stream from it).
    pub seed: u64,
    /// Initial device capacity in bytes.
    pub capacity: u64,
    /// Online-growth ceiling in bytes (equal to `capacity` = not
    /// growable).
    pub max_capacity: u64,
    /// Events to inject, fired in order at evenly spaced progress
    /// thresholds.
    pub events: Vec<SoakEvent>,
    /// Latency-interval snapshots to take over the run.
    pub intervals: u64,
    /// Work units per coordinator maintenance tick (`0` disables the
    /// maintenance engine for the run — the comparison baseline).
    pub maint_budget: usize,
    /// Grow early when the continuously-tracked largest free huge extent
    /// ([`PoseidonHeap::huge_largest_free`]) drops below this many bytes
    /// (`0` disables the headroom trigger; `NoSpace` pressure still
    /// grows). Requires [`SoakEvent::Grow`] in the event list.
    pub huge_headroom: u64,
}

impl KvServeConfig {
    /// Service-shaped defaults at a given scale: 60 % reads, 25 %
    /// updates, 10 % inserts, 5 % scans, theta 0.99, 128 MiB pool
    /// growable to 512 MiB, all three events.
    pub fn new(threads: usize, shards: usize, load_keys: u64, ops_per_thread: u64) -> KvServeConfig {
        KvServeConfig {
            threads,
            shards,
            load_keys,
            ops_per_thread,
            value_size: 100,
            value_spread: 0,
            theta: 0.99,
            update_permille: 250,
            insert_permille: 100,
            scan_permille: 50,
            seed: 0x5EA5_0A4B,
            capacity: 128 << 20,
            max_capacity: 512 << 20,
            events: vec![SoakEvent::Kill, SoakEvent::Poison, SoakEvent::Grow],
            intervals: 8,
            maint_budget: 4,
            huge_headroom: 0,
        }
    }

    /// Replaces the event list.
    pub fn with_events(mut self, events: Vec<SoakEvent>) -> KvServeConfig {
        self.events = events;
        self
    }

    /// Sets initial capacity and growth ceiling.
    pub fn with_capacity(mut self, capacity: u64, max: u64) -> KvServeConfig {
        self.capacity = capacity;
        self.max_capacity = max.max(capacity);
        self
    }

    /// Sets the per-tick maintenance budget (`0` = engine off).
    pub fn with_maint(mut self, budget: usize) -> KvServeConfig {
        self.maint_budget = budget;
        self
    }

    /// Sets the huge-extent headroom below which the grow event fires
    /// early (`0` = disabled).
    pub fn with_huge_headroom(mut self, bytes: u64) -> KvServeConfig {
        self.huge_headroom = bytes;
        self
    }

    /// Sets the value size-class spread (`0` = every value equal-sized).
    pub fn with_value_spread(mut self, spread: u64) -> KvServeConfig {
        self.value_spread = spread;
        self
    }

    fn total_ops(&self) -> u64 {
        self.threads as u64 * self.ops_per_thread
    }
}

/// One point of the fragmentation-over-time series: the heap's
/// [`fragmentation`](PoseidonHeap::fragmentation) totals sampled by the
/// coordinator at an interval edge (plus one final sample after the run
/// quiesces).
#[derive(Debug, Clone, Copy)]
pub struct FragSample {
    /// Global op count when the sample was taken.
    pub at_op: u64,
    /// Total free bytes across sub-heaps and the huge region.
    pub free_bytes: u64,
    /// Free bytes outside the largest coalescable runs, summed per
    /// class — the headline fragmentation figure.
    pub frag_bytes: u64,
    /// Largest single free buddy block across the sub-heaps.
    pub largest_block: u64,
    /// Largest free huge extent (`None`: no usable huge region).
    pub huge_largest_free: Option<u64>,
}

/// Latency summaries of one snapshot interval.
#[derive(Debug, Clone)]
pub struct IntervalReport {
    /// Interval ordinal (0-based).
    pub index: u64,
    /// Wall-clock time since the previous interval edge.
    pub elapsed: Duration,
    /// Operations completed in the interval, across all classes.
    pub ops: u64,
    /// Per-class latency summaries of the interval's operations only.
    pub classes: Vec<(OpClass, LatencySummary)>,
}

/// What one injected event observed.
#[derive(Debug, Clone)]
pub enum EventReport {
    /// A kill-and-resume cycle.
    Kill {
        /// Global op count when the event fired.
        at_op: u64,
        /// Time from crash to the service accepting traffic again
        /// (recovery load + shard reopen, excluding verification).
        reopen: Duration,
        /// Keys live (acknowledged) at the crash, every one re-read and
        /// checksum-verified after reopen.
        population: u64,
    },
    /// A live poison injection.
    Poison {
        /// Global op count when the event fired.
        at_op: u64,
        /// Value blocks poisoned.
        keys: u64,
    },
    /// An online grow.
    Grow {
        /// Global op count when the event fired.
        at_op: u64,
        /// Capacity before.
        old_capacity: u64,
        /// Capacity after.
        new_capacity: u64,
        /// Sub-heaps materialised by the grow.
        new_subheaps: u16,
    },
}

/// Soft-failure accounting of a soak run (hard failures panic).
#[derive(Debug, Clone, Copy, Default)]
pub struct SoakCounters {
    /// Damaged values healed by rewrite (read path).
    pub healed: u64,
    /// Freshly allocated blocks returned to the free pool because their
    /// payload lines were already poisoned.
    pub dirty_allocs: u64,
    /// Operations that retried after a transient `NoSpace` (resolved by
    /// an online grow).
    pub space_stalls: u64,
    /// Reads that retried because a concurrent update recycled the value
    /// block mid-read.
    pub read_races: u64,
    /// Frees of replaced values that failed (damaged record paths); the
    /// block leaks, the scrubber owns it from there.
    pub free_errors: u64,
}

/// The result of [`run_soak`].
#[derive(Debug, Clone)]
pub struct SoakReport {
    /// Total operations completed (always `threads * ops_per_thread`).
    pub ops: u64,
    /// Wall-clock soak duration (excluding the load phase).
    pub elapsed: Duration,
    /// Keys loaded before the soak.
    pub loaded: u64,
    /// Keys inserted during the soak.
    pub inserted: u64,
    /// Per-interval latency summaries.
    pub intervals: Vec<IntervalReport>,
    /// Whole-run per-class latency summaries.
    pub totals: Vec<(OpClass, LatencySummary)>,
    /// One report per injected event, in firing order.
    pub events: Vec<EventReport>,
    /// Fragmentation-over-time series (one sample per interval edge plus
    /// a final post-quiesce sample).
    pub fragmentation: Vec<FragSample>,
    /// Soft-failure accounting.
    pub counters: SoakCounters,
    /// Heap health at the end of the run.
    pub health: HeapHealth,
    /// Blocks the final audit found in durable quarantine. Unlike the
    /// volatile `health` counters this survives kill-and-resume, so it
    /// is what the poison-balance invariant checks against.
    pub quarantined_blocks: u64,
    /// Final tree population summed over shards.
    pub population: u64,
}

impl SoakReport {
    /// Asserts the cross-cutting invariants every soak must satisfy:
    /// all ops accounted, every configured event fired and reported,
    /// post-fault damage traced in health accounting, and latency totals
    /// consistent with the op ledger.
    ///
    /// # Panics
    ///
    /// Panics with a description of the violated invariant.
    pub fn assert_invariants(&self, config: &KvServeConfig) {
        assert_eq!(self.ops, config.total_ops(), "ops lost or double-counted");
        assert_eq!(self.events.len(), config.events.len(), "an event failed to fire");
        let recorded: u64 = self.totals.iter().map(|(_, s)| s.count).sum();
        assert_eq!(recorded, self.ops, "histogram counts disagree with the op counter");
        assert!(!self.fragmentation.is_empty(), "fragmentation series never sampled");
        for sample in &self.fragmentation {
            assert!(sample.frag_bytes <= sample.free_bytes, "fragmented bytes exceed free bytes");
        }
        if config.maint_budget > 0 {
            assert!(self.health.maint_steps > 0, "maintenance engine enabled but never stepped");
        }
        assert_eq!(self.population, self.loaded + self.inserted, "population drifted from the ack ledger");
        for (event, report) in config.events.iter().zip(&self.events) {
            let matches = matches!(
                (event, report),
                (SoakEvent::Kill, EventReport::Kill { .. })
                    | (SoakEvent::Poison, EventReport::Poison { .. })
                    | (SoakEvent::Grow, EventReport::Grow { .. })
            );
            assert!(matches, "event {event:?} produced mismatched report {report:?}");
        }
        if config.events.contains(&SoakEvent::Poison) {
            assert!(
                self.health.live_media_errors() > 0
                    || self.health.blocks_quarantined_live > 0
                    || self.counters.healed > 0,
                "poison event left no trace in health accounting: {:?}",
                self.health
            );
            // Balanced books, per damaged block rather than per heal
            // (racing workers can heal the same key twice, and the
            // second heal frees the first's clean replacement): each
            // poisoned line damages exactly one value block, and that
            // block must end the run in durable quarantine — routed
            // there when its holder freed it, or swept by the final
            // scrub if it was free when the poison landed — unless the
            // free itself failed and was counted. A shortfall means a
            // damaged block went back into circulation.
            let poisoned: u64 = self
                .events
                .iter()
                .map(|e| if let EventReport::Poison { keys, .. } = e { *keys } else { 0 })
                .sum();
            assert!(
                self.quarantined_blocks + self.counters.free_errors >= poisoned,
                "quarantine accounting out of balance: {poisoned} blocks poisoned but only {} \
                 quarantined (+{} failed frees)",
                self.quarantined_blocks,
                self.counters.free_errors
            );
        }
    }
}

/// The live service: replaced wholesale by a kill-and-resume.
struct ServiceState {
    heap: Arc<PoseidonHeap>,
    shards: Vec<Arc<FastFair<PoseidonHeap>>>,
}

/// Everything workers and the coordinator share.
struct Soak {
    config: KvServeConfig,
    dev: Arc<PmemDevice>,
    state: RwLock<Option<ServiceState>>,
    /// Per-worker count of fully acknowledged (durable) inserts.
    completed: Vec<AtomicU64>,
    /// Sum of `completed` (the zipfian key-space watermark).
    inserted_total: AtomicU64,
    /// Global allocation sequence driving the `value_spread` size cycle.
    alloc_seq: AtomicU64,
    ops_done: AtomicU64,
    workers_done: AtomicU64,
    /// Set by a worker that hit `NoSpace`; cleared by a grow.
    pressure: AtomicBool,
    /// `[worker][class]` latency histograms.
    hists: Vec<Vec<LatencyHistogram>>,
    healed: AtomicU64,
    dirty_allocs: AtomicU64,
    space_stalls: AtomicU64,
    read_races: AtomicU64,
    free_errors: AtomicU64,
}

impl Soak {
    fn heap_config(&self) -> HeapConfig {
        // Service contract: no DRAM cache, so every returning op is
        // already durable (see the module docs).
        HeapConfig::new().with_subheaps(SUBHEAPS).without_cache()
    }

    fn shard_of(&self, key: u64) -> usize {
        (key % self.config.shards as u64) as usize
    }

    fn stripe_base(&self, worker: usize) -> u64 {
        self.config.load_keys + worker as u64 * self.config.ops_per_thread
    }

    /// Maps a zipfian rank over `[0, load_keys + inserted_total)` to a
    /// key id that is guaranteed acknowledged: ranks past the loaded
    /// range address per-worker insert stripes round-robin, falling back
    /// to the loaded range when a stripe has not caught up to the rank.
    fn sample_id(&self, rank: u64) -> u64 {
        if rank < self.config.load_keys {
            return rank;
        }
        let past = rank - self.config.load_keys;
        let worker = (past % self.config.threads as u64) as usize;
        let index = past / self.config.threads as u64;
        if index < self.completed[worker].load(Ordering::Acquire) {
            self.stripe_base(worker) + index
        } else {
            rank % self.config.load_keys
        }
    }

    /// Writes and persists the 16-byte checksummed payload of `key`.
    fn write_payload(&self, offset: u64, key: u64) -> Result<(), PmemError> {
        self.dev.write_pod(offset, &key)?;
        self.dev.write_pod(offset + 8, &(key ^ VALUE_SALT))?;
        self.dev.persist(offset, PAYLOAD_BYTES)
    }

    /// Reads the payload at `offset`, checking it belongs to `key`.
    fn payload_matches(&self, offset: u64, key: u64) -> Result<bool, PmemError> {
        let a: u64 = self.dev.read_pod(offset)?;
        let b: u64 = self.dev.read_pod(offset + 8)?;
        Ok(a == key && b == (key ^ VALUE_SALT))
    }

    /// Allocates a value block and commits `key`'s payload into it,
    /// riding out `NoSpace` (pressure + retry, resolved by an online
    /// grow) and already-poisoned fresh blocks (freed back — the
    /// scrubber will quarantine them — and retried on other capacity).
    /// Size of the next value allocation: `value_size` ramped across
    /// `value_spread + 1` buddy classes over the run's expected
    /// allocation count (load + one per op is the upper bound; reads
    /// and scans allocate nothing, so late steps may not be reached).
    fn value_size(&self) -> u64 {
        let spread = self.config.value_spread;
        if spread == 0 {
            return self.config.value_size;
        }
        let expected = self.config.load_keys + self.config.total_ops();
        let ramp = (expected / (spread + 1)).max(1);
        let step = (self.alloc_seq.fetch_add(1, Ordering::Relaxed) / ramp).min(spread);
        self.config.value_size << step
    }

    fn alloc_value(&self, heap: &PoseidonHeap, key: u64) -> u64 {
        let mut attempts = 0u64;
        loop {
            attempts += 1;
            assert!(attempts <= RETRY_LIMIT, "allocation retries exhausted for key {key:#x}");
            match PersistentAllocator::alloc(heap, self.value_size()) {
                Ok(offset) => match self.write_payload(offset, key) {
                    Ok(()) => return offset,
                    Err(PmemError::Uncorrectable { .. }) => {
                        // The free pool handed us a block whose lines are
                        // already poisoned. Put it back where the
                        // scrubber hunts, ask for another, and make
                        // progress deterministic by scrubbing inline.
                        self.dirty_allocs.fetch_add(1, Ordering::Relaxed);
                        if PersistentAllocator::free(heap, offset).is_err() {
                            self.free_errors.fetch_add(1, Ordering::Relaxed);
                        }
                        let _ = heap.scrub_step(usize::MAX);
                    }
                    Err(e) => panic!("payload write failed: {e}"),
                },
                Err(AllocError::OutOfMemory) => {
                    assert!(
                        self.config.events.contains(&SoakEvent::Grow),
                        "pool exhausted and no grow event configured"
                    );
                    self.space_stalls.fetch_add(1, Ordering::Relaxed);
                    self.pressure.store(true, Ordering::Release);
                    std::thread::sleep(Duration::from_micros(100));
                }
                Err(e) => panic!("value allocation failed: {e}"),
            }
        }
    }

    /// Rewrites `key`'s damaged value through the self-heal path: fresh
    /// committed block in, tree pointer swapped, damaged block freed for
    /// the scrubber to quarantine.
    fn heal_value(&self, st: &ServiceState, key: u64) {
        let fresh = self.alloc_value(&st.heap, key);
        match st.shards[self.shard_of(key)].update(key, fresh) {
            Some(old) if old != fresh => {
                if PersistentAllocator::free(&*st.heap, old).is_err() {
                    self.free_errors.fetch_add(1, Ordering::Relaxed);
                }
            }
            Some(_) => {}
            None => panic!("healing a key that vanished: {key:#x}"),
        }
        self.healed.fetch_add(1, Ordering::Relaxed);
    }

    /// One verified read: poison heals by rewrite, a concurrent update
    /// recycling the block mid-read retries against the current pointer.
    fn do_read(&self, st: &ServiceState, key: u64) {
        let shard = &st.shards[self.shard_of(key)];
        for _ in 0..RETRY_LIMIT {
            let offset = shard.get(key).unwrap_or_else(|| panic!("acknowledged key missing: {key:#x}"));
            match self.payload_matches(offset, key) {
                Ok(true) => return,
                Ok(false) => {
                    // Torn against a concurrent update: the offset we
                    // read was freed and recycled under us. Re-fetch.
                    self.read_races.fetch_add(1, Ordering::Relaxed);
                }
                Err(PmemError::Uncorrectable { .. }) => self.heal_value(st, key),
                Err(e) => panic!("value read failed: {e}"),
            }
        }
        panic!("read of key {key:#x} never stabilised");
    }

    fn do_update(&self, st: &ServiceState, key: u64) {
        let fresh = self.alloc_value(&st.heap, key);
        let old = st.shards[self.shard_of(key)]
            .update(key, fresh)
            .unwrap_or_else(|| panic!("acknowledged key missing on update: {key:#x}"));
        if PersistentAllocator::free(&*st.heap, old).is_err() {
            self.free_errors.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn do_insert(&self, st: &ServiceState, worker: usize, local: u64) {
        let id = self.stripe_base(worker) + local;
        let key = fnv(id);
        let value = self.alloc_value(&st.heap, key);
        let mut attempts = 0u64;
        loop {
            match st.shards[self.shard_of(key)].insert(key, value) {
                Ok(_) => break,
                Err(AllocError::OutOfMemory) => {
                    attempts += 1;
                    assert!(attempts <= RETRY_LIMIT, "insert retries exhausted");
                    assert!(
                        self.config.events.contains(&SoakEvent::Grow),
                        "tree node allocation exhausted the pool and no grow event configured"
                    );
                    self.space_stalls.fetch_add(1, Ordering::Relaxed);
                    self.pressure.store(true, Ordering::Release);
                    std::thread::sleep(Duration::from_micros(100));
                }
                Err(e) => panic!("insert failed: {e}"),
            }
        }
        // Acknowledge: the insert returned, so (uncached heap) it is
        // durable. Publish it to the sampling space and the kill ledger.
        self.completed[worker].store(local + 1, Ordering::Release);
        self.inserted_total.fetch_add(1, Ordering::Relaxed);
    }

    fn do_scan(&self, st: &ServiceState, start_key: u64, len: usize) {
        let pairs = st.shards[self.shard_of(start_key)].scan(start_key, len);
        let mut last = None;
        for &(key, _) in &pairs {
            assert!(Some(key) > last, "scan returned keys out of order");
            last = Some(key);
        }
    }

    fn worker(&self, worker: usize) {
        pmem::numa::set_current_cpu(worker);
        let mut rng =
            crate::driver::Xorshift::new(self.config.seed ^ (worker as u64 + 1).wrapping_mul(0x5E4B_11CE));
        let mut zipf = Zipfian::new(self.config.load_keys, self.config.theta);
        let update_cut = self.config.update_permille;
        let insert_cut = update_cut + self.config.insert_permille;
        let scan_cut = insert_cut + self.config.scan_permille;
        let mut local_inserted = 0u64;
        for op in 0..self.config.ops_per_thread {
            if op % ZIPF_REFRESH == 0 {
                zipf.extend(self.config.load_keys + self.inserted_total.load(Ordering::Relaxed));
            }
            let dice = rng.below(1000);
            let rank = zipf.sample(&mut rng);
            let scan_len = 1 + rng.below(16) as usize;
            // The read guard serialises against event transitions; the
            // clock starts after it is held so event pauses are not
            // billed to the op that happened to arrive during one.
            let guard = self.state.read();
            let st = guard.as_ref().expect("service state missing");
            let class;
            let start = Instant::now();
            if dice < update_cut {
                class = OpClass::Update;
                self.do_update(st, fnv(self.sample_id(rank)));
            } else if dice < insert_cut {
                class = OpClass::Insert;
                self.do_insert(st, worker, local_inserted);
                local_inserted += 1;
            } else if dice < scan_cut {
                class = OpClass::Scan;
                self.do_scan(st, fnv(self.sample_id(rank)), scan_len);
            } else {
                class = OpClass::Read;
                self.do_read(st, fnv(self.sample_id(rank)));
            }
            self.hists[worker][class.index()].record(start.elapsed().as_nanos() as u64);
            drop(guard);
            self.ops_done.fetch_add(1, Ordering::Release);
        }
    }

    /// Builds the persistent shard directory and fresh shard trees on a
    /// new heap, anchoring the directory as the heap root.
    fn create_shards(&self, heap: &Arc<PoseidonHeap>) -> Vec<Arc<FastFair<PoseidonHeap>>> {
        let shards = self.config.shards as u64;
        let dir = PersistentAllocator::alloc(&**heap, (2 + shards) * 8).expect("directory allocation");
        self.dev.write_pod(dir, &DIR_MAGIC).expect("directory magic");
        self.dev.write_pod(dir + 8, &shards).expect("directory count");
        let mut out = Vec::with_capacity(self.config.shards);
        for s in 0..self.config.shards {
            let mut tree = FastFair::new(heap.clone()).expect("shard root allocation");
            let slot = dir + 16 + s as u64 * 8;
            self.dev.write_pod(slot, &tree.root_offset()).expect("directory root");
            self.install_root_hook(&mut tree, slot);
            out.push(Arc::new(tree));
        }
        self.dev.persist(dir, (2 + shards) * 8).expect("directory persist");
        let root = heap.nvmptr_of(dir).expect("directory pointer");
        heap.set_root(root).expect("anchor directory");
        out
    }

    /// Reopens the shard trees of a recovered heap from its anchored
    /// directory block.
    fn open_shards(&self, heap: &Arc<PoseidonHeap>) -> Vec<Arc<FastFair<PoseidonHeap>>> {
        let root = heap.root().expect("read heap root");
        assert!(!root.is_null(), "recovered heap lost its root anchor");
        let dir = heap.raw_offset(root).expect("resolve directory");
        let magic: u64 = self.dev.read_pod(dir).expect("directory magic");
        assert_eq!(magic, DIR_MAGIC, "directory block corrupt after recovery");
        let shards: u64 = self.dev.read_pod(dir + 8).expect("directory count");
        assert_eq!(shards, self.config.shards as u64, "shard count changed across recovery");
        let mut out = Vec::with_capacity(self.config.shards);
        for s in 0..self.config.shards {
            let slot = dir + 16 + s as u64 * 8;
            let anchored: u64 = self.dev.read_pod(slot).expect("directory root");
            let mut tree = FastFair::open(heap.clone(), anchored);
            self.install_root_hook(&mut tree, slot);
            out.push(Arc::new(tree));
        }
        out
    }

    /// Persists a shard's root into its directory slot before the new
    /// root becomes visible (anchor-before-visible: a crash between the
    /// two leaves a *stale* anchor, which leaf-chain move-right lookups
    /// tolerate, never a dangling one).
    fn install_root_hook(&self, tree: &mut FastFair<PoseidonHeap>, slot: u64) {
        let dev = self.dev.clone();
        tree.on_root_change(Box::new(move |root| {
            dev.write_pod(slot, &root).expect("anchor shard root");
            dev.persist(slot, 8).expect("persist shard root");
        }));
    }

    /// Kill-and-resume: crash the service at a quiesced point, recover,
    /// verify every acknowledged key, resume.
    fn event_kill(&self, at_op: u64) -> EventReport {
        let mut guard = self.state.write();
        let st = guard.take().expect("service state missing");
        drop(st); // Shards then heap: no close() — this is the crash.
        self.dev.simulate_crash(CrashMode::Strict, self.config.seed ^ at_op);

        let reopen_start = Instant::now();
        let heap = Arc::new(PoseidonHeap::load(self.dev.clone(), self.heap_config()).expect("recovery load"));
        let shards = self.open_shards(&heap);
        let reopen = reopen_start.elapsed();

        let st = ServiceState { heap, shards };
        let population = self.verify_acknowledged(&st);
        *guard = Some(st);
        EventReport::Kill { at_op, reopen, population }
    }

    /// Checks every acknowledged key (all loaded keys plus every insert a
    /// worker published) survived with an intact payload. Damaged-but-
    /// present payloads are healed, not counted lost. Returns how many
    /// keys it checked.
    fn verify_acknowledged(&self, st: &ServiceState) -> u64 {
        let mut acked: Vec<u64> = (0..self.config.load_keys).collect();
        for worker in 0..self.config.threads {
            let n = self.completed[worker].load(Ordering::Acquire);
            acked.extend((0..n).map(|i| self.stripe_base(worker) + i));
        }
        for &id in &acked {
            self.do_read(st, fnv(id));
        }
        acked.len() as u64
    }

    /// Poisons the value blocks of the hottest committed keys while the
    /// service keeps running. Returns the poisoned keys via `poisoned`
    /// for end-of-run verification.
    fn event_poison(&self, at_op: u64, poisoned: &mut Vec<u64>) -> EventReport {
        let guard = self.state.read();
        let st = guard.as_ref().expect("service state missing");
        let mut keys = 0;
        for id in 0..POISON_KEYS.min(self.config.load_keys) {
            let key = fnv(id);
            if let Some(offset) = st.shards[self.shard_of(key)].get(key) {
                self.dev.poison(offset, PAYLOAD_BYTES).expect("poison value");
                poisoned.push(key);
                keys += 1;
            }
        }
        EventReport::Poison { at_op, keys }
    }

    /// Grows the pool online (doubling, clamped to the ceiling).
    fn event_grow(&self, at_op: u64) -> EventReport {
        let guard = self.state.read();
        let st = guard.as_ref().expect("service state missing");
        let old = self.dev.capacity();
        let target = (old * 2).clamp(old, self.config.max_capacity);
        assert!(target > old, "grow event configured but the pool is already at max capacity");
        let report = st.heap.grow(target).expect("online grow");
        self.pressure.store(false, Ordering::Release);
        EventReport::Grow {
            at_op,
            old_capacity: report.old_capacity,
            new_capacity: report.new_capacity,
            new_subheaps: report.new_subheaps,
        }
    }

    /// Samples the heap's fragmentation totals (refreshing the trigger
    /// watermarks and the cached huge headroom figure as a side effect).
    fn frag_sample(&self, at_op: u64) -> Option<FragSample> {
        let guard = self.state.read();
        let st = guard.as_ref()?;
        let report = st.heap.fragmentation().ok()?;
        Some(FragSample {
            at_op,
            free_bytes: report.free_bytes(),
            frag_bytes: report.frag_bytes(),
            largest_block: report.subheaps.iter().map(|s| s.largest_block).max().unwrap_or(0),
            huge_largest_free: st.heap.huge_largest_free(),
        })
    }

    /// Merges every worker's histogram for `class` into one snapshot.
    fn merged(&self, class: OpClass) -> HistogramSnapshot {
        let mut merged = self.hists[0][class.index()].snapshot();
        for worker in &self.hists[1..] {
            merged.merge(&worker[class.index()].snapshot());
        }
        merged
    }

    /// The coordinator: fires events at progress thresholds, ticks the
    /// scrubber once poison is live, grows early under space pressure,
    /// and cuts interval snapshots.
    fn coordinate(
        &self,
        events_out: &mut Vec<EventReport>,
        poisoned: &mut Vec<u64>,
        frag_out: &mut Vec<FragSample>,
    ) -> Vec<IntervalReport> {
        let total = self.config.total_ops();
        let n_events = self.config.events.len() as u64;
        let event_at: Vec<u64> = (0..n_events).map(|i| total * (i + 1) / (n_events + 1)).collect();
        let mut next_event = 0usize;
        let intervals = self.config.intervals.max(1);
        let mut next_edge = (total / intervals).max(1);
        let mut out = Vec::new();
        let mut prev: Vec<HistogramSnapshot> = OpClass::ALL.iter().map(|&c| self.merged(c)).collect();
        let mut prev_instant = Instant::now();
        let mut prev_ops = 0u64;
        let mut poison_live = false;
        let mut grown = false;
        loop {
            let finished = self.workers_done.load(Ordering::Acquire) == self.config.threads as u64;
            let done = self.ops_done.load(Ordering::Acquire);
            while next_event < event_at.len() && done >= event_at[next_event] {
                let report = match self.config.events[next_event] {
                    SoakEvent::Kill => self.event_kill(done),
                    SoakEvent::Poison => {
                        poison_live = true;
                        self.event_poison(done, poisoned)
                    }
                    SoakEvent::Grow if grown => {
                        // A pressure-triggered grow already ran in its
                        // place; nothing left to do.
                        next_event += 1;
                        continue;
                    }
                    SoakEvent::Grow => {
                        grown = true;
                        self.event_grow(done)
                    }
                };
                events_out.push(report);
                next_event += 1;
            }
            if !grown
                && self.pressure.load(Ordering::Acquire)
                && self.config.events.contains(&SoakEvent::Grow)
            {
                // Workers are stalling on NoSpace: fire the configured
                // grow early rather than waiting for its threshold.
                grown = true;
                events_out.push(self.event_grow(done));
            }
            if !grown
                && self.config.huge_headroom > 0
                && self.config.events.contains(&SoakEvent::Grow)
                && self.dev.capacity() < self.config.max_capacity
            {
                // Headroom policy: the continuously-exposed largest free
                // huge extent (refreshed by fragmentation sampling and by
                // any TooLarge miss) fell below the configured floor —
                // grow *before* a huge allocation actually fails, instead
                // of waiting for NoSpace pressure.
                let low = {
                    let guard = self.state.read();
                    guard
                        .as_ref()
                        .and_then(|st| st.heap.huge_largest_free())
                        .is_some_and(|lf| lf < self.config.huge_headroom)
                };
                if low {
                    grown = true;
                    events_out.push(self.event_grow(done));
                }
            }
            if poison_live {
                let guard = self.state.read();
                if let Some(st) = guard.as_ref() {
                    let _ = st.heap.scrub_step(SCRUB_BUDGET);
                }
            }
            if self.config.maint_budget > 0 {
                // Maintenance tick: the engine self-schedules off its
                // trigger policy (pressure flag + fragmentation
                // watermarks); a tick on a tidy heap is a no-op. A tick
                // commits at most its budget of operations and so merges
                // at most that many buddy pairs under a sub-heap lock,
                // never a whole defrag.
                let guard = self.state.read();
                if let Some(Ok(Some(step))) =
                    guard.as_ref().map(|st| st.heap.maint_tick(self.config.maint_budget))
                {
                    let budget = self.config.maint_budget as u64;
                    assert!(
                        step.work_units <= budget && step.merges <= budget,
                        "maintenance tick overspent its budget of {budget}: {step:?}"
                    );
                }
            }
            while done >= next_edge || (finished && prev_ops < done) {
                let now = Instant::now();
                let current: Vec<HistogramSnapshot> = OpClass::ALL.iter().map(|&c| self.merged(c)).collect();
                let classes: Vec<(OpClass, LatencySummary)> = OpClass::ALL
                    .iter()
                    .zip(current.iter().zip(&prev))
                    .map(|(&c, (cur, pre))| (c, cur.delta(pre).summary()))
                    .collect();
                let ops: u64 = classes.iter().map(|(_, s)| s.count).sum();
                out.push(IntervalReport {
                    index: out.len() as u64,
                    elapsed: now - prev_instant,
                    ops,
                    classes,
                });
                prev = current;
                prev_instant = now;
                prev_ops = done;
                // Fragmentation time series: one sample per interval edge.
                // The walk also refreshes the maintenance trigger
                // watermarks and the cached huge-headroom figure.
                if let Some(sample) = self.frag_sample(done) {
                    frag_out.push(sample);
                }
                next_edge += (total / intervals).max(1);
                if finished {
                    break;
                }
            }
            if finished {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        out
    }
}

/// Runs the full soak: load, mixed traffic with injected events, final
/// verification and audit. See the module docs for the scenario.
///
/// # Panics
///
/// Panics on any correctness violation: an acknowledged key missing or
/// corrupt, a scan out of order, recovery failure, audit failure, or a
/// worker unable to make progress. Soft degradation (healing, retries,
/// stalls) is returned in [`SoakReport::counters`] instead.
pub fn run_soak(config: &KvServeConfig) -> SoakReport {
    assert!(config.threads >= 1 && config.shards >= 1, "need at least one thread and shard");
    assert!(config.value_size >= PAYLOAD_BYTES, "values carry a 16-byte payload");
    assert!(
        config.update_permille + config.insert_permille + config.scan_permille <= 1000,
        "op mix exceeds 1000 permille"
    );
    let dev = Arc::new(PmemDevice::new(DeviceConfig::new(config.capacity).growable_to(config.max_capacity)));
    let soak = Soak {
        config: config.clone(),
        dev: dev.clone(),
        state: RwLock::new(None),
        completed: (0..config.threads).map(|_| AtomicU64::new(0)).collect(),
        inserted_total: AtomicU64::new(0),
        alloc_seq: AtomicU64::new(0),
        ops_done: AtomicU64::new(0),
        workers_done: AtomicU64::new(0),
        pressure: AtomicBool::new(false),
        hists: (0..config.threads)
            .map(|_| OpClass::ALL.iter().map(|_| LatencyHistogram::new()).collect())
            .collect(),
        healed: AtomicU64::new(0),
        dirty_allocs: AtomicU64::new(0),
        space_stalls: AtomicU64::new(0),
        read_races: AtomicU64::new(0),
        free_errors: AtomicU64::new(0),
    };

    // Build + load.
    let heap = Arc::new(PoseidonHeap::create(dev, soak.heap_config()).expect("create service heap"));
    let shards = soak.create_shards(&heap);
    let st = ServiceState { heap, shards };
    let per_thread = config.load_keys / config.threads as u64;
    platform::thread::scope(|scope| {
        for worker in 0..config.threads {
            let soak = &soak;
            let st = &st;
            scope.spawn(move || {
                pmem::numa::set_current_cpu(worker);
                let begin = worker as u64 * per_thread;
                let end = if worker == config.threads - 1 { config.load_keys } else { begin + per_thread };
                for id in begin..end {
                    let key = fnv(id);
                    let value = soak.alloc_value(&st.heap, key);
                    st.shards[soak.shard_of(key)].insert(key, value).expect("load insert");
                }
            });
        }
    });
    *soak.state.write() = Some(st);

    // Soak.
    let mut events = Vec::new();
    let mut poisoned = Vec::new();
    let mut fragmentation = Vec::new();
    let mut intervals = Vec::new();
    let mut elapsed = Duration::ZERO;
    let barrier = Barrier::new(config.threads + 1);
    platform::thread::scope(|scope| {
        for worker in 0..config.threads {
            let soak = &soak;
            let barrier = &barrier;
            scope.spawn(move || {
                barrier.wait();
                // Count the worker done even if it panics (the guard runs
                // on unwind): the coordinator's exit condition is
                // `workers_done == threads`, and a dead worker must end
                // the run as a propagated panic, not an infinite
                // coordinator wait for ops that will never come.
                struct Done<'a>(&'a AtomicU64);
                impl Drop for Done<'_> {
                    fn drop(&mut self) {
                        self.0.fetch_add(1, Ordering::Release);
                    }
                }
                let _done = Done(&soak.workers_done);
                soak.worker(worker);
            });
        }
        barrier.wait();
        let start = Instant::now();
        intervals = soak.coordinate(&mut events, &mut poisoned, &mut fragmentation);
        elapsed = start.elapsed();
    });

    // Final verification: every poisoned key must be re-readable (healed
    // by traffic or healed here), the heap must audit clean, and the
    // scrubber gets a full pass to quarantine freed damage.
    let guard = soak.state.read();
    let st = guard.as_ref().expect("service state missing");
    for _ in 0..2 {
        let _ = st.heap.scrub_step(usize::MAX);
    }
    if config.maint_budget > 0 {
        // Quiesce the maintenance engine: the final fragmentation sample
        // then reflects a fully-coalesced heap, which is what the
        // engine-on/engine-off comparison measures.
        loop {
            let step = st.heap.maint_step(usize::MAX).expect("final maintenance pass");
            if step.fully_defragged {
                break;
            }
        }
    }
    for &key in &poisoned {
        soak.do_read(st, key);
    }
    if let Some(sample) = soak.frag_sample(soak.ops_done.load(Ordering::Acquire)) {
        fragmentation.push(sample);
    }
    let audit = st.heap.audit().expect("final audit");
    let quarantined_blocks: u64 = audit.iter().map(|(_, a)| a.quarantined_blocks).sum();
    let health = st.heap.health();
    let population: u64 = st.shards.iter().map(|s| s.len()).sum();
    let totals: Vec<(OpClass, LatencySummary)> =
        OpClass::ALL.iter().map(|&c| (c, soak.merged(c).summary())).collect();

    let report = SoakReport {
        ops: soak.ops_done.load(Ordering::Acquire),
        elapsed,
        loaded: config.load_keys,
        inserted: soak.inserted_total.load(Ordering::Acquire),
        intervals,
        totals,
        events,
        counters: SoakCounters {
            healed: soak.healed.load(Ordering::Relaxed),
            dirty_allocs: soak.dirty_allocs.load(Ordering::Relaxed),
            space_stalls: soak.space_stalls.load(Ordering::Relaxed),
            read_races: soak.read_races.load(Ordering::Relaxed),
            free_errors: soak.free_errors.load(Ordering::Relaxed),
        },
        fragmentation,
        health,
        quarantined_blocks,
        population,
    };
    report.assert_invariants(config);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(events: Vec<SoakEvent>) -> KvServeConfig {
        KvServeConfig::new(2, 2, 400, 300).with_events(events).with_capacity(96 << 20, 96 << 20)
    }

    #[test]
    fn soak_without_events_serves_and_accounts() {
        let config = small(vec![]);
        let report = run_soak(&config);
        assert_eq!(report.ops, 600);
        assert_eq!(report.loaded, 400);
        assert!(report.events.is_empty());
        assert!(!report.intervals.is_empty());
        let read_count =
            report.totals.iter().find(|(c, _)| *c == OpClass::Read).map(|(_, s)| s.count).unwrap();
        assert!(read_count > 0, "default mix must produce reads");
    }

    #[test]
    fn soak_kill_event_recovers_every_acknowledged_key() {
        let config = small(vec![SoakEvent::Kill]);
        let report = run_soak(&config);
        assert_eq!(report.events.len(), 1);
        let EventReport::Kill { population, reopen, .. } = report.events[0] else {
            panic!("expected a kill report, got {:?}", report.events[0]);
        };
        assert!(population >= 400, "kill fired before load finished?");
        assert!(reopen > Duration::ZERO);
    }

    #[test]
    fn soak_poison_event_degrades_and_heals() {
        let mut config = small(vec![SoakEvent::Poison]);
        // All-reads mix: poisoned hot keys are guaranteed to be read.
        config.update_permille = 0;
        config.insert_permille = 0;
        config.scan_permille = 0;
        let report = run_soak(&config);
        let EventReport::Poison { keys, .. } = report.events[0] else {
            panic!("expected a poison report, got {:?}", report.events[0]);
        };
        assert_eq!(keys, POISON_KEYS);
        // run_soak's final pass re-read every poisoned key; accounting
        // must show the damage was noticed somewhere.
        assert!(
            report.counters.healed > 0 || report.health.blocks_quarantined_live > 0,
            "poison left no heal/quarantine trace: {:?} {:?}",
            report.counters,
            report.health
        );
    }

    #[test]
    fn soak_grow_event_doubles_capacity_under_load() {
        let mut config = small(vec![SoakEvent::Grow]);
        config = config.with_capacity(64 << 20, 256 << 20);
        let report = run_soak(&config);
        let EventReport::Grow { old_capacity, new_capacity, .. } = report.events[0] else {
            panic!("expected a grow report, got {:?}", report.events[0]);
        };
        assert_eq!(new_capacity, 2 * old_capacity);
    }

    #[test]
    fn soak_maintenance_ticks_step_the_engine_and_sample_fragmentation() {
        // Update-heavy traffic churns blocks so the trigger policy has
        // fragmentation to react to; the engine must actually step and
        // the report must carry a usable time series.
        let mut config = small(vec![]).with_maint(4);
        config.update_permille = 600;
        let report = run_soak(&config);
        assert!(report.health.maint_steps > 0, "no maintenance step ran: {:?}", report.health);
        assert!(!report.fragmentation.is_empty(), "no fragmentation samples");
        let last = report.fragmentation.last().unwrap();
        assert_eq!(last.at_op, report.ops, "final sample must follow the last op");
        // run_soak quiesced the engine before the final sample: anything
        // still counted as fragmented is genuinely pinned by live blocks
        // interleaving the free ones, not deferred coalescing work.
        assert!(last.frag_bytes <= last.free_bytes);
    }

    #[test]
    fn soak_headroom_policy_grows_before_huge_allocations_fail() {
        // An unreachably high headroom floor means the very first
        // coordinator pass after a fragmentation sample sees the largest
        // free huge extent below the floor and fires the configured grow
        // early — well before its op-count threshold (half the run).
        let mut config = KvServeConfig::new(2, 2, 400, 5_000)
            .with_events(vec![SoakEvent::Grow])
            .with_capacity(64 << 20, 256 << 20)
            .with_huge_headroom(u64::MAX);
        config.intervals = 64;
        let report = run_soak(&config);
        assert_eq!(report.events.len(), 1, "exactly one grow must fire");
        let EventReport::Grow { at_op, new_capacity, old_capacity, .. } = report.events[0] else {
            panic!("expected a grow report, got {:?}", report.events[0]);
        };
        assert_eq!(new_capacity, 2 * old_capacity);
        assert!(
            at_op < report.ops / 2,
            "headroom grow fired at op {at_op}, not before the threshold ({})",
            report.ops / 2
        );
    }
}
