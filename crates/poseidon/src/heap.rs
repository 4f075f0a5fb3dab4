//! The public Poseidon heap API (§4.6, Figure 5).

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::Arc;

use mpk::{AccessRights, PkruGuard, ProtectionKey};
use pmem::contention::{LockProfile, TrackedMutex};
use pmem::{numa, PmemDevice};

use crate::error::{OpKind, PoseidonError, Result};
use crate::frontend::HeapCache;
use crate::hashtable::RecordIndex;
use crate::hugeregion::{self, HugeAudit, HUGE_SUBHEAP};
use crate::layout::{class_for_size, HeapLayout, Region, MAX_SUBHEAPS};
use crate::nvmptr::NvmPtr;
use crate::persist::{DirEntry, HugeCtx, SubCtx, SUPERBLOCK_MAGIC};
use crate::recovery::{self, RecoveryReport};
use crate::selfheal::HealthCounters;
use crate::session::{HugeOp, OpSession};
use crate::subheap::{self, SubheapAudit};
use crate::superblock;

/// Configuration for creating or opening a heap.
#[derive(Debug, Clone, Copy, Default)]
pub struct HeapConfig {
    /// Number of per-CPU sub-heaps. Defaults to the device topology's CPU
    /// count. Ignored when opening an existing heap (geometry is stored in
    /// the superblock).
    pub num_subheaps: Option<u16>,
    /// Protect metadata with MPK (default `true`). Turning this off is the
    /// "no protection" ablation: no key is allocated, no `wrpkru` pair per
    /// operation, and metadata pages stay writable to everyone.
    pub unprotected: bool,
    /// Turns off the transient caching layer in front of the persistent
    /// buddy (default `false`: cached). The cache is bounded: per CPU a
    /// magazine of 32 blocks per size class up to 4 KiB, per sub-heap a
    /// transfer pool of 128 blocks per class, and classes whose
    /// worst-case footprint would eat an eighth of a sub-heap bypass it.
    /// Cached blocks stay `FREE` on media, so a cached allocation that
    /// was never published (by [`PoseidonHeap::set_root`] or a clean
    /// close) evaporates across a crash, like a DRAM `malloc`. Turning it
    /// off is the "uncached" ablation: every operation takes the
    /// undo-logged slow path, and every returning call is durable.
    pub uncached: bool,
}

impl HeapConfig {
    /// Default configuration.
    pub fn new() -> HeapConfig {
        HeapConfig::default()
    }

    /// Sets the number of sub-heaps.
    pub fn with_subheaps(mut self, n: u16) -> HeapConfig {
        self.num_subheaps = Some(n);
        self
    }

    /// Disables MPK metadata protection (ablation only).
    pub fn without_protection(mut self) -> HeapConfig {
        self.unprotected = true;
        self
    }

    /// Disables the transient caching layer: every allocation and free
    /// takes the undo-logged slow path (ablation, and for tests that pin
    /// slow-path behaviour).
    pub fn without_cache(mut self) -> HeapConfig {
        self.uncached = true;
        self
    }
}

pub(crate) struct SubSlot {
    /// The sub-heap lock. It owns the sub-heap's DRAM record index
    /// ([`crate::hashtable`]): holding the lock is the proof of
    /// exclusive access, so the index needs no lock of its own.
    pub(crate) lock: TrackedMutex<RefCell<RecordIndex>>,
    pub(crate) created: AtomicBool,
    /// Set by load-time recovery when the sub-heap's metadata was hit by
    /// an uncorrectable media error: every operation on it is refused
    /// (typed [`PoseidonError::SubheapQuarantined`]) until
    /// `pfsck --repair` rebuilds it. Volatile — re-evaluated on every
    /// load from the device's scrub list.
    pub(crate) quarantined: AtomicBool,
    /// Bitmap of micro-log slots claimed by open transactions.
    pub(crate) tx_slots: std::sync::atomic::AtomicU32,
    /// The full-class hint: the smallest buddy class the slow path failed
    /// to serve here after trigger-1 merging ([`NOT_FULL`] when none).
    /// Every class at or above it is known unservable until a block
    /// returns to the free lists, so the spill order skips this sub-heap
    /// for them with one relaxed load. Set and cleared only under the
    /// sub-heap lock; volatile, clear on every open. Relaxed throughout:
    /// the hint publishes no data, and a reader acts on it only through
    /// paths that synchronise on their own (the lock, or a pool's CAS).
    full_class: AtomicU8,
}

/// [`SubSlot::full_class`] when no class is known unservable.
const NOT_FULL: u8 = u8::MAX;

impl SubSlot {
    /// Whether the hint says this sub-heap cannot serve `class`.
    pub(crate) fn full_for(&self, class: usize) -> bool {
        class >= self.full_class.load(Ordering::Relaxed) as usize
    }

    /// Records that `class` failed after trigger-1 merging (caller holds
    /// the sub-heap lock).
    pub(crate) fn mark_full(&self, class: usize) {
        self.full_class.fetch_min(class as u8, Ordering::Relaxed);
    }

    /// Clears the hint after a block returned to the free lists (caller
    /// holds the sub-heap lock). A clear hint is only read: the slot's
    /// line is read by every operation and must not bounce on every free.
    pub(crate) fn clear_full(&self) {
        if self.full_class.load(Ordering::Relaxed) != NOT_FULL {
            self.full_class.store(NOT_FULL, Ordering::Relaxed);
        }
    }
}

/// What one successful [`PoseidonHeap::grow`] call changed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GrowReport {
    /// Pool capacity before the grow.
    pub old_capacity: u64,
    /// Pool capacity after the grow.
    pub new_capacity: u64,
    /// Index of the layout epoch the grow committed.
    pub epoch: usize,
    /// Sub-heaps materialised by the new epoch.
    pub new_subheaps: u16,
    /// Bytes added to the huge region's logical space (0 when the band's
    /// bookkeeping failed and was left to the next open).
    pub huge_bytes_added: u64,
}

/// Cumulative operation counters of a heap (volatile; reset on open).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HeapOpStats {
    /// Successful allocations (including transactional ones).
    pub allocs: u64,
    /// Successful frees.
    pub frees: u64,
    /// Frees rejected as invalid or double (§4.7 protection working).
    pub rejected_frees: u64,
    /// Committed transactions.
    pub tx_commits: u64,
    /// Explicitly aborted transactions.
    pub tx_aborts: u64,
}

#[derive(Debug, Default)]
pub(crate) struct OpCounters {
    pub(crate) allocs: std::sync::atomic::AtomicU64,
    pub(crate) frees: std::sync::atomic::AtomicU64,
    pub(crate) rejected_frees: std::sync::atomic::AtomicU64,
    pub(crate) tx_commits: std::sync::atomic::AtomicU64,
    pub(crate) tx_aborts: std::sync::atomic::AtomicU64,
}

/// A Poseidon persistent heap: per-CPU sub-heaps, fully segregated
/// MPK-protected metadata, undo/micro logging, and hash-table block
/// tracking.
///
/// The heap is `Send + Sync`; share it across threads with [`Arc`].
/// Threads should register their logical CPU with
/// [`pmem::numa::set_current_cpu`] so allocations stay CPU- and NUMA-local
/// (unregistered threads use CPU 0).
///
/// # Examples
///
/// ```
/// use poseidon::{HeapConfig, PoseidonHeap};
/// use pmem::{DeviceConfig, PmemDevice};
/// use std::sync::Arc;
///
/// # fn main() -> Result<(), poseidon::PoseidonError> {
/// let dev = Arc::new(PmemDevice::new(DeviceConfig::new(64 << 20)));
/// let heap = PoseidonHeap::open(dev, HeapConfig::new().with_subheaps(2))?;
///
/// let ptr = heap.alloc(256)?;
/// let raw = heap.raw_offset(ptr)?;
/// heap.device().write(raw, b"hello persistent world")?;
/// heap.device().persist(raw, 22)?;
/// heap.set_root(ptr)?;
/// heap.free(ptr)?;
/// # Ok(())
/// # }
/// ```
pub struct PoseidonHeap {
    pub(crate) dev: Arc<PmemDevice>,
    pkey: Option<ProtectionKey>,
    pub(crate) heap_id: u64,
    pub(crate) layout: HeapLayout,
    pub(crate) slots: Box<[SubSlot]>,
    pub(crate) sb_lock: TrackedMutex<()>,
    /// Serialises extent-table operations on the huge-object region (one
    /// region per heap — huge allocations are rare and large, so a single
    /// lock does not contend with the per-CPU hot path).
    pub(crate) huge_lock: TrackedMutex<()>,
    /// Set by load-time recovery when the huge region's metadata was hit
    /// by an uncorrectable media error or fails validation: every huge
    /// operation is refused until `pfsck --repair` rebuilds it.
    pub(crate) huge_quarantined: AtomicBool,
    recovery: RecoveryReport,
    pub(crate) ops: OpCounters,
    /// Self-healing counters and the scrubber cursor ([`crate::selfheal`]).
    pub(crate) health: HealthCounters,
    /// The transient caching layer ([`crate::frontend`]); `None` when
    /// disabled via [`HeapConfig::without_cache`].
    cache: Option<HeapCache>,
}

impl std::fmt::Debug for PoseidonHeap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PoseidonHeap")
            .field("heap_id", &self.heap_id)
            .field("num_subheaps", &self.layout.num_subheaps())
            .field("user_size_per_subheap", &self.layout.user_size)
            .field("protected", &self.pkey.is_some())
            .finish_non_exhaustive()
    }
}

thread_local! {
    /// (sub-heap, micro-log slot) pinned by the calling thread's open
    /// transaction, per heap id (§5.3: a transaction's allocations all go
    /// to one sub-heap and one slot, so its commit — one micro-log
    /// truncation — is atomic and independent of other transactions).
    static TX_SUBHEAP: RefCell<HashMap<u64, (u16, usize)>> = RefCell::new(HashMap::new());
}

impl PoseidonHeap {
    /// Loads the heap on `dev` if one exists, otherwise creates one —
    /// the paper's `poseidon_init`.
    ///
    /// # Errors
    ///
    /// Propagates creation or load errors.
    pub fn open(dev: Arc<PmemDevice>, config: HeapConfig) -> Result<PoseidonHeap> {
        let magic: u64 = dev.read_pod(0)?;
        if magic == SUPERBLOCK_MAGIC {
            Self::load(dev, config)
        } else {
            Self::create(dev, config)
        }
    }

    /// Creates a fresh heap on `dev`.
    ///
    /// # Errors
    ///
    /// [`PoseidonError::BadGeometry`] if the device cannot host the
    /// requested sub-heap count, [`PoseidonError::Corrupted`] if a heap is
    /// already present, or device/MPK errors.
    pub fn create(dev: Arc<PmemDevice>, config: HeapConfig) -> Result<PoseidonHeap> {
        let magic: u64 = dev.read_pod(0)?;
        if magic == SUPERBLOCK_MAGIC {
            return Err(PoseidonError::Corrupted("device already holds a Poseidon heap"));
        }
        let n = config.num_subheaps.unwrap_or_else(|| dev.topology().cpus().min(u16::MAX as usize) as u16);
        let layout = HeapLayout::compute(dev.capacity(), n)?;
        let heap_id = random_heap_id();
        // Format the huge region first: the superblock magic (written
        // last inside `superblock::create`) stays the heap's single
        // last-published commit point.
        hugeregion::format(&dev, &layout)?;
        superblock::create(&dev, &layout, heap_id)?;
        let pkey = Self::protect(&dev, &layout, config)?;
        Ok(Self::assemble(dev, pkey, heap_id, layout, RecoveryReport::default(), config))
    }

    /// Loads an existing heap from `dev`, running crash recovery (§5.1):
    /// replay the superblock undo log, protect metadata with MPK, then
    /// replay each sub-heap's undo and micro logs.
    ///
    /// # Errors
    ///
    /// [`PoseidonError::Corrupted`] if no valid heap is present.
    pub fn load(dev: Arc<PmemDevice>, config: HeapConfig) -> Result<PoseidonHeap> {
        // A grow's epoch commit rides the superblock undo log: replay it
        // *before* the chain is parsed, so a torn grow resolves to the
        // old layout instead of failing the open with a half-written
        // record. Safe pre-protection: the previous owner's teardown
        // reset the page tags, and the load below re-tags everything.
        let sb_replayed = crate::undo::replay(&dev, superblock::undo_area())?;
        let (header, layout) = superblock::load(&dev)?;
        let pkey = Self::protect(&dev, &layout, config)?;
        let recovered = {
            let _guard = pkey.map(|k| dev.mpk().grant_write(k));
            recovery::recover(&dev, &layout)
        };
        let (mut report, quarantined) = match recovered {
            Ok(v) => v,
            Err(e) => {
                // A failed recovery (e.g. a crash mid-replay) must hand
                // its protection key back, or repeated load attempts
                // exhaust the 16-key space. Best-effort: the device may
                // already be refusing operations.
                if let Some(k) = pkey {
                    for (base, len) in layout.meta_ranges() {
                        let _ = dev.set_page_key(base, len, ProtectionKey::DEFAULT);
                    }
                    let _ = dev.mpk().pkey_free(k);
                }
                return Err(e);
            }
        };
        report.superblock_undo_replayed |= sb_replayed;
        let heap = Self::assemble(dev, pkey, header.heap_id, layout, report, config);
        // Mark already-created sub-heaps from the directory. A sub-heap
        // condemned online (state DIR_QUARANTINED) was created too — its
        // slot keeps reporting SubheapQuarantined rather than InvalidFree.
        for sub in 0..heap.layout.num_subheaps() {
            let state = superblock::dir_entry(&heap.dev, sub)?.state;
            if state == 1 || state == superblock::DIR_QUARANTINED {
                heap.slots[sub as usize].created.store(true, Ordering::Release);
            }
        }
        for sub in quarantined {
            heap.slots[sub as usize].quarantined.store(true, Ordering::Release);
        }
        heap.huge_quarantined.store(heap.recovery.huge_region_quarantined, Ordering::Release);
        Ok(heap)
    }

    fn protect(
        dev: &Arc<PmemDevice>,
        layout: &HeapLayout,
        config: HeapConfig,
    ) -> Result<Option<ProtectionKey>> {
        if config.unprotected {
            return Ok(None);
        }
        let pkey = dev.mpk().pkey_alloc(AccessRights::ReadOnly).map_err(|_| {
            PoseidonError::Corrupted("no free MPK protection keys (too many heaps open on this device)")
        })?;
        // An epoch chain has one metadata range per epoch (growth appends
        // its new sub-heaps' metadata at the old capacity boundary).
        for (base, len) in layout.meta_ranges() {
            dev.set_page_key(base, len, pkey)?;
        }
        Ok(Some(pkey))
    }

    fn assemble(
        dev: Arc<PmemDevice>,
        pkey: Option<ProtectionKey>,
        heap_id: u64,
        layout: HeapLayout,
        recovery: RecoveryReport,
        config: HeapConfig,
    ) -> PoseidonHeap {
        // Slots are pre-sized for the largest sub-heap set an epoch chain
        // can reach: `grow` publishes new sub-heaps by bumping the layout's
        // epoch count, with no reallocation racing the lock-free readers.
        let slots = (0..MAX_SUBHEAPS)
            .map(|_| SubSlot {
                lock: TrackedMutex::default(),
                created: AtomicBool::new(false),
                quarantined: AtomicBool::new(false),
                tx_slots: std::sync::atomic::AtomicU32::new(0),
                full_class: AtomicU8::new(NOT_FULL),
            })
            .collect();
        // The cache is DRAM-only and rebuilt empty on every open — there
        // is deliberately nothing about it to recover.
        let cache = (!config.uncached).then(|| HeapCache::new(&layout, dev.topology().cpus()));
        PoseidonHeap {
            dev,
            pkey,
            heap_id,
            layout,
            slots,
            sb_lock: TrackedMutex::new(()),
            huge_lock: TrackedMutex::new(()),
            huge_quarantined: AtomicBool::new(false),
            recovery,
            ops: OpCounters::default(),
            health: HealthCounters::default(),
            cache,
        }
    }

    /// The underlying device.
    pub fn device(&self) -> &Arc<PmemDevice> {
        &self.dev
    }

    /// This heap's random identity (embedded in every pointer).
    pub fn heap_id(&self) -> u64 {
        self.heap_id
    }

    /// The heap geometry.
    pub fn layout(&self) -> &HeapLayout {
        &self.layout
    }

    /// What the load-time recovery pass found (all-default for a freshly
    /// created heap).
    pub fn recovery_report(&self) -> RecoveryReport {
        self.recovery
    }

    /// Indices of sub-heaps quarantined wholesale by the load-time
    /// recovery (empty on a healthy heap). Their blocks are frozen until
    /// `pfsck --repair` rebuilds the damaged metadata.
    pub fn quarantined_subheaps(&self) -> Vec<u16> {
        (0..self.layout.num_subheaps())
            .filter(|&sub| self.slots[sub as usize].quarantined.load(Ordering::Acquire))
            .collect()
    }

    /// The caching layer, when enabled.
    pub(crate) fn cache(&self) -> Option<&HeapCache> {
        self.cache.as_ref()
    }

    /// Detaches the caching layer (clean-close teardown needs to drain
    /// magazines mutably while still opening operation sessions on
    /// `&self`).
    pub(crate) fn take_cache(&mut self) -> Option<HeapCache> {
        self.cache.take()
    }

    /// Re-attaches the caching layer after [`take_cache`](Self::take_cache).
    pub(crate) fn put_cache(&mut self, cache: HeapCache) {
        self.cache = Some(cache);
    }

    /// Whether `sub` is created and not quarantined — i.e. safe to open
    /// an operation session on.
    pub(crate) fn sub_usable(&self, sub: u16) -> bool {
        let slot = &self.slots[sub as usize];
        slot.created.load(Ordering::Acquire) && !slot.quarantined.load(Ordering::Acquire)
    }

    pub(crate) fn note_alloc(&self) {
        self.ops.allocs.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_free(&self) {
        self.ops.frees.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_rejected_free(&self) {
        self.ops.rejected_frees.fetch_add(1, Ordering::Relaxed);
    }

    /// Grants the calling thread metadata write access for the duration of
    /// the returned guard (no-op when protection is disabled).
    pub(crate) fn write_guard(&self) -> Option<PkruGuard<'_>> {
        self.pkey.map(|k| self.dev.mpk().grant_write(k))
    }

    /// Opens a mutating operation session on `sub`: grants metadata write
    /// access, takes the sub-heap lock, and validates + maps the whole
    /// metadata range *once*. Every word access inside the operation then
    /// goes through the session's view with no further per-word checks.
    pub(crate) fn begin_op(&self, sub: u16) -> Result<OpSession<'_>> {
        let pkru = self.write_guard();
        let lock = self.slots[sub as usize].lock.lock();
        OpSession::guarded(SubCtx { dev: &self.dev, layout: &self.layout, sub }, lock, pkru)
    }

    /// Opens a read-only operation session on `sub` (no `wrpkru` pair —
    /// metadata pages rest at read-only, so reads need no grant).
    pub(crate) fn begin_read_op(&self, sub: u16) -> Result<OpSession<'_>> {
        let lock = self.slots[sub as usize].lock.lock();
        OpSession::read_only(SubCtx { dev: &self.dev, layout: &self.layout, sub }, lock)
    }

    pub(crate) fn huge_ctx(&self) -> HugeCtx<'_> {
        HugeCtx { dev: &self.dev, layout: &self.layout }
    }

    /// Opens a mutating session on the huge region (write grant + huge
    /// lock), refusing if recovery quarantined the region.
    pub(crate) fn begin_huge(&self) -> Result<HugeOp<'_>> {
        if self.huge_quarantined.load(Ordering::Acquire) {
            return Err(PoseidonError::SubheapQuarantined { subheap: HUGE_SUBHEAP });
        }
        let pkru = self.write_guard();
        let lock = self.huge_lock.lock();
        OpSession::guarded(self.huge_ctx(), lock, pkru)
    }

    /// Opens a read-only session on the huge region.
    pub(crate) fn begin_huge_read(&self) -> Result<HugeOp<'_>> {
        if self.huge_quarantined.load(Ordering::Acquire) {
            return Err(PoseidonError::SubheapQuarantined { subheap: HUGE_SUBHEAP });
        }
        let lock = self.huge_lock.lock();
        OpSession::read_only(self.huge_ctx(), lock)
    }

    pub(crate) fn ensure_subheap(&self, sub: u16) -> Result<()> {
        if self.slots[sub as usize].created.load(Ordering::Acquire) {
            return Ok(());
        }
        let _sb = self.sb_lock.lock();
        if self.slots[sub as usize].created.load(Ordering::Acquire) {
            return Ok(());
        }
        let node = self.dev.topology().node_of_cpu(numa::current_cpu()) as u32;
        let _guard = self.write_guard();
        {
            let op = OpSession::unguarded(SubCtx { dev: &self.dev, layout: &self.layout, sub })?;
            subheap::create(&op, node)?;
        }
        superblock::publish_subheap(&self.dev, sub, DirEntry { state: 1, node })?;
        self.slots[sub as usize].created.store(true, Ordering::Release);
        Ok(())
    }

    /// Allocates `size` bytes from the calling CPU's sub-heap — the
    /// paper's `poseidon_alloc`. The usable size is `size` rounded up to
    /// its power-of-two buddy class. If the home sub-heap is quarantined
    /// after a media error — or a media fault strikes mid-allocation —
    /// the allocation transparently fails over to the next healthy
    /// sub-heap after the damaged unit is live-quarantined (see
    /// [`crate::selfheal`]).
    ///
    /// Small classes are served by the transient cache when possible
    /// (lock- and fence-free after the first, batched withdrawal); see
    /// [`HeapConfig::uncached`] for the durability contract of cached
    /// blocks.
    ///
    /// A full home is a cheap detour. Both the cached and the slow path
    /// walk one spill order — home, home+1, … mod n — that skips
    /// quarantined sub-heaps and any whose volatile full-class hint says
    /// the request's class failed there after merging (DESIGN.md §17).
    /// Only when no sub-heap in that walk can serve does the slow path
    /// hand every sub-heap's cached blocks back and retry, so `NoSpace`
    /// still means the caches were emptied first.
    ///
    /// # Errors
    ///
    /// [`PoseidonError::ZeroSize`], [`PoseidonError::TooLarge`],
    /// [`PoseidonError::NoSpace`], [`PoseidonError::TableFull`],
    /// [`PoseidonError::AllFailed`] when every sub-heap is quarantined,
    /// [`PoseidonError::MediaError`] when damage cannot be routed around,
    /// or device errors.
    pub fn alloc(&self, size: u64) -> Result<NvmPtr> {
        // Bounded failover: each media-fault retry either lands on a
        // different sub-heap (the damaged one was just condemned) or
        // finds freshly quarantined blocks withdrawn, so n+1 attempts
        // suffice before conceding.
        let mut attempts = self.layout.num_subheaps();
        loop {
            match self.alloc_attempt(size) {
                Err(e @ PoseidonError::MediaError { .. }) => {
                    let (e, retryable) = self.heal_media_error(e, OpKind::Alloc);
                    if !retryable || attempts == 0 {
                        return Err(e);
                    }
                    attempts -= 1;
                    self.health.failovers.fetch_add(1, Ordering::Relaxed);
                }
                other => return other,
            }
        }
    }

    fn alloc_attempt(&self, size: u64) -> Result<NvmPtr> {
        if let Some(ptr) = self.cached_alloc(size)? {
            return Ok(ptr);
        }
        let home = self.healthy_sub(self.layout.subheap_for_cpu(numa::current_cpu()))?;
        if size == 0 || size > self.layout.max_alloc() {
            // A zero size is refused, a huge one served by the huge
            // region: neither has a buddy class to spill.
            return self.alloc_on(home, size, None);
        }
        let (class, rounded) = class_for_size(size)?;
        // The spill order, home first. This is also how load reaches
        // sub-heaps materialised by [`grow`](Self::grow) beyond the CPU
        // count: a full old sub-heap spills into the fresh capacity.
        for sub in self.spill_order(home, class) {
            match self.alloc_on(sub, size, None) {
                Err(PoseidonError::NoSpace { .. } | PoseidonError::SubheapQuarantined { .. }) => continue,
                other => return other,
            }
        }
        // The last resort, hints ignored: no sub-heap can serve from its
        // free lists, but a cache may be sitting on exactly the withdrawn
        // capacity this request needs. Hand each one back and retry.
        let n = self.layout.num_subheaps();
        for sub in (0..n).map(|step| (home + step) % n) {
            if !self.sub_usable(sub) || self.evict_subheap_cache(sub)? == 0 {
                continue;
            }
            match self.alloc_on(sub, size, None) {
                Err(PoseidonError::NoSpace { .. } | PoseidonError::SubheapQuarantined { .. }) => continue,
                other => return other,
            }
        }
        // Every sub-heap is full: pressure-feedback to the maintenance
        // engine, mirroring the growth pressure flag.
        self.note_space_pressure();
        Err(PoseidonError::NoSpace { requested: rounded })
    }

    fn claim_tx_slot(&self, sub: u16) -> Result<usize> {
        let bitmap = &self.slots[sub as usize].tx_slots;
        loop {
            let current = bitmap.load(Ordering::Acquire);
            let free = (!current).trailing_zeros() as usize;
            if free >= crate::layout::MICRO_SLOTS.min(32) {
                return Err(PoseidonError::TxSlotsExhausted { max: crate::layout::MICRO_SLOTS });
            }
            if bitmap
                .compare_exchange(current, current | (1 << free), Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                return Ok(free);
            }
        }
    }

    fn release_tx_slot(&self, sub: u16, slot: usize) {
        self.slots[sub as usize].tx_slots.fetch_and(!(1u32 << slot), Ordering::AcqRel);
    }

    /// Transactionally allocates `size` bytes — the paper's
    /// `poseidon_tx_alloc`. The allocation is recorded in the sub-heap's
    /// micro log; if the process crashes before the transaction commits
    /// (`is_end = true`), recovery frees every allocation of the
    /// transaction, preventing persistent leaks (§5.3).
    ///
    /// All allocations of one transaction go to the sub-heap the
    /// transaction started on, so the commit (one atomic micro-log
    /// truncation) covers them all.
    ///
    /// # Errors
    ///
    /// As for [`alloc`](Self::alloc), plus [`PoseidonError::TxTooLarge`]
    /// if the transaction exceeds the micro-log capacity. A media fault
    /// on the *first* allocation of a transaction fails over like
    /// [`alloc`](Self::alloc); once the transaction is pinned to a
    /// sub-heap, a fault quarantines the damage and returns the
    /// attributed error — abort the transaction.
    pub fn tx_alloc(&self, size: u64, is_end: bool) -> Result<NvmPtr> {
        let pinned = TX_SUBHEAP.with(|tx| tx.borrow().contains_key(&self.heap_id));
        let mut attempts = self.layout.num_subheaps();
        loop {
            match self.tx_alloc_attempt(size, is_end) {
                Err(e @ PoseidonError::MediaError { .. }) => {
                    let (e, retryable) = self.heal_media_error(e, OpKind::Tx);
                    // A pinned transaction cannot change sub-heaps
                    // mid-flight (§5.3: one sub-heap, one micro-log slot).
                    if pinned || !retryable || attempts == 0 {
                        return Err(e);
                    }
                    attempts -= 1;
                    self.health.failovers.fetch_add(1, Ordering::Relaxed);
                }
                other => return other,
            }
        }
    }

    fn tx_alloc_attempt(&self, size: u64, is_end: bool) -> Result<NvmPtr> {
        let open = TX_SUBHEAP.with(|tx| tx.borrow().get(&self.heap_id).copied());
        let (sub, slot, fresh) = match open {
            Some((sub, slot)) => (sub, slot, false),
            None => {
                let sub = self.healthy_sub(self.layout.subheap_for_cpu(numa::current_cpu()))?;
                (sub, self.claim_tx_slot(sub)?, true)
            }
        };
        let ptr = match self.alloc_on(sub, size, Some((self.heap_id, slot))) {
            Ok(ptr) => ptr,
            Err(e) => {
                if fresh {
                    self.release_tx_slot(sub, slot);
                }
                return Err(e);
            }
        };
        if is_end {
            // Commit: truncate this transaction's micro-log slot
            // atomically.
            let op = self.begin_op(sub)?;
            crate::microlog::truncate(&op, slot)?;
            drop(op);
            self.ops.tx_commits.fetch_add(1, Ordering::Relaxed);
            TX_SUBHEAP.with(|tx| tx.borrow_mut().remove(&self.heap_id));
            self.release_tx_slot(sub, slot);
        } else if fresh {
            TX_SUBHEAP.with(|tx| tx.borrow_mut().insert(self.heap_id, (sub, slot)));
        }
        Ok(ptr)
    }

    /// Commits the calling thread's open transaction without allocating
    /// (equivalent to passing `is_end = true` on the last `tx_alloc`, but
    /// usable when the commit decision comes after the final allocation).
    /// A no-op if no transaction is open.
    ///
    /// # Errors
    ///
    /// Device errors.
    pub fn tx_commit(&self) -> Result<()> {
        self.tx_commit_inner().map_err(|e| self.heal_media_error(e, OpKind::Tx).0)
    }

    fn tx_commit_inner(&self) -> Result<()> {
        let Some((sub, slot)) = TX_SUBHEAP.with(|tx| tx.borrow_mut().remove(&self.heap_id)) else {
            return Ok(());
        };
        let op = match self.begin_op(sub) {
            Ok(op) => op,
            Err(e) => {
                // The sub-heap was condemned (or its metadata poisoned)
                // under the open transaction: the micro-log entries stay
                // pending inside the quarantined unit — recovery or
                // repair settles them — but the volatile slot must not
                // leak with it.
                self.release_tx_slot(sub, slot);
                return Err(e);
            }
        };
        crate::microlog::truncate(&op, slot)?;
        drop(op);
        self.ops.tx_commits.fetch_add(1, Ordering::Relaxed);
        self.release_tx_slot(sub, slot);
        Ok(())
    }

    /// Aborts the calling thread's open transaction, freeing every
    /// allocation it made (exactly what recovery would do after a crash).
    /// A no-op if no transaction is open.
    ///
    /// # Errors
    ///
    /// [`PoseidonError::Corrupted`] if the micro log names another
    /// sub-heap, or device errors.
    pub fn tx_abort(&self) -> Result<()> {
        self.tx_abort_inner().map_err(|e| self.heal_media_error(e, OpKind::Tx).0)
    }

    fn tx_abort_inner(&self) -> Result<()> {
        let Some((sub, slot)) = TX_SUBHEAP.with(|tx| tx.borrow_mut().remove(&self.heap_id)) else {
            return Ok(());
        };
        let op = match self.begin_op(sub) {
            Ok(op) => op,
            Err(e) => {
                // Same policy as `tx_commit_inner`: the entries stay
                // pending in the condemned unit; only the volatile slot
                // is reclaimed.
                self.release_tx_slot(sub, slot);
                return Err(e);
            }
        };
        let mut reverted = RecoveryReport::default();
        let result = recovery::revert_tx(
            &op,
            slot,
            // Lock order sub → huge is consistent: nothing takes them the
            // other way round.
            |offset| hugeregion::free(&self.begin_huge()?, offset).map(|_| true),
            &mut reverted,
        );
        // Blocks the revert quarantined before any error stay quarantined;
        // the ones it freed before any error are back on the free lists.
        self.health.blocks_quarantined.fetch_add(reverted.blocks_quarantined, Ordering::Relaxed);
        self.slots[sub as usize].clear_full();
        result?;
        self.ops.tx_aborts.fetch_add(1, Ordering::Relaxed);
        drop(op);
        self.release_tx_slot(sub, slot);
        Ok(())
    }

    /// Frees the block at `ptr` — the paper's `poseidon_free`. The request
    /// is validated against the block table first: invalid frees and
    /// double frees are rejected without touching metadata (§4.7).
    ///
    /// # Errors
    ///
    /// [`PoseidonError::WrongHeap`], [`PoseidonError::BadSubheap`],
    /// [`PoseidonError::InvalidFree`], [`PoseidonError::DoubleFree`], or
    /// device errors. A mid-free media fault quarantines the damaged
    /// unit (see [`crate::selfheal`]) and returns the attributed
    /// [`PoseidonError::MediaError`] — the caller's block is inside the
    /// damage, so there is nothing to fail over to.
    pub fn free(&self, ptr: NvmPtr) -> Result<()> {
        self.free_inner(ptr).map_err(|e| self.heal_media_error(e, OpKind::Free).0)
    }

    fn free_inner(&self, ptr: NvmPtr) -> Result<()> {
        self.check_ptr(ptr)?;
        if ptr.subheap() == HUGE_SUBHEAP {
            return self.free_huge(ptr);
        }
        // The residency map adjudicates cache-managed blocks (including
        // their double frees) without locks or metadata reads.
        if self.cached_free(ptr)? {
            return Ok(());
        }
        self.free_slow(ptr)
    }

    /// Reallocates the block at `ptr` to `new_size`: allocates a new
    /// block (routing between the sub-heaps and the huge region as the
    /// new size requires), copies `min(old, new)` bytes of user data,
    /// persists the copy, and frees the old block. On error the old
    /// block is left untouched.
    ///
    /// # Errors
    ///
    /// As for [`alloc`](Self::alloc) and [`free`](Self::free);
    /// [`PoseidonError::MediaError`] if the old data cannot be read (the
    /// new block is released again).
    pub fn realloc(&self, ptr: NvmPtr, new_size: u64) -> Result<NvmPtr> {
        let old_size = self.block_size(ptr)?;
        let new_ptr = self.alloc(new_size)?;
        let copy = || -> Result<()> {
            let src = self.raw_offset(ptr)?;
            let dst = self.raw_offset(new_ptr)?;
            let total = old_size.min(new_size);
            let mut buf = vec![0u8; total.min(1 << 20) as usize];
            let mut done = 0u64;
            while done < total {
                let n = (total - done).min(buf.len() as u64) as usize;
                self.dev.read(src + done, &mut buf[..n])?;
                self.dev.write(dst + done, &buf[..n])?;
                done += n as u64;
            }
            self.dev.persist(dst, total)?;
            Ok(())
        };
        if let Err(e) = copy() {
            let _ = self.free(new_ptr);
            return Err(e);
        }
        self.free(ptr)?;
        Ok(new_ptr)
    }

    fn check_ptr(&self, ptr: NvmPtr) -> Result<()> {
        if ptr.is_null() {
            return Err(PoseidonError::InvalidFree { offset: 0 });
        }
        if ptr.heap_id != self.heap_id {
            return Err(PoseidonError::WrongHeap { pointer_heap: ptr.heap_id, this_heap: self.heap_id });
        }
        if ptr.subheap() >= self.layout.num_subheaps() {
            // The sentinel sub-heap id names the huge-object region — but
            // only on layouts that carve one.
            if ptr.subheap() != HUGE_SUBHEAP || self.layout.huge_data_size() == 0 {
                return Err(PoseidonError::BadSubheap { subheap: ptr.subheap() });
            }
        }
        Ok(())
    }

    /// Converts a persistent pointer to its device offset — the paper's
    /// `poseidon_get_rawptr`. Write user data through
    /// [`device()`](Self::device) at this offset.
    ///
    /// # Errors
    ///
    /// [`PoseidonError::WrongHeap`], [`PoseidonError::BadSubheap`], or an
    /// offset beyond the sub-heap's user region.
    pub fn raw_offset(&self, ptr: NvmPtr) -> Result<u64> {
        self.check_ptr(ptr)?;
        if ptr.subheap() == HUGE_SUBHEAP {
            // Huge pointers carry *logical* huge-region offsets; the
            // layout maps them into the containing physical band (extents
            // never straddle band walls, so the whole block is contiguous
            // at the returned device offset).
            return self
                .layout
                .huge_phys_of(ptr.offset(), 1)
                .ok_or(PoseidonError::InvalidFree { offset: ptr.offset() });
        }
        if ptr.offset() >= self.layout.user_size {
            return Err(PoseidonError::InvalidFree { offset: ptr.offset() });
        }
        Ok(self.layout.user_base(ptr.subheap()) + ptr.offset())
    }

    /// Converts a device offset back to a persistent pointer — the
    /// paper's `poseidon_get_nvmptr`.
    ///
    /// # Errors
    ///
    /// [`PoseidonError::InvalidFree`] if the offset is not inside any
    /// sub-heap's user region.
    pub fn nvmptr_of(&self, device_offset: u64) -> Result<NvmPtr> {
        match self.layout.locate(device_offset) {
            Region::HugeData { logical } => Ok(NvmPtr::new(self.heap_id, HUGE_SUBHEAP, logical)),
            Region::SubUser(sub) => {
                Ok(NvmPtr::new(self.heap_id, sub, device_offset - self.layout.user_base(sub)))
            }
            _ => Err(PoseidonError::InvalidFree { offset: device_offset }),
        }
    }

    /// Reads the heap's root pointer — the paper's `poseidon_get_root`.
    ///
    /// # Errors
    ///
    /// Device errors.
    pub fn root(&self) -> Result<NvmPtr> {
        superblock::root(&self.dev)
    }

    /// Sets the heap's root pointer — the paper's `poseidon_set_root`.
    /// Crash-atomic via the superblock undo log.
    ///
    /// # Errors
    ///
    /// [`PoseidonError::WrongHeap`] for a non-null pointer from another
    /// heap, or device errors.
    pub fn set_root(&self, ptr: NvmPtr) -> Result<()> {
        if !ptr.is_null() {
            self.check_ptr(ptr)?;
        }
        // Anchoring a pointer promises it survives a crash, but cached
        // allocations are transient until committed: persist every
        // checked-out block (batched, one two-fence scope per sub-heap)
        // before the root makes any of them reachable.
        self.publish_cached()?;
        let _guard = self.write_guard();
        let _sb = self.sb_lock.lock();
        superblock::set_root(&self.dev, ptr)
    }

    /// Returns the reserved size (the rounded power-of-two class size) of
    /// the live block at `ptr` — useful for bounds-checking writes into
    /// an allocation.
    ///
    /// # Errors
    ///
    /// [`PoseidonError::InvalidFree`] if `ptr` does not name a live
    /// allocated block, plus the usual pointer-validation errors.
    pub fn block_size(&self, ptr: NvmPtr) -> Result<u64> {
        self.check_ptr(ptr)?;
        let sub = ptr.subheap();
        if sub == HUGE_SUBHEAP {
            let op = self.begin_huge_read()?;
            return match hugeregion::lookup(&op, ptr.offset())? {
                Some(rec) if rec.state == crate::persist::state::ALLOC => Ok(rec.len),
                _ => Err(PoseidonError::InvalidFree { offset: ptr.offset() }),
            };
        }
        if !self.slots[sub as usize].created.load(Ordering::Acquire) {
            return Err(PoseidonError::InvalidFree { offset: ptr.offset() });
        }
        if self.slots[sub as usize].quarantined.load(Ordering::Acquire) {
            return Err(PoseidonError::SubheapQuarantined { subheap: sub });
        }
        // A cache-served block is live to the caller but still FREE on
        // media; the residency map is its source of truth.
        if let Some(cache) = self.cache() {
            if let Some(size) = cache.checked_out_size(sub, ptr.offset()) {
                return Ok(size);
            }
        }
        let op = self.begin_read_op(sub)?;
        match crate::hashtable::lookup(&op, ptr.offset())? {
            Some((_, record)) if record.state == crate::persist::state::ALLOC => Ok(record.size),
            _ => Err(PoseidonError::InvalidFree { offset: ptr.offset() }),
        }
    }

    /// Runs a full structural audit of every created sub-heap (block
    /// alignment, non-overlap, free-list/table agreement, level counts).
    /// Intended for tests and debugging.
    ///
    /// # Errors
    ///
    /// [`PoseidonError::Corrupted`] naming the first violated invariant.
    pub fn audit(&self) -> Result<Vec<(u16, SubheapAudit)>> {
        let mut out = Vec::new();
        for sub in 0..self.layout.num_subheaps() {
            let slot = &self.slots[sub as usize];
            // Quarantined sub-heaps have untrustworthy metadata — auditing
            // them would report phantom corruption (or fail on poison).
            if !slot.created.load(Ordering::Acquire) || slot.quarantined.load(Ordering::Acquire) {
                continue;
            }
            let op = self.begin_read_op(sub)?;
            let audit = match self.cache() {
                // Let the auditor classify cache-withdrawn records: they
                // are FREE + flagged on media and absent from the buddy
                // lists, which a cache-blind audit would call corruption.
                Some(cache) => subheap::audit_with(&op, |off| cache.residency(sub, off))?,
                None => subheap::audit(&op)?,
            };
            out.push((sub, audit));
        }
        Ok(out)
    }

    /// Audits the huge-object region's extent table (tiling, alignment,
    /// coalescing — see [`hugeregion`]'s invariants). Returns `None` when
    /// the layout carves no huge region or recovery quarantined it.
    ///
    /// # Errors
    ///
    /// [`PoseidonError::Corrupted`] naming the violated invariant.
    pub fn huge_audit(&self) -> Result<Option<HugeAudit>> {
        if self.layout.huge_data_size() == 0 || self.huge_quarantined.load(Ordering::Acquire) {
            return Ok(None);
        }
        let op = self.begin_huge_read()?;
        Ok(Some(hugeregion::audit(&op)?))
    }

    /// Per-lock serial-time profile (sub-heap locks and the superblock
    /// lock), for scalability projection. Per-CPU sub-heap locks are
    /// *parallel* resources — the projection takes the max across them,
    /// which is exactly the paper's point about per-CPU sub-heaps.
    pub fn contention_profile(&self) -> Vec<LockProfile> {
        let mut profile: Vec<LockProfile> = self
            .slots
            .iter()
            .take(self.layout.num_subheaps() as usize)
            .enumerate()
            .map(|(i, slot)| {
                let mut p = slot.lock.profile(format!("subheap[{i}]"));
                // Cache hits bypass this lock entirely; report them next
                // to the acquisitions they replaced.
                if let Some(cache) = self.cache() {
                    p.cache = Some(cache.stats(i as u16));
                }
                p
            })
            .collect();
        profile.push(self.sb_lock.profile("superblock"));
        profile.push(self.huge_lock.profile("hugeregion"));
        profile
    }

    /// Zeroes the lock counters (between benchmark phases).
    pub fn reset_contention(&self) {
        for slot in self.slots.iter() {
            slot.lock.reset();
        }
        self.sb_lock.reset();
        self.huge_lock.reset();
        if let Some(cache) = self.cache() {
            cache.reset_stats();
        }
    }

    /// Explicitly defragments every created sub-heap to completion:
    /// merges all buddy pairs in every class, hands cached blocks back
    /// first (so defragmentation sees the true free population), and
    /// hole-punches emptied hash-table levels. Returns the number of
    /// merges performed.
    ///
    /// This is the maintenance engine run to quiescence: pressure is
    /// raised (so the pass trims caches) and unbounded
    /// [`maint_step`](Self::maint_step)s run until one observes a fully
    /// clean cycle. For an incremental, serving-loop-safe version call
    /// [`maint_step`](Self::maint_step) /
    /// [`maint_tick`](Self::maint_tick) instead.
    ///
    /// # Errors
    ///
    /// Device errors.
    pub fn defragment(&self) -> Result<u64> {
        self.note_space_pressure();
        let mut merged = 0;
        loop {
            let step = self.maint_step(usize::MAX)?;
            merged += step.merges;
            if step.fully_defragged {
                break;
            }
        }
        Ok(merged)
    }

    /// Grows the pool online to `new_capacity` bytes — extends the
    /// device, commits a new layout epoch in the superblock, and
    /// materialises the added sub-heaps (and huge-region band) without
    /// stopping concurrent allocations.
    ///
    /// The commit is a single two-fence undo scope covering the epoch
    /// record and the header's epoch count: a crash at any instant leaves
    /// the pool either entirely on the old layout or entirely on the new
    /// one. Completion work after the commit point (huge-band bookkeeping,
    /// the cache re-balance) is idempotent and re-run by load-time
    /// recovery, so a torn grow finishes itself on the next open. Once
    /// the commit point has passed the call returns `Ok`: a completion
    /// that fails (a media error is contained like any operation's) is
    /// left to the next open, and a band it did not extend reads as
    /// `huge_bytes_added == 0`.
    ///
    /// New sub-heaps are created lazily on first allocation, exactly like
    /// the originals, so growing an almost-empty pool touches only
    /// metadata-sized state. CPU routing re-balances over the enlarged
    /// sub-heap set immediately; full old sub-heaps also spill into the
    /// new ones on `NoSpace`.
    ///
    /// # Errors
    ///
    /// [`PoseidonError::BadGeometry`] when `new_capacity` does not grow
    /// the pool (or the epoch chain / sub-heap directory is full), or
    /// device errors — an `Err` always means the heap stayed on the old
    /// layout.
    pub fn grow(&self, new_capacity: u64) -> Result<GrowReport> {
        let sb = self.sb_lock.lock();
        let old_capacity = self.layout.capacity();
        let epoch = self.layout.plan_growth(new_capacity)?;
        // Extend the device first — durable immediately, like ftruncate
        // on a DAX file. A crash right after leaves a longer device under
        // the old layout, which `superblock::load` accepts (the layout
        // only has to fit); a re-issued grow then skips this call.
        if new_capacity > self.dev.capacity() {
            self.dev.grow(new_capacity).map_err(PoseidonError::from)?;
        }
        // Tag the new metadata pages before the epoch becomes visible, so
        // there is no window where a published sub-heap's metadata is
        // writable to everyone.
        if let Some(pkey) = self.pkey {
            if epoch.num_subheaps > 0 {
                self.dev.set_page_key(epoch.base, epoch.num_subheaps as u64 * self.layout.meta_size, pkey)?;
            }
        }
        let index = self.layout.epoch_count();
        {
            let _guard = self.write_guard();
            superblock::commit_epoch(&self.dev, index, &epoch)?;
        }
        // THE commit point has passed: the pool has grown. Everything
        // below is completion that recovery re-runs idempotently after a
        // crash, so a failure here only defers it to the next open.
        self.layout.push_epoch(epoch).expect("planned epoch extends the chain");
        let extended = (epoch.huge_size > 0 && !self.huge_quarantined.load(Ordering::Acquire))
            .then(|| self.begin_huge().and_then(|op| hugeregion::extend_to_layout(&op)));
        // Re-balance: hand cached blocks back so magazines re-home under
        // the enlarged CPU→sub-heap routing instead of serving stale
        // assignments.
        let rebalanced = self.drain_cache_for_rebalance();
        // Contain failures only after releasing the superblock lock:
        // condemning a sub-heap persists its verdict under that lock.
        drop(sb);
        let mut huge_bytes_added = 0;
        match extended {
            Some(Ok(added)) => huge_bytes_added = added,
            Some(Err(e)) => {
                let _ = self.heal_media_error(e, OpKind::Alloc);
            }
            None => {}
        }
        if let Err(e) = rebalanced {
            let _ = self.heal_media_error(e, OpKind::Free);
        }
        Ok(GrowReport {
            old_capacity,
            new_capacity,
            epoch: index,
            new_subheaps: epoch.num_subheaps as u16,
            huge_bytes_added,
        })
    }

    /// Snapshot of this heap's operation counters.
    pub fn op_stats(&self) -> HeapOpStats {
        HeapOpStats {
            allocs: self.ops.allocs.load(Ordering::Relaxed),
            frees: self.ops.frees.load(Ordering::Relaxed),
            rejected_frees: self.ops.rejected_frees.load(Ordering::Relaxed),
            tx_commits: self.ops.tx_commits.load(Ordering::Relaxed),
            tx_aborts: self.ops.tx_aborts.load(Ordering::Relaxed),
        }
    }

    /// Deinitialises the heap — the paper's `poseidon_finish`. Releases
    /// the MPK key and removes the page tags (the heap data itself stays
    /// on the device, ready to be loaded again).
    ///
    /// # Errors
    ///
    /// Device errors.
    pub fn close(mut self) -> Result<()> {
        // Clean shutdown keeps every handed-out pointer valid across the
        // reload: publish checked-out blocks as ALLOC and return resident
        // ones to the buddy lists, leaving no cache flags on media.
        self.flush_cache()?;
        self.release_protection()?;
        Ok(())
    }

    fn release_protection(&mut self) -> Result<()> {
        if let Some(pkey) = self.pkey.take() {
            for (base, len) in self.layout.meta_ranges() {
                self.dev.set_page_key(base, len, ProtectionKey::DEFAULT)?;
            }
            let _ = self.dev.mpk().pkey_free(pkey);
        }
        Ok(())
    }
}

impl Drop for PoseidonHeap {
    fn drop(&mut self) {
        let _ = self.release_protection();
    }
}

fn random_heap_id() -> u64 {
    use std::hash::{BuildHasher, Hasher};
    loop {
        let id = std::collections::hash_map::RandomState::new().build_hasher().finish();
        if id != 0 {
            return id;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmem::{CrashMode, DeviceConfig};

    fn heap() -> PoseidonHeap {
        let dev = Arc::new(PmemDevice::new(DeviceConfig::new(64 << 20)));
        PoseidonHeap::open(dev, HeapConfig::new().with_subheaps(2)).unwrap()
    }

    #[test]
    fn alloc_free_roundtrip() {
        let h = heap();
        let p = h.alloc(100).unwrap();
        assert_eq!(p.heap_id, h.heap_id());
        let raw = h.raw_offset(p).unwrap();
        h.device().write(raw, &[7u8; 100]).unwrap();
        h.device().persist(raw, 100).unwrap();
        h.free(p).unwrap();
        assert!(matches!(h.free(p), Err(PoseidonError::DoubleFree { .. })));
    }

    #[test]
    fn pointer_conversions_roundtrip() {
        let h = heap();
        let p = h.alloc(64).unwrap();
        let raw = h.raw_offset(p).unwrap();
        let back = h.nvmptr_of(raw).unwrap();
        assert_eq!(back, p);
        assert!(h.nvmptr_of(0).is_err()); // metadata is not user space
    }

    #[test]
    fn foreign_pointers_are_rejected() {
        let h1 = heap();
        let h2 = heap();
        let p = h1.alloc(64).unwrap();
        assert!(matches!(h2.free(p), Err(PoseidonError::WrongHeap { .. })));
        assert!(matches!(h2.raw_offset(p), Err(PoseidonError::WrongHeap { .. })));
    }

    #[test]
    fn user_writes_cannot_touch_metadata() {
        let h = heap();
        let _p = h.alloc(64).unwrap();
        // Direct store into the metadata prefix must fault.
        let err = h.device().write(4096, &[0xFF; 8]).unwrap_err();
        assert!(matches!(err, pmem::PmemError::ProtectionFault { .. }));
        // And a "heap overflow" running off the end of user data into the
        // next region is caught at the metadata boundary too (user regions
        // are the device tail, so overflow upward from the last block
        // would leave the device; overflow downward hits metadata).
        let first_user = h.layout().user_base(0);
        let err = h.device().write(first_user - 8, &[0xFF; 16]).unwrap_err();
        assert!(matches!(err, pmem::PmemError::ProtectionFault { .. }));
    }

    #[test]
    fn root_pointer_survives_reload() {
        let dev = Arc::new(PmemDevice::new(DeviceConfig::new(64 << 20)));
        let heap_id;
        {
            let h = PoseidonHeap::open(dev.clone(), HeapConfig::new().with_subheaps(2)).unwrap();
            heap_id = h.heap_id();
            let p = h.alloc(128).unwrap();
            h.set_root(p).unwrap();
            h.close().unwrap();
        }
        let h = PoseidonHeap::load(dev, HeapConfig::new()).unwrap();
        assert_eq!(h.heap_id(), heap_id);
        let root = h.root().unwrap();
        assert!(!root.is_null());
        assert_eq!(root.heap_id, heap_id);
        // The root block is still allocated: freeing succeeds exactly once.
        h.free(root).unwrap();
        assert!(matches!(h.free(root), Err(PoseidonError::DoubleFree { .. })));
    }

    #[test]
    fn create_refuses_existing_heap_and_load_refuses_blank() {
        let dev = Arc::new(PmemDevice::new(DeviceConfig::new(64 << 20)));
        let h = PoseidonHeap::create(dev.clone(), HeapConfig::new().with_subheaps(2)).unwrap();
        drop(h);
        assert!(matches!(
            PoseidonHeap::create(dev.clone(), HeapConfig::new()),
            Err(PoseidonError::Corrupted(_))
        ));
        let blank = Arc::new(PmemDevice::new(DeviceConfig::new(64 << 20)));
        assert!(matches!(PoseidonHeap::load(blank, HeapConfig::new()), Err(PoseidonError::Corrupted(_))));
    }

    #[test]
    fn per_cpu_subheaps_isolate_allocations() {
        let h = Arc::new(heap());
        let h1 = h.clone();
        let p0 = {
            let _pin = pmem::numa::CpuPinGuard::pin(0);
            h.alloc(64).unwrap()
        };
        let p1 = std::thread::spawn(move || {
            pmem::numa::set_current_cpu(1);
            h1.alloc(64).unwrap()
        })
        .join()
        .unwrap();
        assert_eq!(p0.subheap(), 0);
        assert_eq!(p1.subheap(), 1);
        // Cross-thread free works (§5.7).
        h.free(p1).unwrap();
        h.free(p0).unwrap();
    }

    #[test]
    fn tx_alloc_commit_keeps_blocks() {
        let dev = Arc::new(PmemDevice::new(DeviceConfig::new(64 << 20)));
        let h = PoseidonHeap::open(dev.clone(), HeapConfig::new().with_subheaps(2)).unwrap();
        let a = h.tx_alloc(64, false).unwrap();
        let b = h.tx_alloc(64, true).unwrap(); // commit
        drop(h);
        dev.simulate_crash(CrashMode::Strict, 0);
        let h = PoseidonHeap::load(dev, HeapConfig::new()).unwrap();
        assert_eq!(h.recovery_report().tx_allocations_reverted, 0);
        // Both blocks survived: they can each be freed exactly once.
        h.free(a).unwrap();
        h.free(b).unwrap();
    }

    #[test]
    fn uncommitted_tx_is_reverted_on_recovery() {
        let dev = Arc::new(PmemDevice::new(DeviceConfig::new(64 << 20)));
        let h = PoseidonHeap::open(dev.clone(), HeapConfig::new().with_subheaps(2)).unwrap();
        let a = h.tx_alloc(64, false).unwrap();
        let b = h.tx_alloc(64, false).unwrap(); // never committed
        drop(h);
        dev.simulate_crash(CrashMode::Strict, 0);
        let h = PoseidonHeap::load(dev, HeapConfig::new()).unwrap();
        assert_eq!(h.recovery_report().tx_allocations_reverted, 2);
        // The blocks were freed by recovery: freeing them again is a
        // double free.
        assert!(matches!(h.free(a), Err(PoseidonError::DoubleFree { .. })));
        assert!(matches!(h.free(b), Err(PoseidonError::DoubleFree { .. })));
        h.audit().unwrap();
    }

    #[test]
    fn tx_commit_without_alloc() {
        let h = heap();
        let a = h.tx_alloc(64, false).unwrap();
        let b = h.tx_alloc(64, false).unwrap();
        h.tx_commit().unwrap();
        // Committed: the blocks are live and freeable exactly once.
        h.free(a).unwrap();
        h.free(b).unwrap();
        // Idempotent without an open transaction.
        h.tx_commit().unwrap();
        assert_eq!(h.op_stats().tx_commits, 1);
    }

    #[test]
    fn tx_abort_frees_allocations() {
        let h = heap();
        let a = h.tx_alloc(64, false).unwrap();
        h.tx_abort().unwrap();
        assert!(matches!(h.free(a), Err(PoseidonError::DoubleFree { .. })));
        // Abort with no open tx is a no-op.
        h.tx_abort().unwrap();
    }

    #[test]
    fn tx_abort_refuses_a_foreign_micro_log_entry() {
        // Recovery's rule holds on the abort path too: an entry naming
        // another sub-heap is corruption, never a free of whatever block
        // this sub-heap keeps at that offset.
        let dev = Arc::new(PmemDevice::new(DeviceConfig::new(64 << 20)));
        let config = HeapConfig::new().with_subheaps(2).without_protection().without_cache();
        let h = PoseidonHeap::open(dev.clone(), config).unwrap();
        let _pin = pmem::numa::CpuPinGuard::pin(0);
        let live = h.alloc(64).unwrap();
        let sub = h.tx_alloc(64, false).unwrap().subheap();
        assert_eq!(sub, live.subheap());
        // The sub-heap's first transaction holds micro-log slot 0.
        let ctx = SubCtx { dev: &dev, layout: h.layout(), sub };
        let foreign = NvmPtr::new(h.heap_id(), (sub + 1) % 2, live.offset());
        dev.write_pod(ctx.micro_entry_off(0, 0), &foreign).unwrap();
        assert!(matches!(h.tx_abort(), Err(PoseidonError::Corrupted(_))));
        h.free(live).unwrap();
    }

    #[test]
    fn unprotected_heap_skips_mpk() {
        let dev = Arc::new(PmemDevice::new(DeviceConfig::new(64 << 20)));
        let before = dev.mpk().stats().wrpkru_count;
        let h =
            PoseidonHeap::open(dev.clone(), HeapConfig::new().with_subheaps(2).without_protection()).unwrap();
        let p = h.alloc(64).unwrap();
        h.free(p).unwrap();
        assert_eq!(dev.mpk().stats().wrpkru_count, before);
        // Metadata is writable by anyone — that's the point of the ablation.
        dev.write(4096, &[1]).unwrap();
    }

    #[test]
    fn audit_passes_after_mixed_workload() {
        let h = heap();
        let mut live = Vec::new();
        for i in 0..200u64 {
            live.push(h.alloc(32 + (i % 500)).unwrap());
            if i % 3 == 0 {
                let p = live.swap_remove((i as usize * 7) % live.len());
                h.free(p).unwrap();
            }
        }
        let audits = h.audit().unwrap();
        assert!(!audits.is_empty());
        for p in live {
            h.free(p).unwrap();
        }
        h.audit().unwrap();
    }

    #[test]
    fn too_large_and_zero_requests_fail_cleanly() {
        let h = heap();
        assert!(matches!(h.alloc(0), Err(PoseidonError::ZeroSize)));
        // Twice the user region exceeds the huge region too (it is a
        // quarter of the device); the error reports both effective caps.
        let req = h.layout().user_size * 2;
        assert!(req > h.layout().huge_data_size());
        match h.alloc(req) {
            Err(PoseidonError::TooLarge { requested, subheap_max, huge_remaining }) => {
                assert_eq!(requested, req);
                assert_eq!(subheap_max, h.layout().max_alloc());
                assert_eq!(huge_remaining, h.layout().huge_data_size());
            }
            other => panic!("expected TooLarge, got {other:?}"),
        }
    }

    #[test]
    fn huge_alloc_beyond_subheap_max_succeeds() {
        let h = heap();
        let max = h.layout().max_alloc();
        let p = h.alloc(max + 1).unwrap();
        assert_eq!(p.subheap(), u16::MAX, "huge pointers carry the sentinel sub-heap");
        // Reserved size is page-rounded, and data is writable end to end.
        let size = h.block_size(p).unwrap();
        assert!(size > max);
        let raw = h.raw_offset(p).unwrap();
        h.device().write(raw, &[0xA5; 4096]).unwrap();
        h.device().write(raw + size - 8, &[0xA5; 8]).unwrap();
        h.device().persist(raw, size).unwrap();
        // Pointer conversions roundtrip through the huge data region.
        assert_eq!(h.nvmptr_of(raw).unwrap(), p);
        let audit = h.huge_audit().unwrap().unwrap();
        assert_eq!(audit.alloc_extents, 1);
        h.free(p).unwrap();
        assert!(matches!(h.free(p), Err(PoseidonError::DoubleFree { .. })));
        assert!(matches!(h.block_size(p), Err(PoseidonError::InvalidFree { .. })));
        let audit = h.huge_audit().unwrap().unwrap();
        assert_eq!(audit.alloc_extents, 0);
        assert_eq!(audit.free_bytes, h.layout().huge_data_size());
    }

    #[test]
    fn huge_pointers_are_rejected_without_a_huge_region() {
        // A device below the carve-out threshold has no huge region: the
        // sentinel sub-heap id is an ordinary BadSubheap there.
        let dev = Arc::new(PmemDevice::new(DeviceConfig::new(8 << 20)));
        let h = PoseidonHeap::open(dev, HeapConfig::new().with_subheaps(1)).unwrap();
        assert_eq!(h.layout().huge_data_size(), 0);
        match h.alloc(h.layout().max_alloc() + 1) {
            Err(PoseidonError::TooLarge { huge_remaining, .. }) => assert_eq!(huge_remaining, 0),
            other => panic!("expected TooLarge, got {other:?}"),
        }
        let foreign = NvmPtr::new(h.heap_id(), u16::MAX, 0);
        assert!(matches!(h.free(foreign), Err(PoseidonError::BadSubheap { .. })));
        assert!(h.huge_audit().unwrap().is_none());
    }

    #[test]
    fn huge_allocation_survives_crash_at_every_point() {
        // Adversarial sweep over the heap-level huge path: crash after
        // every k-th persisted event during alloc and free; after each
        // power cycle the reloaded heap must audit clean and either show
        // the op completed or fully rolled back.
        let dev = Arc::new(PmemDevice::new(DeviceConfig::new(64 << 20)));
        let size;
        {
            let h = PoseidonHeap::open(dev.clone(), HeapConfig::new().with_subheaps(2)).unwrap();
            size = h.layout().max_alloc() + 1;
        }
        for stage in ["alloc", "free"] {
            let mut k = 1u64;
            loop {
                let result = {
                    let h = PoseidonHeap::load(dev.clone(), HeapConfig::new()).unwrap();
                    // Reset to the stage's pre-image (the previous crash
                    // may have left either the old or the new state).
                    let audit = h.huge_audit().unwrap().unwrap();
                    let live = (audit.alloc_extents == 1)
                        .then(|| h.nvmptr_of(h.layout().huge_phys_of(0, 1).unwrap()).unwrap());
                    if stage == "alloc" {
                        if let Some(p) = live {
                            h.free(p).unwrap();
                        }
                        dev.arm_crash_after(k);
                        h.alloc(size).map(|_| ())
                    } else {
                        let p = live.unwrap_or_else(|| h.alloc(size).unwrap());
                        dev.arm_crash_after(k);
                        h.free(p)
                    }
                };
                dev.simulate_crash(CrashMode::Strict, k);
                {
                    let h = PoseidonHeap::load(dev.clone(), HeapConfig::new()).unwrap();
                    let audit = h.huge_audit().unwrap().unwrap();
                    assert_eq!(
                        audit.free_bytes + audit.alloc_bytes + audit.quarantined_bytes,
                        h.layout().huge_data_size(),
                        "crash point {k} in {stage} tore the extent table"
                    );
                    assert_eq!(audit.quarantined_extents, 0);
                }
                if result.is_ok() {
                    break;
                }
                k += 1;
                assert!(k < 200, "crash sweep did not converge");
            }
            assert!(k > 3, "sweep must cover interior crash points, swept only {k}");
        }
    }

    #[test]
    fn uncommitted_huge_tx_is_reverted_on_recovery() {
        let dev = Arc::new(PmemDevice::new(DeviceConfig::new(64 << 20)));
        let h = PoseidonHeap::open(dev.clone(), HeapConfig::new().with_subheaps(2)).unwrap();
        let huge_size = h.layout().max_alloc() + 1;
        let small = h.tx_alloc(64, false).unwrap();
        let big = h.tx_alloc(huge_size, false).unwrap(); // never committed
        assert_eq!(big.subheap(), u16::MAX);
        drop(h);
        dev.simulate_crash(CrashMode::Strict, 0);
        let h = PoseidonHeap::load(dev.clone(), HeapConfig::new()).unwrap();
        assert_eq!(h.recovery_report().tx_allocations_reverted, 2);
        assert!(matches!(h.free(small), Err(PoseidonError::DoubleFree { .. })));
        assert!(matches!(h.free(big), Err(PoseidonError::DoubleFree { .. })));
        let audit = h.huge_audit().unwrap().unwrap();
        assert_eq!(audit.alloc_extents, 0, "recovery must free the uncommitted huge extent");
        h.audit().unwrap();
    }

    #[test]
    fn committed_huge_tx_survives_recovery() {
        let dev = Arc::new(PmemDevice::new(DeviceConfig::new(64 << 20)));
        let h = PoseidonHeap::open(dev.clone(), HeapConfig::new().with_subheaps(2)).unwrap();
        let huge_size = h.layout().max_alloc() + 1;
        let big = h.tx_alloc(huge_size, true).unwrap(); // committed
        drop(h);
        dev.simulate_crash(CrashMode::Strict, 0);
        let h = PoseidonHeap::load(dev, HeapConfig::new()).unwrap();
        assert_eq!(h.recovery_report().tx_allocations_reverted, 0);
        h.free(big).unwrap();
    }

    #[test]
    fn huge_tx_abort_frees_the_extent() {
        let h = heap();
        let big = h.tx_alloc(h.layout().max_alloc() + 1, false).unwrap();
        h.tx_abort().unwrap();
        assert!(matches!(h.free(big), Err(PoseidonError::DoubleFree { .. })));
        assert_eq!(h.huge_audit().unwrap().unwrap().alloc_extents, 0);
    }

    #[test]
    fn realloc_crosses_between_subheap_and_huge_paths() {
        let h = heap();
        let max = h.layout().max_alloc();
        let small = h.alloc(1024).unwrap();
        let raw = h.raw_offset(small).unwrap();
        h.device().write(raw, b"growing data").unwrap();
        h.device().persist(raw, 12).unwrap();
        // Grow across the boundary: sub-heap block → huge extent.
        let big = h.realloc(small, max + 1).unwrap();
        assert_eq!(big.subheap(), u16::MAX);
        let mut buf = [0u8; 12];
        h.device().read(h.raw_offset(big).unwrap(), &mut buf).unwrap();
        assert_eq!(&buf, b"growing data");
        assert!(matches!(h.free(small), Err(PoseidonError::DoubleFree { .. })));
        // Shrink back: huge extent → sub-heap block.
        let back = h.realloc(big, 1024).unwrap();
        assert_ne!(back.subheap(), u16::MAX);
        h.device().read(h.raw_offset(back).unwrap(), &mut buf).unwrap();
        assert_eq!(&buf, b"growing data");
        h.free(back).unwrap();
        assert_eq!(h.huge_audit().unwrap().unwrap().alloc_extents, 0);
        h.audit().unwrap();
    }

    #[test]
    fn alloc_path_is_o1_validations() {
        // The tentpole's acceptance criterion: a steady-state allocation
        // or free validates the metadata range a constant number of times
        // (one map per operation, plus the rare defrag/shrink scopes),
        // while the number of metadata word accesses it performs is far
        // larger. Warm up first so sub-heap creation costs don't count.
        // Cache off: this test pins the *slow path's* validation budget.
        let dev = Arc::new(PmemDevice::new(DeviceConfig::new(64 << 20)));
        let h = PoseidonHeap::open(dev, HeapConfig::new().with_subheaps(2).without_cache()).unwrap();
        let warm: Vec<_> = (0..16).map(|_| h.alloc(64).unwrap()).collect();
        for p in warm {
            h.free(p).unwrap();
        }
        let before = h.device().stats();
        const N: u64 = 200;
        let ptrs: Vec<_> = (0..N).map(|_| h.alloc(64).unwrap()).collect();
        for p in ptrs {
            h.free(p).unwrap();
        }
        let after = h.device().stats();
        let validations = after.validations - before.validations;
        let word_accesses = (after.read_ops - before.read_ops) + (after.write_ops - before.write_ops);
        // 2N operations; each should cost ~1 validation. Allow slack for
        // occasional defragmentation scopes but stay firmly O(1)/op.
        assert!(validations <= 2 * N + 32, "validations {validations} not O(1) per op");
        assert!(
            word_accesses > validations * 4,
            "word accesses {word_accesses} should dwarf validations {validations}"
        );
    }

    #[test]
    fn fence_budget_per_pair_is_pinned() {
        // Regression pin for the batched commit protocol: a steady-state
        // operation pays exactly three fences (log entries, targets,
        // generation bump) no matter how many words it logs — so an
        // alloc/free pair costs exactly six. Any fence creep on the hot
        // path fails this test. Cache off: the cached fast path does not
        // fence at all, which tests/cache.rs pins separately.
        let dev = Arc::new(PmemDevice::new(DeviceConfig::new(64 << 20)));
        let h = PoseidonHeap::open(dev, HeapConfig::new().with_subheaps(2).without_cache()).unwrap();
        let warm: Vec<_> = (0..16).map(|_| h.alloc(64).unwrap()).collect();
        for p in warm {
            h.free(p).unwrap();
        }
        let before = h.device().stats();
        const N: u64 = 100;
        for _ in 0..N {
            let p = h.alloc(64).unwrap();
            h.free(p).unwrap();
        }
        let after = h.device().stats();
        let sfences = after.sfence_count - before.sfence_count;
        assert_eq!(sfences, N * 6, "fence budget changed: {sfences} sfences for {N} pairs");
    }

    #[test]
    fn shrink_runs_on_free_not_on_alloc() {
        // Stage an empty-but-active top level by hand (unprotected heap so
        // the test can write metadata directly), then check which paths
        // probe it: the alloc path must leave it alone, the free path must
        // deactivate it.
        let dev = Arc::new(PmemDevice::new(DeviceConfig::new(64 << 20)));
        let h =
            PoseidonHeap::open(dev, HeapConfig::new().with_subheaps(2).without_protection().without_cache())
                .unwrap();
        let p = h.alloc(64).unwrap(); // creates sub-heap 0
        let ctx = SubCtx { dev: h.device(), layout: h.layout(), sub: 0 };
        assert_eq!(h.device().read_pod::<u64>(ctx.active_levels_off()).unwrap(), 1);
        h.device().write_pod(ctx.active_levels_off(), &2u64).unwrap();
        h.device().write_pod(ctx.level_count_off(1), &0u64).unwrap();

        let q = h.alloc(64).unwrap();
        assert_eq!(
            h.device().read_pod::<u64>(ctx.active_levels_off()).unwrap(),
            2,
            "alloc path must not probe/shrink the table"
        );
        h.free(q).unwrap();
        assert_eq!(
            h.device().read_pod::<u64>(ctx.active_levels_off()).unwrap(),
            1,
            "free path must deactivate the empty top level"
        );
        h.free(p).unwrap();
        h.audit().unwrap();
    }
}
