//! The transient caching layer: lock-free per-CPU magazines and transfer
//! pools in front of the persistent buddy allocator.
//!
//! The persistent slow path pays a sub-heap mutex, a metadata-range
//! validation, and a two-fence undo commit per operation. This layer
//! amortises all three: a *magazine* of recently freed blocks per CPU and
//! a lock-free *transfer pool* per sub-heap serve repeat
//! allocate/free cycles with a handful of atomic operations — **zero
//! locks, zero fences, zero device traffic**.
//!
//! Everything here is DRAM-only. The persistent invariant is brutal on
//! purpose: every cache-managed block stays `FREE` on media, carrying
//! [`FLAG_CACHED`](crate::persist::FLAG_CACHED) and unlinked from its
//! buddy list (withdrawn in one batched, undo-logged *refill*). A crash
//! at any instant therefore needs no cache-specific recovery — load-time
//! reconciliation just relinks flagged records as free. The flip side is
//! the durability contract: a cached allocation that was never
//! *published* (via `set_root` or a clean close, which flip checked-out
//! blocks to `ALLOC` in one batch) evaporates across a crash, exactly
//! like a DRAM `malloc`.
//!
//! Block ownership is tracked by a per-sub-heap **residency map**: a
//! lazily chunked array of one atomic byte per 32-byte granule of user
//! space (`0` = not cache-managed, `0x80|class` = resident/free,
//! `0x40|class` = checked out to the application). The cached free is a
//! single CAS on that byte — which also gives the fast path the same
//! double-free protection the table gives the slow path.
//!
//! A miss at a home known full for the class (its full-class hint,
//! DESIGN.md §17) is a cheap detour: the first sub-heap of the spill
//! order the slow path also walks ([`PoseidonHeap::spill_order`]) serves
//! it from its transfer pool, or refills into that pool — never into the
//! CPU's magazine, which stays homed. Frees of spilled blocks park in the
//! same pool.
//!
//! Blocks leave the cache through one drain
//! ([`PoseidonHeap::drain_resident`]: overflow, the last-resort eviction,
//! close, scrub) and one publish (`settle_cache`: `set_root`, close).

use std::sync::atomic::{fence, AtomicPtr, AtomicU64, AtomicU8, Ordering};
use std::sync::OnceLock;

use platform::lockfree::SlotPool;
use platform::percpu::PerCpuSlots;
use pmem::contention::CacheStats;
use pmem::numa;

use crate::error::{PoseidonError, Result};
use crate::heap::PoseidonHeap;
use crate::layout::{class_for_size, class_size, HeapLayout, MAX_SUBHEAPS, MIN_BLOCK};
use crate::nvmptr::NvmPtr;
use crate::session::OpSession;
use crate::subheap::{self, CacheResidency};

/// Blocks held per CPU magazine and size class; also the batch a cache
/// miss withdraws under one two-fence commit.
pub(crate) const MAGAZINE_SIZE: usize = 32;

/// Capacity of each per-sub-heap, per-class transfer pool (the overflow
/// and cross-CPU free destination). A full pool drains back to the
/// persistent free lists in one batch.
pub(crate) const MAX_CACHED_PER_CLASS: usize = 128;

/// Number of buddy classes the cache fronts: classes 0..=7, i.e. blocks
/// up to `32 << 7` = 4 KiB — the sizes where per-operation overhead
/// dominates. Larger blocks always take the slow path.
pub(crate) const CACHEABLE_CLASSES: usize = 8;

/// User space covered by one lazily allocated residency-map chunk.
const CHUNK_BYTES: u64 = 2 << 20;
const CHUNK_GRANULES: usize = (CHUNK_BYTES / MIN_BLOCK) as usize;

const RESIDENT: u8 = 0x80;
const CHECKED_OUT: u8 = 0x40;
const KIND_MASK: u8 = 0xC0;
const CLASS_MASK: u8 = 0x3F;

/// One residency-map chunk: a byte per 32-byte granule.
struct Chunk([AtomicU8; CHUNK_GRANULES]);

/// Per-sub-heap residency map: chunk directory with CAS-installed, leaked
/// chunks (freed in [`Drop`]). Only the head granule of a block carries
/// its byte, so interior pointers never match.
struct ResidencyMap {
    chunks: Box<[AtomicPtr<Chunk>]>,
}

impl ResidencyMap {
    fn new(user_size: u64) -> ResidencyMap {
        let n = user_size.div_ceil(CHUNK_BYTES) as usize;
        ResidencyMap { chunks: (0..n).map(|_| AtomicPtr::new(std::ptr::null_mut())).collect() }
    }

    /// The byte for `offset`, if its chunk exists (read paths; offsets
    /// out of range — e.g. from an invalid pointer — return `None`).
    /// Misaligned offsets also return `None`: a forged interior pointer
    /// like `head + 8` must not divide down to the head's byte — the slow
    /// path rejects it with a metadata lookup instead.
    fn granule(&self, offset: u64) -> Option<&AtomicU8> {
        if !offset.is_multiple_of(MIN_BLOCK) {
            return None;
        }
        let g = (offset / MIN_BLOCK) as usize;
        let p = self.chunks.get(g / CHUNK_GRANULES)?.load(Ordering::Acquire);
        if p.is_null() {
            return None;
        }
        // SAFETY: a non-null chunk pointer was CAS-installed from
        // `Box::into_raw` and is only freed in `Drop`, which requires
        // `&mut self` — no outstanding shared borrow can coexist with it.
        Some(unsafe { &(*p).0[g % CHUNK_GRANULES] })
    }

    /// The byte for `offset`, installing its chunk first if needed (used
    /// on refill, where offsets come from the allocator and are in
    /// bounds).
    fn granule_or_install(&self, offset: u64) -> &AtomicU8 {
        let g = (offset / MIN_BLOCK) as usize;
        let slot = &self.chunks[g / CHUNK_GRANULES];
        let mut p = slot.load(Ordering::Acquire);
        if p.is_null() {
            let fresh = Box::into_raw(Box::new(Chunk(std::array::from_fn(|_| AtomicU8::new(0)))));
            match slot.compare_exchange(std::ptr::null_mut(), fresh, Ordering::AcqRel, Ordering::Acquire) {
                Ok(_) => p = fresh,
                Err(winner) => {
                    // SAFETY: `fresh` was never published; we still own it.
                    drop(unsafe { Box::from_raw(fresh) });
                    p = winner;
                }
            }
        }
        // SAFETY: as in `granule`.
        unsafe { &(*p).0[g % CHUNK_GRANULES] }
    }

    /// Visits every byte of every installed chunk with its user-region
    /// offset.
    fn for_each(&self, mut f: impl FnMut(u64, &AtomicU8)) {
        for (ci, slot) in self.chunks.iter().enumerate() {
            let p = slot.load(Ordering::Acquire);
            if p.is_null() {
                continue;
            }
            // SAFETY: as in `granule`.
            let chunk = unsafe { &*p };
            for (i, byte) in chunk.0.iter().enumerate() {
                f((ci * CHUNK_GRANULES + i) as u64 * MIN_BLOCK, byte);
            }
        }
    }
}

impl Drop for ResidencyMap {
    fn drop(&mut self) {
        for slot in self.chunks.iter() {
            let p = slot.swap(std::ptr::null_mut(), Ordering::AcqRel);
            if !p.is_null() {
                // SAFETY: the pointer came from `Box::into_raw` and is
                // dropped exactly once (swapped out above).
                drop(unsafe { Box::from_raw(p) });
            }
        }
    }
}

/// One CPU's magazines: a bounded LIFO of resident block offsets per
/// cacheable class. Only blocks of one sub-heap live here at a time.
struct Magazine {
    /// Which sub-heap the parked rounds belong to. Routing can re-home a
    /// CPU when [`PoseidonHeap::grow`](crate::PoseidonHeap::grow) enlarges
    /// the sub-heap set, so the invariant is *not* "home == current
    /// routing" — it is that every offset in `rounds` belongs to `home`,
    /// whatever the routing says today. `u16::MAX` means unhomed (empty).
    home: u16,
    rounds: [Vec<u64>; CACHEABLE_CLASSES],
}

impl Default for Magazine {
    fn default() -> Magazine {
        Magazine { home: u16::MAX, rounds: Default::default() }
    }
}

/// Per-sub-heap cache state.
struct SubCache {
    map: ResidencyMap,
    /// One lock-free transfer pool per cacheable class: overflow from
    /// magazines and the landing zone for cross-CPU frees.
    pools: Box<[SlotPool]>,
    hits: AtomicU64,
    misses: AtomicU64,
    refills: AtomicU64,
    drains: AtomicU64,
}

impl SubCache {
    fn new(user_size: u64) -> SubCache {
        SubCache {
            map: ResidencyMap::new(user_size),
            pools: (0..CACHEABLE_CLASSES).map(|_| SlotPool::new(MAX_CACHED_PER_CLASS)).collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            refills: AtomicU64::new(0),
            drains: AtomicU64::new(0),
        }
    }
}

/// What [`HeapCache::try_free`] did with a free request.
pub(crate) enum CachedFree {
    /// Absorbed into a magazine or pool — done, nothing touched media.
    Hit,
    /// The residency map says the block is already free in the cache.
    DoubleFree,
    /// Not cache-managed: take the slow path.
    Miss,
    /// Absorbed, but the pool overflowed: the caller must drain this
    /// batch (now exclusively owned by it) through the slow path.
    Drain(Vec<u64>),
}

/// The whole caching layer of one heap (DRAM-only; rebuilt empty on every
/// load). It is bounded: per CPU at most [`MAGAZINE_SIZE`] blocks per
/// size class, plus one transfer pool of [`MAX_CACHED_PER_CLASS`] slots
/// per sub-heap and class. Classes whose worst-case cache footprint would
/// eat an eighth of the sub-heap bypass the cache, so a tiny pool never
/// OOMs behind it.
pub(crate) struct HeapCache {
    magazines: PerCpuSlots<Magazine>,
    /// Lazily materialised per-sub-heap state, pre-sized for the largest
    /// sub-heap set an epoch chain can reach so `grow` never reallocates
    /// (fast paths index this slice without any lock).
    subs: Box<[OnceLock<SubCache>]>,
    /// Per-class cache eligibility: a class whose worst-case footprint
    /// would hog the sub-heap is bypassed (tiny-pool degradation).
    cacheable: [bool; CACHEABLE_CLASSES],
    /// Uniform per-sub-heap user size (shared by every epoch).
    user_size: u64,
}

impl HeapCache {
    pub(crate) fn new(layout: &HeapLayout, num_cpus: usize) -> HeapCache {
        let mut cacheable = [false; CACHEABLE_CLASSES];
        for (class, ok) in cacheable.iter_mut().enumerate() {
            let footprint =
                ((MAX_CACHED_PER_CLASS + 2 * MAGAZINE_SIZE) as u64).saturating_mul(class_size(class));
            *ok = footprint <= layout.user_size / 8;
        }
        HeapCache {
            magazines: PerCpuSlots::new(num_cpus.max(1), |_| Magazine::default()),
            subs: (0..MAX_SUBHEAPS).map(|_| OnceLock::new()).collect(),
            cacheable,
            user_size: layout.user_size,
        }
    }

    /// The sub-heap's cache state, materialising it on first touch.
    fn sub_cache(&self, sub: u16) -> &SubCache {
        self.subs[sub as usize].get_or_init(|| SubCache::new(self.user_size))
    }

    /// The sub-heap's cache state only if something already touched it.
    fn existing(&self, sub: u16) -> Option<&SubCache> {
        self.subs[sub as usize].get()
    }

    /// Runs `f` on `cpu`'s magazine once it is homed on `sub`. A magazine
    /// still holding another sub-heap's rounds first spills them to *that*
    /// sub-heap's transfer pools (they must never change owners); rounds
    /// that do not fit keep the old home and `f` is skipped this round.
    fn with_homed_magazine<R>(&self, cpu: usize, sub: u16, f: impl FnOnce(&mut Magazine) -> R) -> Option<R> {
        self.magazines
            .try_with(cpu, |m| {
                if m.home != sub {
                    if m.home != u16::MAX {
                        let old = self.sub_cache(m.home);
                        for (class, v) in m.rounds.iter_mut().enumerate() {
                            v.retain(|&offset| old.pools[class].push(offset).is_err());
                        }
                        if m.rounds.iter().any(|v| !v.is_empty()) {
                            return None;
                        }
                    }
                    m.home = sub;
                }
                Some(f(m))
            })
            .flatten()
    }

    pub(crate) fn is_cacheable(&self, class: usize) -> bool {
        class < CACHEABLE_CLASSES && self.cacheable[class]
    }

    /// The lock-free allocation fast path: pop a block ([`pop`](Self::pop))
    /// and [`claim`](Self::claim) it; a claimed block is a counted hit.
    /// `None` is not counted: the caller may still find a spill pool, and
    /// counts the miss with [`note_miss`](Self::note_miss) if it does not.
    pub(crate) fn try_alloc(&self, cpu: usize, sub: u16, home: bool, class: usize) -> Option<u64> {
        let offset = self.pop(cpu, sub, home, class)?;
        self.claim(sub, class, offset)
    }

    /// Pops a parked block of `class`: the CPU's magazine first (home
    /// sub-heap only), then the sub-heap's transfer pool.
    fn pop(&self, cpu: usize, sub: u16, home: bool, class: usize) -> Option<u64> {
        let from_magazine =
            if home { self.with_homed_magazine(cpu, sub, |m| m.rounds[class].pop()).flatten() } else { None };
        from_magazine.or_else(|| self.sub_cache(sub).pools[class].pop())
    }

    /// Hands a popped block out: one CAS on its residency byte, resident
    /// to checked out, and a counted hit. A byte that
    /// [`condemn`](Self::condemn) zeroed after the pop fails the claim,
    /// and the block stays out of circulation.
    fn claim(&self, sub: u16, class: usize, offset: u64) -> Option<u64> {
        let sc = self.sub_cache(sub);
        let class = class as u8;
        let byte = sc.map.granule(offset)?;
        byte.compare_exchange(RESIDENT | class, CHECKED_OUT | class, Ordering::AcqRel, Ordering::Relaxed)
            .ok()?;
        sc.hits.fetch_add(1, Ordering::Relaxed);
        Some(offset)
    }

    /// The lock-free free fast path: one CAS on the residency byte
    /// (checked-out → resident) claims the block, then it parks in the
    /// CPU's magazine or the sub-heap's pool. The byte also adjudicates
    /// double frees without any metadata read.
    pub(crate) fn try_free(&self, cpu: usize, sub: u16, home: bool, offset: u64) -> CachedFree {
        let Some(sc) = self.existing(sub) else { return CachedFree::Miss };
        let Some(byte) = sc.map.granule(offset) else { return CachedFree::Miss };
        let mut cur = byte.load(Ordering::Acquire);
        loop {
            match cur & KIND_MASK {
                CHECKED_OUT => {
                    let class = (cur & CLASS_MASK) as usize;
                    match byte.compare_exchange(
                        cur,
                        RESIDENT | class as u8,
                        Ordering::AcqRel,
                        Ordering::Acquire,
                    ) {
                        Ok(_) => {
                            sc.hits.fetch_add(1, Ordering::Relaxed);
                            return self.park(cpu, sub, home, class, offset);
                        }
                        Err(now) => cur = now,
                    }
                }
                RESIDENT => return CachedFree::DoubleFree,
                _ => return CachedFree::Miss,
            }
        }
    }

    /// Parks a claimed block: magazine (home CPU, space permitting), then
    /// pool; a full pool is handed back as a drain batch.
    fn park(&self, cpu: usize, sub: u16, home: bool, class: usize, offset: u64) -> CachedFree {
        if home {
            let cap = MAGAZINE_SIZE;
            let parked = self.with_homed_magazine(cpu, sub, |m| {
                let v = &mut m.rounds[class];
                if v.len() < cap {
                    v.push(offset);
                    true
                } else {
                    false
                }
            });
            if parked == Some(true) {
                return CachedFree::Hit;
            }
        }
        let sc = self.sub_cache(sub);
        if sc.pools[class].push(offset).is_ok() {
            return CachedFree::Hit;
        }
        let mut batch = vec![offset];
        sc.pools[class].drain_into(&mut batch);
        CachedFree::Drain(batch)
    }

    /// Records a fresh refill batch in the residency map: the first block
    /// is checked out (it is about to be returned to the caller), the
    /// rest are resident. Called under the sub-heap lock, right after the
    /// persistent withdrawal commits.
    pub(crate) fn admit(&self, sub: u16, class: usize, offsets: &[u64]) {
        let sc = self.sub_cache(sub);
        for (i, &offset) in offsets.iter().enumerate() {
            let kind = if i == 0 { CHECKED_OUT } else { RESIDENT };
            sc.map.granule_or_install(offset).store(kind | class as u8, Ordering::Release);
        }
    }

    /// Parks refilled resident blocks (magazine first, then pool) and
    /// returns whatever fit nowhere — the caller drains that overflow
    /// back while it still holds the sub-heap lock.
    pub(crate) fn stash(&self, cpu: usize, sub: u16, home: bool, class: usize, rest: &[u64]) -> Vec<u64> {
        let sc = self.sub_cache(sub);
        let mut rest: Vec<u64> = rest.to_vec();
        if home {
            let cap = MAGAZINE_SIZE;
            self.with_homed_magazine(cpu, sub, |m| {
                let v = &mut m.rounds[class];
                while v.len() < cap {
                    match rest.pop() {
                        Some(offset) => v.push(offset),
                        None => break,
                    }
                }
            });
        }
        rest.retain(|&offset| sc.pools[class].push(offset).is_err());
        rest
    }

    /// Clears the residency bytes of `offsets`, which leave cache
    /// management.
    fn forget(&self, sub: u16, offsets: &[u64]) {
        let sc = self.sub_cache(sub);
        for &offset in offsets {
            if let Some(byte) = sc.map.granule(offset) {
                byte.store(0, Ordering::Release);
            }
        }
    }

    /// Forgets a drained batch and counts the drain.
    fn drained(&self, sub: u16, offsets: &[u64]) {
        self.forget(sub, offsets);
        self.sub_cache(sub).drains.fetch_add(1, Ordering::Relaxed);
    }

    /// Pops every resident block of `sub` the caller can reach (its pools
    /// and any idle magazine homed on it) for a drain. Busy magazines are
    /// skipped — this is a best-effort eviction, not a barrier.
    pub(crate) fn evict_resident(&self, sub: u16) -> Vec<u64> {
        let mut out = Vec::new();
        for cpu in 0..self.magazines.len() {
            // Every magazine is checked against its *recorded* home, not
            // the routing formula: after a grow re-homes CPUs, stale
            // magazines still hold the old sub-heap's rounds.
            self.magazines.try_with(cpu, |m| {
                if m.home == sub {
                    for v in m.rounds.iter_mut() {
                        out.append(v);
                    }
                }
            });
        }
        if let Some(sc) = self.existing(sub) {
            for pool in sc.pools.iter() {
                pool.drain_into(&mut out);
            }
        }
        out
    }

    /// Invalidates every cache structure of a condemned sub-heap in DRAM:
    /// magazines homed on it are emptied, its transfer pools drained, and
    /// every residency byte zeroed, so the lock-free frontend can never
    /// hand out (or absorb) one of its blocks again. The media is *not*
    /// touched — the condemned metadata keeps its `FLAG_CACHED` records
    /// for `pfsck --repair` to reconcile. The caller has raised the
    /// sub-heap's quarantine flag. Safe against racing fast-path
    /// operations: once a byte is zero, `try_alloc`/`try_free` treat the
    /// block as not cache-managed (a popped block fails its
    /// [`claim`](Self::claim)) and fall to the slow path, which refuses
    /// the quarantined sub-heap; a refill that publishes bytes after the
    /// sweep sees the flag and withdraws them. Returns the number of
    /// blocks invalidated.
    pub(crate) fn condemn(&self, sub: u16) -> usize {
        // Orders the caller's quarantine flag before the sweep; pairs with
        // the refill's fence between `admit` and its flag check, so either
        // the sweep sees a refill's bytes or the refill sees the flag.
        fence(Ordering::SeqCst);
        // Discard rather than drain: these offsets' records live in
        // damaged metadata that nobody writes again this session.
        let _ = self.evict_resident(sub);
        let Some(sc) = self.existing(sub) else { return 0 };
        let mut invalidated = 0;
        sc.map.for_each(|_, byte| {
            if byte.swap(0, Ordering::AcqRel) != 0 {
                invalidated += 1;
            }
        });
        // One more sweep for blocks a racing free parked mid-sweep.
        let mut junk = Vec::new();
        for pool in sc.pools.iter() {
            pool.drain_into(&mut junk);
        }
        invalidated
    }

    /// Whether `sub` has any checked-out blocks (cheap pre-check so
    /// publishing skips untouched sub-heaps without taking their locks).
    pub(crate) fn has_checked_out(&self, sub: u16) -> bool {
        let Some(sc) = self.existing(sub) else { return false };
        let mut found = false;
        sc.map.for_each(|_, byte| {
            found |= byte.load(Ordering::Acquire) & KIND_MASK == CHECKED_OUT;
        });
        found
    }

    /// Claims every checked-out block of `sub` for publication: CAS each
    /// byte to 0 (a concurrent cached free that wins the CAS keeps the
    /// block — it is free, not published). Called under the sub-heap
    /// lock, immediately before [`subheap::publish_blocks`], so a slow
    /// free racing the publish serialises behind the commit.
    pub(crate) fn claim_checked_out(&self, sub: u16) -> Vec<u64> {
        let mut out = Vec::new();
        let Some(sc) = self.existing(sub) else { return out };
        sc.map.for_each(|offset, byte| {
            let cur = byte.load(Ordering::Acquire);
            if cur & KIND_MASK == CHECKED_OUT
                && byte.compare_exchange(cur, 0, Ordering::AcqRel, Ordering::Acquire).is_ok()
            {
                out.push(offset);
            }
        });
        out
    }

    /// The reserved size of a checked-out block, straight from its
    /// residency byte (no locks, no metadata read).
    pub(crate) fn checked_out_size(&self, sub: u16, offset: u64) -> Option<u64> {
        let byte = self.existing(sub)?.map.granule(offset)?;
        let cur = byte.load(Ordering::Acquire);
        (cur & KIND_MASK == CHECKED_OUT).then(|| class_size((cur & CLASS_MASK) as usize))
    }

    /// How the audit should account the record at `offset`.
    pub(crate) fn residency(&self, sub: u16, offset: u64) -> CacheResidency {
        match self
            .existing(sub)
            .and_then(|sc| sc.map.granule(offset))
            .map(|byte| byte.load(Ordering::Acquire) & KIND_MASK)
        {
            Some(RESIDENT) => CacheResidency::Resident,
            Some(CHECKED_OUT) => CacheResidency::CheckedOut,
            _ => CacheResidency::None,
        }
    }

    /// Every cache-managed block as `(sub_heap, offset)` — the crash-fuzz
    /// inspection hook behind [`PoseidonHeap::cache_snapshot`].
    pub(crate) fn snapshot(&self) -> Vec<(u16, u64)> {
        let mut out = Vec::new();
        for (sub, slot) in self.subs.iter().enumerate() {
            let Some(sc) = slot.get() else { continue };
            sc.map.for_each(|offset, byte| {
                if byte.load(Ordering::Acquire) != 0 {
                    out.push((sub as u16, offset));
                }
            });
        }
        out
    }

    pub(crate) fn stats(&self, sub: u16) -> CacheStats {
        let Some(sc) = self.existing(sub) else { return CacheStats::default() };
        CacheStats {
            hits: sc.hits.load(Ordering::Relaxed),
            misses: sc.misses.load(Ordering::Relaxed),
            refills: sc.refills.load(Ordering::Relaxed),
            drains: sc.drains.load(Ordering::Relaxed),
        }
    }

    pub(crate) fn note_miss(&self, sub: u16) {
        self.sub_cache(sub).misses.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_refill(&self, sub: u16) {
        self.sub_cache(sub).refills.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn reset_stats(&self) {
        for sc in self.subs.iter().filter_map(OnceLock::get) {
            sc.hits.store(0, Ordering::Relaxed);
            sc.misses.store(0, Ordering::Relaxed);
            sc.refills.store(0, Ordering::Relaxed);
            sc.drains.store(0, Ordering::Relaxed);
        }
    }
}

/// The cache-fronted entry points. [`PoseidonHeap::alloc`] and
/// [`PoseidonHeap::free`] try these first; `Ok(None)` / `Ok(false)` means
/// "not handled — take the [`backend`](crate::backend) slow path".
impl PoseidonHeap {
    /// Fast-path allocation. A hit costs a few atomics. A miss walks the
    /// spill order ([`PoseidonHeap::spill_order`]) to the first sub-heap
    /// that is not known full for the class: the home itself, or — when
    /// the home's hint covers the class — the next one, whose transfer
    /// pool serves first. Failing that, a magazine batch is withdrawn from
    /// that sub-heap's persistent free lists under one two-fence commit;
    /// only a home refill parks blocks in the CPU's magazine. Each call
    /// counts exactly one hit or one miss.
    pub(crate) fn cached_alloc(&self, size: u64) -> Result<Option<NvmPtr>> {
        let Some(cache) = self.cache() else { return Ok(None) };
        if size == 0 || size > self.layout().max_alloc() {
            return Ok(None);
        }
        let (class, _) = class_for_size(size)?;
        if !cache.is_cacheable(class) {
            return Ok(None);
        }
        let cpu = numa::current_cpu();
        let home = self.layout().subheap_for_cpu(cpu);
        let Ok(sub) = self.healthy_sub(home) else { return Ok(None) };
        if let Some(offset) = cache.try_alloc(cpu, sub, sub == home, class) {
            self.note_alloc();
            return Ok(Some(NvmPtr::new(self.heap_id(), sub, offset)));
        }
        self.cached_alloc_miss(cache, cpu, home, sub, class)
    }

    /// [`cached_alloc`](Self::cached_alloc)'s miss path, kept out of line
    /// so the refill's session never sits in the hit path's stack frame.
    /// The first sub-heap of the spill order serves: the home, or past a
    /// home known full for the class, the next sub-heap's transfer pool,
    /// then a refill into it.
    #[cold]
    #[inline(never)]
    fn cached_alloc_miss(
        &self,
        cache: &HeapCache,
        cpu: usize,
        home: u16,
        sub: u16,
        class: usize,
    ) -> Result<Option<NvmPtr>> {
        let Some(target) = self.spill_order(home, class).next() else {
            cache.note_miss(sub);
            return Ok(None);
        };
        if target != sub {
            if let Some(offset) = cache.try_alloc(cpu, target, false, class) {
                self.note_alloc();
                return Ok(Some(NvmPtr::new(self.heap_id(), target, offset)));
            }
        }
        cache.note_miss(sub);
        // Refill through the undo-logged slow path — the whole batch
        // under one commit, ~3 fences amortised over `MAGAZINE_SIZE`
        // future hits.
        self.ensure_subheap(target)?;
        let op = self.begin_op(target)?;
        let offsets = subheap::refill_blocks(&op, class, MAGAZINE_SIZE)?;
        if offsets.is_empty() {
            return Ok(None); // free-space pressure: let the slow path defragment
        }
        cache.note_refill(target);
        cache.admit(target, class, &offsets);
        // Condemning a sub-heap takes no sub-heap lock: a `condemn` whose
        // sweep ran before `admit` never saw these bytes. Withdraw them as
        // the sweep would have, and miss.
        fence(Ordering::SeqCst);
        if self.slots[target as usize].quarantined.load(Ordering::Relaxed) {
            cache.forget(target, &offsets);
            return Ok(None);
        }
        let overflow = cache.stash(cpu, target, target == home, class, &offsets[1..]);
        self.drain_resident(&op, cache, &overflow)?;
        drop(op);
        self.note_alloc();
        Ok(Some(NvmPtr::new(self.heap_id(), target, offsets[0])))
    }

    /// Fast-path free. Returns `Ok(true)` when the cache absorbed the
    /// block (possibly draining an overflowed pool batch through the slow
    /// path first) and surfaces double frees the residency map catches.
    pub(crate) fn cached_free(&self, ptr: NvmPtr) -> Result<bool> {
        let Some(cache) = self.cache() else { return Ok(false) };
        let sub = ptr.subheap();
        let cpu = numa::current_cpu();
        let home = self.layout().subheap_for_cpu(cpu) == sub;
        match cache.try_free(cpu, sub, home, ptr.offset()) {
            CachedFree::Miss => Ok(false),
            CachedFree::DoubleFree => {
                self.note_rejected_free();
                Err(PoseidonError::DoubleFree { offset: ptr.offset() })
            }
            CachedFree::Hit => {
                self.note_free();
                Ok(true)
            }
            CachedFree::Drain(batch) => {
                self.drain_resident(&self.begin_op(sub)?, cache, &batch)?;
                self.note_free();
                Ok(true)
            }
        }
    }

    /// The one cache drain, inside the caller's session on the blocks'
    /// sub-heap: returns resident `blocks` to the persistent sub-heap
    /// ([`subheap::drain_blocks`]), clears its full-class hint and their
    /// residency bytes, counts the batch, and credits quarantined blocks
    /// to the health ledger. An empty batch touches nothing. Returns the
    /// `(blocks, bytes)` quarantined.
    pub(crate) fn drain_resident(
        &self,
        op: &OpSession<'_>,
        cache: &HeapCache,
        blocks: &[u64],
    ) -> Result<(u64, u64)> {
        if blocks.is_empty() {
            return Ok((0, 0));
        }
        // Cleared first, under the lock: a failure part-way has still
        // returned the batches it committed.
        self.slots[op.ctx.sub as usize].clear_full();
        let quarantined = subheap::drain_blocks(op, blocks)?;
        cache.drained(op.ctx.sub, blocks);
        self.health.blocks_quarantined.fetch_add(quarantined.0, Ordering::Relaxed);
        Ok(quarantined)
    }

    /// Publishes every checked-out cached block as a real `ALLOC` on
    /// media — the durability hand-off run by `set_root` (the moment
    /// cached allocations can become reachable) and by a clean close.
    pub(crate) fn publish_cached(&self) -> Result<()> {
        self.cache().map_or(Ok(()), |cache| self.settle_cache(cache, false))
    }

    /// The one publish: publishes every usable sub-heap's checked-out
    /// blocks and, with `drain`, drains its resident ones, in one session
    /// per sub-heap that has either.
    fn settle_cache(&self, cache: &HeapCache, drain: bool) -> Result<()> {
        for sub in 0..self.layout().num_subheaps() {
            if !self.sub_usable(sub) {
                continue;
            }
            let resident = if drain { cache.evict_resident(sub) } else { Vec::new() };
            if resident.is_empty() && !cache.has_checked_out(sub) {
                continue;
            }
            let op = self.begin_op(sub)?;
            let checked_out = cache.claim_checked_out(sub);
            if !checked_out.is_empty() {
                subheap::publish_blocks(&op, &checked_out)?;
            }
            self.drain_resident(&op, cache, &resident)?;
        }
        Ok(())
    }

    /// Drains every resident block of `sub` back to the persistent free
    /// lists (the NoSpace last resort, once no sub-heap in the spill
    /// order can serve — the cache may be sitting on exactly the
    /// capacity the slow path needs). Returns how many blocks were
    /// returned.
    pub(crate) fn evict_subheap_cache(&self, sub: u16) -> Result<usize> {
        let Some(cache) = self.cache() else { return Ok(0) };
        let victims = cache.evict_resident(sub);
        if victims.is_empty() {
            return Ok(0);
        }
        self.drain_resident(&self.begin_op(sub)?, cache, &victims)?;
        Ok(victims.len())
    }

    /// Clean-close teardown: publish checked-out blocks (the application
    /// still holds their pointers) and drain resident ones, leaving zero
    /// `FLAG_CACHED` records on media so the audit and the next load see
    /// an ordinary heap.
    pub(crate) fn flush_cache(&mut self) -> Result<()> {
        let Some(cache) = self.take_cache() else { return Ok(()) };
        let result = self.settle_cache(&cache, true);
        self.put_cache(cache);
        result
    }

    /// Every cache-managed block as `(sub_heap, user_offset)` pairs.
    /// Inspection hook for the crash-fuzz harness: each of these must be
    /// `FREE` on media at any instant (the cache-residency ⟹ media-FREE
    /// invariant).
    #[doc(hidden)]
    pub fn cache_snapshot(&self) -> Vec<(u16, u64)> {
        self.cache().map(HeapCache::snapshot).unwrap_or_default()
    }

    /// Flushes every cached block of every sub-heap back to the
    /// persistent free lists — the rebalance step of
    /// [`grow`](PoseidonHeap::grow): emptied magazines re-home themselves
    /// on the next fast-path touch under the enlarged routing.
    pub(crate) fn drain_cache_for_rebalance(&self) -> Result<()> {
        if self.cache().is_none() {
            return Ok(());
        }
        for sub in 0..self.layout().num_subheaps() {
            if self.sub_usable(sub) {
                self.evict_subheap_cache(sub)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn residency_map_roundtrips_and_scans() {
        let map = ResidencyMap::new(8 << 20);
        assert!(map.granule(0).is_none(), "no chunk installed yet");
        map.granule_or_install(64).store(RESIDENT | 3, Ordering::Release);
        map.granule_or_install(4 << 20).store(CHECKED_OUT | 1, Ordering::Release);
        assert_eq!(map.granule(64).unwrap().load(Ordering::Acquire), RESIDENT | 3);
        assert!(map.granule(32).unwrap().load(Ordering::Acquire) == 0);
        let mut seen = Vec::new();
        map.for_each(|offset, byte| {
            if byte.load(Ordering::Acquire) != 0 {
                seen.push(offset);
            }
        });
        assert_eq!(seen, vec![64, 4 << 20]);
        // Out-of-range offsets are a clean miss, not a panic.
        assert!(map.granule(1 << 40).is_none());
    }

    #[test]
    fn tiny_pools_degrade_classes_to_bypass() {
        let layout = HeapLayout::compute(8 << 20, 1).unwrap();
        let cache = HeapCache::new(&layout, 2);
        assert!(cache.is_cacheable(0), "32 B blocks must stay cacheable");
        let degraded = (0..CACHEABLE_CLASSES).any(|c| !cache.is_cacheable(c));
        let budget = |c: usize| (128 + 64) as u64 * class_size(c);
        // The gate is exactly the documented footprint bound.
        for c in 0..CACHEABLE_CLASSES {
            assert_eq!(cache.is_cacheable(c), budget(c) <= layout.user_size / 8, "class {c}");
        }
        let _ = degraded;
    }

    #[test]
    fn free_via_map_detects_double_free() {
        let layout = HeapLayout::compute(64 << 20, 1).unwrap();
        let cache = HeapCache::new(&layout, 1);
        cache.admit(0, 2, &[128]); // checked out
        assert!(matches!(cache.try_free(0, 0, true, 128), CachedFree::Hit));
        assert!(matches!(cache.try_free(0, 0, true, 128), CachedFree::DoubleFree));
        assert!(matches!(cache.try_free(0, 0, true, 4096), CachedFree::Miss));
        // And the parked block comes back out of the magazine.
        assert_eq!(cache.try_alloc(0, 0, true, 2), Some(128));
    }

    #[test]
    fn a_block_popped_before_condemn_is_not_handed_out() {
        // pop -> condemn -> claim: the sweep zeroes the byte of a block
        // an allocation has popped but not yet claimed. The claim must
        // miss instead of bringing the byte back on the condemned
        // sub-heap, where no sweep would clear it again.
        let layout = HeapLayout::compute(64 << 20, 1).unwrap();
        let cache = HeapCache::new(&layout, 1);
        cache.admit(0, 2, &[128, 256]); // 128 checked out, 256 resident
        assert!(cache.stash(0, 0, true, 2, &[256]).is_empty());
        assert_eq!(cache.pop(0, 0, true, 2), Some(256));
        assert_eq!(cache.condemn(0), 2);
        assert_eq!(cache.claim(0, 2, 256), None, "a condemned block was handed out");
        assert_eq!(cache.snapshot(), Vec::new(), "a cache-managed block survives on the condemned sub-heap");
        assert_eq!(cache.stats(0).hits, 0);
    }
}
