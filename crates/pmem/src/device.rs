//! The simulated persistent-memory device.

use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex};

use mpk::{AccessKind, MpkDomain, ProtectionKey};
use platform::lazy::LazyArray;

use crate::batch::FlushBatch;
use crate::cache::{CacheModel, CrashMode, FenceDomain, CACHE_LINE_SIZE};
use crate::error::PmemError;
use crate::numa::{current_cpu, NumaTopology};
use crate::pod::Pod;
use crate::poison::{PoisonRange, PoisonSet};
use crate::slots;
use crate::stats::{counter, DeviceStats, StatsSnapshot};
use crate::store::ChunkStore;
use crate::view::MetaView;

/// Size of a protection/NUMA page (4 KiB, matching x86 and MPK granularity).
pub const PAGE_SIZE: u64 = 4096;

/// Fails with [`PmemError::OutOfBounds`] (reporting `end` as the
/// capacity) unless `[offset, offset + len)` lies inside `[base, end)`.
#[inline]
pub(crate) fn check_within(offset: u64, len: u64, base: u64, end: u64) -> Result<(), PmemError> {
    if offset < base || offset.checked_add(len).is_none_or(|stop| stop > end) {
        return Err(PmemError::OutOfBounds { offset, len, capacity: end });
    }
    Ok(())
}

/// Configuration of a [`PmemDevice`].
#[derive(Debug, Clone, Copy)]
pub struct DeviceConfig {
    /// Virtual capacity in bytes (backing memory is materialised lazily).
    pub capacity: u64,
    /// Ceiling for online growth ([`PmemDevice::grow`]). Directory
    /// structures (page maps, chunk groups) are sized for this bound but
    /// materialise lazily, so a large ceiling over a small live capacity
    /// costs only the top-level directories. Values below `capacity` are
    /// clamped up to it, so a default-constructed device is not growable.
    pub max_capacity: u64,
    /// Track dirty cache lines for crash simulation. Disable for pure
    /// throughput benchmarks; [`PmemDevice::simulate_crash`] then has
    /// nothing to revert.
    pub crash_tracking: bool,
    /// Socket/CPU model used for locality accounting.
    pub topology: NumaTopology,
}

impl DeviceConfig {
    /// A full-featured config with the given capacity and the host
    /// topology.
    pub fn new(capacity: u64) -> DeviceConfig {
        DeviceConfig {
            capacity,
            max_capacity: capacity,
            crash_tracking: true,
            topology: NumaTopology::host(),
        }
    }

    /// A small (16 MiB) device for unit tests and doc examples.
    pub fn small_test() -> DeviceConfig {
        DeviceConfig::new(16 << 20)
    }

    /// A benchmark config: crash tracking off (no per-write bookkeeping),
    /// protection on (Poseidon always pays for its safety).
    pub fn bench(capacity: u64) -> DeviceConfig {
        DeviceConfig { crash_tracking: false, ..DeviceConfig::new(capacity) }
    }

    /// Returns a copy with crash tracking set to `enabled`.
    pub fn with_crash_tracking(mut self, enabled: bool) -> DeviceConfig {
        self.crash_tracking = enabled;
        self
    }

    /// Returns a copy with the given topology.
    pub fn with_topology(mut self, topology: NumaTopology) -> DeviceConfig {
        self.topology = topology;
        self
    }

    /// Returns a copy whose device can [`grow`](PmemDevice::grow) online
    /// up to `max` bytes (clamped up to the live capacity).
    pub fn growable_to(mut self, max: u64) -> DeviceConfig {
        self.max_capacity = max;
        self
    }
}

/// A simulated NVMM device. See the [crate docs](crate) for the model.
///
/// All methods take `&self`; the device is meant to be shared across
/// threads in an `Arc`. Like real memory it provides no inter-thread
/// ordering of its own — allocators built on it synchronise with their own
/// locks — but unlike raw memory every access is bounds-checked,
/// MPK-checked, and free of undefined behaviour even under data races
/// (racing byte-writes land atomically).
///
/// Its accessors run the one body of each access in [`MetaView`],
/// through a transient [unmapped view](Self::unmapped_view).
pub struct PmemDevice {
    config: DeviceConfig,
    /// Live capacity: starts at [`DeviceConfig::capacity`] and only ever
    /// grows (up to [`DeviceConfig::max_capacity`]) via
    /// [`grow`](Self::grow). Like a file's size under `ftruncate`, a
    /// growth is durable the moment it returns — crashes never revert it.
    capacity: AtomicU64,
    pub(crate) store: ChunkStore,
    cache: Option<CacheModel>,
    page_keys: PageAttrs,
    page_nodes: PageAttrs,
    domain: Arc<MpkDomain>,
    pub(crate) stats: DeviceStats,
    crashed: AtomicBool,
    /// Remaining mutation events before an injected crash; negative =
    /// disarmed.
    crash_countdown: AtomicI64,
    poison: PoisonSet,
    /// Remaining ranged stores before an injected media fault; negative =
    /// disarmed.
    poison_countdown: AtomicI64,
    /// Seed selecting which line of the triggering store gets poisoned.
    poison_seed: AtomicU64,
    /// Ranges known to carry one uniform protection key, memoized so
    /// [`map_meta`](Self::map_meta) validates a multi-megabyte metadata
    /// region with one key check instead of a per-page scan. Invalidated
    /// whenever page keys change.
    prot_memo: Mutex<Vec<(u64, u64, u8)>>,
    /// Bumped by every page-key change; guards memo inserts against
    /// racing [`set_page_key`](Self::set_page_key) calls.
    prot_epoch: AtomicU64,
}

impl std::fmt::Debug for PmemDevice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PmemDevice")
            .field("capacity", &self.capacity())
            .field("resident_bytes", &self.store.resident_bytes())
            .field("crashed", &self.crashed.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

/// Per-page byte attributes (protection key, NUMA node) over the device's
/// growth ceiling, in lazily materialised leaves of [`PAGES_PER_LEAF`]
/// pages: a page of an absent leaf reads as 0, and storing 0 there
/// materialises nothing. A TB-scale `max_capacity` thus never allocates
/// gigabyte-order attribute arrays.
type PageAttrs = LazyArray<AtomicU8, PAGES_PER_LEAF>;

/// Pages per [`PageAttrs`] leaf (128 MiB of device).
const PAGES_PER_LEAF: usize = 1 << 15;

/// The attribute of `page`.
#[inline]
fn page_attr(attrs: &PageAttrs, page: u64) -> u8 {
    attrs.get(page as usize).map_or(0, |attr| attr.load(Ordering::Relaxed))
}

/// Sets the attribute of every page covering the non-empty
/// `[offset, offset + len)` to `value`.
fn set_page_attrs(attrs: &PageAttrs, offset: u64, len: u64, value: u8) {
    for page in (offset / PAGE_SIZE) as usize..=((offset + len - 1) / PAGE_SIZE) as usize {
        match attrs.get(page) {
            Some(attr) => attr.store(value, Ordering::Relaxed),
            None if value != 0 => attrs.get_or_init(page).store(value, Ordering::Relaxed),
            None => {}
        }
    }
}

impl PmemDevice {
    /// Creates a device with the given configuration.
    pub fn new(mut config: DeviceConfig) -> PmemDevice {
        config.max_capacity = config.max_capacity.max(config.capacity);
        PmemDevice {
            capacity: AtomicU64::new(config.capacity),
            store: ChunkStore::new(config.max_capacity),
            cache: config.crash_tracking.then(CacheModel::new),
            page_keys: LazyArray::new(config.max_capacity.div_ceil(PAGE_SIZE) as usize),
            page_nodes: LazyArray::new(config.max_capacity.div_ceil(PAGE_SIZE) as usize),
            domain: Arc::new(MpkDomain::new()),
            stats: DeviceStats::new(),
            crashed: AtomicBool::new(false),
            crash_countdown: AtomicI64::new(-1),
            poison: PoisonSet::new(),
            poison_countdown: AtomicI64::new(-1),
            poison_seed: AtomicU64::new(0),
            prot_memo: Mutex::new(Vec::new()),
            prot_epoch: AtomicU64::new(0),
            config,
        }
    }

    /// Live device capacity in bytes (grows via [`grow`](Self::grow)).
    #[inline]
    pub fn capacity(&self) -> u64 {
        self.capacity.load(Ordering::Relaxed)
    }

    /// The device's provisioned growth ceiling.
    #[inline]
    pub fn max_capacity(&self) -> u64 {
        self.config.max_capacity
    }

    /// Extends the device online to `new_capacity` bytes — the analogue
    /// of `ftruncate` on a sparse DAX file. Idempotent for the current
    /// capacity; durable immediately (a crash never shrinks the device
    /// back). No backing memory is touched: the grown range materialises
    /// lazily on first write, so growing an almost-empty device costs
    /// nothing on media.
    ///
    /// # Errors
    ///
    /// [`PmemError::BadGrow`] if `new_capacity` would shrink the device
    /// or exceed [`DeviceConfig::max_capacity`];
    /// [`PmemError::Crashed`] on a crashed device.
    pub fn grow(&self, new_capacity: u64) -> Result<(), PmemError> {
        if self.crashed.load(Ordering::Relaxed) {
            return Err(PmemError::Crashed);
        }
        let max = self.config.max_capacity;
        loop {
            let current = self.capacity();
            if new_capacity < current || new_capacity > max {
                return Err(PmemError::BadGrow { requested: new_capacity, current, max });
            }
            if new_capacity == current {
                return Ok(());
            }
            if self
                .capacity
                .compare_exchange(current, new_capacity, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
            {
                return Ok(());
            }
        }
    }

    /// The MPK domain guarding this device's pages.
    pub fn mpk(&self) -> &Arc<MpkDomain> {
        &self.domain
    }

    /// The NUMA topology used for locality accounting.
    pub fn topology(&self) -> NumaTopology {
        self.config.topology
    }

    /// Bytes of backing memory currently materialised.
    pub fn resident_bytes(&self) -> u64 {
        self.store.resident_bytes()
    }

    /// A snapshot of the traffic counters.
    pub fn stats(&self) -> StatsSnapshot {
        self.stats.snapshot()
    }

    /// Resets the traffic counters to zero.
    pub fn reset_stats(&self) {
        self.stats.reset();
    }

    /// Captures the pre-images of the lines a store to `[offset, offset +
    /// len)` is about to overwrite, voiding their pending flushes (on a
    /// crash-tracked device).
    #[inline]
    pub(crate) fn before_store(&self, offset: u64, len: u64) {
        if let Some(cache) = &self.cache {
            cache.before_write(offset, len, |line_off, line_buf| {
                // Clamp to capacity: the last line of an unaligned capacity
                // may extend past it; the out-of-range tail stays zero.
                let end = (line_off + line_buf.len() as u64).min(self.capacity());
                if line_off < end {
                    self.store.read(line_off, &mut line_buf[..(end - line_off) as usize]);
                }
            });
        }
    }

    #[inline]
    fn check_range(&self, offset: u64, len: u64) -> Result<(), PmemError> {
        check_within(offset, len, 0, self.capacity())
    }

    /// Fails with a counted [`PmemError::ProtectionFault`] at `page`
    /// unless its `key` allows a `kind` access.
    #[inline]
    fn check_key(&self, page: u64, key: u8, kind: AccessKind) -> Result<(), PmemError> {
        if key != 0 {
            let pkey = ProtectionKey::from_index(key).expect("stored keys are valid");
            if !self.domain.access_allowed(pkey, kind) {
                self.stats.add([(counter!(protection_faults), 1)]);
                return Err(PmemError::ProtectionFault { offset: page * PAGE_SIZE, key, kind });
            }
        }
        Ok(())
    }

    /// The MPK check of a `kind` access to `[offset, offset + len)`: the
    /// first page whose key denies it faults.
    #[inline]
    pub(crate) fn check_protection(&self, offset: u64, len: u64, kind: AccessKind) -> Result<(), PmemError> {
        if len == 0 {
            return Ok(());
        }
        (offset / PAGE_SIZE..=(offset + len - 1) / PAGE_SIZE)
            .try_for_each(|page| self.check_key(page, page_attr(&self.page_keys, page), kind))
    }

    /// Protection check over a whole region, memoizing ranges that carry
    /// one uniform key so repeated [`map_meta`](Self::map_meta) calls cost
    /// one key lookup instead of a per-page scan. Faults are attributed to
    /// the first offending page, exactly like
    /// [`check_protection`](Self::check_protection).
    fn check_protection_region(&self, offset: u64, len: u64, kind: AccessKind) -> Result<(), PmemError> {
        if len == 0 {
            return Ok(());
        }
        let memoized =
            { self.prot_memo.lock().unwrap().iter().find(|m| m.0 == offset && m.1 == len).map(|m| m.2) };
        if let Some(key) = memoized {
            return self.check_key(offset / PAGE_SIZE, key, kind);
        }
        let epoch = self.prot_epoch.load(Ordering::Acquire);
        let (first, last) = (offset / PAGE_SIZE, (offset + len - 1) / PAGE_SIZE);
        let key = page_attr(&self.page_keys, first);
        let mut uniform = true;
        for page in first..=last {
            let page_key = page_attr(&self.page_keys, page);
            self.check_key(page, page_key, kind)?;
            uniform &= page_key == key;
        }
        if uniform {
            let mut memo = self.prot_memo.lock().unwrap();
            // Only memoize what the scan actually saw: discard the result
            // if the keys changed underneath it.
            if self.prot_epoch.load(Ordering::Acquire) == epoch {
                if memo.len() >= 64 {
                    memo.clear();
                }
                memo.push((offset, len, key));
            }
        }
        Ok(())
    }

    #[inline]
    pub(crate) fn is_remote(&self, offset: u64) -> bool {
        let node = page_attr(&self.page_nodes, offset / PAGE_SIZE) as usize;
        self.config.topology.node_of_cpu(current_cpu()) != node
    }

    #[inline]
    pub(crate) fn lines(offset: u64, len: u64) -> u64 {
        if len == 0 {
            return 0;
        }
        (offset + len - 1) / CACHE_LINE_SIZE - offset / CACHE_LINE_SIZE + 1
    }

    /// Counts one mutation event against an armed crash countdown.
    /// Returns `Err(Crashed)` if the device is (or just became) crashed.
    #[inline]
    pub(crate) fn mutation_event(&self) -> Result<(), PmemError> {
        if self.crashed.load(Ordering::Relaxed) {
            return Err(PmemError::Crashed);
        }
        if self.crash_countdown.load(Ordering::Relaxed) >= 0
            && self.crash_countdown.fetch_sub(1, Ordering::Relaxed) == 0
        {
            self.crashed.store(true, Ordering::Relaxed);
            return Err(PmemError::Crashed);
        }
        Ok(())
    }

    /// Fails with [`PmemError::Uncorrectable`] if `[offset, offset + len)`
    /// touches a poisoned line.
    #[inline]
    pub(crate) fn check_poison(&self, offset: u64, len: u64) -> Result<(), PmemError> {
        if let Some(line) = self.poison.first_hit(offset, len) {
            self.stats.add([(counter!(uncorrectable_errors), 1)]);
            return Err(PmemError::Uncorrectable { offset: line });
        }
        Ok(())
    }

    /// Counts one ranged store against an armed poison countdown; at zero,
    /// one seed-chosen line of the triggering store turns uncorrectable.
    /// The store itself succeeds — like real media, degradation is silent
    /// until the line is next read or flushed.
    #[inline]
    pub(crate) fn poison_event(&self, offset: u64, len: u64) {
        if len == 0
            || self.poison_countdown.load(Ordering::Relaxed) < 0
            || self.poison_countdown.fetch_sub(1, Ordering::Relaxed) != 0
        {
            return;
        }
        let first = offset / CACHE_LINE_SIZE;
        let line = first
            + platform::rng::splitmix64(self.poison_seed.load(Ordering::Relaxed)) % Self::lines(offset, len);
        let added = self.poison.add(line * CACHE_LINE_SIZE, CACHE_LINE_SIZE);
        self.stats.add([(counter!(lines_poisoned), added)]);
    }

    /// Reads `buf.len()` bytes at `offset`: [`MetaView::read`] on the
    /// unmapped view, as are the accessors below.
    pub fn read(&self, offset: u64, buf: &mut [u8]) -> Result<(), PmemError> {
        self.unmapped_view().read(offset, buf)
    }

    /// Writes `buf` at `offset` ([`MetaView::write`]): the store lands in
    /// the modelled CPU cache until [`persist`](Self::persist)ed.
    pub fn write(&self, offset: u64, buf: &[u8]) -> Result<(), PmemError> {
        self.unmapped_view().write(offset, buf)
    }

    /// Reads a [`Pod`] value at `offset` ([`MetaView::read_pod`]).
    pub fn read_pod<T: Pod>(&self, offset: u64) -> Result<T, PmemError> {
        self.unmapped_view().read_pod(offset)
    }

    /// Writes a [`Pod`] value at `offset` ([`MetaView::write_pod`]).
    pub fn write_pod<T: Pod>(&self, offset: u64, value: &T) -> Result<(), PmemError> {
        self.unmapped_view().write_pod(offset, value)
    }

    /// Atomically ORs `mask` into the 8-byte-aligned u64 at `offset`,
    /// returning the previous value — the simulated `lock or`: a
    /// [`write`](Self::write) that loads its line first, so poison faults
    /// it, and [`PmemError::Misaligned`] off an 8-byte boundary.
    pub fn fetch_or_u64(&self, offset: u64, mask: u64) -> Result<u64, PmemError> {
        self.unmapped_view().fetch_update_u64(offset, |w| w | mask)
    }

    /// Atomically ANDs `mask` into the 8-byte-aligned u64 at `offset`,
    /// returning the previous value; checked as
    /// [`fetch_or_u64`](Self::fetch_or_u64).
    pub fn fetch_and_u64(&self, offset: u64, mask: u64) -> Result<u64, PmemError> {
        self.unmapped_view().fetch_update_u64(offset, |w| w & mask)
    }

    /// Flushes the lines covering `[offset, offset + len)` (`clwb`,
    /// [`MetaView::clwb`]).
    pub fn clwb(&self, offset: u64, len: u64) -> Result<(), PmemError> {
        self.unmapped_view().clwb(offset, len)
    }

    /// Commits the calling thread's flushes (`sfence`,
    /// [`MetaView::sfence`]).
    pub fn sfence(&self) -> Result<(), PmemError> {
        self.unmapped_view().sfence()
    }

    /// `clwb` + `sfence` on the calling thread ([`MetaView::persist`]).
    pub fn persist(&self, offset: u64, len: u64) -> Result<(), PmemError> {
        self.unmapped_view().persist(offset, len)
    }

    /// Issues one `clwb` per line noted in `batch`
    /// ([`MetaView::flush_batch`]).
    pub fn flush_batch(&self, batch: &FlushBatch) -> Result<(), PmemError> {
        self.unmapped_view().flush_batch(batch)
    }

    /// Runs `f` on the calling thread's fence domain, or on `None` when
    /// the device tracks no crash state.
    #[inline]
    pub(crate) fn with_fence_domain<R>(&self, f: impl FnOnce(Option<&mut FenceDomain<'_>>) -> R) -> R {
        match &self.cache {
            Some(cache) => f(Some(&mut cache.domain(slots::current()))),
            None => f(None),
        }
    }

    /// Instrumentation hook for log writers layered on this device:
    /// records that one log entry covering `words` 8-byte words was
    /// appended. Feeds the `undo_entries`/`undo_words` counters of
    /// [`stats`](Self::stats), which benchmarks use to model the
    /// per-word and per-entry persistence baselines.
    pub fn record_undo_append(&self, words: u64) {
        self.stats.add([(counter!(undo_entries), 1), (counter!(undo_words), words)]);
    }

    /// The unmapped view of the whole device, which checks every access in
    /// full (see [`MetaView`]). It maps nothing, so unlike
    /// [`map_meta`](Self::map_meta) it runs past a poisoned line a map
    /// would refuse, and fails only the accesses that touch it.
    pub fn unmapped_view(&self) -> MetaView<'_> {
        MetaView::unmapped(self)
    }

    /// Opens a checked session over `[offset, offset + len)`: bounds,
    /// protection (for `kind` accesses) and poison are validated **once**,
    /// here, and the returned [`MetaView`] then reads and writes the chunk
    /// words directly — no per-access validation, and traffic counters
    /// accumulate locally until the view drops.
    ///
    /// Crash and media-fault fidelity are preserved per access: every
    /// write through the view still captures dirty-line pre-images, counts
    /// a mutation event against an armed crash, and counts a store against
    /// an armed poison injection; reads and flushes still fail on lines
    /// that turned poisoned *after* the map. Writes through a view mapped
    /// [`AccessKind::Read`] fall back to a full per-access protection
    /// check.
    ///
    /// # Errors
    ///
    /// [`PmemError::OutOfBounds`], [`PmemError::ProtectionFault`], or
    /// [`PmemError::Uncorrectable`] if any line of the range is already
    /// poisoned (callers quarantine such regions instead of operating on
    /// them).
    pub fn map_meta(&self, offset: u64, len: u64, kind: AccessKind) -> Result<MetaView<'_>, PmemError> {
        self.stats.add([(counter!(validations), 1)]);
        self.check_range(offset, len)?;
        self.check_protection_region(offset, len, kind)?;
        self.check_poison(offset, len)?;
        self.stats.add([(counter!(meta_maps), 1)]);
        Ok(MetaView::mapped(self, offset, len, kind))
    }

    /// Number of cache lines with stores that are not yet durable
    /// (always 0 when crash tracking is disabled).
    pub fn unpersisted_lines(&self) -> usize {
        self.cache.as_ref().map_or(0, |c| c.unpersisted_lines())
    }

    /// Tags the pages covering `[offset, offset + len)` with `key`.
    /// This models updating page-table entries and is not itself subject to
    /// protection checks.
    ///
    /// # Errors
    ///
    /// [`PmemError::OutOfBounds`].
    pub fn set_page_key(&self, offset: u64, len: u64, key: ProtectionKey) -> Result<(), PmemError> {
        self.check_range(offset, len)?;
        if len == 0 {
            return Ok(());
        }
        set_page_attrs(&self.page_keys, offset, len, key.index());
        self.prot_epoch.fetch_add(1, Ordering::Release);
        self.prot_memo.lock().unwrap().clear();
        Ok(())
    }

    /// Returns the protection key of the page containing `offset`.
    ///
    /// # Errors
    ///
    /// [`PmemError::OutOfBounds`].
    pub fn page_key(&self, offset: u64) -> Result<ProtectionKey, PmemError> {
        self.check_range(offset, 1)?;
        let key = page_attr(&self.page_keys, offset / PAGE_SIZE);
        Ok(ProtectionKey::from_index(key).expect("stored keys are valid"))
    }

    /// Assigns the pages covering `[offset, offset + len)` to NUMA node
    /// `node` for locality accounting.
    ///
    /// # Errors
    ///
    /// [`PmemError::OutOfBounds`].
    pub fn set_page_node(&self, offset: u64, len: u64, node: u8) -> Result<(), PmemError> {
        self.check_range(offset, len)?;
        if len == 0 {
            return Ok(());
        }
        set_page_attrs(&self.page_nodes, offset, len, node);
        Ok(())
    }

    /// Returns the pages covering `[offset, offset + len)` to the sparse
    /// store (the `fallocate` hole-punch analogue): fully covered 2 MiB
    /// backing chunks are zeroed and stop counting as resident, and the
    /// rest is zeroed. The hole is durable immediately, like the syscall.
    /// Returns released bytes.
    ///
    /// The caller must own the range: a read or store racing the punch of
    /// the same chunk is not ordered against it.
    ///
    /// # Errors
    ///
    /// [`PmemError::OutOfBounds`], [`PmemError::ProtectionFault`] (punching
    /// is a write), or [`PmemError::Crashed`].
    pub fn punch_hole(&self, offset: u64, len: u64) -> Result<u64, PmemError> {
        self.stats.add([(counter!(validations), 1)]);
        self.check_range(offset, len)?;
        self.check_protection(offset, len, AccessKind::Write)?;
        self.mutation_event()?;
        let released = self.store.punch(offset, len);
        if let Some(cache) = &self.cache {
            // The hole (and the zeroed edges) are durable immediately;
            // whatever was dirty in the range no longer needs reverting.
            cache.forget_range(offset, len);
        }
        // Punching re-provisions the backing media, clearing any poison
        // (fresh pages cannot carry old uncorrectable lines).
        self.poison.clear(offset, len);
        Ok(released)
    }

    /// Marks every cache line covering `[offset, offset + len)` as
    /// uncorrectable: subsequent reads, read-modify-writes and `clwb`s of
    /// those lines fail with [`PmemError::Uncorrectable`] until the poison
    /// is cleared. Returns the number of newly poisoned lines.
    ///
    /// # Errors
    ///
    /// [`PmemError::OutOfBounds`].
    pub fn poison(&self, offset: u64, len: u64) -> Result<u64, PmemError> {
        self.check_range(offset, len)?;
        let added = self.poison.add(offset, len);
        self.stats.add([(counter!(lines_poisoned), added)]);
        Ok(added)
    }

    /// Clears poison from every line covering `[offset, offset + len)` and
    /// zeroes exactly the lines that were poisoned (an ARS
    /// clear-uncorrectable-error writes zeros; the old data is gone).
    /// The zeroes are durable immediately. Returns the number of lines
    /// cleared.
    ///
    /// # Errors
    ///
    /// [`PmemError::OutOfBounds`].
    pub fn clear_poison(&self, offset: u64, len: u64) -> Result<u64, PmemError> {
        self.check_range(offset, len)?;
        let cleared = self.poison.clear(offset, len);
        let zeroes = [0u8; CACHE_LINE_SIZE as usize];
        for &line in &cleared {
            let line_off = line * CACHE_LINE_SIZE;
            let end = (line_off + CACHE_LINE_SIZE).min(self.capacity());
            self.store.write(line_off, &zeroes[..(end - line_off) as usize]);
            if let Some(cache) = &self.cache {
                cache.forget_range(line_off, CACHE_LINE_SIZE);
            }
        }
        Ok(cleared.len() as u64)
    }

    /// Address Range Scrub: enumerates the currently poisoned lines,
    /// coalesced into maximal contiguous [`PoisonRange`]s.
    pub fn scrub(&self) -> Vec<PoisonRange> {
        self.poison.ranges()
    }

    /// Whether `[offset, offset + len)` touches a poisoned line.
    pub fn is_poisoned(&self, offset: u64, len: u64) -> bool {
        self.poison.first_hit(offset, len).is_some()
    }

    /// Number of currently poisoned lines.
    pub fn poisoned_lines(&self) -> u64 {
        self.poison.len()
    }

    /// Arms media-fault injection: on the `events`-th subsequent ranged
    /// store (writes and read-modify-writes each count one), one line of
    /// that store — chosen deterministically from `seed` — turns
    /// uncorrectable. `events = 0` poisons the next store. The store
    /// itself succeeds; the fault surfaces on the next read or flush of
    /// the line, modelling silent media degradation.
    pub fn arm_poison_after(&self, events: u64, seed: u64) {
        self.poison_seed.store(seed, Ordering::Relaxed);
        self.poison_countdown.store(events.min(i64::MAX as u64) as i64, Ordering::Relaxed);
    }

    /// Disarms media-fault injection (already-poisoned lines stay bad).
    pub fn disarm_poison(&self) {
        self.poison_countdown.store(-1, Ordering::Relaxed);
    }

    /// Arms crash injection: the device fails (and every subsequent
    /// mutation returns [`PmemError::Crashed`]) on the `events`-th mutation
    /// event (writes, `clwb`s, `sfence`s and hole punches each count one).
    /// `events = 0` crashes on the next event.
    pub fn arm_crash_after(&self, events: u64) {
        self.crash_countdown.store(events.min(i64::MAX as u64) as i64, Ordering::Relaxed);
    }

    /// Disarms crash injection.
    pub fn disarm_crash(&self) {
        self.crash_countdown.store(-1, Ordering::Relaxed);
    }

    /// Whether the device is currently crashed.
    pub fn is_crashed(&self) -> bool {
        self.crashed.load(Ordering::Relaxed)
    }

    /// Applies a power failure: every store that was not durable is
    /// reverted per `mode` (see [`CrashMode`]), tracking state (every
    /// thread's pending flushes included) is cleared, and the device is
    /// usable again (as if power returned). `seed` makes
    /// [`CrashMode::Adversarial`] deterministic.
    ///
    /// A no-op revert when crash tracking is disabled (the device still
    /// un-crashes).
    pub fn simulate_crash(&self, mode: CrashMode, seed: u64) {
        if let Some(cache) = &self.cache {
            cache.crash(mode, seed, |line_off, line_buf| {
                let end = (line_off + line_buf.len() as u64).min(self.capacity());
                if line_off < end {
                    self.store.write(line_off, &line_buf[..(end - line_off) as usize]);
                }
            });
        }
        self.crash_countdown.store(-1, Ordering::Relaxed);
        self.crashed.store(false, Ordering::Relaxed);
    }

    /// Clears the crashed flag without touching memory (for tests that
    /// inject a crash but want to inspect the raw post-crash state before
    /// reverting).
    pub fn clear_crash(&self) {
        self.crash_countdown.store(-1, Ordering::Relaxed);
        self.crashed.store(false, Ordering::Relaxed);
    }

    /// Saves the device's media image to `path`, including any poisoned
    /// lines (poison is durable media state and survives the round trip).
    ///
    /// The device must be clean (no unpersisted lines): a snapshot is the
    /// durable state, and saving a dirty device would silently promote
    /// volatile stores.
    ///
    /// # Errors
    ///
    /// [`PmemError::BadSnapshot`] if dirty, [`PmemError::Io`] on I/O
    /// failure.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), PmemError> {
        use std::io::Write as _;
        if self.unpersisted_lines() > 0 {
            return Err(PmemError::BadSnapshot("device has unpersisted lines; persist or crash first"));
        }
        let file = std::fs::File::create(path)?;
        let mut out = std::io::BufWriter::new(file);
        out.write_all(SNAPSHOT_MAGIC_V2)?;
        out.write_all(&self.capacity().to_le_bytes())?;
        let mut count: u64 = 0;
        self.store.for_each_resident(|_, _| count += 1);
        out.write_all(&count.to_le_bytes())?;
        let mut result = Ok(());
        self.store.for_each_resident(|index, bytes| {
            if result.is_ok() {
                result = out.write_all(&(index as u64).to_le_bytes()).and_then(|_| out.write_all(bytes));
            }
        });
        result?;
        let poisoned = self.poison.line_numbers();
        out.write_all(&(poisoned.len() as u64).to_le_bytes())?;
        for line in poisoned {
            out.write_all(&line.to_le_bytes())?;
        }
        out.flush()?;
        Ok(())
    }

    /// Loads a device image previously written by [`save`](Self::save),
    /// applying `config` for everything except capacity (taken from the
    /// snapshot).
    ///
    /// # Errors
    ///
    /// [`PmemError::BadSnapshot`] on format mismatch, [`PmemError::Io`] on
    /// I/O failure.
    pub fn load(path: impl AsRef<Path>, config: DeviceConfig) -> Result<PmemDevice, PmemError> {
        use std::io::Read as _;
        let file = std::fs::File::open(path)?;
        let mut input = std::io::BufReader::new(file);
        let mut magic = [0u8; 8];
        input.read_exact(&mut magic)?;
        let has_poison_section = match &magic {
            m if m == SNAPSHOT_MAGIC_V1 => false,
            m if m == SNAPSHOT_MAGIC_V2 => true,
            _ => return Err(PmemError::BadSnapshot("bad magic")),
        };
        let mut word = [0u8; 8];
        input.read_exact(&mut word)?;
        let capacity = u64::from_le_bytes(word);
        input.read_exact(&mut word)?;
        let count = u64::from_le_bytes(word);
        let device = PmemDevice::new(DeviceConfig {
            capacity,
            max_capacity: config.max_capacity.max(capacity),
            ..config
        });
        let mut chunk = vec![0u8; crate::store::CHUNK_SIZE as usize];
        for _ in 0..count {
            input.read_exact(&mut word)?;
            let index = u64::from_le_bytes(word);
            let in_range = index
                .checked_mul(crate::store::CHUNK_SIZE)
                .is_some_and(|off| off < capacity.next_multiple_of(crate::store::CHUNK_SIZE));
            if !in_range {
                return Err(PmemError::BadSnapshot("chunk index out of range"));
            }
            input.read_exact(&mut chunk)?;
            device.store.write(index * crate::store::CHUNK_SIZE, &chunk);
        }
        if has_poison_section {
            input.read_exact(&mut word)?;
            let poisoned = u64::from_le_bytes(word);
            for _ in 0..poisoned {
                input.read_exact(&mut word)?;
                let line = u64::from_le_bytes(word);
                let in_range = line.checked_mul(CACHE_LINE_SIZE).is_some_and(|off| off < capacity);
                if !in_range {
                    return Err(PmemError::BadSnapshot("poisoned line out of range"));
                }
                device.poison.add(line * CACHE_LINE_SIZE, CACHE_LINE_SIZE);
            }
        }
        Ok(device)
    }
}

/// Legacy snapshot format: chunks only, no poison section.
const SNAPSHOT_MAGIC_V1: &[u8; 8] = b"PMEMSNP1";
/// Current snapshot format: chunks followed by the poisoned-line list.
const SNAPSHOT_MAGIC_V2: &[u8; 8] = b"PMEMSNP2";

#[cfg(test)]
mod tests {
    use super::*;
    use crate::numa::CpuPinGuard;
    use mpk::AccessRights;

    fn device() -> PmemDevice {
        PmemDevice::new(DeviceConfig::small_test())
    }

    #[test]
    fn bounds_are_enforced() {
        let dev = device();
        let cap = dev.capacity();
        assert!(matches!(dev.write(cap - 1, &[0, 0]), Err(PmemError::OutOfBounds { .. })));
        assert!(matches!(dev.read(cap, &mut [0]), Err(PmemError::OutOfBounds { .. })));
        assert!(dev.write(cap - 1, &[0]).is_ok());
        // Overflow-proof.
        assert!(matches!(dev.clwb(u64::MAX, 2), Err(PmemError::OutOfBounds { .. })));
    }

    #[test]
    fn pod_roundtrip() {
        let dev = device();
        dev.write_pod(128, &0xDEAD_BEEFu64).unwrap();
        assert_eq!(dev.read_pod::<u64>(128).unwrap(), 0xDEAD_BEEF);
    }

    #[test]
    fn protection_fault_on_tagged_page() {
        let dev = device();
        let key = dev.mpk().pkey_alloc(AccessRights::ReadOnly).unwrap();
        dev.set_page_key(0, PAGE_SIZE, key).unwrap();
        dev.write(PAGE_SIZE, &[1]).unwrap(); // untagged page: fine
        let err = dev.write(100, &[1]).unwrap_err();
        assert!(matches!(err, PmemError::ProtectionFault { key: k, .. } if k == key.index()));
        // Reads still allowed.
        assert!(dev.read(100, &mut [0]).is_ok());
        // With a grant, the write succeeds.
        let _g = dev.mpk().grant_write(key);
        assert!(dev.write(100, &[1]).is_ok());
        assert_eq!(dev.stats().protection_faults, 1);
    }

    #[test]
    fn protection_check_covers_spanning_access() {
        let dev = device();
        let key = dev.mpk().pkey_alloc(AccessRights::ReadOnly).unwrap();
        dev.set_page_key(PAGE_SIZE, PAGE_SIZE, key).unwrap();
        // Write starting on an untagged page but spilling into the tagged
        // one must fault — this is the heap-overflow scenario.
        let err = dev.write(PAGE_SIZE - 8, &[7; 16]).unwrap_err();
        assert!(matches!(err, PmemError::ProtectionFault { .. }));
    }

    #[test]
    fn crash_reverts_unpersisted_writes() {
        let dev = device();
        dev.write(0, &[1; 64]).unwrap();
        dev.persist(0, 64).unwrap();
        dev.write(64, &[2; 64]).unwrap();
        assert_eq!(dev.unpersisted_lines(), 1);
        dev.simulate_crash(CrashMode::Strict, 0);
        assert_eq!(dev.read_pod::<u8>(0).unwrap(), 1);
        assert_eq!(dev.read_pod::<u8>(64).unwrap(), 0);
    }

    #[test]
    fn a_fence_commits_only_its_own_threads_flushes() {
        let dev = device();
        let flushed = std::sync::Barrier::new(2);
        let crashed = std::sync::Barrier::new(2);
        let pending = std::thread::scope(|s| {
            // B flushes a line and stays alive, unfenced, across the crash.
            s.spawn(|| {
                dev.write(64, &[2; 64]).unwrap();
                dev.clwb(64, 64).unwrap();
                flushed.wait();
                crashed.wait();
            });
            flushed.wait();
            dev.write(0, &[1; 64]).unwrap();
            dev.persist(0, 64).unwrap();
            let pending = dev.unpersisted_lines();
            dev.simulate_crash(CrashMode::Strict, 0);
            crashed.wait();
            pending
        });
        assert_eq!(pending, 1, "A's fence left B's line pending");
        assert_eq!(dev.read_pod::<u8>(0).unwrap(), 1);
        assert_eq!(dev.read_pod::<u8>(64).unwrap(), 0, "B's flushed, unfenced line reverted");
    }

    #[test]
    fn a_persist_from_a_thread_local_destructor_is_durable() {
        /// Persists line 0 from its destructor, which runs after the
        /// thread's slot is released (it is registered before the thread's
        /// first device call, and destructors run in reverse).
        struct PersistOnExit(Option<Arc<PmemDevice>>);
        impl Drop for PersistOnExit {
            fn drop(&mut self) {
                if let Some(dev) = self.0.take() {
                    dev.write(0, &[1; 64]).unwrap();
                    dev.persist(0, 64).unwrap();
                }
            }
        }
        thread_local! {
            static ON_EXIT: std::cell::RefCell<PersistOnExit> =
                const { std::cell::RefCell::new(PersistOnExit(None)) };
        }
        let dev = Arc::new(device());
        let on_exit = Arc::clone(&dev);
        std::thread::spawn(move || {
            ON_EXIT.with(|cell| cell.borrow_mut().0 = Some(Arc::clone(&on_exit)));
            on_exit.write(64, &[2; 64]).unwrap();
            on_exit.persist(64, 64).unwrap();
        })
        .join()
        .unwrap();
        assert_eq!(dev.unpersisted_lines(), 0);
        dev.simulate_crash(CrashMode::Strict, 0);
        assert_eq!(dev.read_pod::<u8>(0).unwrap(), 1, "persisted in the destructor");
        assert_eq!(dev.read_pod::<u8>(64).unwrap(), 2);
    }

    #[test]
    fn armed_crash_fails_the_nth_event_and_sticks() {
        let dev = device();
        dev.arm_crash_after(2);
        dev.write(0, &[1]).unwrap(); // event 0
        dev.write(8, &[2]).unwrap(); // event 1
        assert_eq!(dev.write(16, &[3]), Err(PmemError::Crashed)); // event 2: boom
        assert!(dev.is_crashed());
        assert_eq!(dev.sfence(), Err(PmemError::Crashed));
        // Reads still work for post-mortem inspection.
        assert_eq!(dev.read_pod::<u8>(0).unwrap(), 1);
        dev.simulate_crash(CrashMode::Strict, 0);
        assert!(!dev.is_crashed());
        // Unpersisted pre-crash writes were reverted.
        assert_eq!(dev.read_pod::<u8>(0).unwrap(), 0);
        assert!(dev.write(0, &[9]).is_ok());
    }

    #[test]
    fn punch_hole_releases_and_zeroes_durably() {
        let dev = PmemDevice::new(DeviceConfig::new(8 * crate::store::CHUNK_SIZE));
        let len = 3 * crate::store::CHUNK_SIZE;
        dev.write(0, &vec![1; len as usize]).unwrap();
        dev.persist(0, len).unwrap();
        let released = dev.punch_hole(0, len).unwrap();
        assert_eq!(released, 3 * crate::store::CHUNK_SIZE);
        assert_eq!(dev.read_pod::<u8>(crate::store::CHUNK_SIZE).unwrap(), 0);
        // The hole survives a crash (it is durable like fallocate).
        dev.simulate_crash(CrashMode::Strict, 0);
        assert_eq!(dev.read_pod::<u8>(0).unwrap(), 0);
    }

    #[test]
    fn punching_non_resident_edges_materialises_nothing() {
        // 4 MiB from 4 MiB + 4 KiB: both edges are partial chunks, and on
        // a fresh device neither is resident, so both already read as
        // zeros and stay unmaterialised.
        let dev = PmemDevice::new(DeviceConfig::small_test());
        assert_eq!(dev.punch_hole((4 << 20) + 4096, 4 << 20).unwrap(), 0);
        assert_eq!(dev.resident_bytes(), 0);
    }

    #[test]
    fn numa_accounting_distinguishes_local_and_remote() {
        let config = DeviceConfig::small_test().with_topology(NumaTopology::new(2, 8));
        let dev = PmemDevice::new(config);
        dev.set_page_node(0, PAGE_SIZE, 1).unwrap();
        {
            let _pin = CpuPinGuard::pin(0); // node 0 -> remote
            dev.write(0, &[1; 64]).unwrap();
        }
        {
            let _pin = CpuPinGuard::pin(7); // node 1 -> local
            dev.write(0, &[1; 64]).unwrap();
        }
        let s = dev.stats();
        assert_eq!(s.write_lines_remote, 1);
        assert_eq!(s.write_lines_local, 1);
    }

    #[test]
    fn save_load_roundtrip() {
        let dir = std::env::temp_dir().join(format!("pmem-snap-{}", std::process::id()));
        let dev = device();
        dev.write(123, b"persist me").unwrap();
        dev.persist(123, 10).unwrap();
        dev.save(&dir).unwrap();
        let loaded = PmemDevice::load(&dir, DeviceConfig::small_test()).unwrap();
        let mut buf = [0u8; 10];
        loaded.read(123, &mut buf).unwrap();
        assert_eq!(&buf, b"persist me");
        assert_eq!(loaded.capacity(), dev.capacity());
        std::fs::remove_file(&dir).unwrap();
    }

    #[test]
    fn save_rejects_dirty_device() {
        let dev = device();
        dev.write(0, &[1]).unwrap();
        let err = dev.save(std::env::temp_dir().join("never-created")).unwrap_err();
        assert!(matches!(err, PmemError::BadSnapshot(_)));
    }

    #[test]
    fn poisoned_line_faults_reads_rmws_and_flushes() {
        let dev = device();
        dev.write(0, &[7; 256]).unwrap();
        dev.persist(0, 256).unwrap();
        assert_eq!(dev.poison(64, 1).unwrap(), 1); // line 1
                                                   // Reads of the poisoned line fail with its aligned offset; the
                                                   // neighbours stay readable.
        assert_eq!(dev.read(70, &mut [0; 4]), Err(PmemError::Uncorrectable { offset: 64 }));
        assert_eq!(dev.read(0, &mut [0; 64]), Ok(()));
        assert_eq!(dev.read_pod::<u8>(128).unwrap(), 7);
        // A spanning read reports the first poisoned line.
        assert_eq!(dev.read(0, &mut [0; 256]), Err(PmemError::Uncorrectable { offset: 64 }));
        // RMW loads the line, so it faults too.
        assert_eq!(dev.fetch_or_u64(64, 1), Err(PmemError::Uncorrectable { offset: 64 }));
        // Plain stores succeed (they land in cache)...
        dev.write(64, &[9; 64]).unwrap();
        // ...but writing them back to the failed line faults.
        assert_eq!(dev.clwb(64, 64), Err(PmemError::Uncorrectable { offset: 64 }));
        assert_eq!(dev.persist(0, 256), Err(PmemError::Uncorrectable { offset: 64 }));
        assert_eq!(dev.stats().uncorrectable_errors, 5);
        assert_eq!(dev.stats().lines_poisoned, 1);
    }

    #[test]
    fn scrub_clear_and_punch_remove_poison() {
        let dev = device();
        dev.write(0, &[1; 512]).unwrap();
        dev.persist(0, 512).unwrap();
        dev.poison(128, 128).unwrap(); // lines 2..=3
        dev.poison(448, 8).unwrap(); // line 7
        assert_eq!(dev.poisoned_lines(), 3);
        assert_eq!(
            dev.scrub(),
            vec![PoisonRange { offset: 128, len: 128 }, PoisonRange { offset: 448, len: 64 }]
        );
        // ARS clear zeroes exactly the cleared lines, durably.
        assert_eq!(dev.clear_poison(128, 128).unwrap(), 2);
        assert!(!dev.is_poisoned(128, 128));
        assert_eq!(dev.read_pod::<u8>(130).unwrap(), 0);
        assert_eq!(dev.read_pod::<u8>(256).unwrap(), 1); // neighbour intact
                                                         // Hole punching re-provisions the media, clearing poison with it.
        dev.punch_hole(448, 64).unwrap();
        assert_eq!(dev.poisoned_lines(), 0);
        assert!(dev.read(0, &mut [0; 512]).is_ok());
    }

    #[test]
    fn poison_survives_crash_and_snapshot_roundtrip() {
        let dev = device();
        dev.write(0, &[3; 128]).unwrap();
        dev.persist(0, 128).unwrap();
        dev.poison(64, 64).unwrap();
        dev.simulate_crash(CrashMode::Strict, 0);
        assert!(dev.is_poisoned(64, 64)); // poison is media state, not cache state
        let path = std::env::temp_dir().join(format!("pmem-poison-{}", std::process::id()));
        dev.save(&path).unwrap();
        let loaded = PmemDevice::load(&path, DeviceConfig::small_test()).unwrap();
        assert_eq!(loaded.scrub(), vec![PoisonRange { offset: 64, len: 64 }]);
        assert_eq!(loaded.read(64, &mut [0; 8]), Err(PmemError::Uncorrectable { offset: 64 }));
        assert_eq!(loaded.read_pod::<u8>(0).unwrap(), 3);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn armed_poison_hits_the_nth_store_silently() {
        let dev = device();
        dev.arm_poison_after(2, 42);
        dev.write(0, &[1; 64]).unwrap(); // event 0
        dev.write(64, &[1; 64]).unwrap(); // event 1
        assert_eq!(dev.poisoned_lines(), 0);
        dev.write(128, &[1; 192]).unwrap(); // event 2: one of lines 2..=4 dies
        assert_eq!(dev.poisoned_lines(), 1);
        let hit = dev.scrub()[0];
        assert!(hit.offset >= 128 && hit.offset < 320, "poison lands inside the store");
        assert_eq!(dev.read(hit.offset, &mut [0; 1]), Err(PmemError::Uncorrectable { offset: hit.offset }));
        // One-shot: later stores are unaffected.
        dev.write(1024, &[1; 64]).unwrap();
        assert_eq!(dev.poisoned_lines(), 1);
        // Determinism: the same seed picks the same line.
        let dev2 = device();
        dev2.arm_poison_after(2, 42);
        dev2.write(0, &[1; 64]).unwrap();
        dev2.write(64, &[1; 64]).unwrap();
        dev2.write(128, &[1; 192]).unwrap();
        assert_eq!(dev2.scrub(), dev.scrub());
    }

    #[test]
    fn bench_config_disables_tracking_only() {
        let dev = PmemDevice::new(DeviceConfig::bench(1 << 20));
        dev.write(0, &[1; 64]).unwrap();
        assert_eq!(dev.unpersisted_lines(), 0);
        dev.simulate_crash(CrashMode::Strict, 0);
        // Nothing reverted: tracking was off.
        assert_eq!(dev.read_pod::<u8>(0).unwrap(), 1);
    }

    #[test]
    fn grow_extends_bounds_online() {
        let dev = PmemDevice::new(DeviceConfig::new(1 << 20).growable_to(4 << 20));
        assert_eq!(dev.capacity(), 1 << 20);
        assert_eq!(dev.max_capacity(), 4 << 20);
        assert!(matches!(dev.write(1 << 20, &[1; 64]), Err(PmemError::OutOfBounds { .. })));
        dev.grow(2 << 20).unwrap();
        assert_eq!(dev.capacity(), 2 << 20);
        dev.write(1 << 20, &[7; 64]).unwrap();
        assert_eq!(dev.read_pod::<u8>(1 << 20).unwrap(), 7);
        // Growing to the current size is an accepted no-op.
        dev.grow(2 << 20).unwrap();
    }

    #[test]
    fn grow_rejects_shrink_and_over_max() {
        let dev = PmemDevice::new(DeviceConfig::new(2 << 20).growable_to(4 << 20));
        assert_eq!(
            dev.grow(1 << 20),
            Err(PmemError::BadGrow { requested: 1 << 20, current: 2 << 20, max: 4 << 20 })
        );
        assert_eq!(
            dev.grow(8 << 20),
            Err(PmemError::BadGrow { requested: 8 << 20, current: 2 << 20, max: 4 << 20 })
        );
        // Non-growable device: max_capacity clamps to capacity.
        let fixed = PmemDevice::new(DeviceConfig::new(2 << 20));
        assert!(fixed.grow(3 << 20).is_err());
    }

    #[test]
    fn grow_survives_crash_like_ftruncate() {
        let dev = PmemDevice::new(DeviceConfig::new(1 << 20).growable_to(4 << 20));
        dev.grow(2 << 20).unwrap();
        dev.write(1 << 20, &[9; 64]).unwrap();
        dev.simulate_crash(CrashMode::Strict, 1);
        dev.clear_crash();
        // The capacity itself is durable even though the unflushed write
        // may have been dropped.
        assert_eq!(dev.capacity(), 2 << 20);
        dev.write((2 << 20) - 64, &[3; 64]).unwrap();
    }

    #[test]
    fn growable_device_is_sparse_in_host_memory() {
        // A TB-scale ceiling over a tiny live capacity must cost only the
        // top-level directories, not per-page or per-chunk arrays.
        let dev = PmemDevice::new(DeviceConfig::new(1 << 20).growable_to(1 << 40));
        dev.write(0, &[1; 64]).unwrap();
        assert_eq!(dev.resident_bytes(), crate::store::CHUNK_SIZE);
        dev.grow(1 << 40).unwrap();
        dev.write((1 << 40) - 64, &[5; 64]).unwrap();
        assert_eq!(dev.resident_bytes(), 2 * crate::store::CHUNK_SIZE);
        let key = dev.mpk().pkey_alloc(AccessRights::ReadWrite).unwrap();
        dev.set_page_key((1 << 40) - PAGE_SIZE, PAGE_SIZE, key).unwrap();
        assert_eq!(dev.page_key((1 << 40) - PAGE_SIZE).unwrap(), key);
        assert_eq!(dev.page_key(1 << 30).unwrap().index(), 0);
    }

    #[test]
    fn snapshot_roundtrips_grown_capacity() {
        let dir = std::env::temp_dir().join(format!("pmem-grow-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("grown.pool");
        let dev = PmemDevice::new(DeviceConfig::new(1 << 20).growable_to(8 << 20));
        dev.grow(3 << 20).unwrap();
        dev.write((3 << 20) - 64, &[4; 64]).unwrap();
        dev.persist((3 << 20) - 64, 64).unwrap();
        dev.save(&path).unwrap();
        let back = PmemDevice::load(&path, DeviceConfig::new(0)).unwrap();
        assert_eq!(back.capacity(), 3 << 20);
        assert_eq!(back.read_pod::<u8>((3 << 20) - 64).unwrap(), 4);
        // Reloading under a growable config keeps the larger ceiling.
        let back = PmemDevice::load(&path, DeviceConfig::new(0).growable_to(16 << 20)).unwrap();
        assert_eq!(back.max_capacity(), 16 << 20);
        back.grow(4 << 20).unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }
}
