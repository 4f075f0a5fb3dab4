//! Heap geometry: where everything lives on the device.
//!
//! A Poseidon heap is laid out as a superblock followed by `N` contiguous
//! per-CPU sub-heap **metadata** regions, the **huge-region metadata**
//! (extent table + undo log), `N` **user-data** regions, and finally the
//! **huge-object data** region (§4.2 — fully segregated metadata):
//!
//! ```text
//! ┌────────────┬────────┬───┬───────────┬────────┬───┬───────────┐
//! │ superblock │ meta 0 │ … │ huge meta │ user 0 │ … │ huge data │
//! └────────────┴────────┴───┴───────────┴────────┴───┴───────────┘
//! └─────────── MPK-protected ──────────┘ └───── unprotected ─────┘
//! ```
//!
//! The metadata regions are tagged with one MPK key at load time; user
//! regions are never tagged. Every boundary is page-aligned so protection
//! has exactly the granularity the paper requires.
//!
//! # Layout epochs
//!
//! Capacity is a *runtime* property: the geometry above describes **epoch
//! 0**, and every online [`grow`](crate::PoseidonHeap::grow) appends a new
//! epoch occupying the added capacity `[old_capacity, new_capacity)` with
//! the same internal order (new sub-heap metadata regions, then their user
//! regions, then a new huge-data band):
//!
//! ```text
//! ┌─ epoch 0 (create) ────────┬─ epoch 1 (grow) ─────────┬─ epoch 2 … ─┐
//! │ sb │ metas │ users │ huge │ metas │ users │ huge band │             │
//! └───────────────────────────┴──────────────────────────┴─────────────┘
//! ```
//!
//! Every epoch reuses epoch 0's per-sub-heap geometry (`meta_size`,
//! `user_size`, `c0`), so a sub-heap's *internal* offsets are identical no
//! matter which epoch hosts it — only [`meta_base`](HeapLayout::meta_base)
//! and [`user_base`](HeapLayout::user_base) dispatch on the owning epoch.
//! The huge-object region becomes a *logical* space concatenating the
//! per-epoch bands; extents never span a band boundary.
//!
//! The epoch chain lives behind interior mutability so shared `&HeapLayout`
//! references held by concurrent allocating threads observe a grow safely:
//! an epoch is published to the chain before the cached totals
//! ([`capacity`](HeapLayout::capacity),
//! [`num_subheaps`](HeapLayout::num_subheaps)) advance past it.
//!
//! Allocations larger than [`HeapLayout::max_alloc`] bypass the per-CPU
//! sub-heaps entirely and are served from the huge-object region by an
//! extent allocator (first-fit over sorted free extents; see
//! `hugeregion`). On devices too small for the carve-out to be useful the
//! huge region is omitted and over-sized allocations keep failing with
//! `TooLarge`; growth never retrofits a huge region onto such a heap.
//!
//! Each sub-heap's metadata region contains, at fixed offsets: a small
//! header, the buddy-list head/tail arrays, per-level entry counts, the
//! undo-log area, the micro-log area, and finally the multi-level hash
//! table, whose levels double in capacity and are materialised lazily
//! (unused levels cost nothing thanks to the device's sparse store, and
//! emptied levels are hole-punched back, §5.6).

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::OnceLock;

use pmem::PAGE_SIZE;

use crate::error::{PoseidonError, Result};

/// Bytes reserved for the superblock region (header + sub-heap directory +
/// superblock undo log + layout-epoch records).
pub const SB_REGION_SIZE: u64 = 64 * 1024;
/// Offset of the sub-heap directory (one u64 entry per sub-heap).
pub const SB_DIR_OFF: u64 = PAGE_SIZE;
/// Offset of the superblock undo-log area.
pub const SB_UNDO_OFF: u64 = 2 * PAGE_SIZE;
/// Size of the superblock undo-log area.
pub const SB_UNDO_SIZE: u64 = 4 * PAGE_SIZE;
/// Offset of the layout-epoch record array (one
/// [`EpochRecord`](crate::persist::EpochRecord) per epoch).
pub const SB_EPOCHS_OFF: u64 = 6 * PAGE_SIZE;

/// Maximum number of layout epochs a pool can accumulate (64 slots of
/// 64-byte records fill one page of the superblock region).
pub const MAX_EPOCHS: usize = 64;
/// Maximum total sub-heaps across all epochs: the sub-heap directory is a
/// single page of u64 entries.
pub const MAX_SUBHEAPS: usize = (PAGE_SIZE / 8) as usize;

/// log2 of the smallest block size (32 B).
pub const MIN_BLOCK_SHIFT: u32 = 5;
/// Smallest allocatable block size.
pub const MIN_BLOCK: u64 = 1 << MIN_BLOCK_SHIFT;
/// Number of buddy size classes (class `k` holds blocks of `32 << k`
/// bytes); 48 classes cover every representable block.
pub const NUM_CLASSES: usize = 48;
/// Number of hash-table levels (level `l` holds `c0 << l` entries).
pub const MAX_LEVELS: usize = 10;
/// Linear-probing window per level, in slots.
pub const PROBE_WINDOW: u64 = 32;
/// Size of one hash-table entry (one cache line).
pub const ENTRY_SIZE: u64 = 64;

/// Offset of the buddy-list head array (`[u64; NUM_CLASSES]`).
pub const SH_BUDDY_HEADS_OFF: u64 = 0x100;
/// Offset of the buddy-list tail array (`[u64; NUM_CLASSES]`).
pub const SH_BUDDY_TAILS_OFF: u64 = SH_BUDDY_HEADS_OFF + (NUM_CLASSES as u64) * 8;
/// Offset of the per-level live-entry count array (`[u64; MAX_LEVELS]`).
pub const SH_LEVEL_COUNTS_OFF: u64 = 0x400;
/// Offset of the sub-heap undo-log area.
pub const SH_UNDO_OFF: u64 = 0x1000;
/// Size of the sub-heap undo-log area.
pub const SH_UNDO_SIZE: u64 = 0x10000;
/// Offset of the sub-heap micro-log area.
pub const SH_MICRO_OFF: u64 = SH_UNDO_OFF + SH_UNDO_SIZE;
/// The micro log is *per-transaction* (the paper's "per-thread micro
/// log"): the area is divided into slots, one claimed per open
/// transaction, so concurrent transactions sharing a sub-heap commit and
/// abort independently.
pub const MICRO_SLOTS: usize = 32;
/// Bytes per micro-log slot (a count word + padding + the pointers).
pub const MICRO_SLOT_BYTES: u64 = 512;
/// Maximum number of allocations a single transaction can micro-log.
pub const MICRO_LOG_CAPACITY: usize = ((MICRO_SLOT_BYTES - 16) / 16) as usize;
/// Size of the sub-heap micro-log area.
pub const SH_MICRO_SIZE: u64 = MICRO_SLOTS as u64 * MICRO_SLOT_BYTES;
/// Offset of the multi-level hash table.
pub const SH_TABLE_OFF: u64 = SH_MICRO_OFF + SH_MICRO_SIZE;
/// Offset of the per-level entry checksum array (`[u64; MAX_LEVELS]`),
/// maintained alongside the live-entry counts so repair can distinguish a
/// genuinely empty level from one whose records were lost to poison.
pub const SH_LEVEL_SUMS_OFF: u64 = 0x500;

/// Offset of the huge-region undo-log area within the huge metadata region
/// (the first page holds the huge-region header).
pub const HUGE_UNDO_OFF: u64 = PAGE_SIZE;
/// Size of the huge-region undo-log area.
pub const HUGE_UNDO_SIZE: u64 = 0x10000;
/// Offset of the extent table within the huge metadata region.
pub const HUGE_TABLE_OFF: u64 = HUGE_UNDO_OFF + HUGE_UNDO_SIZE;
/// Number of slots in the huge-region extent table.
pub const HUGE_EXTENT_SLOTS: usize = 1024;
/// Bytes per extent record.
pub const EXTENT_RECORD_SIZE: u64 = 32;
/// Bytes of huge-region metadata (header page + undo log + extent table);
/// a multiple of the page size (asserted in tests).
pub const HUGE_META_SIZE: u64 = HUGE_TABLE_OFF + HUGE_EXTENT_SLOTS as u64 * EXTENT_RECORD_SIZE;
/// Fraction of the usable device given to the huge-object data region
/// (one part in `HUGE_REGION_DIVISOR`).
pub const HUGE_REGION_DIVISOR: u64 = 4;
/// Smallest usable capacity (device minus superblock) for which the huge
/// region is carved out at all; below this, every byte goes to sub-heaps.
pub const HUGE_MIN_USABLE: u64 = 16 << 20;

/// One layout epoch: a contiguous capacity range `[base, capacity)` hosting
/// `num_subheaps` sub-heaps (globally numbered from `first_subheap`) and an
/// optional huge-data band. Epoch 0 is the create-time layout; later
/// epochs are appended by online growth.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Epoch {
    /// Device offset where this epoch's capacity range starts (0 for epoch
    /// 0; the previous total capacity for growth epochs).
    pub base: u64,
    /// Total device capacity once this epoch is committed (the range's
    /// exclusive end).
    pub capacity: u64,
    /// Global index of the first sub-heap this epoch hosts.
    pub first_subheap: u32,
    /// Number of sub-heaps this epoch hosts (0 is legal for a pure
    /// huge-band growth epoch).
    pub num_subheaps: u32,
    /// Device offset of this epoch's huge-data band (meaningless when
    /// `huge_size == 0`).
    pub huge_base: u64,
    /// Bytes of huge-data band in this epoch.
    pub huge_size: u64,
}

impl Epoch {
    /// End of this epoch's sub-heap metadata regions.
    fn metas_end(&self, meta_size: u64) -> u64 {
        self.metas_base() + self.num_subheaps as u64 * meta_size
    }

    /// Start of this epoch's sub-heap metadata regions (epoch 0's sit
    /// after the superblock).
    fn metas_base(&self) -> u64 {
        if self.base == 0 {
            SB_REGION_SIZE
        } else {
            self.base
        }
    }
}

/// Which region of the device an offset falls in; see
/// [`HeapLayout::locate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Region {
    /// The superblock region (header, directory, undo log, epoch records).
    Superblock,
    /// Sub-heap metadata (the sub-heap's global index).
    SubMeta(u16),
    /// Sub-heap user data (the sub-heap's global index).
    SubUser(u16),
    /// Huge-region metadata (header, undo log, extent table).
    HugeMeta,
    /// Huge-object data; carries the *logical* huge offset.
    HugeData {
        /// Offset within the logical (band-concatenated) huge space.
        logical: u64,
    },
    /// Bytes no region claims (growth remainders smaller than a page).
    Unused,
}

/// One contiguous huge-data band, produced by
/// [`HeapLayout::huge_bands`]. Logical huge offsets `[logical, logical +
/// len)` map to device offsets `[phys, phys + len)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HugeBand {
    /// Start of the band in the logical huge space.
    pub logical: u64,
    /// Device offset of the band.
    pub phys: u64,
    /// Band length in bytes.
    pub len: u64,
}

/// Computed geometry of a heap on a particular device.
///
/// The per-sub-heap shape (`meta_size`, `user_size`, `c0`) is fixed at
/// create time and shared by every epoch; the epoch chain itself is
/// interior-mutable so `&HeapLayout` references stay valid across an
/// online [`grow`](crate::PoseidonHeap::grow).
#[derive(Debug)]
pub struct HeapLayout {
    /// Bytes of metadata region per sub-heap (page-aligned).
    pub meta_size: u64,
    /// Bytes of user region per sub-heap (page-aligned).
    pub user_size: u64,
    /// Entries in hash-table level 0 (power of two).
    pub c0: u64,
    /// The epoch chain; slots `[0, epoch_count)` are set, in order.
    epochs: [OnceLock<Epoch>; MAX_EPOCHS],
    /// Number of committed epochs. Stored with `Release` *after* the slot
    /// is set, loaded with `Acquire`.
    epoch_count: AtomicU32,
    /// Cached totals, updated after the epoch publish so a reader that
    /// sees the new total always finds the epoch backing it.
    cached_capacity: AtomicU64,
    cached_subheaps: AtomicU32,
    cached_huge: AtomicU64,
}

impl Clone for HeapLayout {
    fn clone(&self) -> HeapLayout {
        let out = HeapLayout::bare(self.meta_size, self.user_size, self.c0);
        for epoch in self.epochs() {
            out.push_epoch(*epoch).expect("cloning a valid chain cannot overflow it");
        }
        out
    }
}

impl PartialEq for HeapLayout {
    fn eq(&self, other: &HeapLayout) -> bool {
        self.meta_size == other.meta_size
            && self.user_size == other.user_size
            && self.c0 == other.c0
            && self.epochs().eq(other.epochs())
    }
}

impl Eq for HeapLayout {}

impl HeapLayout {
    /// An epochless shell sharing the given per-sub-heap shape.
    fn bare(meta_size: u64, user_size: u64, c0: u64) -> HeapLayout {
        HeapLayout {
            meta_size,
            user_size,
            c0,
            epochs: [const { OnceLock::new() }; MAX_EPOCHS],
            epoch_count: AtomicU32::new(0),
            cached_capacity: AtomicU64::new(0),
            cached_subheaps: AtomicU32::new(0),
            cached_huge: AtomicU64::new(0),
        }
    }

    /// Computes the create-time (epoch 0) layout for a device of
    /// `capacity` bytes hosting `num_subheaps` sub-heaps.
    ///
    /// The hash table is sized so that the sum of all levels holds one
    /// entry per 256 B of user region (tombstone reuse and defragmentation
    /// cover denser small-block populations).
    ///
    /// # Errors
    ///
    /// [`PoseidonError::BadGeometry`] if the device is too small.
    pub fn compute(capacity: u64, num_subheaps: u16) -> Result<HeapLayout> {
        if num_subheaps == 0 {
            return Err(PoseidonError::BadGeometry("need at least one sub-heap"));
        }
        if num_subheaps as usize > MAX_SUBHEAPS {
            return Err(PoseidonError::BadGeometry("sub-heap count exceeds the directory page"));
        }
        let n = num_subheaps as u64;
        if capacity <= SB_REGION_SIZE {
            return Err(PoseidonError::BadGeometry("device smaller than the superblock region"));
        }
        let usable = capacity - SB_REGION_SIZE;
        // Huge-object carve-out: one part in HUGE_REGION_DIVISOR of the
        // usable space, page-aligned, plus a fixed metadata region — but
        // only when the device is large enough for the region to serve
        // anything a sub-heap cannot.
        let (huge_meta, huge_data_size) = if usable >= HUGE_MIN_USABLE {
            (HUGE_META_SIZE, usable / HUGE_REGION_DIVISOR / PAGE_SIZE * PAGE_SIZE)
        } else {
            (0, 0)
        };
        let per_sub = (usable - huge_meta - huge_data_size) / n;
        let levels_factor = (1u64 << MAX_LEVELS) - 1;
        let total_entries = (per_sub / 256).max(4096);
        let c0 = total_entries.div_ceil(levels_factor).next_power_of_two().max(64);
        let table_bytes = c0 * ENTRY_SIZE * levels_factor;
        let meta_size = (SH_TABLE_OFF + table_bytes).next_multiple_of(PAGE_SIZE);
        if per_sub < meta_size + PAGE_SIZE {
            return Err(PoseidonError::BadGeometry(
                "device too small for the requested sub-heap count (no room for user regions)",
            ));
        }
        let user_size = (per_sub - meta_size) / PAGE_SIZE * PAGE_SIZE;
        let layout = HeapLayout::bare(meta_size, user_size, c0);
        let huge_base = SB_REGION_SIZE + n * meta_size + huge_meta + n * user_size;
        layout
            .push_epoch(Epoch {
                base: 0,
                capacity,
                first_subheap: 0,
                num_subheaps: n as u32,
                huge_base,
                huge_size: huge_data_size,
            })
            .expect("an empty chain has room for epoch 0");
        Ok(layout)
    }

    /// Rebuilds a layout from a persisted epoch chain (load path). The
    /// per-sub-heap shape comes from the superblock header; the chain must
    /// be non-empty and contiguous.
    ///
    /// # Errors
    ///
    /// [`PoseidonError::BadGeometry`] on an empty, overlong, or
    /// non-contiguous chain.
    pub(crate) fn from_epochs(
        meta_size: u64,
        user_size: u64,
        c0: u64,
        epochs: &[Epoch],
    ) -> Result<HeapLayout> {
        if epochs.is_empty() {
            return Err(PoseidonError::BadGeometry("layout epoch chain is empty"));
        }
        let layout = HeapLayout::bare(meta_size, user_size, c0);
        for epoch in epochs {
            layout.push_epoch(*epoch)?;
        }
        Ok(layout)
    }

    /// Appends a committed epoch to the in-memory chain. Publication
    /// order (slot, then count, then cached totals) guarantees any reader
    /// that observes the new totals can resolve every sub-heap they imply.
    ///
    /// # Errors
    ///
    /// [`PoseidonError::BadGeometry`] if the chain is full, non-contiguous,
    /// or would exceed the sub-heap directory.
    pub(crate) fn push_epoch(&self, epoch: Epoch) -> Result<()> {
        let count = self.epoch_count.load(Ordering::Acquire) as usize;
        if count >= MAX_EPOCHS {
            return Err(PoseidonError::BadGeometry("layout epoch chain is full"));
        }
        let expected_base = if count == 0 { 0 } else { self.capacity() };
        let expected_first = self.cached_subheaps.load(Ordering::Acquire);
        if epoch.base != expected_base
            || epoch.first_subheap != expected_first
            || epoch.capacity <= epoch.base
        {
            return Err(PoseidonError::BadGeometry("layout epoch chain is not contiguous"));
        }
        if epoch.first_subheap as u64 + epoch.num_subheaps as u64 > MAX_SUBHEAPS as u64 {
            return Err(PoseidonError::BadGeometry("epoch exceeds the sub-heap directory"));
        }
        self.epochs[count].set(epoch).expect("slots at or past epoch_count are unset");
        self.epoch_count.store(count as u32 + 1, Ordering::Release);
        self.cached_capacity.store(epoch.capacity, Ordering::Release);
        self.cached_subheaps.store(epoch.first_subheap + epoch.num_subheaps, Ordering::Release);
        self.cached_huge.fetch_add(epoch.huge_size, Ordering::AcqRel);
        Ok(())
    }

    /// Plans the epoch a [`grow`](crate::PoseidonHeap::grow) to
    /// `new_capacity` would append: as many whole sub-heaps as fit in the
    /// added range after reserving the huge band's share (skipped entirely
    /// when the heap was created without a huge region), with the
    /// remainder joining the band.
    ///
    /// # Errors
    ///
    /// [`PoseidonError::BadGeometry`] if the chain or directory is full,
    /// the capacity does not increase, is not page-aligned, or the added
    /// space fits neither a sub-heap nor a band page.
    pub(crate) fn plan_growth(&self, new_capacity: u64) -> Result<Epoch> {
        if self.epoch_count() >= MAX_EPOCHS {
            return Err(PoseidonError::BadGeometry("layout epoch chain is full"));
        }
        let base = self.capacity();
        if new_capacity <= base {
            return Err(PoseidonError::BadGeometry("growth must increase capacity"));
        }
        if !new_capacity.is_multiple_of(PAGE_SIZE) || !base.is_multiple_of(PAGE_SIZE) {
            return Err(PoseidonError::BadGeometry("growth boundaries must be page-aligned"));
        }
        let added = new_capacity - base;
        let per_sub = self.meta_size + self.user_size;
        let has_huge = self.epoch(0).huge_size > 0;
        let band_reserve = if has_huge { added / HUGE_REGION_DIVISOR / PAGE_SIZE * PAGE_SIZE } else { 0 };
        let first = self.num_subheaps() as u64;
        let room = MAX_SUBHEAPS as u64 - first;
        let num_new = ((added - band_reserve) / per_sub).min(room);
        // Whatever the whole sub-heaps leave behind joins the huge band
        // (page-truncated); without a huge region it is simply unused.
        let huge_size = if has_huge { (added - num_new * per_sub) / PAGE_SIZE * PAGE_SIZE } else { 0 };
        if num_new == 0 && huge_size == 0 {
            return Err(PoseidonError::BadGeometry(
                "added capacity too small for a sub-heap or huge-band page",
            ));
        }
        Ok(Epoch {
            base,
            capacity: new_capacity,
            first_subheap: first as u32,
            num_subheaps: num_new as u32,
            huge_base: base + num_new * per_sub,
            huge_size,
        })
    }

    /// Number of committed layout epochs.
    #[inline]
    pub fn epoch_count(&self) -> usize {
        self.epoch_count.load(Ordering::Acquire) as usize
    }

    /// The `index`-th committed epoch.
    ///
    /// # Panics
    ///
    /// If `index >= epoch_count()`.
    #[inline]
    pub fn epoch(&self, index: usize) -> &Epoch {
        self.epochs[index].get().expect("index below epoch_count is set")
    }

    /// Iterates the committed epochs, oldest first.
    pub fn epochs(&self) -> impl Iterator<Item = &Epoch> + '_ {
        (0..self.epoch_count()).map(|i| self.epoch(i))
    }

    /// Current total device capacity (the last epoch's end).
    #[inline]
    pub fn capacity(&self) -> u64 {
        self.cached_capacity.load(Ordering::Acquire)
    }

    /// Current total number of sub-heaps across all epochs.
    #[inline]
    pub fn num_subheaps(&self) -> u16 {
        self.cached_subheaps.load(Ordering::Acquire) as u16
    }

    /// Total bytes of huge-object data across all epoch bands (the size of
    /// the logical huge space); 0 when the heap has no huge region.
    #[inline]
    pub fn huge_data_size(&self) -> u64 {
        self.cached_huge.load(Ordering::Acquire)
    }

    /// The epoch hosting sub-heap `sub`.
    ///
    /// # Panics
    ///
    /// If `sub` is beyond every committed epoch.
    #[inline]
    pub fn epoch_of_sub(&self, sub: u16) -> &Epoch {
        let s = sub as u32;
        self.epochs()
            .find(|e| s >= e.first_subheap && s < e.first_subheap + e.num_subheaps)
            .expect("sub-heap index beyond the epoch chain")
    }

    /// Device offset of sub-heap `sub`'s metadata region.
    #[inline]
    pub fn meta_base(&self, sub: u16) -> u64 {
        let epoch = self.epoch_of_sub(sub);
        epoch.metas_base() + (sub as u64 - epoch.first_subheap as u64) * self.meta_size
    }

    /// Bytes of huge-region metadata (0 when no huge region is carved).
    #[inline]
    pub fn huge_meta_size(&self) -> u64 {
        if self.epoch(0).huge_size == 0 {
            0
        } else {
            HUGE_META_SIZE
        }
    }

    /// Device offset of the huge-region metadata (header, undo log, extent
    /// table), which lives in epoch 0 and serves every band. Meaningless
    /// when [`Self::huge_data_size`] is 0.
    #[inline]
    pub fn huge_meta_base(&self) -> u64 {
        SB_REGION_SIZE + self.epoch(0).num_subheaps as u64 * self.meta_size
    }

    /// End of epoch 0's metadata prefix. Growth epochs carry further
    /// metadata ranges; [`Self::meta_ranges`] enumerates them all.
    #[inline]
    pub fn meta_end(&self) -> u64 {
        self.huge_meta_base() + self.huge_meta_size()
    }

    /// Every MPK-protected metadata range as `(base, len)`: epoch 0's
    /// prefix `[0, meta_end)`, then each growth epoch's sub-heap metadata
    /// block.
    pub fn meta_ranges(&self) -> Vec<(u64, u64)> {
        let mut ranges = vec![(0, self.meta_end())];
        for epoch in self.epochs().skip(1) {
            if epoch.num_subheaps > 0 {
                ranges.push((epoch.base, epoch.num_subheaps as u64 * self.meta_size));
            }
        }
        ranges
    }

    /// Device offset of sub-heap `sub`'s user region.
    #[inline]
    pub fn user_base(&self, sub: u16) -> u64 {
        let epoch = self.epoch_of_sub(sub);
        let users_base = if epoch.base == 0 { self.meta_end() } else { epoch.metas_end(self.meta_size) };
        users_base + (sub as u64 - epoch.first_subheap as u64) * self.user_size
    }

    /// The huge-data bands in logical order (empty when the heap has no
    /// huge region).
    pub fn huge_bands(&self) -> Vec<HugeBand> {
        let mut bands = Vec::new();
        let mut logical = 0;
        for epoch in self.epochs() {
            if epoch.huge_size > 0 {
                bands.push(HugeBand { logical, phys: epoch.huge_base, len: epoch.huge_size });
                logical += epoch.huge_size;
            }
        }
        bands
    }

    /// Maps the logical huge range `[logical, logical + len)` to its
    /// device offset. Returns `None` when the range is out of bounds or
    /// straddles a band boundary (extents never do; a straddle means the
    /// extent table is corrupt).
    pub fn huge_phys_of(&self, logical: u64, len: u64) -> Option<u64> {
        let end = logical.checked_add(len)?;
        self.huge_bands()
            .into_iter()
            .find(|b| logical >= b.logical && end <= b.logical + b.len)
            .map(|b| b.phys + (logical - b.logical))
    }

    /// Bounds `(start, end)` of the logical band containing `logical`, the
    /// hard walls that huge-extent coalescing must not cross.
    pub fn huge_band_bounds(&self, logical: u64) -> Option<(u64, u64)> {
        self.huge_bands()
            .into_iter()
            .find(|b| logical >= b.logical && logical < b.logical + b.len)
            .map(|b| (b.logical, b.logical + b.len))
    }

    /// Classifies a device offset by the region it falls in.
    pub fn locate(&self, offset: u64) -> Region {
        if offset < SB_REGION_SIZE {
            return Region::Superblock;
        }
        let mut logical_huge = 0;
        for epoch in self.epochs() {
            let metas_base = epoch.metas_base();
            let metas_end = epoch.metas_end(self.meta_size);
            if offset >= metas_base && offset < metas_end {
                let sub = epoch.first_subheap as u64 + (offset - metas_base) / self.meta_size;
                return Region::SubMeta(sub as u16);
            }
            let users_base = if epoch.base == 0 {
                if offset >= metas_end && offset < metas_end + self.huge_meta_size() {
                    return Region::HugeMeta;
                }
                self.meta_end()
            } else {
                metas_end
            };
            let users_end = users_base + epoch.num_subheaps as u64 * self.user_size;
            if offset >= users_base && offset < users_end {
                let sub = epoch.first_subheap as u64 + (offset - users_base) / self.user_size;
                return Region::SubUser(sub as u16);
            }
            if epoch.huge_size > 0 && offset >= epoch.huge_base && offset < epoch.huge_base + epoch.huge_size
            {
                return Region::HugeData { logical: logical_huge + (offset - epoch.huge_base) };
            }
            logical_huge += epoch.huge_size;
        }
        Region::Unused
    }

    /// Number of entries in hash-table level `level`.
    #[inline]
    pub fn level_capacity(&self, level: usize) -> u64 {
        debug_assert!(level < MAX_LEVELS);
        self.c0 << level
    }

    /// Device offset of hash-table level `level` of sub-heap `sub`.
    #[inline]
    pub fn level_base(&self, sub: u16, level: usize) -> u64 {
        debug_assert!(level < MAX_LEVELS);
        // Levels 0..level hold c0 * (2^level - 1) entries in total.
        self.meta_base(sub) + SH_TABLE_OFF + self.c0 * ((1 << level) - 1) * ENTRY_SIZE
    }

    /// The sub-heap serving a logical CPU (§4.1: one sub-heap per CPU; CPU
    /// ids beyond the sub-heap count wrap). After growth the modulus
    /// covers the enlarged set, spreading CPUs across old and new
    /// sub-heaps alike.
    #[inline]
    pub fn subheap_for_cpu(&self, cpu: usize) -> u16 {
        (cpu % self.num_subheaps() as usize) as u16
    }

    /// Largest single allocation a sub-heap can ever serve: the biggest
    /// power of two that fits in the user region. Requests above this are
    /// routed to the huge-object region (when one exists).
    #[inline]
    pub fn max_alloc(&self) -> u64 {
        if self.user_size == 0 {
            0
        } else {
            let max_pow = 63 - self.user_size.leading_zeros();
            1u64 << max_pow
        }
    }
}

/// Rounds `size` up to its buddy class; returns `(class, class_size)`.
///
/// # Errors
///
/// [`PoseidonError::ZeroSize`] for `size == 0`.
pub fn class_for_size(size: u64) -> Result<(usize, u64)> {
    if size == 0 {
        return Err(PoseidonError::ZeroSize);
    }
    let rounded = size.max(MIN_BLOCK).next_power_of_two();
    let class = (rounded.trailing_zeros() - MIN_BLOCK_SHIFT) as usize;
    debug_assert!(class < NUM_CLASSES);
    Ok((class, rounded))
}

/// The size of blocks in buddy class `class`.
#[inline]
pub fn class_size(class: usize) -> u64 {
    MIN_BLOCK << class
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regions_are_disjoint_page_aligned_and_in_bounds() {
        let layout = HeapLayout::compute(256 << 20, 8).unwrap();
        assert_eq!(layout.meta_size % PAGE_SIZE, 0);
        assert_eq!(layout.user_size % PAGE_SIZE, 0);
        for sub in 0..8u16 {
            assert_eq!(layout.meta_base(sub), SB_REGION_SIZE + sub as u64 * layout.meta_size);
            assert!(layout.meta_base(sub) + layout.meta_size <= layout.meta_end());
            assert!(layout.user_base(sub) >= layout.meta_end());
            assert!(layout.user_base(sub) + layout.user_size <= layout.capacity());
        }
        // User regions do not overlap.
        assert_eq!(layout.user_base(1) - layout.user_base(0), layout.user_size);
    }

    #[test]
    fn table_levels_double_and_fit_in_meta() {
        let layout = HeapLayout::compute(256 << 20, 4).unwrap();
        for level in 0..MAX_LEVELS {
            assert_eq!(layout.level_capacity(level), layout.c0 << level);
        }
        let last = MAX_LEVELS - 1;
        let table_end =
            layout.level_base(0, last) + layout.level_capacity(last) * ENTRY_SIZE - layout.meta_base(0);
        assert!(table_end <= layout.meta_size);
    }

    #[test]
    fn table_holds_an_entry_per_256_bytes_of_user_region() {
        let layout = HeapLayout::compute(1 << 30, 4).unwrap();
        let total_entries: u64 = (0..MAX_LEVELS).map(|l| layout.level_capacity(l)).sum();
        assert!(total_entries >= layout.user_size / 256);
    }

    #[test]
    fn too_small_devices_are_rejected() {
        assert!(matches!(HeapLayout::compute(SB_REGION_SIZE, 1), Err(PoseidonError::BadGeometry(_))));
        assert!(matches!(HeapLayout::compute(1 << 20, 64), Err(PoseidonError::BadGeometry(_))));
        assert!(matches!(HeapLayout::compute(1 << 30, 0), Err(PoseidonError::BadGeometry(_))));
    }

    #[test]
    fn cpu_mapping_wraps() {
        let layout = HeapLayout::compute(256 << 20, 4).unwrap();
        assert_eq!(layout.subheap_for_cpu(0), 0);
        assert_eq!(layout.subheap_for_cpu(5), 1);
    }

    #[test]
    fn class_rounding() {
        assert_eq!(class_for_size(1).unwrap(), (0, 32));
        assert_eq!(class_for_size(32).unwrap(), (0, 32));
        assert_eq!(class_for_size(33).unwrap(), (1, 64));
        assert_eq!(class_for_size(4096).unwrap(), (7, 4096));
        assert!(matches!(class_for_size(0), Err(PoseidonError::ZeroSize)));
        assert_eq!(class_size(7), 4096);
    }

    #[test]
    fn huge_region_is_carved_page_aligned_and_disjoint() {
        assert_eq!(HUGE_META_SIZE % PAGE_SIZE, 0);
        let layout = HeapLayout::compute(256 << 20, 4).unwrap();
        assert!(layout.huge_data_size() > 0);
        assert_eq!(layout.huge_data_size() % PAGE_SIZE, 0);
        assert_eq!(layout.huge_meta_size(), HUGE_META_SIZE);
        // Huge meta sits right after the last sub-heap meta, inside the
        // protected prefix; huge data is the tail of the device.
        assert_eq!(layout.huge_meta_base(), layout.meta_base(3) + layout.meta_size);
        assert_eq!(layout.meta_end(), layout.huge_meta_base() + HUGE_META_SIZE);
        let band = layout.huge_bands()[0];
        assert_eq!(band.phys, layout.user_base(3) + layout.user_size);
        assert!(band.phys + band.len <= layout.capacity());
        // The extent table fits inside the huge metadata region.
        assert!(HUGE_TABLE_OFF + HUGE_EXTENT_SLOTS as u64 * EXTENT_RECORD_SIZE <= HUGE_META_SIZE);
        // A huge allocation can exceed what any sub-heap serves.
        assert!(layout.huge_data_size() > layout.max_alloc());
    }

    #[test]
    fn small_devices_omit_the_huge_region() {
        let layout = HeapLayout::compute(8 << 20, 1).unwrap();
        assert_eq!(layout.huge_data_size(), 0);
        assert_eq!(layout.huge_meta_size(), 0);
        assert_eq!(layout.meta_end(), layout.huge_meta_base());
        assert!(layout.huge_bands().is_empty());
    }

    #[test]
    fn max_alloc_is_a_power_of_two_within_user_region() {
        let layout = HeapLayout::compute(256 << 20, 4).unwrap();
        let max = layout.max_alloc();
        assert!(max.is_power_of_two());
        assert!(max <= layout.user_size);
        assert!(max * 2 > layout.user_size);
    }

    #[test]
    fn growth_epoch_keeps_subheap_shape_and_extends_totals() {
        let layout = HeapLayout::compute(256 << 20, 4).unwrap();
        let old_capacity = layout.capacity();
        let epoch = layout.plan_growth(512 << 20).unwrap();
        assert_eq!(epoch.base, old_capacity);
        assert_eq!(epoch.capacity, 512 << 20);
        assert_eq!(epoch.first_subheap, 4);
        assert!(epoch.num_subheaps > 0);
        assert!(epoch.huge_size > 0);
        let before_subs = layout.num_subheaps();
        let before_huge = layout.huge_data_size();
        layout.push_epoch(epoch).unwrap();
        assert_eq!(layout.capacity(), 512 << 20);
        assert_eq!(layout.num_subheaps(), before_subs + epoch.num_subheaps as u16);
        assert_eq!(layout.huge_data_size(), before_huge + epoch.huge_size);
        // New sub-heaps live inside the new epoch, with the same shape.
        let sub = epoch.first_subheap as u16;
        assert_eq!(layout.meta_base(sub), epoch.base);
        assert_eq!(layout.user_base(sub), epoch.base + epoch.num_subheaps as u64 * layout.meta_size);
        assert!(layout.user_base(sub) + layout.user_size <= epoch.huge_base);
        assert_eq!(layout.epoch_of_sub(sub).base, epoch.base);
        assert_eq!(layout.epoch_of_sub(0).base, 0);
        // The band tiles the tail of the epoch.
        assert!(epoch.huge_base + epoch.huge_size <= epoch.capacity);
        // Old sub-heaps did not move.
        assert_eq!(layout.meta_base(0), SB_REGION_SIZE);
    }

    #[test]
    fn growth_without_huge_region_is_subheaps_only() {
        let layout = HeapLayout::compute(8 << 20, 1).unwrap();
        let epoch = layout.plan_growth(16 << 20).unwrap();
        assert_eq!(epoch.huge_size, 0);
        assert!(epoch.num_subheaps > 0);
        // Too-small growth is rejected rather than committing a dead epoch.
        assert!(matches!(layout.plan_growth((8 << 20) + PAGE_SIZE), Err(PoseidonError::BadGeometry(_))));
    }

    #[test]
    fn growth_is_validated() {
        let layout = HeapLayout::compute(256 << 20, 4).unwrap();
        assert!(matches!(layout.plan_growth(256 << 20), Err(PoseidonError::BadGeometry(_))));
        assert!(matches!(layout.plan_growth(128 << 20), Err(PoseidonError::BadGeometry(_))));
        assert!(matches!(layout.plan_growth((512 << 20) + 7), Err(PoseidonError::BadGeometry(_))));
        // Non-contiguous epochs are rejected by push_epoch.
        let mut epoch = layout.plan_growth(512 << 20).unwrap();
        epoch.base += PAGE_SIZE;
        assert!(layout.push_epoch(epoch).is_err());
    }

    #[test]
    fn huge_bands_map_logical_to_phys_with_walls() {
        let layout = HeapLayout::compute(256 << 20, 4).unwrap();
        let band0 = layout.huge_data_size();
        layout.push_epoch(layout.plan_growth(512 << 20).unwrap()).unwrap();
        let bands = layout.huge_bands();
        assert_eq!(bands.len(), 2);
        assert_eq!(bands[0].logical, 0);
        assert_eq!(bands[1].logical, band0);
        // In-band mapping is offset arithmetic.
        assert_eq!(layout.huge_phys_of(0, 64), Some(bands[0].phys));
        assert_eq!(layout.huge_phys_of(band0, 64), Some(bands[1].phys));
        // A range straddling the wall does not map.
        assert_eq!(layout.huge_phys_of(band0 - 32, 64), None);
        assert_eq!(layout.huge_phys_of(layout.huge_data_size(), 1), None);
        assert_eq!(layout.huge_band_bounds(band0 - 1), Some((0, band0)));
        assert_eq!(layout.huge_band_bounds(band0), Some((band0, layout.huge_data_size())));
    }

    #[test]
    fn locate_classifies_every_region() {
        let layout = HeapLayout::compute(256 << 20, 4).unwrap();
        // The first byte past the huge data belongs to no region.
        let huge_end = layout.huge_bands()[0].phys + layout.huge_data_size();
        assert_eq!(layout.locate(huge_end), Region::Unused);
        layout.push_epoch(layout.plan_growth(512 << 20).unwrap()).unwrap();
        assert_eq!(layout.locate(0), Region::Superblock);
        assert_eq!(layout.locate(layout.meta_base(1) + 8), Region::SubMeta(1));
        assert_eq!(layout.locate(layout.huge_meta_base()), Region::HugeMeta);
        assert_eq!(layout.locate(layout.user_base(2) + 64), Region::SubUser(2));
        let grown_sub = layout.epoch(1).first_subheap as u16;
        assert_eq!(layout.locate(layout.meta_base(grown_sub)), Region::SubMeta(grown_sub));
        assert_eq!(layout.locate(layout.user_base(grown_sub)), Region::SubUser(grown_sub));
        let band = layout.huge_bands()[1];
        assert_eq!(layout.locate(band.phys + 100), Region::HugeData { logical: band.logical + 100 });
        // Epoch 0's per-sub rounding remainder belongs to no region.
        assert_eq!(layout.locate(layout.epoch(0).capacity - 1), Region::Unused);

        // A layout too small to carve a huge region.
        let small = HeapLayout::compute(8 << 20, 1).unwrap();
        assert_eq!(small.huge_data_size(), 0);
        assert_eq!(small.locate(small.meta_base(0)), Region::SubMeta(0));
        assert_eq!(small.locate(small.user_base(0)), Region::SubUser(0));
        assert_eq!(small.locate(small.capacity()), Region::Unused);
    }

    #[test]
    fn clone_and_eq_cover_the_epoch_chain() {
        let layout = HeapLayout::compute(256 << 20, 4).unwrap();
        let snapshot = layout.clone();
        assert_eq!(layout, snapshot);
        layout.push_epoch(layout.plan_growth(512 << 20).unwrap()).unwrap();
        assert_ne!(layout, snapshot);
        assert_eq!(layout, layout.clone());
    }
}
