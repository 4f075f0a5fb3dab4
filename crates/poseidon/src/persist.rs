//! Persistent on-device structures and the sub-heap access context.

use pmem::{pod_struct, PmemDevice};

use crate::error::Result;
use crate::layout::{
    HeapLayout, ENTRY_SIZE, EXTENT_RECORD_SIZE, HUGE_EXTENT_SLOTS, HUGE_TABLE_OFF, HUGE_UNDO_OFF,
    HUGE_UNDO_SIZE, SH_BUDDY_HEADS_OFF, SH_BUDDY_TAILS_OFF, SH_LEVEL_COUNTS_OFF, SH_LEVEL_SUMS_OFF,
    SH_MICRO_OFF, SH_UNDO_OFF, SH_UNDO_SIZE,
};
use crate::nvmptr::NvmPtr;
use crate::undo::UndoArea;

/// Magic value identifying a Poseidon superblock ("POSEIDON").
pub const SUPERBLOCK_MAGIC: u64 = 0x504F_5345_4944_4F4E;
/// Magic value identifying an initialised sub-heap header.
pub const SUBHEAP_MAGIC: u64 = 0x5355_4248_4541_5021;
/// Magic value identifying an initialised huge-region header ("HUGEREGN").
pub const HUGE_MAGIC: u64 = 0x4855_4745_5245_474E;
/// On-device format version. Version 1 pools (single fixed layout, no
/// epoch records) are migrated in place on open; see
/// [`EpochRecord`] for what version 2 adds.
pub const FORMAT_VERSION: u32 = 2;
/// The pre-epoch on-device format, still accepted by `open` via an
/// in-place migration that synthesises epoch 0 from the header geometry.
pub const FORMAT_VERSION_V1: u32 = 1;

pod_struct! {
    /// The heap superblock (device offset 0): identity, geometry, the
    /// superblock undo-log tail, and the root pointer (§2.2, §4.6).
    pub struct SuperblockHeader {
        /// [`SUPERBLOCK_MAGIC`]; written last during creation, so its
        /// presence implies a fully initialised heap.
        pub magic: u64,
        /// [`FORMAT_VERSION`].
        pub version: u32,
        /// Reserved.
        pub _pad0: u32,
        /// Random non-zero heap id embedded in every [`NvmPtr`].
        pub heap_id: u64,
        /// Device capacity at creation (validated on load).
        pub capacity: u64,
        /// Number of sub-heaps.
        pub num_subheaps: u32,
        /// Reserved.
        pub _pad1: u32,
        /// Per-sub-heap metadata region size.
        pub meta_size: u64,
        /// Per-sub-heap user region size.
        pub user_size: u64,
        /// Hash-table level-0 capacity.
        pub c0: u64,
        /// Huge-object data region size (0 when the device has no huge
        /// region).
        pub huge_data_size: u64,
        /// Superblock undo-log generation (entries of older generations are dead).
        pub undo_gen: u64,
        /// The heap's root pointer (§4.6).
        pub root: NvmPtr,
        /// Number of committed layout epochs (format v2+). Version-1
        /// images read 0 here — the sparse device returns zeros for bytes
        /// never written — which is exactly what triggers migration.
        pub epoch_count: u32,
        /// Reserved.
        pub _pad2: u32,
    }
}

pod_struct! {
    /// One persistent layout-epoch record (format v2). The array of these
    /// lives at [`SB_EPOCHS_OFF`](crate::layout::SB_EPOCHS_OFF) in the
    /// superblock region, one 64-byte slot per epoch, and is the durable
    /// form of the in-memory [`Epoch`](crate::layout::Epoch) chain.
    ///
    /// A grow appends the record and bumps the header's `epoch_count`
    /// inside one superblock undo transaction, so its two-fence commit is
    /// the *single* commit point of the whole growth: a crash before it
    /// reverts both together (the grow never happened), a crash after it
    /// leaves a fully described epoch whose huge-band bookkeeping recovery
    /// completes idempotently.
    pub struct EpochRecord {
        /// [`EPOCH_COMMITTED`], or [`EPOCH_EMPTY`] for an unused slot.
        pub state: u32,
        /// Reserved.
        pub _pad: u32,
        /// Device offset where the epoch's capacity range starts.
        pub base: u64,
        /// Total device capacity once this epoch is committed.
        pub capacity: u64,
        /// Global index of the first sub-heap this epoch hosts.
        pub first_subheap: u32,
        /// Number of sub-heaps this epoch hosts.
        pub num_subheaps: u32,
        /// Device offset of this epoch's huge-data band.
        pub huge_base: u64,
        /// Bytes of huge-data band in this epoch.
        pub huge_size: u64,
        /// Reserved (pads the record to 64 bytes).
        pub _reserved: [u64; 2],
    }
}

/// [`EpochRecord::state`]: slot never written.
pub const EPOCH_EMPTY: u32 = 0;
/// [`EpochRecord::state`]: the epoch is committed.
pub const EPOCH_COMMITTED: u32 = 1;

const _: () = assert!(std::mem::size_of::<EpochRecord>() == 64);
const _: () = assert!(
    crate::layout::SB_EPOCHS_OFF + crate::layout::MAX_EPOCHS as u64 * 64 <= crate::layout::SB_REGION_SIZE
);

impl EpochRecord {
    /// The durable form of an in-memory epoch.
    pub fn from_epoch(epoch: &crate::layout::Epoch) -> EpochRecord {
        EpochRecord {
            state: EPOCH_COMMITTED,
            _pad: 0,
            base: epoch.base,
            capacity: epoch.capacity,
            first_subheap: epoch.first_subheap,
            num_subheaps: epoch.num_subheaps,
            huge_base: epoch.huge_base,
            huge_size: epoch.huge_size,
            _reserved: [0; 2],
        }
    }

    /// The in-memory form of a committed record.
    pub fn to_epoch(self) -> crate::layout::Epoch {
        crate::layout::Epoch {
            base: self.base,
            capacity: self.capacity,
            first_subheap: self.first_subheap,
            num_subheaps: self.num_subheaps,
            huge_base: self.huge_base,
            huge_size: self.huge_size,
        }
    }
}

pod_struct! {
    /// One entry of the sub-heap directory in the superblock region.
    pub struct DirEntry {
        /// 0 = never created, 1 = active.
        pub state: u32,
        /// NUMA node the sub-heap was placed on.
        pub node: u32,
    }
}

pod_struct! {
    /// The per-sub-heap metadata header.
    pub struct SubheapHeader {
        /// [`SUBHEAP_MAGIC`].
        pub magic: u64,
        /// Index of this sub-heap.
        pub subheap_id: u32,
        /// NUMA node this sub-heap's memory is placed on (§4.1).
        pub node: u32,
        /// Sub-heap undo-log generation (entries of older generations are dead).
        pub undo_gen: u64,
        /// Reserved (micro-log counts live per slot in the micro area).
        pub micro_count: u64,
        /// Number of active hash-table levels (≥ 1).
        pub active_levels: u64,
    }
}

/// Memory-block states stored in [`HashEntry::state`].
pub mod state {
    /// Slot never used.
    pub const EMPTY: u32 = 0;
    /// Block is free (linked into a buddy list).
    pub const FREE: u32 = 1;
    /// Block is allocated.
    pub const ALLOC: u32 = 2;
    /// Slot held a block that was merged away; kept for probe continuity,
    /// reusable by inserts.
    pub const TOMBSTONE: u32 = 3;
    /// Block overlaps an uncorrectable media error: permanently withdrawn
    /// from the buddy lists, never re-allocated, released only by
    /// `pfsck --repair` after the poison is cleared.
    pub const QUARANTINED: u32 = 4;
}

/// Flag bit in [`HashEntry::flags`]: the block is managed by the
/// transient DRAM cache layer. On media it stays `FREE` (so a crash
/// reclaims it with no new replay logic) but it is *unlinked* from its
/// buddy free list — the slow path, defragmentation, and shrink must all
/// skip it, and load-time recovery relinks it (clearing the flag).
pub const FLAG_CACHED: u32 = 1;

pod_struct! {
    /// A memory-block record: one hash-table entry, one cache line (§4.4).
    ///
    /// Records both allocated and free blocks so that every `free` can be
    /// validated (double-free / invalid-free rejection) and free blocks can
    /// be linked into their buddy list via `next_free`/`prev_free` (device
    /// offsets of other records; 0 = end of list).
    pub struct HashEntry {
        /// Block offset within the sub-heap user region (the key).
        pub offset: u64,
        /// Block size in bytes (a power of two ≥ 32).
        pub size: u64,
        /// One of the [`state`] constants.
        pub state: u32,
        /// Flag bits ([`FLAG_CACHED`]); reserved bits read 0, so images
        /// written before the field existed parse as "no flags".
        pub flags: u32,
        /// Next record in this block's buddy free list.
        pub next_free: u64,
        /// Previous record in this block's buddy free list.
        pub prev_free: u64,
        /// Reserved (pads the record to exactly one cache line).
        pub _reserved: [u64; 3],
    }
}

const _: () = assert!(std::mem::size_of::<HashEntry>() as u64 == ENTRY_SIZE);

pod_struct! {
    /// The huge-region metadata header (first page of the huge metadata
    /// region).
    pub struct HugeHeader {
        /// [`HUGE_MAGIC`]; written last during formatting.
        pub magic: u64,
        /// [`FORMAT_VERSION`].
        pub version: u32,
        /// Reserved.
        pub _pad: u32,
        /// Huge-region undo-log generation (entries of older generations
        /// are dead).
        pub undo_gen: u64,
        /// Size of the huge data region at format time (validated on load).
        pub data_size: u64,
    }
}

pod_struct! {
    /// One slot of the huge-region extent table.
    ///
    /// Non-empty slots, sorted by offset, tile the whole huge data region:
    /// every byte belongs to exactly one `FREE`, `ALLOC`, or `QUARANTINED`
    /// extent, so the table doubles as the block record used for
    /// `free`/`block_size` validation (double-free and invalid-free
    /// rejection, mirroring the sub-heap hash table). Physical slot order
    /// is arbitrary; the sorted view is reconstructed by scanning.
    pub struct ExtentRecord {
        /// Extent offset within the huge data region.
        pub offset: u64,
        /// Extent length in bytes (page-granular, never zero for live
        /// slots).
        pub len: u64,
        /// One of the [`state`] constants (`EMPTY` marks an unused slot).
        pub state: u32,
        /// Reserved.
        pub _pad: u32,
        /// Reserved (pads the record to [`EXTENT_RECORD_SIZE`]).
        pub _reserved: u64,
    }
}

const _: () = assert!(std::mem::size_of::<ExtentRecord>() as u64 == EXTENT_RECORD_SIZE);

/// Borrowed context for operating on the huge-object region, the analogue
/// of [`SubCtx`] for the extent allocator.
#[derive(Debug, Clone, Copy)]
pub(crate) struct HugeCtx<'a> {
    pub dev: &'a PmemDevice,
    pub layout: &'a HeapLayout,
}

impl<'a> HugeCtx<'a> {
    /// Device offset of the huge-region metadata.
    #[inline]
    pub fn meta_base(&self) -> u64 {
        self.layout.huge_meta_base()
    }

    /// Maps the logical huge range `[logical, logical + len)` to its
    /// device offset; `None` when out of bounds or straddling a band wall
    /// (a corrupt extent).
    #[inline]
    pub fn data_phys(&self, logical: u64, len: u64) -> Option<u64> {
        self.layout.huge_phys_of(logical, len)
    }

    /// Device offset of the header's undo-log generation field.
    #[inline]
    pub fn undo_gen_off(&self) -> u64 {
        self.meta_base() + std::mem::offset_of!(HugeHeader, undo_gen) as u64
    }

    /// The huge region's undo-log area.
    #[inline]
    pub fn undo_area(&self) -> UndoArea {
        UndoArea {
            base: self.meta_base() + HUGE_UNDO_OFF,
            size: HUGE_UNDO_SIZE,
            gen_field: self.undo_gen_off(),
        }
    }

    /// Device offset of extent-table slot `slot`.
    #[inline]
    pub fn slot_off(&self, slot: usize) -> u64 {
        debug_assert!(slot < HUGE_EXTENT_SLOTS);
        self.meta_base() + HUGE_TABLE_OFF + slot as u64 * EXTENT_RECORD_SIZE
    }

    /// Reads the huge-region header.
    pub fn header(&self) -> Result<HugeHeader> {
        Ok(self.dev.read_pod(self.meta_base())?)
    }
}

/// Borrowed context for operating on one sub-heap: the device, the heap
/// geometry, and the sub-heap index. All sub-heap modules (hash table,
/// buddy lists, defragmentation, logs) work through this.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SubCtx<'a> {
    pub dev: &'a PmemDevice,
    pub layout: &'a HeapLayout,
    pub sub: u16,
}

impl<'a> SubCtx<'a> {
    /// Device offset of this sub-heap's metadata region.
    #[inline]
    pub fn meta_base(&self) -> u64 {
        self.layout.meta_base(self.sub)
    }

    /// Device offset of this sub-heap's user region.
    #[inline]
    pub fn user_base(&self) -> u64 {
        self.layout.user_base(self.sub)
    }

    /// Device offset of the header's undo-log generation field.
    #[inline]
    pub fn undo_gen_off(&self) -> u64 {
        self.meta_base() + std::mem::offset_of!(SubheapHeader, undo_gen) as u64
    }

    /// Device offset of the header's `active_levels` field.
    #[inline]
    pub fn active_levels_off(&self) -> u64 {
        self.meta_base() + std::mem::offset_of!(SubheapHeader, active_levels) as u64
    }

    /// This sub-heap's undo-log area.
    #[inline]
    pub fn undo_area(&self) -> UndoArea {
        UndoArea { base: self.meta_base() + SH_UNDO_OFF, size: SH_UNDO_SIZE, gen_field: self.undo_gen_off() }
    }

    /// Device offset of buddy-list head slot `class`.
    #[inline]
    pub fn buddy_head_off(&self, class: usize) -> u64 {
        self.meta_base() + SH_BUDDY_HEADS_OFF + class as u64 * 8
    }

    /// Device offset of buddy-list tail slot `class`.
    #[inline]
    pub fn buddy_tail_off(&self, class: usize) -> u64 {
        self.meta_base() + SH_BUDDY_TAILS_OFF + class as u64 * 8
    }

    /// Device offset of the live-entry counter of hash level `level`.
    #[inline]
    pub fn level_count_off(&self, level: usize) -> u64 {
        self.meta_base() + SH_LEVEL_COUNTS_OFF + level as u64 * 8
    }

    /// Device offset of the live-entry checksum of hash level `level`.
    #[inline]
    pub fn level_sum_off(&self, level: usize) -> u64 {
        self.meta_base() + SH_LEVEL_SUMS_OFF + level as u64 * 8
    }

    /// Device offset of micro-log slot `slot`'s count field.
    #[inline]
    pub fn micro_count_off(&self, slot: usize) -> u64 {
        debug_assert!(slot < crate::layout::MICRO_SLOTS);
        self.meta_base() + SH_MICRO_OFF + slot as u64 * crate::layout::MICRO_SLOT_BYTES
    }

    /// Device offset of entry `index` in micro-log slot `slot`.
    #[inline]
    pub fn micro_entry_off(&self, slot: usize, index: u64) -> u64 {
        self.micro_count_off(slot) + 16 + index * 16
    }

    /// Reads the number of active hash-table levels.
    pub fn active_levels(&self) -> Result<u64> {
        Ok(self.dev.read_pod(self.active_levels_off())?)
    }

    /// Reads the record at device offset `entry_off`.
    pub fn entry(&self, entry_off: u64) -> Result<HashEntry> {
        Ok(self.dev.read_pod(entry_off)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmem::Pod;

    #[test]
    fn struct_sizes() {
        assert_eq!(std::mem::size_of::<HashEntry>(), 64);
        assert_eq!(std::mem::size_of::<DirEntry>(), 8);
        assert_eq!(std::mem::size_of::<SubheapHeader>(), 40);
        assert!(std::mem::size_of::<SuperblockHeader>() <= 4096);
    }

    #[test]
    fn headers_roundtrip_through_bytes() {
        let header = SuperblockHeader {
            magic: SUPERBLOCK_MAGIC,
            version: FORMAT_VERSION,
            heap_id: 0x1234,
            capacity: 1 << 30,
            num_subheaps: 8,
            meta_size: 1 << 20,
            user_size: 8 << 20,
            c0: 64,
            huge_data_size: 16 << 20,
            undo_gen: 0,
            root: NvmPtr::new(0x1234, 3, 64),
            epoch_count: 1,
            _pad0: 0,
            _pad1: 0,
            _pad2: 0,
        };
        assert_eq!(SuperblockHeader::from_bytes(header.as_bytes()), header);
    }

    #[test]
    fn ctx_offsets_are_disjoint_per_subheap() {
        let layout = HeapLayout::compute(256 << 20, 4).unwrap();
        let dev = PmemDevice::new(pmem::DeviceConfig::small_test());
        let a = SubCtx { dev: &dev, layout: &layout, sub: 0 };
        let b = SubCtx { dev: &dev, layout: &layout, sub: 1 };
        assert_ne!(a.undo_gen_off(), b.undo_gen_off());
        assert_eq!(b.meta_base() - a.meta_base(), layout.meta_size);
        assert!(a.buddy_head_off(0) > a.meta_base());
        assert!(a.micro_count_off(0) > a.buddy_tail_off(47));
        assert!(a.micro_entry_off(0, 0) == a.micro_count_off(0) + 16);
    }
}
