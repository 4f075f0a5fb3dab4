//! The huge-object region: an extent allocator for allocations beyond
//! what a sub-heap can serve.
//!
//! Poseidon's buddy classes top out at [`HeapLayout::max_alloc`] — the
//! largest power of two fitting one sub-heap's user region. Requests
//! above that are routed here: a dedicated region at the tail of the
//! device (see `layout`'s diagram), managed by a flat **extent table**
//! instead of the multi-level hash table, because huge objects are few,
//! large, and long-lived — a 1024-slot table scanned linearly beats a
//! hash table sized for millions of 32-byte blocks.
//!
//! The table's invariant mirrors the sub-heap block records: non-empty
//! slots, *sorted by offset*, tile the whole data region — every byte
//! belongs to exactly one `FREE`, `ALLOC`, or `QUARANTINED` extent.
//! Physical slot order is arbitrary (slots are claimed and vacated as
//! extents split and coalesce); the sorted view is reconstructed by
//! scanning. Because allocated extents are recorded too, `free` and
//! `block_size` validate huge pointers exactly like sub-heap pointers:
//! double frees and invalid frees are rejected before they can corrupt
//! the table.
//!
//! Allocation is first fit over the *lowest-offset* free extent that
//! fits (page-granular), splitting off the remainder; freeing coalesces
//! with free neighbours eagerly, so adjacent free extents never persist
//! and fragmentation stays bounded by the live-object pattern. Every
//! mutation runs in a [`HugeOp`] — the same operation session sub-heaps
//! use, over the huge metadata — and goes through its undo scope on the
//! region's own log area, so a crash at any point is rolled back by the
//! ordinary replay on the device's unmapped view on the next load.
//!
//! Metadata lives in the MPK-protected prefix; data pages are punched
//! back to the device on free. Extents overlapping uncorrectable media
//! errors are flipped to `QUARANTINED` (recovery splits poisoned spans
//! out of free extents) and only `pfsck --repair` releases them.
//!
//! [`HeapLayout::max_alloc`]: crate::layout::HeapLayout::max_alloc

use pmem::{PmemDevice, PoisonRange, PAGE_SIZE};

use crate::error::{PoseidonError, Result};
use crate::layout::{
    HeapLayout, EXTENT_RECORD_SIZE, HUGE_EXTENT_SLOTS, HUGE_META_SIZE, HUGE_TABLE_OFF, HUGE_UNDO_OFF,
    HUGE_UNDO_SIZE, MICRO_LOG_CAPACITY,
};
use crate::nvmptr::NvmPtr;
use crate::persist::{state, ExtentRecord, HugeCtx, HugeHeader, SubCtx, FORMAT_VERSION, HUGE_MAGIC};
use crate::quarantine;
use crate::session::HugeOp;

/// Sentinel sub-heap id embedded in huge-object pointers: `u16::MAX`
/// never names a real sub-heap (the directory is capped below it), so a
/// pointer carrying it is routed to the extent allocator by every heap
/// entry point (`free`, `block_size`, `realloc`, recovery).
pub(crate) const HUGE_SUBHEAP: u16 = u16::MAX;

/// Shorthand for building an [`ExtentRecord`].
fn extent(offset: u64, len: u64, state: u32) -> ExtentRecord {
    ExtentRecord { offset, len, state, _pad: 0, _reserved: 0 }
}

/// The empty record written to vacated slots.
fn empty_slot() -> ExtentRecord {
    extent(0, 0, state::EMPTY)
}

/// Formats the huge region on a fresh device: header (magic published
/// last, mirroring the superblock), a clean undo log, and an extent
/// table holding one `FREE` extent covering the whole data region. A
/// no-op when the layout carves no huge region.
///
/// Runs *before* `superblock::create`, so the superblock magic remains
/// the heap's single last-published commit point: a crash mid-format
/// leaves a device that is simply re-created next time.
pub(crate) fn format(dev: &PmemDevice, layout: &HeapLayout) -> Result<()> {
    if layout.huge_data_size() == 0 {
        return Ok(());
    }
    let ctx = HugeCtx { dev, layout };
    let base = ctx.meta_base();
    let header = HugeHeader {
        magic: 0, // published below
        version: FORMAT_VERSION,
        _pad: 0,
        undo_gen: 0,
        data_size: layout.huge_data_size(),
    };
    dev.write_pod(base, &header)?;
    dev.punch_hole(base + HUGE_UNDO_OFF, HUGE_UNDO_SIZE)?;
    dev.write(base + HUGE_TABLE_OFF, &vec![0u8; (HUGE_EXTENT_SLOTS as u64 * EXTENT_RECORD_SIZE) as usize])?;
    // One FREE extent per band (a fresh heap has exactly one; the shape
    // stays general for module tests that format grown layouts).
    for (i, band) in layout.huge_bands().iter().enumerate() {
        dev.write_pod(ctx.slot_off(i), &extent(band.logical, band.len, state::FREE))?;
    }
    dev.persist(base, HUGE_META_SIZE)?;
    dev.write_pod(base, &HUGE_MAGIC)?;
    dev.persist(base, 8)?;
    Ok(())
}

/// Validates the huge-region header against the loaded geometry. The
/// recorded `data_size` may *lag* the layout's logical total — a crash
/// between an epoch commit and its band bookkeeping leaves exactly that
/// — but must then land on a band boundary;
/// [`extend_to_layout`] closes the gap idempotently during recovery.
///
/// # Errors
///
/// [`PoseidonError::Corrupted`] on a missing or inconsistent header.
pub(crate) fn validate(ctx: &HugeCtx<'_>) -> Result<()> {
    let header = ctx.header()?;
    if header.magic != HUGE_MAGIC {
        return Err(PoseidonError::Corrupted("no huge-region header where the layout expects one"));
    }
    let boundary = ctx
        .layout
        .huge_bands()
        .iter()
        .any(|b| b.logical == header.data_size || b.logical + b.len == header.data_size);
    if header.version != FORMAT_VERSION || !boundary {
        return Err(PoseidonError::Corrupted("huge-region header disagrees with the superblock"));
    }
    Ok(())
}

/// Device offset of the huge header's `data_size` field.
fn data_size_off(ctx: &HugeCtx<'_>) -> u64 {
    ctx.meta_base() + std::mem::offset_of!(HugeHeader, data_size) as u64
}

/// Brings the extent table up to the layout's logical total after a
/// grow: every band starting at or past the recorded `data_size` gets a
/// fresh `FREE` extent, and `data_size` is bumped to the total — all in
/// one undo scope, so the bookkeeping is crash-atomic and **idempotent**
/// (recovery re-runs it after a crash between the epoch commit and this
/// completion). Returns the bytes added. A no-op when nothing lags.
///
/// # Errors
///
/// [`PoseidonError::TableFull`] when no vacant slot can hold a new
/// band's extent.
pub(crate) fn extend_to_layout(op: &HugeOp<'_>) -> Result<u64> {
    let target = op.ctx.layout.huge_data_size();
    let recorded = op.ctx.header()?.data_size;
    if recorded >= target {
        return Ok(0);
    }
    let mut vacant = Vec::new();
    for i in 0..HUGE_EXTENT_SLOTS {
        if op.slot(i)?.state == state::EMPTY {
            vacant.push(i);
        }
    }
    let mut spare = vacant.into_iter();
    let mut scope = op.undo()?;
    let mut added = 0u64;
    for band in op.ctx.layout.huge_bands() {
        if band.logical < recorded {
            continue;
        }
        let slot = spare.next().ok_or(PoseidonError::TableFull)?;
        scope.log_and_write_pod(op.ctx.slot_off(slot), &extent(band.logical, band.len, state::FREE))?;
        added += band.len;
    }
    scope.log_and_write_pod(data_size_off(&op.ctx), &target)?;
    scope.commit()?;
    Ok(added)
}

/// What transactional huge allocation must append to the owning
/// sub-heap's micro log, inside the same undo scope as the extent
/// writes (see [`HugeOp::spanning`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct MicroHook {
    /// Heap id to embed in the logged pointer.
    pub heap_id: u64,
    /// Sub-heap whose micro log records the transaction.
    pub sub: u16,
    /// The transaction's claimed micro-log slot.
    pub slot: usize,
}

/// Allocates a page-granular extent of at least `size` bytes: first fit
/// over the lowest-offset free extent that fits, splitting the
/// remainder into a vacant slot. With `micro`, additionally appends the
/// resulting pointer to the transaction's micro log **in the same undo
/// scope** (the session must be [`HugeOp::spanning`]). Returns the
/// extent's offset within the data region.
///
/// # Errors
///
/// [`PoseidonError::ZeroSize`]; [`PoseidonError::TooLarge`] (reporting
/// the largest free extent) when nothing fits;
/// [`PoseidonError::TableFull`] when a split needs a slot and none is
/// vacant; [`PoseidonError::TxTooLarge`] when the micro slot is full.
pub(crate) fn alloc(op: &HugeOp<'_>, size: u64, micro: Option<MicroHook>) -> Result<u64> {
    if size == 0 {
        return Err(PoseidonError::ZeroSize);
    }
    let need = size.checked_add(PAGE_SIZE - 1).map_or(u64::MAX, |v| v & !(PAGE_SIZE - 1));
    let mut best: Option<(usize, ExtentRecord)> = None;
    let mut largest_free = 0u64;
    let mut vacant = None;
    for i in 0..HUGE_EXTENT_SLOTS {
        let rec = op.slot(i)?;
        if rec.state == state::EMPTY {
            if vacant.is_none() {
                vacant = Some(i);
            }
            continue;
        }
        if rec.state != state::FREE {
            continue;
        }
        largest_free = largest_free.max(rec.len);
        let lower = match best {
            None => true,
            Some((_, b)) => rec.offset < b.offset,
        };
        if rec.len >= need && lower {
            best = Some((i, rec));
        }
    }
    let Some((slot, rec)) = best else {
        return Err(PoseidonError::TooLarge {
            requested: size,
            subheap_max: op.ctx.layout.max_alloc(),
            huge_remaining: largest_free,
        });
    };
    if rec.len > need && vacant.is_none() {
        return Err(PoseidonError::TableFull);
    }
    let mut scope = op.undo()?;
    scope.log_and_write_pod(op.ctx.slot_off(slot), &extent(rec.offset, need, state::ALLOC))?;
    if rec.len > need {
        let spare = vacant.expect("checked above");
        scope.log_and_write_pod(
            op.ctx.slot_off(spare),
            &extent(rec.offset + need, rec.len - need, state::FREE),
        )?;
    }
    if let Some(hook) = micro {
        let sctx = SubCtx { dev: op.ctx.dev, layout: op.ctx.layout, sub: hook.sub };
        let count_off = sctx.micro_count_off(hook.slot);
        let n: u64 = op.read_pod(count_off)?;
        if n as usize >= MICRO_LOG_CAPACITY {
            // The scope drops here and rolls the extent writes back.
            return Err(PoseidonError::TxTooLarge { max: MICRO_LOG_CAPACITY });
        }
        let ptr = NvmPtr::new(hook.heap_id, HUGE_SUBHEAP, rec.offset);
        scope.log_and_write_pod(sctx.micro_entry_off(hook.slot, n), &ptr)?;
        scope.log_and_write_pod(count_off, &(n + 1))?;
    }
    scope.commit()?;
    Ok(rec.offset)
}

/// Frees the allocated extent starting at `offset`, coalescing with
/// free neighbours (absorbed slots are vacated). If the extent's data
/// pages carry uncorrectable poison it is flipped to `QUARANTINED`
/// instead — never back into circulation. Returns the extent's length.
///
/// # Errors
///
/// [`PoseidonError::DoubleFree`] if the extent is already free;
/// [`PoseidonError::InvalidFree`] if no allocated extent starts at
/// `offset` (including quarantined ones).
pub(crate) fn free(op: &HugeOp<'_>, offset: u64) -> Result<u64> {
    let mut target = None;
    for i in 0..HUGE_EXTENT_SLOTS {
        let rec = op.slot(i)?;
        if rec.state == state::EMPTY || rec.offset != offset {
            continue;
        }
        match rec.state {
            state::ALLOC => target = Some((i, rec)),
            state::FREE => return Err(PoseidonError::DoubleFree { offset }),
            _ => return Err(PoseidonError::InvalidFree { offset }),
        }
        break;
    }
    let Some((slot, rec)) = target else {
        return Err(PoseidonError::InvalidFree { offset });
    };
    let data = op
        .ctx
        .data_phys(rec.offset, rec.len)
        .ok_or(PoseidonError::Corrupted("huge extent straddles a band wall"))?;
    if op.ctx.dev.is_poisoned(data, rec.len) {
        let mut scope = op.undo()?;
        scope.log_and_write_pod(op.ctx.slot_off(slot), &extent(rec.offset, rec.len, state::QUARANTINED))?;
        scope.commit()?;
        return Ok(rec.len);
    }
    // Coalesce with the free neighbours (at most one on each side — the
    // tiling invariant plus eager coalescing guarantee it). Band walls
    // are hard boundaries: logically adjacent extents in different bands
    // are physically disjoint, so coalescing never crosses one.
    let (band_lo, band_hi) = op
        .ctx
        .layout
        .huge_band_bounds(rec.offset)
        .ok_or(PoseidonError::Corrupted("huge extent outside every band"))?;
    let mut prev = None;
    let mut next = None;
    for i in 0..HUGE_EXTENT_SLOTS {
        let r = op.slot(i)?;
        if r.state != state::FREE {
            continue;
        }
        if r.offset + r.len == rec.offset && r.offset >= band_lo {
            prev = Some((i, r));
        } else if r.offset == rec.offset + rec.len && r.offset < band_hi {
            next = Some((i, r));
        }
    }
    let mut start = rec.offset;
    let mut len = rec.len;
    let mut scope = op.undo()?;
    if let Some((i, p)) = prev {
        start = p.offset;
        len += p.len;
        scope.log_and_write_pod(op.ctx.slot_off(i), &empty_slot())?;
    }
    if let Some((i, n)) = next {
        len += n.len;
        scope.log_and_write_pod(op.ctx.slot_off(i), &empty_slot())?;
    }
    scope.log_and_write_pod(op.ctx.slot_off(slot), &extent(start, len, state::FREE))?;
    scope.commit()?;
    // Hand the (poison-free, checked above) data pages back to the device.
    op.ctx.dev.punch_hole(data, rec.len)?;
    Ok(rec.len)
}

/// Finds the live extent starting at exactly `offset` (any state).
pub(crate) fn lookup(op: &HugeOp<'_>, offset: u64) -> Result<Option<ExtentRecord>> {
    for i in 0..HUGE_EXTENT_SLOTS {
        let rec = op.slot(i)?;
        if rec.state != state::EMPTY && rec.offset == offset {
            return Ok(Some(rec));
        }
    }
    Ok(None)
}

/// Splits poisoned spans out of free extents, quarantining them
/// page-granularly (a whole-extent fallback covers a tight table).
/// Returns `(extents_quarantined, bytes_quarantined)`. Allocated
/// extents are left to their owner — `free` quarantines them later.
pub(crate) fn quarantine_poisoned(op: &HugeOp<'_>, poison: &[PoisonRange]) -> Result<(u64, u64)> {
    if poison.is_empty() {
        return Ok((0, 0));
    }
    let phys_of = |rec: &ExtentRecord| op.ctx.data_phys(rec.offset, rec.len);
    let mut extents = 0u64;
    let mut bytes = 0u64;
    // One extent is carved per pass; re-scan until none overlap poison.
    loop {
        let mut found = None;
        let mut vacant = Vec::new();
        for i in 0..HUGE_EXTENT_SLOTS {
            let rec = op.slot(i)?;
            if rec.state == state::EMPTY {
                vacant.push(i);
                continue;
            }
            if rec.state == state::FREE
                && found.is_none()
                && phys_of(&rec).is_some_and(|p| quarantine::overlaps_any(poison, p, rec.len))
            {
                found = Some((i, rec));
            }
        }
        let Some((slot, rec)) = found else {
            return Ok((extents, bytes));
        };
        // The page-rounded hull of all poison inside this extent,
        // computed in device space and mapped back through the extent's
        // band (bands are page-aligned on both sides, so page rounding
        // commutes with the translation).
        let ext_start = phys_of(&rec).expect("overlap check above mapped this extent");
        let ext_end = ext_start + rec.len;
        let mut lo = ext_end;
        let mut hi = ext_start;
        for p in poison.iter().filter(|p| p.overlaps(ext_start, rec.len)) {
            lo = lo.min(p.offset.max(ext_start));
            hi = hi.max((p.offset + p.len).min(ext_end));
        }
        let lo = rec.offset + ((lo - ext_start) & !(PAGE_SIZE - 1));
        let hi = rec.offset + ((hi - ext_start + PAGE_SIZE - 1) & !(PAGE_SIZE - 1));
        let front = lo - rec.offset;
        let tail = rec.offset + rec.len - hi;
        let pieces = usize::from(front > 0) + usize::from(tail > 0);
        let mut scope = op.undo()?;
        if vacant.len() < pieces {
            // No slots to split into: quarantine the whole extent.
            scope
                .log_and_write_pod(op.ctx.slot_off(slot), &extent(rec.offset, rec.len, state::QUARANTINED))?;
            scope.commit()?;
            extents += 1;
            bytes += rec.len;
            continue;
        }
        scope.log_and_write_pod(op.ctx.slot_off(slot), &extent(lo, hi - lo, state::QUARANTINED))?;
        let mut spare = vacant.into_iter();
        if front > 0 {
            let s = spare.next().expect("checked above");
            scope.log_and_write_pod(op.ctx.slot_off(s), &extent(rec.offset, front, state::FREE))?;
        }
        if tail > 0 {
            let s = spare.next().expect("checked above");
            scope.log_and_write_pod(op.ctx.slot_off(s), &extent(hi, tail, state::FREE))?;
        }
        scope.commit()?;
        extents += 1;
        bytes += hi - lo;
    }
}

/// Verified summary of the huge region's extent table, the huge-path
/// analogue of [`SubheapAudit`](crate::subheap::SubheapAudit).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HugeAudit {
    /// Number of free extents.
    pub free_extents: u64,
    /// Number of allocated extents.
    pub alloc_extents: u64,
    /// Number of quarantined extents (withdrawn after media errors).
    pub quarantined_extents: u64,
    /// Bytes in free extents.
    pub free_bytes: u64,
    /// Bytes in allocated extents.
    pub alloc_bytes: u64,
    /// Bytes in quarantined extents.
    pub quarantined_bytes: u64,
    /// Largest single free extent — the biggest huge allocation that
    /// would currently succeed.
    pub largest_free: u64,
}

/// Audits the extent table: every live extent page-granular and in a
/// known state, the sorted extents tile `[0, huge_data_size)` exactly
/// (no gaps, no overlaps), and no two free extents are adjacent
/// (coalescing is eager).
///
/// # Errors
///
/// [`PoseidonError::Corrupted`] naming the violated invariant.
pub(crate) fn audit(op: &HugeOp<'_>) -> Result<HugeAudit> {
    let mut live = Vec::new();
    for i in 0..HUGE_EXTENT_SLOTS {
        let rec = op.slot(i)?;
        if rec.state == state::EMPTY {
            continue;
        }
        if rec.len == 0 || rec.offset % PAGE_SIZE != 0 || rec.len % PAGE_SIZE != 0 {
            return Err(PoseidonError::Corrupted("huge extent not page-granular"));
        }
        if !matches!(rec.state, state::FREE | state::ALLOC | state::QUARANTINED) {
            return Err(PoseidonError::Corrupted("huge extent in an unknown state"));
        }
        live.push(rec);
    }
    live.sort_by_key(|r| r.offset);
    let mut audit = HugeAudit::default();
    let mut cursor = 0u64;
    let mut prev_free = false;
    for rec in &live {
        // Coalescing is eager only *within* a band: a free extent that
        // starts a new band may legally follow a free tail of the
        // previous one (they are physically disjoint).
        if op.ctx.layout.huge_band_bounds(rec.offset).is_some_and(|(lo, _)| lo == rec.offset) {
            prev_free = false;
        }
        if op.ctx.data_phys(rec.offset, rec.len).is_none() {
            return Err(PoseidonError::Corrupted("huge extent straddles a band wall"));
        }
        if rec.offset != cursor {
            return Err(PoseidonError::Corrupted(if rec.offset < cursor {
                "huge extents overlap"
            } else {
                "huge extents leave a coverage gap"
            }));
        }
        cursor = rec
            .offset
            .checked_add(rec.len)
            .ok_or(PoseidonError::Corrupted("huge extent overflows the data region"))?;
        match rec.state {
            state::FREE => {
                if prev_free {
                    return Err(PoseidonError::Corrupted("adjacent free huge extents not coalesced"));
                }
                audit.free_extents += 1;
                audit.free_bytes += rec.len;
                audit.largest_free = audit.largest_free.max(rec.len);
                prev_free = true;
            }
            state::ALLOC => {
                audit.alloc_extents += 1;
                audit.alloc_bytes += rec.len;
                prev_free = false;
            }
            _ => {
                audit.quarantined_extents += 1;
                audit.quarantined_bytes += rec.len;
                prev_free = false;
            }
        }
    }
    // Tiling is checked against the *recorded* data size: between an
    // epoch commit and its band bookkeeping the table legitimately
    // covers only the old total (recovery closes the gap).
    if cursor != op.ctx.header()?.data_size {
        return Err(PoseidonError::Corrupted("huge extents do not cover the data region"));
    }
    Ok(audit)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmem::{CrashMode, DeviceConfig};

    fn setup() -> (PmemDevice, HeapLayout) {
        let layout = HeapLayout::compute(64 << 20, 2).unwrap();
        assert!(layout.huge_data_size() > 0);
        let dev = PmemDevice::new(DeviceConfig::new(64 << 20));
        format(&dev, &layout).unwrap();
        (dev, layout)
    }

    #[test]
    fn format_yields_one_free_extent_covering_the_region() {
        let (dev, layout) = setup();
        let ctx = HugeCtx { dev: &dev, layout: &layout };
        validate(&ctx).unwrap();
        let op = HugeOp::unguarded(ctx).unwrap();
        let a = audit(&op).unwrap();
        assert_eq!(a.free_extents, 1);
        assert_eq!(a.free_bytes, layout.huge_data_size());
        assert_eq!(a.largest_free, layout.huge_data_size());
        assert_eq!(a.alloc_extents + a.quarantined_extents, 0);
    }

    #[test]
    fn alloc_free_roundtrip_splits_and_coalesces() {
        let (dev, layout) = setup();
        let ctx = HugeCtx { dev: &dev, layout: &layout };
        let op = HugeOp::unguarded(ctx).unwrap();
        let a = alloc(&op, 1 << 20, None).unwrap();
        let b = alloc(&op, (1 << 20) + 1, None).unwrap();
        assert_eq!(a, 0, "first fit starts at the lowest offset");
        assert_eq!(b, 1 << 20);
        let mid = audit(&op).unwrap();
        assert_eq!(mid.alloc_extents, 2);
        // b was page-rounded up.
        assert_eq!(mid.alloc_bytes, (2 << 20) + PAGE_SIZE);
        assert_eq!(free(&op, a).unwrap(), 1 << 20);
        assert_eq!(free(&op, b).unwrap(), (1 << 20) + PAGE_SIZE);
        let end = audit(&op).unwrap();
        assert_eq!(end.free_extents, 1, "coalesced back to one extent");
        assert_eq!(end.free_bytes, layout.huge_data_size());
    }

    #[test]
    fn first_fit_reuses_the_lowest_hole() {
        let (dev, layout) = setup();
        let ctx = HugeCtx { dev: &dev, layout: &layout };
        let op = HugeOp::unguarded(ctx).unwrap();
        let a = alloc(&op, 4 << 20, None).unwrap();
        let _b = alloc(&op, 1 << 20, None).unwrap();
        free(&op, a).unwrap();
        // The freed 4 MiB hole at offset 0 is reused before the tail.
        assert_eq!(alloc(&op, 2 << 20, None).unwrap(), 0);
        audit(&op).unwrap();
    }

    #[test]
    fn double_and_invalid_frees_are_rejected() {
        let (dev, layout) = setup();
        let ctx = HugeCtx { dev: &dev, layout: &layout };
        let op = HugeOp::unguarded(ctx).unwrap();
        let a = alloc(&op, 1 << 20, None).unwrap();
        assert!(matches!(free(&op, a + PAGE_SIZE), Err(PoseidonError::InvalidFree { .. })));
        free(&op, a).unwrap();
        assert!(matches!(free(&op, a), Err(PoseidonError::DoubleFree { .. })));
        audit(&op).unwrap();
    }

    #[test]
    fn exhaustion_reports_the_largest_free_extent() {
        let (dev, layout) = setup();
        let ctx = HugeCtx { dev: &dev, layout: &layout };
        let op = HugeOp::unguarded(ctx).unwrap();
        let _a = alloc(&op, layout.huge_data_size() / 2, None).unwrap();
        let before = audit(&op).unwrap();
        let err = alloc(&op, layout.huge_data_size(), None).unwrap_err();
        match err {
            PoseidonError::TooLarge { requested, subheap_max, huge_remaining } => {
                assert_eq!(requested, layout.huge_data_size());
                assert_eq!(subheap_max, layout.max_alloc());
                assert_eq!(huge_remaining, before.largest_free);
            }
            other => panic!("expected TooLarge, got {other:?}"),
        }
    }

    #[test]
    fn zero_size_is_rejected() {
        let (dev, layout) = setup();
        let ctx = HugeCtx { dev: &dev, layout: &layout };
        let op = HugeOp::unguarded(ctx).unwrap();
        assert!(matches!(alloc(&op, 0, None), Err(PoseidonError::ZeroSize)));
    }

    #[test]
    fn every_crash_point_rolls_back_or_completes() {
        // Adversarial sweep: crash after every persisted store of an
        // alloc and of a free; after replay the table must audit clean
        // and show either the old or the new state — never a torn one.
        let (dev, layout) = setup();
        let ctx = HugeCtx { dev: &dev, layout: &layout };
        let target = 1u64 << 20; // where the swept 2 MiB extent lands
        {
            // A 1 MiB anchor at offset 0 keeps the swept extent interior.
            let op = HugeOp::unguarded(ctx).unwrap();
            assert_eq!(alloc(&op, 1 << 20, None).unwrap(), 0);
        }
        for stage in ["alloc", "free"] {
            // Each stage sweeps one op: reset to its pre-state, arm a
            // crash k events in, replay, audit, tighten k until the op
            // runs to completion uninterrupted.
            let mut k = 1u64;
            loop {
                {
                    // Reset to the stage's pre-image (crash may have left
                    // either the old or the new state behind).
                    let op = HugeOp::unguarded(ctx).unwrap();
                    let live = lookup(&op, target).unwrap().filter(|r| r.state == state::ALLOC);
                    match (stage, live) {
                        ("alloc", Some(_)) => {
                            free(&op, target).unwrap();
                        }
                        ("free", None) => {
                            assert_eq!(alloc(&op, 2 << 20, None).unwrap(), target);
                        }
                        _ => {}
                    }
                }
                dev.arm_crash_after(k);
                let result = {
                    let op = HugeOp::unguarded(ctx).unwrap();
                    if stage == "alloc" {
                        alloc(&op, 2 << 20, None).map(|_| ())
                    } else {
                        free(&op, target).map(|_| ())
                    }
                };
                dev.simulate_crash(CrashMode::Strict, k);
                crate::undo::replay(&dev, ctx.undo_area()).unwrap();
                let op = HugeOp::unguarded(ctx).unwrap();
                let a = audit(&op).unwrap();
                assert_eq!(
                    a.free_bytes + a.alloc_bytes + a.quarantined_bytes,
                    layout.huge_data_size(),
                    "crash point {k} in {stage} left a torn table"
                );
                if result.is_ok() {
                    break;
                }
                k += 1;
                assert!(k < 100, "crash sweep did not converge");
            }
            assert!(k > 3, "sweep must cover interior crash points, swept only {k}");
        }
        // Both stages done (free completed last): only the anchor remains.
        let op = HugeOp::unguarded(ctx).unwrap();
        free(&op, 0).unwrap();
        let a = audit(&op).unwrap();
        assert_eq!(a.free_extents, 1);
        assert_eq!(a.free_bytes, layout.huge_data_size());
    }

    #[test]
    fn table_full_when_no_slot_for_the_split() {
        let (dev, layout) = setup();
        let ctx = HugeCtx { dev: &dev, layout: &layout };
        let op = HugeOp::unguarded(ctx).unwrap();
        // Fill every slot: the region tiles into HUGE_EXTENT_SLOTS
        // single-page ALLOC extents is too slow; instead, synthesize a
        // full table directly (alternating ALLOC extents with one FREE
        // tail larger than a page, leaving zero vacant slots).
        let pages = layout.huge_data_size() / PAGE_SIZE;
        assert!(pages as usize > HUGE_EXTENT_SLOTS);
        for i in 0..HUGE_EXTENT_SLOTS - 1 {
            dev.write_pod(ctx.slot_off(i), &extent(i as u64 * PAGE_SIZE, PAGE_SIZE, state::ALLOC)).unwrap();
        }
        let used = (HUGE_EXTENT_SLOTS as u64 - 1) * PAGE_SIZE;
        dev.write_pod(
            ctx.slot_off(HUGE_EXTENT_SLOTS - 1),
            &extent(used, layout.huge_data_size() - used, state::FREE),
        )
        .unwrap();
        audit(&op).unwrap();
        // A fitting request that needs a split has no slot for the rest.
        assert!(matches!(alloc(&op, PAGE_SIZE, None), Err(PoseidonError::TableFull)));
        // An exact-fit request for the whole tail still succeeds.
        let off = alloc(&op, layout.huge_data_size() - used, None).unwrap();
        assert_eq!(off, used);
        audit(&op).unwrap();
    }

    #[test]
    fn poisoned_extent_is_quarantined_on_free() {
        let (dev, layout) = setup();
        let ctx = HugeCtx { dev: &dev, layout: &layout };
        let op = HugeOp::unguarded(ctx).unwrap();
        let a = alloc(&op, 1 << 20, None).unwrap();
        dev.poison(layout.huge_phys_of(a, 1 << 20).unwrap() + 64, 128).unwrap();
        assert_eq!(free(&op, a).unwrap(), 1 << 20);
        let aud = audit(&op).unwrap();
        assert_eq!(aud.quarantined_extents, 1);
        assert_eq!(aud.quarantined_bytes, 1 << 20);
        // The quarantined extent is not re-allocatable and not freeable.
        assert!(matches!(free(&op, a), Err(PoseidonError::InvalidFree { .. })));
        let b = alloc(&op, 1 << 20, None).unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn quarantine_poisoned_splits_free_extents_page_granularly() {
        let (dev, layout) = setup();
        let ctx = HugeCtx { dev: &dev, layout: &layout };
        let op = HugeOp::unguarded(ctx).unwrap();
        // Poison one line in the middle of the (single, free) region.
        let at = layout.huge_phys_of(8 * PAGE_SIZE, PAGE_SIZE).unwrap() + 256;
        dev.poison(at, 64).unwrap();
        let poison = dev.scrub();
        let (extents, bytes) = quarantine_poisoned(&op, &poison).unwrap();
        assert_eq!(extents, 1);
        assert_eq!(bytes, PAGE_SIZE, "only the poisoned page is withdrawn");
        let aud = audit(&op).unwrap();
        assert_eq!(aud.quarantined_bytes, PAGE_SIZE);
        assert_eq!(aud.free_extents, 2, "front and tail remain free");
        assert_eq!(aud.free_bytes, layout.huge_data_size() - PAGE_SIZE);
        // Idempotent: a second pass finds nothing more to do.
        assert_eq!(quarantine_poisoned(&op, &poison).unwrap(), (0, 0));
        // Allocation steers around the quarantined page.
        let got = alloc(&op, 16 * PAGE_SIZE, None).unwrap();
        assert!(got > 8 * PAGE_SIZE, "hole before the poison is too small");
    }

    #[test]
    fn extend_adds_a_band_and_walls_stop_coalescing() {
        let layout = HeapLayout::compute(64 << 20, 2).unwrap();
        let dev = PmemDevice::new(DeviceConfig::new(64 << 20).growable_to(256 << 20));
        format(&dev, &layout).unwrap();
        let old_total = layout.huge_data_size();

        // Grow: commit a second epoch in memory and on the device, then
        // run the idempotent band bookkeeping.
        let epoch = layout.plan_growth(128 << 20).unwrap();
        assert!(epoch.huge_size > 0, "growth of this shape must carry a band");
        dev.grow(128 << 20).unwrap();
        layout.push_epoch(epoch).unwrap();
        let ctx = HugeCtx { dev: &dev, layout: &layout };
        {
            let op = HugeOp::unguarded(ctx).unwrap();
            assert_eq!(extend_to_layout(&op).unwrap(), epoch.huge_size);
            assert_eq!(extend_to_layout(&op).unwrap(), 0, "second run is a no-op");
        }
        validate(&ctx).unwrap();
        let op = HugeOp::unguarded(ctx).unwrap();
        let a = audit(&op).unwrap();
        assert_eq!(a.free_bytes, layout.huge_data_size());
        assert_eq!(a.free_extents, 2, "band-wall neighbours stay uncoalesced");

        // Fill band 0 exactly, then the next allocation must come from
        // the new band (extents never straddle the wall).
        assert_eq!(alloc(&op, old_total, None).unwrap(), 0);
        let big = alloc(&op, epoch.huge_size, None).unwrap();
        assert_eq!(big, old_total, "exact fit at the new band's start");
        assert!(layout.huge_phys_of(big, epoch.huge_size).is_some());
        assert_eq!(free(&op, big).unwrap(), epoch.huge_size);
        assert_eq!(free(&op, 0).unwrap(), old_total);
        let end = audit(&op).unwrap();
        assert_eq!(end.free_extents, 2, "coalescing is confined to the band");
        assert_eq!(end.free_bytes, layout.huge_data_size());
    }
}
