//! Heap quarantine: isolating blocks hit by uncorrectable media errors.
//!
//! Real persistent memory develops bad lines; an allocator that hands a
//! poisoned block back to the application turns a contained media error
//! into silent data corruption. Poseidon therefore *quarantines*: a block
//! whose user bytes overlap a poisoned line is moved to the
//! [`state::QUARANTINED`] record state — pulled out of its buddy free
//! list (if it was free), never considered for allocation or merging, and
//! accounted separately by the audit. Quarantined blocks stay in the hash
//! table so probe chains remain intact and the bytes they cover remain
//! claimed (conservation: every user byte is FREE, ALLOC, or
//! QUARANTINED).
//!
//! One rule, [`release`], quarantines, at two points:
//!
//! * **Recovery** ([`isolate_poisoned_free_blocks`]) — after the logs of
//!   a sub-heap replay cleanly, its free blocks are checked against the
//!   device's scrub list and poisoned ones are withdrawn.
//! * **Return** — a slow-path free, a micro-log revert or a cache drain
//!   routes a block overlapping poison straight to QUARANTINED instead
//!   of the free list.
//!
//! Sub-heaps whose *metadata* is poisoned cannot be trusted at all and
//! are quarantined wholesale by recovery (a volatile per-sub flag in the
//! heap); `pfsck --repair` is the escape hatch for both granularities.

use pmem::PoisonRange;

use crate::buddy;
use crate::error::Result;
use crate::hashtable;
use crate::layout::{ENTRY_SIZE, MAX_LEVELS};
use crate::persist::{state, HashEntry, FLAG_CACHED};
use crate::session::OpSession;
use crate::undo::UndoScope;

/// Whether any of `ranges` overlaps `[offset, offset + len)`.
pub(crate) fn overlaps_any(ranges: &[PoisonRange], offset: u64, len: u64) -> bool {
    ranges.iter().any(|r| r.overlaps(offset, len))
}

/// Scans every active hash-table level of `op`'s sub-heap and quarantines
/// FREE blocks whose user bytes overlap a poisoned range: each is
/// unlinked from its buddy list and handed to [`release`],
/// one undo scope per block (so a crash mid-scan leaves a consistent heap
/// and a re-run finishes the job). Returns `(blocks, bytes)` quarantined.
///
/// The caller has already established that the sub-heap's *metadata*
/// region is poison-free — table reads here are expected to succeed.
///
/// Cache-withdrawn records (`FREE | FLAG_CACHED`) are skipped: they are
/// already unlinked from their buddy list (unlinking them again would
/// clobber the real list head), and the transient cache owns them — the
/// live healing path drains the cache back to the free lists *before*
/// calling this, so only blocks checked out to the application (whose
/// poison surfaces as a typed read error) stay flagged.
pub(crate) fn isolate_poisoned_free_blocks(op: &OpSession<'_>, poison: &[PoisonRange]) -> Result<(u64, u64)> {
    if poison.is_empty() {
        return Ok((0, 0));
    }
    let user_base = op.ctx.user_base();
    let mut blocks = 0u64;
    let mut bytes = 0u64;
    let active = (op.active_levels()? as usize).min(MAX_LEVELS);
    for level in 0..active {
        let base = op.ctx.layout.level_base(op.ctx.sub, level);
        for i in 0..op.ctx.layout.level_capacity(level) {
            let rec_off = base + i * ENTRY_SIZE;
            let rec = op.entry(rec_off)?;
            if rec.state != state::FREE
                || rec.flags & FLAG_CACHED != 0
                || !overlaps_any(poison, user_base + rec.offset, rec.size)
            {
                continue;
            }
            let mut scope = op.undo()?;
            buddy::unlink(op, &mut scope, rec_off, &rec)?;
            let (quarantined, size) = release(op, &mut scope, rec_off, rec)?;
            scope.commit()?;
            blocks += quarantined;
            bytes += size;
        }
    }
    Ok((blocks, bytes))
}

/// The release rule, the one place that decides FREE or QUARANTINED
/// for a sub-heap record that is off every free list: a block whose
/// user bytes overlap poisoned media goes to [`state::QUARANTINED`] with
/// cleared links, any other goes `FREE`, uncached, on its class's tail.
/// Runs inside the caller's scope. Returns the `(blocks, bytes)`
/// quarantined: `(1, size)` or `(0, 0)`.
pub(crate) fn release(
    op: &OpSession<'_>,
    scope: &mut UndoScope<'_>,
    rec_off: u64,
    mut rec: HashEntry,
) -> Result<(u64, u64)> {
    rec.flags &= !FLAG_CACHED;
    if op.ctx.dev.is_poisoned(op.ctx.user_base() + rec.offset, rec.size) {
        rec.state = state::QUARANTINED;
        rec.next_free = 0;
        rec.prev_free = 0;
        hashtable::write_entry(scope, rec_off, &rec)?;
        return Ok((1, rec.size));
    }
    rec.state = state::FREE;
    buddy::push_tail(op, scope, rec_off, &mut rec)?;
    Ok((0, 0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::HeapLayout;
    use crate::persist::SubCtx;
    use crate::subheap;
    use pmem::{DeviceConfig, PmemDevice};

    fn setup() -> (PmemDevice, HeapLayout) {
        let layout = HeapLayout::compute(64 << 20, 2).unwrap();
        let dev = PmemDevice::new(DeviceConfig::new(64 << 20));
        (dev, layout)
    }

    #[test]
    fn poisoned_free_block_is_withdrawn_and_never_reallocated() {
        let (dev, layout) = setup();
        let op = OpSession::unguarded(SubCtx { dev: &dev, layout: &layout, sub: 0 }).unwrap();
        subheap::create(&op, 0).unwrap();
        // Allocate then free a small block so a specific free record
        // exists, then poison one line inside it.
        let (class, size) = crate::layout::class_for_size(64).unwrap();
        let off = subheap::alloc_block(&op, class, None).unwrap();
        subheap::free_block(&op, off).unwrap();
        dev.poison(op.ctx.user_base() + off, 1).unwrap();

        let (blocks, bytes) = isolate_poisoned_free_blocks(&op, &dev.scrub()).unwrap();
        assert_eq!(blocks, 1);
        assert_eq!(bytes, size);
        // Idempotent: a second pass finds nothing FREE to quarantine.
        assert_eq!(isolate_poisoned_free_blocks(&op, &dev.scrub()).unwrap(), (0, 0));

        // The block is out of circulation: its record is QUARANTINED, its
        // class's free list no longer links it, and the audit accounts
        // for it.
        let (rec_off, rec) = crate::hashtable::lookup(&op, off).unwrap().unwrap();
        assert_eq!(rec.state, state::QUARANTINED);
        assert!(!buddy::collect(&op, class).unwrap().contains(&rec_off));
        let audit = subheap::audit(&op).unwrap();
        assert_eq!(audit.quarantined_blocks, 1);
        assert_eq!(audit.quarantined_bytes, size);
    }

    #[test]
    fn clean_device_is_a_cheap_no_op() {
        let (dev, layout) = setup();
        let op = OpSession::unguarded(SubCtx { dev: &dev, layout: &layout, sub: 0 }).unwrap();
        subheap::create(&op, 0).unwrap();
        assert_eq!(isolate_poisoned_free_blocks(&op, &dev.scrub()).unwrap(), (0, 0));
    }
}
