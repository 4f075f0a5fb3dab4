//! Local defragmentation (§5.4).
//!
//! Poseidon defragments a *single sub-heap*, never globally, in two
//! situations:
//!
//! 1. **No free block of the requested class** — free blocks in smaller
//!    classes are merged with their buddies, cascading upward, until the
//!    request can be served ([`merge_all_below`]). The maintenance engine
//!    runs the same loop over every class, under a budget.
//! 2. **A hash-table probe window is full** — the free blocks within the
//!    window are merged; every merge tombstones one record, freeing a
//!    slot ([`compact_windows`]).
//!
//! Blocks are classic binary buddies: a block of size `s` at sub-heap
//! offset `o` (always `s`-aligned) merges with the block at `o ^ s` iff
//! that block exists, is free, and has the same size. Each merge runs in
//! its own undo scope, so the heap is consistent between merges and a
//! crash mid-defragmentation loses nothing.

use crate::buddy;
use crate::error::Result;
use crate::hashtable;
use crate::layout::class_for_size;
use crate::persist::{state, FLAG_CACHED};
use crate::session::OpSession;

/// Merges the FREE block recorded at `rec_off` with its buddy, cascading
/// to larger classes while possible. Returns the number of merges.
///
/// Cache-managed records (`FLAG_CACHED`) are ineligible on either side:
/// they are media-FREE but *withdrawn* from the free lists, so unlinking
/// one here would corrupt list pointers — and the block may be in the
/// application's hands via the cached fast path.
pub(crate) fn merge_cascade(op: &OpSession<'_>, mut rec_off: u64) -> Result<u64> {
    let mut merged = 0;
    while let Some((surv_off, _)) = merge_once(op, rec_off)? {
        merged += 1;
        rec_off = surv_off;
    }
    Ok(merged)
}

/// One bounded unit of coalescing (one two-fence undo scope): merges the
/// FREE block recorded at `rec_off` with its buddy if eligible. Returns
/// the surviving record offset and the merged block's new size, or
/// `None` when no merge is possible. [`merge_cascade`] and
/// [`merge_all_below`] are this in a loop.
pub(crate) fn merge_once(op: &OpSession<'_>, rec_off: u64) -> Result<Option<(u64, u64)>> {
    let rec = op.entry(rec_off)?;
    if rec.state != state::FREE || rec.flags & FLAG_CACHED != 0 {
        return Ok(None);
    }
    let buddy_key = rec.offset ^ rec.size;
    let Some((buddy_off, buddy_rec)) = hashtable::lookup(op, buddy_key)? else {
        return Ok(None);
    };
    if buddy_rec.state != state::FREE || buddy_rec.flags & FLAG_CACHED != 0 || buddy_rec.size != rec.size {
        return Ok(None);
    }

    // Survivor is the lower half; the upper half's record is deleted.
    let (surv_off, mut surv, loser_off, loser) = if rec.offset < buddy_rec.offset {
        (rec_off, rec, buddy_off, buddy_rec)
    } else {
        (buddy_off, buddy_rec, rec_off, rec)
    };

    let mut scope = op.undo()?;
    buddy::unlink(op, &mut scope, surv_off, &surv)?;
    // Unlinking the survivor may have rewritten the loser's links
    // (they can be neighbours in the same class list): reload it.
    let loser_now = op.entry(loser_off)?;
    debug_assert_eq!(loser_now.offset, loser.offset);
    buddy::unlink(op, &mut scope, loser_off, &loser_now)?;
    hashtable::delete(op, &mut scope, loser_off)?;
    surv.size *= 2;
    surv.state = state::FREE;
    buddy::push_tail(op, &mut scope, surv_off, &mut surv)?;
    scope.commit()?;
    Ok(Some((surv_off, surv.size)))
}

/// Trigger 1 (§5.4): merges buddies in every class **below** `class`,
/// smallest class first, cascading each block upward, hoping to assemble
/// a block large enough. Stops once `budget` merges have committed — the
/// alloc path passes `u64::MAX`, the maintenance engine what its step
/// has left. Returns the merges committed and the bytes the merged
/// blocks now cover.
pub(crate) fn merge_all_below(op: &OpSession<'_>, class: usize, budget: u64) -> Result<(u64, u64)> {
    let (mut merges, mut bytes) = (0, 0);
    for k in 0..class {
        if merges >= budget {
            break;
        }
        // Snapshot, then re-validate each record: earlier merges may have
        // consumed or grown entries from this list.
        for rec_off in buddy::collect(op, k)? {
            if merges >= budget {
                break;
            }
            let rec = op.entry(rec_off)?;
            if rec.state != state::FREE || rec.flags & FLAG_CACHED != 0 || class_for_size(rec.size)?.0 != k {
                continue;
            }
            let mut cur = rec_off;
            while merges < budget {
                let Some((surv, size)) = merge_once(op, cur)? else { break };
                merges += 1;
                bytes += size;
                cur = surv;
            }
        }
    }
    Ok((merges, bytes))
}

/// Trigger 2 (§5.4): merges the free blocks found in `key`'s probe
/// windows so an insert of `key` can find a slot. Returns the number of
/// merges.
pub(crate) fn compact_windows(op: &OpSession<'_>, key: u64) -> Result<u64> {
    let mut merged = 0;
    for (rec_off, rec) in hashtable::free_in_windows(op, key)? {
        let now = op.entry(rec_off)?;
        if now.state == state::FREE && now.offset == rec.offset {
            merged += merge_cascade(op, rec_off)?;
        }
    }
    Ok(merged)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::HeapLayout;
    use crate::persist::{HashEntry, SubCtx};
    use pmem::{DeviceConfig, PmemDevice};

    fn setup() -> (PmemDevice, HeapLayout) {
        let layout = HeapLayout::compute(64 << 20, 2).unwrap();
        let dev = PmemDevice::new(DeviceConfig::new(64 << 20));
        let ctx = SubCtx { dev: &dev, layout: &layout, sub: 0 };
        dev.write_pod(ctx.active_levels_off(), &1u64).unwrap();
        (dev, layout)
    }

    fn add(op: &OpSession<'_>, off: u64, size: u64, st: u32) -> u64 {
        let mut s = op.undo().unwrap();
        let mut rec = HashEntry { offset: off, size, state: st, ..Default::default() };
        let rec_off = hashtable::insert(op, &mut s, rec, false).unwrap();
        if st == state::FREE {
            buddy::push_tail(op, &mut s, rec_off, &mut rec).unwrap();
        }
        s.commit().unwrap();
        rec_off
    }

    #[test]
    fn two_free_buddies_merge() {
        let (dev, layout) = setup();
        let op = OpSession::unguarded(SubCtx { dev: &dev, layout: &layout, sub: 0 }).unwrap();
        let a = add(&op, 0, 64, state::FREE);
        add(&op, 64, 64, state::FREE);
        assert!(merge_cascade(&op, a).unwrap() > 0);
        let (_, merged) = hashtable::lookup(&op, 0).unwrap().unwrap();
        assert_eq!(merged.size, 128);
        assert_eq!(merged.state, state::FREE);
        assert!(hashtable::lookup(&op, 64).unwrap().is_none());
        // It sits in the 128-byte list now.
        let (c128, _) = class_for_size(128).unwrap();
        assert_eq!(buddy::collect(&op, c128).unwrap().len(), 1);
        let (c64, _) = class_for_size(64).unwrap();
        assert!(buddy::collect(&op, c64).unwrap().is_empty());
    }

    #[test]
    fn merge_cascades_upward() {
        let (dev, layout) = setup();
        let op = OpSession::unguarded(SubCtx { dev: &dev, layout: &layout, sub: 0 }).unwrap();
        // Four free 64 B blocks covering [0, 256): cascade to one 256 B.
        let a = add(&op, 0, 64, state::FREE);
        add(&op, 64, 64, state::FREE);
        add(&op, 128, 64, state::FREE);
        add(&op, 192, 64, state::FREE);
        // First cascade: 0+64 -> 128-size block at 0; buddy at 128 is only
        // 64 bytes, so the cascade pauses there.
        merge_cascade(&op, a).unwrap();
        // Merge the right pair too, then cascade again.
        let (right_off, _) = hashtable::lookup(&op, 128).unwrap().unwrap();
        merge_cascade(&op, right_off).unwrap();
        let (_, merged) = hashtable::lookup(&op, 0).unwrap().unwrap();
        assert_eq!(merged.size, 256);
    }

    #[test]
    fn allocated_or_mismatched_buddies_do_not_merge() {
        let (dev, layout) = setup();
        let op = OpSession::unguarded(SubCtx { dev: &dev, layout: &layout, sub: 0 }).unwrap();
        let a = add(&op, 0, 64, state::FREE);
        add(&op, 64, 64, state::ALLOC);
        assert_eq!(merge_cascade(&op, a).unwrap(), 0);
        // Different size: 128 at offset 128 is not the buddy of 64 at 0.
        let b = add(&op, 256, 64, state::FREE);
        add(&op, 320, 128, state::FREE); // overlapping nonsense aside, sizes differ
        assert_eq!(merge_cascade(&op, b).unwrap(), 0);
    }

    #[test]
    fn merge_all_below_assembles_larger_blocks() {
        let (dev, layout) = setup();
        let op = OpSession::unguarded(SubCtx { dev: &dev, layout: &layout, sub: 0 }).unwrap();
        for i in 0..8 {
            add(&op, i * 64, 64, state::FREE);
        }
        let (c512, _) = class_for_size(512).unwrap();
        assert!(buddy::head(&op, c512).unwrap() == 0);
        let (merges, bytes) = merge_all_below(&op, c512, u64::MAX).unwrap();
        // 4 + 2 + 1 merges, leaving blocks of 128, 128, 128, 128, 256,
        // 256 and 512 bytes.
        assert_eq!((merges, bytes), (7, 4 * 128 + 2 * 256 + 512));
        let (_, big) = hashtable::lookup(&op, 0).unwrap().unwrap();
        assert_eq!(big.size, 512);
        assert_ne!(buddy::head(&op, c512).unwrap(), 0);
    }

    #[test]
    fn merge_all_below_stops_at_its_budget() {
        let (dev, layout) = setup();
        let op = OpSession::unguarded(SubCtx { dev: &dev, layout: &layout, sub: 0 }).unwrap();
        for i in 0..8 {
            add(&op, i * 64, 64, state::FREE);
        }
        let (c512, _) = class_for_size(512).unwrap();
        assert_eq!(merge_all_below(&op, c512, 0).unwrap(), (0, 0));
        // Two merges pair [0, 128) and [128, 256) into 128-byte blocks
        // (the first cannot cascade yet), then the budget ends.
        assert_eq!(merge_all_below(&op, c512, 2).unwrap(), (2, 128 + 128));
        // The rest finishes the job: the three merges the budget left.
        assert_eq!(merge_all_below(&op, c512, u64::MAX).unwrap().0, 5);
        let (_, big) = hashtable::lookup(&op, 0).unwrap().unwrap();
        assert_eq!(big.size, 512);
    }

    #[test]
    fn compact_windows_merges_only_window_blocks() {
        let (dev, layout) = setup();
        let op = OpSession::unguarded(SubCtx { dev: &dev, layout: &layout, sub: 0 }).unwrap();
        let _ = add(&op, 0, 64, state::FREE);
        add(&op, 64, 64, state::FREE);
        // Compacting around key 0 must at least merge the [0,128) pair if
        // it sits in the window.
        compact_windows(&op, 0).unwrap();
        let (_, e) = hashtable::lookup(&op, 0).unwrap().unwrap();
        assert_eq!(e.size, 128);
    }

    #[test]
    fn adjacent_same_class_list_neighbours_merge_safely() {
        // The survivor and loser are adjacent in the same free list — the
        // reload-after-unlink path must handle their link updates.
        let (dev, layout) = setup();
        let op = OpSession::unguarded(SubCtx { dev: &dev, layout: &layout, sub: 0 }).unwrap();
        let a = add(&op, 0, 64, state::FREE);
        let b = add(&op, 64, 64, state::FREE);
        let (c64, _) = class_for_size(64).unwrap();
        assert_eq!(buddy::collect(&op, c64).unwrap(), vec![a, b]);
        assert!(merge_cascade(&op, a).unwrap() > 0);
        assert!(buddy::collect(&op, c64).unwrap().is_empty());
    }
}
