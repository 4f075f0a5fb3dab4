//! Buddy free lists (§5.2, §5.5).
//!
//! Each sub-heap keeps one doubly-linked list of free blocks per
//! power-of-two size class, threaded through the `next_free`/`prev_free`
//! fields of the blocks' hash-table records (so the lists are persistent
//! and recoverable, with no volatile mirror to rebuild — unlike PMDK's
//! DRAM free-list, whose re-scan the paper identifies as a scalability
//! bottleneck, §3.3). Freed blocks are appended at the *tail* to delay
//! reuse of just-freed memory (§5.5).

use crate::error::{PoseidonError, Result};
use crate::hashtable;
use crate::layout::{class_for_size, NUM_CLASSES};
use crate::persist::{state, HashEntry};
use crate::session::OpSession;
use crate::undo::UndoScope;

/// Appends the FREE record at `rec_off` to the tail of its size class's
/// list, writing the record (with fresh links) and the list pointers
/// through the scope.
pub(crate) fn push_tail(
    op: &OpSession<'_>,
    scope: &mut UndoScope<'_>,
    rec_off: u64,
    rec: &mut HashEntry,
) -> Result<()> {
    debug_assert_eq!(rec.state, state::FREE);
    let (class, _) = class_for_size(rec.size)?;
    let tail_field = op.ctx.buddy_tail_off(class);
    let head_field = op.ctx.buddy_head_off(class);
    let tail: u64 = op.read_pod(tail_field)?;
    rec.next_free = 0;
    rec.prev_free = tail;
    hashtable::write_entry(scope, rec_off, rec)?;
    if tail == 0 {
        scope.log_and_write_pod(head_field, &rec_off)?;
    } else {
        let mut prev = op.entry(tail)?;
        prev.next_free = rec_off;
        hashtable::write_entry(scope, tail, &prev)?;
    }
    scope.log_and_write_pod(tail_field, &rec_off)
}

/// Unlinks the record at `rec_off` from its size class's list. The
/// record itself is *not* rewritten (callers always rewrite it right
/// after, as allocated, merged, or re-linked).
pub(crate) fn unlink(
    op: &OpSession<'_>,
    scope: &mut UndoScope<'_>,
    rec_off: u64,
    rec: &HashEntry,
) -> Result<()> {
    let (class, _) = class_for_size(rec.size)?;
    if rec.prev_free != 0 {
        let mut prev = op.entry(rec.prev_free)?;
        if prev.next_free != rec_off {
            return Err(PoseidonError::Corrupted("buddy list backlink mismatch"));
        }
        prev.next_free = rec.next_free;
        hashtable::write_entry(scope, rec.prev_free, &prev)?;
    } else {
        scope.log_and_write_pod(op.ctx.buddy_head_off(class), &rec.next_free)?;
    }
    if rec.next_free != 0 {
        let mut next = op.entry(rec.next_free)?;
        if next.prev_free != rec_off {
            return Err(PoseidonError::Corrupted("buddy list forward-link mismatch"));
        }
        next.prev_free = rec.prev_free;
        hashtable::write_entry(scope, rec.next_free, &next)?;
    } else {
        scope.log_and_write_pod(op.ctx.buddy_tail_off(class), &rec.prev_free)?;
    }
    Ok(())
}

/// Returns the head record offset of class `class` (0 = empty list).
pub(crate) fn head(op: &OpSession<'_>, class: usize) -> Result<u64> {
    op.read_pod(op.ctx.buddy_head_off(class))
}

/// Finds the smallest class `>= class` with a non-empty free list.
pub(crate) fn first_class_at_least(op: &OpSession<'_>, class: usize) -> Result<Option<usize>> {
    for k in class..NUM_CLASSES {
        if head(op, k)? != 0 {
            return Ok(Some(k));
        }
    }
    Ok(None)
}

/// Collects the record offsets currently in class `class`'s list
/// (a snapshot; the list may be mutated afterwards).
pub(crate) fn collect(op: &OpSession<'_>, class: usize) -> Result<Vec<u64>> {
    let mut offs = Vec::new();
    let mut cursor = head(op, class)?;
    while cursor != 0 {
        offs.push(cursor);
        if offs.len() > (1 << 28) {
            return Err(PoseidonError::Corrupted("buddy list cycle"));
        }
        cursor = op.entry(cursor)?.next_free;
    }
    Ok(offs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::HeapLayout;
    use crate::persist::SubCtx;
    use pmem::{DeviceConfig, PmemDevice};

    fn setup() -> (PmemDevice, HeapLayout) {
        let layout = HeapLayout::compute(64 << 20, 2).unwrap();
        let dev = PmemDevice::new(DeviceConfig::new(64 << 20));
        let ctx = SubCtx { dev: &dev, layout: &layout, sub: 0 };
        dev.write_pod(ctx.active_levels_off(), &1u64).unwrap();
        (dev, layout)
    }

    /// Inserts a FREE record of `size` at user offset `off` and links it.
    fn add_free(op: &OpSession<'_>, off: u64, size: u64) -> u64 {
        let mut s = op.undo().unwrap();
        let mut rec = HashEntry { offset: off, size, state: state::FREE, ..Default::default() };
        let rec_off = hashtable::insert(op, &mut s, rec, false).unwrap();
        push_tail(op, &mut s, rec_off, &mut rec).unwrap();
        s.commit().unwrap();
        rec_off
    }

    #[test]
    fn fifo_order_per_class() {
        let (dev, layout) = setup();
        let op = OpSession::unguarded(SubCtx { dev: &dev, layout: &layout, sub: 0 }).unwrap();
        let a = add_free(&op, 0, 64);
        let b = add_free(&op, 64, 64);
        let c = add_free(&op, 128, 64);
        let (class, _) = class_for_size(64).unwrap();
        assert_eq!(collect(&op, class).unwrap(), vec![a, b, c]);
        assert_eq!(head(&op, class).unwrap(), a);
    }

    #[test]
    fn different_sizes_land_in_different_classes() {
        let (dev, layout) = setup();
        let op = OpSession::unguarded(SubCtx { dev: &dev, layout: &layout, sub: 0 }).unwrap();
        add_free(&op, 0, 64);
        add_free(&op, 4096, 4096);
        assert_eq!(collect(&op, class_for_size(64).unwrap().0).unwrap().len(), 1);
        assert_eq!(collect(&op, class_for_size(4096).unwrap().0).unwrap().len(), 1);
        assert_eq!(first_class_at_least(&op, 0).unwrap(), Some(1)); // 64 B = class 1
        assert_eq!(first_class_at_least(&op, 2).unwrap(), Some(7)); // 4 KiB = class 7
        assert_eq!(first_class_at_least(&op, 8).unwrap(), None);
    }

    #[test]
    fn unlink_middle_head_and_tail() {
        let (dev, layout) = setup();
        let op = OpSession::unguarded(SubCtx { dev: &dev, layout: &layout, sub: 0 }).unwrap();
        let a = add_free(&op, 0, 64);
        let b = add_free(&op, 64, 64);
        let c = add_free(&op, 128, 64);
        let (class, _) = class_for_size(64).unwrap();

        // Middle.
        let mut s = op.undo().unwrap();
        let rec = op.entry(b).unwrap();
        unlink(&op, &mut s, b, &rec).unwrap();
        s.commit().unwrap();
        assert_eq!(collect(&op, class).unwrap(), vec![a, c]);

        // Head.
        let mut s = op.undo().unwrap();
        let rec = op.entry(a).unwrap();
        unlink(&op, &mut s, a, &rec).unwrap();
        s.commit().unwrap();
        assert_eq!(collect(&op, class).unwrap(), vec![c]);

        // Tail == head (last element).
        let mut s = op.undo().unwrap();
        let rec = op.entry(c).unwrap();
        unlink(&op, &mut s, c, &rec).unwrap();
        s.commit().unwrap();
        assert_eq!(collect(&op, class).unwrap(), Vec::<u64>::new());
        assert_eq!(dev.read_pod::<u64>(op.ctx.buddy_tail_off(class)).unwrap(), 0);
        assert_eq!(dev.read_pod::<u64>(op.ctx.buddy_head_off(class)).unwrap(), 0);
    }

    #[test]
    fn corrupt_links_are_detected() {
        let (dev, layout) = setup();
        let op = OpSession::unguarded(SubCtx { dev: &dev, layout: &layout, sub: 0 }).unwrap();
        let a = add_free(&op, 0, 64);
        let b = add_free(&op, 64, 64);
        // Claim b's prev is a dangling record that doesn't point back.
        let mut rec = op.entry(b).unwrap();
        rec.prev_free = a;
        dev.write_pod(b, &rec).unwrap();
        let mut a_rec = op.entry(a).unwrap();
        a_rec.next_free = 0;
        dev.write_pod(a, &a_rec).unwrap();
        let mut s = op.undo().unwrap();
        let rec = op.entry(b).unwrap();
        let r = unlink(&op, &mut s, b, &rec);
        assert!(matches!(r, Err(PoseidonError::Corrupted(_))));
        drop(s);
    }
}
