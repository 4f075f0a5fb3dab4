//! The micro log: transactional-allocation history (§4.5, §5.3).
//!
//! `tx_alloc` appends each allocated pointer to a micro-log *slot*
//! claimed by the transaction (the paper's per-thread micro log),
//! through the same undo scope as the allocation — so an aborted
//! allocation also reverts its log entry. Committing truncates the slot
//! with a single atomic count reset. On recovery, a non-empty slot means
//! its transaction never committed: every logged address is freed,
//! preventing a persistent leak. Slots make concurrent transactions on
//! one sub-heap independent: each commits or aborts only its own log.

use crate::error::{PoseidonError, Result};
use crate::layout::{MICRO_LOG_CAPACITY, MICRO_SLOTS};
use crate::nvmptr::NvmPtr;
use crate::session::OpSession;
use crate::undo::UndoScope;

/// Number of pointers currently logged in `slot`.
pub(crate) fn count(op: &OpSession<'_>, slot: usize) -> Result<u64> {
    op.read_pod(op.ctx.micro_count_off(slot))
}

/// Appends `ptr` to `slot` through the open undo scope.
///
/// # Errors
///
/// [`PoseidonError::TxTooLarge`] if the slot is full.
pub(crate) fn append(op: &OpSession<'_>, scope: &mut UndoScope<'_>, slot: usize, ptr: NvmPtr) -> Result<()> {
    let n = count(op, slot)?;
    if n as usize >= MICRO_LOG_CAPACITY {
        return Err(PoseidonError::TxTooLarge { max: MICRO_LOG_CAPACITY });
    }
    scope.log_and_write_pod(op.ctx.micro_entry_off(slot, n), &ptr)?;
    scope.log_and_write_pod(op.ctx.micro_count_off(slot), &(n + 1))
}

/// Truncates `slot` — the transaction's commit point. A single 8-byte
/// persisted store, hence atomic, and local to this transaction.
pub(crate) fn truncate(op: &OpSession<'_>, slot: usize) -> Result<()> {
    op.view().write_pod(op.ctx.micro_count_off(slot), &0u64)?;
    op.view().persist(op.ctx.micro_count_off(slot), 8)?;
    Ok(())
}

/// Reads all logged pointers of `slot` (for recovery/abort).
pub(crate) fn entries(op: &OpSession<'_>, slot: usize) -> Result<Vec<NvmPtr>> {
    let n = count(op, slot)?;
    if n as usize > MICRO_LOG_CAPACITY {
        return Err(PoseidonError::Corrupted("micro log count beyond capacity"));
    }
    (0..n).map(|i| op.read_pod(op.ctx.micro_entry_off(slot, i))).collect()
}

/// Device-backed twin of [`entries`] for the offline repair pass, which
/// deliberately runs without a session (see `repair.rs`).
pub(crate) fn entries_direct(ctx: &crate::persist::SubCtx<'_>, slot: usize) -> Result<Vec<NvmPtr>> {
    let n: u64 = ctx.dev.read_pod(ctx.micro_count_off(slot))?;
    if n as usize > MICRO_LOG_CAPACITY {
        return Err(PoseidonError::Corrupted("micro log count beyond capacity"));
    }
    (0..n).map(|i| Ok(ctx.dev.read_pod(ctx.micro_entry_off(slot, i))?)).collect()
}

/// Iterates every slot (for recovery).
pub(crate) fn all_slots() -> std::ops::Range<usize> {
    0..MICRO_SLOTS
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
        (dev, layout)
    }

    #[test]
    fn append_read_truncate_per_slot() {
        let (dev, layout) = setup();
        let op = OpSession::unguarded(SubCtx { dev: &dev, layout: &layout, sub: 0 }).unwrap();
        let mut s = op.undo().unwrap();
        append(&op, &mut s, 3, NvmPtr::new(9, 0, 64)).unwrap();
        append(&op, &mut s, 3, NvmPtr::new(9, 0, 128)).unwrap();
        append(&op, &mut s, 7, NvmPtr::new(9, 0, 256)).unwrap();
        s.commit().unwrap();
        assert_eq!(count(&op, 3).unwrap(), 2);
        assert_eq!(count(&op, 7).unwrap(), 1);
        assert_eq!(entries(&op, 3).unwrap()[1].offset(), 128);
        // Truncating one slot leaves the other intact.
        truncate(&op, 3).unwrap();
        assert_eq!(count(&op, 3).unwrap(), 0);
        assert_eq!(count(&op, 7).unwrap(), 1);
    }

    #[test]
    fn aborted_scope_reverts_appends() {
        let (dev, layout) = setup();
        let op = OpSession::unguarded(SubCtx { dev: &dev, layout: &layout, sub: 0 }).unwrap();
        let mut s = op.undo().unwrap();
        append(&op, &mut s, 0, NvmPtr::new(9, 0, 64)).unwrap();
        s.abort().unwrap();
        assert_eq!(count(&op, 0).unwrap(), 0);
    }

    #[test]
    fn capacity_is_enforced() {
        let (dev, layout) = setup();
        let op = OpSession::unguarded(SubCtx { dev: &dev, layout: &layout, sub: 0 }).unwrap();
        dev.write_pod(op.ctx.micro_count_off(5), &(MICRO_LOG_CAPACITY as u64)).unwrap();
        let mut s = op.undo().unwrap();
        let r = append(&op, &mut s, 5, NvmPtr::new(9, 0, 64));
        assert!(matches!(r, Err(PoseidonError::TxTooLarge { .. })));
        drop(s);
    }

    #[test]
    fn corrupt_count_is_detected() {
        let (dev, layout) = setup();
        let op = OpSession::unguarded(SubCtx { dev: &dev, layout: &layout, sub: 0 }).unwrap();
        dev.write_pod(op.ctx.micro_count_off(2), &u64::MAX).unwrap();
        assert!(matches!(entries(&op, 2), Err(PoseidonError::Corrupted(_))));
    }

    #[test]
    fn slots_do_not_overlap() {
        let (dev, layout) = setup();
        let ctx = SubCtx { dev: &dev, layout: &layout, sub: 0 };
        let last = MICRO_SLOTS - 1;
        assert!(
            ctx.micro_entry_off(last, MICRO_LOG_CAPACITY as u64 - 1) + 16
                <= ctx.meta_base() + crate::layout::SH_TABLE_OFF
        );
        for slot in 0..MICRO_SLOTS - 1 {
            assert!(
                ctx.micro_entry_off(slot, MICRO_LOG_CAPACITY as u64 - 1) + 16
                    <= ctx.micro_count_off(slot + 1)
            );
        }
    }
}
