//! Operation sessions: validate once per operation, not once per word.
//!
//! Every allocator operation used to thread a bare [`SubCtx`] through the
//! sub-heap modules, and each of the ~30 `read_pod`/`write_pod` call
//! sites independently re-ran the device's full validation sequence
//! (bounds, MPK page walk, poison lookup) and bumped shared stats
//! counters — all *inside* the sub-heap lock. An [`OpSession`] hoists
//! that to operation granularity: it owns everything one operation needs
//! —
//!
//! * the region context (geometry) — a sub-heap's [`SubCtx`] or the
//!   huge region's [`HugeCtx`] ([`HugeOp`]),
//! * a [`MetaView`] over the region's metadata, validated **once** at
//!   construction ([`pmem::PmemDevice::map_meta`]),
//! * the staged-write overlay of the operation's open [`UndoScope`]
//!   (reads through the session observe the operation's own
//!   not-yet-issued stores, at one lookup per line read once the scope
//!   has staged more than a few writes — see `undo`'s module docs),
//! * and, when built by the heap's entry points, the region lock guard
//!   and the PKRU write guard. A sub-heap lock guards the sub-heap's DRAM
//!   [`RecordIndex`], so only a session holding the lock reaches it; a
//!   scope that rolls back drops it (see `hashtable`).
//!
//! All metadata word traffic in `buddy`/`hashtable`/`microlog`/`defrag`/
//! `subheap`/`hugeregion` flows through the view, whose accessors cost a
//! local bounds check (plus a relaxed poison probe on reads) instead of
//! the full per-call sequence. Crash semantics are unchanged: the view
//! still captures every pre-image into the crash model and counts every
//! mutation against armed crash/poison injection (see `pmem::view`).
//!
//! [`OpSession::undo`] opens the operation's [`UndoScope`] on the view —
//! the same writer the superblock drives on the device's unmapped view —
//! so an operation interrupted by a crash is recovered by the ordinary
//! [`undo::replay`](crate::undo::replay) on the next load.
//! Dropping a scope without committing rolls back immediately, so an
//! early `?` return leaves the heap untouched.

use std::cell::RefCell;

use mpk::PkruGuard;
use pmem::contention::TrackedGuard;
use pmem::{AccessKind, MetaView, PmemDevice};

use crate::error::Result;
use crate::hashtable::RecordIndex;
use crate::layout::HUGE_META_SIZE;
use crate::persist::{ExtentRecord, HashEntry, HugeCtx, SubCtx};
use crate::undo::{StagedWrites, UndoArea, UndoScope};

/// What a session needs from its region context: the device, the
/// metadata range to map, the undo-log area, and what the region lock
/// guards.
pub(crate) trait MetaRegion<'a>: Copy {
    /// The payload of the region's lock.
    type Payload;

    fn dev(&self) -> &'a PmemDevice;

    /// `(base, len)` of the metadata a session maps.
    fn meta_range(&self) -> (u64, u64);

    fn undo_area(&self) -> UndoArea;

    /// The DRAM record index in the lock payload, if any — dropped when
    /// a scope rolls back.
    fn index(payload: &Self::Payload) -> Option<&RefCell<RecordIndex>>;
}

impl<'a> MetaRegion<'a> for SubCtx<'a> {
    type Payload = RefCell<RecordIndex>;

    fn dev(&self) -> &'a PmemDevice {
        self.dev
    }

    fn meta_range(&self) -> (u64, u64) {
        (self.meta_base(), self.layout.meta_size)
    }

    fn undo_area(&self) -> UndoArea {
        SubCtx::undo_area(self)
    }

    fn index(payload: &RefCell<RecordIndex>) -> Option<&RefCell<RecordIndex>> {
        Some(payload)
    }
}

impl<'a> MetaRegion<'a> for HugeCtx<'a> {
    type Payload = ();

    fn dev(&self) -> &'a PmemDevice {
        self.dev
    }

    fn meta_range(&self) -> (u64, u64) {
        debug_assert!(self.layout.huge_data_size() > 0, "no huge region on this layout");
        (self.meta_base(), HUGE_META_SIZE)
    }

    fn undo_area(&self) -> UndoArea {
        HugeCtx::undo_area(self)
    }

    fn index(_: &()) -> Option<&RefCell<RecordIndex>> {
        None
    }
}

/// One allocator operation's session on one metadata region — a
/// sub-heap by default. See the [module docs](self).
#[derive(Debug)]
pub(crate) struct OpSession<'a, C: MetaRegion<'a> = SubCtx<'a>> {
    /// The region context (device, geometry). Rare non-word device
    /// operations (hole punching, NUMA placement, poison queries) go
    /// through `ctx.dev` directly and re-validate per call.
    pub(crate) ctx: C,
    view: MetaView<'a>,
    /// Target writes staged by the open [`UndoScope`] (empty outside a
    /// scope). Held here, not in the scope, so the session's read
    /// accessors can patch them over view reads.
    staged: RefCell<StagedWrites>,
    // Field order is drop order: the view flushes its stats deltas while
    // the region lock is still held, then the lock is released, then
    // write access to metadata is revoked.
    lock: Option<TrackedGuard<'a, C::Payload>>,
    _pkru: Option<PkruGuard<'a>>,
}

/// A session on the huge region's extent table.
pub(crate) type HugeOp<'a> = OpSession<'a, HugeCtx<'a>>;

impl<'a, C: MetaRegion<'a>> OpSession<'a, C> {
    fn map(
        ctx: C,
        (base, len): (u64, u64),
        kind: AccessKind,
        lock: Option<TrackedGuard<'a, C::Payload>>,
        pkru: Option<PkruGuard<'a>>,
    ) -> Result<OpSession<'a, C>> {
        let view = ctx.dev().map_meta(base, len, kind)?;
        Ok(OpSession { ctx, view, staged: RefCell::default(), lock, _pkru: pkru })
    }

    /// A write session owning the region lock guard and (when metadata
    /// protection is on) the PKRU write guard — the heap entry points'
    /// constructor.
    pub fn guarded(
        ctx: C,
        lock: TrackedGuard<'a, C::Payload>,
        pkru: Option<PkruGuard<'a>>,
    ) -> Result<OpSession<'a, C>> {
        Self::map(ctx, ctx.meta_range(), AccessKind::Write, Some(lock), pkru)
    }

    /// A write session without guards, for callers that already hold them
    /// (creation, formatting, recovery) and for module tests.
    pub fn unguarded(ctx: C) -> Result<OpSession<'a, C>> {
        Self::map(ctx, ctx.meta_range(), AccessKind::Write, None, None)
    }

    /// A read-only session holding the region lock but no PKRU grant —
    /// metadata pages are readable under their resting `ReadOnly` rights,
    /// so lookups and audits never pay a `wrpkru` pair.
    pub fn read_only(ctx: C, lock: TrackedGuard<'a, C::Payload>) -> Result<OpSession<'a, C>> {
        Self::map(ctx, ctx.meta_range(), AccessKind::Read, Some(lock), None)
    }

    /// The metadata view (accessors take absolute device offsets).
    ///
    /// Direct `view().read…` calls bypass the staged-write overlay; use
    /// the session's own read accessors for anything an open
    /// [`UndoScope`] may have written.
    pub fn view(&self) -> &MetaView<'a> {
        &self.view
    }

    /// Reads `buf.len()` bytes at `offset` through the view, patched
    /// with the open scope's staged writes.
    pub fn read(&self, offset: u64, buf: &mut [u8]) -> Result<()> {
        self.view.read(offset, buf)?;
        self.staged.borrow().patch(offset, buf);
        Ok(())
    }

    /// Reads a [`pmem::Pod`] value through the view (overlay-patched).
    pub fn read_pod<T: pmem::Pod>(&self, offset: u64) -> Result<T> {
        let mut value = T::zeroed();
        self.read(offset, value.as_bytes_mut())?;
        Ok(value)
    }

    /// Opens an undo scope on the region's log area. A guarded session
    /// provably owns the region lock, so the scope re-drives a rollback
    /// that died mid-flight; an unguarded session cannot rule out a
    /// concurrent writer and stays strict (see [`UndoScope::begin`]).
    ///
    /// # Errors
    ///
    /// As for [`UndoScope::begin`].
    pub fn undo(&self) -> Result<UndoScope<'_>> {
        let index = self.lock.as_deref().and_then(C::index);
        UndoScope::begin(&self.view, &self.staged, self.ctx.undo_area(), self.lock.is_some(), index)
    }
}

impl OpSession<'_> {
    /// The sub-heap's record index, reachable through the lock guard —
    /// `None` for unguarded sessions, which probe the table instead.
    pub fn index(&self) -> Option<&RefCell<RecordIndex>> {
        self.lock.as_deref()
    }

    /// Reads the block record at device offset `entry_off`.
    pub fn entry(&self, entry_off: u64) -> Result<HashEntry> {
        self.read_pod(entry_off)
    }

    /// Reads the number of active hash-table levels.
    pub fn active_levels(&self) -> Result<u64> {
        self.read_pod(self.ctx.active_levels_off())
    }
}

impl<'a> HugeOp<'a> {
    /// A write session whose view *spans* from sub-heap `sub`'s metadata
    /// up to the end of the huge metadata — used by transactional huge
    /// allocation, which must log the extent writes and the sub-heap's
    /// micro-log append in **one** undo scope (the undo log stores
    /// absolute targets, so replay on the unmapped view restores both).
    ///
    /// # Errors
    ///
    /// [`PoseidonError::MediaError`](crate::PoseidonError::MediaError) if
    /// any metadata page in the span is poisoned — including an unrelated
    /// sub-heap's between `sub` and the huge metadata. Transactional huge
    /// allocation degrades in that (already-quarantined) situation; plain
    /// huge allocation does not.
    pub fn spanning(
        ctx: HugeCtx<'a>,
        sub: u16,
        lock: TrackedGuard<'a, ()>,
        pkru: Option<PkruGuard<'a>>,
    ) -> Result<HugeOp<'a>> {
        let base = ctx.layout.meta_base(sub);
        Self::map(ctx, (base, ctx.layout.meta_end() - base), AccessKind::Write, Some(lock), pkru)
    }

    /// Reads extent-table slot `slot` (overlay-patched).
    pub fn slot(&self, slot: usize) -> Result<ExtentRecord> {
        self.read_pod(self.ctx.slot_off(slot))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::PoseidonError;
    use crate::layout::HeapLayout;
    use crate::undo;
    use pmem::{CrashMode, DeviceConfig, TrackedMutex};

    fn setup() -> (PmemDevice, HeapLayout) {
        let layout = HeapLayout::compute(64 << 20, 2).unwrap();
        let dev = PmemDevice::new(DeviceConfig::new(64 << 20));
        (dev, layout)
    }

    fn target_off(layout: &HeapLayout) -> u64 {
        // An arbitrary metadata word inside sub-heap 0's table area.
        layout.level_base(0, 0) + 256
    }

    #[test]
    fn one_validation_per_session_many_accesses() {
        let (dev, layout) = setup();
        let before = dev.stats();
        {
            let ctx = SubCtx { dev: &dev, layout: &layout, sub: 0 };
            let op = OpSession::unguarded(ctx).unwrap();
            let mut scope = op.undo().unwrap();
            for i in 0..16u64 {
                scope.log_and_write_pod(target_off(&layout) + i * 8, &(i + 1)).unwrap();
            }
            // Staged: the raw view misses the stores, the session's
            // overlay-patched reads see them.
            assert_eq!(op.view().read_pod::<u64>(target_off(&layout)).unwrap(), 0);
            assert_eq!(op.read_pod::<u64>(target_off(&layout)).unwrap(), 1);
            scope.commit().unwrap();
        }
        let after = dev.stats();
        // One map_meta validation; every logged word went through the view.
        assert_eq!(after.validations - before.validations, 1);
        assert_eq!(after.meta_maps - before.meta_maps, 1);
        assert!(after.write_ops - before.write_ops >= 32, "16 entries + 16 targets at least");
    }

    #[test]
    fn crashed_scope_is_replayed_by_device_backed_recovery() {
        // The interoperability contract: entries written through the mapped
        // view must be read back by replay on the *unmapped* view after a
        // crash.
        let (dev, layout) = setup();
        let ctx = SubCtx { dev: &dev, layout: &layout, sub: 0 };
        let target = target_off(&layout);
        dev.write_pod(target, &1u64).unwrap();
        dev.persist(target, 8).unwrap();
        {
            let op = OpSession::unguarded(ctx).unwrap();
            let mut scope = op.undo().unwrap();
            scope.log_and_write_pod(target, &2u64).unwrap();
            // Crash mid-commit, right after fence #1 (entry write +
            // entry-line clwb + fence): the entry is durable through the
            // view, the target store was never issued.
            dev.arm_crash_after(3);
            assert!(scope.commit().is_err());
        }
        dev.simulate_crash(CrashMode::Strict, 3);
        assert!(undo::replay(&dev, ctx.undo_area()).unwrap());
        assert_eq!(dev.read_pod::<u64>(target).unwrap(), 1);
    }

    #[test]
    fn guarded_sessions_redrive_a_stale_rollback() {
        // A rollback that died mid-flight (here: the device failed under
        // it) leaves the log live. A session holding the region lock
        // finishes it when it opens its next scope; an unguarded one
        // cannot rule out a concurrent writer and refuses.
        let (dev, layout) = setup();
        let ctx = SubCtx { dev: &dev, layout: &layout, sub: 0 };
        let target = target_off(&layout);
        {
            let op = OpSession::unguarded(ctx).unwrap();
            let mut scope = op.undo().unwrap();
            scope.log_and_write_pod(target, &2u64).unwrap();
            dev.arm_crash_after(3);
            assert!(scope.commit().is_err()); // its rollback fails too
        }
        dev.clear_crash();
        let op = OpSession::unguarded(ctx).unwrap();
        assert!(matches!(op.undo(), Err(PoseidonError::Corrupted(_))));
        drop(op);

        let lock = TrackedMutex::new(RefCell::new(RecordIndex::default()));
        let op = OpSession::guarded(ctx, lock.lock(), None).unwrap();
        op.undo().unwrap().commit().unwrap();
        assert_eq!(op.read_pod::<u64>(target).unwrap(), 0);
        assert!(!undo::replay(&dev, ctx.undo_area()).unwrap());
    }

    #[test]
    fn device_backed_scope_blocks_session_scope_and_vice_versa() {
        // Both view modes share one log area and generation: a crashed
        // scope on the unmapped view must block a session's scope until
        // recovery, and vice versa, whichever side wrote the entries.
        let (dev, layout) = setup();
        let ctx = SubCtx { dev: &dev, layout: &layout, sub: 0 };
        let target = target_off(&layout);
        let unmapped = dev.unmapped_view();
        let staged = RefCell::default();
        let mut s = UndoScope::begin(&unmapped, &staged, ctx.undo_area(), false, None).unwrap();
        s.log_and_write_pod(target, &7u64).unwrap();
        std::mem::forget(s);
        let op = OpSession::unguarded(ctx).unwrap();
        assert!(matches!(op.undo(), Err(PoseidonError::Corrupted(_))));
        drop(op);
        undo::replay(&dev, ctx.undo_area()).unwrap();

        let op = OpSession::unguarded(ctx).unwrap();
        let mut scope = op.undo().unwrap();
        scope.log_and_write_pod(target, &8u64).unwrap();
        std::mem::forget(scope);
        let staged = RefCell::default();
        assert!(matches!(
            UndoScope::begin(&unmapped, &staged, ctx.undo_area(), false, None),
            Err(PoseidonError::Corrupted(_))
        ));
        drop(op);
        undo::replay(&dev, ctx.undo_area()).unwrap();
        let op = OpSession::unguarded(ctx).unwrap();
        op.undo().unwrap().commit().unwrap();
    }
}
