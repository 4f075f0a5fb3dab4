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
//! * the sub-heap context (geometry),
//! * a [`MetaView`] over the sub-heap's metadata region, validated
//!   **once** at construction ([`pmem::PmemDevice::map_meta`]),
//! * the staged-write overlay of the operation's open [`UndoScope`]
//!   (reads through the session observe the operation's own
//!   not-yet-issued stores — see `undo`'s module docs),
//! * and, when built by the heap's entry points, the sub-heap lock guard
//!   and the PKRU write guard. The lock guards the sub-heap's DRAM
//!   [`RecordIndex`], so only a session holding the lock reaches it; a
//!   scope that rolls back drops it (see `hashtable`).
//!
//! All metadata word traffic in `buddy`/`hashtable`/`microlog`/`defrag`/
//! `subheap` flows through the view, whose accessors cost a local bounds
//! check (plus a relaxed poison probe on reads) instead of the full
//! per-call sequence. Crash semantics are unchanged: the view still
//! captures every pre-image into the crash model and counts every
//! mutation against armed crash/poison injection (see `pmem::view`).
//!
//! [`UndoScope`] is the session-local undo-log writer: a
//! [`LogCore`](crate::undo) driving the session's [`MetaView`]. It is
//! byte-*identical* with the device-backed [`UndoSession`] — one shared
//! implementation, not a transcribed twin — so an operation interrupted
//! by a crash is recovered by the ordinary device-backed
//! [`undo::replay`] on the next load. Dropping a scope without
//! committing rolls back immediately, so an early `?` return leaves the
//! heap untouched.
//!
//! [`UndoSession`]: crate::undo::UndoSession

use std::cell::RefCell;

use mpk::PkruGuard;
use pmem::contention::TrackedGuard;
use pmem::{AccessKind, MetaView};

use crate::error::Result;
use crate::hashtable::RecordIndex;
use crate::persist::{HashEntry, SubCtx, SubheapHeader};
use crate::undo::{self, LogCore, StagedWrites};

/// One allocator operation's session on one sub-heap. See the
/// [module docs](self).
#[derive(Debug)]
pub(crate) struct OpSession<'a> {
    /// The sub-heap context (device, geometry, index). Rare non-word
    /// device operations (hole punching, NUMA placement, poison queries)
    /// go through `ctx.dev` directly and re-validate per call.
    pub(crate) ctx: SubCtx<'a>,
    view: MetaView<'a>,
    /// Target writes staged by the open [`UndoScope`] (empty outside a
    /// scope). Held here, not in the scope, so the session's read
    /// accessors can patch them over view reads.
    staged: RefCell<StagedWrites>,
    // Field order is drop order: the view flushes its stats deltas while
    // the sub-heap lock is still held, then the lock is released, then
    // write access to metadata is revoked.
    lock: Option<TrackedGuard<'a, RefCell<RecordIndex>>>,
    _pkru: Option<PkruGuard<'a>>,
}

impl<'a> OpSession<'a> {
    fn map(
        ctx: SubCtx<'a>,
        kind: AccessKind,
        lock: Option<TrackedGuard<'a, RefCell<RecordIndex>>>,
        pkru: Option<PkruGuard<'a>>,
    ) -> Result<OpSession<'a>> {
        let view = ctx.dev.map_meta(ctx.meta_base(), ctx.layout.meta_size, kind)?;
        Ok(OpSession { ctx, view, staged: RefCell::new(Vec::new()), lock, _pkru: pkru })
    }

    /// A write session owning the sub-heap lock guard and (when metadata
    /// protection is on) the PKRU write guard — the heap entry points'
    /// constructor.
    pub fn guarded(
        ctx: SubCtx<'a>,
        lock: TrackedGuard<'a, RefCell<RecordIndex>>,
        pkru: Option<PkruGuard<'a>>,
    ) -> Result<OpSession<'a>> {
        Self::map(ctx, AccessKind::Write, Some(lock), pkru)
    }

    /// A write session without guards, for callers that already hold them
    /// (sub-heap creation, recovery) and for module tests.
    pub fn unguarded(ctx: SubCtx<'a>) -> Result<OpSession<'a>> {
        Self::map(ctx, AccessKind::Write, None, None)
    }

    /// A read-only session holding the sub-heap lock but no PKRU grant —
    /// metadata pages are readable under their resting `ReadOnly` rights,
    /// so lookups and audits never pay a `wrpkru` pair.
    pub fn read_only(ctx: SubCtx<'a>, lock: TrackedGuard<'a, RefCell<RecordIndex>>) -> Result<OpSession<'a>> {
        Self::map(ctx, AccessKind::Read, Some(lock), None)
    }

    /// The sub-heap's record index, reachable through the lock guard —
    /// `None` for unguarded sessions, which probe the table instead.
    pub fn index(&self) -> Option<&RefCell<RecordIndex>> {
        self.lock.as_deref()
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
        undo::overlay_patch(&self.staged.borrow(), offset, buf);
        Ok(())
    }

    /// Reads a [`pmem::Pod`] value through the view (overlay-patched).
    pub fn read_pod<T: pmem::Pod>(&self, offset: u64) -> Result<T> {
        let mut value = T::zeroed();
        self.read(offset, value.as_bytes_mut())?;
        Ok(value)
    }

    /// Reads the block record at device offset `entry_off`.
    pub fn entry(&self, entry_off: u64) -> Result<HashEntry> {
        self.read_pod(entry_off)
    }

    /// Reads the number of active hash-table levels.
    pub fn active_levels(&self) -> Result<u64> {
        self.read_pod(self.ctx.active_levels_off())
    }

    /// Reads this sub-heap's header.
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn header(&self) -> Result<SubheapHeader> {
        self.read_pod(self.ctx.meta_base())
    }

    /// Opens an undo scope on this sub-heap's log area.
    ///
    /// # Errors
    ///
    /// As for [`UndoScope::begin`].
    pub fn undo(&self) -> Result<UndoScope<'_, 'a>> {
        UndoScope::begin(self)
    }
}

/// An open undo scope writing through its session's view; the in-session
/// equivalent of [`crate::undo::UndoSession`], sharing its
/// [`LogCore`](crate::undo) implementation (identical on-device format
/// and two-fence commit). Finish with [`commit`](Self::commit) or
/// [`abort`](Self::abort); dropping without committing rolls back.
#[derive(Debug)]
pub(crate) struct UndoScope<'s, 'a> {
    view: &'s MetaView<'a>,
    staged: &'s RefCell<StagedWrites>,
    core: LogCore,
    /// The session's record index, which the scope's inserts and deletes
    /// update ahead of the commit: a rollback drops it.
    index: Option<&'s RefCell<RecordIndex>>,
}

impl<'s, 'a> UndoScope<'s, 'a> {
    /// Opens a scope on `op`'s sub-heap undo area. A guarded session
    /// provably owns the sub-heap lock, so a live log can only be a
    /// rollback that died mid-flight (e.g. interrupted by a transient
    /// media fault) and is re-driven here; an unguarded session cannot
    /// rule out a concurrent writer and stays strict.
    ///
    /// # Errors
    ///
    /// [`PoseidonError::Corrupted`](crate::PoseidonError::Corrupted) if
    /// live entries from a crashed operation are present and cannot be
    /// re-driven (recovery must run first), or a device error.
    pub fn begin(op: &'s OpSession<'a>) -> Result<UndoScope<'s, 'a>> {
        let mut scope = Self::begin_raw(&op.view, &op.staged, op.ctx.undo_area(), op.lock.is_some())?;
        scope.index = op.index();
        Ok(scope)
    }

    /// Opens a scope on an arbitrary undo `area` through `view`, with
    /// staged target writes accumulating in `staged` — the constructor
    /// shared by sub-heap sessions and the huge-region session
    /// (`hugeregion::HugeOp`), which carries its own view and overlay.
    /// `holds_lock` asserts that the caller owns the area's lock, which
    /// permits re-driving a rollback that died mid-flight.
    ///
    /// # Errors
    ///
    /// As for [`begin`](Self::begin).
    pub fn begin_raw(
        view: &'s MetaView<'a>,
        staged: &'s RefCell<StagedWrites>,
        area: crate::undo::UndoArea,
        holds_lock: bool,
    ) -> Result<UndoScope<'s, 'a>> {
        debug_assert!(staged.borrow().is_empty(), "one undo scope per session at a time");
        let core =
            if holds_lock { LogCore::begin_recovering(view, area)? } else { LogCore::begin(view, area)? };
        Ok(UndoScope { view, staged, core, index: None })
    }

    /// Logs the current (overlay-visible) content of
    /// `[target, target + new.len())`, then stages `new` there. The
    /// store is issued and becomes durable at [`commit`](Self::commit);
    /// until then the session's read accessors observe it through the
    /// overlay.
    ///
    /// # Errors
    ///
    /// [`PoseidonError::Corrupted`](crate::PoseidonError::Corrupted) on
    /// log overflow, or a device error.
    pub fn log_and_write(&mut self, target: u64, new: &[u8]) -> Result<()> {
        let mut staged = self.staged.borrow_mut();
        self.core.log_and_write(self.view, &mut staged, target, new)
    }

    /// Whether one more [`log_and_write`](Self::log_and_write) of `len`
    /// bytes fits in the log area. Batch operations (cache refill/drain)
    /// size their batches with this so they commit what fits instead of
    /// dying on `"undo log overflow"`.
    pub fn has_room_for(&self, len: u64) -> bool {
        self.core.has_room_for(len)
    }

    /// [`log_and_write`](Self::log_and_write) of a [`pmem::Pod`] value.
    ///
    /// # Errors
    ///
    /// As for [`log_and_write`](Self::log_and_write).
    pub fn log_and_write_pod<T: pmem::Pod>(&mut self, target: u64, value: &T) -> Result<()> {
        self.log_and_write(target, value.as_bytes())
    }

    /// The two-fence batched commit (see `undo`'s module docs): fence
    /// the log entries, issue + fence the staged stores (lines deduped),
    /// bump the generation. Zero fences if the scope staged nothing.
    ///
    /// # Errors
    ///
    /// Device errors only.
    pub fn commit(mut self) -> Result<()> {
        let mut staged = self.staged.borrow_mut();
        self.core.commit(self.view, &mut staged)
    }

    /// Rolls the scope back: discards staged stores, restores every
    /// logged range (newest first) and invalidates the log.
    ///
    /// # Errors
    ///
    /// Device errors only.
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn abort(mut self) -> Result<()> {
        self.drop_index();
        let mut staged = self.staged.borrow_mut();
        self.core.abort(self.view, &mut staged)
    }

    /// Drops the record index: it may hold this scope's updates. Never
    /// panics (it runs in `Drop`): the index is only ever borrowed inside
    /// one `hashtable` call, so a borrow held here means a panic is
    /// already unwinding out of one.
    fn drop_index(&self) {
        if let Some(mut index) = self.index.and_then(|cell| cell.try_borrow_mut().ok()) {
            index.invalidate();
        }
    }
}

impl Drop for UndoScope<'_, '_> {
    fn drop(&mut self) {
        // A dropped-without-commit scope (e.g. an early `?` return or a
        // failed commit) must not leave half-applied metadata behind:
        // roll back best-effort. If the device has crashed, rollback fails
        // harmlessly here and recovery replays the log instead.
        if !self.core.finished() {
            self.drop_index();
        }
        let mut staged = self.staged.borrow_mut();
        self.core.drop_rollback(self.view, &mut staged);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::PoseidonError;
    use crate::layout::HeapLayout;
    use crate::undo::UndoSession;
    use pmem::{CrashMode, DeviceConfig, PmemDevice};

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
                scope.log_and_write_pod(target_off(&layout) + i * 8, &i).unwrap();
            }
            scope.commit().unwrap();
        }
        let after = dev.stats();
        // One map_meta validation; every logged word went through the view.
        assert_eq!(after.validations - before.validations, 1);
        assert_eq!(after.meta_maps - before.meta_maps, 1);
        assert!(after.write_ops - before.write_ops >= 32, "16 entries + 16 targets at least");
    }

    #[test]
    fn session_reads_observe_the_open_scope() {
        let (dev, layout) = setup();
        let ctx = SubCtx { dev: &dev, layout: &layout, sub: 0 };
        let target = target_off(&layout);
        let op = OpSession::unguarded(ctx).unwrap();
        let mut scope = op.undo().unwrap();
        scope.log_and_write_pod(target, &0x5Au64).unwrap();
        // Staged: raw view misses it, the session accessor sees it.
        assert_eq!(op.view().read_pod::<u64>(target).unwrap(), 0);
        assert_eq!(op.read_pod::<u64>(target).unwrap(), 0x5A);
        scope.commit().unwrap();
        assert_eq!(op.view().read_pod::<u64>(target).unwrap(), 0x5A);
        assert_eq!(op.read_pod::<u64>(target).unwrap(), 0x5A);
    }

    #[test]
    fn scope_commit_is_durable_and_replay_is_noop() {
        let (dev, layout) = setup();
        let ctx = SubCtx { dev: &dev, layout: &layout, sub: 0 };
        let target = target_off(&layout);
        {
            let op = OpSession::unguarded(ctx).unwrap();
            let mut scope = op.undo().unwrap();
            scope.log_and_write_pod(target, &0xAAu64).unwrap();
            scope.commit().unwrap();
        }
        dev.simulate_crash(CrashMode::Strict, 0);
        assert_eq!(dev.read_pod::<u64>(target).unwrap(), 0xAA);
        assert!(!undo::replay(&dev, ctx.undo_area()).unwrap());
    }

    #[test]
    fn empty_scope_commit_is_barrier_free() {
        // Satellite regression: read-only operations must not fence.
        let (dev, layout) = setup();
        let ctx = SubCtx { dev: &dev, layout: &layout, sub: 0 };
        let before = dev.stats();
        {
            let op = OpSession::unguarded(ctx).unwrap();
            op.undo().unwrap().commit().unwrap();
        }
        let after = dev.stats();
        assert_eq!(after.sfence_count, before.sfence_count, "empty scope commit fenced");
        assert_eq!(after.clwb_count, before.clwb_count, "empty scope commit flushed");
    }

    #[test]
    fn crashed_scope_is_replayed_by_device_backed_recovery() {
        // The interoperability contract: entries written through the view
        // must be read back by the *device-backed* replay after a crash.
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
    fn device_backed_session_blocks_scope_and_vice_versa() {
        // Both writers share one log area and generation: a crashed one
        // must block the other until recovery, regardless of which side
        // wrote the entries.
        let (dev, layout) = setup();
        let ctx = SubCtx { dev: &dev, layout: &layout, sub: 0 };
        let target = target_off(&layout);
        let mut s = UndoSession::begin(&dev, ctx.undo_area()).unwrap();
        s.log_and_write_pod(target, &7u64).unwrap();
        std::mem::forget(s);
        let op = OpSession::unguarded(ctx).unwrap();
        assert!(matches!(op.undo(), Err(PoseidonError::Corrupted(_))));
        drop(op);
        undo::replay(&dev, ctx.undo_area()).unwrap();
        let op = OpSession::unguarded(ctx).unwrap();
        op.undo().unwrap().commit().unwrap();
    }

    #[test]
    fn drop_without_commit_rolls_back_through_the_view() {
        let (dev, layout) = setup();
        let ctx = SubCtx { dev: &dev, layout: &layout, sub: 0 };
        let target = target_off(&layout);
        dev.write_pod(target, &7u64).unwrap();
        let op = OpSession::unguarded(ctx).unwrap();
        {
            let mut scope = op.undo().unwrap();
            scope.log_and_write_pod(target, &8u64).unwrap();
            // dropped here without commit
        }
        assert_eq!(op.read_pod::<u64>(target).unwrap(), 7);
        op.undo().unwrap().commit().unwrap();
    }

    #[test]
    fn abort_restores_in_reverse_order() {
        let (dev, layout) = setup();
        let ctx = SubCtx { dev: &dev, layout: &layout, sub: 0 };
        let target = target_off(&layout);
        dev.write_pod(target, &1u64).unwrap();
        let op = OpSession::unguarded(ctx).unwrap();
        let mut scope = op.undo().unwrap();
        scope.log_and_write_pod(target, &2u64).unwrap();
        scope.log_and_write_pod(target, &3u64).unwrap();
        scope.abort().unwrap();
        assert_eq!(op.read_pod::<u64>(target).unwrap(), 1);
    }

    #[test]
    fn scope_overflow_is_detected() {
        let (dev, layout) = setup();
        let ctx = SubCtx { dev: &dev, layout: &layout, sub: 0 };
        let op = OpSession::unguarded(ctx).unwrap();
        let mut scope = op.undo().unwrap();
        let big = vec![0u8; 4096];
        let mut wrote = 0u64;
        let r = loop {
            match scope.log_and_write(target_off(&layout), &big) {
                Ok(()) => wrote += 1,
                Err(e) => break e,
            }
        };
        assert!(wrote > 0);
        assert!(matches!(r, PoseidonError::Corrupted("undo log overflow")));
        scope.abort().unwrap();
    }
}
