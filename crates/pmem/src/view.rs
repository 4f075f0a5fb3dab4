//! Checked metadata sessions: validate once, access many times.
//!
//! Allocator metadata operations touch dozens of words per call (hash
//! probes, buddy links, undo-log entries), and paying the full validation
//! sequence — bounds, MPK page walk, poison lookup — plus a striped
//! stats update *per word* makes metadata traffic the dominant cost of
//! the hot path. A [`MetaView`], obtained from
//! [`PmemDevice::map_meta`], hoists that to session granularity: the
//! range is validated once at map time, and every accessor afterwards
//! goes straight to the backing chunk words with only a local bounds
//! check.
//!
//! What is deliberately **not** hoisted, so the fault model stays exact:
//!
//! * every write still captures dirty-line pre-images into the crash
//!   model (`simulate_crash` reverts view writes like any other store),
//!   counts one mutation event against an armed crash countdown, and
//!   counts one ranged store against an armed poison injection;
//! * reads and flushes still consult the poison set, because a line can
//!   turn uncorrectable *during* the session via injection (the check is
//!   one relaxed atomic load on a healthy device);
//! * each access finds its chunk in the store itself (one acquire load,
//!   no lock), so the view caches no chunk pointers; a session may punch
//!   holes in its own range (hash-level activation and shrink);
//! * flushes and fences go to the calling thread's fence domain at the
//!   time of the call, never to one captured at map time, so a view's
//!   `sfence` commits exactly what its thread flushed.
//!
//! Traffic counters (read/write ops, bytes, local/remote lines, flushes,
//! fences) accumulate in plain cells owned by the view and are flushed
//! into the striped [`DeviceStats`](crate::DeviceStats) in one bulk
//! update when the view drops, so snapshots taken after an operation see
//! byte-for-byte the same totals as the unbatched path.

use std::cell::Cell;

use mpk::AccessKind;

use crate::device::PmemDevice;
use crate::error::PmemError;
use crate::pod::Pod;
use crate::stats::ViewDeltas;

/// A checked session over one metadata range of a [`PmemDevice`]; see
/// [the module docs](self) and [`PmemDevice::map_meta`].
///
/// Accessors take *absolute device offsets* (the same offsets used with
/// the plain device API), which must fall inside the mapped range. The
/// view is intentionally `!Sync`: a session belongs to the single thread
/// that holds the owning operation's locks.
#[derive(Debug)]
pub struct MetaView<'d> {
    dev: &'d PmemDevice,
    base: u64,
    end: u64,
    kind: AccessKind,
    read_ops: Cell<u64>,
    write_ops: Cell<u64>,
    bytes_read: Cell<u64>,
    bytes_written: Cell<u64>,
    read_lines_local: Cell<u64>,
    read_lines_remote: Cell<u64>,
    write_lines_local: Cell<u64>,
    write_lines_remote: Cell<u64>,
    clwb_count: Cell<u64>,
    sfence_count: Cell<u64>,
}

impl<'d> MetaView<'d> {
    pub(crate) fn new(dev: &'d PmemDevice, base: u64, len: u64, kind: AccessKind) -> MetaView<'d> {
        MetaView {
            dev,
            base,
            end: base + len,
            kind,
            read_ops: Cell::new(0),
            write_ops: Cell::new(0),
            bytes_read: Cell::new(0),
            bytes_written: Cell::new(0),
            read_lines_local: Cell::new(0),
            read_lines_remote: Cell::new(0),
            write_lines_local: Cell::new(0),
            write_lines_remote: Cell::new(0),
            clwb_count: Cell::new(0),
            sfence_count: Cell::new(0),
        }
    }

    /// The device this view maps.
    pub fn device(&self) -> &'d PmemDevice {
        self.dev
    }

    /// First device offset covered by the view.
    pub fn base(&self) -> u64 {
        self.base
    }

    /// One past the last device offset covered by the view.
    pub fn end(&self) -> u64 {
        self.end
    }

    /// The access kind validated at map time.
    pub fn kind(&self) -> AccessKind {
        self.kind
    }

    #[inline]
    fn check_local(&self, offset: u64, len: u64) -> Result<(), PmemError> {
        if offset < self.base || offset.checked_add(len).is_none_or(|e| e > self.end) {
            return Err(PmemError::OutOfBounds { offset, len, capacity: self.end });
        }
        Ok(())
    }

    /// Reads `buf.len()` bytes at absolute device offset `offset`.
    ///
    /// # Errors
    ///
    /// [`PmemError::OutOfBounds`] if the range leaves the view, or
    /// [`PmemError::Uncorrectable`] if a covered line turned poisoned
    /// since the map.
    pub fn read(&self, offset: u64, buf: &mut [u8]) -> Result<(), PmemError> {
        let len = buf.len() as u64;
        self.check_local(offset, len)?;
        self.dev.check_poison(offset, len)?;
        self.dev.store_ref().read(offset, buf);
        self.read_ops.set(self.read_ops.get() + 1);
        self.bytes_read.set(self.bytes_read.get() + len);
        let lines = PmemDevice::lines(offset, len);
        if self.dev.is_remote(offset) {
            self.read_lines_remote.set(self.read_lines_remote.get() + lines);
        } else {
            self.read_lines_local.set(self.read_lines_local.get() + lines);
        }
        Ok(())
    }

    /// Reads a [`Pod`] value at absolute device offset `offset`.
    ///
    /// # Errors
    ///
    /// As for [`read`](Self::read).
    pub fn read_pod<T: Pod>(&self, offset: u64) -> Result<T, PmemError> {
        let mut value = T::zeroed();
        self.read(offset, value.as_bytes_mut())?;
        Ok(value)
    }

    /// Writes `buf` at absolute device offset `offset`. Exactly like
    /// [`PmemDevice::write`] minus the per-call validation: the store
    /// lands in the modelled cache (pre-image captured), counts a
    /// mutation event, and counts a store against poison injection.
    ///
    /// # Errors
    ///
    /// [`PmemError::OutOfBounds`], [`PmemError::Crashed`], or — only for
    /// a view mapped [`AccessKind::Read`], which re-checks protection per
    /// write — [`PmemError::ProtectionFault`].
    pub fn write(&self, offset: u64, buf: &[u8]) -> Result<(), PmemError> {
        let len = buf.len() as u64;
        self.check_local(offset, len)?;
        if self.kind != AccessKind::Write {
            // Mapped read-only: the map-time check did not cover stores.
            self.dev.check_protection(offset, len, AccessKind::Write)?;
        }
        self.dev.mutation_event()?;
        if buf.is_empty() {
            return Ok(());
        }
        self.dev.before_store(offset, len);
        self.dev.store_ref().write(offset, buf);
        self.dev.poison_event(offset, len);
        self.write_ops.set(self.write_ops.get() + 1);
        self.bytes_written.set(self.bytes_written.get() + len);
        let lines = PmemDevice::lines(offset, len);
        if self.dev.is_remote(offset) {
            self.write_lines_remote.set(self.write_lines_remote.get() + lines);
        } else {
            self.write_lines_local.set(self.write_lines_local.get() + lines);
        }
        Ok(())
    }

    /// Writes a [`Pod`] value at absolute device offset `offset`.
    ///
    /// # Errors
    ///
    /// As for [`write`](Self::write).
    pub fn write_pod<T: Pod>(&self, offset: u64, value: &T) -> Result<(), PmemError> {
        self.write(offset, value.as_bytes())
    }

    /// Flushes the lines covering `[offset, offset + len)` (`clwb`).
    ///
    /// # Errors
    ///
    /// [`PmemError::OutOfBounds`], [`PmemError::Crashed`], or
    /// [`PmemError::Uncorrectable`].
    pub fn clwb(&self, offset: u64, len: u64) -> Result<(), PmemError> {
        self.check_local(offset, len)?;
        self.dev.check_poison(offset, len)?;
        self.dev.mutation_event()?;
        self.dev.with_fence_domain(|domain| {
            if let Some(domain) = domain {
                domain.clwb(offset, len);
            }
        });
        self.clwb_count.set(self.clwb_count.get() + PmemDevice::lines(offset, len));
        Ok(())
    }

    /// Commits the flushes the calling thread issued since its last fence
    /// (`sfence`), through this view or any other path to the device.
    /// Flushes issued by other threads stay pending until their own
    /// fences (see [`PmemDevice::sfence`]).
    ///
    /// # Errors
    ///
    /// [`PmemError::Crashed`].
    pub fn sfence(&self) -> Result<(), PmemError> {
        self.dev.mutation_event()?;
        self.dev.with_fence_domain(|domain| {
            if let Some(domain) = domain {
                domain.sfence();
            }
        });
        self.sfence_count.set(self.sfence_count.get() + 1);
        Ok(())
    }

    /// `clwb` + `sfence` on the calling thread: makes the range durable,
    /// along with every other line the thread flushed since its last
    /// fence.
    ///
    /// # Errors
    ///
    /// As for [`clwb`](Self::clwb) and [`sfence`](Self::sfence).
    pub fn persist(&self, offset: u64, len: u64) -> Result<(), PmemError> {
        self.clwb(offset, len)?;
        self.sfence()
    }

    /// Issues one `clwb` per line noted in `batch` — the view-routed
    /// twin of [`PmemDevice::flush_batch`]. Every noted line must fall
    /// inside the view. Each line still consults the poison set and
    /// counts one mutation event against an armed crash; the batch is
    /// left untouched for the caller to
    /// [`clear`](crate::FlushBatch::clear) after the ordering
    /// [`sfence`](Self::sfence).
    ///
    /// # Errors
    ///
    /// [`PmemError::OutOfBounds`], [`PmemError::Crashed`], or
    /// [`PmemError::Uncorrectable`] if a noted line is poisoned.
    pub fn flush_batch(&self, batch: &crate::FlushBatch) -> Result<(), PmemError> {
        self.dev.with_fence_domain(|mut domain| {
            batch.lines().iter().try_for_each(|&line| -> Result<(), PmemError> {
                let offset = line * crate::CACHE_LINE_SIZE;
                let len = crate::CACHE_LINE_SIZE.min(self.end.saturating_sub(offset));
                self.check_local(offset, len.max(1))?;
                self.dev.check_poison(offset, len)?;
                self.dev.mutation_event()?;
                if let Some(domain) = &mut domain {
                    domain.clwb(offset, len);
                }
                Ok(())
            })
        })?;
        self.clwb_count.set(self.clwb_count.get() + batch.line_count() as u64);
        Ok(())
    }
}

impl Drop for MetaView<'_> {
    fn drop(&mut self) {
        self.dev.stats_ref().record_view_deltas(&ViewDeltas {
            read_ops: self.read_ops.get(),
            write_ops: self.write_ops.get(),
            bytes_read: self.bytes_read.get(),
            bytes_written: self.bytes_written.get(),
            read_lines_local: self.read_lines_local.get(),
            read_lines_remote: self.read_lines_remote.get(),
            write_lines_local: self.write_lines_local.get(),
            write_lines_remote: self.write_lines_remote.get(),
            clwb_count: self.clwb_count.get(),
            sfence_count: self.sfence_count.get(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CrashMode;
    use crate::device::{DeviceConfig, PAGE_SIZE};
    use mpk::AccessRights;

    fn device() -> PmemDevice {
        PmemDevice::new(DeviceConfig::small_test())
    }

    #[test]
    fn view_traffic_matches_plain_device_traffic() {
        let plain = device();
        plain.write_pod(256, &7u64).unwrap();
        plain.persist(256, 8).unwrap();
        assert_eq!(plain.read_pod::<u64>(256).unwrap(), 7);
        let expect = plain.stats();

        let dev = device();
        {
            let view = dev.map_meta(0, 4096, AccessKind::Write).unwrap();
            view.write_pod(256, &7u64).unwrap();
            view.persist(256, 8).unwrap();
            assert_eq!(view.read_pod::<u64>(256).unwrap(), 7);
        }
        let got = dev.stats();
        assert_eq!(got.bytes_written, expect.bytes_written);
        assert_eq!(got.bytes_read, expect.bytes_read);
        assert_eq!(got.read_ops, expect.read_ops);
        assert_eq!(got.write_ops, expect.write_ops);
        assert_eq!(got.clwb_count, expect.clwb_count);
        assert_eq!(got.sfence_count, expect.sfence_count);
        assert_eq!(got.write_lines_local + got.write_lines_remote, 1);
        // The whole session cost one validation (plain path: one per call).
        assert_eq!(got.validations, 1);
        assert_eq!(got.meta_maps, 1);
        assert_eq!(expect.validations, 3); // write + clwb + read; sfence validates nothing
    }

    #[test]
    fn view_rejects_out_of_range_accesses() {
        let dev = device();
        let view = dev.map_meta(4096, 4096, AccessKind::Write).unwrap();
        assert!(matches!(view.read_pod::<u64>(0), Err(PmemError::OutOfBounds { .. })));
        assert!(matches!(view.write_pod(8192, &1u64), Err(PmemError::OutOfBounds { .. })));
        assert!(matches!(view.write_pod(8190, &1u64), Err(PmemError::OutOfBounds { .. })));
        view.write_pod(8184, &1u64).unwrap();
    }

    #[test]
    fn map_validates_protection_once_and_memoizes() {
        let dev = device();
        let key = dev.mpk().pkey_alloc(AccessRights::ReadOnly).unwrap();
        dev.set_page_key(0, 16 * PAGE_SIZE, key).unwrap();
        // No write grant: a write map faults at map time, attributed to
        // the first page, and a read map succeeds.
        let err = dev.map_meta(0, 16 * PAGE_SIZE, AccessKind::Write).unwrap_err();
        assert!(matches!(err, PmemError::ProtectionFault { offset: 0, .. }));
        dev.map_meta(0, 16 * PAGE_SIZE, AccessKind::Read).unwrap();
        {
            let _grant = dev.mpk().grant_write(key);
            // Memoized (same range): still re-checked against the PKRU,
            // so the grant now makes the same map succeed.
            let view = dev.map_meta(0, 16 * PAGE_SIZE, AccessKind::Write).unwrap();
            view.write_pod(0, &1u64).unwrap();
        }
        assert!(matches!(
            dev.map_meta(0, 16 * PAGE_SIZE, AccessKind::Write),
            Err(PmemError::ProtectionFault { .. })
        ));
        // Key changes invalidate the memo: untagging makes writes free.
        dev.set_page_key(0, 16 * PAGE_SIZE, mpk::ProtectionKey::DEFAULT).unwrap();
        dev.map_meta(0, 16 * PAGE_SIZE, AccessKind::Write).unwrap();
    }

    #[test]
    fn writes_through_read_view_recheck_protection() {
        let dev = device();
        let key = dev.mpk().pkey_alloc(AccessRights::ReadOnly).unwrap();
        dev.set_page_key(0, PAGE_SIZE, key).unwrap();
        let view = dev.map_meta(0, PAGE_SIZE, AccessKind::Read).unwrap();
        assert!(matches!(view.write_pod(0, &1u64), Err(PmemError::ProtectionFault { .. })));
        let _grant = dev.mpk().grant_write(key);
        view.write_pod(0, &1u64).unwrap();
    }

    #[test]
    fn view_writes_are_reverted_by_a_crash() {
        let dev = device();
        {
            let view = dev.map_meta(0, 4096, AccessKind::Write).unwrap();
            view.write_pod(0, &0xAAAAu64).unwrap();
            view.persist(0, 8).unwrap();
            view.write_pod(64, &0xBBBBu64).unwrap(); // never flushed
        }
        dev.simulate_crash(CrashMode::Strict, 0);
        assert_eq!(dev.read_pod::<u64>(0).unwrap(), 0xAAAA);
        assert_eq!(dev.read_pod::<u64>(64).unwrap(), 0);
    }

    #[test]
    fn view_accesses_count_armed_crash_events() {
        let dev = device();
        let view = dev.map_meta(0, 4096, AccessKind::Write).unwrap();
        dev.arm_crash_after(1);
        view.write_pod(0, &1u64).unwrap(); // event 0
        assert_eq!(view.write_pod(8, &2u64), Err(PmemError::Crashed)); // event 1
        assert_eq!(view.sfence(), Err(PmemError::Crashed));
        // Reads keep working for post-mortem inspection.
        assert_eq!(view.read_pod::<u64>(0).unwrap(), 1);
    }

    #[test]
    fn map_fails_on_poisoned_range_and_reads_see_fresh_poison() {
        let dev = device();
        dev.poison(128, 1).unwrap();
        assert!(matches!(
            dev.map_meta(0, 4096, AccessKind::Write),
            Err(PmemError::Uncorrectable { offset: 128 })
        ));
        dev.clear_poison(128, 64).unwrap();
        let view = dev.map_meta(0, 4096, AccessKind::Write).unwrap();
        // Poison arriving mid-session is still caught per access.
        dev.poison(128, 1).unwrap();
        assert_eq!(view.read_pod::<u64>(128), Err(PmemError::Uncorrectable { offset: 128 }));
        assert_eq!(view.clwb(128, 8), Err(PmemError::Uncorrectable { offset: 128 }));
        view.read_pod::<u64>(0).unwrap();
    }

    #[test]
    fn view_writes_count_poison_injection_events() {
        let dev = device();
        dev.arm_poison_after(1, 9);
        let view = dev.map_meta(0, 4096, AccessKind::Write).unwrap();
        view.write_pod(0, &1u64).unwrap(); // event 0
        view.write_pod(64, &2u64).unwrap(); // event 1: line dies
        assert_eq!(dev.poisoned_lines(), 1);
    }
}
