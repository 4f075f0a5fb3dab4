//! The one access path: every read, store, flush and fence of the device
//! runs through a [`MetaView`].
//!
//! A view comes in two modes, and each access has one body for both:
//!
//! * The **unmapped** view ([`PmemDevice::unmapped_view`]) checks every
//!   access in full: bounds against the device's live capacity, MPK for
//!   the access kind, and one `validations` count per call (none for an
//!   `sfence` or an empty flush batch); its traffic goes straight to the
//!   device counters. The device's own accessors (`PmemDevice::read`,
//!   `write`, `clwb`, ...) each run through a transient unmapped view.
//! * A **mapped** view ([`PmemDevice::map_meta`]) hoists that check to
//!   session granularity. Allocator metadata operations touch dozens of
//!   words per call (hash probes, buddy links, undo-log entries), and
//!   paying the full validation sequence — bounds, MPK page walk, poison
//!   lookup — plus a striped stats update *per word* would make metadata
//!   traffic the dominant cost of the hot path. The range is validated
//!   once at map time; every access afterwards checks only that it stays
//!   inside the range (and MPK only for a store through a view mapped for
//!   reads), and counts its traffic in plain cells that flush into the
//!   device counters in one bulk update when the view drops, so snapshots
//!   taken after an operation see the same totals as the unmapped path.
//!
//! What no mode hoists, so the fault model stays exact:
//!
//! * every store captures dirty-line pre-images into the crash model
//!   (`simulate_crash` reverts view writes like any other store), counts
//!   one mutation event against an armed crash countdown, and counts one
//!   ranged store against an armed poison injection;
//! * reads and flushes consult the poison set, because a line can turn
//!   uncorrectable *during* a session via injection (the check is one
//!   relaxed atomic load on a healthy device);
//! * each access finds its chunk in the store itself (one acquire load,
//!   no lock), so a view caches no chunk pointers; a session may punch
//!   holes in its own range (hash-level activation and shrink);
//! * flushes and fences go to the calling thread's fence domain at the
//!   time of the call, never to one captured at map time, so a view's
//!   `sfence` commits exactly what its thread flushed.

use std::cell::Cell;

use mpk::AccessKind;

use crate::batch::FlushBatch;
use crate::cache::{FenceDomain, CACHE_LINE_SIZE};
use crate::device::{check_within, PmemDevice};
use crate::error::PmemError;
use crate::pod::Pod;
use crate::stats::{counter, TRAFFIC};

/// A checked access path to a [`PmemDevice`]: the unmapped view of the
/// whole device, or a session mapped over one metadata range. See [the
/// module docs](self), [`PmemDevice::unmapped_view`] and
/// [`PmemDevice::map_meta`].
///
/// Accessors take *absolute device offsets*; a mapped view's must fall
/// inside its range. The view is intentionally `!Sync`: a session belongs
/// to the single thread that holds the owning operation's locks.
#[derive(Debug)]
pub struct MetaView<'d> {
    dev: &'d PmemDevice,
    /// `None` for the unmapped view.
    map: Option<Mapping>,
}

/// What a mapped view holds: the range and access kind
/// [`PmemDevice::map_meta`] validated, and the traffic counted since.
#[derive(Debug)]
struct Mapping {
    base: u64,
    end: u64,
    kind: AccessKind,
    /// This view's counts of the first [`TRAFFIC`] counters, flushed into
    /// the device's when the view drops.
    traffic: [Cell<u64>; TRAFFIC],
}

/// The counters of one transfer direction: ops, bytes, local lines and
/// remote lines.
type Transfer = [usize; 4];

const READS: Transfer =
    [counter!(read_ops), counter!(bytes_read), counter!(read_lines_local), counter!(read_lines_remote)];
const WRITES: Transfer =
    [counter!(write_ops), counter!(bytes_written), counter!(write_lines_local), counter!(write_lines_remote)];

impl<'d> MetaView<'d> {
    pub(crate) fn unmapped(dev: &'d PmemDevice) -> MetaView<'d> {
        MetaView { dev, map: None }
    }

    pub(crate) fn mapped(dev: &'d PmemDevice, base: u64, len: u64, kind: AccessKind) -> MetaView<'d> {
        MetaView { dev, map: Some(Mapping { base, end: base + len, kind, traffic: Default::default() }) }
    }

    /// The device this view accesses.
    pub fn device(&self) -> &'d PmemDevice {
        self.dev
    }

    /// Counts one full validation: every call through the unmapped view
    /// pays one, a mapped view paid its one at map time.
    #[inline]
    fn validate(&self) {
        if self.map.is_none() {
            self.dev.stats.add([(counter!(validations), 1)]);
        }
    }

    /// Fails unless `[offset, offset + len)` lies inside the mapped range,
    /// or inside the device's live capacity for the unmapped view.
    #[inline]
    fn check_range(&self, offset: u64, len: u64) -> Result<(), PmemError> {
        match &self.map {
            Some(map) => check_within(offset, len, map.base, map.end),
            None => check_within(offset, len, 0, self.dev.capacity()),
        }
    }

    /// The MPK check for a `kind` access, unless the map-time check
    /// already covered it: a view mapped for writes covers every access,
    /// one mapped for reads covers reads.
    #[inline]
    fn check_protection(&self, offset: u64, len: u64, kind: AccessKind) -> Result<(), PmemError> {
        match &self.map {
            Some(map) if map.kind == AccessKind::Write || kind == AccessKind::Read => Ok(()),
            _ => self.dev.check_protection(offset, len, kind),
        }
    }

    /// Adds traffic counts: into a mapped view's cells, or straight into
    /// the device counters for the unmapped view.
    #[inline]
    fn count<const N: usize>(&self, counts: [(usize, u64); N]) {
        match &self.map {
            Some(map) => {
                for &(counter, by) in &counts {
                    let cell = &map.traffic[counter];
                    cell.set(cell.get() + by);
                }
            }
            None => self.dev.stats.add(counts),
        }
    }

    /// Counts one transfer of `len` bytes at `offset`.
    #[inline]
    fn count_transfer(&self, [ops, bytes, local, remote]: Transfer, offset: u64, len: u64) {
        let lines = if self.dev.is_remote(offset) { remote } else { local };
        self.count([(ops, 1), (bytes, len), (lines, PmemDevice::lines(offset, len))]);
    }

    /// Reads `buf.len()` bytes at `offset`. Reads work on a crashed
    /// device, as recovery code must inspect it.
    ///
    /// # Errors
    ///
    /// [`PmemError::OutOfBounds`] if the range leaves the view,
    /// [`PmemError::ProtectionFault`] (the unmapped view only), or
    /// [`PmemError::Uncorrectable`] if the range touches a poisoned line.
    #[inline]
    pub fn read(&self, offset: u64, buf: &mut [u8]) -> Result<(), PmemError> {
        let len = buf.len() as u64;
        self.validate();
        self.check_range(offset, len)?;
        self.check_protection(offset, len, AccessKind::Read)?;
        self.dev.check_poison(offset, len)?;
        self.dev.store.read(offset, buf);
        self.count_transfer(READS, offset, len);
        Ok(())
    }

    /// Reads a [`Pod`] value at `offset`.
    ///
    /// # Errors
    ///
    /// As for [`read`](Self::read).
    pub fn read_pod<T: Pod>(&self, offset: u64) -> Result<T, PmemError> {
        let mut value = T::zeroed();
        self.read(offset, value.as_bytes_mut())?;
        Ok(value)
    }

    /// Writes `buf` at `offset`. The store lands in the modelled CPU
    /// cache (pre-image captured), counts a mutation event, and counts a
    /// store against poison injection; call [`persist`](Self::persist)
    /// (or `clwb` + `sfence`) to make it durable.
    ///
    /// # Errors
    ///
    /// [`PmemError::OutOfBounds`], [`PmemError::Crashed`], or — through
    /// the unmapped view or a view mapped [`AccessKind::Read`], which
    /// check protection per store — [`PmemError::ProtectionFault`].
    #[inline]
    pub fn write(&self, offset: u64, buf: &[u8]) -> Result<(), PmemError> {
        let len = buf.len() as u64;
        self.validate();
        self.check_range(offset, len)?;
        self.check_protection(offset, len, AccessKind::Write)?;
        self.dev.mutation_event()?;
        if buf.is_empty() {
            return Ok(());
        }
        self.dev.before_store(offset, len);
        self.dev.store.write(offset, buf);
        self.dev.poison_event(offset, len);
        self.count_transfer(WRITES, offset, len);
        Ok(())
    }

    /// Writes a [`Pod`] value at `offset`.
    ///
    /// # Errors
    ///
    /// As for [`write`](Self::write).
    pub fn write_pod<T: Pod>(&self, offset: u64, value: &T) -> Result<(), PmemError> {
        self.write(offset, value.as_bytes())
    }

    /// Atomically replaces the 8-byte-aligned u64 at `offset` with
    /// `f(previous)`, returning the previous value: a store that first
    /// loads its line, so poison faults it.
    #[inline]
    pub(crate) fn fetch_update_u64(&self, offset: u64, f: impl Fn(u64) -> u64) -> Result<u64, PmemError> {
        self.validate();
        if !offset.is_multiple_of(8) {
            return Err(PmemError::Misaligned { value: offset, required: 8 });
        }
        self.check_range(offset, 8)?;
        self.check_protection(offset, 8, AccessKind::Write)?;
        self.dev.check_poison(offset, 8)?;
        self.dev.mutation_event()?;
        self.dev.before_store(offset, 8);
        let previous = self.dev.store.fetch_update_u64(offset, f);
        self.dev.poison_event(offset, 8);
        self.count_transfer(WRITES, offset, 8);
        Ok(previous)
    }

    /// Flushes the lines covering `[offset, offset + len)` (`clwb`). Not
    /// durable until the calling thread's next [`sfence`](Self::sfence).
    ///
    /// # Errors
    ///
    /// [`PmemError::OutOfBounds`], [`PmemError::Crashed`], or
    /// [`PmemError::Uncorrectable`] — writing back to a failed line is how
    /// the DIMM reports poison on the store path.
    #[inline]
    pub fn clwb(&self, offset: u64, len: u64) -> Result<(), PmemError> {
        self.validate();
        self.dev.with_fence_domain(|domain| self.flush(domain, offset, len))?;
        self.count([(counter!(clwb_count), PmemDevice::lines(offset, len))]);
        Ok(())
    }

    /// The per-range step of every flush: checks, one mutation event, and
    /// the pending `clwb` in the calling thread's fence domain.
    #[inline]
    fn flush(&self, domain: Option<&mut FenceDomain<'_>>, offset: u64, len: u64) -> Result<(), PmemError> {
        self.check_range(offset, len)?;
        self.dev.check_poison(offset, len)?;
        self.dev.mutation_event()?;
        if let Some(domain) = domain {
            domain.clwb(offset, len);
        }
        Ok(())
    }

    /// Commits the flushes the calling thread issued since its last fence
    /// (`sfence`), through this view or any other path to the device;
    /// those lines are durable afterwards. Lines other threads flushed
    /// stay pending until one of *their* fences, as on hardware, where
    /// flushes are ordered per thread.
    ///
    /// # Errors
    ///
    /// [`PmemError::Crashed`].
    #[inline]
    pub fn sfence(&self) -> Result<(), PmemError> {
        self.dev.mutation_event()?;
        self.dev.with_fence_domain(|domain| {
            if let Some(domain) = domain {
                domain.sfence();
            }
        });
        self.count([(counter!(sfence_count), 1)]);
        Ok(())
    }

    /// `clwb` + `sfence` on the calling thread: makes `[offset, offset +
    /// len)` durable, along with every other line the thread flushed
    /// since its last fence.
    ///
    /// # Errors
    ///
    /// As for [`clwb`](Self::clwb) and [`sfence`](Self::sfence).
    #[inline]
    pub fn persist(&self, offset: u64, len: u64) -> Result<(), PmemError> {
        self.clwb(offset, len)?;
        self.sfence()
    }

    /// Issues one `clwb` per line noted in `batch` (see [`FlushBatch`]):
    /// the write-combining flush path. The whole batch costs at most one
    /// validation (none when empty); each line still consults the poison
    /// set and counts one mutation event against an armed crash, so crash
    /// injection can land between any two flushes. The batch is left
    /// untouched — callers [`clear`](FlushBatch::clear) it after the
    /// ordering [`sfence`](Self::sfence).
    ///
    /// # Errors
    ///
    /// [`PmemError::OutOfBounds`] if a noted line leaves the view,
    /// [`PmemError::Crashed`], or [`PmemError::Uncorrectable`] if a noted
    /// line is poisoned.
    #[inline]
    pub fn flush_batch(&self, batch: &FlushBatch) -> Result<(), PmemError> {
        if batch.is_empty() {
            return Ok(());
        }
        self.validate();
        let end = self.map.as_ref().map_or_else(|| self.dev.capacity(), |map| map.end);
        self.dev.with_fence_domain(|mut domain| {
            batch.lines().iter().try_for_each(|&line| {
                let offset = line * CACHE_LINE_SIZE;
                let len = CACHE_LINE_SIZE.min(end.saturating_sub(offset));
                self.flush(domain.as_deref_mut(), offset, len.max(1))
            })
        })?;
        self.count([(counter!(clwb_count), batch.line_count() as u64)]);
        Ok(())
    }
}

impl Drop for MetaView<'_> {
    fn drop(&mut self) {
        if let Some(map) = &self.map {
            self.dev.stats.add(map.traffic.iter().map(Cell::get).enumerate());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CrashMode;
    use crate::device::{DeviceConfig, PAGE_SIZE};
    use crate::StatsSnapshot;
    use mpk::AccessRights;
    use platform::rng::Rng;

    fn device() -> PmemDevice {
        PmemDevice::new(DeviceConfig::small_test())
    }

    /// Capacity of the differential test's devices. The mapped view
    /// covers all of it, so an access past the end is out of range on
    /// both paths, with the same error.
    const CAP: u64 = 256 * 1024;

    /// Where most of the stream lands, so stores, flushes and fences
    /// overlap: the first four pages. Page 1 holds a line that turns
    /// poisoned after the map, page 2 a read-only key.
    const HOT: u64 = 4 * PAGE_SIZE;

    /// One access of the differential stream.
    #[derive(Debug)]
    enum Access {
        Read(u64, usize),
        Write(u64, Vec<u8>),
        ReadPod(u64),
        WritePod(u64, u64),
        Clwb(u64, u64),
        Sfence,
        Persist(u64, u64),
        FlushBatch(FlushBatch),
        FetchOr(u64, u64),
    }

    /// A seeded stream of every access kind: mostly in [`HOT`], one in 16
    /// straddling the end of the device, one RMW in 8 misaligned.
    fn stream(rng: &mut Rng, n: usize) -> Vec<Access> {
        let at = |rng: &mut Rng, len: u64| {
            if rng.below(16) == 0 {
                CAP - 64 + rng.below(128)
            } else {
                rng.below(HOT - len)
            }
        };
        (0..n)
            .map(|_| match rng.below(9) {
                0 => {
                    let len = 1 + rng.below(200);
                    Access::Read(at(rng, len), len as usize)
                }
                1 => {
                    let mut bytes = vec![0u8; 1 + rng.below(200) as usize];
                    rng.fill(&mut bytes);
                    Access::Write(at(rng, bytes.len() as u64), bytes)
                }
                2 => Access::ReadPod(at(rng, 8)),
                3 => Access::WritePod(at(rng, 8), rng.next_u64()),
                4 => {
                    let len = rng.below(300);
                    Access::Clwb(at(rng, len), len)
                }
                5 => Access::Sfence,
                6 => {
                    let len = 1 + rng.below(300);
                    Access::Persist(at(rng, len), len)
                }
                7 => {
                    let mut batch = FlushBatch::new();
                    for _ in 0..rng.below(5) {
                        let len = 1 + rng.below(150);
                        batch.note(at(rng, len), len);
                    }
                    Access::FlushBatch(batch)
                }
                _ => {
                    let offset = at(rng, 8);
                    Access::FetchOr(if rng.below(8) == 0 { offset | 4 } else { offset & !7 }, rng.next_u64())
                }
            })
            .collect()
    }

    /// Runs `$access` on `$on` — the device or a view, whose accessors
    /// share their names — returning what it read or its error. The RMW
    /// goes through `$fetch_or(offset, mask)`.
    macro_rules! run {
        ($on:expr, $access:expr, $fetch_or:expr) => {
            match $access {
                Access::Read(offset, len) => {
                    let mut buf = vec![0u8; *len];
                    $on.read(*offset, &mut buf).map(|()| buf)
                }
                Access::Write(offset, bytes) => $on.write(*offset, bytes).map(|()| Vec::new()),
                Access::ReadPod(offset) => $on.read_pod::<u64>(*offset).map(|v| v.to_le_bytes().to_vec()),
                Access::WritePod(offset, value) => $on.write_pod(*offset, value).map(|()| Vec::new()),
                Access::Clwb(offset, len) => $on.clwb(*offset, *len).map(|()| Vec::new()),
                Access::Sfence => $on.sfence().map(|()| Vec::new()),
                Access::Persist(offset, len) => $on.persist(*offset, *len).map(|()| Vec::new()),
                Access::FlushBatch(batch) => $on.flush_batch(batch).map(|()| Vec::new()),
                Access::FetchOr(offset, mask) => {
                    $fetch_or(*offset, *mask).map(|previous: u64| previous.to_le_bytes().to_vec())
                }
            }
        };
    }

    /// Arms the same faults on each device, after the map (which refuses
    /// poison): a read-only key on page 2 when the view is mapped for
    /// reads (its stores re-check MPK; a map for writes would have
    /// refused the key), a poisoned line, a poison injection and, on odd
    /// seeds, a crash countdown.
    fn rig(dev: &PmemDevice, seed: u64, kind: AccessKind) {
        if kind == AccessKind::Read {
            let key = dev.mpk().pkey_alloc(AccessRights::ReadOnly).unwrap();
            dev.set_page_key(2 * PAGE_SIZE, PAGE_SIZE, key).unwrap();
        }
        dev.poison(PAGE_SIZE + 192, 1).unwrap();
        dev.arm_poison_after(40 + seed % 50, seed);
        if seed % 2 == 1 {
            dev.arm_crash_after(100 + seed * 37 % 200);
        }
    }

    /// Every line of the device, read back.
    fn media(dev: &PmemDevice) -> Vec<Result<Vec<u8>, PmemError>> {
        (0..CAP / CACHE_LINE_SIZE)
            .map(|line| {
                let mut buf = vec![0u8; CACHE_LINE_SIZE as usize];
                dev.read(line * CACHE_LINE_SIZE, &mut buf).map(|()| buf)
            })
            .collect()
    }

    #[test]
    fn view_traffic_matches_plain_device_traffic() {
        // The same seeded stream of every access kind on two crash-tracked
        // devices, once through the device API and once through a view
        // mapped over the whole device (for writes on some seeds, for
        // reads on others). Every result and error, every counter but
        // `validations` and `meta_maps`, and the media after a Strict and
        // an Adversarial crash with the same seed must agree.
        let mut seen = [0u32; 4]; // out of range, MPK, poison, crashed
        for seed in 0..16u64 {
            let kind = if seed % 4 < 2 { AccessKind::Write } else { AccessKind::Read };
            for mode in [CrashMode::Strict, CrashMode::Adversarial] {
                let accesses = stream(&mut Rng::new(seed), 300);
                let (plain, mapped) =
                    (PmemDevice::new(DeviceConfig::new(CAP)), PmemDevice::new(DeviceConfig::new(CAP)));
                let view = mapped.map_meta(0, CAP, kind).unwrap();
                rig(&plain, seed, kind);
                rig(&mapped, seed, kind);
                for (i, access) in accesses.iter().enumerate() {
                    let want = run!(plain, access, |offset, mask| plain.fetch_or_u64(offset, mask));
                    let got = run!(view, access, |offset, mask| view.fetch_update_u64(offset, |w| w | mask));
                    assert_eq!(got, want, "seed {seed} {kind} access {i}: {access:?}");
                    match want {
                        Err(PmemError::OutOfBounds { .. }) => seen[0] += 1,
                        Err(PmemError::ProtectionFault { .. }) => seen[1] += 1,
                        Err(PmemError::Uncorrectable { .. }) => seen[2] += 1,
                        Err(PmemError::Crashed) => seen[3] += 1,
                        _ => {}
                    }
                }
                drop(view);
                let (want, got) = (plain.stats(), mapped.stats());
                // One validation per device call, none for an `sfence` or
                // an empty flush batch.
                let calls = accesses.iter().filter(|access| match access {
                    Access::Sfence => false,
                    Access::FlushBatch(batch) => !batch.is_empty(),
                    _ => true,
                });
                assert_eq!(want.validations, calls.count() as u64, "seed {seed}");
                assert_eq!((got.validations, got.meta_maps), (1, 1), "seed {seed}: the map's only");
                assert_eq!(
                    StatsSnapshot { validations: 0, meta_maps: 0, ..got },
                    StatsSnapshot { validations: 0, meta_maps: 0, ..want },
                    "seed {seed} {kind}"
                );
                plain.simulate_crash(mode, seed);
                mapped.simulate_crash(mode, seed);
                assert!(media(&mapped) == media(&plain), "seed {seed} {kind} {mode:?}: media differ");
            }
        }
        assert!(seen.iter().all(|&n| n > 0), "every error kind must occur: {seen:?}");
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
        // The unmapped view maps nothing, so it runs past the poison and
        // fails only the accesses that touch it.
        let unmapped = dev.unmapped_view();
        unmapped.read_pod::<u64>(0).unwrap();
        assert_eq!(unmapped.read_pod::<u64>(128), Err(PmemError::Uncorrectable { offset: 128 }));
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
