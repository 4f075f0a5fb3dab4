//! Online self-healing: live media-fault quarantine, allocation
//! failover, and the budgeted background scrubber.
//!
//! PR 2's fault model degrades gracefully at *load* time; this module is
//! the serving-time half. When an operation trips
//! [`PmemError::Uncorrectable`](pmem::PmemError) mid-flight, the undo
//! scope that was open rolls the operation back (its `Drop` already
//! guarantees that), and the error surfaces here, where the damaged unit
//! is quarantined **live** at the right granularity:
//!
//! * **metadata poison** → the whole sub-heap is condemned: its volatile
//!   flag flips first (routing skips it immediately), its transient cache
//!   state is invalidated in DRAM (magazines, transfer pools, residency
//!   bytes — nothing touches the damaged media), and the verdict is made
//!   persistent by flipping the sub-heap's directory entry to
//!   [`superblock::DIR_QUARANTINED`] under the superblock undo log's
//!   two-fence commit. Every future load honours the entry without
//!   touching the region.
//! * **user-data poison** → only the free blocks overlapping the poison
//!   are moved to the persistent `QUARANTINED` record state (the same
//!   block-granularity machinery recovery uses).
//! * **huge region** → extent-granularity for data poison, wholesale
//!   (volatile flag; the poison itself is the persistent record) for
//!   extent-table poison.
//!
//! Allocations then **fail over**: the alloc paths retry on the next
//! healthy sub-heap, bounded by the sub-heap count, and return the typed
//! [`PoseidonError::AllFailed`] only when every sub-heap is condemned.
//! Frees and pinned transactions cannot fail over (the caller holds a
//! pointer into the damaged unit) and return the attributed error.
//!
//! The live fault path and the **scrubber** share one containment
//! routine, so a fault a user thread trips and damage the scrubber finds
//! are contained alike. The scrubber ([`PoseidonHeap::scrub_step`]) is the scrub kind of the
//! background engine (see `maintenance`): its visit checks one unit's
//! metadata and data against the device's poison list and contains what
//! it finds *before* a user thread trips on it. Each unit visited costs
//! one budget unit, so a step of budget `b` examines `b` units, at most
//! one full cycle; drive it from a `platform` thread concurrently with
//! the serving loop, or call it inline between requests.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use pmem::PoisonRange;

use crate::error::{OpKind, PoseidonError, Result};
use crate::heap::PoseidonHeap;
use crate::hugeregion;
use crate::layout::Region;
use crate::maintenance::{MaintStep, Unit};
use crate::quarantine::{self, overlaps_any};
use crate::superblock;

/// Volatile self-healing counters of one heap (reset on open).
#[derive(Debug, Default)]
pub(crate) struct HealthCounters {
    pub(crate) media_errors_alloc: AtomicU64,
    pub(crate) media_errors_free: AtomicU64,
    pub(crate) media_errors_tx: AtomicU64,
    pub(crate) media_errors_scrub: AtomicU64,
    pub(crate) failovers: AtomicU64,
    pub(crate) subheaps_condemned: AtomicU64,
    pub(crate) blocks_quarantined: AtomicU64,
    pub(crate) extents_quarantined: AtomicU64,
    pub(crate) cache_blocks_invalidated: AtomicU64,
    // The background engine (see [`crate::maintenance`]): one cursor
    // over the unit partition for scrub and maintenance visits alike,
    // the full cycles it has completed, and each kind's step count.
    pub(crate) cursor: AtomicU64,
    pub(crate) passes: AtomicU64,
    pub(crate) scrub_steps: AtomicU64,
    // Maintenance tallies, plus the cached trigger inputs the
    // fragmentation walk refreshes.
    pub(crate) maint_steps: AtomicU64,
    pub(crate) maint_merges: AtomicU64,
    pub(crate) maint_levels_shrunk: AtomicU64,
    pub(crate) maint_blocks_trimmed: AtomicU64,
    /// NoSpace/TooLarge pressure feedback — the alloc paths set it, a
    /// fully-defragged maintenance step clears it.
    pub(crate) maint_pressure: AtomicBool,
    /// Largest free huge extent from the last huge scan; meaningless
    /// until `maint_huge_sampled` is set.
    pub(crate) huge_largest_free: AtomicU64,
    pub(crate) maint_huge_sampled: AtomicBool,
    /// Fragmented / total free bytes from the last fragmentation walk
    /// (the watermark inputs for [`PoseidonHeap::maint_needed`]); a
    /// fully-defragged maintenance step zeroes the fragmented figure.
    pub(crate) maint_frag_bytes: AtomicU64,
    pub(crate) maint_free_bytes: AtomicU64,
}

impl HealthCounters {
    fn media_counter(&self, during: OpKind) -> &AtomicU64 {
        match during {
            OpKind::Free => &self.media_errors_free,
            OpKind::Tx => &self.media_errors_tx,
            OpKind::Scrub => &self.media_errors_scrub,
            _ => &self.media_errors_alloc,
        }
    }
}

/// A heap's health report: what the self-healing layer has quarantined,
/// how far the scrubber has come, and the media-error counters — the
/// serving-time counterpart of [`RecoveryReport`](crate::RecoveryReport).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HeapHealth {
    /// Sub-heaps currently quarantined (load-time plus live).
    pub quarantined_subheaps: u32,
    /// Whether the huge region is currently quarantined wholesale.
    pub huge_region_quarantined: bool,
    /// Cache lines the device currently reports as poisoned.
    pub poisoned_lines: u64,
    /// Mid-operation media errors hit on allocation paths this session.
    pub media_errors_during_alloc: u64,
    /// Mid-operation media errors hit on free paths this session.
    pub media_errors_during_free: u64,
    /// Mid-operation media errors hit on transaction paths this session.
    pub media_errors_during_tx: u64,
    /// Media errors the scrubber hit (or damage it promoted) proactively.
    pub media_errors_during_scrub: u64,
    /// Allocations that transparently retried on another sub-heap after a
    /// live media fault.
    pub failovers: u64,
    /// Sub-heaps condemned live (persistently, via their directory entry).
    pub subheaps_condemned_live: u64,
    /// Blocks moved to the `QUARANTINED` record state live.
    pub blocks_quarantined_live: u64,
    /// Huge extents moved to the `QUARANTINED` state live.
    pub extents_quarantined_live: u64,
    /// Cached blocks invalidated in DRAM when their sub-heap was
    /// condemned (magazine rounds, pool slots, residency bytes).
    pub cache_blocks_invalidated: u64,
    /// Full cycles of the background engine's cursor over every unit
    /// (sub-heaps + huge region), by scrub and maintenance visits alike.
    pub passes: u64,
    /// Completed [`scrub_step`](PoseidonHeap::scrub_step) calls.
    pub scrub_steps: u64,
    /// Completed [`maint_step`](PoseidonHeap::maint_step) calls.
    pub maint_steps: u64,
    /// Buddy merges committed by the maintenance engine this session.
    pub maint_merges: u64,
    /// Hash-table levels retired by the maintenance engine this session.
    pub maint_table_levels_shrunk: u64,
    /// Cold cached blocks handed back to the free lists by maintenance
    /// trim units this session.
    pub maint_blocks_trimmed: u64,
}

impl HeapHealth {
    /// Total mid-operation media errors across every path.
    pub fn live_media_errors(&self) -> u64 {
        self.media_errors_during_alloc
            + self.media_errors_during_free
            + self.media_errors_during_tx
            + self.media_errors_during_scrub
    }
}

/// How [`PoseidonHeap::contain`] dealt with a damaged unit.
enum Contained {
    /// This many poisoned free blocks or extents were withdrawn (none:
    /// the poison sits under live allocations).
    Withdrawn(u64),
    /// The whole sub-heap was condemned.
    Condemned,
    /// The huge region was flagged wholesale.
    Flagged,
}

impl PoseidonHeap {
    /// Condemns sub-heap `sub` after a live media fault: volatile flag
    /// first (routing and the cache frontend skip it from this instant),
    /// then DRAM cache invalidation, then the persistent directory flip
    /// under the superblock undo log's two-fence commit. Idempotent;
    /// returns whether this call was the one that condemned it.
    pub(crate) fn condemn_subheap(&self, sub: u16) -> Result<bool> {
        if self.slots[sub as usize].quarantined.swap(true, Ordering::AcqRel) {
            return Ok(false);
        }
        // DRAM only: the damaged sub-heap's media is never touched. Any
        // block the cache held for it is dropped from circulation here;
        // the media records stay FREE+FLAG_CACHED and `pfsck --repair`
        // reconciles them with everything else.
        if let Some(cache) = self.cache() {
            let invalidated = cache.condemn(sub);
            self.health.cache_blocks_invalidated.fetch_add(invalidated as u64, Ordering::Relaxed);
        }
        self.health.subheaps_condemned.fetch_add(1, Ordering::Relaxed);
        // Persist the verdict. Best-effort by design: if the superblock
        // undo area is itself damaged this returns the error, but the
        // volatile flag above already isolates the sub-heap for this
        // session, and the metadata poison re-quarantines it on reload.
        let _guard = self.write_guard();
        let _sb = self.sb_lock.lock();
        superblock::quarantine_subheap(&self.dev, sub)?;
        Ok(true)
    }

    /// Quarantines every free block of `sub` whose user bytes overlap
    /// currently poisoned lines (block granularity, persistent records).
    ///
    /// The sub-heap's transient cache is drained back to the free lists
    /// first, under the same op session, so a poisoned block sitting in a
    /// magazine or transfer pool becomes a plain `FREE` record the
    /// isolation walk can withdraw — the lock held across both steps
    /// means no refill can re-withdraw it in between. Blocks checked out
    /// to the application stay out (the caller owns them; their poison
    /// surfaces as a typed read error, and a later scrub pass catches
    /// them once they come back).
    fn quarantine_poisoned_blocks_on(&self, sub: u16) -> Result<(u64, u64)> {
        if !self.sub_usable(sub) {
            return Ok((0, 0));
        }
        let poison = self.dev.scrub();
        if poison.is_empty() {
            return Ok((0, 0));
        }
        let op = self.begin_op(sub)?;
        let (drained, drained_bytes) = match self.cache() {
            Some(cache) => self.drain_resident(&op, cache, &cache.evict_resident(sub))?,
            None => (0, 0),
        };
        let (blocks, bytes) = quarantine::isolate_poisoned_free_blocks(&op, &poison)?;
        drop(op);
        self.health.blocks_quarantined.fetch_add(blocks, Ordering::Relaxed);
        Ok((blocks + drained, bytes + drained_bytes))
    }

    /// Quarantines every free huge extent overlapping poisoned data pages.
    fn quarantine_poisoned_extents(&self) -> Result<(u64, u64)> {
        let poison = self.dev.scrub();
        let op = self.begin_huge()?;
        let (extents, bytes) = hugeregion::quarantine_poisoned(&op, &poison)?;
        drop(op);
        self.health.extents_quarantined.fetch_add(extents, Ordering::Relaxed);
        Ok((extents, bytes))
    }

    /// Contains damage in `unit`, tallying into `step`. Metadata damage
    /// (`meta_hit`) condemns the sub-heap or flags the huge region;
    /// otherwise the poisoned free blocks or extents are withdrawn, and if
    /// that walk itself faults the whole unit is condemned or flagged.
    fn contain(&self, unit: Unit, meta_hit: bool, step: &mut MaintStep) -> Contained {
        match unit {
            Unit::Sub(sub) => {
                if !meta_hit {
                    if let Ok((blocks, bytes)) = self.quarantine_poisoned_blocks_on(sub) {
                        step.blocks_quarantined += blocks;
                        step.bytes_quarantined += bytes;
                        return Contained::Withdrawn(blocks);
                    }
                }
                // A persist failure still leaves the volatile flag set, so
                // the sub-heap is isolated either way.
                if self.condemn_subheap(sub).is_ok() {
                    step.subheaps_condemned += 1;
                }
                Contained::Condemned
            }
            Unit::Huge => {
                if !meta_hit {
                    if let Ok((extents, bytes)) = self.quarantine_poisoned_extents() {
                        step.extents_quarantined += extents;
                        step.bytes_quarantined += bytes;
                        return Contained::Withdrawn(extents);
                    }
                }
                // The poison in the extent table is itself the persistent
                // record: every future load re-quarantines from the scrub
                // list, exactly like load-time recovery does.
                self.huge_quarantined.store(true, Ordering::Release);
                step.huge_region_quarantined = true;
                Contained::Flagged
            }
        }
    }

    /// The live self-healing dispatcher: given an error that just aborted
    /// an operation (the undo scope already rolled it back), contain the
    /// damaged unit and report whether the caller may retry on healthy
    /// capacity. Non-media errors pass through untouched
    /// (`retryable = false`).
    pub(crate) fn heal_media_error(&self, e: PoseidonError, during: OpKind) -> (PoseidonError, bool) {
        let PoseidonError::MediaError { offset, .. } = e else { return (e, false) };
        self.health.media_counter(during).fetch_add(1, Ordering::Relaxed);
        let attributed = e.attribute(during);
        let n = self.layout.num_subheaps();
        let (unit, meta_hit) = match self.layout.locate(offset) {
            Region::SubMeta(sub) if sub < n => (Unit::Sub(sub), true),
            // A racing condemnation (or an uncreated sub-heap): nothing to
            // withdraw, and routing already skips it — retrying on healthy
            // capacity is safe.
            Region::SubUser(sub) if sub < n && !self.sub_usable(sub) => return (attributed, true),
            Region::SubUser(sub) if sub < n => (Unit::Sub(sub), false),
            Region::HugeMeta => (Unit::Huge, true),
            Region::HugeData { .. } => (Unit::Huge, false),
            _ => return (attributed, false),
        };
        // Retry only if something was withdrawn or routing now skips the
        // whole sub-heap — otherwise the poison sits under a live
        // allocation and retrying the same operation would loop on the
        // same line.
        let retryable = match self.contain(unit, meta_hit, &mut MaintStep::default()) {
            Contained::Withdrawn(count) => count > 0,
            Contained::Condemned => true,
            Contained::Flagged => false,
        };
        (attributed, retryable)
    }

    /// The heap's current health: quarantine census, live media-error
    /// counters, and scrub progress. Cheap (atomic loads plus the
    /// device's poison-line count); safe to poll from a serving loop.
    pub fn health(&self) -> HeapHealth {
        let c = &self.health;
        HeapHealth {
            quarantined_subheaps: self.quarantined_subheaps().len() as u32,
            huge_region_quarantined: self.huge_quarantined.load(Ordering::Acquire),
            poisoned_lines: self.dev.poisoned_lines(),
            media_errors_during_alloc: c.media_errors_alloc.load(Ordering::Relaxed),
            media_errors_during_free: c.media_errors_free.load(Ordering::Relaxed),
            media_errors_during_tx: c.media_errors_tx.load(Ordering::Relaxed),
            media_errors_during_scrub: c.media_errors_scrub.load(Ordering::Relaxed),
            failovers: c.failovers.load(Ordering::Relaxed),
            subheaps_condemned_live: c.subheaps_condemned.load(Ordering::Relaxed),
            blocks_quarantined_live: c.blocks_quarantined.load(Ordering::Relaxed),
            extents_quarantined_live: c.extents_quarantined.load(Ordering::Relaxed),
            cache_blocks_invalidated: c.cache_blocks_invalidated.load(Ordering::Relaxed),
            passes: c.passes.load(Ordering::Relaxed),
            scrub_steps: c.scrub_steps.load(Ordering::Relaxed),
            maint_steps: c.maint_steps.load(Ordering::Relaxed),
            maint_merges: c.maint_merges.load(Ordering::Relaxed),
            maint_table_levels_shrunk: c.maint_levels_shrunk.load(Ordering::Relaxed),
            maint_blocks_trimmed: c.maint_blocks_trimmed.load(Ordering::Relaxed),
        }
    }

    /// One budgeted scrubber step on the background engine: visits up
    /// to `budget` units (each unit is one sub-heap, or the huge region)
    /// from the engine's cursor, at most one full cycle, checks their
    /// metadata and data against the device's poison list, and contains
    /// any damage it finds at the usual granularity. The step's report
    /// carries the tallies.
    ///
    /// # Errors
    ///
    /// Device errors other than media faults (those are absorbed into
    /// quarantine and reported in the step).
    pub fn scrub_step(&self, budget: usize) -> Result<MaintStep> {
        let poison = self.dev.scrub();
        let step = self.engine_step(budget, |unit, _, step| {
            self.scrub_visit(unit, &poison, step);
            Ok((1, true))
        })?;
        self.health.scrub_steps.fetch_add(1, Ordering::Relaxed);
        Ok(step)
    }

    /// The scrub visit: checks `unit` against the device's poison list and
    /// contains what it finds, counting each containment as a scrub-path
    /// media error.
    fn scrub_visit(&self, unit: Unit, poison: &[PoisonRange], step: &mut MaintStep) {
        if poison.is_empty() {
            return;
        }
        let l = &self.layout;
        let (meta_hit, data_hit) = match unit {
            Unit::Sub(sub) if self.sub_usable(sub) => (
                overlaps_any(poison, l.meta_base(sub), l.meta_size),
                overlaps_any(poison, l.user_base(sub), l.user_size),
            ),
            Unit::Huge if !self.huge_quarantined.load(Ordering::Acquire) => (
                overlaps_any(poison, l.huge_meta_base(), l.huge_meta_size()),
                l.huge_bands().iter().any(|b| overlaps_any(poison, b.phys, b.len)),
            ),
            _ => return,
        };
        if (meta_hit || data_hit) && !matches!(self.contain(unit, meta_hit, step), Contained::Withdrawn(0)) {
            self.health.media_errors_scrub.fetch_add(1, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heap::HeapConfig;
    use std::sync::Arc;

    use pmem::{DeviceConfig, PmemDevice};

    fn faulty_heap() -> PoseidonHeap {
        let dev = Arc::new(PmemDevice::new(DeviceConfig::new(64 << 20)));
        PoseidonHeap::open(dev, HeapConfig::new().with_subheaps(2).without_cache()).unwrap()
    }

    fn media_error(offset: u64) -> PoseidonError {
        PoseidonError::MediaError { offset, during: OpKind::Unknown }
    }

    #[test]
    fn a_faulting_block_walk_condemns_the_whole_subheap() {
        // A user-data fault sends the live path into the block walk; if
        // that walk faults on the sub-heap's metadata, containment must
        // escalate to the whole sub-heap, which makes the retry safe.
        let h = faulty_heap();
        let p = h.alloc(256).unwrap();
        let raw = h.raw_offset(p).unwrap();
        h.free(p).unwrap();
        h.device().poison(raw, 1).unwrap();
        h.device().poison(h.layout().meta_base(0) + 4096, 1).unwrap();
        let (_, retryable) = h.heal_media_error(media_error(raw), OpKind::Alloc);
        assert!(retryable, "a condemned sub-heap is skipped by routing, so the caller may retry");
        assert_eq!(h.quarantined_subheaps(), vec![0]);
        assert_eq!(h.health().media_errors_during_alloc, 1);
    }

    #[test]
    fn a_flagged_huge_region_is_not_retryable() {
        // Extent-table poison flags the huge region wholesale; retrying
        // the huge operation would only trip the same line again.
        let h = faulty_heap();
        assert!(h.layout().huge_data_size() > 0, "test device must carve a huge region");
        let offset = h.layout().huge_meta_base();
        h.device().poison(offset, 1).unwrap();
        let (e, retryable) = h.heal_media_error(media_error(offset), OpKind::Alloc);
        assert!(!retryable, "a flagged huge region must not be retried");
        assert!(matches!(e, PoseidonError::MediaError { during: OpKind::Alloc, .. }));
        assert!(h.health().huge_region_quarantined);
        assert!(h.quarantined_subheaps().is_empty());
    }
}
