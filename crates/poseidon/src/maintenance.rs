//! Background maintenance engine: budgeted incremental defragmentation
//! driven by live fragmentation statistics.
//!
//! The whole-heap [`defragment`](PoseidonHeap::defragment) pass is a
//! stop-the-world affair — unusable inside a serving loop. This module
//! is the incremental replacement, shaped like the scrubber
//! ([`PoseidonHeap::scrub_step`]): a session-persistent cursor walks the
//! same unit partition (one unit per sub-heap, plus one for the huge
//! region) and each [`maint_step`](PoseidonHeap::maint_step) performs at
//! most `budget` bounded *units of work* before returning.
//!
//! A unit of work is one committed metadata operation under the ordinary
//! two-fence undo discipline, so a crash after any unit recovers exactly
//! like a crash after any alloc or free:
//!
//! * **buddy merge** — one [`defrag::merge_once`] scope: unlink both
//!   halves, delete the loser's record, push the doubled survivor (the
//!   engine walks the classes with the alloc path's own
//!   [`defrag::merge_all_below`], budgeted);
//! * **table shrink** — one [`hashtable::shrink_one`] scope: retire the
//!   empty top level and hole-punch its slots;
//! * **cache trim** — handing a sub-heap's cold cached blocks back to
//!   the free lists (only under pressure: trimming a warm cache costs
//!   fast-path hits), which re-arms them for merging.
//!
//! The huge region needs no active work — extent coalescing is eager up
//! to band walls on every huge free — so its unit is a read-only scan
//! that refreshes the cached largest-free-extent figure
//! ([`PoseidonHeap::huge_largest_free`]), fixing the historical wart
//! that the figure was observable only inside a
//! [`TooLarge`](crate::PoseidonError::TooLarge) failure.
//!
//! **Trigger policy** ([`PoseidonHeap::maint_needed`]): the engine
//! self-schedules from two inputs, mirroring how the growth pressure
//! flag works. A `NoSpace`/`TooLarge` failure on the alloc paths sets a
//! pressure flag (cleared by the first fully-clean maintenance pass),
//! and the always-on fragmentation accounting
//! ([`PoseidonHeap::fragmentation`]) caches watermark inputs: when a
//! quarter of the sub-heap free bytes sit in buddy pairs that could
//! merge but have not (the deferred-coalescing debt), maintenance is
//! due. [`PoseidonHeap::maint_tick`] packages the policy check and the
//! step for serving loops.

use std::sync::atomic::Ordering;
use std::time::Instant;

use crate::buddy;
use crate::defrag;
use crate::error::{OpKind, PoseidonError, Result};
use crate::hashtable;
use crate::heap::PoseidonHeap;
use crate::layout::{class_size, HUGE_EXTENT_SLOTS, NUM_CLASSES};
use crate::persist::{state, FLAG_CACHED};

/// Free-space accounting for one buddy size class of one sub-heap.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ClassFrag {
    /// The class's block size in bytes (`32 << class`).
    pub block_size: u64,
    /// Free blocks of this class (cache-withdrawn blocks excluded: they
    /// are in the cache's hands, not coalescable).
    pub free_blocks: u64,
    /// Bytes covered by those blocks.
    pub free_bytes: u64,
    /// Bytes in the largest run of *adjacent* free blocks of this class
    /// — the most this class could hand upward by coalescing in place.
    pub largest_run: u64,
    /// Bytes sitting in buddy pairs that are mergeable *right now* but
    /// not yet merged — the deferred-coalescing debt the maintenance
    /// engine retires. Exactly zero after a maintenance pass runs to
    /// completion; grows as churn strands free buddies side by side.
    pub frag_bytes: u64,
}

/// Fragmentation accounting for one sub-heap.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SubheapFrag {
    /// The sub-heap index.
    pub subheap: u16,
    /// Total free blocks on the buddy lists.
    pub free_blocks: u64,
    /// Total free bytes on the buddy lists.
    pub free_bytes: u64,
    /// Size of the largest single free block — the biggest allocation
    /// this sub-heap could serve right now without any merging.
    pub largest_block: u64,
    /// Sum of the per-class `frag_bytes` debt figures.
    pub frag_bytes: u64,
    /// Per-class breakdown (classes with no free blocks omitted).
    pub per_class: Vec<ClassFrag>,
}

/// Fragmentation accounting for the huge-object region.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HugeFrag {
    /// Free extents in the table.
    pub free_extents: u64,
    /// Bytes covered by free extents.
    pub free_bytes: u64,
    /// Largest single free extent — the biggest huge allocation that
    /// would currently succeed (the figure `TooLarge { huge_remaining }`
    /// reports at failure time, now continuously available).
    pub largest_free: u64,
    /// `free_bytes - largest_free`: huge free space unusable by a
    /// maximal request. Eager coalescing already merged what it could;
    /// what remains is split across band walls or pinned by live
    /// extents.
    pub frag_bytes: u64,
}

/// The always-on fragmentation report ([`PoseidonHeap::fragmentation`]).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FragmentationReport {
    /// Per-sub-heap accounting (uncreated/quarantined sub-heaps omitted).
    pub subheaps: Vec<SubheapFrag>,
    /// Huge-region accounting; `None` when the layout carves no huge
    /// region or recovery quarantined it.
    pub huge: Option<HugeFrag>,
}

impl FragmentationReport {
    /// Total free bytes across sub-heaps and the huge region.
    pub fn free_bytes(&self) -> u64 {
        self.subheaps.iter().map(|s| s.free_bytes).sum::<u64>() + self.huge.map_or(0, |h| h.free_bytes)
    }

    /// Total fragmentation debt (free bytes in not-yet-merged buddy
    /// pairs, summed per class) across the sub-heaps. The huge region's
    /// `frag_bytes` is *not* included: extent coalescing is eager, so
    /// its figure is pinned by live extents and band walls — real, but
    /// nothing maintenance can retire.
    pub fn frag_bytes(&self) -> u64 {
        self.subheaps.iter().map(|s| s.frag_bytes).sum::<u64>()
    }
}

/// What one [`PoseidonHeap::maint_step`] (or an accumulated
/// [`maint_until`](PoseidonHeap::maint_until) run) did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MaintStep {
    /// Unit visits (a unit may be visited more than once per step if the
    /// budget allows a full cycle).
    pub units_visited: u64,
    /// Full passes over every unit completed.
    pub passes_completed: u64,
    /// Committed units of work — never exceeds the step's budget.
    pub work_units: u64,
    /// Buddy merges committed.
    pub merges: u64,
    /// Bytes now covered by merged (doubled) blocks.
    pub bytes_coalesced: u64,
    /// Hash-table levels retired.
    pub table_levels_shrunk: u64,
    /// Table bytes hole-punched back to the device.
    pub table_bytes_released: u64,
    /// Cached blocks handed back to the free lists by trim units.
    pub cache_blocks_trimmed: u64,
    /// Huge-region scans performed (read-only; refresh the cached
    /// largest-free-extent figure).
    pub huge_scans: u64,
    /// Whether the step observed a full clean cycle: every unit visited
    /// back-to-back with no work left to do. The heap is as defragmented
    /// as buddy merging can make it.
    pub fully_defragged: bool,
}

impl MaintStep {
    /// Folds `other` (a later step) into an accumulated total.
    pub fn absorb(&mut self, other: &MaintStep) {
        self.units_visited += other.units_visited;
        self.passes_completed += other.passes_completed;
        self.work_units += other.work_units;
        self.merges += other.merges;
        self.bytes_coalesced += other.bytes_coalesced;
        self.table_levels_shrunk += other.table_levels_shrunk;
        self.table_bytes_released += other.table_bytes_released;
        self.cache_blocks_trimmed += other.cache_blocks_trimmed;
        self.huge_scans += other.huge_scans;
        self.fully_defragged = other.fully_defragged;
    }

    /// Whether the step committed any work at all.
    pub fn found_work(&self) -> bool {
        self.work_units > 0
    }
}

/// Free free-bytes floor below which the watermark trigger stays quiet:
/// defragmenting a nearly-full heap buys nothing.
const TRIGGER_MIN_FREE: u64 = 1 << 20;

impl PoseidonHeap {
    /// Computes the per-sub-heap, per-size-class fragmentation report:
    /// free blocks versus the largest coalescable run per class, plus
    /// the huge region's largest free extent. Read-only (per-sub-heap
    /// lock held briefly per sub-heap, never all at once) and
    /// proportional to the free-block count — cheap enough to poll from
    /// a serving loop at interval boundaries.
    ///
    /// As a side effect the walk refreshes the cached inputs consulted
    /// by [`maint_needed`](Self::maint_needed) and
    /// [`huge_largest_free`](Self::huge_largest_free).
    ///
    /// # Errors
    ///
    /// Device errors.
    pub fn fragmentation(&self) -> Result<FragmentationReport> {
        let mut subheaps = Vec::new();
        for sub in 0..self.layout.num_subheaps() {
            if !self.sub_usable(sub) {
                continue;
            }
            let op = self.begin_read_op(sub)?;
            let mut frag = SubheapFrag { subheap: sub, ..Default::default() };
            for k in 0..NUM_CLASSES {
                let size = class_size(k);
                let mut offsets = Vec::new();
                for rec_off in buddy::collect(&op, k)? {
                    let rec = op.entry(rec_off)?;
                    if rec.state != state::FREE || rec.flags & FLAG_CACHED != 0 {
                        continue;
                    }
                    offsets.push(rec.offset);
                }
                if offsets.is_empty() {
                    continue;
                }
                offsets.sort_unstable();
                let mut largest_run = 0u64;
                let mut run = 0u64;
                let mut expect = u64::MAX;
                for off in &offsets {
                    run = if *off == expect { run + size } else { size };
                    expect = off + size;
                    largest_run = largest_run.max(run);
                }
                // Deferred-coalescing debt: sorted neighbours that are
                // XOR-buddies (the exact predicate `merge_once` uses)
                // could merge into the next class right now. Alignment
                // makes counted pairs disjoint, so no double counting.
                let mut debt = 0u64;
                if size * 2 <= self.layout.max_alloc() {
                    for w in offsets.windows(2) {
                        if w[0] ^ size == w[1] {
                            debt += size * 2;
                        }
                    }
                }
                let free_blocks = offsets.len() as u64;
                let free_bytes = free_blocks * size;
                frag.per_class.push(ClassFrag {
                    block_size: size,
                    free_blocks,
                    free_bytes,
                    largest_run,
                    frag_bytes: debt,
                });
                frag.free_blocks += free_blocks;
                frag.free_bytes += free_bytes;
                frag.frag_bytes += debt;
                frag.largest_block = frag.largest_block.max(size);
            }
            subheaps.push(frag);
        }
        let report = FragmentationReport { subheaps, huge: self.huge_fragmentation()? };
        self.health.maint_frag_bytes.store(report.frag_bytes(), Ordering::Relaxed);
        // The watermark ratio compares debt against the free bytes the
        // engine can actually act on — sub-heap space, not huge extents.
        let sub_free: u64 = report.subheaps.iter().map(|s| s.free_bytes).sum();
        self.health.maint_free_bytes.store(sub_free, Ordering::Relaxed);
        Ok(report)
    }

    /// Scans the huge extent table read-only and refreshes the cached
    /// largest-free-extent figure. `None` when there is no (usable)
    /// huge region.
    fn huge_fragmentation(&self) -> Result<Option<HugeFrag>> {
        if self.layout.huge_data_size() == 0 || self.huge_quarantined.load(Ordering::Acquire) {
            return Ok(None);
        }
        let op = self.begin_huge_read()?;
        let mut frag = HugeFrag::default();
        for i in 0..HUGE_EXTENT_SLOTS {
            let rec = op.slot(i)?;
            if rec.state != state::FREE {
                continue;
            }
            frag.free_extents += 1;
            frag.free_bytes += rec.len;
            frag.largest_free = frag.largest_free.max(rec.len);
        }
        frag.frag_bytes = frag.free_bytes - frag.largest_free;
        self.note_huge_largest_free(frag.largest_free);
        Ok(Some(frag))
    }

    /// The largest free huge extent, from the most recent huge scan
    /// (maintenance unit, [`fragmentation`](Self::fragmentation) walk,
    /// or a `TooLarge` failure). `None` when there is no usable huge
    /// region or no scan has sampled it yet. One atomic load — this is
    /// the continuous answer to "would a huge allocation of size `s`
    /// succeed?", available *before* paying for the failure.
    pub fn huge_largest_free(&self) -> Option<u64> {
        if self.layout.huge_data_size() == 0 || self.huge_quarantined.load(Ordering::Acquire) {
            return None;
        }
        self.health
            .maint_huge_sampled
            .load(Ordering::Acquire)
            .then(|| self.health.huge_largest_free.load(Ordering::Relaxed))
    }

    /// Records a freshly observed largest-free-extent figure (huge scans
    /// and `TooLarge` failures both land here).
    pub(crate) fn note_huge_largest_free(&self, largest: u64) {
        self.health.huge_largest_free.store(largest, Ordering::Relaxed);
        self.health.maint_huge_sampled.store(true, Ordering::Release);
    }

    /// Raises the maintenance pressure flag — called by the alloc paths
    /// when space runs out, exactly like the growth pressure signal. The
    /// next fully-clean maintenance pass lowers it.
    pub(crate) fn note_space_pressure(&self) {
        self.health.maint_pressure.store(true, Ordering::Release);
    }

    /// Whether the trigger policy wants maintenance to run now: either
    /// the alloc paths signalled space pressure, or the last
    /// fragmentation sample found more than a quarter of the sub-heap
    /// free bytes sitting in mergeable-but-unmerged buddy pairs. Two
    /// atomic loads.
    pub fn maint_needed(&self) -> bool {
        if self.health.maint_pressure.load(Ordering::Acquire) {
            return true;
        }
        let free = self.health.maint_free_bytes.load(Ordering::Relaxed);
        let frag = self.health.maint_frag_bytes.load(Ordering::Relaxed);
        free >= TRIGGER_MIN_FREE && frag.saturating_mul(4) >= free
    }

    /// One self-scheduled maintenance increment: runs
    /// [`maint_step`](Self::maint_step) only when
    /// [`maint_needed`](Self::maint_needed) says the stats call for it.
    /// Serving loops call this every tick and let the trigger policy
    /// decide.
    ///
    /// # Errors
    ///
    /// As [`maint_step`](Self::maint_step).
    pub fn maint_tick(&self, budget: usize) -> Result<Option<MaintStep>> {
        if !self.maint_needed() {
            return Ok(None);
        }
        self.maint_step(budget).map(Some)
    }

    /// One budgeted maintenance increment: resumes at the engine's
    /// cursor and commits at most `budget` units of work — buddy merges,
    /// hash-table level retirements, and (under pressure) cache trims —
    /// each under its own two-fence undo scope, so a crash after any
    /// unit recovers cleanly. The huge region's unit is a read-only scan
    /// refreshing [`huge_largest_free`](Self::huge_largest_free).
    ///
    /// Returns early with `fully_defragged` set when a whole cycle over
    /// every unit found nothing left to do; that also lowers the
    /// pressure flag. Safe to call concurrently with serving traffic —
    /// each unit takes only the ordinary per-sub-heap lock for its own
    /// duration.
    ///
    /// # Errors
    ///
    /// Device errors. Media faults are attributed and quarantined
    /// through the self-healing layer (counted as scrub-path errors)
    /// before surfacing.
    pub fn maint_step(&self, budget: usize) -> Result<MaintStep> {
        match self.maint_step_inner(budget) {
            Err(e @ PoseidonError::MediaError { .. }) => {
                let (e, _) = self.heal_media_error(e, OpKind::Scrub);
                Err(e)
            }
            other => other,
        }
    }

    fn maint_step_inner(&self, budget: usize) -> Result<MaintStep> {
        let n = self.layout.num_subheaps() as u64;
        let units = n + u64::from(self.layout.huge_data_size() > 0);
        let budget = budget.max(1) as u64;
        let aggressive = self.health.maint_pressure.load(Ordering::Acquire);
        let mut step = MaintStep::default();
        let mut clean = 0u64;
        while step.work_units < budget && clean < units {
            let raw = self.health.maint_cursor.load(Ordering::Relaxed);
            let unit = raw % units;
            step.units_visited += 1;
            let left = budget - step.work_units;
            let (spent, drained) = if unit == n {
                self.maint_huge_unit(&mut step)?
            } else {
                self.maint_sub_unit(unit as u16, left, aggressive, &mut step)?
            };
            step.work_units += spent;
            clean = if spent == 0 { clean + 1 } else { 0 };
            if drained {
                // Advance past the drained unit; a concurrent engine may
                // already have moved the cursor, in which case this visit
                // simply doubled up and the cursor stays theirs.
                if self
                    .health
                    .maint_cursor
                    .compare_exchange(raw, raw + 1, Ordering::Relaxed, Ordering::Relaxed)
                    .is_ok()
                    && (raw + 1).is_multiple_of(units)
                {
                    self.health.maint_passes.fetch_add(1, Ordering::Relaxed);
                    step.passes_completed += 1;
                }
            }
        }
        step.fully_defragged = clean >= units;
        if step.fully_defragged {
            self.health.maint_pressure.store(false, Ordering::Release);
        }
        self.health.maint_steps.fetch_add(1, Ordering::Relaxed);
        self.health.maint_merges.fetch_add(step.merges, Ordering::Relaxed);
        self.health.maint_levels_shrunk.fetch_add(step.table_levels_shrunk, Ordering::Relaxed);
        self.health.maint_blocks_trimmed.fetch_add(step.cache_blocks_trimmed, Ordering::Relaxed);
        Ok(step)
    }

    /// Works sub-heap `sub` for up to `left` units. Returns the units
    /// spent and whether the unit is *drained* (nothing left that the
    /// remaining budget could not cover — i.e. the visit ended for lack
    /// of work, not lack of budget).
    fn maint_sub_unit(
        &self,
        sub: u16,
        left: u64,
        aggressive: bool,
        step: &mut MaintStep,
    ) -> Result<(u64, bool)> {
        if !self.sub_usable(sub) {
            return Ok((0, true));
        }
        let mut spent = 0u64;
        if aggressive && spent < left {
            // Trim: hand the sub-heap's cold cached blocks back to the
            // free lists so the merge scan below can coalesce them. One
            // unit when anything moved (bounded by the cache's residency,
            // which magazine capacities cap).
            let trimmed = self.evict_subheap_cache(sub)?;
            if trimmed > 0 {
                spent += 1;
                step.cache_blocks_trimmed += trimmed as u64;
            }
        }
        let op = self.begin_op(sub)?;
        let (merges, bytes) = defrag::merge_all_below(&op, NUM_CLASSES, left - spent)?;
        spent += merges;
        step.merges += merges;
        step.bytes_coalesced += bytes;
        while spent < left {
            match hashtable::shrink_one(&op)? {
                Some(bytes) => {
                    spent += 1;
                    step.table_levels_shrunk += 1;
                    step.table_bytes_released += bytes;
                }
                None => break,
            }
        }
        Ok((spent, spent < left))
    }

    /// The huge region's unit: extent coalescing is eager up to band
    /// walls on every free, so there is never merge work to commit here
    /// — the unit is a read-only scan that refreshes the cached
    /// largest-free-extent figure. Costs no budget and always drains.
    fn maint_huge_unit(&self, step: &mut MaintStep) -> Result<(u64, bool)> {
        if self.huge_fragmentation()?.is_some() {
            step.huge_scans += 1;
        }
        Ok((0, true))
    }

    /// Runs [`maint_step`](Self::maint_step) increments until the heap
    /// is fully defragged or `deadline` passes, yielding between steps.
    /// Returns the accumulated step; check its `fully_defragged` flag to
    /// see which way the run ended.
    ///
    /// [`defragment`](Self::defragment) is this without a deadline on a
    /// pressure-marked heap.
    ///
    /// # Errors
    ///
    /// As [`maint_step`](Self::maint_step).
    pub fn maint_until(&self, deadline: Instant, budget: usize) -> Result<MaintStep> {
        let mut total = MaintStep::default();
        loop {
            let step = self.maint_step(budget)?;
            total.absorb(&step);
            if step.fully_defragged || Instant::now() >= deadline {
                return Ok(total);
            }
            std::thread::yield_now();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heap::HeapConfig;
    use crate::persist::SubCtx;
    use std::sync::Arc;
    use std::time::Duration;

    use pmem::{DeviceConfig, PmemDevice};

    fn uncached_heap(subheaps: u16) -> PoseidonHeap {
        let dev = Arc::new(PmemDevice::new(DeviceConfig::new(64 << 20)));
        PoseidonHeap::open(dev, HeapConfig::new().with_subheaps(subheaps).without_cache()).unwrap()
    }

    /// Allocates a checkerboard of small blocks and frees every other
    /// one, leaving plenty of merge candidates behind once the live
    /// half is freed too.
    fn fragment(h: &PoseidonHeap) -> Vec<crate::NvmPtr> {
        let mut live = Vec::new();
        let mut hold = Vec::new();
        for i in 0..256 {
            let p = h.alloc(32 + (i % 4) * 32).unwrap();
            if i % 2 == 0 {
                hold.push(p);
            } else {
                live.push(p);
            }
        }
        for p in live {
            h.free(p).unwrap();
        }
        hold
    }

    #[test]
    fn maint_step_never_exceeds_its_budget() {
        // The acceptance pin: every step's committed work stays within
        // the budget it was given, across budgets and heap states.
        let h = uncached_heap(1);
        let hold = fragment(&h);
        for p in hold {
            h.free(p).unwrap();
        }
        for budget in [1usize, 2, 3, 5, 8] {
            loop {
                let step = h.maint_step(budget).unwrap();
                assert!(
                    step.work_units <= budget as u64,
                    "step spent {} units on a budget of {budget}",
                    step.work_units
                );
                if step.fully_defragged {
                    break;
                }
            }
            // Re-fragment so the next budget has work to do.
            let hold = fragment(&h);
            for p in hold {
                h.free(p).unwrap();
            }
        }
        h.audit().unwrap();
    }

    #[test]
    fn maint_until_converges_to_defragmented() {
        let h = uncached_heap(2);
        let hold = fragment(&h);
        for p in hold {
            h.free(p).unwrap();
        }
        let before = h.fragmentation().unwrap();
        let total = h.maint_until(Instant::now() + Duration::from_secs(30), 4).unwrap();
        assert!(total.fully_defragged, "maint_until hit the deadline instead of converging");
        assert!(total.merges > 0, "a fragmented heap must yield merges");
        let after = h.fragmentation().unwrap();
        assert!(
            after.frag_bytes() < before.frag_bytes(),
            "fragmentation did not drop: {} -> {}",
            before.frag_bytes(),
            after.frag_bytes()
        );
        assert_eq!(after.frag_bytes(), 0, "a converged heap must owe no coalescing debt");
        h.audit().unwrap();
    }

    #[test]
    fn fragmentation_agrees_with_the_audit() {
        let h = uncached_heap(2);
        let _hold = fragment(&h);
        let frag = h.fragmentation().unwrap();
        let audit = h.audit().unwrap();
        let audit_free: u64 = audit.iter().map(|(_, a)| a.free_bytes).sum();
        assert_eq!(frag.free_bytes(), audit_free + frag.huge.map_or(0, |f| f.free_bytes));
        for s in &frag.subheaps {
            let (_, a) = audit.iter().find(|(sub, _)| *sub == s.subheap).unwrap();
            assert_eq!(s.free_bytes, a.free_bytes, "sub {} free bytes disagree", s.subheap);
            assert!(s.frag_bytes <= s.free_bytes);
            for c in &s.per_class {
                assert!(c.largest_run >= c.block_size);
                assert!(c.largest_run <= c.free_bytes);
            }
        }
    }

    #[test]
    fn huge_largest_free_is_continuously_exposed() {
        // The satellite fix: the figure TooLarge reports at failure time
        // is now readable at any time, and tracks the huge audit.
        let h = uncached_heap(2);
        assert!(h.layout().huge_data_size() > 0, "test device must carve a huge region");
        assert_eq!(h.huge_largest_free(), None, "unsampled figure must read None");
        h.fragmentation().unwrap();
        let audit = h.huge_audit().unwrap().unwrap();
        assert_eq!(h.huge_largest_free(), Some(audit.largest_free));
        // Carve a huge allocation and re-sample via a maintenance step:
        // the cached figure follows.
        let p = h.alloc(h.layout().max_alloc() + 1).unwrap();
        let mut step = MaintStep::default();
        while step.huge_scans == 0 {
            step.absorb(&h.maint_step(8).unwrap());
        }
        let audit = h.huge_audit().unwrap().unwrap();
        assert_eq!(h.huge_largest_free(), Some(audit.largest_free));
        h.free(p).unwrap();
    }

    #[test]
    fn maintenance_drives_table_shrink_starved_by_cached_frees() {
        // The satellite fix for the PR 3 shrink probe: when frees land
        // only on the cached fast path, free_slow never runs and an
        // empty top level stays active indefinitely. The maintenance
        // engine must retire it. Stage the empty-but-active top level by
        // hand (unprotected heap so the test can write metadata
        // directly), mirroring shrink_runs_on_free_not_on_alloc.
        let dev = Arc::new(PmemDevice::new(DeviceConfig::new(64 << 20)));
        let h = PoseidonHeap::open(dev, HeapConfig::new().with_subheaps(2).without_protection()).unwrap();
        let p = h.alloc(64).unwrap(); // creates sub-heap 0, warms the magazine
        let ctx = SubCtx { dev: h.device(), layout: h.layout(), sub: 0 };
        h.device().write_pod(ctx.active_levels_off(), &2u64).unwrap();
        h.device().write_pod(ctx.level_count_off(1), &0u64).unwrap();

        // A cached free: absorbed by the magazine, shrink probe starved.
        h.free(p).unwrap();
        assert_eq!(
            h.device().read_pod::<u64>(ctx.active_levels_off()).unwrap(),
            2,
            "cached fast-path free must not have probed the table (else this pins nothing)"
        );

        let mut total = MaintStep::default();
        loop {
            let step = h.maint_step(4).unwrap();
            total.absorb(&step);
            if step.fully_defragged {
                break;
            }
        }
        assert!(total.table_levels_shrunk >= 1, "maintenance did not retire the empty level");
        assert_eq!(
            h.device().read_pod::<u64>(ctx.active_levels_off()).unwrap(),
            1,
            "empty top level still active after maintenance"
        );
        assert!(h.health().maint_table_levels_shrunk >= 1);
    }

    #[test]
    fn pressure_trims_the_cache_and_clears_on_clean_pass() {
        let dev = Arc::new(PmemDevice::new(DeviceConfig::new(64 << 20)));
        let h = PoseidonHeap::open(dev, HeapConfig::new().with_subheaps(1)).unwrap();
        // Park freed blocks in the magazines.
        let ptrs: Vec<_> = (0..32).map(|_| h.alloc(64).unwrap()).collect();
        for p in ptrs {
            h.free(p).unwrap();
        }
        assert!(!h.maint_needed());
        h.note_space_pressure();
        assert!(h.maint_needed(), "pressure must schedule maintenance");
        let mut total = MaintStep::default();
        loop {
            let step = h.maint_step(16).unwrap();
            total.absorb(&step);
            if step.fully_defragged {
                break;
            }
        }
        assert!(total.cache_blocks_trimmed > 0, "pressure pass must trim the cold cache");
        assert!(!h.maint_needed(), "a clean pass must lower the pressure flag");
        h.audit().unwrap();
    }
}
