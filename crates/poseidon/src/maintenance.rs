//! The background engine: one budgeted cursor over the heap's units that
//! drives both the scrubber and incremental defragmentation.
//!
//! The whole-heap [`defragment`](PoseidonHeap::defragment) pass is a
//! stop-the-world affair — unusable inside a serving loop — and so is a
//! full poison sweep. Both are broken into *unit visits* on one engine:
//! a session-persistent cursor walks the unit partition (each sub-heap,
//! then the huge region) and a *step* visits at most one cycle of units
//! from the cursor, stopping once its budget is spent. Each kind hands
//! the step loop its unit visit and the loop never branches on its
//! caller:
//!
//! * the scrub visit ([`PoseidonHeap::scrub_step`], in `selfheal`) costs
//!   one budget unit per unit visited;
//! * the maintenance visit ([`PoseidonHeap::maint_step`]) costs one
//!   budget unit per committed operation, and a clean visit is free.
//!
//! Only a visit that finishes its unit advances the cursor, so a
//! maintenance visit cut short by its budget resumes where it stopped.
//! Every step returns the same report, [`MaintStep`].
//!
//! A maintenance operation is one committed metadata operation under the
//! ordinary two-fence undo discipline, so a crash after any of them
//! recovers exactly like a crash after any alloc or free:
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
//! to band walls on every huge free — so its maintenance visit is a
//! read-only scan that refreshes the cached largest-free-extent figure
//! ([`PoseidonHeap::huge_largest_free`]).
//!
//! **Trigger policy** ([`PoseidonHeap::maint_needed`]): maintenance
//! self-schedules from two inputs, mirroring how the growth pressure
//! flag works. A `NoSpace`/`TooLarge` failure on the alloc paths sets a
//! pressure flag, and the always-on fragmentation accounting
//! ([`PoseidonHeap::fragmentation`]) caches watermark inputs: when a
//! quarter of the sub-heap free bytes sit in buddy pairs that could
//! merge but have not (the deferred-coalescing debt), maintenance is
//! due. A step that visits every unit and finds no work proves the debt
//! is zero, so it lowers both the pressure flag and the cached debt.
//! [`PoseidonHeap::maint_tick`] packages the policy check and the step
//! for serving loops.

use std::sync::atomic::Ordering;

use crate::buddy;
use crate::defrag;
use crate::error::{OpKind, Result};
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

/// One unit of the engine's partition: each sub-heap, then the huge
/// region (when the layout carves one).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Unit {
    Sub(u16),
    Huge,
}

/// What one engine step — [`PoseidonHeap::scrub_step`] or
/// [`PoseidonHeap::maint_step`] — did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MaintStep {
    /// Units visited — at most one cycle over every unit.
    pub units_visited: u64,
    /// Full passes over every unit completed.
    pub passes_completed: u64,
    /// Budget spent — never exceeds the step's budget: committed
    /// operations on a maintenance step, units visited on a scrub step.
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
    /// Sub-heaps the scrubber condemned wholesale (metadata poison found,
    /// or the block walk itself faulted).
    pub subheaps_condemned: u64,
    /// Free blocks the scrubber promoted to `QUARANTINED`.
    pub blocks_quarantined: u64,
    /// Bytes covered by the promoted blocks and extents.
    pub bytes_quarantined: u64,
    /// Huge extents the scrubber promoted to `QUARANTINED`.
    pub extents_quarantined: u64,
    /// Whether the scrubber quarantined the huge region wholesale.
    pub huge_region_quarantined: bool,
    /// Whether the step visited every unit and none had work: the heap is
    /// as defragmented as buddy merging can make it. Never set on a scrub
    /// step, whose visits always cost budget.
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
        self.subheaps_condemned += other.subheaps_condemned;
        self.blocks_quarantined += other.blocks_quarantined;
        self.bytes_quarantined += other.bytes_quarantined;
        self.extents_quarantined += other.extents_quarantined;
        self.huge_region_quarantined |= other.huge_region_quarantined;
        self.fully_defragged = other.fully_defragged;
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
    /// next fully-defragged maintenance step lowers it.
    pub(crate) fn note_space_pressure(&self) {
        self.health.maint_pressure.store(true, Ordering::Release);
    }

    /// Whether the trigger policy wants maintenance to run now: either
    /// the alloc paths signalled space pressure, or the last
    /// fragmentation sample found more than a quarter of the sub-heap
    /// free bytes sitting in mergeable-but-unmerged buddy pairs and no
    /// fully-defragged step has retired that debt since. Two atomic
    /// loads.
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

    /// The engine's step loop, shared by [`scrub_step`](Self::scrub_step)
    /// and [`maint_step`](Self::maint_step): visits at most one cycle of
    /// units from the cursor and stops once `budget` is spent. `visit`
    /// works one unit on the budget left and returns what it spent and
    /// whether it finished the unit; only a finished visit advances the
    /// cursor, so an unfinished one resumes there on the next step.
    pub(crate) fn engine_step(
        &self,
        budget: usize,
        mut visit: impl FnMut(Unit, u64, &mut MaintStep) -> Result<(u64, bool)>,
    ) -> Result<MaintStep> {
        let n = self.layout.num_subheaps() as u64;
        let units = n + u64::from(self.layout.huge_data_size() > 0);
        let budget = budget.max(1) as u64;
        let mut step = MaintStep::default();
        while step.units_visited < units && step.work_units < budget {
            let raw = self.health.cursor.load(Ordering::Relaxed);
            let unit = match raw % units {
                i if i == n => Unit::Huge,
                i => Unit::Sub(i as u16),
            };
            step.units_visited += 1;
            let (spent, finished) = visit(unit, budget - step.work_units, &mut step)?;
            step.work_units += spent;
            // A concurrent step may already have moved the cursor on, in
            // which case this visit simply doubled up and the cursor stays
            // theirs.
            if finished
                && self
                    .health
                    .cursor
                    .compare_exchange(raw, raw + 1, Ordering::Relaxed, Ordering::Relaxed)
                    .is_ok()
                && (raw + 1).is_multiple_of(units)
            {
                self.health.passes.fetch_add(1, Ordering::Relaxed);
                step.passes_completed += 1;
            }
        }
        step.fully_defragged = step.units_visited == units && step.work_units == 0;
        Ok(step)
    }

    /// One budgeted maintenance step: resumes at the engine's cursor and
    /// commits at most `budget` operations — buddy merges, hash-table
    /// level retirements, and (under pressure) cache trims — each under
    /// its own two-fence undo scope, so a crash after any of them
    /// recovers cleanly. The huge region's visit is a read-only scan
    /// refreshing [`huge_largest_free`](Self::huge_largest_free).
    ///
    /// Sets `fully_defragged` when the step visited every unit and found
    /// nothing to do; that lowers the pressure flag and the cached
    /// coalescing debt. Safe to call concurrently with serving traffic —
    /// each visit takes only the ordinary per-sub-heap lock for its own
    /// duration.
    ///
    /// # Errors
    ///
    /// Device errors. Media faults are attributed and quarantined
    /// through the self-healing layer (counted as scrub-path errors)
    /// before surfacing.
    pub fn maint_step(&self, budget: usize) -> Result<MaintStep> {
        let aggressive = self.health.maint_pressure.load(Ordering::Acquire);
        let step = self
            .engine_step(budget, |unit, left, step| match unit {
                Unit::Sub(sub) => self.maint_sub_visit(sub, left, aggressive, step),
                Unit::Huge => self.maint_huge_visit(step),
            })
            .map_err(|e| self.heal_media_error(e, OpKind::Scrub).0)?;
        if step.fully_defragged {
            // A clean cycle proves the debt is zero: nothing is left for
            // the pressure flag or the last fragmentation sample to ask for.
            self.health.maint_pressure.store(false, Ordering::Release);
            self.health.maint_frag_bytes.store(0, Ordering::Relaxed);
        }
        self.health.maint_steps.fetch_add(1, Ordering::Relaxed);
        self.health.maint_merges.fetch_add(step.merges, Ordering::Relaxed);
        self.health.maint_levels_shrunk.fetch_add(step.table_levels_shrunk, Ordering::Relaxed);
        self.health.maint_blocks_trimmed.fetch_add(step.cache_blocks_trimmed, Ordering::Relaxed);
        Ok(step)
    }

    /// Works sub-heap `sub` for up to `left` operations. Returns the
    /// operations committed and whether the visit finished the unit (it
    /// ended for lack of work, not lack of budget).
    fn maint_sub_visit(
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
            // operation when anything moved (bounded by the cache's
            // residency, which magazine capacities cap).
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

    /// The huge region's visit: extent coalescing is eager up to band
    /// walls on every free, so there is never merge work to commit here
    /// — the visit is a read-only scan that refreshes the cached
    /// largest-free-extent figure. Free, and always finishes.
    fn maint_huge_visit(&self, step: &mut MaintStep) -> Result<(u64, bool)> {
        if self.huge_fragmentation()?.is_some() {
            step.huge_scans += 1;
        }
        Ok((0, true))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heap::HeapConfig;
    use crate::persist::SubCtx;
    use crate::quarantine::overlaps_any;
    use std::sync::Arc;

    use pmem::numa::CpuPinGuard;
    use pmem::{DeviceConfig, PmemDevice};

    fn uncached_heap(subheaps: u16) -> PoseidonHeap {
        let dev = Arc::new(PmemDevice::new(DeviceConfig::new(64 << 20)));
        PoseidonHeap::open(dev, HeapConfig::new().with_subheaps(subheaps).without_cache()).unwrap()
    }

    /// Units in the engine's partition: each sub-heap, plus the huge region.
    fn unit_count(h: &PoseidonHeap) -> u64 {
        u64::from(h.layout().num_subheaps()) + u64::from(h.layout().huge_data_size() > 0)
    }

    /// Steps maintenance on `budget` until a step reports
    /// `fully_defragged`, returning the accumulated tallies.
    fn converge(h: &PoseidonHeap, budget: usize) -> MaintStep {
        let mut total = MaintStep::default();
        for _ in 0..100_000 {
            let step = h.maint_step(budget).unwrap();
            total.absorb(&step);
            if step.fully_defragged {
                return total;
            }
        }
        panic!("maintenance never converged");
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
                assert!(step.units_visited <= unit_count(&h), "step visited more than one cycle");
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
    fn maint_steps_converge_to_defragmented() {
        let h = uncached_heap(2);
        let hold = fragment(&h);
        for p in hold {
            h.free(p).unwrap();
        }
        let before = h.fragmentation().unwrap();
        let total = converge(&h, 4);
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
    fn converged_maintenance_lowers_the_stale_watermark() {
        // Regression: maint_needed() read the debt cached by the last
        // fragmentation() sample, and nothing lowered it when the engine
        // retired that debt, so a converged engine kept running full
        // no-op steps until the next sample.
        let h = uncached_heap(1);
        let mut blocks = Vec::new();
        while let Ok(p) = h.alloc(4096) {
            blocks.push(p);
        }
        for p in blocks {
            h.free(p).unwrap();
        }
        assert!(h.fragmentation().unwrap().frag_bytes() > 0);
        assert!(h.maint_needed(), "the freed heap must trip the watermark");
        loop {
            let step = h.maint_tick(64).unwrap().expect("the trigger must hold until the engine converges");
            if step.fully_defragged {
                break;
            }
        }
        assert!(!h.maint_needed(), "a converged engine must not keep stepping on a stale watermark");
        assert_eq!(h.maint_tick(64).unwrap(), None);
        assert_eq!(h.fragmentation().unwrap().frag_bytes(), 0);
    }

    #[test]
    fn an_unfinished_visit_holds_the_cursor() {
        // A visit cut short by its budget must resume on the same unit:
        // one-operation steps on a sub-heap with debt never move the
        // cursor until the sub-heap is done.
        let h = uncached_heap(2);
        let hold = fragment(&h);
        for p in hold {
            h.free(p).unwrap();
        }
        for _ in 0..8 {
            let step = h.maint_step(1).unwrap();
            assert_eq!((step.work_units, step.units_visited), (1, 1));
        }
        assert_eq!(h.health.cursor.load(Ordering::Relaxed), 0, "an unfinished visit advanced the cursor");
        assert_eq!(h.health().passes, 0);
    }

    #[test]
    fn a_scrub_step_visits_at_most_one_cycle() {
        // The scrub budget counts units visited: the time-to-detect
        // ablation and the robustness sweeps' "full pass" rely on it.
        let h = uncached_heap(3);
        let units = unit_count(&h);
        let step = h.scrub_step(usize::MAX).unwrap();
        assert_eq!((step.units_visited, step.work_units, step.passes_completed), (units, units, 1));
        let step = h.scrub_step(2).unwrap();
        assert_eq!((step.units_visited, step.work_units, step.passes_completed), (2, 2, 0));
        assert!(!step.fully_defragged, "a scrub step never reports a clean maintenance cycle");
        assert_eq!((h.health().passes, h.health().scrub_steps), (1, 2));
    }

    /// Free-list blocks of the usable sub-heaps whose bytes overlap a
    /// poisoned line.
    fn poisoned_free_blocks(h: &PoseidonHeap) -> usize {
        let poison = h.device().scrub();
        let mut hits = 0;
        for sub in (0..h.layout().num_subheaps()).filter(|&sub| h.sub_usable(sub)) {
            let op = h.begin_read_op(sub).unwrap();
            for k in 0..NUM_CLASSES {
                for rec_off in buddy::collect(&op, k).unwrap() {
                    let rec = op.entry(rec_off).unwrap();
                    hits +=
                        usize::from(overlaps_any(&poison, h.layout().user_base(sub) + rec.offset, rec.size));
                }
            }
        }
        hits
    }

    #[test]
    fn interleaved_scrub_and_maintenance_starve_neither() {
        // Scrub and maintenance steps share one cursor: alternate
        // one-unit steps of each on a heap carrying both poisoned free
        // blocks and coalescing debt, and both kinds must finish.
        let dev = Arc::new(PmemDevice::new(DeviceConfig::new(64 << 20)));
        let h = PoseidonHeap::open(dev.clone(), HeapConfig::new().with_subheaps(2).without_cache()).unwrap();
        let mut victims = Vec::new();
        for cpu in 0..2 {
            let _pin = CpuPinGuard::pin(cpu);
            let hold = fragment(&h);
            victims.extend(hold.iter().step_by(16).map(|&p| h.raw_offset(p).unwrap()));
            for p in hold {
                h.free(p).unwrap();
            }
        }
        for &raw in &victims {
            dev.poison(raw, 1).unwrap();
        }
        // A poisoned line may cover more than one small free block.
        assert!(poisoned_free_blocks(&h) >= victims.len());
        assert!(h.fragmentation().unwrap().frag_bytes() > 0);
        let mut rounds = 0;
        loop {
            h.scrub_step(1).unwrap();
            if h.maint_step(1).unwrap().fully_defragged && poisoned_free_blocks(&h) == 0 {
                break;
            }
            rounds += 1;
            assert!(rounds < 100_000, "interleaved steps starved one kind");
        }
        assert!(h.health().blocks_quarantined_live > 0);
        assert_eq!(h.health().quarantined_subheaps, 0);
        assert_eq!(h.fragmentation().unwrap().frag_bytes(), 0);
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

        let total = converge(&h, 4);
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
        let total = converge(&h, 16);
        assert!(total.cache_blocks_trimmed > 0, "pressure pass must trim the cold cache");
        assert!(!h.maint_needed(), "a clean pass must lower the pressure flag");
        h.audit().unwrap();
    }
}
