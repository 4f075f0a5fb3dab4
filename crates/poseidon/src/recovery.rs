//! Heap recovery (§5.1, §5.8) with media-error degradation.
//!
//! On load, every log is checked: a non-empty undo log means an operation
//! was interrupted and is rolled back; a non-empty micro log means a
//! transaction never committed and its allocations are freed. Both
//! replays are idempotent, so a crash *during* recovery simply replays
//! again — undo restoration rewrites the same old bytes, and micro-log
//! frees of already-freed blocks are rejected as double frees and
//! skipped.
//!
//! Recovery also degrades gracefully under uncorrectable media errors:
//! the superblock undo log is the only hard dependency (it guards the
//! root pointer — poison there fails the load with a typed
//! [`PoseidonError::MediaError`]). Each sub-heap is salvaged
//! independently: if its metadata region is poison-free and its logs
//! replay cleanly, only the *free blocks* overlapping poisoned user
//! lines are quarantined; otherwise the whole sub-heap is quarantined
//! (volatile — the heap refuses to operate on it until `pfsck --repair`
//! rebuilds its metadata) and the rest of the heap loads normally.
//!
//! The undo replay itself stays *device-backed* (it must work before any
//! session state exists); everything after it runs through one
//! [`OpSession`] per sub-heap, so the whole salvage of a sub-heap costs a
//! single metadata-range validation.

use pmem::PmemDevice;

use crate::error::{OpKind, PoseidonError, Result};
use crate::hugeregion::{self, HUGE_SUBHEAP};
use crate::layout::HeapLayout;
use crate::microlog;
use crate::persist::{HugeCtx, SubCtx};
use crate::quarantine;
use crate::session::OpSession;
use crate::subheap;
use crate::superblock;
use crate::undo;

/// What recovery found and repaired.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RecoveryReport {
    /// Whether the superblock undo log was replayed.
    pub superblock_undo_replayed: bool,
    /// Number of sub-heap undo logs replayed.
    pub subheap_undos_replayed: u32,
    /// Allocations freed from uncommitted transactions (micro logs).
    pub tx_allocations_reverted: u32,
    /// Sub-heaps quarantined wholesale (poisoned metadata or an
    /// unreadable log); their blocks are frozen until `pfsck --repair`.
    pub subheaps_quarantined: u32,
    /// Blocks the transient caching layer had withdrawn from the free
    /// lists when the previous session ended; recovery relinks them (they
    /// stayed `FREE` on media by construction, so nothing is lost).
    pub cached_blocks_reclaimed: u64,
    /// Free blocks individually quarantined on otherwise-healthy
    /// sub-heaps because their user bytes overlap poisoned lines.
    pub blocks_quarantined: u64,
    /// Bytes covered by the individually quarantined blocks.
    pub bytes_quarantined: u64,
    /// Whether the huge region's undo log was replayed.
    pub huge_undo_replayed: bool,
    /// Whether the whole huge region was quarantined (poisoned or
    /// unvalidatable extent-table metadata); huge allocation is refused
    /// until `pfsck --repair` rebuilds it.
    pub huge_region_quarantined: bool,
    /// Free huge extents converted to quarantined ones because their
    /// data pages overlap poisoned lines.
    pub huge_extents_quarantined: u64,
    /// Bytes covered by the quarantined huge extents.
    pub huge_bytes_quarantined: u64,
    /// Huge-region bytes whose bookkeeping recovery completed because a
    /// crash tore a [`grow`](crate::PoseidonHeap::grow) between its epoch
    /// commit and the band's extent-table entry (0 on a clean open).
    pub huge_bytes_materialised: u64,
}

impl RecoveryReport {
    /// Whether the previous session ended in a crash mid-operation.
    pub fn crash_detected(&self) -> bool {
        self.superblock_undo_replayed
            || self.subheap_undos_replayed > 0
            || self.tx_allocations_reverted > 0
            || self.huge_undo_replayed
    }

    /// Whether recovery had to quarantine anything (media damage).
    pub fn media_damage_detected(&self) -> bool {
        self.subheaps_quarantined > 0
            || self.blocks_quarantined > 0
            || self.huge_region_quarantined
            || self.huge_extents_quarantined > 0
    }
}

/// Runs full recovery. The caller holds the MPK write guard (§5.1 grants
/// write access to metadata for the duration of recovery). Returns the
/// report and the indices of wholesale-quarantined sub-heaps.
pub(crate) fn recover(dev: &PmemDevice, layout: &HeapLayout) -> Result<(RecoveryReport, Vec<u16>)> {
    let mut report = RecoveryReport::default();
    let poison = dev.scrub();
    // The superblock undo log protects the root pointer and the heap's
    // identity: poison here is unrecoverable in-process, so the typed
    // media error propagates and the load fails.
    report.superblock_undo_replayed = undo::replay(dev, superblock::undo_area())?;
    // The huge region recovers *before* the sub-heaps: a transactional
    // huge allocation logs its micro-log words in the *huge* undo log
    // (one atomic scope spanning extent table and micro slot), so that
    // replay must land before any sub-heap walks its micro logs.
    let mut huge_ok = false;
    if layout.huge_data_size() > 0 {
        let hctx = HugeCtx { dev, layout };
        let salvage = if quarantine::overlaps_any(&poison, hctx.meta_base(), layout.huge_meta_size()) {
            // Same policy as a poisoned sub-heap: a half-readable extent
            // table is worse than a frozen one.
            Err(PoseidonError::MediaError { offset: hctx.meta_base(), during: OpKind::Recovery })
        } else {
            hugeregion::validate(&hctx).and_then(|()| {
                if undo::replay(dev, hctx.undo_area())? {
                    report.huge_undo_replayed = true;
                }
                Ok(())
            })
        };
        match salvage {
            Ok(()) => {
                huge_ok = true;
                let op = OpSession::unguarded(HugeCtx { dev, layout })?;
                // A crash between a grow's epoch commit and its huge-band
                // bookkeeping leaves the committed layout ahead of the
                // extent table; finish the (idempotent) completion here so
                // the torn grow fully applies.
                report.huge_bytes_materialised = hugeregion::extend_to_layout(&op)?;
                if !poison.is_empty() {
                    let (extents, bytes) = hugeregion::quarantine_poisoned(&op, &poison)?;
                    report.huge_extents_quarantined += extents;
                    report.huge_bytes_quarantined += bytes;
                }
            }
            Err(PoseidonError::MediaError { .. }) | Err(PoseidonError::Corrupted(_)) => {
                report.huge_region_quarantined = true;
            }
            Err(e) => return Err(e),
        }
    }
    let mut quarantined_subs = Vec::new();
    for sub in 0..layout.num_subheaps() {
        let ctx = SubCtx { dev, layout, sub };
        let dir_state = superblock::dir_entry(dev, sub)?.state;
        if dir_state == superblock::DIR_QUARANTINED {
            // The previous session condemned this sub-heap online (live
            // media fault) and committed the verdict to the directory.
            // Honour it without touching the damaged region — and without
            // clearing its poison, which `pfsck --repair` uses to decide
            // what to rebuild.
            report.subheaps_quarantined += 1;
            quarantined_subs.push(sub);
            continue;
        }
        if dir_state != 1 {
            // Not (yet) published: the crash may have hit mid-creation,
            // after metadata lines were written — and possibly poisoned —
            // but before the directory entry committed. Nothing in here is
            // reachable, so scrub the poison away; a later fresh claim
            // must start from clean media or its re-initialising plain
            // writes would leave live poison under the new structures.
            if quarantine::overlaps_any(&poison, ctx.meta_base(), layout.meta_size) {
                dev.clear_poison(ctx.meta_base(), layout.meta_size)?;
            }
            if quarantine::overlaps_any(&poison, ctx.user_base(), layout.user_size) {
                dev.clear_poison(ctx.user_base(), layout.user_size)?;
            }
            continue;
        }
        let meta_poisoned = quarantine::overlaps_any(&poison, ctx.meta_base(), layout.meta_size);
        // One session per sub-heap: the metadata range is validated once
        // and every replay/quarantine word access below goes through it.
        let salvage = if meta_poisoned {
            // Don't even try: metadata reads could fail at any later
            // operation, and a half-replayed log is worse than none.
            Err(PoseidonError::MediaError { offset: ctx.meta_base(), during: OpKind::Recovery })
        } else {
            OpSession::unguarded(ctx).and_then(|op| {
                recover_sub(&op, huge_ok, &mut report)?;
                Ok(op)
            })
        };
        match salvage {
            Ok(op) => {
                let (blocks, bytes) = quarantine::isolate_poisoned_free_blocks(&op, &poison)?;
                report.blocks_quarantined += blocks;
                report.bytes_quarantined += bytes;
            }
            Err(PoseidonError::MediaError { .. }) => {
                report.subheaps_quarantined += 1;
                quarantined_subs.push(sub);
            }
            Err(e) => return Err(e),
        }
    }
    Ok((report, quarantined_subs))
}

/// Replays one sub-heap's undo and micro logs. `huge_ok` says whether
/// the huge region was salvaged, i.e. whether micro-log entries carrying
/// the [`HUGE_SUBHEAP`] sentinel can be freed through it.
fn recover_sub(op: &OpSession<'_>, huge_ok: bool, report: &mut RecoveryReport) -> Result<()> {
    // The undo replay reads the log directly from the device: it is the
    // recovery oracle and must see exactly the persisted bytes, with no
    // session state in between.
    if undo::replay(op.ctx.dev, op.ctx.undo_area())? {
        report.subheap_undos_replayed += 1;
    }
    // Free every address an uncommitted transaction logged (§4.5) —
    // any non-empty slot belongs to a transaction that never committed.
    // When the huge region is quarantined a huge extent is leaked (stays
    // marked allocated, and the slot truncation drops the entry) rather
    // than risking a stale free after `pfsck --repair` rebuilds the table.
    let hctx = HugeCtx { dev: op.ctx.dev, layout: op.ctx.layout };
    let free_huge = |offset: u64| -> Result<bool> {
        if !huge_ok {
            return Ok(false);
        }
        hugeregion::free(&OpSession::unguarded(hctx)?, offset).map(|_| true)
    };
    for slot in microlog::all_slots() {
        revert_tx(op, slot, free_huge, report)?;
    }
    // The transient cache did not survive the restart: relink every
    // record it had withdrawn (FREE + FLAG_CACHED) before the poison scan
    // below, so a reclaimed block overlapping a poisoned line is
    // quarantined like any other free block.
    report.cached_blocks_reclaimed += subheap::reclaim_cached(op)?;
    Ok(())
}

/// The one micro-log revert, run by recovery and by
/// [`tx_abort`](crate::PoseidonHeap::tx_abort): frees every block logged
/// in `slot` through [`subheap::free_block`] and hands each huge extent
/// to `free_huge` (which says whether it freed one), skips entries an
/// interrupted earlier revert already freed, and truncates a non-empty
/// slot. Tallies into `report`'s reverted and quarantine fields.
///
/// # Errors
///
/// [`PoseidonError::Corrupted`] for an entry naming another sub-heap,
/// or device errors.
pub(crate) fn revert_tx(
    op: &OpSession<'_>,
    slot: usize,
    free_huge: impl Fn(u64) -> Result<bool>,
    report: &mut RecoveryReport,
) -> Result<()> {
    let pending = microlog::entries(op, slot)?;
    if pending.is_empty() {
        return Ok(());
    }
    for ptr in pending {
        let freed = if ptr.subheap() == HUGE_SUBHEAP && op.ctx.layout.huge_data_size() > 0 {
            free_huge(ptr.offset())
        } else if ptr.subheap() != op.ctx.sub {
            return Err(PoseidonError::Corrupted("micro-log entry for a foreign sub-heap"));
        } else {
            subheap::free_block(op, ptr.offset()).map(|(blocks, bytes)| {
                report.blocks_quarantined += blocks;
                report.bytes_quarantined += bytes;
                true
            })
        };
        match freed {
            Ok(true) => report.tx_allocations_reverted += 1,
            Ok(false) | Err(PoseidonError::DoubleFree { .. }) | Err(PoseidonError::InvalidFree { .. }) => {}
            Err(e) => return Err(e),
        }
    }
    microlog::truncate(op, slot)
}
