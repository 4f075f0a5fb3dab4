//! Offline repair of media-damaged heaps — the engine behind
//! `pfsck --repair`.
//!
//! Load-time recovery (see `recovery.rs`) degrades gracefully: it
//! quarantines what it cannot trust and keeps the heap running. Repair is
//! the offline counterpart that makes the damage go away: it scrubs
//! poisoned *metadata* lines (clearing poison zero-fills the line, as an
//! address-range-scrub clear does), rebuilds what the zeroed bytes
//! destroyed, and leaves a heap that loads with no sub-heap quarantined
//! wholesale.
//!
//! The pass, in order:
//!
//! 1. **Superblock.** The header lines (identity, geometry, root pointer)
//!    are the only unrepairable state: if they are poisoned the root
//!    object is lost and repair fails with
//!    [`PoseidonError::MediaError`]. Poisoned directory lines are
//!    scrubbed and every entry they held is reconstructed from the
//!    corresponding sub-heap header's magic (a *poisoned* header also
//!    implies "created" — poison only lands on written lines, and a
//!    never-created sub-heap's metadata is never written). The
//!    superblock undo log is scrubbed — zeroed lines fail entry
//!    validation, truncating the log — and replayed.
//! 2. **Each created sub-heap** — including those the online
//!    self-healing path condemned wholesale (directory state
//!    `DIR_QUARANTINED`): they are rebuilt like any other and their
//!    directory verdict is reset, lifting the quarantine on next load.
//!    * The header page is scrubbed; a destroyed header is rebuilt from
//!      the directory, and its undo log is then discarded wholesale —
//!      the log generation was lost with the header, and replaying
//!      entries of an unknown generation could roll back long-committed
//!      operations.
//!    * The micro-log area is scrubbed; any slot that lost a line has
//!      its count reset (a zeroed entry would otherwise "free" pointer
//!      zero on the next load, hitting whatever block lives at offset 0).
//!    * The hash-table area is scrubbed; destroyed entries in active
//!      levels are rewritten as tombstones — never left `EMPTY`, which
//!      would truncate probe chains and lose every record behind them.
//!    * The undo log (when its generation survived) is scrubbed and
//!      replayed, rolling back the operation the media error
//!      interrupted.
//!    * Level live counts and every buddy free list are rebuilt
//!      wholesale from the surviving records: FREE blocks overlapping
//!      user-region poison become QUARANTINED, QUARANTINED blocks whose
//!      poison has been cleared return to FREE, and the rest are
//!      relinked in table order (tombstoning tears lists apart, so a
//!      full rebuild is the only safe reconstruction).
//!
//! User-region poison is deliberately **not** scrubbed: allocated blocks
//! may hold the application's only copy of that data, and zero-filling
//! it would turn a detectable error into silent corruption. The poison
//! stays, the overlapping free blocks stay quarantined, and reads of the
//! bad lines keep failing with the typed error until the operator clears
//! them.
//!
//! Repair runs no undo sessions of its own — every write is direct — so
//! it is idempotent by re-execution: a crash mid-repair is handled by
//! simply running repair again. It must run *offline* (no heap open on
//! the device; an open heap's MPK tags would fault the writes). Records
//! destroyed by poison leak the bytes they covered — with no record
//! there is no merge partner — which the audit tolerates as a coverage
//! hole.

use pmem::{PmemDevice, CACHE_LINE_SIZE, PAGE_SIZE};

use crate::error::{PoseidonError, Result};
use crate::layout::{
    class_for_size, HeapLayout, ENTRY_SIZE, HUGE_EXTENT_SLOTS, HUGE_UNDO_OFF, HUGE_UNDO_SIZE, MAX_LEVELS,
    MICRO_SLOT_BYTES, NUM_CLASSES, SB_DIR_OFF, SB_EPOCHS_OFF, SB_REGION_SIZE, SB_UNDO_SIZE, SH_MICRO_OFF,
    SH_MICRO_SIZE, SH_TABLE_OFF, SH_UNDO_OFF, SH_UNDO_SIZE,
};
use crate::microlog;
use crate::persist::{
    state, ExtentRecord, HashEntry, HugeCtx, HugeHeader, SubCtx, SubheapHeader, FORMAT_VERSION, HUGE_MAGIC,
    SUBHEAP_MAGIC,
};
use crate::quarantine;
use crate::superblock;
use crate::undo;

/// What an offline [`repair`] pass found and fixed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RepairReport {
    /// Poisoned metadata cache lines scrubbed (cleared and zero-filled).
    pub lines_scrubbed: u64,
    /// Sub-heap directory entries reconstructed from header magic.
    pub directory_entries_rebuilt: u32,
    /// Sub-heap headers rebuilt from scratch.
    pub headers_rebuilt: u32,
    /// Undo logs that lost entries to scrubbing (truncated at the first
    /// zeroed line) or were discarded with a rebuilt header.
    pub undo_logs_truncated: u32,
    /// Undo logs replayed (superblock and sub-heap).
    pub undo_logs_replayed: u32,
    /// Micro-log slots whose pending transaction was discarded because a
    /// poisoned line destroyed part of it.
    pub micro_slots_reset: u32,
    /// Hash-table entries destroyed by poison and rewritten as
    /// tombstones (their blocks' bytes are leaked).
    pub entries_tombstoned: u64,
    /// Free blocks newly quarantined because they overlap user-region
    /// poison.
    pub blocks_quarantined: u64,
    /// Bytes covered by the newly quarantined blocks.
    pub bytes_quarantined: u64,
    /// Quarantined blocks returned to their free lists because their
    /// poison is gone.
    pub blocks_released: u64,
    /// Created sub-heaps processed (free lists and counts rebuilt).
    pub subheaps_repaired: u32,
    /// Hash-table levels whose stored checksum disagreed with the
    /// surviving records (records were lost, not merely absent); the
    /// recomputed checksum is written back.
    pub level_sums_mismatched: u32,
    /// Online-condemned sub-heaps (directory state `DIR_QUARANTINED`,
    /// set by live self-healing) repaired and returned to service.
    pub quarantines_lifted: u32,
    /// Whether the huge-region header was rebuilt from scratch (its undo
    /// log is discarded with it).
    pub huge_header_rebuilt: bool,
    /// Extent-table slots dropped because their record was implausible
    /// (bad state, misaligned or out-of-bounds geometry, overlap with an
    /// earlier extent).
    pub huge_slots_dropped: u32,
    /// Huge-region bytes newly quarantined: coverage holes left by
    /// dropped slots, plus free extents overlapping data poison.
    pub huge_bytes_quarantined: u64,
    /// Trailing layout epochs dropped because their records were torn or
    /// destroyed (a grow interrupted after its undo log was also lost);
    /// the pool conservatively returns to the last committed geometry.
    pub epochs_truncated: u32,
}

impl RepairReport {
    /// Whether the pass found any media damage to fix.
    pub fn damage_found(&self) -> bool {
        self.lines_scrubbed > 0
            || self.blocks_quarantined > 0
            || self.blocks_released > 0
            || self.micro_slots_reset > 0
            || self.level_sums_mismatched > 0
            || self.quarantines_lifted > 0
            || self.huge_header_rebuilt
            || self.huge_slots_dropped > 0
            || self.huge_bytes_quarantined > 0
            || self.epochs_truncated > 0
    }
}

/// Repairs the heap on `dev` in place. See the module docs for the exact
/// pass; the caller persists the result (the pass itself persists every
/// region it touches, so a subsequent snapshot save succeeds).
///
/// # Errors
///
/// [`PoseidonError::MediaError`] if the superblock header itself is
/// poisoned (the root object is lost — nothing to repair towards);
/// [`PoseidonError::Corrupted`] if no valid heap is present; or device
/// errors.
pub fn repair(dev: &PmemDevice) -> Result<RepairReport> {
    let mut report = RepairReport::default();
    // The layout-epoch chain is parsed by `superblock::load` below, and a
    // grow commits across it under the superblock undo log: scrub and
    // replay that log *first* so a torn epoch commit rolls back cleanly,
    // then conservatively truncate whatever tail a lost log left
    // half-written (each dropped epoch's space simply leaves the pool).
    let undo_scrubbed = scrub_range(dev, superblock::undo_area().base, SB_UNDO_SIZE)?;
    if !undo_scrubbed.is_empty() {
        report.undo_logs_truncated += 1;
    }
    report.lines_scrubbed += undo_scrubbed.len() as u64;
    if undo::replay(dev, superblock::undo_area())? {
        report.undo_logs_replayed += 1;
    }
    report.lines_scrubbed += scrub_range(dev, SB_EPOCHS_OFF, superblock::EPOCH_AREA_SIZE)?.len() as u64;
    report.epochs_truncated = superblock::truncate_torn_epochs(dev)?;
    // A poisoned header line fails this read with the typed media error:
    // identity, geometry and the root pointer are gone, and so is the heap.
    let (_, layout) = superblock::load(dev)?;

    repair_directory(dev, &layout, &mut report)?;

    // Scrub the rest of the superblock region (the header lines are known
    // clean — the load above read them). Zeroed lines inside the undo
    // area truncate the log at the first invalid entry; the replay then
    // rolls back whatever prefix survived.
    let scrubbed = scrub_range(dev, 0, SB_REGION_SIZE)?;
    if overlaps_lines(&scrubbed, superblock::undo_area().base, SB_UNDO_SIZE) {
        report.undo_logs_truncated += 1;
    }
    report.lines_scrubbed += scrubbed.len() as u64;
    if undo::replay(dev, superblock::undo_area())? {
        report.undo_logs_replayed += 1;
    }
    dev.persist(0, SB_REGION_SIZE)?;

    for sub in 0..layout.num_subheaps() {
        let entry = superblock::dir_entry(dev, sub)?;
        if entry.state != 1 && entry.state != superblock::DIR_QUARANTINED {
            continue;
        }
        repair_sub(dev, &layout, sub, &mut report)?;
        if entry.state == superblock::DIR_QUARANTINED {
            // Live self-healing condemned this sub-heap wholesale; the
            // rebuild above re-established its metadata (poisoned free
            // blocks stay block-quarantined), so the directory verdict
            // is lifted and the sub-heap returns to service on load.
            let lifted = crate::persist::DirEntry { state: 1, node: entry.node };
            dev.write_pod(superblock::dir_entry_off(sub), &lifted)?;
            dev.persist(superblock::dir_entry_off(sub), 8)?;
            report.quarantines_lifted += 1;
        }
        report.subheaps_repaired += 1;
    }
    repair_huge(dev, &layout, &mut report)?;
    Ok(report)
}

/// Scrubs poisoned directory lines and reconstructs the entries they
/// held from the sub-heap headers.
fn repair_directory(dev: &PmemDevice, layout: &HeapLayout, report: &mut RepairReport) -> Result<()> {
    let dir_len = layout.num_subheaps() as u64 * 8;
    let cleared = scrub_range(dev, SB_DIR_OFF, dir_len)?;
    report.lines_scrubbed += cleared.len() as u64;
    for line in cleared {
        let first = (line - SB_DIR_OFF) / 8;
        let last = (first + CACHE_LINE_SIZE / 8).min(layout.num_subheaps() as u64);
        for sub in first..last {
            let sub = sub as u16;
            let meta = layout.meta_base(sub);
            let entry = if dev.is_poisoned(meta, CACHE_LINE_SIZE) {
                // The header was written (poison lands only on written
                // lines), so the sub-heap existed. Its node is gone with
                // the header; 0 is as good a home as any.
                crate::persist::DirEntry { state: 1, node: 0 }
            } else {
                let header: SubheapHeader = dev.read_pod(meta)?;
                if header.magic == SUBHEAP_MAGIC {
                    crate::persist::DirEntry { state: 1, node: header.node }
                } else {
                    crate::persist::DirEntry::default()
                }
            };
            if entry.state == 1 {
                report.directory_entries_rebuilt += 1;
            }
            dev.write_pod(superblock::dir_entry_off(sub), &entry)?;
        }
    }
    Ok(())
}

fn repair_sub(dev: &PmemDevice, layout: &HeapLayout, sub: u16, report: &mut RepairReport) -> Result<()> {
    let ctx = SubCtx { dev, layout, sub };
    let meta = ctx.meta_base();

    // Header page (header + buddy arrays + level counts). The arrays are
    // rebuilt wholesale below, so zero-filled lines there cost nothing.
    let header_destroyed = dev.is_poisoned(meta, CACHE_LINE_SIZE);
    report.lines_scrubbed += scrub_range(dev, meta, SH_UNDO_OFF)?.len() as u64;
    if header_destroyed {
        let node = superblock::dir_entry(dev, sub)?.node;
        let header = SubheapHeader {
            magic: SUBHEAP_MAGIC,
            subheap_id: sub as u32,
            node,
            undo_gen: 0,
            micro_count: 0,
            active_levels: 1, // fixed up after the table is scrubbed
        };
        dev.write_pod(meta, &header)?;
        report.headers_rebuilt += 1;
    }

    // Micro-log area: a slot that lost any line cannot be trusted — reset
    // its count so the pending transaction is discarded rather than
    // replayed from zero-filled pointers.
    let micro_cleared = scrub_range(dev, meta + SH_MICRO_OFF, SH_MICRO_SIZE)?;
    report.lines_scrubbed += micro_cleared.len() as u64;
    let mut reset_slots = std::collections::BTreeSet::new();
    for line in &micro_cleared {
        reset_slots.insert(((line - (meta + SH_MICRO_OFF)) / MICRO_SLOT_BYTES) as usize);
    }
    for &slot in &reset_slots {
        dev.write_pod(ctx.micro_count_off(slot), &0u64)?;
    }
    report.micro_slots_reset += reset_slots.len() as u32;

    // Hash-table area: scrub first (so the replay below can flush these
    // lines), remember which entries were destroyed.
    let table_cleared = scrub_range(dev, meta + SH_TABLE_OFF, layout.meta_size - SH_TABLE_OFF)?;
    report.lines_scrubbed += table_cleared.len() as u64;

    // Undo log: with the header's generation intact, scrub (truncating at
    // the first zeroed line) and replay the surviving prefix. With a
    // rebuilt header the generation is unknown — discard the log
    // entirely; replaying stale-generation entries could roll back
    // long-committed operations.
    if header_destroyed {
        dev.punch_hole(meta + SH_UNDO_OFF, SH_UNDO_SIZE)?;
        report.undo_logs_truncated += 1;
    } else {
        let undo_cleared = scrub_range(dev, meta + SH_UNDO_OFF, SH_UNDO_SIZE)?;
        if !undo_cleared.is_empty() {
            report.undo_logs_truncated += 1;
        }
        report.lines_scrubbed += undo_cleared.len() as u64;
        if undo::replay(dev, ctx.undo_area())? {
            report.undo_logs_replayed += 1;
        }
    }

    // The replay may have restored a micro-log count we just reset (the
    // interrupted operation logged it); reset again, and discard any slot
    // whose surviving entries contain a null pointer — freeing "pointer
    // zero" on load would hit whatever block lives at offset 0.
    for &slot in &reset_slots {
        dev.write_pod(ctx.micro_count_off(slot), &0u64)?;
    }
    for slot in microlog::all_slots() {
        let pending = match microlog::entries_direct(&ctx, slot) {
            Ok(p) => p,
            Err(PoseidonError::Corrupted(_)) => {
                dev.write_pod(ctx.micro_count_off(slot), &0u64)?;
                report.micro_slots_reset += 1;
                continue;
            }
            Err(e) => return Err(e),
        };
        if pending.iter().any(|p| p.is_null() || p.subheap() != sub) {
            dev.write_pod(ctx.micro_count_off(slot), &0u64)?;
            report.micro_slots_reset += 1;
        }
    }

    // Active level count: trust the stored value unless the header was
    // rebuilt, in which case recount from the table (only *live* records
    // mark a level active — leftover tombstones in a deactivated level
    // must not resurrect it).
    let active = if header_destroyed {
        recount_active_levels(&ctx)?
    } else {
        (ctx.active_levels()?).clamp(1, MAX_LEVELS as u64) as usize
    };
    dev.write_pod(ctx.active_levels_off(), &(active as u64))?;

    // Destroyed table entries in active levels become tombstones: a
    // zero-filled (EMPTY) slot would terminate probe scans early and
    // lose every record probing past it.
    let table_end = layout.level_base(sub, active - 1) + layout.level_capacity(active - 1) * ENTRY_SIZE;
    let tombstone = HashEntry { state: state::TOMBSTONE, ..Default::default() };
    for line in &table_cleared {
        if *line < table_end {
            dev.write_pod(*line, &tombstone)?;
            report.entries_tombstoned += 1;
        }
    }

    rebuild_lists(&ctx, active, report)?;
    dev.persist(meta, layout.meta_size)?;
    Ok(())
}

/// Highest level holding a live record, plus one (minimum 1).
fn recount_active_levels(ctx: &SubCtx<'_>) -> Result<usize> {
    for level in (0..MAX_LEVELS).rev() {
        let base = ctx.layout.level_base(ctx.sub, level);
        for i in 0..ctx.layout.level_capacity(level) {
            let rec = ctx.entry(base + i * ENTRY_SIZE)?;
            if matches!(rec.state, state::FREE | state::ALLOC | state::QUARANTINED) {
                return Ok(level + 1);
            }
        }
    }
    Ok(1)
}

/// Rebuilds the level live counts and every buddy free list from the
/// surviving records, applying the quarantine transitions against the
/// device's current poison list.
fn rebuild_lists(ctx: &SubCtx<'_>, active: usize, report: &mut RepairReport) -> Result<()> {
    let dev = ctx.dev;
    let poison = dev.scrub();
    let user_base = ctx.user_base();
    for class in 0..NUM_CLASSES {
        dev.write_pod(ctx.buddy_head_off(class), &0u64)?;
        dev.write_pod(ctx.buddy_tail_off(class), &0u64)?;
    }
    let mut last: Vec<Option<(u64, HashEntry)>> = vec![None; NUM_CLASSES];
    for level in 0..active {
        let base = ctx.layout.level_base(ctx.sub, level);
        let mut live = 0u64;
        let mut sum = 0u64;
        for i in 0..ctx.layout.level_capacity(level) {
            let rec_off = base + i * ENTRY_SIZE;
            let mut rec = ctx.entry(rec_off)?;
            if !matches!(rec.state, state::FREE | state::ALLOC | state::QUARANTINED) {
                continue;
            }
            live += 1;
            sum ^= crate::hashtable::key_digest(rec.offset);
            if rec.state == state::ALLOC {
                // Allocated blocks keep their (possibly poisoned) data;
                // the typed error surfaces on read, never silently.
                continue;
            }
            let poisoned = quarantine::overlaps_any(&poison, user_base + rec.offset, rec.size);
            if poisoned {
                if rec.state == state::FREE {
                    report.blocks_quarantined += 1;
                    report.bytes_quarantined += rec.size;
                }
                rec.state = state::QUARANTINED;
                rec.flags = 0;
                rec.next_free = 0;
                rec.prev_free = 0;
                dev.write_pod(rec_off, &rec)?;
                continue;
            }
            if rec.state == state::QUARANTINED {
                report.blocks_released += 1;
            }
            let (class, _) = class_for_size(rec.size)?;
            rec.state = state::FREE;
            // The transient cache did not survive the crash: any record it
            // had withdrawn (FLAG_CACHED) goes back on the free lists.
            rec.flags = 0;
            rec.prev_free = last[class].map_or(0, |(off, _)| off);
            rec.next_free = 0;
            dev.write_pod(rec_off, &rec)?;
            match last[class] {
                Some((prev_off, mut prev)) => {
                    prev.next_free = rec_off;
                    dev.write_pod(prev_off, &prev)?;
                }
                None => dev.write_pod(ctx.buddy_head_off(class), &rec_off)?,
            }
            last[class] = Some((rec_off, rec));
        }
        dev.write_pod(ctx.level_count_off(level), &live)?;
        // A stale identity checksum means records (or the checksum line
        // itself) were destroyed, not that the level was this empty all
        // along — report the discrepancy, then write the recomputed sum
        // so the repaired heap audits clean.
        let stored: u64 = dev.read_pod(ctx.level_sum_off(level))?;
        if stored != sum {
            report.level_sums_mismatched += 1;
        }
        dev.write_pod(ctx.level_sum_off(level), &sum)?;
    }
    for (class, tail) in last.iter().enumerate() {
        if let Some((off, _)) = tail {
            dev.write_pod(ctx.buddy_tail_off(class), off)?;
        }
    }
    Ok(())
}

/// Repairs the huge-object region: scrubs its metadata, rebuilds a lost
/// header, replays (or discards) the undo log, and reconstructs the
/// extent table as a valid tiling of the data region. Reconstruction is
/// conservative: implausible slots are dropped, the coverage holes they
/// leave become `QUARANTINED` extents (never `FREE` — the bytes may hold
/// a live allocation whose record was destroyed), and quarantined
/// extents are never auto-released.
fn repair_huge(dev: &PmemDevice, layout: &HeapLayout, report: &mut RepairReport) -> Result<()> {
    if layout.huge_data_size() == 0 {
        return Ok(());
    }
    let ctx = HugeCtx { dev, layout };
    let meta = ctx.meta_base();

    // Header page, then the undo log: same policy as a sub-heap — a
    // destroyed header takes its log generation with it, so the log is
    // discarded rather than replayed at an unknown generation.
    let header_destroyed = dev.is_poisoned(meta, CACHE_LINE_SIZE);
    report.lines_scrubbed += scrub_range(dev, meta, HUGE_UNDO_OFF)?.len() as u64;
    if header_destroyed || ctx.header()?.magic != HUGE_MAGIC {
        let header = HugeHeader {
            magic: HUGE_MAGIC,
            version: FORMAT_VERSION,
            _pad: 0,
            undo_gen: 0,
            data_size: layout.huge_data_size(),
        };
        dev.write_pod(meta, &header)?;
        report.lines_scrubbed += scrub_range(dev, meta + HUGE_UNDO_OFF, HUGE_UNDO_SIZE)?.len() as u64;
        dev.punch_hole(meta + HUGE_UNDO_OFF, HUGE_UNDO_SIZE)?;
        report.huge_header_rebuilt = true;
        report.undo_logs_truncated += 1;
    } else {
        let undo_cleared = scrub_range(dev, meta + HUGE_UNDO_OFF, HUGE_UNDO_SIZE)?;
        if !undo_cleared.is_empty() {
            report.undo_logs_truncated += 1;
        }
        report.lines_scrubbed += undo_cleared.len() as u64;
        if undo::replay(dev, ctx.undo_area())? {
            report.undo_logs_replayed += 1;
        }
    }

    // Extent table: scrub, then keep only plausible records.
    let table_base = ctx.slot_off(0);
    let table_len = HUGE_EXTENT_SLOTS as u64 * crate::layout::EXTENT_RECORD_SIZE;
    report.lines_scrubbed += scrub_range(dev, table_base, table_len)?.len() as u64;
    let mut kept: Vec<ExtentRecord> = Vec::new();
    for slot in 0..HUGE_EXTENT_SLOTS {
        let rec: ExtentRecord = dev.read_pod(ctx.slot_off(slot))?;
        if rec.state == state::EMPTY {
            continue;
        }
        let plausible = matches!(rec.state, state::FREE | state::ALLOC | state::QUARANTINED)
            && rec.len > 0
            && rec.offset.is_multiple_of(PAGE_SIZE)
            && rec.len.is_multiple_of(PAGE_SIZE)
            // In-bounds and inside one band (extents never straddle a wall).
            && layout.huge_phys_of(rec.offset, rec.len).is_some();
        if plausible {
            kept.push(rec);
        } else {
            report.huge_slots_dropped += 1;
        }
    }

    // Sorted, non-overlapping: on a collision the earlier extent wins
    // and the later one is dropped (its uncovered bytes fall into the
    // quarantined holes below).
    kept.sort_by_key(|r| r.offset);
    let mut cursor = 0u64;
    kept.retain(|r| {
        if r.offset < cursor {
            report.huge_slots_dropped += 1;
            false
        } else {
            cursor = r.offset + r.len;
            true
        }
    });

    // Rebuild full coverage: holes become QUARANTINED, poisoned FREE
    // extents become QUARANTINED, everything else survives as-is.
    let poison = dev.scrub();
    let mut rebuilt: Vec<ExtentRecord> = Vec::new();
    let mut cursor = 0u64;
    for mut rec in kept {
        if rec.offset > cursor {
            report.huge_bytes_quarantined += rec.offset - cursor;
            quarantine_hole(layout, &mut rebuilt, cursor, rec.offset);
        }
        let phys = layout.huge_phys_of(rec.offset, rec.len).expect("plausibility checked above");
        if rec.state == state::FREE && quarantine::overlaps_any(&poison, phys, rec.len) {
            report.huge_bytes_quarantined += rec.len;
            rec.state = state::QUARANTINED;
        }
        cursor = rec.offset + rec.len;
        push_merged(layout, &mut rebuilt, rec);
    }
    if cursor < layout.huge_data_size() {
        report.huge_bytes_quarantined += layout.huge_data_size() - cursor;
        quarantine_hole(layout, &mut rebuilt, cursor, layout.huge_data_size());
    }

    // Pathological fallback: if the rebuilt tiling needs more slots than
    // the table holds (only possible when holes interleave with ~1024
    // surviving records), sacrifice the smallest FREE — then ALLOC —
    // extents into quarantine until it fits. Terminates: each pass
    // converts one extent to QUARANTINED, and an all-QUARANTINED tiling
    // merges to a single extent.
    while rebuilt.len() > HUGE_EXTENT_SLOTS {
        let victim = rebuilt
            .iter()
            .enumerate()
            .filter(|(_, r)| r.state != state::QUARANTINED)
            .min_by_key(|(_, r)| (r.state == state::ALLOC, r.len))
            .map(|(i, _)| i)
            .expect("an over-capacity tiling has non-quarantined extents");
        report.huge_slots_dropped += 1;
        report.huge_bytes_quarantined += rebuilt[victim].len;
        rebuilt[victim].state = state::QUARANTINED;
        let mut merged: Vec<ExtentRecord> = Vec::with_capacity(rebuilt.len());
        for rec in rebuilt {
            push_merged(layout, &mut merged, rec);
        }
        rebuilt = merged;
    }

    for slot in 0..HUGE_EXTENT_SLOTS {
        let rec = rebuilt.get(slot).copied().unwrap_or(extent_rec(0, 0, state::EMPTY));
        dev.write_pod(ctx.slot_off(slot), &rec)?;
    }
    // The rebuilt table tiles the full logical space; a `data_size`
    // still lagging from a torn grow (crash between the epoch commit and
    // its band bookkeeping) is brought up to the total to match.
    let mut header = ctx.header()?;
    if header.data_size != layout.huge_data_size() {
        header.data_size = layout.huge_data_size();
        dev.write_pod(meta, &header)?;
    }
    dev.persist(meta, layout.huge_meta_size())?;
    Ok(())
}

/// Appends `rec` to the rebuilt tiling, eagerly coalescing same-state
/// `FREE`/`QUARANTINED` neighbours — but never across a band wall,
/// where logically adjacent extents are physically disjoint.
fn push_merged(layout: &HeapLayout, rebuilt: &mut Vec<ExtentRecord>, rec: ExtentRecord) {
    match rebuilt.last_mut() {
        Some(last)
            if last.state == rec.state
                && rec.state != state::ALLOC
                && last.offset + last.len == rec.offset
                && layout.huge_band_bounds(last.offset).is_some_and(|(_, hi)| rec.offset < hi) =>
        {
            last.len += rec.len;
        }
        _ => rebuilt.push(rec),
    }
}

/// Quarantines the uncovered logical range `[start, end)`, splitting it
/// at band walls so no rebuilt extent straddles one.
fn quarantine_hole(layout: &HeapLayout, rebuilt: &mut Vec<ExtentRecord>, mut start: u64, end: u64) {
    while start < end {
        let band_hi = layout.huge_band_bounds(start).map_or(end, |(_, hi)| hi);
        let piece = end.min(band_hi) - start;
        push_merged(layout, rebuilt, extent_rec(start, piece, state::QUARANTINED));
        start += piece;
    }
}

/// Shorthand for a live [`ExtentRecord`].
fn extent_rec(offset: u64, len: u64, state: u32) -> ExtentRecord {
    ExtentRecord { offset, len, state, _pad: 0, _reserved: 0 }
}

/// Clears every poisoned line inside `[offset, offset + len)` (the device
/// zero-fills them) and returns their line-aligned offsets.
fn scrub_range(dev: &PmemDevice, offset: u64, len: u64) -> Result<Vec<u64>> {
    debug_assert_eq!(offset % CACHE_LINE_SIZE, 0);
    let mut cleared = Vec::new();
    for range in dev.scrub() {
        if !range.overlaps(offset, len) {
            continue;
        }
        let start = range.offset.max(offset);
        let end = (range.offset + range.len).min(offset + len);
        let mut line = start;
        while line < end {
            cleared.push(line);
            line += CACHE_LINE_SIZE;
        }
    }
    if !cleared.is_empty() {
        dev.clear_poison(offset, len)?;
    }
    Ok(cleared)
}

/// Whether any of `lines` falls inside `[offset, offset + len)`.
fn overlaps_lines(lines: &[u64], offset: u64, len: u64) -> bool {
    lines.iter().any(|&line| line >= offset && line < offset + len)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heap::{HeapConfig, PoseidonHeap};
    use crate::subheap;
    use pmem::DeviceConfig;
    use std::sync::Arc;

    fn build_heap() -> (Arc<PmemDevice>, Vec<crate::NvmPtr>) {
        let dev = Arc::new(PmemDevice::new(DeviceConfig::new(64 << 20)));
        let heap = PoseidonHeap::open(dev.clone(), HeapConfig::new().with_subheaps(2)).unwrap();
        let mut live = Vec::new();
        for cpu in 0..2usize {
            let _pin = pmem::numa::CpuPinGuard::pin(cpu);
            for i in 0..32u64 {
                let p = heap.alloc(64 + i % 200).unwrap();
                if i % 2 == 0 {
                    heap.free(p).unwrap();
                } else {
                    live.push(p);
                }
            }
        }
        heap.set_root(live[0]).unwrap();
        heap.close().unwrap();
        (dev, live)
    }

    /// Audits one sub-heap through a throwaway session (the heap is
    /// closed, so its pages carry no protection key).
    fn audit_sub(dev: &Arc<PmemDevice>, layout: &HeapLayout, sub: u16) -> subheap::SubheapAudit {
        let op = crate::session::OpSession::unguarded(SubCtx { dev, layout, sub }).unwrap();
        subheap::audit(&op).unwrap()
    }

    fn reload_and_audit(dev: &Arc<PmemDevice>) -> PoseidonHeap {
        let heap = PoseidonHeap::load(dev.clone(), HeapConfig::new()).unwrap();
        assert!(heap.quarantined_subheaps().is_empty(), "repair must leave no wholesale quarantine");
        heap.audit().unwrap();
        heap
    }

    #[test]
    fn clean_heap_repair_is_a_no_op() {
        let (dev, live) = build_heap();
        let report = repair(&dev).unwrap();
        assert!(!report.damage_found());
        assert_eq!(report.subheaps_repaired, 2);
        let heap = reload_and_audit(&dev);
        for p in live {
            heap.free(p).unwrap();
        }
        heap.audit().unwrap();
    }

    #[test]
    fn poisoned_table_entry_is_tombstoned_without_losing_neighbours() {
        let (dev, live) = build_heap();
        // Poison one hash-table line of sub-heap 0.
        let layout = HeapLayout::compute(64 << 20, 2).unwrap();
        let ctx = SubCtx { dev: &dev, layout: &layout, sub: 0 };
        // Find a FREE record and poison its table line.
        let victim = (0..layout.level_capacity(0))
            .map(|i| layout.level_base(0, 0) + i * ENTRY_SIZE)
            .find(|&off| ctx.entry(off).unwrap().state == state::FREE)
            .expect("a free record exists");
        dev.poison(victim, 1).unwrap();

        let report = repair(&dev).unwrap();
        assert!(report.damage_found());
        assert_eq!(report.entries_tombstoned, 1);
        assert_eq!(ctx.entry(victim).unwrap().state, state::TOMBSTONE);

        // The heap loads clean and every surviving allocation is intact.
        let heap = reload_and_audit(&dev);
        assert!(!heap.root().unwrap().is_null());
        for p in live {
            heap.free(p).unwrap();
        }
        heap.audit().unwrap();
    }

    #[test]
    fn lost_level_records_are_flagged_by_the_identity_checksum() {
        let (dev, _) = build_heap();
        let layout = HeapLayout::compute(64 << 20, 2).unwrap();
        let ctx = SubCtx { dev: &dev, layout: &layout, sub: 0 };
        // Destroy one live record *and* its level's live-count word: the
        // rebuilt count then matches the surviving records, so without an
        // independent witness the level would look like it never held the
        // record. The identity checksum (a different line) still carries
        // the lost key and flags the damage.
        let victim = (0..layout.level_capacity(0))
            .map(|i| layout.level_base(0, 0) + i * ENTRY_SIZE)
            .find(|&off| matches!(ctx.entry(off).unwrap().state, state::FREE | state::ALLOC))
            .expect("a live record exists");
        dev.poison(victim, 1).unwrap();
        dev.poison(ctx.level_count_off(0), 1).unwrap();

        let report = repair(&dev).unwrap();
        assert_eq!(report.level_sums_mismatched, 1, "checksum must flag the lost record");
        assert_eq!(report.entries_tombstoned, 1);

        // The recomputed checksum was written back: the heap audits clean
        // and a second pass sees a genuinely consistent (not emptied) level.
        let heap = reload_and_audit(&dev);
        heap.close().unwrap();
        let second = repair(&dev).unwrap();
        assert_eq!(second.level_sums_mismatched, 0);
    }

    #[test]
    fn poisoned_free_block_stays_quarantined_and_returns_after_clear() {
        let (dev, _) = build_heap();
        let layout = HeapLayout::compute(64 << 20, 2).unwrap();
        let ctx = SubCtx { dev: &dev, layout: &layout, sub: 0 };
        let (_, rec) = (0..layout.level_capacity(0))
            .map(|i| layout.level_base(0, 0) + i * ENTRY_SIZE)
            .map(|off| (off, ctx.entry(off).unwrap()))
            .find(|(_, e)| e.state == state::FREE)
            .unwrap();
        let user_off = ctx.user_base() + rec.offset;
        dev.poison(user_off, 1).unwrap();

        let report = repair(&dev).unwrap();
        assert_eq!(report.blocks_quarantined, 1);
        assert_eq!(report.bytes_quarantined, rec.size);
        let audit = audit_sub(&dev, &layout, 0);
        assert_eq!(audit.quarantined_blocks, 1);

        // Operator clears the poison; the next repair releases the block.
        dev.clear_poison(user_off, rec.size).unwrap();
        let report = repair(&dev).unwrap();
        assert_eq!(report.blocks_released, 1);
        let audit = audit_sub(&dev, &layout, 0);
        assert_eq!(audit.quarantined_blocks, 0);
        reload_and_audit(&dev);
    }

    #[test]
    fn destroyed_subheap_header_is_rebuilt() {
        let (dev, live) = build_heap();
        let layout = HeapLayout::compute(64 << 20, 2).unwrap();
        dev.poison(layout.meta_base(1), 1).unwrap();

        let report = repair(&dev).unwrap();
        assert_eq!(report.headers_rebuilt, 1);
        let ctx = SubCtx { dev: &dev, layout: &layout, sub: 1 };
        assert_eq!(dev.read_pod::<SubheapHeader>(ctx.meta_base()).unwrap().magic, SUBHEAP_MAGIC);
        audit_sub(&dev, &layout, 1);

        let heap = reload_and_audit(&dev);
        for p in live {
            heap.free(p).unwrap();
        }
    }

    #[test]
    fn poisoned_directory_line_is_reconstructed() {
        let (dev, live) = build_heap();
        dev.poison(SB_DIR_OFF, 1).unwrap();
        let report = repair(&dev).unwrap();
        // Both sub-heaps were created; both entries come back.
        assert_eq!(report.directory_entries_rebuilt, 2);
        let heap = reload_and_audit(&dev);
        for p in live {
            heap.free(p).unwrap();
        }
    }

    #[test]
    fn poisoned_superblock_header_is_fatal() {
        let (dev, _) = build_heap();
        dev.poison(0, 1).unwrap();
        assert!(matches!(repair(&dev), Err(PoseidonError::MediaError { .. })));
    }

    #[test]
    fn poisoned_huge_header_is_rebuilt_and_extents_survive() {
        let dev = Arc::new(PmemDevice::new(DeviceConfig::new(64 << 20)));
        let heap = PoseidonHeap::open(dev.clone(), HeapConfig::new().with_subheaps(2)).unwrap();
        let layout = HeapLayout::compute(64 << 20, 2).unwrap();
        let big = heap.alloc(layout.max_alloc() + 1).unwrap();
        heap.close().unwrap();
        dev.poison(layout.huge_meta_base(), 1).unwrap();

        // Load-time recovery can only quarantine the region wholesale.
        let h = PoseidonHeap::load(dev.clone(), HeapConfig::new()).unwrap();
        assert!(h.recovery_report().huge_region_quarantined);
        assert!(matches!(h.alloc(layout.max_alloc() + 1), Err(PoseidonError::SubheapQuarantined { .. })));
        assert!(h.huge_audit().unwrap().is_none());
        h.close().unwrap();

        // Repair rebuilds the header; the extent table was never damaged.
        let report = repair(&dev).unwrap();
        assert!(report.huge_header_rebuilt);
        assert_eq!(report.huge_slots_dropped, 0);
        let heap = reload_and_audit(&dev);
        assert!(!heap.recovery_report().huge_region_quarantined);
        let audit = heap.huge_audit().unwrap().expect("huge region live again");
        assert_eq!(audit.alloc_extents, 1);
        heap.free(big).unwrap();
        assert_eq!(heap.huge_audit().unwrap().unwrap().alloc_extents, 0);
    }

    #[test]
    fn destroyed_extent_slots_leave_a_quarantined_hole() {
        use crate::layout::{EXTENT_RECORD_SIZE, HUGE_TABLE_OFF};

        let dev = Arc::new(PmemDevice::new(DeviceConfig::new(64 << 20)));
        let heap = PoseidonHeap::open(dev.clone(), HeapConfig::new().with_subheaps(4)).unwrap();
        let layout = HeapLayout::compute(64 << 20, 4).unwrap();
        let need = (layout.max_alloc() + pmem::PAGE_SIZE) & !(pmem::PAGE_SIZE - 1);
        // Slot 0 = ALLOC a, slot 1 = ALLOC b, slot 2 = FREE remainder.
        let a = heap.alloc(layout.max_alloc() + 1).unwrap();
        let b = heap.alloc(layout.max_alloc() + 1).unwrap();
        heap.close().unwrap();
        // Destroy the cache line holding slots 2–3: the FREE remainder's
        // record is lost, so its bytes must come back QUARANTINED.
        dev.poison(layout.huge_meta_base() + HUGE_TABLE_OFF + 2 * EXTENT_RECORD_SIZE, 1).unwrap();

        let report = repair(&dev).unwrap();
        assert!(report.damage_found());
        let hole = layout.huge_data_size() - 2 * need;
        assert_eq!(report.huge_bytes_quarantined, hole);

        let heap = reload_and_audit(&dev);
        let audit = heap.huge_audit().unwrap().unwrap();
        assert_eq!(audit.alloc_extents, 2);
        assert_eq!(audit.quarantined_bytes, hole);
        assert_eq!(audit.free_bytes, 0);
        // The surviving allocations are intact and freeable; the
        // quarantined hole is never handed out again.
        heap.free(a).unwrap();
        heap.free(b).unwrap();
        let audit = heap.huge_audit().unwrap().unwrap();
        assert_eq!(audit.free_bytes, 2 * need);
        assert_eq!(audit.quarantined_bytes, hole);
    }

    #[test]
    fn online_condemned_subheap_is_lifted_by_repair() {
        let (dev, live) = build_heap();
        let heap = PoseidonHeap::load(dev.clone(), HeapConfig::new()).unwrap();
        assert!(heap.condemn_subheap(0).unwrap());
        assert_eq!(heap.quarantined_subheaps(), vec![0]);
        heap.close().unwrap();

        // The condemnation is persistent: a plain reload still honours it.
        let h = PoseidonHeap::load(dev.clone(), HeapConfig::new()).unwrap();
        assert_eq!(h.quarantined_subheaps(), vec![0]);
        h.close().unwrap();

        // Repair rebuilds the condemned sub-heap and lifts the verdict.
        let report = repair(&dev).unwrap();
        assert_eq!(report.quarantines_lifted, 1);
        assert_eq!(report.subheaps_repaired, 2);
        assert!(report.damage_found());
        let heap = reload_and_audit(&dev);
        for p in live {
            heap.free(p).unwrap();
        }
        heap.audit().unwrap();
    }

    #[test]
    fn repair_is_idempotent() {
        let (dev, live) = build_heap();
        let layout = HeapLayout::compute(64 << 20, 2).unwrap();
        dev.poison(layout.meta_base(0) + SH_TABLE_OFF, 1).unwrap();
        dev.poison(layout.meta_base(0) + SH_UNDO_OFF, 1).unwrap();
        repair(&dev).unwrap();
        let second = repair(&dev).unwrap();
        assert!(!second.damage_found());
        let heap = reload_and_audit(&dev);
        for p in live {
            heap.free(p).unwrap();
        }
    }
}
