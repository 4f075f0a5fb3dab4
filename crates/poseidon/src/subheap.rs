//! Per-CPU sub-heap operations (§4.1, §5.2, §5.5).
//!
//! A sub-heap owns a metadata region (header, buddy lists, logs, hash
//! table) and a user region. It is created lazily when the first
//! allocation happens on its CPU, seeded with the maximal power-of-two
//! decomposition of its user region, and placed on that CPU's NUMA node.
//! All mutation goes through the caller's [`OpSession`] — the session
//! owns the sub-heap lock, the MPK write guard, and the *single* mapped
//! metadata view every word access goes through.
//!
//! Each block transition has one implementation here: [`carve`] takes a
//! block off the free lists for both the slow path ([`alloc_block`]) and
//! the cache refill ([`refill_blocks`]); [`free_block`] and
//! [`drain_blocks`] hand returned records to the release rule
//! ([`quarantine::release`]); and [`commit_when_full`] is the batching
//! loop of [`drain_blocks`], [`publish_blocks`] and [`reclaim_cached`].

use crate::buddy;
use crate::defrag;
use crate::error::{PoseidonError, Result};
use crate::hashtable;
use crate::layout::{class_size, MIN_BLOCK, NUM_CLASSES, SH_UNDO_OFF};
use crate::persist::{state, HashEntry, SubheapHeader, FLAG_CACHED, SUBHEAP_MAGIC};
use crate::quarantine;
use crate::session::OpSession;
use crate::undo::UndoScope;

/// Initialises (or re-initialises, after a creation that crashed before
/// its directory entry was published) the sub-heap's metadata and seeds
/// its buddy lists. The caller persists the directory entry afterwards;
/// until then the sub-heap is not live.
pub(crate) fn create(op: &OpSession<'_>, node: u32) -> Result<()> {
    let meta = op.ctx.meta_base();
    // Scrub: zero the header/array page(s) and return the log + table
    // space to the device (clears residue from an interrupted creation).
    op.view().write(meta, &vec![0u8; SH_UNDO_OFF as usize])?;
    op.ctx.dev.punch_hole(meta + SH_UNDO_OFF, op.ctx.layout.meta_size - SH_UNDO_OFF)?;
    let header = SubheapHeader {
        magic: SUBHEAP_MAGIC,
        subheap_id: op.ctx.sub as u32,
        node,
        undo_gen: 0,
        micro_count: 0,
        active_levels: 1,
    };
    op.view().write_pod(meta, &header)?;
    op.view().persist(meta, SH_UNDO_OFF)?;

    // Seed the user region: greedy maximal power-of-two decomposition
    // from offset 0. Each seed is automatically aligned to its size
    // (sizes descend), so XOR-buddy arithmetic stays inside each seed.
    let mut scope = op.undo()?;
    let mut offset = 0u64;
    let mut remaining = op.ctx.layout.user_size;
    while remaining >= MIN_BLOCK {
        let size = prev_power_of_two(remaining);
        let mut rec = HashEntry { offset, size, state: state::FREE, ..Default::default() };
        let rec_off = hashtable::insert(op, &mut scope, rec, true)?;
        buddy::push_tail(op, &mut scope, rec_off, &mut rec)?;
        offset += size;
        remaining -= size;
    }
    scope.commit()?;

    // NUMA placement of both regions (§4.1).
    op.ctx.dev.set_page_node(meta, op.ctx.layout.meta_size, node as u8)?;
    op.ctx.dev.set_page_node(op.ctx.user_base(), op.ctx.layout.user_size, node as u8)?;
    Ok(())
}

fn prev_power_of_two(x: u64) -> u64 {
    debug_assert!(x > 0);
    1u64 << (63 - x.leading_zeros())
}

/// Allocates a block of buddy class `class`, following §5.2: find a free
/// block (defragmenting if no class fits), split down to size, and record
/// the allocation — all in one undo scope. Hash-table pressure first
/// triggers probe-window defragmentation, then level activation.
///
/// For transactional allocation (§5.3) pass `micro = Some((heap_id,
/// slot))`: the allocated pointer is appended to the transaction's
/// micro-log slot *inside the same undo scope*, so a crash can never
/// separate the allocation from its log record.
pub(crate) fn alloc_block(op: &OpSession<'_>, class: usize, micro: Option<(u64, usize)>) -> Result<u64> {
    debug_assert!(class < NUM_CLASSES);
    for attempt in 0..3 {
        let from = match buddy::first_class_at_least(op, class)? {
            Some(k) => k,
            None => {
                // §5.4 trigger 1: merge smaller free blocks.
                defrag::merge_all_below(op, class, u64::MAX)?;
                match buddy::first_class_at_least(op, class)? {
                    Some(k) => k,
                    None => return Err(PoseidonError::NoSpace { requested: class_size(class) }),
                }
            }
        };
        match try_alloc(op, from, class, attempt > 0, micro) {
            Err(PoseidonError::TableFull) => {
                // §5.4 trigger 2: compact the probe windows of the record
                // keys the split would have inserted, then retry (the
                // retry may also activate a fresh level).
                let head_off = buddy::head(op, from)?;
                if head_off != 0 {
                    let rec = op.entry(head_off)?;
                    let mut size = rec.size;
                    while size > class_size(class) {
                        size /= 2;
                        defrag::compact_windows(op, rec.offset + size)?;
                    }
                }
                continue;
            }
            other => return other,
        }
    }
    Err(PoseidonError::TableFull)
}

/// One allocation attempt: carves a `want` block out of the head of
/// `from`, stamps it `ALLOC` and, for a transaction, logs it — all in one
/// scope. Any failure (including hash-table exhaustion mid-split) rolls
/// the scope back.
fn try_alloc(
    op: &OpSession<'_>,
    from: usize,
    want: usize,
    allow_activate: bool,
    micro: Option<(u64, usize)>,
) -> Result<u64> {
    let mut scope = op.undo()?;
    let (rec_off, mut rec) = carve(op, &mut scope, from, want, allow_activate)?;
    rec.state = state::ALLOC;
    hashtable::write_entry(&mut scope, rec_off, &rec)?;
    if let Some((heap_id, slot)) = micro {
        let ptr = crate::nvmptr::NvmPtr::new(heap_id, op.ctx.sub, rec.offset);
        crate::microlog::append(op, &mut scope, slot, ptr)?;
    }
    scope.commit()?;
    Ok(rec.offset)
}

/// Outcome of one single-scope refill attempt (see [`refill_blocks`]).
enum RefillAttempt {
    /// Committed; these user-region offsets now carry `FLAG_CACHED`.
    Done(Vec<u64>),
    /// A carve failed mid-split (table pressure); the scope was rolled
    /// back and the first `n` carves are known to succeed — retry with
    /// exactly that many.
    Retry(usize),
}

/// Withdraws up to `want` blocks of buddy class `class` from the
/// persistent free lists into the transient cache, all under **one**
/// two-fence commit: each block is carved from its list (splitting
/// larger blocks as needed) and its record stamped `FREE | FLAG_CACHED`
/// with cleared links — withdrawn from its free list but still free on
/// media. Returns the user-region offsets withdrawn — possibly fewer than
/// `want` (free-space or undo-log pressure), possibly none (the caller
/// then falls back to the uncached slow path, which can also defragment
/// and activate levels). Unlike [`alloc_block`], a refill never
/// activates a level mid-batch.
pub(crate) fn refill_blocks(op: &OpSession<'_>, class: usize, want: usize) -> Result<Vec<u64>> {
    debug_assert!(class < NUM_CLASSES);
    let mut target = want;
    loop {
        match try_refill(op, class, target)? {
            RefillAttempt::Done(offsets) => return Ok(offsets),
            RefillAttempt::Retry(0) => return Ok(Vec::new()),
            RefillAttempt::Retry(n) => target = n,
        }
    }
}

/// One refill attempt under a single scope. Carves stop cleanly on
/// free-space or undo-log pressure (committing what fit); a carve that
/// errors *mid-split* dirties the scope, so the whole attempt aborts and
/// reports how many carves are safe to redo.
fn try_refill(op: &OpSession<'_>, class: usize, want: usize) -> Result<RefillAttempt> {
    let mut scope = op.undo()?;
    let mut offsets = Vec::with_capacity(want);
    while offsets.len() < want {
        let Some(from) = buddy::first_class_at_least(op, class)? else { break };
        // Conservative undo-room estimate for this carve: each split
        // touches at most 5 logged ranges of at most 96 bytes (header +
        // one record line), plus the final record and its unlink.
        let estimate = ((from - class) as u64 * 5 + 6) * 96;
        if !scope.has_room_for(estimate) {
            break;
        }
        match carve(op, &mut scope, from, class, false) {
            Ok((rec_off, mut rec)) => {
                rec.flags |= FLAG_CACHED;
                hashtable::write_entry(&mut scope, rec_off, &rec)?;
                offsets.push(rec.offset);
            }
            Err(PoseidonError::TableFull) => {
                // Mid-split failure: the scope holds half a carve. Roll
                // everything back and redo only the carves that are known
                // to succeed from the unchanged starting state.
                scope.abort()?;
                return Ok(RefillAttempt::Retry(offsets.len()));
            }
            Err(e) => return Err(e),
        }
    }
    scope.commit()?;
    Ok(RefillAttempt::Done(offsets))
}

/// The carve both the slow path and the cache refill run inside the
/// caller's scope: pops the head of class `from`, unlinks it, and splits
/// it down to class `want`, each upper half becoming a new free block
/// (whose insert may activate a table level only if `allow_activate`).
/// Returns the final block's record slot and its record with cleared
/// links, for the caller to stamp and write.
fn carve(
    op: &OpSession<'_>,
    scope: &mut UndoScope<'_>,
    from: usize,
    want: usize,
    allow_activate: bool,
) -> Result<(u64, HashEntry)> {
    let head_off = buddy::head(op, from)?;
    if head_off == 0 {
        return Err(PoseidonError::Corrupted("free list emptied under the sub-heap lock"));
    }
    let mut rec = op.entry(head_off)?;
    buddy::unlink(op, scope, head_off, &rec)?;
    let mut class = from;
    while class > want {
        class -= 1;
        let half = class_size(class);
        // The upper half becomes a new free block; the lower half
        // continues splitting.
        let mut upper =
            HashEntry { offset: rec.offset + half, size: half, state: state::FREE, ..Default::default() };
        let upper_off = hashtable::insert(op, scope, upper, allow_activate)?;
        buddy::push_tail(op, scope, upper_off, &mut upper)?;
        rec.size = half;
    }
    rec.next_free = 0;
    rec.prev_free = 0;
    Ok((head_off, rec))
}

/// Looks up the record of a cache-managed block and validates its
/// persistent state (`FREE | FLAG_CACHED` — the invariant the cache layer
/// maintains by construction).
fn cached_record(op: &OpSession<'_>, offset: u64) -> Result<(u64, HashEntry)> {
    let Some((rec_off, rec)) = hashtable::lookup(op, offset)? else {
        return Err(PoseidonError::Corrupted("cache-managed block has no record"));
    };
    if rec.state != state::FREE || rec.flags & FLAG_CACHED == 0 {
        return Err(PoseidonError::Corrupted("cache-managed block not FREE+flagged on media"));
    }
    Ok((rec_off, rec))
}

/// The commit-when-full loop of the batched record passes: runs `step`
/// on each item inside one undo scope, committing and reopening the
/// scope whenever the next step might not fit (`room` logged bytes), and
/// commits the last scope.
fn commit_when_full<T>(
    op: &OpSession<'_>,
    items: impl IntoIterator<Item = T>,
    room: u64,
    mut step: impl FnMut(&mut UndoScope<'_>, T) -> Result<()>,
) -> Result<()> {
    let mut scope = op.undo()?;
    for item in items {
        if !scope.has_room_for(room) {
            scope.commit()?;
            scope = op.undo()?;
        }
        step(&mut scope, item)?;
    }
    scope.commit()
}

/// Returns cache-resident blocks (user-region `offsets`) to the
/// persistent sub-heap under [`quarantine::release`] — relinked on their
/// free lists, or quarantined if their user bytes picked up media poison
/// while cached, exactly like a slow-path free — batching as many as fit
/// per two-fence commit. Returns the `(blocks, bytes)` quarantined.
pub(crate) fn drain_blocks(op: &OpSession<'_>, offsets: &[u64]) -> Result<(u64, u64)> {
    let (mut blocks, mut bytes) = (0, 0);
    commit_when_full(op, offsets, 6 * 96, |scope, &offset| {
        let (rec_off, rec) = cached_record(op, offset)?;
        let (quarantined, size) = quarantine::release(op, scope, rec_off, rec)?;
        blocks += quarantined;
        bytes += size;
        Ok(())
    })?;
    Ok((blocks, bytes))
}

/// Persistently publishes cache-managed blocks (user-region `offsets`) as
/// allocated: state `ALLOC`, flag cleared — the durability hand-off run
/// when the application makes cached allocations reachable (`set_root`)
/// or on clean close. Batches as many as fit per two-fence commit.
pub(crate) fn publish_blocks(op: &OpSession<'_>, offsets: &[u64]) -> Result<()> {
    commit_when_full(op, offsets, 2 * 96, |scope, &offset| {
        let (rec_off, mut rec) = cached_record(op, offset)?;
        rec.state = state::ALLOC;
        rec.flags &= !FLAG_CACHED;
        rec.next_free = 0;
        rec.prev_free = 0;
        hashtable::write_entry(scope, rec_off, &rec)
    })
}

/// Load-time reconciliation: relinks every record the transient cache had
/// withdrawn (`FREE | FLAG_CACHED`) when the previous session ended. The
/// cache is DRAM-only, so whatever it held simply becomes free capacity
/// again — cached allocations that were never published evaporate, which
/// is the documented crash contract. Idempotent: a crash mid-pass leaves
/// a strict subset flagged and the next load finishes the job. Returns
/// the number of blocks relinked. No poison check here: recovery's
/// isolation pass runs right after and withdraws any poisoned ones.
pub(crate) fn reclaim_cached(op: &OpSession<'_>) -> Result<u64> {
    let active = (op.active_levels()? as usize).min(crate::layout::MAX_LEVELS);
    let mut flagged = Vec::new();
    for level in 0..active {
        let base = op.ctx.layout.level_base(op.ctx.sub, level);
        for i in 0..op.ctx.layout.level_capacity(level) {
            let rec_off = base + i * crate::layout::ENTRY_SIZE;
            let rec = op.entry(rec_off)?;
            if rec.state == state::FREE && rec.flags & FLAG_CACHED != 0 {
                flagged.push((rec_off, rec));
            }
        }
    }
    let reclaimed = flagged.len() as u64;
    commit_when_full(op, flagged, 6 * 96, |scope, (rec_off, mut rec)| {
        rec.flags &= !FLAG_CACHED;
        buddy::push_tail(op, scope, rec_off, &mut rec)
    })?;
    Ok(reclaimed)
}

/// Frees the block at user-region offset `offset`, validating the request
/// against the hash table first (§4.7): unknown offsets are invalid
/// frees, already-free blocks are double frees — both rejected without
/// touching metadata. The block then goes where [`quarantine::release`]
/// sends it: its free list, or quarantine if its user bytes overlap a
/// poisoned line, so the media error can never be handed to a future
/// allocation. Returns the `(blocks, bytes)` quarantined; the caller
/// keeps the volatile health ledger in step with them.
pub(crate) fn free_block(op: &OpSession<'_>, offset: u64) -> Result<(u64, u64)> {
    let Some((rec_off, rec)) = hashtable::lookup(op, offset)? else {
        return Err(PoseidonError::InvalidFree { offset });
    };
    match rec.state {
        state::ALLOC => {}
        state::FREE => return Err(PoseidonError::DoubleFree { offset }),
        _ => return Err(PoseidonError::InvalidFree { offset }),
    }
    let mut scope = op.undo()?;
    let quarantined = quarantine::release(op, &mut scope, rec_off, rec)?;
    scope.commit()?;
    Ok(quarantined)
}

/// A consistency report produced by the heap audit
/// ([`PoseidonHeap::audit`](crate::PoseidonHeap::audit)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SubheapAudit {
    /// Number of live (FREE, ALLOC, or QUARANTINED) records.
    pub blocks: u64,
    /// Bytes covered by free blocks.
    pub free_bytes: u64,
    /// Bytes covered by allocated blocks.
    pub alloc_bytes: u64,
    /// Number of allocated blocks.
    pub alloc_blocks: u64,
    /// Active hash-table levels.
    pub active_levels: u64,
    /// Tombstoned (merged-away) records awaiting slot reuse.
    pub tombstones: u64,
    /// Blocks quarantined after media errors (neither free nor
    /// allocatable).
    pub quarantined_blocks: u64,
    /// Bytes covered by quarantined blocks.
    pub quarantined_bytes: u64,
    /// Free blocks per buddy size class (class `k` = `32 << k` bytes).
    pub free_by_class: [u64; NUM_CLASSES],
}

impl Default for SubheapAudit {
    fn default() -> Self {
        SubheapAudit {
            blocks: 0,
            free_bytes: 0,
            alloc_bytes: 0,
            alloc_blocks: 0,
            active_levels: 0,
            tombstones: 0,
            quarantined_blocks: 0,
            quarantined_bytes: 0,
            free_by_class: [0; NUM_CLASSES],
        }
    }
}

/// How the transient cache layer accounts one cache-flagged record
/// during an audit (see [`audit_with`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheResidency {
    /// Not cache-managed. A record carrying `FLAG_CACHED` with this
    /// residency is a corruption — the flag and the DRAM map are updated
    /// together under the sub-heap lock the audit also holds.
    None,
    /// Sitting in a magazine or transfer pool: free capacity.
    Resident,
    /// Handed out to the application by the cached fast path: allocated.
    CheckedOut,
}

/// Walks the whole sub-heap and checks every structural invariant:
/// power-of-two aligned non-overlapping blocks covering the seeded area,
/// free lists exactly matching FREE records, level counts matching live
/// entries, and — for sessions holding the sub-heap lock — the DRAM
/// record index matching the table slot by slot. Used by tests and
/// property checks.
///
/// Cache-flagged records are classified through `residency` (the heap
/// passes its DRAM residency map): `Resident` counts as free capacity,
/// `CheckedOut` as allocated, and `None` — a flag with no cache entry —
/// is a corruption. Flagged records must never be linked into a free
/// list.
///
/// # Errors
///
/// [`PoseidonError::Corrupted`] describing the first violated invariant.
pub(crate) fn audit_with(
    op: &OpSession<'_>,
    residency: impl Fn(u64) -> CacheResidency,
) -> Result<SubheapAudit> {
    use std::collections::{BTreeMap, HashSet};
    let active = op.active_levels()? as usize;
    let mut by_offset: BTreeMap<u64, HashEntry> = BTreeMap::new();
    let mut slot_of: BTreeMap<u64, u64> = BTreeMap::new();
    let mut tombstones = 0u64;
    for level in 0..active.min(crate::layout::MAX_LEVELS) {
        let mut live = 0u64;
        let mut sum = 0u64;
        let base = op.ctx.layout.level_base(op.ctx.sub, level);
        for i in 0..op.ctx.layout.level_capacity(level) {
            let off = base + i * crate::layout::ENTRY_SIZE;
            let e = op.entry(off)?;
            if e.state == state::TOMBSTONE {
                tombstones += 1;
            }
            if e.state == state::FREE || e.state == state::ALLOC || e.state == state::QUARANTINED {
                live += 1;
                sum ^= hashtable::key_digest(e.offset);
                if !e.size.is_power_of_two() || e.size < MIN_BLOCK {
                    return Err(PoseidonError::Corrupted("block size not a power of two"));
                }
                if e.offset % e.size != 0 {
                    return Err(PoseidonError::Corrupted("block not aligned to its size"));
                }
                if by_offset.insert(e.offset, e).is_some() {
                    return Err(PoseidonError::Corrupted("duplicate block offset in table"));
                }
                slot_of.insert(e.offset, off);
            }
        }
        let counted: u64 = op.read_pod(op.ctx.level_count_off(level))?;
        if counted != live {
            return Err(PoseidonError::Corrupted("level live count mismatch"));
        }
        // The identity checksum is an independent witness for the count:
        // a zeroed count over a zeroed level passes the check above, but
        // only a level that truly never held these records XORs to the
        // stored sum.
        let stored: u64 = op.read_pod(op.ctx.level_sum_off(level))?;
        if stored != sum {
            return Err(PoseidonError::Corrupted("level identity checksum mismatch"));
        }
    }
    hashtable::audit_index(op, &slot_of, active.min(crate::layout::MAX_LEVELS))?;
    // Non-overlap and bounds.
    let mut audit_out = SubheapAudit { active_levels: active as u64, tombstones, ..Default::default() };
    let mut cursor = 0u64;
    for (&off, e) in &by_offset {
        if off < cursor {
            return Err(PoseidonError::Corrupted("overlapping blocks"));
        }
        if off + e.size > op.ctx.layout.user_size {
            return Err(PoseidonError::Corrupted("block beyond user region"));
        }
        cursor = off + e.size;
        audit_out.blocks += 1;
        if e.flags & FLAG_CACHED != 0 {
            // Cache-managed: on media always FREE (that is the crash
            // contract), accounted by what the DRAM layer says.
            if e.state != state::FREE {
                return Err(PoseidonError::Corrupted("cache flag on a non-free record"));
            }
            match residency(e.offset) {
                CacheResidency::Resident => {
                    audit_out.free_bytes += e.size;
                    audit_out.free_by_class[crate::layout::class_for_size(e.size)?.0] += 1;
                }
                CacheResidency::CheckedOut => {
                    audit_out.alloc_bytes += e.size;
                    audit_out.alloc_blocks += 1;
                }
                CacheResidency::None => {
                    return Err(PoseidonError::Corrupted("cache-flagged record unknown to the cache"));
                }
            }
            continue;
        }
        match e.state {
            state::FREE => {
                audit_out.free_bytes += e.size;
                audit_out.free_by_class[crate::layout::class_for_size(e.size)?.0] += 1;
            }
            state::QUARANTINED => {
                audit_out.quarantined_bytes += e.size;
                audit_out.quarantined_blocks += 1;
            }
            _ => {
                audit_out.alloc_bytes += e.size;
                audit_out.alloc_blocks += 1;
            }
        }
    }
    // Free lists contain exactly the unflagged FREE records, each once,
    // in the right class. Cache-managed records are withdrawn from the
    // lists by construction — one linked anyway is a corruption.
    let mut listed: HashSet<u64> = HashSet::new();
    for class in 0..NUM_CLASSES {
        for rec_off in buddy::collect(op, class)? {
            let e = op.entry(rec_off)?;
            if e.state != state::FREE {
                return Err(PoseidonError::Corrupted("non-free record in free list"));
            }
            if e.flags & FLAG_CACHED != 0 {
                return Err(PoseidonError::Corrupted("cache-managed record linked in a free list"));
            }
            if crate::layout::class_for_size(e.size)?.0 != class {
                return Err(PoseidonError::Corrupted("record in wrong size class list"));
            }
            if !listed.insert(rec_off) {
                return Err(PoseidonError::Corrupted("record linked twice"));
            }
        }
    }
    let free_records =
        by_offset.values().filter(|e| e.state == state::FREE && e.flags & FLAG_CACHED == 0).count();
    if free_records != listed.len() {
        return Err(PoseidonError::Corrupted("free record not reachable from any free list"));
    }
    Ok(audit_out)
}

/// [`audit_with`] for contexts with no live cache (module tests, offline
/// repair): any cache-flagged record is a corruption.
pub(crate) fn audit(op: &OpSession<'_>) -> Result<SubheapAudit> {
    audit_with(op, |_| CacheResidency::None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::{class_for_size, HeapLayout};
    use crate::persist::SubCtx;
    use pmem::{DeviceConfig, PmemDevice};

    fn setup() -> (PmemDevice, HeapLayout) {
        let layout = HeapLayout::compute(64 << 20, 2).unwrap();
        let dev = PmemDevice::new(DeviceConfig::new(64 << 20));
        (dev, layout)
    }

    fn op_for<'a>(dev: &'a PmemDevice, layout: &'a HeapLayout) -> OpSession<'a> {
        OpSession::unguarded(SubCtx { dev, layout, sub: 0 }).unwrap()
    }

    #[test]
    fn create_seeds_full_coverage() {
        let (dev, layout) = setup();
        let op = op_for(&dev, &layout);
        create(&op, 0).unwrap();
        let a = audit(&op).unwrap();
        assert_eq!(a.alloc_bytes, 0);
        // Seeds cover the user region down to MIN_BLOCK granularity.
        assert!(a.free_bytes <= layout.user_size);
        assert!(layout.user_size - a.free_bytes < MIN_BLOCK);
    }

    #[test]
    fn create_is_idempotent_after_partial_creation() {
        let (dev, layout) = setup();
        let op = op_for(&dev, &layout);
        create(&op, 0).unwrap();
        // Dirty the table, then recreate (models a crash before the
        // directory entry was published, followed by a fresh creation).
        create(&op, 1).unwrap();
        let a = audit(&op).unwrap();
        assert_eq!(a.alloc_bytes, 0);
        assert_eq!(op.read_pod::<SubheapHeader>(op.ctx.meta_base()).unwrap().node, 1);
    }

    #[test]
    fn alloc_splits_down_and_free_restores() {
        let (dev, layout) = setup();
        let op = op_for(&dev, &layout);
        create(&op, 0).unwrap();
        let before = audit(&op).unwrap();
        let (class, size) = class_for_size(100).unwrap();
        let off = alloc_block(&op, class, None).unwrap();
        assert_eq!(size, 128);
        let mid = audit(&op).unwrap();
        assert_eq!(mid.alloc_bytes, 128);
        assert_eq!(mid.free_bytes + 128, before.free_bytes);
        assert_eq!(free_block(&op, off).unwrap(), (0, 0));
        let after = audit(&op).unwrap();
        assert_eq!(after.alloc_bytes, 0);
        assert_eq!(after.free_bytes, before.free_bytes);
    }

    #[test]
    fn distinct_allocations_do_not_overlap() {
        let (dev, layout) = setup();
        let op = op_for(&dev, &layout);
        create(&op, 0).unwrap();
        let (class, size) = class_for_size(64).unwrap();
        let mut offs = std::collections::HashSet::new();
        for _ in 0..100 {
            let off = alloc_block(&op, class, None).unwrap();
            assert!(offs.insert(off), "offset {off} handed out twice");
            assert_eq!(off % size, 0);
        }
        audit(&op).unwrap();
    }

    #[test]
    fn free_then_realloc_reuses_space_eventually() {
        let (dev, layout) = setup();
        let op = op_for(&dev, &layout);
        create(&op, 0).unwrap();
        let (class, _) = class_for_size(4096).unwrap();
        let a = alloc_block(&op, class, None).unwrap();
        free_block(&op, a).unwrap();
        // Tail insertion delays reuse, but allocating everything must
        // eventually hand `a` back without corruption.
        let mut seen = false;
        for _ in 0..10_000 {
            match alloc_block(&op, class, None) {
                Ok(off) => {
                    if off == a {
                        seen = true;
                        break;
                    }
                }
                Err(PoseidonError::NoSpace { .. }) => break,
                Err(e) => panic!("unexpected: {e}"),
            }
        }
        assert!(seen, "freed block never reused");
    }

    #[test]
    fn invalid_and_double_frees_are_rejected() {
        let (dev, layout) = setup();
        let op = op_for(&dev, &layout);
        create(&op, 0).unwrap();
        let (class, _) = class_for_size(64).unwrap();
        let off = alloc_block(&op, class, None).unwrap();
        assert!(matches!(free_block(&op, off + 8), Err(PoseidonError::InvalidFree { .. })));
        free_block(&op, off).unwrap();
        assert!(matches!(free_block(&op, off), Err(PoseidonError::DoubleFree { .. })));
        // The heap is still intact.
        audit(&op).unwrap();
    }

    #[test]
    fn freeing_a_poisoned_block_quarantines_it() {
        let (dev, layout) = setup();
        let op = op_for(&dev, &layout);
        create(&op, 0).unwrap();
        let (class, size) = class_for_size(64).unwrap();
        let off = alloc_block(&op, class, None).unwrap();
        dev.poison(op.ctx.user_base() + off, 1).unwrap();
        // The free "succeeds" — the block leaves the allocated population —
        // but lands in quarantine, not on a free list.
        assert_eq!(free_block(&op, off).unwrap(), (1, size));
        assert!(matches!(free_block(&op, off), Err(PoseidonError::InvalidFree { .. })));
        let report = audit(&op).unwrap();
        assert_eq!(report.quarantined_blocks, 1);
        assert_eq!(report.quarantined_bytes, size);
        assert_eq!(report.alloc_blocks, 0);
    }

    #[test]
    fn exhaustion_defragments_then_reports_no_space() {
        let (dev, layout) = setup();
        let op = op_for(&dev, &layout);
        create(&op, 0).unwrap();
        // Allocate the maximum class until exhaustion.
        let max = layout.max_alloc();
        let (class, _) = class_for_size(max).unwrap();
        let mut blocks = Vec::new();
        loop {
            match alloc_block(&op, class, None) {
                Ok(off) => blocks.push(off),
                Err(PoseidonError::NoSpace { .. }) => break,
                Err(e) => panic!("unexpected: {e}"),
            }
        }
        assert!(!blocks.is_empty());
        // Free everything; defragmentation must reassemble the big block.
        for off in blocks.drain(..) {
            free_block(&op, off).unwrap();
        }
        let off = alloc_block(&op, class, None).expect("defrag must reassemble the largest block");
        free_block(&op, off).unwrap();
        audit(&op).unwrap();
    }

    #[test]
    fn refill_withdraws_blocks_under_one_commit() {
        let (dev, layout) = setup();
        let op = op_for(&dev, &layout);
        create(&op, 0).unwrap();
        let before = audit(&op).unwrap();
        let (class, size) = class_for_size(64).unwrap();
        // The session's view buffers fence counts until it drops; give the
        // refill its own session so the device stats reflect exactly it.
        drop(op);

        let fences0 = dev.stats().sfence_count;
        let op = op_for(&dev, &layout);
        let offsets = refill_blocks(&op, class, 8).unwrap();
        assert_eq!(offsets.len(), 8);
        drop(op);
        // One two-fence commit (3 sfences with the generation bump) for
        // the whole batch — the amortised budget the cache layer buys.
        assert_eq!(dev.stats().sfence_count - fences0, 3);
        let op = op_for(&dev, &layout);

        // Flagged records are invisible to the cacheless audit...
        assert!(matches!(audit(&op), Err(PoseidonError::Corrupted(_))));
        // ...and count as free capacity when the cache owns them.
        let resident: std::collections::HashSet<u64> = offsets.iter().copied().collect();
        let a = audit_with(&op, |off| {
            if resident.contains(&off) {
                CacheResidency::Resident
            } else {
                CacheResidency::None
            }
        })
        .unwrap();
        assert_eq!(a.free_bytes, before.free_bytes);
        assert_eq!(a.alloc_bytes, 0);

        // The slow path cannot hand a withdrawn block out again.
        let mut slow = std::collections::HashSet::new();
        for _ in 0..64 {
            slow.insert(alloc_block(&op, class, None).unwrap());
        }
        assert!(slow.is_disjoint(&resident), "slow path re-allocated a cache-withdrawn block");
        for off in slow {
            free_block(&op, off).unwrap();
        }

        // Drain restores the exact pre-refill audit.
        assert_eq!(drain_blocks(&op, &offsets).unwrap(), (0, 0));
        let after = audit(&op).unwrap();
        assert_eq!(after.free_bytes, before.free_bytes);
        let _ = size;
    }

    #[test]
    fn publish_turns_cached_blocks_into_real_allocations() {
        let (dev, layout) = setup();
        let op = op_for(&dev, &layout);
        create(&op, 0).unwrap();
        let (class, size) = class_for_size(256).unwrap();
        let offsets = refill_blocks(&op, class, 4).unwrap();
        assert_eq!(offsets.len(), 4);
        publish_blocks(&op, &offsets).unwrap();
        let a = audit(&op).unwrap();
        assert_eq!(a.alloc_bytes, 4 * size);
        // Published blocks free (and double-free-check) like any other.
        for off in &offsets {
            assert_eq!(free_block(&op, *off).unwrap(), (0, 0));
        }
        assert!(matches!(free_block(&op, offsets[0]), Err(PoseidonError::DoubleFree { .. })));
        assert_eq!(audit(&op).unwrap().alloc_bytes, 0);
    }

    #[test]
    fn draining_a_poisoned_cached_block_quarantines_it() {
        let (dev, layout) = setup();
        let op = op_for(&dev, &layout);
        create(&op, 0).unwrap();
        let (class, size) = class_for_size(64).unwrap();
        let offsets = refill_blocks(&op, class, 2).unwrap();
        dev.poison(op.ctx.user_base() + offsets[0], 1).unwrap();
        assert_eq!(drain_blocks(&op, &offsets).unwrap(), (1, size));
        let a = audit(&op).unwrap();
        assert_eq!(a.quarantined_blocks, 1);
        assert_eq!(a.quarantined_bytes, size);
    }

    #[test]
    fn refill_survives_free_space_exhaustion() {
        let (dev, layout) = setup();
        let op = op_for(&dev, &layout);
        create(&op, 0).unwrap();
        // Ask for far more than the sub-heap holds: partial success, and
        // everything handed out is distinct.
        let (class, _) = class_for_size(layout.max_alloc()).unwrap();
        let offsets = refill_blocks(&op, class, 1_000_000).unwrap();
        assert!(!offsets.is_empty());
        let unique: std::collections::HashSet<_> = offsets.iter().collect();
        assert_eq!(unique.len(), offsets.len());
        drain_blocks(&op, &offsets).unwrap();
        audit(&op).unwrap();
    }

    #[test]
    fn many_small_allocations_grow_the_table() {
        let (dev, layout) = setup();
        let op = op_for(&dev, &layout);
        create(&op, 0).unwrap();
        let (class, _) = class_for_size(32).unwrap();
        let n = layout.c0 * 2;
        let mut offs = Vec::new();
        for _ in 0..n {
            offs.push(alloc_block(&op, class, None).unwrap());
        }
        assert!(op.active_levels().unwrap() > 1, "expected level growth");
        audit(&op).unwrap();
        for off in offs {
            free_block(&op, off).unwrap();
        }
        audit(&op).unwrap();
    }
}
