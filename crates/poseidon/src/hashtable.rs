//! The multi-level hash table of memory-block records (§4.4, §5.2).
//!
//! Each sub-heap indexes every block (allocated *and* free) by its user
//! region offset, in a chain of open-addressed levels whose capacities
//! double (`c0 << level`), after F2FS's multi-level design. A key may sit
//! anywhere in a fixed window of [`PROBE_WINDOW`] slots from its home
//! slot in each active level, and an insert takes the first non-live slot
//! of the lowest level that has one. When every active level's window is
//! full, the caller first defragments (merging free blocks turns records
//! into reusable tombstones) and only then activates the next level;
//! levels whose live count drops to zero are deactivated and
//! hole-punched back to the device (§5.6).
//!
//! On media that is O(levels × window), not O(1): under churn the low
//! levels fill, no EMPTY slot ends a probe, and a lookup reads every
//! window below the key's level (about 160 slots at 7 active levels).
//! Sessions that hold the sub-heap lock therefore go through a
//! [`RecordIndex`] once a second level is active — DRAM only, one hash
//! lookup plus one confirming slot read per lookup or insert — and place
//! every record in exactly the slot the probe would pick, so media stays
//! byte-identical. Unguarded sessions (recovery, sub-heap creation,
//! module tests) and one-level tables probe; the probe is the reference
//! implementation (DESIGN.md §16).

use std::cell::{RefCell, RefMut};
use std::collections::{BTreeMap, HashMap};

use platform::rng::splitmix64;
use pmem::Pod;

use crate::error::{PoseidonError, Result};
use crate::layout::{ENTRY_SIZE, MAX_LEVELS, PROBE_WINDOW};
use crate::persist::{state, HashEntry};
use crate::session::OpSession;
use crate::undo::UndoScope;

/// Digest of a record key as folded into its level's identity checksum.
///
/// Each level persists the XOR of the digests of its live record keys
/// (at [`SubCtx::level_sum_off`](crate::persist::SubCtx::level_sum_off)).
/// A key never changes in place — state flips and size rewrites keep the
/// record's offset — so insert and delete are the only maintenance
/// points, and XOR makes them the same operation. The checksum lets an
/// offline audit or `pfsck --repair` tell a genuinely empty level from
/// one whose records (or live count) were destroyed: both look the same
/// through the zeroed count alone.
pub(crate) fn key_digest(key: u64) -> u64 {
    splitmix64(key)
}

/// Home slot of `key` in `level` (level capacities are powers of two).
#[inline]
fn home_slot(key: u64, level: usize, capacity: u64) -> u64 {
    splitmix64(key ^ (level as u64).wrapping_mul(0xA24B_AED4_963E_E407)) & (capacity - 1)
}

/// Whether a record in state `st` is live: every state but EMPTY and
/// TOMBSTONE holds a key that lookups match and inserts must not reuse.
#[inline]
fn is_live(st: u32) -> bool {
    st != state::EMPTY && st != state::TOMBSTONE
}

/// Number of the first slot of `level`, counting the table's slots from
/// level 0's first: levels `0..level` hold `c0 * (2^level - 1)` slots.
#[inline]
fn first_slot(c0: u64, level: usize) -> u64 {
    c0 * ((1 << level) - 1)
}

/// Device offset of slot `index` in `level` of `op`'s table.
#[inline]
fn slot_off(op: &OpSession<'_>, level: usize, index: u64) -> u64 {
    op.ctx.layout.level_base(op.ctx.sub, level) + index * ENTRY_SIZE
}

/// Device offset of table slot number `slot` (see [`first_slot`]).
#[inline]
fn slot_addr(op: &OpSession<'_>, slot: u64) -> u64 {
    op.ctx.layout.level_base(op.ctx.sub, 0) + slot * ENTRY_SIZE
}

/// Table slot number of the record at device offset `entry_off`.
#[inline]
fn slot_number(op: &OpSession<'_>, entry_off: u64) -> u64 {
    debug_assert!(entry_off >= op.ctx.layout.level_base(op.ctx.sub, 0));
    (entry_off - op.ctx.layout.level_base(op.ctx.sub, 0)) / ENTRY_SIZE
}

/// The DRAM-only index of one sub-heap's block records: each live key's
/// slot, plus one liveness bit per slot of the active levels.
///
/// It lives inside the sub-heap mutex, so holding the lock is what grants
/// access to it, and nothing in it is persistent. It is built lazily by
/// one sweep of the active levels, rebuilt whenever its level count
/// disagrees with media, and dropped whenever an [`UndoScope`] rolls
/// back — inserts, deletes and level changes update it inside the scope,
/// ahead of the commit. Every answer it gives is confirmed by one slot
/// read; a disagreement drops it and falls back to the probe.
#[derive(Debug, Default)]
pub(crate) struct RecordIndex {
    /// Active levels covered; `None` until built and after a drop.
    levels: Option<usize>,
    /// Live record key → table slot number.
    slots: HashMap<u64, u64>,
    /// Bit `s` is set iff table slot `s` holds a live record.
    live: Vec<u64>,
}

impl RecordIndex {
    /// Forgets everything; the next indexed operation rebuilds.
    pub(crate) fn invalidate(&mut self) {
        self.levels = None;
        self.slots.clear();
        self.live.clear();
    }

    fn is_live(&self, slot: u64) -> bool {
        self.live[(slot / 64) as usize] & (1 << (slot % 64)) != 0
    }

    fn set_live(&mut self, slot: u64, key: u64) {
        self.live[(slot / 64) as usize] |= 1 << (slot % 64);
        self.slots.insert(key, slot);
    }

    /// Clears slot `slot`, which a delete reached through a media link:
    /// out of range is left to the audit, not a panic.
    fn set_dead(&mut self, slot: u64, key: u64) {
        if let Some(word) = self.live.get_mut((slot / 64) as usize) {
            *word &= !(1 << (slot % 64));
        }
        if self.slots.get(&key) == Some(&slot) {
            self.slots.remove(&key);
        }
    }

    /// Covers `levels` levels: an added level starts with no live slot,
    /// and a dropped one had none left (its live count was zero).
    fn resize(&mut self, c0: u64, levels: usize) {
        self.live.resize(first_slot(c0, levels).div_ceil(64) as usize, 0);
        self.levels = Some(levels);
    }

    /// Sweeps the `active` levels (through the session's overlay) into a
    /// fresh index.
    fn build(&mut self, op: &OpSession<'_>, active: usize) -> Result<()> {
        /// Slots read per device read: bounds the sweep's buffer.
        const CHUNK: u64 = 1024;
        self.invalidate();
        let end = first_slot(op.ctx.layout.c0, active);
        self.live.resize(end.div_ceil(64) as usize, 0);
        let mut buf = vec![0u8; (CHUNK * ENTRY_SIZE) as usize];
        let mut first = 0;
        while first < end {
            let n = CHUNK.min(end - first);
            let bytes = &mut buf[..(n * ENTRY_SIZE) as usize];
            op.read(slot_addr(op, first), bytes)?;
            for (slot, raw) in (first..).zip(bytes.chunks_exact(ENTRY_SIZE as usize)) {
                let mut entry = HashEntry::default();
                entry.as_bytes_mut().copy_from_slice(raw);
                if is_live(entry.state) {
                    self.set_live(slot, entry.offset);
                }
            }
            first += n;
        }
        self.levels = Some(active);
        Ok(())
    }

    /// Reads slot `slot` and returns it if it holds `key`'s live record
    /// inside the `active` levels — the check behind every index hit.
    fn confirm(op: &OpSession<'_>, slot: u64, key: u64, active: usize) -> Result<Option<(u64, HashEntry)>> {
        if slot >= first_slot(op.ctx.layout.c0, active) {
            return Ok(None);
        }
        let off = slot_addr(op, slot);
        let entry = op.entry(off)?;
        Ok((is_live(entry.state) && entry.offset == key).then_some((off, entry)))
    }

    /// [`probe_target`] answered from the liveness bits, with the chosen
    /// slot confirmed non-live by one read; `None` when media disagrees
    /// with the index.
    fn target(&self, op: &OpSession<'_>, key: u64, active: usize) -> Result<Option<Target>> {
        if let Some(&slot) = self.slots.get(&key) {
            return match Self::confirm(op, slot, key, active)? {
                Some(_) => Err(PoseidonError::Corrupted("duplicate block record insert")),
                None => Ok(None),
            };
        }
        let layout = op.ctx.layout;
        for level in 0..active {
            let capacity = layout.level_capacity(level);
            let start = home_slot(key, level, capacity);
            for i in 0..PROBE_WINDOW.min(capacity) {
                let slot = first_slot(layout.c0, level) + ((start + i) & (capacity - 1));
                if !self.is_live(slot) {
                    let off = slot_addr(op, slot);
                    return Ok((!is_live(op.entry(off)?.state)).then_some(Target::Slot(level, off)));
                }
            }
        }
        Ok(Some(Target::Full))
    }

    /// Checks a built index against a full sweep of the table: `records`
    /// maps every live key to its record's device offset, and `active` is
    /// the media level count. The index must hold exactly those keys at
    /// exactly those slots, with exactly their liveness bits set.
    fn check(&self, op: &OpSession<'_>, records: &BTreeMap<u64, u64>, active: usize) -> Result<()> {
        if self.levels != Some(active) {
            return Err(PoseidonError::Corrupted("record index covers the wrong level count"));
        }
        if self.slots.len() != records.len() {
            return Err(PoseidonError::Corrupted("record index key count differs from the table"));
        }
        for (&key, &off) in records {
            let slot = slot_number(op, off);
            if self.slots.get(&key) != Some(&slot) || !self.is_live(slot) {
                return Err(PoseidonError::Corrupted("live record missing from the record index"));
            }
        }
        let bits: u32 = self.live.iter().map(|w| w.count_ones()).sum();
        if bits as usize != records.len() {
            return Err(PoseidonError::Corrupted("record index liveness bit on a dead slot"));
        }
        Ok(())
    }
}

/// Where an insert of a key goes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Target {
    /// Device offset of the first non-live slot in the key's window, at
    /// the lowest `level` whose window has one.
    Slot(usize, u64),
    /// Every active level's window is full.
    Full,
}

/// The session's record index, built over the `active` levels, or `None`
/// for sessions that do not hold the sub-heap lock and for a one-level
/// table.
///
/// One level is probed: its single window stops at the first EMPTY slot,
/// and hashing every insert costs more than that probe. Operations on one
/// level do not keep the index in step, so it is dropped there and built
/// afresh once a second level is active.
fn index_of<'s>(op: &'s OpSession<'_>, active: usize) -> Result<Option<RefMut<'s, RecordIndex>>> {
    let Some(cell) = op.index() else { return Ok(None) };
    let mut index = cell.borrow_mut();
    if active < 2 {
        if index.levels.is_some() {
            index.invalidate();
        }
        return Ok(None);
    }
    if index.levels != Some(active) {
        index.build(op, active)?;
    }
    Ok(Some(index))
}

/// Looks up the record whose key (block offset) is `key`.
/// Returns the record's device offset and value, or `None`.
pub(crate) fn lookup(op: &OpSession<'_>, key: u64) -> Result<Option<(u64, HashEntry)>> {
    let active = (op.active_levels()? as usize).min(MAX_LEVELS);
    if let Some(mut index) = index_of(op, active)? {
        if let Some(&slot) = index.slots.get(&key) {
            if let Some(found) = RecordIndex::confirm(op, slot, key, active)? {
                return Ok(Some(found));
            }
            index.invalidate();
        }
    }
    probe_lookup(op, key, active)
}

/// [`lookup`] by probing every active level's window.
fn probe_lookup(op: &OpSession<'_>, key: u64, active: usize) -> Result<Option<(u64, HashEntry)>> {
    for level in 0..active {
        let capacity = op.ctx.layout.level_capacity(level);
        let start = home_slot(key, level, capacity);
        for i in 0..PROBE_WINDOW.min(capacity) {
            let off = slot_off(op, level, (start + i) & (capacity - 1));
            let entry = op.entry(off)?;
            match entry.state {
                state::EMPTY => break, // key cannot be further in this level
                state::TOMBSTONE => continue,
                _ if entry.offset == key => return Ok(Some((off, entry))),
                _ => continue,
            }
        }
    }
    Ok(None)
}

/// Where [`insert`] puts `key`, by probing: the first non-live slot of
/// its window at the lowest level that has one.
///
/// # Errors
///
/// [`PoseidonError::Corrupted`] if the probe meets `key` live.
fn probe_target(op: &OpSession<'_>, key: u64, active: usize) -> Result<Target> {
    for level in 0..active {
        let capacity = op.ctx.layout.level_capacity(level);
        let start = home_slot(key, level, capacity);
        let mut reusable = None;
        for i in 0..PROBE_WINDOW.min(capacity) {
            let off = slot_off(op, level, (start + i) & (capacity - 1));
            let existing = op.entry(off)?;
            match existing.state {
                state::EMPTY => return Ok(Target::Slot(level, reusable.unwrap_or(off))),
                // A tombstone is dead no matter what stale key it still
                // carries — it must never reach the duplicate check below
                // (a merged-away record's offset legitimately comes back
                // when the merged block is re-split). Keep this arm
                // unguarded: a `reusable.is_none()` match guard would let
                // later tombstones fall through to the duplicate arm.
                state::TOMBSTONE => reusable = reusable.or(Some(off)),
                _ if existing.offset == key => {
                    return Err(PoseidonError::Corrupted("duplicate block record insert"));
                }
                _ => {}
            }
        }
        // The whole window was scanned (no EMPTY): a tombstone is still a
        // valid target because no duplicate was found in the window.
        if let Some(off) = reusable {
            return Ok(Target::Slot(level, off));
        }
    }
    Ok(Target::Full)
}

/// Inserts `entry` (keyed by `entry.offset`), reusing tombstones.
///
/// If every active level's probe window is full and `allow_activate` is
/// set, the next level is activated *inside the scope* (its area is
/// hole-punched clean first, then `active_levels` and the level count are
/// undo-logged). Returns the record's device offset.
///
/// # Errors
///
/// [`PoseidonError::TableFull`] when no slot is available (callers
/// defragment and retry, per §5.2); [`PoseidonError::Corrupted`] if the
/// key already exists.
pub(crate) fn insert(
    op: &OpSession<'_>,
    scope: &mut UndoScope<'_>,
    entry: HashEntry,
    allow_activate: bool,
) -> Result<u64> {
    let key = entry.offset;
    let active = (op.active_levels()? as usize).min(MAX_LEVELS);
    let mut index = index_of(op, active)?;
    let mut indexed = None;
    if let Some(idx) = index.as_deref_mut() {
        indexed = idx.target(op, key, active)?;
        if indexed.is_none() {
            idx.invalidate();
        }
    }
    let target = match indexed {
        Some(target) => target,
        None => probe_target(op, key, active)?,
    };
    let (level, off) = match target {
        Target::Slot(level, off) => (level, off),
        Target::Full if allow_activate && active < MAX_LEVELS => {
            let level = active;
            // Scrub any residue from a previous activation of this level
            // (a deactivation whose punch was lost in a crash). Punching
            // is durable and harmless even if this scope later aborts:
            // the level is inactive and its live count is zero either way.
            let capacity = op.ctx.layout.level_capacity(level);
            op.ctx.dev.punch_hole(op.ctx.layout.level_base(op.ctx.sub, level), capacity * ENTRY_SIZE)?;
            scope.log_and_write_pod(op.ctx.active_levels_off(), &((active + 1) as u64))?;
            scope.log_and_write_pod(op.ctx.level_count_off(level), &0u64)?;
            scope.log_and_write_pod(op.ctx.level_sum_off(level), &0u64)?;
            if let Some(idx) = index.as_deref_mut().filter(|idx| idx.levels == Some(active)) {
                idx.resize(op.ctx.layout.c0, active + 1);
            }
            (level, slot_off(op, level, home_slot(key, level, capacity)))
        }
        Target::Full => return Err(PoseidonError::TableFull),
    };
    write_entry(scope, off, &entry)?;
    bump_level_count(op, scope, level, 1)?;
    bump_level_sum(op, scope, level, key)?;
    if let Some(idx) = index.as_deref_mut().filter(|idx| idx.levels.is_some()) {
        idx.set_live(slot_number(op, off), key);
    }
    Ok(off)
}

/// Overwrites the record at `entry_off` through the scope. Rewrites keep
/// the record's key and liveness — [`insert`] and [`delete`] are the only
/// liveness changes, and they keep the [`RecordIndex`] in step.
pub(crate) fn write_entry(scope: &mut UndoScope<'_>, entry_off: u64, entry: &HashEntry) -> Result<()> {
    scope.log_and_write_pod(entry_off, entry)
}

/// Tombstones the record at `entry_off` and decrements its level's live
/// count.
pub(crate) fn delete(op: &OpSession<'_>, scope: &mut UndoScope<'_>, entry_off: u64) -> Result<()> {
    let level = level_of(op, entry_off);
    let mut entry = op.entry(entry_off)?;
    let key = entry.offset;
    entry.state = state::TOMBSTONE;
    entry.next_free = 0;
    entry.prev_free = 0;
    write_entry(scope, entry_off, &entry)?;
    bump_level_count(op, scope, level, -1)?;
    bump_level_sum(op, scope, level, key)?;
    if let Some(mut index) = op.index().map(RefCell::borrow_mut).filter(|idx| idx.levels.is_some()) {
        index.set_dead(slot_number(op, entry_off), key);
    }
    Ok(())
}

/// The level containing the record at device offset `entry_off`.
pub(crate) fn level_of(op: &OpSession<'_>, entry_off: u64) -> usize {
    // Slot s lies in level l iff c0 * (2^l - 1) <= s < c0 * (2^(l+1) - 1),
    // i.e. 2^l <= s / c0 + 1 < 2^(l+1).
    let level = (slot_number(op, entry_off) / op.ctx.layout.c0 + 1).ilog2() as usize;
    debug_assert!(level < MAX_LEVELS);
    level
}

/// Toggles `key` into/out of `level`'s identity checksum (XOR is its own
/// inverse, so insert and delete share this).
fn bump_level_sum(op: &OpSession<'_>, scope: &mut UndoScope<'_>, level: usize, key: u64) -> Result<()> {
    let off = op.ctx.level_sum_off(level);
    let sum: u64 = op.read_pod(off)?;
    scope.log_and_write_pod(off, &(sum ^ key_digest(key)))
}

fn bump_level_count(op: &OpSession<'_>, scope: &mut UndoScope<'_>, level: usize, delta: i64) -> Result<()> {
    let off = op.ctx.level_count_off(level);
    let count: u64 = op.read_pod(off)?;
    let updated =
        count.checked_add_signed(delta).ok_or(PoseidonError::Corrupted("hash-level live count underflow"))?;
    scope.log_and_write_pod(off, &updated)
}

/// Collects the FREE records sitting in `key`'s probe window of every
/// active level — the candidate set for probe-window defragmentation
/// (§5.4, trigger 2). Cache-managed records are skipped: they are
/// withdrawn from the free lists and must not be merged.
pub(crate) fn free_in_windows(op: &OpSession<'_>, key: u64) -> Result<Vec<(u64, HashEntry)>> {
    let active = (op.active_levels()? as usize).min(MAX_LEVELS);
    let mut found = Vec::new();
    for level in 0..active {
        let capacity = op.ctx.layout.level_capacity(level);
        let start = home_slot(key, level, capacity);
        for i in 0..PROBE_WINDOW.min(capacity) {
            let off = slot_off(op, level, (start + i) & (capacity - 1));
            let entry = op.entry(off)?;
            match entry.state {
                state::EMPTY => break,
                state::FREE if entry.flags & crate::persist::FLAG_CACHED == 0 => found.push((off, entry)),
                _ => {}
            }
        }
    }
    Ok(found)
}

/// Deactivates trailing levels whose live count is zero, hole-punching
/// their slots back to the device (§5.6). Runs its own scopes; safe to
/// call whenever no scope is open on this sub-heap. Two view reads when
/// there is nothing to release — cheap enough to run on every free.
pub(crate) fn shrink(op: &OpSession<'_>) -> Result<u64> {
    let mut released = 0;
    while let Some(bytes) = shrink_one(op)? {
        released += bytes;
    }
    Ok(released)
}

/// Deactivates the top active level if (and only if) its live count is
/// zero — one bounded unit of table shrinking: one two-fence commit plus
/// one hole punch. Returns the bytes released, or `None` when the top
/// level is still populated. [`shrink`] is this in a loop; the
/// maintenance engine calls it directly so each level retired counts
/// one unit against its budget.
pub(crate) fn shrink_one(op: &OpSession<'_>) -> Result<Option<u64>> {
    let active = op.active_levels()? as usize;
    if active <= 1 {
        return Ok(None);
    }
    let top = active - 1;
    let count: u64 = op.read_pod(op.ctx.level_count_off(top))?;
    if count != 0 {
        return Ok(None);
    }
    // Commit the deactivation first; only then punch. A crash in
    // between wastes space but loses nothing.
    let mut scope = op.undo()?;
    scope.log_and_write_pod(op.ctx.active_levels_off(), &(top as u64))?;
    scope.commit()?;
    if let Some(mut index) = op.index().map(RefCell::borrow_mut).filter(|idx| idx.levels == Some(active)) {
        index.resize(op.ctx.layout.c0, top);
    }
    Ok(Some(op.ctx.dev.punch_hole(
        op.ctx.layout.level_base(op.ctx.sub, top),
        op.ctx.layout.level_capacity(top) * ENTRY_SIZE,
    )?))
}

/// Checks the session's [`RecordIndex`], when it has one, against a full
/// sweep of the `active` levels: `records` maps every live key to its
/// record's device offset. An index that is not built yet is built
/// first, so the check also covers the sweep that builds it.
///
/// # Errors
///
/// [`PoseidonError::Corrupted`] naming the first disagreement.
pub(crate) fn audit_index(op: &OpSession<'_>, records: &BTreeMap<u64, u64>, active: usize) -> Result<()> {
    match index_of(op, active)? {
        Some(index) => index.check(op, records, active),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::HeapLayout;
    use crate::persist::SubCtx;
    use crate::undo::UndoScope;
    use pmem::{DeviceConfig, PmemDevice};

    /// Builds a device + layout with an initialised (zeroed) sub-heap 0
    /// whose header has `active_levels = 1`.
    fn setup() -> (PmemDevice, HeapLayout) {
        let layout = HeapLayout::compute(64 << 20, 2).unwrap();
        let dev = PmemDevice::new(DeviceConfig::new(64 << 20));
        let ctx = SubCtx { dev: &dev, layout: &layout, sub: 0 };
        dev.write_pod(ctx.active_levels_off(), &1u64).unwrap();
        (dev, layout)
    }

    fn entry(key: u64) -> HashEntry {
        HashEntry { offset: key, size: 64, state: state::ALLOC, ..Default::default() }
    }

    fn with_scope<R>(op: &OpSession<'_>, f: impl FnOnce(&mut UndoScope<'_>) -> Result<R>) -> Result<R> {
        let mut s = op.undo()?;
        let r = f(&mut s)?;
        s.commit()?;
        Ok(r)
    }

    #[test]
    fn insert_then_lookup() {
        let (dev, layout) = setup();
        let op = OpSession::unguarded(SubCtx { dev: &dev, layout: &layout, sub: 0 }).unwrap();
        let off = with_scope(&op, |s| insert(&op, s, entry(4096), false)).unwrap();
        let (found_off, found) = lookup(&op, 4096).unwrap().unwrap();
        assert_eq!(found_off, off);
        assert_eq!(found.offset, 4096);
        assert_eq!(found.state, state::ALLOC);
        assert!(lookup(&op, 8192).unwrap().is_none());
    }

    #[test]
    fn delete_tombstones_and_lookup_probes_past() {
        let (dev, layout) = setup();
        let op = OpSession::unguarded(SubCtx { dev: &dev, layout: &layout, sub: 0 }).unwrap();
        // Insert several keys, delete one, others must stay findable even
        // if they shared a probe chain with the deleted one.
        let keys: Vec<u64> = (0..20).map(|i| i * 32).collect();
        let offs: Vec<u64> =
            keys.iter().map(|&k| with_scope(&op, |s| insert(&op, s, entry(k), false)).unwrap()).collect();
        with_scope(&op, |s| delete(&op, s, offs[7])).unwrap();
        assert!(lookup(&op, keys[7]).unwrap().is_none());
        for (i, &k) in keys.iter().enumerate() {
            if i != 7 {
                assert!(lookup(&op, k).unwrap().is_some(), "key {k} lost");
            }
        }
    }

    #[test]
    fn tombstones_are_reused() {
        let (dev, layout) = setup();
        let op = OpSession::unguarded(SubCtx { dev: &dev, layout: &layout, sub: 0 }).unwrap();
        let off = with_scope(&op, |s| insert(&op, s, entry(64), false)).unwrap();
        with_scope(&op, |s| delete(&op, s, off)).unwrap();
        let off2 = with_scope(&op, |s| insert(&op, s, entry(64), false)).unwrap();
        assert_eq!(off, off2, "tombstoned home slot should be reused");
    }

    #[test]
    fn duplicate_insert_is_corruption() {
        let (dev, layout) = setup();
        let op = OpSession::unguarded(SubCtx { dev: &dev, layout: &layout, sub: 0 }).unwrap();
        with_scope(&op, |s| insert(&op, s, entry(96), false)).unwrap();
        let r = with_scope(&op, |s| insert(&op, s, entry(96), false));
        assert!(matches!(r, Err(PoseidonError::Corrupted(_))));
    }

    #[test]
    fn second_tombstone_with_matching_stale_key_is_not_a_duplicate() {
        let (dev, layout) = setup();
        let op = OpSession::unguarded(SubCtx { dev: &dev, layout: &layout, sub: 0 }).unwrap();
        // Two keys whose home slots collide in level 0 (away from the
        // wrap point so the probe order below is the slot order).
        let c0 = layout.c0;
        let (a, b) = (1..100_000u64)
            .map(|i| i * 32)
            .filter(|&k| home_slot(k, 0, c0) < c0 - PROBE_WINDOW)
            .scan(std::collections::HashMap::new(), |seen, k| {
                Some(seen.insert(home_slot(k, 0, c0), k).map(|first| (first, k)))
            })
            .flatten()
            .next()
            .expect("no colliding key pair found");
        let off_a = with_scope(&op, |s| insert(&op, s, entry(a), false)).unwrap();
        let off_b = with_scope(&op, |s| insert(&op, s, entry(b), false)).unwrap();
        assert_eq!(off_b, off_a + ENTRY_SIZE, "b probes to the next slot");
        with_scope(&op, |s| delete(&op, s, off_a)).unwrap();
        with_scope(&op, |s| delete(&op, s, off_b)).unwrap();
        // Re-inserting b walks past a's tombstone (captured for reuse)
        // and then meets its own stale tombstone — a dead record that
        // must not read as a duplicate insert.
        let off_b2 = with_scope(&op, |s| insert(&op, s, entry(b), false)).unwrap();
        assert_eq!(off_b2, off_a, "first tombstone in the window is reused");
        assert!(lookup(&op, b).unwrap().is_some());
        assert!(lookup(&op, a).unwrap().is_none());
    }

    #[test]
    fn level_count_tracks_live_entries() {
        let (dev, layout) = setup();
        let op = OpSession::unguarded(SubCtx { dev: &dev, layout: &layout, sub: 0 }).unwrap();
        let off = with_scope(&op, |s| insert(&op, s, entry(128), false)).unwrap();
        assert_eq!(dev.read_pod::<u64>(op.ctx.level_count_off(0)).unwrap(), 1);
        with_scope(&op, |s| delete(&op, s, off)).unwrap();
        assert_eq!(dev.read_pod::<u64>(op.ctx.level_count_off(0)).unwrap(), 0);
    }

    #[test]
    fn window_exhaustion_without_activation_is_table_full() {
        let (dev, layout) = setup();
        let op = OpSession::unguarded(SubCtx { dev: &dev, layout: &layout, sub: 0 }).unwrap();
        // Fill level 0 completely (c0 entries), then one more insert with
        // allow_activate = false must fail.
        let mut inserted = 0u64;
        let mut key = 0u64;
        while inserted < layout.c0 {
            match with_scope(&op, |s| insert(&op, s, entry(key), false)) {
                Ok(_) => inserted += 1,
                Err(PoseidonError::TableFull) => break,
                Err(e) => panic!("unexpected {e}"),
            }
            key += 32;
        }
        // Keep probing keys until one fails.
        let r = loop {
            let r = with_scope(&op, |s| insert(&op, s, entry(key), false));
            key += 32;
            if r.is_err() || key > layout.c0 * 64 {
                break r;
            }
        };
        assert!(matches!(r, Err(PoseidonError::TableFull)));
    }

    #[test]
    fn activation_extends_and_lookup_spans_levels() {
        let (dev, layout) = setup();
        let op = OpSession::unguarded(SubCtx { dev: &dev, layout: &layout, sub: 0 }).unwrap();
        // Fill until activation is needed, with activation allowed.
        let total = layout.c0 + 8;
        for i in 0..total {
            with_scope(&op, |s| insert(&op, s, entry(i * 32), true)).unwrap();
        }
        assert!(op.active_levels().unwrap() >= 2);
        for i in 0..total {
            assert!(lookup(&op, i * 32).unwrap().is_some(), "key {} lost after activation", i * 32);
        }
    }

    #[test]
    fn shrink_deactivates_empty_top_level() {
        let (dev, layout) = setup();
        let op = OpSession::unguarded(SubCtx { dev: &dev, layout: &layout, sub: 0 }).unwrap();
        let total = layout.c0 + 8;
        let mut offs = Vec::new();
        for i in 0..total {
            offs.push(with_scope(&op, |s| insert(&op, s, entry(i * 32), true)).unwrap());
        }
        let grown = op.active_levels().unwrap();
        assert!(grown >= 2);
        assert_eq!(shrink_one(&op).unwrap(), None);
        assert_eq!(op.active_levels().unwrap(), grown);
        // Delete everything in the upper levels.
        for &off in &offs {
            if level_of(&op, off) > 0 {
                with_scope(&op, |s| delete(&op, s, off)).unwrap();
            }
        }
        assert!(shrink_one(&op).unwrap().is_some());
        shrink(&op).unwrap();
        assert_eq!(op.active_levels().unwrap(), 1);
        assert_eq!(shrink_one(&op).unwrap(), None);
        // Level-0 entries are still there.
        for &off in &offs {
            if level_of(&op, off) == 0 {
                let e = op.entry(off).unwrap();
                assert_eq!(e.state, state::ALLOC);
            }
        }
    }

    #[test]
    fn level_of_maps_bases_correctly() {
        let (dev, layout) = setup();
        let op = OpSession::unguarded(SubCtx { dev: &dev, layout: &layout, sub: 0 }).unwrap();
        for level in 0..MAX_LEVELS {
            let base = layout.level_base(0, level);
            assert_eq!(level_of(&op, base), level);
            let last = base + (layout.level_capacity(level) - 1) * ENTRY_SIZE;
            assert_eq!(level_of(&op, last), level);
        }
    }

    #[test]
    fn free_in_windows_reports_free_records() {
        let (dev, layout) = setup();
        let op = OpSession::unguarded(SubCtx { dev: &dev, layout: &layout, sub: 0 }).unwrap();
        let mut e = entry(256);
        e.state = state::FREE;
        with_scope(&op, |s| insert(&op, s, e, false)).unwrap();
        let found = free_in_windows(&op, 256).unwrap();
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].1.offset, 256);
    }

    /// A lock like the heap's sub-heap lock, owning a record index.
    type IndexLock = pmem::TrackedMutex<RefCell<RecordIndex>>;

    /// A session through `lock`, as the heap's entry points open them:
    /// it reaches the record index.
    fn guarded<'a>(dev: &'a PmemDevice, layout: &'a HeapLayout, lock: &'a IndexLock) -> OpSession<'a> {
        OpSession::guarded(SubCtx { dev, layout, sub: 0 }, lock.lock(), None).unwrap()
    }

    /// What one replay exercised, so the differential test can check its
    /// own coverage.
    #[derive(Debug, Default)]
    struct Coverage {
        max_levels: u64,
        levels_retired: u64,
        short_refills: u64,
        dropped_scopes: u64,
    }

    /// Inserts `key` twice in one scope: the second insert is a duplicate
    /// and `?` drops the scope with the first one staged.
    fn insert_twice(op: &OpSession<'_>, key: u64) -> Result<()> {
        let mut scope = op.undo()?;
        insert(op, &mut scope, entry(key), true)?;
        insert(op, &mut scope, entry(key), true)?;
        scope.commit()
    }

    /// Replays a fixed-seed sequence of sub-heap operations on a created
    /// sub-heap, opening a fresh session per operation through `session`.
    /// Returns every operation's outcome, the keys it touched, and what
    /// it covered.
    fn replay<'a>(session: &dyn Fn() -> OpSession<'a>, seed: u64) -> (Vec<String>, Vec<u64>, Coverage) {
        use crate::layout::NUM_CLASSES;
        use crate::{defrag, subheap};
        let mut rng = platform::rng::Rng::new(seed);
        let (mut log, mut touched, mut cover) = (Vec::new(), Vec::new(), Coverage::default());
        let (mut live, mut cached) = (Vec::new(), Vec::new());
        let mut fresh = 1u64 << 40; // far beyond the user region: never a block
        let free_and_shrink = |op: &OpSession<'_>, off: u64, log: &mut Vec<String>, c: &mut Coverage| {
            log.push(format!("free {off}: {:?}", subheap::free_block(op, off)));
            while let Some(bytes) = shrink_one(op).unwrap() {
                log.push(format!("shrink: {bytes}"));
                c.levels_retired += 1;
            }
        };
        for step in 0..1800 {
            let op = session();
            if step == 1200 {
                // Give everything back and coalesce: the upper levels
                // drain and retire, and the replay goes on from there.
                for off in std::mem::take(&mut live) {
                    free_and_shrink(&op, off, &mut log, &mut cover);
                }
                log.push(format!("drain: {:?}", subheap::drain_blocks(&op, &std::mem::take(&mut cached))));
                log.push(format!("merge: {:?}", defrag::merge_all_below(&op, NUM_CLASSES, u64::MAX)));
                while let Some(bytes) = shrink_one(&op).unwrap() {
                    log.push(format!("shrink: {bytes}"));
                    cover.levels_retired += 1;
                }
            }
            let class = rng.below(3) as usize;
            match rng.below(100) {
                0..=54 => {
                    let r = subheap::alloc_block(&op, class, None);
                    if let Ok(off) = r {
                        live.push(off);
                        touched.push(off);
                    }
                    log.push(format!("alloc {class}: {r:?}"));
                }
                55..=74 if !live.is_empty() => {
                    let off = live.swap_remove(rng.below(live.len() as u64) as usize);
                    free_and_shrink(&op, off, &mut log, &mut cover);
                }
                75..=84 => {
                    let r = subheap::refill_blocks(&op, class, 4);
                    if let Ok(offs) = &r {
                        // Free space is plentiful: a short refill is a
                        // carve that hit TableFull mid-split and aborted.
                        cover.short_refills += u64::from(offs.len() < 4);
                        cached.extend_from_slice(offs);
                        touched.extend_from_slice(offs);
                    }
                    log.push(format!("refill {class}: {r:?}"));
                }
                85..=92 => {
                    log.push(format!(
                        "drain: {:?}",
                        subheap::drain_blocks(&op, &std::mem::take(&mut cached))
                    ));
                }
                93..=96 => {
                    log.push(format!("merge: {:?}", defrag::merge_all_below(&op, NUM_CLASSES, u64::MAX)))
                }
                _ => {
                    fresh += 32;
                    touched.push(fresh);
                    let r = insert_twice(&op, fresh);
                    cover.dropped_scopes += u64::from(r.is_err());
                    log.push(format!("insert twice {fresh}: {r:?}"));
                }
            }
            cover.max_levels = cover.max_levels.max(op.active_levels().unwrap());
        }
        log.push(format!("drain: {:?}", subheap::drain_blocks(&session(), &cached)));
        (log, touched, cover)
    }

    #[test]
    fn indexed_sessions_match_the_probe_path_byte_for_byte() {
        let layout = HeapLayout::compute(16 << 20, 2).unwrap();
        let devs = [0, 1].map(|_| PmemDevice::new(DeviceConfig::new(16 << 20)));
        for dev in &devs {
            let op = OpSession::unguarded(SubCtx { dev, layout: &layout, sub: 0 }).unwrap();
            crate::subheap::create(&op, 0).unwrap();
        }
        let lock = IndexLock::default();
        let indexed = replay(&|| guarded(&devs[0], &layout, &lock), 7);
        let probed =
            replay(&|| OpSession::unguarded(SubCtx { dev: &devs[1], layout: &layout, sub: 0 }).unwrap(), 7);
        assert!(indexed.0 == probed.0, "an operation's outcome differs");
        let cover = indexed.2;
        assert!(cover.max_levels >= 4, "{cover:?}");
        assert!(cover.levels_retired >= 3, "{cover:?}");
        assert!(cover.short_refills > 0, "{cover:?}");
        assert!(cover.dropped_scopes > 0, "{cover:?}");

        // The whole metadata region — header, counts, logs, every level —
        // is byte-identical.
        let ctx = SubCtx { dev: &devs[0], layout: &layout, sub: 0 };
        let image = |dev: &PmemDevice| {
            let mut buf = vec![0u8; layout.meta_size as usize];
            dev.read(ctx.meta_base(), &mut buf).unwrap();
            buf
        };
        assert!(image(&devs[0]) == image(&devs[1]), "table images differ");

        // Every key gives the same answer: live and dead records, keys
        // from dropped scopes, their neighbours, and never-used offsets.
        let op = guarded(&devs[0], &layout, &lock);
        let reference = OpSession::unguarded(SubCtx { dev: &devs[1], layout: &layout, sub: 0 }).unwrap();
        let mut keys = indexed.1;
        for slot in 0..first_slot(layout.c0, op.active_levels().unwrap() as usize) {
            keys.push(op.entry(slot_addr(&op, slot)).unwrap().offset);
        }
        keys.extend((0..256).map(|i| i * 4096 + 32));
        let mut present = 0;
        for key in keys.iter().flat_map(|&k| [k, k + 32]) {
            let found = lookup(&op, key).unwrap();
            assert_eq!(found, lookup(&reference, key).unwrap(), "key {key}");
            present += usize::from(found.is_some());
        }
        assert!(present > 100, "only {present} keys present");
        crate::subheap::audit(&op).unwrap();
    }

    /// Inserts keys `32, 64, ...` (committed) until a second level is
    /// active, so sessions through a lock use the index. Returns the keys
    /// and their record offsets.
    fn grow_to_two_levels(op: &OpSession<'_>) -> Vec<(u64, u64)> {
        let mut records = Vec::new();
        while op.active_levels().unwrap() < 2 {
            let key = 32 * (records.len() as u64 + 1);
            records.push((key, with_scope(op, |s| insert(op, s, entry(key), true)).unwrap()));
        }
        records
    }

    /// A fresh key (one no block has) whose insert the probe would place
    /// at `off`.
    fn key_aimed_at(op: &OpSession<'_>, off: u64) -> u64 {
        let active = op.active_levels().unwrap() as usize;
        (1..100_000u64)
            .map(|i| (1 << 30) + 32 * i)
            .find(|&k| probe_target(op, k, active).unwrap() == Target::Slot(level_of(op, off), off))
            .expect("no key aims at the slot")
    }

    #[test]
    fn aborted_insert_and_activation_leave_the_index_correct() {
        let (dev, layout) = setup();
        let lock = IndexLock::default();
        let op = guarded(&dev, &layout, &lock);
        let mut records: BTreeMap<u64, u64> = grow_to_two_levels(&op).into_iter().collect();
        // An aborted insert frees its slot again: a key aimed at the slot
        // takes it, the aborted key is gone, and it re-inserts with no
        // false duplicate.
        let aborted = 1 << 20;
        let mut scope = op.undo().unwrap();
        let off = insert(&op, &mut scope, entry(aborted), true).unwrap();
        scope.abort().unwrap();
        let aimed = key_aimed_at(&op, off);
        records.insert(aimed, with_scope(&op, |s| insert(&op, s, entry(aimed), true)).unwrap());
        assert_eq!(records[&aimed], off);
        assert_eq!(lookup(&op, aborted).unwrap(), None);
        records.insert(aborted, with_scope(&op, |s| insert(&op, s, entry(aborted), true)).unwrap());

        // Fill until an insert activates a third level, and abort that
        // scope.
        let mut key = 1 << 21;
        let activating = loop {
            key += 32;
            let mut scope = op.undo().unwrap();
            let off = insert(&op, &mut scope, entry(key), true).unwrap();
            if op.active_levels().unwrap() == 3 {
                scope.abort().unwrap();
                break off;
            }
            scope.commit().unwrap();
            records.insert(key, off);
        };
        assert_eq!(op.active_levels().unwrap(), 2);
        assert_eq!(lookup(&op, key).unwrap(), None);
        let r = with_scope(&op, |s| insert(&op, s, entry(key), false));
        assert!(matches!(r, Err(PoseidonError::TableFull)), "{r:?}");
        records.insert(key, with_scope(&op, |s| insert(&op, s, entry(key), true)).unwrap());
        assert_eq!(records[&key], activating);
        for (&k, &off) in &records {
            assert_eq!(lookup(&op, k).unwrap().map(|(off, _)| off), Some(off), "key {k}");
            assert_eq!(probe_lookup(&op, k, 3).unwrap().map(|(off, _)| off), Some(off), "key {k}");
        }
        audit_index(&op, &records, 3).unwrap();
    }

    #[test]
    fn writes_behind_the_index_fall_back_to_the_probe() {
        let (dev, layout) = setup();
        let lock = IndexLock::default();
        let records = grow_to_two_levels(&guarded(&dev, &layout, &lock));
        let (keys, offs): (Vec<u64>, Vec<u64>) = records.into_iter().unzip();
        let tombstone = |key| HashEntry { state: state::TOMBSTONE, ..entry(key) };
        // Tombstone key 0 behind the index: no hit, no false duplicate.
        dev.write_pod(offs[0], &tombstone(keys[0])).unwrap();
        let op = guarded(&dev, &layout, &lock);
        assert_eq!(lookup(&op, keys[0]).unwrap(), None);
        assert_eq!(probe_target(&op, keys[0], 2).unwrap(), Target::Slot(0, offs[0]));
        assert_eq!(with_scope(&op, |s| insert(&op, s, entry(keys[0]), true)).unwrap(), offs[0]);
        drop(op);

        // Move key 1 behind the index, to the first EMPTY slot of its
        // windows: the stale hit is rejected and the probe finds the move.
        let op = guarded(&dev, &layout, &lock);
        let moved = (0..2)
            .flat_map(|level| {
                let (capacity, home) =
                    (layout.level_capacity(level), home_slot(keys[1], level, layout.level_capacity(level)));
                (0..PROBE_WINDOW).map(move |i| (level, (home + i) & (capacity - 1)))
            })
            .map(|(level, index)| slot_off(&op, level, index))
            .find(|&off| op.entry(off).unwrap().state == state::EMPTY)
            .unwrap();
        dev.write_pod(moved, &entry(keys[1])).unwrap();
        dev.write_pod(offs[1], &tombstone(keys[1])).unwrap();
        assert_eq!(lookup(&op, keys[1]).unwrap().map(|(off, _)| off), Some(moved));
        drop(op);

        // Write a record into a slot the index holds empty: it is found,
        // and an insert aimed at that slot does not overwrite it.
        let op = guarded(&dev, &layout, &lock);
        let extra = 1u64 << 40;
        let Target::Slot(_, extra_off) = probe_target(&op, extra, 2).unwrap() else {
            panic!("two levels have room")
        };
        let aimed = key_aimed_at(&op, extra_off);
        assert!(lookup(&op, keys[2]).unwrap().is_some()); // the index is built
        dev.write_pod(extra_off, &entry(extra)).unwrap();
        assert_eq!(lookup(&op, extra).unwrap().map(|(off, _)| off), Some(extra_off));
        let aimed_off = with_scope(&op, |s| insert(&op, s, entry(aimed), true)).unwrap();
        assert_ne!(aimed_off, extra_off);
        assert_eq!(lookup(&op, extra).unwrap().map(|(off, _)| off), Some(extra_off));
        for &k in &keys[2..] {
            assert_eq!(lookup(&op, k).unwrap(), probe_lookup(&op, k, 2).unwrap(), "key {k}");
        }
    }
}
