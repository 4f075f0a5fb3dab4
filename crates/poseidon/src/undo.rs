//! Undo logging (§4.5, §5.2) with batched persistence.
//!
//! Every allocator operation mutates metadata inside an *undo scope*:
//! before a range is overwritten, its original bytes are appended to the
//! undo-log area; the new bytes are **staged in DRAM** and only reach
//! the device at commit, after a single fence has made every log entry
//! of the operation durable. A crash at any point leaves either a
//! committed operation or a log whose replay restores the exact pre-op
//! state. Replay is idempotent — replaying twice (e.g. after a crash
//! *during* recovery, §5.8) writes the same old bytes again.
//!
//! # The two-fence commit protocol
//!
//! The old implementation persisted each log entry eagerly — one
//! `clwb`+`sfence` pair per [`log_and_write`](UndoScope::log_and_write)
//! plus two more at commit, i.e. *N* + 2 serialising fences for an
//! *N*-entry operation. The batched protocol pays a constant number:
//!
//! 1. While the operation runs, entries are appended to the log (they
//!    land in the modelled CPU cache); the target mutations are staged in
//!    DRAM ([`StagedWrites`]) and **not issued** to the device at all.
//!    Reads made by the operation are patched through the staged-write
//!    overlay so it observes its own stores.
//! 2. At commit, the log's used prefix is flushed and **fence #1**
//!    issued: every entry is durable before the first target store is
//!    issued.
//! 3. The staged mutations are applied in order, their lines collected
//!    in a deduplicating [`FlushBatch`], flushed, and **fence #2** issued.
//! 4. The generation bump (one 8-byte persisted store, fence #3) is the
//!    commit point, exactly as before.
//!
//! Deferring the target stores — rather than merely deferring their
//! flushes — is what makes the protocol sound under
//! [`CrashMode::Adversarial`](pmem::CrashMode): the cache model may
//! spontaneously evict (persist) *any* dirty line, so a target store
//! issued before its entry was fenced could become durable while the
//! entry tears. With staging, a missing or torn log entry implies the
//! crash preceded fence #1, hence **no** target of the operation was
//! ever issued, let alone persisted. Conversely, an operation that
//! stages nothing commits with **zero** fences — read-only operations
//! are barrier-free.
//!
//! # Linear-time scopes
//!
//! A cache refill or drain withdraws or returns a whole magazine of
//! blocks under one scope (§5.2), so one scope may stage hundreds of
//! writes, most of them to the same few list heads, counters and
//! records. Every step of the scope costs O(1) in the writes staged
//! before it:
//!
//! * **Indexed overlay.** A scope past a few writes keeps a per-line
//!   image of its staged bytes and a byte mask: a read costs one lookup
//!   per line it covers, not a scan of every staged write. The writes
//!   themselves stay in order in one arena, so commit issues exactly the
//!   stores the operation made, in the order it made them.
//! * **Each byte logged once.** A write whose every byte already has an
//!   entry in this scope stages without appending one. Replay runs newest
//!   first, so each byte ends on the value of the oldest entry covering it
//!   — the true pre-op value — and a later entry for the same bytes never
//!   decides a restored value. The entries a scope does append are the
//!   same ones as before, so the format, [`replay`] and recovery are
//!   unchanged.
//! * **Linear flush batches.** [`FlushBatch`] dedupes a line in O(1) and
//!   keeps first-noted order, so the `clwb` sequence is unchanged.
//!
//! The log is invalidated in O(1) by bumping a persistent **generation
//! counter** rather than rewinding a tail: each entry is stamped with the
//! generation it belongs to and carries a checksum, so recovery scans
//! entries from the start of the area and stops at the first entry that
//! fails validation (stale generation, bad checksum, or torn write).
//!
//! Entry layout (all fields little-endian, entries 8-byte aligned):
//!
//! ```text
//! ┌──────────┬─────────────┬──────────┬───────────────┬───────────────┐
//! │ gen: u64 │ target: u64 │ len: u64 │ checksum: u64 │ old bytes…pad │
//! └──────────┴─────────────┴──────────┴───────────────┴───────────────┘
//! ```
//!
//! [`UndoScope`] is the one writer of every log — sub-heap, huge region
//! and superblock alike — and it accesses the device through a
//! [`MetaView`], pmem's one access path. Operation sessions hand it their
//! view mapped over the region's metadata, validated once. The
//! superblock's commits hand it the device's unmapped view
//! ([`PmemDevice::unmapped_view`]) on purpose: mapping the superblock
//! region fails if any of its lines is poisoned, and the superblock has
//! no quarantine to fall back on, while the unmapped view checks each
//! access on its own and fails only those that touch a poisoned line.
//! [`replay`] opens an unmapped view for the same reason — it is the
//! recovery path, and it runs on exactly the states a map refuses.

use std::cell::RefCell;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;

use pmem::{FlushBatch, LineHasher, MetaView, PmemDevice, CACHE_LINE_SIZE};

use crate::error::{PoseidonError, Result};
use crate::hashtable::RecordIndex;

/// Location of one undo-log area and its persistent generation field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UndoArea {
    /// Device offset of the log area.
    pub base: u64,
    /// Size of the log area in bytes.
    pub size: u64,
    /// Device offset of the `u64` generation field. Entries stamped with
    /// the current generation are live; a bump invalidates them all.
    pub gen_field: u64,
}

/// Size of the fixed entry header (gen, target, len, checksum).
pub(crate) const ENTRY_HEADER: u64 = 32;

/// Entry checksum over the *padded* old-bytes image (see the layout
/// diagram above).
pub(crate) fn checksum(gen: u64, target: u64, len: u64, old: &[u8]) -> u64 {
    let mut hash = 0x9E37_79B9_7F4A_7C15u64 ^ gen;
    hash = hash.wrapping_mul(0x100_0000_01B3).rotate_left(17) ^ target;
    hash = hash.wrapping_mul(0x100_0000_01B3).rotate_left(17) ^ len;
    for chunk in old.chunks(8) {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        hash = hash.wrapping_mul(0x100_0000_01B3).rotate_left(17) ^ u64::from_le_bytes(word);
    }
    // Never 0, so an all-zero (never-written) slot always fails.
    hash | 1
}

/// Scopes staging up to this many writes patch reads by scanning the
/// write list; a larger scope also keeps the per-line image. Single
/// allocator operations stay below it and never build the map.
const LIST_SCAN_MAX: usize = 16;

/// One cache line's staged bytes: their newest staged value and which
/// of the line's bytes are staged (bit `i` for byte `i`).
#[derive(Debug, Clone, Copy)]
struct StagedLine {
    bytes: [u8; CACHE_LINE_SIZE as usize],
    mask: u64,
}

/// The target mutations of the open scope, staged in DRAM until commit.
///
/// Every staged write keeps its bytes, in staging order, in one arena, so
/// [`UndoScope::commit`] issues exactly the stores the operation made in
/// the order it made them. A scope that stages more than
/// [`LIST_SCAN_MAX`] writes also keeps a per-line image of their combined
/// effect, so a read costs one lookup per line it covers instead of a
/// scan of every staged write. Since every staged byte was logged by the
/// same scope (see [`UndoScope::log_and_write`]), the staged bytes are
/// also the scope's logged bytes.
#[derive(Debug, Default)]
pub(crate) struct StagedWrites {
    /// The bytes of every staged write, back to back in staging order.
    arena: Vec<u8>,
    /// `(target, len)` of every staged write in staging order; write
    /// `i`'s bytes follow write `i - 1`'s in `arena`.
    writes: Vec<(u64, usize)>,
    /// Line number → that line's staged bytes, once `writes` outgrows
    /// [`LIST_SCAN_MAX`]. Boxed: sessions sit in the stack frames of the
    /// heap's entry points, cached fast path included.
    lines: Option<Box<LineImages>>,
}

type LineImages = HashMap<u64, StagedLine, BuildHasherDefault<LineHasher>>;

/// The bytes of `[start, end)` that fall in line `line`, as a mask over
/// the line's bytes.
fn line_mask(line: u64, start: u64, end: u64) -> u64 {
    let base = line * CACHE_LINE_SIZE;
    let from = start.max(base);
    let to = end.min(base + CACHE_LINE_SIZE);
    if from >= to {
        return 0;
    }
    let bits = to - from;
    let ones = if bits == 64 { u64::MAX } else { (1 << bits) - 1 };
    ones << (from - base)
}

/// The lines covering `[start, end)`.
fn lines_of(start: u64, end: u64) -> std::ops::Range<u64> {
    start / CACHE_LINE_SIZE..end.div_ceil(CACHE_LINE_SIZE)
}

/// Overlays one staged write on a per-line image.
fn overlay(lines: &mut LineImages, target: u64, bytes: &[u8]) {
    let end = target + bytes.len() as u64;
    for line in lines_of(target, end) {
        let staged =
            lines.entry(line).or_insert(StagedLine { bytes: [0; CACHE_LINE_SIZE as usize], mask: 0 });
        let base = line * CACHE_LINE_SIZE;
        let (from, to) = (target.max(base), end.min(base + CACHE_LINE_SIZE));
        staged.bytes[(from - base) as usize..(to - base) as usize]
            .copy_from_slice(&bytes[(from - target) as usize..(to - target) as usize]);
        staged.mask |= line_mask(line, target, end);
    }
}

impl StagedWrites {
    /// Whether nothing is staged.
    pub(crate) fn is_empty(&self) -> bool {
        self.writes.is_empty()
    }

    /// Every staged write, `(target, bytes)` in staging order.
    fn iter(&self) -> impl Iterator<Item = (u64, &[u8])> {
        self.writes.iter().scan(0, |start, &(target, len)| {
            let bytes = &self.arena[*start..*start + len];
            *start += len;
            Some((target, bytes))
        })
    }

    /// Stages `bytes` for `target`, after everything staged so far.
    fn stage(&mut self, target: u64, bytes: &[u8]) {
        self.arena.extend_from_slice(bytes);
        self.writes.push((target, bytes.len()));
        if let Some(lines) = self.lines.as_deref_mut() {
            overlay(lines, target, bytes);
        } else if self.writes.len() > LIST_SCAN_MAX {
            let mut lines = LineImages::default();
            for (target, bytes) in self.iter() {
                overlay(&mut lines, target, bytes);
            }
            self.lines = Some(Box::new(lines));
        }
    }

    /// Patches `buf` (covering `[offset, offset + buf.len())`) with the
    /// staged bytes it overlaps — the newest staged value of each — so
    /// readers see the operation's own not-yet-issued stores.
    pub(crate) fn patch(&self, offset: u64, buf: &mut [u8]) {
        let end = offset + buf.len() as u64;
        let Some(lines) = self.lines.as_deref() else {
            for (target, bytes) in self.iter() {
                let start = target.max(offset);
                let stop = (target + bytes.len() as u64).min(end);
                if start < stop {
                    buf[(start - offset) as usize..(stop - offset) as usize]
                        .copy_from_slice(&bytes[(start - target) as usize..(stop - target) as usize]);
                }
            }
            return;
        };
        for line in lines_of(offset, end) {
            let Some(staged) = lines.get(&line) else { continue };
            let base = line * CACHE_LINE_SIZE;
            let mut mask = staged.mask & line_mask(line, offset, end);
            while mask != 0 {
                let i = mask.trailing_zeros() as u64;
                buf[(base + i - offset) as usize] = staged.bytes[i as usize];
                mask &= mask - 1;
            }
        }
    }

    /// Whether every byte of `[target, target + len)` is staged.
    fn covers(&self, target: u64, len: u64) -> bool {
        let end = target + len;
        lines_of(target, end).all(|line| {
            let want = line_mask(line, target, end);
            let have = match self.lines.as_deref() {
                Some(lines) => lines.get(&line).map_or(0, |staged| staged.mask),
                None => self.writes.iter().fold(0, |have, &(t, n)| have | line_mask(line, t, t + n as u64)),
            };
            have & want == want
        })
    }

    /// Drops everything staged, keeping the write buffers for reuse.
    fn clear(&mut self) {
        self.arena.clear();
        self.writes.clear();
        self.lines = None;
    }
}

/// An open undo scope: logs each metadata mutation before staging it,
/// and commits with the two-fence protocol of the [module docs](self).
/// Every mutation goes through [`log_and_write`](Self::log_and_write);
/// finish with [`commit`](Self::commit) or [`abort`](Self::abort).
///
/// The scope reaches the device through a [`MetaView`]: a session's view
/// mapped over its region, or the unmapped view for the superblock (see
/// the [module docs](self)). The staged target writes live in a cell the
/// caller owns, so the caller's reads can patch them over the device
/// ([`StagedWrites::patch`]) while the scope is open.
///
/// Exactly one scope may be open per area at a time — the caller's
/// sub-heap, huge-region or superblock lock guarantees this. Dropping a
/// scope without committing rolls back immediately, so an early `?`
/// return leaves the metadata untouched; a crash instead leaves durable
/// entries (if fence #1 ran) for [`replay`] to roll back on recovery —
/// and if it did not run, no target was ever touched.
#[derive(Debug)]
pub(crate) struct UndoScope<'s> {
    view: &'s MetaView<'s>,
    staged: &'s RefCell<StagedWrites>,
    area: UndoArea,
    gen: u64,
    /// Bytes of the log area used so far this operation.
    tail: u64,
    /// Whether the scope committed or aborted: a scope dropped
    /// unfinished rolls back.
    finished: bool,
    /// Reusable entry buffer (header + old bytes).
    buffer: Vec<u8>,
    /// The sub-heap's record index, which the scope's inserts and
    /// deletes update ahead of the commit: a rollback drops it.
    index: Option<&'s RefCell<RecordIndex>>,
}

impl<'s> UndoScope<'s> {
    /// Opens a scope on `area` through `view`, staging target writes in
    /// `staged`.
    ///
    /// A log still holding live entries is rejected unless `lock_held`:
    /// without knowing who owns the area, the entries may belong to a
    /// *concurrently open* scope (a locking bug), and rolling them back
    /// underneath it would corrupt that operation. A caller that holds
    /// the area's lock rules that out, so live entries can only be an
    /// earlier rollback that died mid-flight (e.g. interrupted by a
    /// transient media fault); they are re-driven here — load-time
    /// replay run early — and only if that rollback cannot complete does
    /// the area stay wedged.
    ///
    /// # Errors
    ///
    /// [`PoseidonError::Corrupted`] if live entries are present and may
    /// not (or cannot) be re-driven, or a device error.
    pub fn begin(
        view: &'s MetaView<'s>,
        staged: &'s RefCell<StagedWrites>,
        area: UndoArea,
        lock_held: bool,
        index: Option<&'s RefCell<RecordIndex>>,
    ) -> Result<UndoScope<'s>> {
        debug_assert!(staged.borrow().is_empty(), "one undo scope per session at a time");
        let mut gen: u64 = view.read_pod(area.gen_field)?;
        if read_entry(view, area, gen, 0)?.is_some() {
            if !lock_held {
                return Err(PoseidonError::Corrupted("undo log non-empty at operation start"));
            }
            apply_undo(view, area, gen)?;
            gen = view.read_pod(area.gen_field)?;
            if read_entry(view, area, gen, 0)?.is_some() {
                return Err(PoseidonError::Corrupted("undo log non-empty at operation start"));
            }
        }
        Ok(UndoScope { view, staged, area, gen, tail: 0, finished: false, buffer: Vec::new(), index })
    }

    /// Whether one more entry logging `len` target bytes still fits in
    /// the log area. Batch operations (cache refill/drain) size their
    /// batches with this so they commit what fits instead of dying on
    /// `"undo log overflow"`.
    pub fn has_room_for(&self, len: u64) -> bool {
        self.tail + ENTRY_HEADER + len.next_multiple_of(8) <= self.area.size
    }

    /// Stages `new` for application at commit, first appending an entry
    /// that logs the current (overlay-visible) content of
    /// `[target, target + new.len())` — unless every one of those bytes
    /// already has an entry in this scope. Newest-first replay restores
    /// each byte from the oldest entry covering it, so a second entry
    /// for the same bytes would never decide a restored value. The entry
    /// write lands in cache now; nothing touches the target until
    /// [`commit`](Self::commit).
    ///
    /// # Errors
    ///
    /// [`PoseidonError::Corrupted`] if the log area overflows, or a
    /// device error.
    pub fn log_and_write(&mut self, target: u64, new: &[u8]) -> Result<()> {
        let mut staged = self.staged.borrow_mut();
        if !staged.covers(target, new.len() as u64) {
            self.append_entry(&staged, target, new.len())?;
        }
        staged.stage(target, new);
        Ok(())
    }

    /// Appends the entry logging `[target, target + len)` as `staged`
    /// shows it.
    fn append_entry(&mut self, staged: &StagedWrites, target: u64, len: usize) -> Result<()> {
        let entry_len = ENTRY_HEADER + (len as u64).next_multiple_of(8);
        if self.tail + entry_len > self.area.size {
            return Err(PoseidonError::Corrupted("undo log overflow"));
        }
        let header = ENTRY_HEADER as usize;
        self.buffer.clear();
        self.buffer.resize(entry_len as usize, 0);
        // The old image is read through the staged-write overlay: bytes an
        // earlier entry of this scope logged carry their staged value, so
        // reverse replay still lands every byte on the value of the
        // *first* entry that covers it — the true pre-op state.
        self.view.read(target, &mut self.buffer[header..header + len])?;
        staged.patch(target, &mut self.buffer[header..header + len]);
        let sum = checksum(self.gen, target, len as u64, &self.buffer[header..]);
        self.buffer[0..8].copy_from_slice(&self.gen.to_le_bytes());
        self.buffer[8..16].copy_from_slice(&target.to_le_bytes());
        self.buffer[16..24].copy_from_slice(&(len as u64).to_le_bytes());
        self.buffer[24..32].copy_from_slice(&sum.to_le_bytes());
        self.view.write(self.area.base + self.tail, &self.buffer)?;
        self.view.device().record_undo_append((len as u64).div_ceil(8));
        self.tail += entry_len;
        Ok(())
    }

    /// [`log_and_write`](Self::log_and_write) of a [`pmem::Pod`] value.
    ///
    /// # Errors
    ///
    /// As for [`log_and_write`](Self::log_and_write).
    pub fn log_and_write_pod<T: pmem::Pod>(&mut self, target: u64, value: &T) -> Result<()> {
        self.log_and_write(target, value.as_bytes())
    }

    /// The two-fence commit described in the [module docs](self): fence
    /// the log's used prefix, issue + fence the staged stores (lines
    /// deduped), bump the generation. A scope that logged nothing staged
    /// nothing either and returns without touching the device — zero
    /// flushes, zero fences.
    ///
    /// # Errors
    ///
    /// Device errors only; the dropped scope then rolls back.
    pub fn commit(mut self) -> Result<()> {
        let mut staged = self.staged.borrow_mut();
        if self.tail == 0 {
            staged.clear();
            self.finished = true;
            return Ok(());
        }
        // Fence #1: every log entry durable before any target store is
        // *issued* (required under adversarial eviction, see module docs).
        // The entries fill the log from its base, so their lines are the
        // used prefix's, in order.
        let mut batch = FlushBatch::new();
        batch.note(self.area.base, self.tail);
        self.view.flush_batch(&batch)?;
        self.view.sfence()?;
        // Apply the staged mutations in order, deduplicating their lines.
        batch.clear();
        for (target, bytes) in staged.iter() {
            self.view.write(target, bytes)?;
            batch.note(target, bytes.len() as u64);
        }
        staged.clear();
        // Fence #2: targets durable.
        self.view.flush_batch(&batch)?;
        self.view.sfence()?;
        // Fence #3: invalidate the log — the commit point.
        bump_generation(self.view, self.area, self.gen)?;
        self.finished = true;
        Ok(())
    }

    /// Rolls the scope back and invalidates the log: staged stores are
    /// discarded, and [`apply_undo`] restores every logged range (newest
    /// first) — a harmless no-op for targets never issued, which covers
    /// aborts racing a partially failed commit.
    ///
    /// # Errors
    ///
    /// Device errors only.
    pub fn abort(mut self) -> Result<()> {
        self.drop_index();
        self.finished = true;
        self.staged.borrow_mut().clear();
        if self.tail > 0 {
            apply_undo(self.view, self.area, self.gen)?;
        }
        Ok(())
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

impl Drop for UndoScope<'_> {
    /// A scope dropped unfinished (an early `?` return or a failed
    /// commit) must not leave half-applied metadata behind: roll back
    /// best-effort. If the device has crashed, rollback fails harmlessly
    /// here and recovery replays the log instead.
    fn drop(&mut self) {
        if self.finished {
            return;
        }
        self.drop_index();
        self.staged.borrow_mut().clear();
        if self.tail != 0 {
            let _ = apply_undo(self.view, self.area, self.gen);
        }
    }
}

/// A decoded log entry: `(target, len, old_bytes, entry_len)`.
pub(crate) type DecodedEntry = (u64, u64, Vec<u8>, u64);

/// Reads and validates the entry at byte position `pos` for generation
/// `gen`. Returns the decoded entry or `None` when the slot does not
/// hold a live entry (end of log).
pub(crate) fn read_entry(
    view: &MetaView<'_>,
    area: UndoArea,
    gen: u64,
    pos: u64,
) -> Result<Option<DecodedEntry>> {
    if pos + ENTRY_HEADER > area.size {
        return Ok(None);
    }
    let entry_gen: u64 = view.read_pod(area.base + pos)?;
    if entry_gen != gen {
        return Ok(None);
    }
    let target: u64 = view.read_pod(area.base + pos + 8)?;
    let len: u64 = view.read_pod(area.base + pos + 16)?;
    let stored_sum: u64 = view.read_pod(area.base + pos + 24)?;
    if len > area.size || pos + ENTRY_HEADER + len.next_multiple_of(8) > area.size {
        return Ok(None); // torn header
    }
    let mut old = vec![0u8; len.next_multiple_of(8) as usize];
    view.read(area.base + pos + ENTRY_HEADER, &mut old)?;
    if checksum(gen, target, len, &old) != stored_sum {
        return Ok(None); // torn entry
    }
    old.truncate(len as usize);
    Ok(Some((target, len, old, ENTRY_HEADER + len.next_multiple_of(8))))
}

/// Restores all live entries of generation `gen` (newest first), persists
/// the restorations with one deduplicated flush batch + fence, and
/// invalidates the log.
///
/// The log is fenced durable *before* the first restoration store is
/// issued — the same discipline as [`UndoScope::commit`]'s fence #1, for
/// the same reason: restores rewind through overlay-patched intermediate
/// pre-images that never existed on media, so a crash that interrupts
/// them is only recoverable if the complete chain survives for recovery
/// to replay. (On an abort racing a crash the entries may exist only in
/// cache; a rollback begun without this fence could persist a bogus
/// intermediate value while the chain tears.)
fn apply_undo(view: &MetaView<'_>, area: UndoArea, gen: u64) -> Result<()> {
    let mut entries = Vec::new();
    let mut pos = 0u64;
    while let Some((target, len, old, entry_len)) = read_entry(view, area, gen, pos)? {
        entries.push((target, len, old));
        pos += entry_len;
    }
    if pos > 0 {
        let mut log_batch = FlushBatch::new();
        log_batch.note(area.base, pos);
        view.flush_batch(&log_batch)?;
        view.sfence()?;
    }
    let mut batch = FlushBatch::new();
    for (target, len, old) in entries.iter().rev() {
        view.write(*target, old)?;
        batch.note(*target, *len);
    }
    view.flush_batch(&batch)?;
    view.sfence()?;
    bump_generation(view, area, gen)?;
    Ok(())
}

fn bump_generation(view: &MetaView<'_>, area: UndoArea, gen: u64) -> Result<()> {
    view.write_pod(area.gen_field, &(gen + 1))?;
    view.clwb(area.gen_field, 8)?;
    view.sfence()?;
    Ok(())
}

/// Recovery entry point: if the area holds live entries, rolls the
/// interrupted operation back through the device's unmapped view (see
/// the [module docs](self)). Returns whether anything was replayed.
///
/// Idempotent: crashing during replay and replaying again is safe (§5.8).
///
/// # Errors
///
/// Device errors.
pub fn replay(dev: &PmemDevice, area: UndoArea) -> Result<bool> {
    let view = dev.unmapped_view();
    let gen: u64 = view.read_pod(area.gen_field)?;
    if read_entry(&view, area, gen, 0)?.is_none() {
        return Ok(false);
    }
    apply_undo(&view, area, gen)?;
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmem::{AccessKind, CrashMode, DeviceConfig, Pod, StatsSnapshot};

    /// Bytes a test view maps: the generation field, the log area and
    /// the targets.
    const VIEW_LEN: u64 = 128 * 1024;

    fn setup() -> (PmemDevice, UndoArea) {
        let dev = PmemDevice::new(DeviceConfig::small_test());
        // Generation field at 0, log area at 4096, targets from 64 KiB.
        let area = UndoArea { base: 4096, size: 8192, gen_field: 0 };
        (dev, area)
    }

    /// Opens a scope without claiming the area's lock (strict begin).
    fn begin<'s>(
        view: &'s MetaView<'s>,
        staged: &'s RefCell<StagedWrites>,
        area: UndoArea,
    ) -> Result<UndoScope<'s>> {
        UndoScope::begin(view, staged, area, false, None)
    }

    /// Reads a word the way the scope's owner does: through the
    /// staged-write overlay.
    fn read_staged(view: &MetaView<'_>, staged: &RefCell<StagedWrites>, offset: u64) -> u64 {
        let mut word: u64 = view.read_pod(offset).unwrap();
        staged.borrow().patch(offset, word.as_bytes_mut());
        word
    }

    /// Runs protocol case `$case(dev, view, area)` through both view
    /// modes, each on a fresh device: the device's unmapped view, then a
    /// view mapped over [`VIEW_LEN`] bytes. Both runs must count the same
    /// traffic: every counter but `validations` and `meta_maps`, which
    /// tell the modes apart by design. Evaluates to each run's device
    /// stats before and after, the latter taken once the view has dropped
    /// (a mapped view flushes its traffic counters on drop).
    macro_rules! on_both_paths {
        ($case:ident) => {{
            let run = |mapped: bool| {
                let (dev, area) = setup();
                let before = dev.stats();
                if mapped {
                    $case(&dev, &dev.map_meta(0, VIEW_LEN, AccessKind::Write).unwrap(), area);
                } else {
                    $case(&dev, &dev.unmapped_view(), area);
                }
                (before, dev.stats())
            };
            let runs = [run(false), run(true)];
            let [unmapped, mapped] =
                runs.map(|(_, after)| StatsSnapshot { validations: 0, meta_maps: 0, ..after });
            assert_eq!(unmapped, mapped, "the view modes' traffic differs");
            runs
        }};
    }

    #[test]
    fn commit_makes_writes_durable() {
        fn case(dev: &PmemDevice, view: &MetaView<'_>, area: UndoArea) {
            let staged = RefCell::default();
            let mut s = begin(view, &staged, area).unwrap();
            s.log_and_write_pod(64 * 1024, &0xAAu64).unwrap();
            s.log_and_write_pod(64 * 1024 + 8, &0xBBu64).unwrap();
            s.commit().unwrap();
            dev.simulate_crash(CrashMode::Strict, 0);
            assert_eq!(dev.read_pod::<u64>(64 * 1024).unwrap(), 0xAA);
            assert_eq!(dev.read_pod::<u64>(64 * 1024 + 8).unwrap(), 0xBB);
            // Log is invalid after commit.
            assert!(!replay(dev, area).unwrap());
        }
        on_both_paths!(case);
    }

    #[test]
    fn staged_writes_are_visible_only_through_the_overlay() {
        fn case(dev: &PmemDevice, view: &MetaView<'_>, area: UndoArea) {
            let target = 64 * 1024;
            dev.write_pod(target, &1u64).unwrap();
            dev.persist(target, 8).unwrap();
            let staged = RefCell::default();
            let mut s = begin(view, &staged, area).unwrap();
            s.log_and_write_pod(target, &2u64).unwrap();
            // The store is staged: invisible to a raw read, visible
            // through the overlay.
            assert_eq!(view.read_pod::<u64>(target).unwrap(), 1);
            assert_eq!(read_staged(view, &staged, target), 2);
            s.commit().unwrap();
            assert_eq!(view.read_pod::<u64>(target).unwrap(), 2);
            assert_eq!(read_staged(view, &staged, target), 2);
        }
        on_both_paths!(case);
    }

    #[test]
    fn drop_without_commit_rolls_back() {
        fn case(dev: &PmemDevice, view: &MetaView<'_>, area: UndoArea) {
            let target = 64 * 1024;
            dev.write_pod(target, &7u64).unwrap();
            let staged = RefCell::default();
            {
                let mut s = begin(view, &staged, area).unwrap();
                s.log_and_write_pod(target, &8u64).unwrap();
                // dropped here without commit
            }
            assert_eq!(read_staged(view, &staged, target), 7);
            // A fresh scope can begin.
            begin(view, &staged, area).unwrap().commit().unwrap();
        }
        on_both_paths!(case);
    }

    #[test]
    fn abort_restores_the_first_pre_image() {
        // Logging target→2 then target→3 appends one entry (old value 1):
        // the second write's bytes are already logged. A wider write over
        // them appends an entry whose overlapped bytes log their staged
        // value 3, and the newest-first abort still ends every byte on
        // its true pre-op value.
        fn case(dev: &PmemDevice, view: &MetaView<'_>, area: UndoArea) {
            let target = 64 * 1024;
            dev.write_pod(target, &1u64).unwrap();
            dev.write_pod(target + 8, &4u64).unwrap();
            dev.persist(target, 16).unwrap();
            let staged = RefCell::default();
            let mut s = begin(view, &staged, area).unwrap();
            s.log_and_write_pod(target, &2u64).unwrap();
            assert_eq!(read_staged(view, &staged, target), 2);
            s.log_and_write_pod(target, &3u64).unwrap();
            assert_eq!(read_staged(view, &staged, target), 3);
            assert_eq!(s.tail, ENTRY_HEADER + 8, "a rewrite of logged bytes appended an entry");
            let wide: Vec<u8> = [5u64, 6].iter().flat_map(|w| w.to_le_bytes()).collect();
            s.log_and_write(target, &wide).unwrap();
            assert_eq!(s.tail, 2 * ENTRY_HEADER + 24);
            s.abort().unwrap();
            assert_eq!(read_staged(view, &staged, target), 1);
            assert_eq!(read_staged(view, &staged, target + 8), 4);
            assert!(!replay(dev, area).unwrap());
        }
        on_both_paths!(case);
    }

    #[test]
    fn indexed_overlay_matches_an_in_order_reference() {
        // Seeded random overlapping writes and reads over 16 lines, 60
        // writes a scope: well past the list scan, so most reads and
        // pre-images come from the per-line image. A naive reference
        // replays every staged write in order over the media bytes, and
        // appends an entry exactly when some target byte is not yet
        // logged; reads, the log chain and the committed or aborted
        // media must all match it.
        const BASE: u64 = 64 * 1024;
        const SPAN: usize = 1024;
        fn case(dev: &PmemDevice, view: &MetaView<'_>, area: UndoArea) {
            let mut rng = platform::rng::Rng::new(0x0DD_5EED);
            let mut media = vec![0u8; SPAN];
            rng.fill(&mut media);
            dev.write(BASE, &media).unwrap();
            dev.persist(BASE, SPAN as u64).unwrap();
            for round in 0..8 {
                let staged = RefCell::default();
                let mut scope = begin(view, &staged, area).unwrap();
                let gen = scope.gen;
                let mut writes: Vec<(usize, Vec<u8>)> = Vec::new();
                let mut logged = vec![false; SPAN];
                let mut entries: Vec<(u64, Vec<u8>)> = Vec::new();
                let naive = |writes: &[(usize, Vec<u8>)], at: usize, len: usize| {
                    let mut out = media[at..at + len].to_vec();
                    for (target, bytes) in writes {
                        for (i, &b) in bytes.iter().enumerate() {
                            if (at..at + len).contains(&(target + i)) {
                                out[target + i - at] = b;
                            }
                        }
                    }
                    out
                };
                for _ in 0..60 {
                    let len = 1 + rng.below(100) as usize;
                    let at = rng.below((SPAN - len) as u64) as usize;
                    let mut bytes = vec![0u8; len];
                    rng.fill(&mut bytes);
                    if logged[at..at + len].contains(&false) {
                        entries.push((BASE + at as u64, naive(&writes, at, len)));
                        logged[at..at + len].fill(true);
                    }
                    scope.log_and_write(BASE + at as u64, &bytes).unwrap();
                    writes.push((at, bytes));
                    for _ in 0..3 {
                        let len = 1 + rng.below(150) as usize;
                        let at = rng.below((SPAN - len) as u64) as usize;
                        let mut buf = vec![0u8; len];
                        view.read(BASE + at as u64, &mut buf).unwrap();
                        staged.borrow().patch(BASE + at as u64, &mut buf);
                        assert_eq!(buf, naive(&writes, at, len), "round {round}: read {at}+{len}");
                    }
                }
                let mut pos = 0;
                for (i, (target, old)) in entries.iter().enumerate() {
                    let (t, _, logged_old, entry_len) =
                        read_entry(view, area, gen, pos).unwrap().expect("entry missing");
                    assert_eq!((t, &logged_old), (*target, old), "round {round}: entry {i}");
                    pos += entry_len;
                }
                assert_eq!(pos, scope.tail, "round {round}: entries beyond the reference's");
                if round % 2 == 0 {
                    scope.commit().unwrap();
                    media = naive(&writes, 0, SPAN);
                } else {
                    scope.abort().unwrap();
                }
                let mut now = vec![0u8; SPAN];
                dev.read(BASE, &mut now).unwrap();
                assert_eq!(now, media, "round {round}: media after the scope");
            }
        }
        on_both_paths!(case);
    }

    #[test]
    fn overflow_is_detected() {
        fn case(_: &PmemDevice, view: &MetaView<'_>, area: UndoArea) {
            let staged = RefCell::default();
            let mut s = begin(view, &staged, area).unwrap();
            let big = vec![0u8; 4096];
            let mut wrote = 0u64;
            // Distinct targets: a range already logged appends nothing.
            let err = loop {
                match s.log_and_write(64 * 1024 + wrote * 4096, &big) {
                    Ok(()) => wrote += 1,
                    Err(e) => break e,
                }
            };
            assert!(wrote > 0);
            assert!(matches!(err, PoseidonError::Corrupted("undo log overflow")));
            s.abort().unwrap();
        }
        on_both_paths!(case);
    }

    #[test]
    fn empty_commit_is_barrier_free() {
        // A scope that logs nothing must not pay a single flush or fence,
        // and must not bump the generation.
        fn case(dev: &PmemDevice, view: &MetaView<'_>, area: UndoArea) {
            let gen_before: u64 = dev.read_pod(area.gen_field).unwrap();
            let staged = RefCell::default();
            begin(view, &staged, area).unwrap().commit().unwrap();
            assert_eq!(dev.read_pod::<u64>(area.gen_field).unwrap(), gen_before);
        }
        for (before, after) in on_both_paths!(case) {
            assert_eq!(after.sfence_count, before.sfence_count, "empty commit fenced");
            assert_eq!(after.clwb_count, before.clwb_count, "empty commit flushed");
        }
    }

    #[test]
    fn crash_before_commit_leaves_media_untouched() {
        // Without commit, neither the entries nor the targets were ever
        // fenced (targets were never even issued): a strict crash is a
        // complete no-op for the operation.
        let (dev, area) = setup();
        let view = dev.unmapped_view();
        let target = 64 * 1024;
        dev.write_pod(target, &1u64).unwrap();
        dev.persist(target, 8).unwrap();

        let staged = RefCell::default();
        let mut s = begin(&view, &staged, area).unwrap();
        s.log_and_write_pod(target, &2u64).unwrap();
        std::mem::forget(s); // simulate losing the scope in a crash
        dev.simulate_crash(CrashMode::Strict, 7);

        assert!(!replay(&dev, area).unwrap());
        assert_eq!(dev.read_pod::<u64>(target).unwrap(), 1);
    }

    #[test]
    fn crash_during_commit_replays_to_old_state() {
        let (dev, area) = setup();
        let view = dev.unmapped_view();
        let target = 64 * 1024;
        dev.write_pod(target, &1u64).unwrap();
        dev.persist(target, 8).unwrap();

        let staged = RefCell::default();
        let mut s = begin(&view, &staged, area).unwrap();
        s.log_and_write_pod(target, &2u64).unwrap();
        // Commit events: entry write, entry-line clwb, fence #1, target
        // write, … Crash on the target flush: the entry is durable, the
        // target store issued but not persisted.
        dev.arm_crash_after(4);
        assert!(s.commit().is_err());
        dev.simulate_crash(CrashMode::Strict, 7);

        assert!(replay(&dev, area).unwrap());
        assert_eq!(dev.read_pod::<u64>(target).unwrap(), 1);
        // Idempotent: nothing left to replay.
        assert!(!replay(&dev, area).unwrap());
    }

    #[test]
    fn replay_restores_in_reverse_order() {
        let (dev, area) = setup();
        let view = dev.unmapped_view();
        let target = 64 * 1024;
        dev.write_pod(target, &1u64).unwrap();
        dev.persist(target, 8).unwrap();
        let staged = RefCell::default();
        let mut s = begin(&view, &staged, area).unwrap();
        s.log_and_write_pod(target, &2u64).unwrap();
        s.log_and_write_pod(target, &3u64).unwrap(); // same target twice
        s.commit().unwrap();
        dev.simulate_crash(CrashMode::Strict, 0);
        assert_eq!(dev.read_pod::<u64>(target).unwrap(), 3);
        // Now interrupt a fresh double-update during target application:
        // one entry (the second write's bytes are logged already), its
        // clwb, fence #1, the first staged store — the crash lands on the
        // second.
        let mut s = begin(&view, &staged, area).unwrap();
        s.log_and_write_pod(target, &4u64).unwrap();
        s.log_and_write_pod(target, &5u64).unwrap();
        dev.arm_crash_after(4);
        assert!(s.commit().is_err());
        dev.simulate_crash(CrashMode::Strict, 0);
        replay(&dev, area).unwrap();
        // Reverse application ends on the *first* entry's old value.
        assert_eq!(dev.read_pod::<u64>(target).unwrap(), 3);
    }

    #[test]
    fn begin_rejects_unrecovered_log() {
        let (dev, area) = setup();
        let view = dev.unmapped_view();
        let staged = RefCell::default();
        let mut s = begin(&view, &staged, area).unwrap();
        s.log_and_write_pod(64 * 1024, &1u64).unwrap();
        std::mem::forget(s);
        let staged = RefCell::default();
        assert!(matches!(begin(&view, &staged, area), Err(PoseidonError::Corrupted(_))));
        replay(&dev, area).unwrap();
        begin(&view, &staged, area).unwrap().commit().unwrap();
    }

    #[test]
    fn commit_dedupes_same_line_flushes() {
        // Two staged writes to one cache line must cost one target clwb,
        // not two (and the two 40-byte entries share a line boundary:
        // lines 0 and 1 of the log area).
        let (dev, area) = setup();
        let view = dev.unmapped_view();
        let target = 64 * 1024; // line-aligned
        let before = dev.stats();
        let staged = RefCell::default();
        let mut s = begin(&view, &staged, area).unwrap();
        s.log_and_write_pod(target, &2u64).unwrap();
        s.log_and_write_pod(target + 8, &3u64).unwrap(); // same line
        s.commit().unwrap();
        let after = dev.stats();
        // entries: 2 lines (80 bytes from a line-aligned base);
        // targets: 1 line (deduped); generation bump: 1 line.
        assert_eq!(after.clwb_count - before.clwb_count, 4, "same-line clwbs not deduped");
        assert_eq!(after.sfence_count - before.sfence_count, 3);
    }

    #[test]
    fn replay_survives_crash_during_replay() {
        let (dev, area) = setup();
        let view = dev.unmapped_view();
        let target = 64 * 1024;
        dev.write_pod(target, &1u64).unwrap();
        dev.persist(target, 8).unwrap();
        let staged = RefCell::default();
        let mut s = begin(&view, &staged, area).unwrap();
        s.log_and_write_pod(target, &2u64).unwrap();
        s.log_and_write_pod(target + 8, &9u64).unwrap();
        // Crash right after fence #1 (2 entry writes + 2 entry-line
        // clwbs + the fence): entries durable, no target issued.
        dev.arm_crash_after(5);
        assert!(s.commit().is_err());
        dev.simulate_crash(CrashMode::Strict, 0);

        // Crash partway through the replay itself.
        dev.arm_crash_after(1);
        assert!(replay(&dev, area).is_err());
        dev.simulate_crash(CrashMode::Strict, 1);

        // Second replay completes.
        assert!(replay(&dev, area).unwrap());
        assert_eq!(dev.read_pod::<u64>(target).unwrap(), 1);
        assert_eq!(dev.read_pod::<u64>(target + 8).unwrap(), 0);
    }

    #[test]
    fn begin_redrives_a_rollback_interrupted_mid_flight() {
        // A rollback that dies partway (here: device failure during the
        // abort) leaves the log live. A lock-holding caller must be able
        // to finish the rollback instead of wedging until a power cycle;
        // a strict begin (which cannot assume the lock) still rejects.
        let (dev, area) = setup();
        let view = dev.unmapped_view();
        let target = 64 * 1024;
        dev.write_pod(target, &1u64).unwrap();
        dev.persist(target, 8).unwrap();
        let staged = RefCell::default();
        let mut s = begin(&view, &staged, area).unwrap();
        s.log_and_write_pod(target, &2u64).unwrap();
        s.log_and_write_pod(target + 8, &9u64).unwrap();
        dev.arm_crash_after(5);
        assert!(s.commit().is_err()); // consumes s; its rollback fails too
        dev.clear_crash();

        // A strict begin stays strict about the live log...
        assert!(matches!(begin(&view, &staged, area), Err(PoseidonError::Corrupted(_))));

        // ...but a lock-holding begin re-drives the rollback and opens
        // cleanly on the bumped generation.
        let s = UndoScope::begin(&view, &staged, area, true, None).unwrap();
        drop(s);
        assert_eq!(dev.read_pod::<u64>(target).unwrap(), 1);
        assert!(!replay(&dev, area).unwrap());
    }

    #[test]
    fn adversarial_crash_still_recovers() {
        // Sweep a crash point over the entire operation (logging and
        // every commit event), then let the adversarial cache model
        // persist an arbitrary subset of dirty lines. Invariants:
        //
        // 1. A missing/torn log entry with an unbumped generation
        //    implies the crash preceded fence #1, so *no* target (that
        //    entry's or any later one's) was ever mutated.
        // 2. After replay the heap is atomic: all targets old or all
        //    targets new.
        let targets = |i: u64| 64 * 1024 + i * 128; // distinct lines
        for arm in 1..=18u64 {
            for seed in 0..8u64 {
                let (dev, area) = setup();
                let view = dev.unmapped_view();
                for i in 0..3 {
                    dev.write_pod(targets(i), &1u64).unwrap();
                    dev.persist(targets(i), 8).unwrap();
                }
                let start_gen: u64 = dev.read_pod(area.gen_field).unwrap();
                dev.arm_crash_after(arm);
                let staged = RefCell::default();
                let committed = (|| -> Result<()> {
                    let mut s = begin(&view, &staged, area)?;
                    for i in 0..3 {
                        s.log_and_write_pod(targets(i), &2u64)?;
                    }
                    s.commit()
                })()
                .is_ok();
                dev.simulate_crash(CrashMode::Adversarial, seed);

                let media_gen: u64 = dev.read_pod(area.gen_field).unwrap();
                let mut live = 0u64;
                let mut pos = 0u64;
                while let Some((_, _, _, entry_len)) = read_entry(&view, area, media_gen, pos).unwrap() {
                    live += 1;
                    pos += entry_len;
                }
                if committed {
                    for i in 0..3 {
                        assert_eq!(dev.read_pod::<u64>(targets(i)).unwrap(), 2);
                    }
                }
                if media_gen == start_gen && live < 3 {
                    // Invariant 1: fence #1 cannot have run (it makes all
                    // three entries durable), so no target was issued.
                    for i in 0..3 {
                        assert_eq!(
                            dev.read_pod::<u64>(targets(i)).unwrap(),
                            1,
                            "arm {arm} seed {seed}: torn log but target {i} mutated"
                        );
                    }
                }
                replay(&dev, area).unwrap();
                let after: Vec<u64> = (0..3).map(|i| dev.read_pod::<u64>(targets(i)).unwrap()).collect();
                assert!(
                    after == [1, 1, 1] || after == [2, 2, 2],
                    "arm {arm} seed {seed}: non-atomic outcome {after:?}"
                );
            }
        }
    }

    #[test]
    fn generation_bump_invalidates_stale_entries() {
        let (dev, area) = setup();
        let view = dev.unmapped_view();
        let target = 64 * 1024;
        let staged = RefCell::default();
        let mut s = begin(&view, &staged, area).unwrap();
        s.log_and_write_pod(target, &5u64).unwrap();
        s.commit().unwrap();
        // The old entry bytes still sit in the log area but belong to a
        // dead generation: a new scope starts clean and replay is a no-op.
        assert!(!replay(&dev, area).unwrap());
        let mut s = begin(&view, &staged, area).unwrap();
        s.log_and_write_pod(target, &6u64).unwrap();
        s.commit().unwrap();
        assert_eq!(dev.read_pod::<u64>(target).unwrap(), 6);
    }
}
