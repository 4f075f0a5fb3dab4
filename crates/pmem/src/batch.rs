//! Write-combining flush batches.
//!
//! A `clwb` costs a full validation + cache-model round trip per call,
//! and — much worse for a logging allocator — every eager
//! `clwb`+`sfence` pair is a serialising barrier. A [`FlushBatch`]
//! collects the *lines* a caller intends to flush, deduplicating as it
//! goes (two stores to one cache line need one `clwb`, not two), so the
//! caller can issue every flush of an operation back-to-back and pay a
//! single fence for the lot: note ranges while mutating, then
//! [`PmemDevice::flush_batch`](crate::PmemDevice::flush_batch) (or
//! [`MetaView::flush_batch`](crate::MetaView::flush_batch)) + one
//! `sfence` at the ordering point.
//!
//! The batch holds line *numbers*, not data — noting a range never
//! touches the device, so it cannot fail and costs nothing until the
//! flush is issued. Noting a line costs O(1) however large the batch:
//! a single operation notes a handful of lines, but a batched one (a
//! cache refill or drain under one undo commit) notes hundreds.

use std::collections::HashSet;
use std::hash::BuildHasherDefault;

use crate::cache::{LineHasher, CACHE_LINE_SIZE};

/// Batches up to this many lines dedupe by scanning the line list; a
/// larger batch also keeps the lines in a set. Small batches, the common
/// case, so allocate nothing beyond the list.
const SCAN_MAX: usize = 16;

/// A deduplicated set of cache lines pending `clwb`. See the
/// [module docs](self).
#[derive(Debug, Default, Clone)]
pub struct FlushBatch {
    /// Line numbers (device offset / [`CACHE_LINE_SIZE`]), deduplicated,
    /// in first-noted order: the order a flush issues them.
    lines: Vec<u64>,
    /// The same lines as a set, filled once `lines` outgrows
    /// [`SCAN_MAX`] (empty until then).
    seen: HashSet<u64, BuildHasherDefault<LineHasher>>,
}

impl FlushBatch {
    /// An empty batch.
    pub fn new() -> FlushBatch {
        FlushBatch::default()
    }

    /// Adds every line covering `[offset, offset + len)` to the batch.
    /// Lines already noted are not added again. A zero-length range adds
    /// nothing.
    pub fn note(&mut self, offset: u64, len: u64) {
        if len == 0 {
            return;
        }
        let first = offset / CACHE_LINE_SIZE;
        let last = (offset + len - 1) / CACHE_LINE_SIZE;
        if self.lines.is_empty() {
            // One range's lines are distinct: nothing to dedupe yet.
            self.lines.extend(first..=last);
            return;
        }
        for line in first..=last {
            if self.is_new(line) {
                self.lines.push(line);
            }
        }
    }

    /// Whether `line` is not noted yet; past [`SCAN_MAX`] lines, also
    /// records it in the set (first filling the set from the list).
    fn is_new(&mut self, line: u64) -> bool {
        if self.lines.len() < SCAN_MAX {
            return !self.lines.contains(&line);
        }
        if self.seen.is_empty() {
            self.seen.extend(&self.lines);
        }
        self.seen.insert(line)
    }

    /// Whether no lines are pending.
    pub fn is_empty(&self) -> bool {
        self.lines.is_empty()
    }

    /// Number of distinct lines pending (= `clwb`s a flush will issue).
    pub fn line_count(&self) -> usize {
        self.lines.len()
    }

    /// Forgets all pending lines (the batch can be reused).
    pub fn clear(&mut self) {
        self.lines.clear();
        self.seen.clear();
    }

    /// The pending line numbers, in insertion order.
    pub(crate) fn lines(&self) -> &[u64] {
        &self.lines
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn note_dedupes_by_line() {
        let mut batch = FlushBatch::new();
        batch.note(0, 8);
        batch.note(8, 8); // same line
        batch.note(63, 2); // lines 0 and 1
        assert_eq!(batch.line_count(), 2);
        batch.note(64, 64); // line 1 again
        assert_eq!(batch.line_count(), 2);
        assert_eq!(batch.lines(), &[0, 1]);
    }

    #[test]
    fn zero_length_note_is_ignored() {
        let mut batch = FlushBatch::new();
        batch.note(128, 0);
        assert!(batch.is_empty());
        assert_eq!(batch.line_count(), 0);
    }

    #[test]
    fn large_batches_dedupe_and_keep_first_noted_order() {
        // Past the scan threshold the set takes over: the line order and
        // the dedupe must read exactly as they do below it.
        let mut batch = FlushBatch::new();
        let order: Vec<u64> = (0..200u64).map(|i| (i * 37) % 101).collect();
        let mut expected = Vec::new();
        for &line in &order {
            batch.note(line * CACHE_LINE_SIZE + 8, 16);
            batch.note(line * CACHE_LINE_SIZE, 1); // same line again
            if !expected.contains(&line) {
                expected.push(line);
            }
        }
        assert_eq!(batch.lines(), expected.as_slice());
        assert_eq!(batch.line_count(), 101);
        // One range spanning lines both noted and new.
        batch.note(99 * CACHE_LINE_SIZE, 4 * CACHE_LINE_SIZE);
        expected.extend([101, 102]);
        assert_eq!(batch.lines(), expected.as_slice());
        // A cleared batch forgets the set too, also when its first range
        // alone passes the threshold.
        batch.clear();
        batch.note(5 * CACHE_LINE_SIZE, 40 * CACHE_LINE_SIZE);
        batch.note(60 * CACHE_LINE_SIZE, 1);
        batch.note(44 * CACHE_LINE_SIZE, 1);
        batch.note(0, 1);
        let expected: Vec<u64> = (5..45).chain([60, 0]).collect();
        assert_eq!(batch.lines(), expected.as_slice());
    }

    #[test]
    fn clear_resets_for_reuse() {
        let mut batch = FlushBatch::new();
        batch.note(256, 16);
        assert!(!batch.is_empty());
        batch.clear();
        assert!(batch.is_empty());
        batch.note(0, 1);
        assert_eq!(batch.lines(), &[0]);
    }
}
