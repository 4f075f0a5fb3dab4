//! The modelled CPU cache: which stores have actually reached media?
//!
//! On real hardware with write-back caching, a store becomes durable only
//! once its cache line is flushed (`clwb`) and the flush is ordered by a
//! fence (`sfence`) of the *same thread* — or when the cache
//! spontaneously evicts the line, at a time the program cannot control.
//! This module tracks exactly that:
//!
//! * a **dirty** line has been stored to since it last reached media; the
//!   tracker remembers the line's *media image* (its content as of the last
//!   persist),
//! * `clwb` records a pending flush of a dirty line in the calling
//!   thread's **fence domain**,
//! * `sfence` commits exactly the lines its thread flushed since its last
//!   fence (their current content becomes the media image and the lines
//!   are clean again); a line flushed by several threads is committed by
//!   whichever of their fences comes first,
//! * a store voids every pending flush of its line, whichever thread
//!   issued it,
//! * a crash empties every fence domain and reverts dirty lines to their
//!   media image — all of them in [`CrashMode::Strict`], or an arbitrary
//!   pseudo-random subset in [`CrashMode::Adversarial`], which models
//!   lines that happened to be evicted (and therefore persisted) before
//!   the power failed.
//!
//! Per-thread domains are the Px86 rule that flushes are ordered per
//! thread: thread A's fence says nothing about the lines thread B flushed,
//! so "A fenced, B's flushed line lost" is a crash state the model can
//! produce. A recovery protocol is only correct if it works under *both*
//! modes.
//!
//! # Line tracking
//!
//! Dirty lines live in 4096 cache-padded shards keyed by 64 KiB
//! granule, round-robin, so any 256 MiB of device spreads over distinct
//! shard locks: metadata regions laid out side by side, like a heap's
//! per-CPU sub-heaps, keep their busy lines on locks of their own. Each
//! shard maps line numbers (through a multiplicative integer hash) to an
//! inline 64 B media image and a version that every store to the line
//! bumps. A pending flush is a `(line, version)` pair in its thread's
//! domain: the fence commits the line only if the version still matches,
//! which is how a later store voids the flush. Shard tables and domain
//! lists keep their capacity, so steady-state tracking allocates nothing.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::ops::RangeInclusive;

use platform::rng::splitmix64;
use platform::sync::{CachePadded, Mutex, MutexGuard};

use crate::slots::{self, SlotTable, ThreadSlot};

/// Size of a CPU cache line in bytes.
pub const CACHE_LINE_SIZE: u64 = 64;

/// Lines per shard granule, as a shift: 1024 lines, 64 KiB of device.
const GRANULE_LINES_SHIFT: u32 = 10;
/// Shard count: granules map to shards round-robin, so any `SHARDS`
/// consecutive granules (256 MiB of device) use distinct locks.
const SHARDS: usize = 4096;

/// How [`PmemDevice::simulate_crash`](crate::PmemDevice::simulate_crash)
/// treats lines that were dirty (or flush-pending but unfenced) at the
/// moment of the crash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashMode {
    /// Every unpersisted line is lost: media reverts to the last persisted
    /// image. The deterministic worst case for "I forgot to flush".
    Strict,
    /// Each unpersisted line independently either persists (as if evicted
    /// just in time) or reverts, chosen pseudo-randomly from the seed.
    /// Models real write-back caches, where unflushed stores *may* land.
    Adversarial,
}

struct LineState {
    /// Content of the line as of the last time it was persisted.
    media: [u8; CACHE_LINE_SIZE as usize],
    /// Bumped by every store; a pending flush names the version it saw.
    version: u64,
}

/// Multiplicative hashing of line numbers: one multiply per key. For
/// maps and sets keyed by line number (or any other `u64` whose low
/// bits vary), where SipHash's DoS resistance buys nothing.
#[derive(Debug, Default)]
pub struct LineHasher(u64);

impl Hasher for LineHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 = (self.0.rotate_left(8) ^ byte as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = n.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

#[derive(Default)]
struct Shard {
    lines: HashMap<u64, LineState, BuildHasherDefault<LineHasher>>,
    /// Source of line versions, unique within the shard.
    versions: u64,
}

/// One thread's pending flushes on one device.
#[derive(Default)]
struct Domain {
    /// Token of the thread the pending flushes belong to.
    owner: u64,
    /// `(line, version)` of every `clwb` since the owner's last fence.
    pending: Vec<(u64, u64)>,
}

/// Tracks dirty cache lines and per-thread pending flushes for one device.
pub(crate) struct CacheModel {
    shards: Box<[CachePadded<Mutex<Shard>>]>,
    domains: SlotTable<CachePadded<Mutex<Domain>>>,
}

/// The calling thread's fence domain, locked: see
/// [`CacheModel::domain`].
pub(crate) struct FenceDomain<'a> {
    model: &'a CacheModel,
    domain: MutexGuard<'a, Domain>,
}

impl CacheModel {
    pub(crate) fn new() -> CacheModel {
        CacheModel {
            shards: (0..SHARDS).map(|_| CachePadded::new(Mutex::new(Shard::default()))).collect(),
            domains: slots::slot_table(),
        }
    }

    #[inline]
    fn shard_index(line: u64) -> usize {
        (line >> GRANULE_LINES_SHIFT) as usize % SHARDS
    }

    /// Calls `f` once per run of the lines covering `[offset, offset+len)`
    /// that share a granule, with that granule's shard.
    fn for_each_run(&self, offset: u64, len: u64, mut f: impl FnMut(&Mutex<Shard>, RangeInclusive<u64>)) {
        let first = offset / CACHE_LINE_SIZE;
        let last = (offset + len - 1) / CACHE_LINE_SIZE;
        let mut line = first;
        while line <= last {
            let run_end = (line | ((1 << GRANULE_LINES_SHIFT) - 1)).min(last);
            f(&self.shards[Self::shard_index(line)], line..=run_end);
            line = run_end + 1;
        }
    }

    /// Records that the lines covering `[offset, offset + len)` are about
    /// to be overwritten, voiding every pending flush of them;
    /// `read_media` must read a line's *current* content (which, for a
    /// clean line, is by definition the media content).
    ///
    /// Must be called *before* the store is applied to the backing store:
    /// the shard lock makes first-touch capture atomic with respect to a
    /// concurrent fence.
    pub(crate) fn before_write(&self, offset: u64, len: u64, read_media: impl Fn(u64, &mut [u8])) {
        self.for_each_run(offset, len, |shard, run| {
            let mut shard = shard.lock();
            let Shard { lines, versions } = &mut *shard;
            for line in run {
                *versions += 1;
                match lines.entry(line) {
                    Entry::Vacant(slot) => {
                        let mut media = [0u8; CACHE_LINE_SIZE as usize];
                        read_media(line * CACHE_LINE_SIZE, &mut media);
                        slot.insert(LineState { media, version: *versions });
                    }
                    // A store to a flush-pending line re-dirties it: the
                    // pending clwb no longer guarantees anything about the
                    // line's final content, so we pessimistically require
                    // a fresh clwb (real hardware may persist either image).
                    Entry::Occupied(mut slot) => slot.get_mut().version = *versions,
                }
            }
        });
    }

    /// Locks the fence domain of thread `me`. A domain last used by an
    /// earlier holder of `me.id` is emptied first: a reused id never
    /// inherits a dead thread's flushes.
    pub(crate) fn domain(&self, me: ThreadSlot) -> FenceDomain<'_> {
        let mut domain = self.domains.get_or_init(me.id).lock();
        if domain.owner != me.token {
            domain.owner = me.token;
            domain.pending.clear();
        }
        FenceDomain { model: self, domain }
    }

    /// Drops tracking state for the lines covering `[offset, offset+len)`
    /// without reverting them: used when a range becomes durable by other
    /// means (hole punching). Takes each shard the range touches once and
    /// visits the lines it tracks or the range's lines in it, whichever
    /// are fewer, so a huge punch over a quiet range costs at most one
    /// lock per shard.
    pub(crate) fn forget_range(&self, offset: u64, len: u64) {
        if len == 0 {
            return;
        }
        let range = offset / CACHE_LINE_SIZE..=(offset + len - 1) / CACHE_LINE_SIZE;
        let granules = (range.end() >> GRANULE_LINES_SHIFT) - (range.start() >> GRANULE_LINES_SHIFT) + 1;
        if granules >= SHARDS as u64 {
            for shard in self.shards.iter() {
                let mut shard = shard.lock();
                if !shard.lines.is_empty() {
                    shard.lines.retain(|line, _| !range.contains(line));
                }
            }
            return;
        }
        self.for_each_run(offset, len, |shard, run| {
            let mut shard = shard.lock();
            if shard.lines.len() as u64 <= run.end() - run.start() {
                shard.lines.retain(|line, _| !run.contains(line));
            } else {
                for line in run {
                    shard.lines.remove(&line);
                }
            }
        });
    }

    /// Returns the number of lines that are not yet durable.
    pub(crate) fn unpersisted_lines(&self) -> usize {
        self.shards.iter().map(|s| s.lock().lines.len()).sum()
    }

    /// Applies a crash: empties every fence domain, reverts unpersisted
    /// lines to their media image via `write_media`, according to `mode`,
    /// then forgets all tracking state.
    pub(crate) fn crash(&self, mode: CrashMode, seed: u64, write_media: impl Fn(u64, &[u8])) {
        for (_, domain) in self.domains.iter() {
            domain.lock().pending.clear();
        }
        for shard in self.shards.iter() {
            let mut shard = shard.lock();
            for (line, state) in shard.lines.drain() {
                let survives = match mode {
                    CrashMode::Strict => false,
                    CrashMode::Adversarial => {
                        splitmix64(seed ^ line.wrapping_mul(0x9E37_79B9_7F4A_7C15)) & 1 == 1
                    }
                };
                if !survives {
                    write_media(line * CACHE_LINE_SIZE, &state.media);
                }
            }
        }
    }
}

impl FenceDomain<'_> {
    /// Records a pending flush (`clwb`) of every dirty line covering
    /// `[offset, offset + len)`. Clean lines are a no-op.
    pub(crate) fn clwb(&mut self, offset: u64, len: u64) {
        if len == 0 {
            return;
        }
        let pending = &mut self.domain.pending;
        self.model.for_each_run(offset, len, |shard, run| {
            let shard = shard.lock();
            for line in run {
                if let Some(state) = shard.lines.get(&line) {
                    if pending.last() != Some(&(line, state.version)) {
                        pending.push((line, state.version));
                    }
                }
            }
        });
    }

    /// Commits every line this domain flushed since its last fence
    /// (`sfence`) and not stored to since: the line's current content
    /// becomes its media image.
    pub(crate) fn sfence(&mut self) {
        let mut held: Option<(usize, MutexGuard<'_, Shard>)> = None;
        for (line, version) in self.domain.pending.drain(..) {
            let index = CacheModel::shard_index(line);
            if held.as_ref().is_none_or(|(at, _)| *at != index) {
                drop(held.take()); // never hold two shard locks at once
                held = Some((index, self.model.shards[index].lock()));
            }
            let (_, shard) = held.as_mut().expect("locked above");
            if shard.lines.get(&line).is_some_and(|state| state.version == version) {
                shard.lines.remove(&line);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex as StdMutex;

    /// A 1 KiB toy media for exercising the tracker directly.
    struct ToyMedia(StdMutex<Vec<u8>>);

    impl ToyMedia {
        fn new() -> ToyMedia {
            ToyMedia::sized(1024)
        }
        fn sized(len: usize) -> ToyMedia {
            ToyMedia(StdMutex::new(vec![0; len]))
        }
        fn read(&self, off: u64, buf: &mut [u8]) {
            let data = self.0.lock().unwrap();
            buf.copy_from_slice(&data[off as usize..off as usize + buf.len()]);
        }
        fn write(&self, off: u64, buf: &[u8]) {
            let mut data = self.0.lock().unwrap();
            data[off as usize..off as usize + buf.len()].copy_from_slice(buf);
        }
        fn byte(&self, off: u64) -> u8 {
            self.0.lock().unwrap()[off as usize]
        }
    }

    /// Two threads' identities, as the device would hand them out.
    const A: ThreadSlot = ThreadSlot { id: 0, token: 1 };
    const B: ThreadSlot = ThreadSlot { id: 1, token: 2 };

    fn store(media: &ToyMedia, cache: &CacheModel, off: u64, bytes: &[u8]) {
        cache.before_write(off, bytes.len() as u64, |o, b| media.read(o, b));
        media.write(off, bytes);
    }

    fn crash(media: &ToyMedia, cache: &CacheModel) {
        cache.crash(CrashMode::Strict, 0, |o, b| media.write(o, b));
    }

    #[test]
    fn unflushed_store_reverts_on_strict_crash() {
        let media = ToyMedia::new();
        let cache = CacheModel::new();
        store(&media, &cache, 0, &[7; 8]);
        assert_eq!(cache.unpersisted_lines(), 1);
        crash(&media, &cache);
        let mut buf = [9u8; 8];
        media.read(0, &mut buf);
        assert_eq!(buf, [0; 8]);
        assert_eq!(cache.unpersisted_lines(), 0);
    }

    #[test]
    fn clwb_alone_is_not_durable() {
        let media = ToyMedia::new();
        let cache = CacheModel::new();
        store(&media, &cache, 0, &[7; 8]);
        cache.domain(A).clwb(0, 8);
        // No sfence: still revertible.
        crash(&media, &cache);
        let mut buf = [9u8; 8];
        media.read(0, &mut buf);
        assert_eq!(buf, [0; 8]);
    }

    #[test]
    fn clwb_plus_sfence_is_durable() {
        let media = ToyMedia::new();
        let cache = CacheModel::new();
        store(&media, &cache, 0, &[7; 8]);
        cache.domain(A).clwb(0, 8);
        cache.domain(A).sfence();
        assert_eq!(cache.unpersisted_lines(), 0);
        crash(&media, &cache);
        let mut buf = [0u8; 8];
        media.read(0, &mut buf);
        assert_eq!(buf, [7; 8]);
    }

    #[test]
    fn rewrite_after_persist_reverts_to_persisted_image() {
        let media = ToyMedia::new();
        let cache = CacheModel::new();
        store(&media, &cache, 0, &[1; 8]);
        let mut a = cache.domain(A);
        a.clwb(0, 8);
        a.sfence();
        drop(a);
        store(&media, &cache, 0, &[2; 8]);
        crash(&media, &cache);
        let mut buf = [0u8; 8];
        media.read(0, &mut buf);
        assert_eq!(buf, [1; 8]); // back to the persisted value, not zero
    }

    #[test]
    fn partial_line_revert_restores_whole_line() {
        let media = ToyMedia::new();
        let cache = CacheModel::new();
        store(&media, &cache, 0, &[1; 64]);
        let mut a = cache.domain(A);
        a.clwb(0, 64);
        a.sfence();
        drop(a);
        // Dirty two bytes of the persisted line.
        store(&media, &cache, 10, &[9, 9]);
        crash(&media, &cache);
        let mut buf = [0u8; 64];
        media.read(0, &mut buf);
        assert_eq!(buf, [1; 64]);
    }

    #[test]
    fn adversarial_mode_is_deterministic_per_seed() {
        // With many lines, both outcomes should occur for some line, and the
        // same seed must give the same result twice.
        let outcome = |seed: u64| -> Vec<u8> {
            let media = ToyMedia::new();
            let cache = CacheModel::new();
            for line in 0..16u64 {
                store(&media, &cache, line * 64, &[1; 64]);
            }
            cache.crash(CrashMode::Adversarial, seed, |o, b| media.write(o, b));
            let mut buf = vec![0u8; 1024];
            media.read(0, &mut buf);
            buf
        };
        let a = outcome(42);
        let b = outcome(42);
        assert_eq!(a, b);
        let survivors = a.chunks(64).filter(|c| c[0] == 1).count();
        assert!(survivors > 0 && survivors < 16, "expected a mixed outcome, got {survivors}/16");
    }

    #[test]
    fn sfence_only_commits_clwbed_lines() {
        let media = ToyMedia::new();
        let cache = CacheModel::new();
        store(&media, &cache, 0, &[1; 8]);
        store(&media, &cache, 128, &[2; 8]);
        let mut a = cache.domain(A);
        a.clwb(0, 8);
        a.sfence();
        drop(a);
        crash(&media, &cache);
        let mut buf = [0u8; 8];
        media.read(0, &mut buf);
        assert_eq!(buf, [1; 8]);
        media.read(128, &mut buf);
        assert_eq!(buf, [0; 8]);
    }

    #[test]
    fn a_fence_leaves_another_threads_flushed_line_unfenced() {
        let media = ToyMedia::new();
        let cache = CacheModel::new();
        store(&media, &cache, 0, &[1; 8]);
        store(&media, &cache, 64, &[2; 8]);
        cache.domain(A).clwb(0, 8);
        cache.domain(B).clwb(64, 8);
        cache.domain(A).sfence();
        assert_eq!(cache.unpersisted_lines(), 1);
        crash(&media, &cache);
        assert_eq!(media.byte(0), 1, "A's fenced line is durable");
        assert_eq!(media.byte(64), 0, "B's flushed, unfenced line reverts");
    }

    #[test]
    fn a_line_flushed_by_two_threads_is_durable_after_either_fence() {
        for first_fence in [A, B] {
            let media = ToyMedia::new();
            let cache = CacheModel::new();
            store(&media, &cache, 0, &[5; 8]);
            cache.domain(A).clwb(0, 8);
            cache.domain(B).clwb(0, 8);
            cache.domain(first_fence).sfence();
            assert_eq!(cache.unpersisted_lines(), 0);
            crash(&media, &cache);
            assert_eq!(media.byte(0), 5);
        }
    }

    #[test]
    fn a_store_after_both_flushes_voids_both() {
        let media = ToyMedia::new();
        let cache = CacheModel::new();
        store(&media, &cache, 0, &[5; 8]);
        cache.domain(A).clwb(0, 8);
        cache.domain(B).clwb(0, 8);
        store(&media, &cache, 0, &[6; 8]);
        cache.domain(A).sfence();
        cache.domain(B).sfence();
        assert_eq!(cache.unpersisted_lines(), 1);
        crash(&media, &cache);
        assert_eq!(media.byte(0), 0);
    }

    #[test]
    fn a_crash_empties_every_domain() {
        let media = ToyMedia::new();
        let cache = CacheModel::new();
        store(&media, &cache, 0, &[1; 8]);
        store(&media, &cache, 64, &[2; 8]);
        cache.domain(A).clwb(0, 8);
        cache.domain(B).clwb(64, 8);
        crash(&media, &cache);
        // After power returns the same contents are stored again: the
        // flushes issued before the crash must not commit them.
        store(&media, &cache, 0, &[1; 8]);
        store(&media, &cache, 64, &[2; 8]);
        assert!(cache.domains.iter().all(|(_, d)| d.lock().pending.is_empty()));
        cache.domain(A).sfence();
        cache.domain(B).sfence();
        assert_eq!(cache.unpersisted_lines(), 2);
    }

    #[test]
    fn a_domain_never_commits_another_threads_flushes() {
        let media = ToyMedia::new();
        let cache = CacheModel::new();
        store(&media, &cache, 0, &[1; 8]);
        cache.domain(B).clwb(0, 8);
        // A live thread with another id fences: nothing of B's commits.
        cache.domain(A).sfence();
        assert_eq!(cache.unpersisted_lines(), 1);
        // B exits unfenced and a new thread reuses its id: the new owner's
        // fence must not commit the dead thread's flush either.
        let heir = ThreadSlot { id: B.id, token: 3 };
        cache.domain(heir).sfence();
        assert_eq!(cache.unpersisted_lines(), 1);
        crash(&media, &cache);
        assert_eq!(media.byte(0), 0);
        // The heir's own flushes commit as usual.
        store(&media, &cache, 64, &[4; 8]);
        let mut heir_domain = cache.domain(heir);
        heir_domain.clwb(64, 8);
        heir_domain.sfence();
        assert_eq!(cache.unpersisted_lines(), 0);
    }

    #[test]
    fn forget_range_drops_exactly_its_dirty_lines() {
        let span = 3 << 16; // three granules
        let media = ToyMedia::sized(span);
        let cache = CacheModel::new();
        // Dirty lines inside a range spanning a granule boundary, and
        // their immediate neighbours on both sides.
        let (start, end) = ((1 << 16) - 256, (2 << 16) + 256);
        for off in [start - 64, start, start + 64, (1 << 16) + 640, end - 64, end] {
            store(&media, &cache, off, &[9; 8]);
        }
        cache.domain(A).clwb(start, end - start);
        cache.forget_range(start, end - start);
        assert_eq!(cache.unpersisted_lines(), 2, "only the two neighbours stay tracked");
        // The forgotten lines keep their stores; the neighbours revert.
        cache.domain(A).sfence();
        crash(&media, &cache);
        for off in [start, start + 64, (1 << 16) + 640, end - 64] {
            assert_eq!(media.byte(off), 9, "line at {off:#x} was forgotten, not reverted");
        }
        assert_eq!(media.byte(start - 64), 0);
        assert_eq!(media.byte(end), 0);
    }

    #[test]
    fn forget_range_over_every_shard_keeps_outside_lines() {
        let cache = CacheModel::new();
        let span = (SHARDS as u64 + 2) << 16;
        for off in [0, 64, span - 128, span - 64] {
            cache.before_write(off, 8, |_, b| b.fill(0));
        }
        cache.forget_range(64, span - 128);
        assert_eq!(cache.unpersisted_lines(), 2);
        // The lines left are the two outside the range.
        cache.forget_range(0, 64);
        cache.forget_range(span - 64, 64);
        assert_eq!(cache.unpersisted_lines(), 0);
    }
}
