//! Sparse backing store.
//!
//! Device capacity is virtual: memory materialises in 2 MiB chunks on first
//! write (reads of unmaterialised chunks observe zeros), and
//! [`punch`](ChunkStore::punch) returns a chunk to the store — the analogue
//! of `fallocate(FALLOC_FL_PUNCH_HOLE)` on a DAX file, which Poseidon uses
//! to keep unused hash-table levels free (§5.6).
//!
//! Chunk payloads are arrays of `AtomicU64` words accessed with relaxed
//! loads/stores (plus CAS read-modify-write at unaligned edges), so
//! concurrent access through the device is never undefined behaviour, while
//! aligned bulk copies still move a word per atomic operation. Like real
//! memory, the store provides no ordering by itself; allocators synchronise
//! with their own locks.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use platform::sync::RwLock;

/// Materialisation granularity of the sparse store (2 MiB).
pub const CHUNK_SIZE: u64 = 1 << 21;

const WORDS_PER_CHUNK: usize = (CHUNK_SIZE / 8) as usize;

/// Chunk-slot directory granularity: slots themselves are host metadata
/// (one lock word per 2 MiB of device), so for TB-scale virtual
/// capacities they are grouped and each group's slot array materialises
/// lazily — an untouched group costs one pointer.
const CHUNKS_PER_GROUP: usize = 512; // 1 GiB of device per group

struct Chunk {
    words: Box<[AtomicU64]>,
}

impl Chunk {
    fn new_zeroed() -> Chunk {
        let words = (0..WORDS_PER_CHUNK).map(|_| AtomicU64::new(0)).collect();
        Chunk { words }
    }
}

type ChunkSlot = RwLock<Option<Box<Chunk>>>;

/// The sparse chunked backing store of a device.
pub(crate) struct ChunkStore {
    groups: Box<[OnceLock<Box<[ChunkSlot]>>]>,
    resident_bytes: AtomicU64,
}

impl ChunkStore {
    pub(crate) fn new(capacity: u64) -> ChunkStore {
        let chunks = capacity.div_ceil(CHUNK_SIZE) as usize;
        let n = chunks.div_ceil(CHUNKS_PER_GROUP);
        ChunkStore { groups: (0..n).map(|_| OnceLock::new()).collect(), resident_bytes: AtomicU64::new(0) }
    }

    /// The slot for `chunk_index` if its group is materialised.
    #[inline]
    fn slot(&self, chunk_index: usize) -> Option<&ChunkSlot> {
        self.groups[chunk_index / CHUNKS_PER_GROUP].get().map(|g| &g[chunk_index % CHUNKS_PER_GROUP])
    }

    /// The slot for `chunk_index`, materialising its group on demand.
    #[inline]
    fn slot_or_init(&self, chunk_index: usize) -> &ChunkSlot {
        let group = self.groups[chunk_index / CHUNKS_PER_GROUP]
            .get_or_init(|| (0..CHUNKS_PER_GROUP).map(|_| RwLock::new(None)).collect());
        &group[chunk_index % CHUNKS_PER_GROUP]
    }

    pub(crate) fn resident_bytes(&self) -> u64 {
        self.resident_bytes.load(Ordering::Relaxed)
    }

    #[cfg(test)]
    pub(crate) fn is_resident(&self, chunk_index: usize) -> bool {
        chunk_index / CHUNKS_PER_GROUP < self.groups.len()
            && self.slot(chunk_index).is_some_and(|c| c.read().is_some())
    }

    /// Copies `buf.len()` bytes starting at `offset` into `buf`.
    /// The caller has bounds-checked the range.
    pub(crate) fn read(&self, offset: u64, buf: &mut [u8]) {
        self.for_each_segment_len(offset, buf.len(), |chunk_index, in_chunk, range| {
            let Some(slot) = self.slot(chunk_index) else {
                buf[range].fill(0);
                return;
            };
            let guard = slot.read();
            match guard.as_deref() {
                Some(chunk) => chunk_read(&chunk.words, in_chunk, &mut buf[range]),
                None => buf[range].fill(0),
            }
        });
    }

    /// Copies `buf` into the store starting at `offset`, materialising
    /// chunks as needed. The caller has bounds-checked the range.
    pub(crate) fn write(&self, offset: u64, buf: &[u8]) {
        self.for_each_segment_len(offset, buf.len(), |chunk_index, in_chunk, range| {
            let slot = self.slot_or_init(chunk_index);
            let guard = slot.read();
            if let Some(chunk) = guard.as_deref() {
                chunk_write(&chunk.words, in_chunk, &buf[range]);
                return;
            }
            drop(guard);
            let mut guard = slot.write();
            if guard.is_none() {
                *guard = Some(Box::new(Chunk::new_zeroed()));
                self.resident_bytes.fetch_add(CHUNK_SIZE, Ordering::Relaxed);
            }
            // Write under the held write guard: chunk stores are relaxed
            // atomics, so excluding concurrent writers here costs nothing
            // correctness-wise and avoids a drop/reacquire window in which
            // `punch` could remove the chunk we just materialised.
            chunk_write(&guard.as_deref().expect("just materialised").words, in_chunk, &buf[range]);
        });
    }

    /// Atomically applies `f` to the aligned u64 word at `offset`
    /// (read-modify-write), returning the previous value. The caller has
    /// bounds- and alignment-checked the offset.
    pub(crate) fn fetch_update_u64(&self, offset: u64, f: impl Fn(u64) -> u64) -> u64 {
        debug_assert_eq!(offset % 8, 0);
        let chunk_index = (offset / CHUNK_SIZE) as usize;
        let in_chunk = (offset % CHUNK_SIZE) as usize;
        let slot = self.slot_or_init(chunk_index);
        loop {
            let guard = slot.read();
            if let Some(chunk) = guard.as_deref() {
                return chunk.words[in_chunk / 8]
                    .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |w| Some(f(w)))
                    .expect("closure never returns None");
            }
            drop(guard);
            let mut guard = slot.write();
            if guard.is_none() {
                *guard = Some(Box::new(Chunk::new_zeroed()));
                self.resident_bytes.fetch_add(CHUNK_SIZE, Ordering::Relaxed);
            }
        }
    }

    /// Dematerialises every chunk fully covered by `[offset, offset+len)`
    /// and zero-fills the partial edges. Returns the number of bytes
    /// returned to the store.
    pub(crate) fn punch(&self, offset: u64, len: u64) -> u64 {
        let mut released = 0;
        let end = offset + len;
        // Zero partial edges first so the punched range reads as zeros; the
        // fully covered chunks in between are dematerialised below.
        let first_full = offset.next_multiple_of(CHUNK_SIZE);
        let last_full = (end / CHUNK_SIZE * CHUNK_SIZE).max(first_full);
        if offset < first_full.min(end) {
            self.zero_resident(offset, first_full.min(end) - offset);
        }
        if last_full < end && last_full >= offset.max(first_full) {
            self.zero_resident(last_full, end - last_full);
        }
        let mut chunk = first_full;
        while chunk + CHUNK_SIZE <= end {
            let index = (chunk / CHUNK_SIZE) as usize;
            if let Some(slot) = self.slot(index) {
                let mut guard = slot.write();
                if guard.take().is_some() {
                    self.resident_bytes.fetch_sub(CHUNK_SIZE, Ordering::Relaxed);
                    released += CHUNK_SIZE;
                }
            }
            chunk += CHUNK_SIZE;
        }
        released
    }

    /// Zero-fills `[offset, offset + len)`, which lies within one chunk,
    /// if that chunk is resident. A chunk that is not already reads as
    /// zeros, so it stays unmaterialised.
    fn zero_resident(&self, offset: u64, len: u64) {
        let Some(slot) = self.slot((offset / CHUNK_SIZE) as usize) else { return };
        if let Some(chunk) = slot.read().as_deref() {
            chunk_zero(&chunk.words, (offset % CHUNK_SIZE) as usize, len as usize);
        }
    }

    /// Invokes `f(chunk_index, bytes)` for every resident chunk, with the
    /// chunk's current contents copied into a scratch buffer.
    pub(crate) fn for_each_resident(&self, mut f: impl FnMut(usize, &[u8])) {
        let mut scratch = vec![0u8; CHUNK_SIZE as usize];
        for (group_index, group) in self.groups.iter().enumerate() {
            let Some(group) = group.get() else { continue };
            for (slot_index, slot) in group.iter().enumerate() {
                let guard = slot.read();
                if let Some(chunk) = guard.as_deref() {
                    chunk_read(&chunk.words, 0, &mut scratch);
                    f(group_index * CHUNKS_PER_GROUP + slot_index, &scratch);
                }
            }
        }
    }

    fn for_each_segment_len(
        &self,
        offset: u64,
        len: usize,
        mut f: impl FnMut(usize, usize, std::ops::Range<usize>),
    ) {
        let mut remaining = len;
        let mut device_off = offset;
        let mut buf_off = 0usize;
        while remaining > 0 {
            let chunk_index = (device_off / CHUNK_SIZE) as usize;
            let in_chunk = (device_off % CHUNK_SIZE) as usize;
            let take = remaining.min(CHUNK_SIZE as usize - in_chunk);
            f(chunk_index, in_chunk, buf_off..buf_off + take);
            remaining -= take;
            device_off += take as u64;
            buf_off += take;
        }
    }
}

/// Reads bytes `[start, start + buf.len())` of a chunk into `buf`.
fn chunk_read(words: &[AtomicU64], start: usize, buf: &mut [u8]) {
    let mut pos = start;
    let mut out = 0usize;
    let end = start + buf.len();
    while pos < end {
        let word = words[pos / 8].load(Ordering::Relaxed).to_le_bytes();
        let in_word = pos % 8;
        let take = (8 - in_word).min(end - pos);
        buf[out..out + take].copy_from_slice(&word[in_word..in_word + take]);
        pos += take;
        out += take;
    }
}

/// Writes `buf` into bytes `[start, start + buf.len())` of a chunk.
fn chunk_write(words: &[AtomicU64], start: usize, buf: &[u8]) {
    let mut pos = start;
    let mut inp = 0usize;
    let end = start + buf.len();
    while pos < end {
        let in_word = pos % 8;
        let take = (8 - in_word).min(end - pos);
        let word = &words[pos / 8];
        if take == 8 {
            word.store(
                u64::from_le_bytes(buf[inp..inp + 8].try_into().expect("8-byte slice")),
                Ordering::Relaxed,
            );
        } else {
            rmw_bytes(word, in_word, &buf[inp..inp + take]);
        }
        pos += take;
        inp += take;
    }
}

/// Zeroes bytes `[start, start + len)` of a chunk.
fn chunk_zero(words: &[AtomicU64], start: usize, len: usize) {
    let mut pos = start;
    let end = start + len;
    while pos < end {
        let in_word = pos % 8;
        let take = (8 - in_word).min(end - pos);
        if take == 8 {
            words[pos / 8].store(0, Ordering::Relaxed);
        } else {
            rmw_bytes(&words[pos / 8], in_word, &[0; 8][..take]);
        }
        pos += take;
    }
}

/// Atomically replaces bytes `[byte_off, byte_off + bytes.len())` of a word
/// without disturbing its other bytes.
fn rmw_bytes(word: &AtomicU64, byte_off: usize, bytes: &[u8]) {
    let mut mask = 0u64;
    let mut value = 0u64;
    for (i, &b) in bytes.iter().enumerate() {
        let shift = 8 * (byte_off + i) as u32;
        mask |= 0xFFu64 << shift;
        value |= (b as u64) << shift;
    }
    word.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |w| Some((w & !mask) | value))
        .expect("fetch_update closure never returns None");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unmaterialised_reads_are_zero() {
        let store = ChunkStore::new(4 * CHUNK_SIZE);
        let mut buf = [0xFFu8; 32];
        store.read(CHUNK_SIZE + 5, &mut buf);
        assert_eq!(buf, [0u8; 32]);
        assert_eq!(store.resident_bytes(), 0);
    }

    #[test]
    fn write_read_roundtrip_unaligned() {
        let store = ChunkStore::new(4 * CHUNK_SIZE);
        let data: Vec<u8> = (0..100).collect();
        store.write(3, &data);
        let mut buf = vec![0u8; 100];
        store.read(3, &mut buf);
        assert_eq!(buf, data);
        // Neighbouring bytes untouched.
        let mut edge = [9u8; 1];
        store.read(2, &mut edge);
        assert_eq!(edge, [0]);
    }

    #[test]
    fn writes_spanning_chunks() {
        let store = ChunkStore::new(4 * CHUNK_SIZE);
        let data = vec![0xABu8; 64];
        let off = CHUNK_SIZE - 10;
        store.write(off, &data);
        let mut buf = vec![0u8; 64];
        store.read(off, &mut buf);
        assert_eq!(buf, data);
        assert_eq!(store.resident_bytes(), 2 * CHUNK_SIZE);
    }

    #[test]
    fn punch_releases_full_chunks_and_zeroes_edges() {
        let store = ChunkStore::new(4 * CHUNK_SIZE);
        store.write(0, &vec![1u8; (3 * CHUNK_SIZE) as usize]);
        assert_eq!(store.resident_bytes(), 3 * CHUNK_SIZE);
        // Punch from mid-chunk 0 through the end of chunk 1.
        let released = store.punch(CHUNK_SIZE / 2, CHUNK_SIZE / 2 + CHUNK_SIZE);
        assert_eq!(released, CHUNK_SIZE);
        assert!(!store.is_resident(1));
        assert!(store.is_resident(0));
        let mut b = [0u8; 1];
        store.read(CHUNK_SIZE / 2, &mut b);
        assert_eq!(b, [0]); // zeroed edge
        store.read(CHUNK_SIZE / 2 - 1, &mut b);
        assert_eq!(b, [1]); // untouched prefix
        store.read(2 * CHUNK_SIZE, &mut b);
        assert_eq!(b, [1]); // untouched suffix
    }

    #[test]
    fn punch_zeroes_resident_edges_in_place() {
        // Both edges resident: zeroed, unaligned bytes included, and the
        // bytes around the range kept.
        let store = ChunkStore::new(4 * CHUNK_SIZE);
        store.write(CHUNK_SIZE - 3, &[7u8; 16]);
        store.punch(CHUNK_SIZE - 1, 10);
        let mut b = [0u8; 16];
        store.read(CHUNK_SIZE - 3, &mut b);
        assert_eq!(b, [7, 7, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 7, 7, 7, 7]);
        assert_eq!(store.resident_bytes(), 2 * CHUNK_SIZE);
    }

    #[test]
    fn for_each_resident_visits_written_chunks() {
        let store = ChunkStore::new(4 * CHUNK_SIZE);
        store.write(0, &[1]);
        store.write(2 * CHUNK_SIZE, &[2]);
        let mut seen = Vec::new();
        store.for_each_resident(|index, bytes| {
            seen.push((index, bytes[0]));
        });
        assert_eq!(seen, vec![(0, 1), (2, 2)]);
    }

    #[test]
    fn concurrent_disjoint_writes() {
        let store = std::sync::Arc::new(ChunkStore::new(CHUNK_SIZE));
        let threads: Vec<_> = (0..8u64)
            .map(|t| {
                let store = store.clone();
                std::thread::spawn(move || {
                    let data = vec![t as u8 + 1; 1024];
                    for i in 0..64 {
                        store.write(t * 65536 + i * 1024, &data);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let mut buf = vec![0u8; 1024];
        for t in 0..8u64 {
            store.read(t * 65536, &mut buf);
            assert!(buf.iter().all(|&b| b == t as u8 + 1));
        }
    }

    #[test]
    fn huge_virtual_capacity_costs_nothing_untouched() {
        // A 1 TiB virtual store allocates only the group directory; the
        // first write to the tail materialises one group and one chunk.
        let store = ChunkStore::new(1 << 40);
        assert_eq!(store.resident_bytes(), 0);
        let tail = (1u64 << 40) - 16;
        store.write(tail, &[0xEE; 8]);
        assert_eq!(store.resident_bytes(), CHUNK_SIZE);
        let mut buf = [0u8; 8];
        store.read(tail, &mut buf);
        assert_eq!(buf, [0xEE; 8]);
        // Reads far away still see zeros without materialising anything.
        store.read(512 << 30, &mut buf);
        assert_eq!(buf, [0; 8]);
        assert_eq!(store.resident_bytes(), CHUNK_SIZE);
        // Punching an untouched region is a no-op, not a panic.
        assert_eq!(store.punch(256 << 30, 4 * CHUNK_SIZE), 0);
    }

    #[test]
    fn adjacent_byte_writes_do_not_clobber() {
        // Two threads hammering adjacent bytes of the same word must both
        // land (the RMW path is atomic).
        let store = std::sync::Arc::new(ChunkStore::new(CHUNK_SIZE));
        let s1 = store.clone();
        let s2 = store.clone();
        let t1 = std::thread::spawn(move || {
            for _ in 0..10_000 {
                s1.write(0, &[0xAA]);
            }
        });
        let t2 = std::thread::spawn(move || {
            for _ in 0..10_000 {
                s2.write(1, &[0xBB]);
            }
        });
        t1.join().unwrap();
        t2.join().unwrap();
        let mut buf = [0u8; 2];
        store.read(0, &mut buf);
        assert_eq!(buf, [0xAA, 0xBB]);
    }
}
