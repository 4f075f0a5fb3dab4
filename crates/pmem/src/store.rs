//! Sparse backing store.
//!
//! Device capacity is virtual: memory materialises in 2 MiB chunks on first
//! write (reads of unmaterialised chunks observe zeros), and
//! [`punch`](ChunkStore::punch) returns a chunk to the store — the analogue
//! of `fallocate(FALLOC_FL_PUNCH_HOLE)` on a DAX file, which Poseidon uses
//! to keep unused hash-table levels free (§5.6).
//!
//! Each chunk slot is a `OnceLock` plus a resident flag, and the slots
//! sit in a [`LazyArray`] whose 512-slot groups (1 GiB of device each)
//! materialise on first store, so an untouched gigabyte of a TB-scale
//! virtual capacity costs one directory entry. A read or a store finds
//! its chunk with acquire loads and takes no lock. A chunk
//! materialises once and stays with its slot until the device drops:
//! punching a fully covered chunk zeroes it in place and clears its flag,
//! and the next store sets the flag again without allocating. The flag is
//! what [`resident_bytes`](ChunkStore::resident_bytes) and snapshots count,
//! so they read as if the chunk had been freed; host memory is the chunks
//! ever materialised.
//!
//! Chunk payloads are arrays of `AtomicU64` words accessed with relaxed
//! loads and stores: a copy handles its unaligned head and tail once
//! (stores there are CAS read-modify-writes, so racing byte-writes to one
//! word both land) and moves the aligned middle a word per atomic
//! operation. Concurrent access through the device is never undefined
//! behaviour, but like real memory the store provides no ordering by
//! itself; allocators synchronise with their own locks. That includes
//! punching: a read or store racing a punch of the same chunk is not
//! ordered chunk-wide, so callers punch only ranges nothing else reaches
//! (DESIGN.md §18 lists them).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;

use platform::lazy::LazyArray;

/// Materialisation granularity of the sparse store (2 MiB).
pub const CHUNK_SIZE: u64 = 1 << 21;

const WORDS_PER_CHUNK: usize = (CHUNK_SIZE / 8) as usize;

/// Chunk slots per materialised group of the directory (1 GiB of device).
const CHUNKS_PER_GROUP: usize = 512;

/// One chunk's payload.
type Chunk = [AtomicU64; WORDS_PER_CHUNK];

/// A zero-filled chunk on the heap (built through a slice: a 2 MiB array
/// would not fit on the stack).
fn new_chunk() -> Box<Chunk> {
    let words: Box<[AtomicU64]> = (0..WORDS_PER_CHUNK).map(|_| AtomicU64::new(0)).collect();
    words.try_into().expect("WORDS_PER_CHUNK words")
}

#[derive(Default)]
struct ChunkSlot {
    /// The chunk, from the first store that touches it until the device
    /// drops.
    chunk: OnceLock<Box<Chunk>>,
    /// Whether the chunk counts as resident: set by the first store after
    /// materialisation or after a punch, cleared by the punch. A slot whose
    /// flag is clear reads as zeros. Relaxed: the flag publishes no data
    /// (the `OnceLock` publishes the chunk, and reads never consult it),
    /// and its swaps keep `resident_bytes` exact.
    resident: AtomicBool,
}

/// The sparse chunked backing store of a device.
pub(crate) struct ChunkStore {
    slots: LazyArray<ChunkSlot, CHUNKS_PER_GROUP>,
    resident_bytes: AtomicU64,
}

impl ChunkStore {
    pub(crate) fn new(capacity: u64) -> ChunkStore {
        let chunks = capacity.div_ceil(CHUNK_SIZE) as usize;
        ChunkStore { slots: LazyArray::new(chunks), resident_bytes: AtomicU64::new(0) }
    }

    /// The chunk for `chunk_index` if it was ever materialised.
    #[inline]
    fn chunk(&self, chunk_index: usize) -> Option<&Chunk> {
        self.slots.get(chunk_index)?.chunk.get().map(|c| &**c)
    }

    /// The chunk for `chunk_index`, materialised and marked resident: the
    /// chunk a store lands in.
    #[inline]
    fn chunk_for_store(&self, chunk_index: usize) -> &Chunk {
        let slot = self.slots.get_or_init(chunk_index);
        let chunk = slot.chunk.get_or_init(new_chunk);
        if !slot.resident.load(Ordering::Relaxed) && !slot.resident.swap(true, Ordering::Relaxed) {
            self.resident_bytes.fetch_add(CHUNK_SIZE, Ordering::Relaxed);
        }
        chunk
    }

    pub(crate) fn resident_bytes(&self) -> u64 {
        self.resident_bytes.load(Ordering::Relaxed)
    }

    #[cfg(test)]
    pub(crate) fn is_resident(&self, chunk_index: usize) -> bool {
        self.slots.get(chunk_index).is_some_and(|s| s.resident.load(Ordering::Relaxed))
    }

    /// Chunks ever materialised: the host memory the store holds.
    #[cfg(test)]
    pub(crate) fn materialised_chunks(&self) -> usize {
        self.slots.iter().filter(|(_, s)| s.chunk.get().is_some()).count()
    }

    /// Copies `buf.len()` bytes starting at `offset` into `buf`.
    /// The caller has bounds-checked the range.
    pub(crate) fn read(&self, offset: u64, buf: &mut [u8]) {
        self.for_each_segment_len(offset, buf.len(), |chunk_index, in_chunk, range| {
            match self.chunk(chunk_index) {
                Some(chunk) => chunk_read(chunk, in_chunk, &mut buf[range]),
                None => buf[range].fill(0),
            }
        });
    }

    /// Copies `buf` into the store starting at `offset`, materialising
    /// chunks as needed. The caller has bounds-checked the range.
    pub(crate) fn write(&self, offset: u64, buf: &[u8]) {
        self.for_each_segment_len(offset, buf.len(), |chunk_index, in_chunk, range| {
            chunk_write(self.chunk_for_store(chunk_index), in_chunk, &buf[range]);
        });
    }

    /// Atomically applies `f` to the aligned u64 word at `offset`
    /// (read-modify-write), returning the previous value. The caller has
    /// bounds- and alignment-checked the offset.
    pub(crate) fn fetch_update_u64(&self, offset: u64, f: impl Fn(u64) -> u64) -> u64 {
        debug_assert_eq!(offset % 8, 0);
        let chunk = self.chunk_for_store((offset / CHUNK_SIZE) as usize);
        chunk[(offset % CHUNK_SIZE) as usize / 8]
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |w| Some(f(w)))
            .expect("closure never returns None")
    }

    /// Zeroes `[offset, offset + len)`: every fully covered resident chunk
    /// is zeroed in place and stops counting as resident, and the partial
    /// edges are zeroed if their chunks exist (a missing chunk already
    /// reads as zeros, so it stays unmaterialised). Returns the number of
    /// bytes returned to the store.
    pub(crate) fn punch(&self, offset: u64, len: u64) -> u64 {
        let mut released = 0;
        self.for_each_segment_len(offset, len as usize, |chunk_index, in_chunk, range| {
            let Some(slot) = self.slots.get(chunk_index) else { return };
            let Some(chunk) = slot.chunk.get() else { return };
            if range.len() < CHUNK_SIZE as usize {
                chunk_zero(chunk, in_chunk, range.len());
            } else if slot.resident.load(Ordering::Relaxed) {
                // A non-resident chunk already reads as zeros.
                chunk_zero(chunk, 0, CHUNK_SIZE as usize);
                if slot.resident.swap(false, Ordering::Relaxed) {
                    self.resident_bytes.fetch_sub(CHUNK_SIZE, Ordering::Relaxed);
                    released += CHUNK_SIZE;
                }
            }
        });
        released
    }

    /// Invokes `f(chunk_index, bytes)` for every resident chunk, with the
    /// chunk's current contents copied into a scratch buffer.
    pub(crate) fn for_each_resident(&self, mut f: impl FnMut(usize, &[u8])) {
        let mut scratch = vec![0u8; CHUNK_SIZE as usize];
        for (chunk_index, slot) in self.slots.iter() {
            if !slot.resident.load(Ordering::Relaxed) {
                continue;
            }
            if let Some(chunk) = slot.chunk.get() {
                chunk_read(chunk, 0, &mut scratch);
                f(chunk_index, &scratch);
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

/// Bytes of `[start, start + len)` before its first word boundary.
#[inline]
fn head_len(start: usize, len: usize) -> usize {
    len.min(start.next_multiple_of(8) - start)
}

/// Reads bytes `[start, start + buf.len())` of a chunk into `buf`.
fn chunk_read(chunk: &Chunk, start: usize, buf: &mut [u8]) {
    let (head, rest) = buf.split_at_mut(head_len(start, buf.len()));
    if !head.is_empty() {
        let word = chunk[start / 8].load(Ordering::Relaxed).to_le_bytes();
        head.copy_from_slice(&word[start % 8..start % 8 + head.len()]);
    }
    let first = (start + head.len()) / 8;
    let (body, tail) = rest.as_chunks_mut::<8>();
    let words = &chunk[first..first + body.len()];
    for (dst, word) in body.iter_mut().zip(words) {
        *dst = word.load(Ordering::Relaxed).to_le_bytes();
    }
    if !tail.is_empty() {
        let word = chunk[first + body.len()].load(Ordering::Relaxed).to_le_bytes();
        tail.copy_from_slice(&word[..tail.len()]);
    }
}

/// Writes `buf` into bytes `[start, start + buf.len())` of a chunk.
fn chunk_write(chunk: &Chunk, start: usize, buf: &[u8]) {
    let (head, rest) = buf.split_at(head_len(start, buf.len()));
    if !head.is_empty() {
        rmw_bytes(&chunk[start / 8], start % 8, head);
    }
    let first = (start + head.len()) / 8;
    let (body, tail) = rest.as_chunks::<8>();
    for (word, src) in chunk[first..first + body.len()].iter().zip(body) {
        word.store(u64::from_le_bytes(*src), Ordering::Relaxed);
    }
    if !tail.is_empty() {
        rmw_bytes(&chunk[first + body.len()], 0, tail);
    }
}

/// Zeroes bytes `[start, start + len)` of a chunk.
fn chunk_zero(chunk: &Chunk, start: usize, len: usize) {
    let head = head_len(start, len);
    if head > 0 {
        rmw_bytes(&chunk[start / 8], start % 8, &[0; 8][..head]);
    }
    let first = (start + head) / 8;
    let words = (len - head) / 8;
    for word in &chunk[first..first + words] {
        word.store(0, Ordering::Relaxed);
    }
    let tail = (len - head) % 8;
    if tail > 0 {
        rmw_bytes(&chunk[first + words], 0, &[0; 8][..tail]);
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

    /// The store against a flat byte array, op by op: writes, punches
    /// and word read-modify-writes at every head alignment, lengths 0–600,
    /// ranges that cross chunk boundaries and punches whose edges land
    /// anywhere, with residency modelled per chunk.
    #[test]
    fn store_matches_a_byte_array_reference() {
        const CHUNKS: u64 = 3;
        let store = ChunkStore::new(CHUNKS * CHUNK_SIZE);
        let mut reference = vec![0u8; (CHUNKS * CHUNK_SIZE) as usize];
        let mut resident = [false; CHUNKS as usize];
        let mut rng = platform::rng::Rng::new(0x5EED_0019);
        // Offsets near a chunk boundary (or the device's ends), at head
        // alignment `align`.
        let near_boundary = |rng: &mut platform::rng::Rng, align: u64| {
            let boundary = rng.below(CHUNKS + 1) * CHUNK_SIZE;
            let base = (boundary + rng.below(1400)).saturating_sub(700).min(CHUNKS * CHUNK_SIZE - 700);
            (base & !7) + align
        };
        for step in 0..3_000u64 {
            let align = step % 8;
            let offset = near_boundary(&mut rng, align);
            match rng.below(8) {
                0..=3 => {
                    let mut data = vec![0u8; rng.below(601) as usize];
                    rng.fill(&mut data);
                    store.write(offset, &data);
                    reference[offset as usize..offset as usize + data.len()].copy_from_slice(&data);
                    if !data.is_empty() {
                        let last = offset + data.len() as u64 - 1;
                        for chunk in offset / CHUNK_SIZE..=last / CHUNK_SIZE {
                            resident[chunk as usize] = true;
                        }
                    }
                }
                4 => {
                    let word = offset & !7;
                    let mask = rng.next_u64();
                    let at = word as usize..word as usize + 8;
                    let before = u64::from_le_bytes(reference[at.clone()].try_into().unwrap());
                    assert_eq!(store.fetch_update_u64(word, |w| w ^ mask), before, "step {step}");
                    reference[at].copy_from_slice(&(before ^ mask).to_le_bytes());
                    resident[(word / CHUNK_SIZE) as usize] = true;
                }
                5 => {
                    let len = rng.below(601).min(CHUNKS * CHUNK_SIZE - offset);
                    assert_eq!(store.punch(offset, len), 0, "a short punch covers no whole chunk");
                    reference[offset as usize..(offset + len) as usize].fill(0);
                }
                6 => {
                    // A punch over one or two whole chunks, its edges
                    // anywhere in the chunks around them.
                    let first = rng.below(CHUNKS);
                    let start = (first * CHUNK_SIZE).saturating_sub(rng.below(1000));
                    let end =
                        ((first + 1 + rng.below(2)) * CHUNK_SIZE + rng.below(1000)).min(CHUNKS * CHUNK_SIZE);
                    let mut released = 0;
                    for chunk in 0..CHUNKS {
                        let covered = start <= chunk * CHUNK_SIZE && (chunk + 1) * CHUNK_SIZE <= end;
                        if covered && std::mem::take(&mut resident[chunk as usize]) {
                            released += CHUNK_SIZE;
                        }
                    }
                    assert_eq!(store.punch(start, end - start), released, "step {step}");
                    reference[start as usize..end as usize].fill(0);
                }
                _ => {}
            }
            let mut buf = vec![0xA5u8; rng.below(601) as usize];
            let align = rng.below(8);
            let at = near_boundary(&mut rng, align);
            store.read(at, &mut buf);
            assert_eq!(buf, reference[at as usize..at as usize + buf.len()], "step {step}: read at {at}");
            let expected = resident.iter().filter(|&&r| r).count() as u64 * CHUNK_SIZE;
            assert_eq!(store.resident_bytes(), expected, "step {step}");
        }
        let mut whole = vec![0u8; reference.len()];
        store.read(0, &mut whole);
        assert!(whole == reference, "final image differs from the reference");
        assert!(store.materialised_chunks() <= CHUNKS as usize);
    }

    /// Readers, aligned writers and a read-modify-writer start together on
    /// an untouched chunk: every thread races the first-touch
    /// materialisation, no reader sees a torn word, no store or update is
    /// lost, and the chunk is counted once.
    #[test]
    fn racing_readers_writers_and_first_touch_on_one_chunk() {
        const WRITERS: u64 = 2;
        const WORDS: u64 = 64; // each writer's run of words, 512 B
        const ROUNDS: u64 = 2_000;
        // A whole word written by writer `t` in round `r`: high half the
        // complement of the low, so a torn read cannot pass as whole.
        let word = |t: u64, r: u64| {
            let low = (t << 24) | r;
            (!low << 32) | low
        };
        let store = std::sync::Arc::new(ChunkStore::new(4 * CHUNK_SIZE));
        let base = CHUNK_SIZE; // chunk 1, untouched
        let counter = base + 2 * WRITERS * WORDS * 8;
        let start = std::sync::Arc::new(std::sync::Barrier::new(WRITERS as usize + 2));
        let mut threads = Vec::new();
        for t in 0..WRITERS {
            let (store, start) = (store.clone(), start.clone());
            threads.push(std::thread::spawn(move || {
                start.wait();
                let run = base + t * WORDS * 8;
                for r in 1..=ROUNDS {
                    let bytes: Vec<u8> = (0..WORDS).flat_map(|_| word(t, r).to_le_bytes()).collect();
                    store.write(run, &bytes);
                    store.fetch_update_u64(counter, |c| c + 1);
                }
            }));
        }
        let (reader_store, reader_start) = (store.clone(), start.clone());
        threads.push(std::thread::spawn(move || {
            reader_start.wait();
            let mut buf = vec![0u8; (WRITERS * WORDS * 8) as usize + 3];
            for _ in 0..ROUNDS {
                // Unaligned on purpose: the head and tail take the
                // byte path, the middle the word path.
                reader_store.read(base - 3, &mut buf);
                for bytes in buf[3..].chunks_exact(8) {
                    let w = u64::from_le_bytes(bytes.try_into().unwrap());
                    assert!(w == 0 || w >> 32 == !w & 0xFFFF_FFFF, "torn word {w:#x}");
                }
            }
        }));
        start.wait();
        let mut buf = [0u8; 8];
        for _ in 0..ROUNDS {
            store.read(counter, &mut buf);
        }
        for t in threads {
            t.join().unwrap();
        }
        for t in 0..WRITERS {
            for i in 0..WORDS {
                store.read(base + (t * WORDS + i) * 8, &mut buf);
                assert_eq!(u64::from_le_bytes(buf), word(t, ROUNDS), "writer {t} word {i} lost");
            }
        }
        store.read(counter, &mut buf);
        assert_eq!(u64::from_le_bytes(buf), WRITERS * ROUNDS, "a read-modify-write was lost");
        assert_eq!(store.resident_bytes(), CHUNK_SIZE);
        assert_eq!(store.materialised_chunks(), 1);
    }

    #[test]
    fn punched_chunk_is_reused_by_the_next_store() {
        let store = ChunkStore::new(4 * CHUNK_SIZE);
        store.write(CHUNK_SIZE, &vec![3u8; CHUNK_SIZE as usize]);
        store.write(2 * CHUNK_SIZE + 8, &[4u8; 8]);
        assert_eq!((store.resident_bytes(), store.materialised_chunks()), (2 * CHUNK_SIZE, 2));
        assert_eq!(store.punch(CHUNK_SIZE, CHUNK_SIZE), CHUNK_SIZE);
        assert_eq!(store.resident_bytes(), CHUNK_SIZE);
        assert!(!store.is_resident(1));
        let mut seen = Vec::new();
        store.for_each_resident(|index, _| seen.push(index));
        assert_eq!(seen, vec![2], "a punched chunk is left out of snapshots");
        let mut buf = vec![0xFFu8; CHUNK_SIZE as usize];
        store.read(CHUNK_SIZE, &mut buf);
        assert!(buf.iter().all(|&b| b == 0), "a punched chunk reads as zeros");
        // Punching it again releases nothing.
        assert_eq!(store.punch(CHUNK_SIZE, CHUNK_SIZE), 0);
        store.write(CHUNK_SIZE + 100, &[9u8; 3]);
        assert_eq!(store.resident_bytes(), 2 * CHUNK_SIZE);
        assert_eq!(store.materialised_chunks(), 2, "the rewrite allocated a second chunk");
        store.read(CHUNK_SIZE + 99, &mut buf[..5]);
        assert_eq!(&buf[..5], &[0, 9, 9, 9, 0]);
        store.fetch_update_u64(2 * CHUNK_SIZE, |w| w | 1);
        assert_eq!(store.punch(CHUNK_SIZE, 2 * CHUNK_SIZE), 2 * CHUNK_SIZE);
        assert_eq!(store.resident_bytes(), 0);
        store.fetch_update_u64(CHUNK_SIZE, |w| w + 7);
        assert_eq!(store.resident_bytes(), CHUNK_SIZE);
        assert_eq!(store.materialised_chunks(), 2);
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
