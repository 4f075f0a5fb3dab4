//! Per-thread slots: a small id unique among live threads, and a token
//! unique over the process's lifetime.
//!
//! The id indexes the thread's fence domain in every crash-tracked device
//! (`cache`) without a shared lock. Ids are reused after a thread exits,
//! lowest first, so the domain tables stay as small as the peak number of
//! live threads. The token tells the new owner of a reused id from the
//! thread that held it before, so a fence domain never inherits a dead
//! thread's flushes.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;

use platform::sync::Mutex;

/// Slots per lazily allocated [`SlotTable`] segment.
const SEGMENT: usize = 64;
/// Segments per [`SlotTable`]: at most `SEGMENT * SEGMENTS` threads use
/// devices at once.
const SEGMENTS: usize = 64;

/// The calling thread's identity on the persistent path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ThreadSlot {
    /// Dense index, unique among live threads.
    pub(crate) id: usize,
    /// Never reused.
    pub(crate) token: u64,
}

static NEXT_ID: AtomicUsize = AtomicUsize::new(0);
static FREE_IDS: Mutex<Vec<usize>> = Mutex::new(Vec::new());
static NEXT_TOKEN: AtomicU64 = AtomicU64::new(1);

fn claim() -> ThreadSlot {
    let token = NEXT_TOKEN.fetch_add(1, Ordering::Relaxed);
    let reused = {
        let mut free = FREE_IDS.lock();
        let lowest = free.iter().enumerate().min_by_key(|&(_, &id)| id).map(|(at, _)| at);
        lowest.map(|at| free.swap_remove(at))
    };
    let id = reused.unwrap_or_else(|| NEXT_ID.fetch_add(1, Ordering::Relaxed));
    assert!(id < SEGMENT * SEGMENTS, "more than {} threads use pmem devices at once", SEGMENT * SEGMENTS);
    ThreadSlot { id, token }
}

/// Returns the thread's id for reuse when the thread exits.
struct Release;

impl Drop for Release {
    fn drop(&mut self) {
        if let Some(slot) = SLOT.take() {
            FREE_IDS.lock().push(slot.id);
        }
    }
}

thread_local! {
    /// The calling thread's slot. It has no destructor, so it stays
    /// readable while the thread's other thread-locals are torn down.
    static SLOT: Cell<Option<ThreadSlot>> = const { Cell::new(None) };
    static RELEASE: Release = const { Release };
}

/// The calling thread's slot, claimed on first use and kept for the rest
/// of the thread, so a `clwb` and the `sfence` after it always name one
/// fence domain. A thread that calls in after its slot was released (a
/// device call from another thread-local's destructor) claims one more
/// slot and keeps it to the end; that id is never reused.
pub(crate) fn current() -> ThreadSlot {
    if let Some(slot) = SLOT.get() {
        return slot;
    }
    let slot = claim();
    SLOT.set(Some(slot));
    // Arms the release. This fails only once `RELEASE` is torn down, and
    // then nothing returns the id.
    let _ = RELEASE.try_with(|_| ());
    slot
}

/// Per-thread state indexed by [`ThreadSlot::id`]: a directory of
/// segments that materialise on first use.
pub(crate) struct SlotTable<T> {
    segments: [OnceLock<Box<[T]>>; SEGMENTS],
}

impl<T: Default> SlotTable<T> {
    pub(crate) const fn new() -> SlotTable<T> {
        SlotTable { segments: [const { OnceLock::new() }; SEGMENTS] }
    }

    /// The entry of slot `id`.
    #[inline]
    pub(crate) fn get(&self, id: usize) -> &T {
        let segment =
            self.segments[id / SEGMENT].get_or_init(|| (0..SEGMENT).map(|_| T::default()).collect());
        &segment[id % SEGMENT]
    }

    /// Every materialised entry.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &T> {
        self.segments.iter().filter_map(OnceLock::get).flat_map(|segment| segment.iter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn live_threads_get_distinct_ids_and_tokens_are_never_reused() {
        let main = current();
        let (a, b) = std::thread::scope(|s| {
            let a = s.spawn(current);
            let b = s.spawn(current);
            (a.join().unwrap(), b.join().unwrap())
        });
        assert_ne!(main.id, a.id);
        assert_ne!(main.id, b.id);
        let tokens = [main.token, a.token, b.token];
        assert!(tokens.iter().all(|&t| tokens.iter().filter(|&&u| u == t).count() == 1));
        let c = std::thread::spawn(current).join().unwrap();
        assert!(![main.token, a.token, b.token].contains(&c.token));
        assert_eq!(current(), main, "a thread keeps its slot");
    }

    #[test]
    fn a_slot_claimed_after_release_is_kept_and_its_id_never_reused() {
        /// Calls in twice from its destructor, which runs after `RELEASE`'s
        /// (it is registered first, and destructors run in reverse).
        struct OnExit(Option<std::sync::mpsc::Sender<(ThreadSlot, ThreadSlot)>>);
        impl Drop for OnExit {
            fn drop(&mut self) {
                if let Some(tx) = self.0.take() {
                    tx.send((current(), current())).unwrap();
                }
            }
        }
        thread_local! {
            static ON_EXIT: std::cell::RefCell<OnExit> = const { std::cell::RefCell::new(OnExit(None)) };
        }
        let (tx, rx) = std::sync::mpsc::channel();
        let own = std::thread::spawn(move || {
            ON_EXIT.with(|on_exit| on_exit.borrow_mut().0 = Some(tx));
            current()
        })
        .join()
        .unwrap();
        let (first, second) = rx.recv().unwrap();
        assert_ne!(first.token, own.token, "the destructor ran after the release");
        assert_eq!(first, second, "one slot for the rest of the thread");
        assert!(!FREE_IDS.lock().contains(&first.id), "its id is never returned");
    }

    #[test]
    fn slot_table_materialises_segments_on_demand() {
        let table: SlotTable<AtomicU64> = SlotTable::new();
        assert_eq!(table.iter().count(), 0);
        table.get(3).store(7, Ordering::Relaxed);
        table.get(SEGMENT + 1).store(9, Ordering::Relaxed);
        assert_eq!(table.iter().count(), 2 * SEGMENT);
        assert_eq!(table.iter().map(|v| v.load(Ordering::Relaxed)).sum::<u64>(), 16);
    }
}
