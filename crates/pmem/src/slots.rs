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

use platform::lazy::LazyArray;
use platform::sync::Mutex;

/// Slots per lazily materialised segment of a [`SlotTable`].
const SEGMENT: usize = 64;
/// At most this many threads use devices at once: the length of a
/// [`SlotTable`].
const MAX_THREADS: usize = 64 * SEGMENT;

/// Per-thread state indexed by [`ThreadSlot::id`], its segments
/// materialised on first use.
pub(crate) type SlotTable<T> = LazyArray<T, SEGMENT>;

/// An empty [`SlotTable`] with room for every slot id.
pub(crate) fn slot_table<T: Default>() -> SlotTable<T> {
    LazyArray::new(MAX_THREADS)
}

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
    assert!(id < MAX_THREADS, "more than {MAX_THREADS} threads use pmem devices at once");
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
}
