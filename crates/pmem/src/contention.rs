//! Lock instrumentation for scalability analysis.
//!
//! The paper's scalability results are driven by *which allocator
//! serialises on what*: PMDK on its global AVL tree and action log,
//! Makalu on its global chunk/reclaim lists, Poseidon on (almost)
//! nothing. [`TrackedMutex`] wraps `platform::sync::Mutex` and records the
//! total time each lock instance is *held* plus its acquisition count;
//! from those, the benchmark harness projects multi-core throughput with
//! the standard work-span bound
//! `T(p) >= max(total_work / p, max_resource_serial_time)` — which is how
//! the paper's contention collapse is made visible on hosts with fewer
//! cores than the paper's 112-thread testbed.

use std::sync::atomic::{AtomicU64, Ordering};

use platform::sync::{Mutex, MutexGuard};
use platform::thread::cpu_time_ns;

/// Counters of a transient cache layer sitting in front of one lock.
///
/// A resource that serves most requests from a lock-free DRAM cache only
/// serialises on its *misses*; these counters, reported next to the
/// lock's own numbers, make that visible through the same profile API.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Requests served entirely from the cache (no lock, no fence).
    pub hits: u64,
    /// Requests that fell through to the locked slow path.
    pub misses: u64,
    /// Batch refills of the cache from the backing resource.
    pub refills: u64,
    /// Batch drains of the cache back to the backing resource.
    pub drains: u64,
}

impl CacheStats {
    /// Fraction of requests served from the cache, in `[0, 1]`.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Serial-time statistics of one lock instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LockProfile {
    /// Human-readable resource name (`avl`, `subheap[3]`, ...).
    pub name: String,
    /// Total nanoseconds the lock was held.
    pub held_ns: u64,
    /// Number of acquisitions.
    pub acquisitions: u64,
    /// Counters of the transient cache fronting this lock, when one
    /// exists (`None` for plain uncached locks).
    pub cache: Option<CacheStats>,
}

impl LockProfile {
    /// Effective serial time when contended on real hardware: hold time
    /// plus a per-handoff penalty for the cache-line transfer of the lock
    /// word (~150 ns cross-core, per published coherence measurements).
    pub fn effective_serial_ns(&self, handoff_ns: u64) -> u64 {
        self.held_ns + self.acquisitions * handoff_ns
    }
}

/// A mutex that accounts the time it spends held.
#[derive(Debug)]
pub struct TrackedMutex<T> {
    inner: Mutex<T>,
    held_ns: AtomicU64,
    acquisitions: AtomicU64,
}

impl<T> TrackedMutex<T> {
    /// Wraps `value`.
    pub fn new(value: T) -> TrackedMutex<T> {
        TrackedMutex { inner: Mutex::new(value), held_ns: AtomicU64::new(0), acquisitions: AtomicU64::new(0) }
    }

    /// Locks, timing the hold (in thread CPU time) until the guard drops.
    pub fn lock(&self) -> TrackedGuard<'_, T> {
        let guard = self.inner.lock();
        self.acquisitions.fetch_add(1, Ordering::Relaxed);
        TrackedGuard { guard: Some(guard), acquired_cpu_ns: cpu_time_ns(), held_ns: &self.held_ns }
    }

    /// Reads this lock's counters as a [`LockProfile`] under `name`.
    pub fn profile(&self, name: impl Into<String>) -> LockProfile {
        LockProfile {
            name: name.into(),
            held_ns: self.held_ns.load(Ordering::Relaxed),
            acquisitions: self.acquisitions.load(Ordering::Relaxed),
            cache: None,
        }
    }

    /// Zeroes the counters (between benchmark phases).
    pub fn reset(&self) {
        self.held_ns.store(0, Ordering::Relaxed);
        self.acquisitions.store(0, Ordering::Relaxed);
    }
}

impl<T: Default> Default for TrackedMutex<T> {
    fn default() -> Self {
        TrackedMutex::new(T::default())
    }
}

/// Guard returned by [`TrackedMutex::lock`].
#[derive(Debug)]
pub struct TrackedGuard<'a, T> {
    guard: Option<MutexGuard<'a, T>>,
    acquired_cpu_ns: u64,
    held_ns: &'a AtomicU64,
}

impl<T> std::ops::Deref for TrackedGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.guard.as_ref().expect("guard live until drop")
    }
}

impl<T> std::ops::DerefMut for TrackedGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.guard.as_mut().expect("guard live until drop")
    }
}

impl<T> Drop for TrackedGuard<'_, T> {
    fn drop(&mut self) {
        self.guard.take();
        self.held_ns.fetch_add(cpu_time_ns().saturating_sub(self.acquired_cpu_ns), Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_acquisitions_and_hold_time() {
        let m = TrackedMutex::new(0u64);
        for _ in 0..10 {
            let mut g = m.lock();
            *g += 1;
            // Burn CPU while holding (hold time is thread CPU time).
            let t0 = cpu_time_ns();
            while cpu_time_ns() < t0 + 100_000 {
                std::hint::spin_loop();
            }
        }
        let p = m.profile("test");
        assert_eq!(p.acquisitions, 10);
        assert_eq!(*m.lock(), 10);
        assert!(p.held_ns >= 10 * 100_000, "held {} ns", p.held_ns);
    }

    #[test]
    fn reset_zeroes() {
        let m = TrackedMutex::new(());
        drop(m.lock());
        m.reset();
        let p = m.profile("x");
        assert_eq!(p.acquisitions, 0);
        assert_eq!(p.held_ns, 0);
    }

    #[test]
    fn effective_serial_adds_handoffs() {
        let p = LockProfile { name: "l".into(), held_ns: 1000, acquisitions: 10, cache: None };
        assert_eq!(p.effective_serial_ns(150), 1000 + 1500);

        let hot = CacheStats { hits: 95, misses: 5, refills: 2, drains: 1 };
        assert!((hot.hit_rate() - 0.95).abs() < 1e-9);
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
    }

    #[test]
    fn mutual_exclusion_holds() {
        let m = std::sync::Arc::new(TrackedMutex::new(0u64));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let m = m.clone();
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        *m.lock() += 1;
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*m.lock(), 4000);
    }
}
