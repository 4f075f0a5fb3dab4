//! Striped traffic counters.
//!
//! The counters are declared once, as the fields of [`StatsSnapshot`],
//! and addressed by field: `counter!(read_ops)` is the index of
//! `read_ops` among them. Counters are updated on every device access,
//! so a single set of shared atomics would itself become a scalability
//! bottleneck and distort the very experiments this workspace exists to
//! run. Counts are therefore striped over cache-line-padded rows of one
//! atomic per counter, indexed by a per-thread stripe id, and summed on
//! [`DeviceStats::snapshot`].

use std::sync::atomic::{AtomicU64, Ordering};

use platform::sync::CachePadded;

use crate::pod::Pod;

const STRIPES: usize = 64;

/// Number of counters: the `u64` fields of [`StatsSnapshot`].
const COUNTERS: usize = std::mem::size_of::<StatsSnapshot>() / 8;

/// The index of [`StatsSnapshot`] field `$field` among the counters.
macro_rules! counter {
    ($field:ident) => {
        std::mem::offset_of!($crate::StatsSnapshot, $field) / 8
    };
}
pub(crate) use counter;

/// The counters a device access counts: the leading fields of
/// [`StatsSnapshot`], `read_ops` through `sfence_count`. A mapped
/// [`MetaView`](crate::MetaView) keeps these in plain cells.
pub(crate) const TRAFFIC: usize = counter!(sfence_count) + 1;

/// Concurrent device counters; cheap to update from many threads.
#[derive(Debug)]
pub(crate) struct DeviceStats {
    stripes: Box<[CachePadded<[AtomicU64; COUNTERS]>]>,
}

thread_local! {
    static STRIPE_ID: usize = {
        use std::hash::{Hash, Hasher};
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        std::thread::current().id().hash(&mut hasher);
        (hasher.finish() as usize) % STRIPES
    };
}

impl DeviceStats {
    pub(crate) fn new() -> DeviceStats {
        DeviceStats { stripes: (0..STRIPES).map(|_| CachePadded::new(Default::default())).collect() }
    }

    /// Adds each `(counter, by)` to the calling thread's stripe.
    #[inline]
    pub(crate) fn add(&self, counts: impl IntoIterator<Item = (usize, u64)>) {
        STRIPE_ID.with(|&id| {
            let stripe = &self.stripes[id];
            for (counter, by) in counts {
                if by != 0 {
                    stripe[counter].fetch_add(by, Ordering::Relaxed);
                }
            }
        });
    }

    /// Sums all stripes into a consistent-enough snapshot (individual
    /// counters are relaxed; totals may be skewed by in-flight updates).
    pub(crate) fn snapshot(&self) -> StatsSnapshot {
        let mut sum = [0u64; COUNTERS];
        for stripe in self.stripes.iter() {
            for (total, count) in sum.iter_mut().zip(stripe.iter()) {
                *total += count.load(Ordering::Relaxed);
            }
        }
        StatsSnapshot::from_bytes(sum.as_bytes())
    }

    /// Resets every counter to zero.
    pub(crate) fn reset(&self) {
        for count in self.stripes.iter().flat_map(|stripe| stripe.iter()) {
            count.store(0, Ordering::Relaxed);
        }
    }
}

crate::pod_struct! {
    /// A point-in-time summary of device traffic. Its fields are the
    /// declaration of the device's counters: each is a `u64`, and the
    /// traffic an access counts comes first.
    pub struct StatsSnapshot {
        /// Number of read calls.
        pub read_ops: u64,
        /// Number of write calls.
        pub write_ops: u64,
        /// Total bytes read.
        pub bytes_read: u64,
        /// Total bytes written.
        pub bytes_written: u64,
        /// 64 B lines read from the issuing CPU's own NUMA node.
        pub read_lines_local: u64,
        /// 64 B lines read across the socket interconnect.
        pub read_lines_remote: u64,
        /// 64 B lines written to the issuing CPU's own NUMA node.
        pub write_lines_local: u64,
        /// 64 B lines written across the socket interconnect.
        pub write_lines_remote: u64,
        /// `clwb` line-flushes issued.
        pub clwb_count: u64,
        /// `sfence` barriers issued.
        pub sfence_count: u64,
        /// Accesses denied by MPK.
        pub protection_faults: u64,
        /// Accesses that failed on a poisoned line (uncorrectable media
        /// errors surfaced to callers).
        pub uncorrectable_errors: u64,
        /// Lines that turned uncorrectable (via injection or
        /// [`poison`](crate::PmemDevice::poison)).
        pub lines_poisoned: u64,
        /// Full access-validation sequences (bounds + protection + poison)
        /// executed on the data path: one per read/write/RMW/flush call
        /// through the device or its [unmapped
        /// view](crate::PmemDevice::unmapped_view), one per punch and one per
        /// [`map_meta`](crate::PmemDevice::map_meta). Accesses through a
        /// mapped [`MetaView`](crate::MetaView) add none — the point of the
        /// session layer is that this counter scales with *operations*, not
        /// metadata words.
        pub validations: u64,
        /// Metadata views handed out by
        /// [`map_meta`](crate::PmemDevice::map_meta).
        pub meta_maps: u64,
        /// Undo-log entries appended (one per
        /// [`record_undo_append`](crate::PmemDevice::record_undo_append)).
        /// Together with [`undo_words`](Self::undo_words) this lets
        /// benchmarks model what eager per-entry or per-word persistence
        /// *would* have cost next to the measured `sfence_count`.
        pub undo_entries: u64,
        /// Total 8-byte words covered by the appended undo-log entries.
        pub undo_words: u64,
    }
}

impl StatsSnapshot {
    /// Fraction of line traffic that crossed the socket interconnect
    /// (0.0 when there was no traffic).
    pub fn remote_fraction(&self) -> f64 {
        let remote = self.read_lines_remote + self.write_lines_remote;
        let total = remote + self.read_lines_local + self.write_lines_local;
        if total == 0 {
            0.0
        } else {
            remote as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_sums_updates_into_the_named_fields() {
        let stats = DeviceStats::new();
        stats.add([(counter!(read_ops), 1), (counter!(bytes_read), 128), (counter!(clwb_count), 3)]);
        stats.add([(counter!(read_ops), 2), (counter!(protection_faults), 1), (counter!(undo_words), 5)]);
        let expect = StatsSnapshot {
            read_ops: 3,
            bytes_read: 128,
            clwb_count: 3,
            protection_faults: 1,
            undo_words: 5,
            ..Default::default()
        };
        assert_eq!(stats.snapshot(), expect);
        assert_eq!(COUNTERS, counter!(undo_words) + 1, "every field is one u64 counter");
    }

    #[test]
    fn reset_zeroes_everything() {
        let stats = DeviceStats::new();
        stats.add((0..COUNTERS).map(|counter| (counter, 1)));
        stats.reset();
        assert_eq!(stats.snapshot(), StatsSnapshot::default());
    }

    #[test]
    fn concurrent_updates_are_not_lost() {
        let stats = std::sync::Arc::new(DeviceStats::new());
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let stats = stats.clone();
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        stats.add([(counter!(write_ops), 1)]);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(stats.snapshot().write_ops, 8000);
    }

    #[test]
    fn remote_fraction() {
        let s = StatsSnapshot { read_lines_local: 50, read_lines_remote: 50, ..Default::default() };
        assert!((s.remote_fraction() - 0.5).abs() < 1e-9);
    }
}
