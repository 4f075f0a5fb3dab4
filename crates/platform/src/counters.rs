//! Striped counters: a cache-padded row of relaxed atomics per thread
//! stripe, summed on read.
//!
//! Counters bumped on every device access or cached allocation would, as
//! one shared set of atomics, bounce a cache line between the CPUs they
//! count. A thread adds to its own stripe's row instead (threads take the
//! 64 stripes round-robin), and a snapshot sums the rows. A set of
//! counters is declared once, as the `u64` fields of a
//! [`counter_struct!`]: [`counter!`]`(S, field)` is a field's index in the
//! rows, and [`snapshot`](StripedCounters::snapshot) returns an `S`.

use std::fmt;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use crate::sync::CachePadded;

const STRIPES: usize = 64;

static NEXT_STRIPE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static STRIPE: usize = NEXT_STRIPE.fetch_add(1, Ordering::Relaxed) % STRIPES;
}

/// `N` counters in 64 cache-padded rows, read as an `S` (a
/// [`counter_struct!`] of `N` fields).
pub struct StripedCounters<S, const N: usize> {
    rows: Box<[CachePadded<[AtomicU64; N]>]>,
    snapshot: PhantomData<fn() -> S>,
}

impl<S: From<[u64; N]>, const N: usize> StripedCounters<S, N> {
    /// Counters at zero.
    pub fn new() -> StripedCounters<S, N> {
        let row = |_| CachePadded::new(std::array::from_fn(|_| AtomicU64::new(0)));
        StripedCounters { rows: (0..STRIPES).map(row).collect(), snapshot: PhantomData }
    }

    /// Adds each `(counter, by)` to the calling thread's row.
    #[inline]
    pub fn add(&self, counts: impl IntoIterator<Item = (usize, u64)>) {
        STRIPE.with(|&stripe| {
            for (counter, by) in counts {
                if by != 0 {
                    self.rows[stripe][counter].fetch_add(by, Ordering::Relaxed);
                }
            }
        });
    }

    /// The rows summed (relaxed: adds in flight may be missed).
    pub fn snapshot(&self) -> S {
        let mut sum = [0u64; N];
        for row in self.rows.iter() {
            for (total, count) in sum.iter_mut().zip(row.iter()) {
                *total += count.load(Ordering::Relaxed);
            }
        }
        S::from(sum)
    }

    /// Zeroes every counter of every row.
    pub fn reset(&self) {
        self.rows.iter().flat_map(|row| row.iter()).for_each(|count| count.store(0, Ordering::Relaxed));
    }
}

impl<S: From<[u64; N]>, const N: usize> Default for StripedCounters<S, N> {
    fn default() -> Self {
        Self::new()
    }
}

impl<S: From<[u64; N]> + fmt::Debug, const N: usize> fmt::Debug for StripedCounters<S, N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("StripedCounters").field(&self.snapshot()).finish()
    }
}

/// Declares a `#[repr(C)]` struct of `pub` `u64` counter fields (so that
/// [`counter!`] indexes them) with `From<[u64; N]>`, `N` its field count,
/// so that it reads a [`StripedCounters`] snapshot. Attributes pass
/// through.
///
/// ```
/// platform::counter_struct! {
///     /// Two counters.
///     #[derive(Debug, PartialEq)]
///     pub struct Hits {
///         /// Served.
///         pub hits: u64,
///         /// Not served.
///         pub misses: u64,
///     }
/// }
/// let hits = platform::counters::StripedCounters::<Hits, 2>::new();
/// hits.add([(platform::counter!(Hits, misses), 3)]);
/// assert_eq!(hits.snapshot(), Hits { hits: 0, misses: 3 });
/// ```
#[macro_export]
macro_rules! counter_struct {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident { $( $(#[$fmeta:meta])* pub $field:ident: u64 ),+ $(,)? }
    ) => {
        $(#[$meta])*
        #[repr(C)]
        $vis struct $name { $( $(#[$fmeta])* pub $field: u64, )+ }

        impl From<[u64; std::mem::size_of::<$name>() / 8]> for $name {
            fn from([$($field),+]: [u64; std::mem::size_of::<$name>() / 8]) -> $name {
                $name { $($field),+ }
            }
        }
    };
}

/// The index of counter `field` of the [`counter_struct!`] `S` in its
/// [`StripedCounters`] rows.
#[macro_export]
macro_rules! counter {
    ($struct:ty, $field:ident) => {
        std::mem::offset_of!($struct, $field) / 8
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    crate::counter_struct! {
        #[derive(Debug, Default, PartialEq, Eq)]
        struct Traffic { pub reads: u64, pub writes: u64, pub bytes: u64 }
    }

    /// Two threads, on stripes of their own, and the calling thread add to
    /// the rows: the sums are exact, and `reset` zeroes every stripe.
    #[test]
    fn summed_rows_are_exact_and_reset_zeroes_every_stripe() {
        const ADDS: u64 = 20_000;
        let rows = StripedCounters::<Traffic, 3>::new();
        std::thread::scope(|s| {
            for t in 1..=2 {
                let rows = &rows;
                s.spawn(move || {
                    for _ in 0..ADDS {
                        rows.add([(counter!(Traffic, reads), 1), (counter!(Traffic, bytes), t)]);
                    }
                    rows.add([(counter!(Traffic, writes), t), (counter!(Traffic, reads), 0)]);
                });
            }
        });
        rows.add([(counter!(Traffic, writes), 10)]);
        assert_eq!(rows.snapshot(), Traffic { reads: 2 * ADDS, writes: 13, bytes: 3 * ADDS });
        let nonzero = |row: &&CachePadded<[AtomicU64; 3]>| row.iter().any(|c| c.load(Ordering::Relaxed) != 0);
        assert_eq!(rows.rows.iter().filter(nonzero).count(), 3, "each thread counted in its own row");
        rows.reset();
        assert_eq!(rows.rows.iter().filter(nonzero).count(), 0);
        assert_eq!(rows.snapshot(), Traffic::default());
    }
}
