//! A lazily materialised array: fixed length, in `OnceLock` segments of
//! `SEG` entries that materialise on first use.
//!
//! [`get_or_init`](LazyArray::get_or_init) materialises a segment with
//! every entry at its default; threads racing on one segment agree on one
//! copy. [`get`](LazyArray::get) reads an absent segment, or an index past
//! the end, as `None`. An untouched segment costs one `OnceLock`, so a
//! sparse index over a TB-scale address space stays small.

use std::sync::OnceLock;

/// A fixed-length array of `T` whose `SEG`-entry segments materialise on
/// first use.
pub struct LazyArray<T, const SEG: usize> {
    segments: Box<[OnceLock<Box<[T; SEG]>>]>,
}

impl<T: Default, const SEG: usize> LazyArray<T, SEG> {
    /// An array of `len` entries, rounded up to whole segments, none of
    /// them materialised.
    pub fn new(len: usize) -> LazyArray<T, SEG> {
        LazyArray { segments: (0..len.div_ceil(SEG)).map(|_| OnceLock::new()).collect() }
    }

    /// Entry `index`, or `None` when its segment is not materialised or
    /// `index` is past the end.
    #[inline]
    pub fn get(&self, index: usize) -> Option<&T> {
        Some(&self.segments.get(index / SEG)?.get()?[index % SEG])
    }

    /// Entry `index`, materialising its segment first if needed. Panics
    /// if `index` is past the end.
    #[inline]
    pub fn get_or_init(&self, index: usize) -> &T {
        &self.segments[index / SEG].get_or_init(|| {
            let entries: Box<[T]> = (0..SEG).map(|_| T::default()).collect();
            entries.try_into().unwrap_or_else(|_| unreachable!("a segment holds SEG entries"))
        })[index % SEG]
    }

    /// Every entry of every materialised segment with its index, in index
    /// order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &T)> {
        let segments = self.segments.iter().enumerate().filter_map(|(s, seg)| Some((s * SEG, seg.get()?)));
        segments.flat_map(|(first, seg)| seg.iter().enumerate().map(move |(i, entry)| (first + i, entry)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn segments_materialise_on_demand() {
        let array: LazyArray<AtomicU64, 64> = LazyArray::new(64 * 64);
        assert_eq!(array.iter().count(), 0);
        array.get_or_init(3).store(7, Ordering::Relaxed);
        array.get_or_init(64 + 1).store(9, Ordering::Relaxed);
        assert_eq!(array.iter().count(), 2 * 64);
        assert_eq!(array.iter().map(|(_, v)| v.load(Ordering::Relaxed)).sum::<u64>(), 16);
    }

    #[test]
    fn absent_segments_and_past_the_end_indices_read_as_absent() {
        let array: LazyArray<AtomicU64, 16> = LazyArray::new(40); // three segments
        assert!(array.get(0).is_none());
        array.get_or_init(17).store(5, Ordering::Relaxed);
        assert_eq!(array.get(17).map(|v| v.load(Ordering::Relaxed)), Some(5));
        assert_eq!(array.get(16).map(|v| v.load(Ordering::Relaxed)), Some(0));
        assert!(array.get(15).is_none() && array.get(32).is_none(), "neighbouring segments stay absent");
        array.get_or_init(47); // the last whole segment
        for index in [48, 1 << 20, usize::MAX] {
            assert!(array.get(index).is_none(), "index {index}");
        }
        assert!(std::panic::catch_unwind(|| array.get_or_init(48)).is_err());
    }

    #[test]
    fn iteration_visits_exactly_the_materialised_segments_with_their_indices() {
        let array: LazyArray<AtomicU64, 4> = LazyArray::new(32);
        for index in [1, 13, 14, 29] {
            array.get_or_init(index).store(index as u64 + 100, Ordering::Relaxed);
        }
        let seen: Vec<(usize, u64)> = array.iter().map(|(i, v)| (i, v.load(Ordering::Relaxed))).collect();
        let indices: Vec<usize> = seen.iter().map(|&(i, _)| i).collect();
        assert_eq!(indices, [0, 1, 2, 3, 12, 13, 14, 15, 28, 29, 30, 31]);
        let stored: Vec<(usize, u64)> = seen.into_iter().filter(|&(_, v)| v != 0).collect();
        assert_eq!(stored, [(1, 101), (13, 113), (14, 114), (29, 129)]);
    }

    /// Two threads race `get_or_init` on every segment of fresh arrays,
    /// each storing into its own entry: both see one segment per race and
    /// no store is lost to a losing copy.
    #[test]
    fn racing_get_or_init_materialises_each_segment_once() {
        const SEG: usize = 256;
        for _ in 0..8 {
            let array: LazyArray<AtomicU64, SEG> = LazyArray::new(64 * SEG);
            let start = std::sync::Barrier::new(2);
            let seen: Vec<Vec<usize>> = std::thread::scope(|s| {
                let racer = |t: usize| {
                    let (array, start) = (&array, &start);
                    s.spawn(move || {
                        start.wait();
                        let touch = |seg: usize| {
                            array.get_or_init(seg * SEG + t).fetch_add(1, Ordering::Relaxed);
                            std::ptr::from_ref(array.get_or_init(seg * SEG)) as usize
                        };
                        (0..64).map(touch).collect()
                    })
                };
                let racers = [racer(0), racer(1)];
                racers.map(|r| r.join().unwrap()).into()
            });
            assert_eq!(seen[0], seen[1], "the threads saw different segments");
            let stored = |i: usize| array.get(i).unwrap().load(Ordering::Relaxed);
            assert!(
                (0..64).all(|seg| stored(seg * SEG) == 1 && stored(seg * SEG + 1) == 1),
                "a store was lost"
            );
        }
    }
}
