//! Seeded, deterministic pseudo-random generation.
//!
//! One [`Rng`] per thread, seeded explicitly: a workload's op stream is a
//! pure function of its seed, so every benchmark run and every property
//! test is reproducible bit-for-bit. The core is the xorshift64 generator
//! (shifts 13/7/17) the workload suite has always used — kept identical
//! so op-stream digests are stable across the dependency refactor.

/// A deterministic xorshift64 generator.
///
/// Not cryptographic; statistically solid for workload generation and
/// property-test case selection.
#[derive(Debug, Clone)]
pub struct Rng {
    state: u64,
}

impl Rng {
    /// Seeds the generator (0 is remapped to a fixed odd constant, since
    /// xorshift has an all-zero fixed point).
    pub fn new(seed: u64) -> Rng {
        Rng { state: if seed == 0 { 0x9E37_79B9_7F4A_7C15 } else { seed } }
    }

    /// Next pseudo-random u64.
    pub fn next_u64(&mut self) -> u64 {
        self.state ^= self.state << 13;
        self.state ^= self.state >> 7;
        self.state ^= self.state << 17;
        self.state
    }

    /// Uniform value in `[0, bound)`.
    ///
    /// Uses Lemire's multiply-shift method with rejection (Lemire 2019,
    /// "Fast Random Integer Generation in an Interval"): the raw draw is
    /// widened to `u128`, multiplied by `bound`, and the high 64 bits are
    /// the result; draws landing in the short final partial interval are
    /// rejected and redrawn, so every value in `[0, bound)` is exactly
    /// equally likely. The previous `next_u64() % bound` carried modulo
    /// bias (up to 2x over-representation of low values for bounds near
    /// the top of the range), skewing every workload mix ratio and
    /// shuffle built on it. The underlying xorshift64 stream is
    /// unchanged; only the mapping from raw draws to bounded values
    /// differs.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0);
        let mut m = self.next_u64() as u128 * bound as u128;
        if (m as u64) < bound {
            // 2^64 mod bound, computed without u128 division.
            let threshold = bound.wrapping_neg() % bound;
            while (m as u64) < threshold {
                m = self.next_u64() as u128 * bound as u128;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform value in `[range.start, range.end)`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    pub fn gen_range(&mut self, range: std::ops::Range<u64>) -> u64 {
        assert!(range.start < range.end, "gen_range on empty range {range:?}");
        range.start + self.below(range.end - range.start)
    }

    /// Uniform f64 in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher–Yates shuffle of `slice` in place.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            slice.swap(i, j);
        }
    }

    /// Fills `buf` with pseudo-random bytes.
    pub fn fill(&mut self, buf: &mut [u8]) {
        for chunk in buf.chunks_mut(8) {
            let word = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&word[..chunk.len()]);
        }
    }
}

/// A 64-bit FNV-1a digest of a value stream — used by the repro harness
/// to fingerprint workload op streams, so RNG changes that would silently
/// alter a benchmark's operation mix are caught as a digest change.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamDigest(u64);

impl StreamDigest {
    /// Starts a fresh digest (FNV-1a offset basis).
    pub fn new() -> StreamDigest {
        StreamDigest(0xCBF2_9CE4_8422_2325)
    }

    /// Folds one value into the digest.
    pub fn update(&mut self, value: u64) {
        for byte in value.to_le_bytes() {
            self.0 ^= byte as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    /// Returns the digest value.
    pub fn finish(self) -> u64 {
        self.0
    }
}

impl Default for StreamDigest {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_identical_sequences() {
        let mut a = Rng::new(42);
        let mut b = Rng::new(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        // And through every derived API.
        let mut a = Rng::new(7);
        let mut b = Rng::new(7);
        let mut va: Vec<u64> = (0..64).collect();
        let mut vb: Vec<u64> = (0..64).collect();
        a.shuffle(&mut va);
        b.shuffle(&mut vb);
        assert_eq!(va, vb);
        let (mut ba, mut bb) = ([0u8; 33], [0u8; 33]);
        a.fill(&mut ba);
        b.fill(&mut bb);
        assert_eq!(ba, bb);
        assert_eq!(a.gen_range(10..999), b.gen_range(10..999));
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Rng::new(1);
        let mut b = Rng::new(2);
        let distinct = (0..100).filter(|_| a.next_u64() != b.next_u64()).count();
        assert!(distinct > 90);
    }

    #[test]
    fn matches_the_historical_workload_stream() {
        // The exact first values the pre-refactor `workloads::Xorshift`
        // produced for seed 1 — the workload determinism contract.
        let mut rng = Rng::new(1);
        assert_eq!(rng.next_u64(), 0x0000_0000_4082_2041);
        let mut rng = Rng::new(0x1A25_0000_0000_0001);
        let first = rng.next_u64();
        let mut again = Rng::new(0x1A25_0000_0000_0001);
        assert_eq!(first, again.next_u64());
    }

    #[test]
    fn bounds_are_respected() {
        let mut rng = Rng::new(99);
        for _ in 0..10_000 {
            assert!(rng.below(17) < 17);
            let v = rng.gen_range(5..8);
            assert!((5..8).contains(&v));
            let u = rng.unit_f64();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn below_is_free_of_modulo_bias() {
        // bound = 3 * 2^62: under `next_u64() % bound`, raw draws in
        // [0, 2^62) and [bound, bound + 2^62) both map below 2^62, so
        // results < 2^62 carry probability 1/2 instead of 1/3. Lemire's
        // method must put ~1/3 of the mass there.
        let bound = 3u64 << 62;
        let cut = 1u64 << 62;
        let mut rng = Rng::new(0xB1A5);
        let draws = 30_000;
        let below_cut = (0..draws).filter(|_| rng.below(bound) < cut).count();
        let frac = below_cut as f64 / draws as f64;
        assert!(
            (0.30..0.37).contains(&frac),
            "fraction below bound/3 was {frac:.4}; ~0.333 expected, ~0.5 under modulo bias"
        );
    }

    #[test]
    fn below_is_uniform_on_small_bounds() {
        // Non-power-of-two bound, chi-square-lite: every residue within
        // 5% of the expected share.
        let mut rng = Rng::new(0x5EED);
        let bound = 10u64;
        let draws = 200_000u64;
        let mut counts = [0u64; 10];
        for _ in 0..draws {
            counts[rng.below(bound) as usize] += 1;
        }
        let expected = draws / bound;
        for (v, &n) in counts.iter().enumerate() {
            let dev = (n as f64 / expected as f64 - 1.0).abs();
            assert!(dev < 0.05, "value {v} drawn {n} times (expected ~{expected}, deviation {dev:.3})");
        }
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = Rng::new(3);
        let mut v: Vec<u64> = (0..100).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, sorted, "shuffle left 100 elements in order");
    }

    #[test]
    fn zero_seed_is_remapped() {
        let mut rng = Rng::new(0);
        assert_ne!(rng.next_u64(), 0);
    }

    #[test]
    fn digest_is_order_sensitive() {
        let mut a = StreamDigest::new();
        a.update(1);
        a.update(2);
        let mut b = StreamDigest::new();
        b.update(2);
        b.update(1);
        assert_ne!(a.finish(), b.finish());
        assert_ne!(StreamDigest::new().finish(), a.finish());
    }
}
