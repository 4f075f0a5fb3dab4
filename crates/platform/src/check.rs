//! A small property-testing harness.
//!
//! Replaces the `proptest` suites with the subset this workspace uses:
//! seeded case generation, an iteration budget, failing-seed reporting,
//! and shrink-by-halving of the input size budget.
//!
//! ```
//! use platform::check::{check, Config};
//!
//! check("addition_commutes", Config::cases(64), |g| {
//!     let a = g.u64(0..1 << 20);
//!     let b = g.u64(0..1 << 20);
//!     assert_eq!(a + b, b + a);
//! });
//! ```
//!
//! Each case draws its inputs from a [`Gen`] seeded deterministically
//! from the test name and case index, so runs are reproducible without
//! any state files. When a case fails (panics), the harness re-runs the
//! same case seed with the collection size budget repeatedly halved and
//! reports the smallest configuration that still fails, plus the
//! environment variables to replay it:
//!
//! * `PLATFORM_CHECK_SEED=<hex>` — replay exactly one case seed.
//! * `PLATFORM_CHECK_CASES=<n>` — override every harness's case budget
//!   (e.g. crank to 10000 for a soak run).

use crate::rng::{fnv1a, splitmix64, Rng};

/// Budget and seeding for one [`check`] call.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Number of generated cases to run.
    pub cases: u32,
    /// Base seed; case `i` derives its seed from this and `i`.
    pub seed: u64,
}

impl Config {
    /// A config running `cases` cases with the default base seed.
    pub fn cases(cases: u32) -> Config {
        Config { cases, seed: 0x5EED_0000_0000_0000 }
    }
}

/// The per-case input generator handed to the property closure.
#[derive(Debug)]
pub struct Gen {
    rng: Rng,
    /// Size budget in (0, 1]: scales collection lengths during shrinking.
    size: f64,
}

impl Gen {
    fn new(seed: u64, size: f64) -> Gen {
        Gen { rng: Rng::new(seed), size }
    }

    /// Uniform u64 in `[range.start, range.end)`.
    pub fn u64(&mut self, range: std::ops::Range<u64>) -> u64 {
        self.rng.gen_range(range)
    }

    /// Uniform usize in `[range.start, range.end)`.
    pub fn usize(&mut self, range: std::ops::Range<usize>) -> usize {
        self.rng.gen_range(range.start as u64..range.end as u64) as usize
    }

    /// Uniform u8 in `[range.start, range.end)`.
    pub fn u8(&mut self, range: std::ops::Range<u8>) -> u8 {
        self.rng.gen_range(range.start as u64..range.end as u64) as u8
    }

    /// A u64 drawn from the full 64-bit range (`any::<u64>()`).
    pub fn any_u64(&mut self) -> u64 {
        self.rng.next_u64()
    }

    /// A u8 drawn from the full range.
    pub fn any_u8(&mut self) -> u8 {
        self.rng.next_u64() as u8
    }

    /// A usize drawn from the full range.
    pub fn any_usize(&mut self) -> usize {
        self.rng.next_u64() as usize
    }

    /// A fair coin.
    pub fn bool(&mut self) -> bool {
        self.rng.next_u64() & 1 == 1
    }

    /// Picks an index with the given relative weights (the `prop_oneof!`
    /// replacement): `weighted(&[4, 2, 1])` returns 0 four times as often
    /// as 2.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty or sums to zero.
    pub fn weighted(&mut self, weights: &[u32]) -> usize {
        let total: u64 = weights.iter().map(|&w| w as u64).sum();
        assert!(total > 0, "weighted() needs a non-empty, non-zero weight list");
        let mut pick = self.rng.below(total);
        for (index, &w) in weights.iter().enumerate() {
            if pick < w as u64 {
                return index;
            }
            pick -= w as u64;
        }
        unreachable!("pick < total by construction")
    }

    /// A collection length in `[range.start, range.end)`, scaled by the
    /// current shrink budget — this is the knob shrink-by-halving turns.
    pub fn len(&mut self, range: std::ops::Range<usize>) -> usize {
        let lo = range.start as u64;
        let hi = range.end as u64;
        assert!(lo < hi, "len() on empty range");
        let span = ((hi - lo - 1) as f64 * self.size).floor() as u64;
        (lo + if span == 0 { 0 } else { self.rng.below(span + 1) }) as usize
    }

    /// A vector of `len(len_range)` elements produced by `element`.
    pub fn vec<T>(
        &mut self,
        len_range: std::ops::Range<usize>,
        mut element: impl FnMut(&mut Gen) -> T,
    ) -> Vec<T> {
        let n = self.len(len_range);
        (0..n).map(|_| element(self)).collect()
    }
}

/// Outcome detail of a failing case, for the panic message.
struct Failure {
    case: u32,
    seed: u64,
    size: f64,
    message: String,
}

/// Runs `prop` against `config.cases` generated cases.
///
/// # Panics
///
/// Panics (failing the enclosing `#[test]`) when a case fails, after
/// shrinking, with the failing seed and replay instructions.
pub fn check(name: &str, config: Config, prop: impl Fn(&mut Gen)) {
    let cases = match std::env::var("PLATFORM_CHECK_CASES") {
        Ok(v) => v.parse().unwrap_or(config.cases),
        Err(_) => config.cases,
    };
    // Replay mode: exactly one case seed, full size.
    if let Ok(v) = std::env::var("PLATFORM_CHECK_SEED") {
        let seed = u64::from_str_radix(v.trim_start_matches("0x"), 16)
            .unwrap_or_else(|_| panic!("PLATFORM_CHECK_SEED {v:?} is not hex"));
        let mut gen = Gen::new(seed, 1.0);
        prop(&mut gen);
        return;
    }
    let base = config.seed ^ fnv1a(name.as_bytes());
    for case in 0..cases {
        let seed = splitmix64(base.wrapping_add(case as u64));
        if let Some(message) = run_case(&prop, seed, 1.0) {
            let failure = shrink(&prop, case, seed, message);
            panic!(
                "property {name:?} failed at case {}/{cases}\n  seed: {:#018x} (size budget {:.3})\n  {}\n  replay: PLATFORM_CHECK_SEED={:#x} cargo test {name}",
                failure.case, failure.seed, failure.size, failure.message, failure.seed,
            );
        }
    }
}

/// Runs one case, returning the panic message if it failed.
fn run_case(prop: &impl Fn(&mut Gen), seed: u64, size: f64) -> Option<String> {
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let mut gen = Gen::new(seed, size);
        prop(&mut gen);
    }));
    result.err().map(|payload| {
        if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "<non-string panic payload>".to_string()
        }
    })
}

/// Shrink-by-halving: re-runs the failing seed with the size budget
/// halved while the failure persists; returns the smallest still-failing
/// configuration.
fn shrink(prop: &impl Fn(&mut Gen), case: u32, seed: u64, message: String) -> Failure {
    // Quiet the default panic hook while shrinking re-panics on purpose.
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let mut best = Failure { case, seed, size: 1.0, message };
    let mut size = 0.5;
    while size >= 1.0 / 128.0 {
        match run_case(prop, seed, size) {
            Some(message) => {
                best = Failure { case, seed, size, message };
                size /= 2.0;
            }
            None => break,
        }
    }
    std::panic::set_hook(hook);
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passing_property_runs_all_cases() {
        let counter = std::cell::Cell::new(0u32);
        check("always_true", Config::cases(37), |g| {
            counter.set(counter.get() + 1);
            let v = g.vec(1..50, |g| g.u64(0..100));
            assert!(v.iter().all(|&x| x < 100));
            assert!(!v.is_empty());
        });
        assert_eq!(counter.get(), 37);
    }

    #[test]
    fn failing_property_reports_seed_and_shrinks() {
        let result = std::panic::catch_unwind(|| {
            check("too_long_vectors_fail", Config::cases(50), |g| {
                let v = g.vec(1..200, |g| g.any_u64());
                assert!(v.len() < 40, "vector of {} elements", v.len());
            });
        });
        let message = match result {
            Err(p) => p.downcast_ref::<String>().cloned().unwrap_or_default(),
            Ok(()) => panic!("property unexpectedly passed"),
        };
        assert!(message.contains("seed:"), "no seed in: {message}");
        assert!(message.contains("PLATFORM_CHECK_SEED="), "no replay line in: {message}");
        // Shrinking halved the size budget below 1.0.
        assert!(message.contains("size budget 0."), "no shrink evidence in: {message}");
    }

    #[test]
    fn cases_are_deterministic() {
        let collect = || {
            let mut seen = Vec::new();
            // Mutable borrow through a RefCell-free closure: use Cell trick.
            let cell = std::cell::RefCell::new(&mut seen);
            check("determinism_probe", Config::cases(10), |g| {
                cell.borrow_mut().push(g.any_u64());
            });
            seen
        };
        assert_eq!(collect(), collect());
    }

    #[test]
    fn weighted_respects_weights() {
        let mut gen = Gen::new(123, 1.0);
        let mut counts = [0u32; 3];
        for _ in 0..10_000 {
            counts[gen.weighted(&[8, 1, 1])] += 1;
        }
        assert!(counts[0] > counts[1] * 4, "weights ignored: {counts:?}");
        assert!(counts[1] > 0 && counts[2] > 0);
    }

    #[test]
    fn len_respects_bounds_at_every_size() {
        for &size in &[1.0, 0.5, 0.01] {
            let mut gen = Gen::new(9, size);
            for _ in 0..1000 {
                let n = gen.len(3..17);
                assert!((3..17).contains(&n), "len {n} escaped 3..17 at size {size}");
            }
        }
        // Fully shrunk: pinned to the minimum.
        let mut gen = Gen::new(9, 0.0);
        assert_eq!(gen.len(5..100), 5);
    }
}
