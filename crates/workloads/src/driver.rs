//! The measurement driver: thread spawning, CPU pinning, and throughput
//! accounting shared by every benchmark.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use pmem::numa;

/// The outcome of one benchmark run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunResult {
    /// Total operations completed across all threads.
    pub total_ops: u64,
    /// Wall-clock time from the start barrier to the last thread
    /// finishing.
    pub elapsed: Duration,
    /// Number of worker threads.
    pub threads: usize,
    /// Total CPU time consumed by the workers (the run's *work*,
    /// independent of how many cores the host timesliced it over).
    pub cpu_ns: u64,
}

impl RunResult {
    /// Throughput in million operations per second.
    pub fn mops(&self) -> f64 {
        if self.elapsed.is_zero() {
            return 0.0;
        }
        self.total_ops as f64 / self.elapsed.as_secs_f64() / 1e6
    }
}

/// Runs `work(thread_index)` on `threads` workers, each pinned to logical
/// CPU `thread_index`, starting simultaneously. Each worker returns its
/// operation count.
pub fn run_threads<F>(threads: usize, work: F) -> RunResult
where
    F: Fn(usize) -> u64 + Sync,
{
    let barrier = Barrier::new(threads + 1);
    let mut total_ops = 0;
    let mut cpu_ns = 0;
    let mut elapsed = Duration::ZERO;
    platform::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|thread_index| {
                let barrier = &barrier;
                let work = &work;
                scope.spawn(move || {
                    numa::set_current_cpu(thread_index);
                    barrier.wait();
                    let cpu0 = platform::thread::cpu_time_ns();
                    let ops = work(thread_index);
                    (ops, platform::thread::cpu_time_ns() - cpu0)
                })
            })
            .collect();
        barrier.wait();
        let start = Instant::now();
        for handle in handles {
            let (ops, cpu) = handle.join().expect("worker panicked");
            total_ops += ops;
            cpu_ns += cpu;
        }
        elapsed = start.elapsed();
    });
    RunResult { total_ops, elapsed, threads, cpu_ns }
}

/// Like [`run_threads`], but time-bounded: workers run
/// `work(thread_index, &stop)` until the driver sets `stop` after
/// `duration`.
pub fn run_timed<F>(threads: usize, duration: Duration, work: F) -> RunResult
where
    F: Fn(usize, &AtomicBool) -> u64 + Sync,
{
    let barrier = Barrier::new(threads + 1);
    let stop = AtomicBool::new(false);
    let mut total_ops = 0;
    let mut cpu_ns = 0;
    let mut elapsed = Duration::ZERO;
    platform::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|thread_index| {
                let barrier = &barrier;
                let work = &work;
                let stop = &stop;
                scope.spawn(move || {
                    numa::set_current_cpu(thread_index);
                    barrier.wait();
                    let cpu0 = platform::thread::cpu_time_ns();
                    let ops = work(thread_index, stop);
                    (ops, platform::thread::cpu_time_ns() - cpu0)
                })
            })
            .collect();
        barrier.wait();
        let start = Instant::now();
        std::thread::sleep(duration);
        stop.store(true, Ordering::Relaxed);
        for handle in handles {
            let (ops, cpu) = handle.join().expect("worker panicked");
            total_ops += ops;
            cpu_ns += cpu;
        }
        elapsed = start.elapsed();
    });
    RunResult { total_ops, elapsed, threads, cpu_ns }
}

/// The per-thread workload RNG (no global state, one per thread,
/// reproducible across runs). An alias for [`platform::rng::Rng`], which
/// keeps the exact xorshift64 sequence this crate has always produced, so
/// op-stream digests are stable across the dependency refactor.
pub use platform::rng::Rng as Xorshift;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_threads_sums_ops_and_pins_cpus() {
        let result = run_threads(4, |thread_index| {
            assert_eq!(numa::current_cpu(), thread_index);
            (thread_index as u64 + 1) * 10
        });
        assert_eq!(result.total_ops, 10 + 20 + 30 + 40);
        assert_eq!(result.threads, 4);
        assert!(result.mops() >= 0.0);
    }

    #[test]
    fn run_timed_stops_workers() {
        let result = run_timed(2, Duration::from_millis(50), |_, stop| {
            let mut ops = 0;
            while !stop.load(Ordering::Relaxed) {
                ops += 1;
                std::hint::spin_loop();
            }
            ops
        });
        assert!(result.total_ops > 0);
        assert!(result.elapsed >= Duration::from_millis(50));
    }

    #[test]
    fn xorshift_is_deterministic_and_bounded() {
        let mut a = Xorshift::new(42);
        let mut b = Xorshift::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        for _ in 0..1000 {
            assert!(a.below(17) < 17);
            let u = a.unit_f64();
            assert!((0.0..1.0).contains(&u));
        }
    }
}
