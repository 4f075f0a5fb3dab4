//! Shared plumbing for the figure-reproduction harness.
//!
//! The `repro` binary regenerates every figure of the Poseidon paper; this
//! library holds its device construction, thread sweeps, throughput
//! projection and series printing.

#![warn(missing_docs)]

use std::sync::Arc;

use pmem::{DeviceConfig, PmemDevice};
use workloads::{PersistentAllocator, RunResult};

/// Builds a fresh benchmark device (crash tracking off, protection on) of
/// `gib` virtual GiB — backing memory materialises only when touched.
///
/// The device models the paper's 2-socket topology with at least 64
/// logical CPUs regardless of the host, so per-CPU structures (Poseidon
/// sub-heaps, Makalu local lists) exist at benchmark scale; the host's
/// real core count only affects wall-clock, which the projection
/// normalises out.
pub fn bench_device(gib: u64) -> Arc<PmemDevice> {
    let host = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let config = DeviceConfig::bench(gib << 30).with_topology(pmem::NumaTopology::new(2, host.max(64)));
    Arc::new(PmemDevice::new(config))
}

/// The paper's thread sweep (1, 2, 4, ... up to `max`), always including
/// `max` itself.
pub fn thread_sweep(max: usize) -> Vec<usize> {
    let mut sweep = Vec::new();
    let mut t = 1;
    while t < max {
        sweep.push(t);
        t *= 2;
    }
    sweep.push(max);
    sweep
}

/// One measured point of a figure series.
#[derive(Debug, Clone, Copy)]
pub struct Point {
    /// X value (thread count).
    pub threads: usize,
    /// Y value: throughput projected to `threads` cores (Mops/sec).
    pub mops: f64,
    /// Throughput actually observed on this host's wall clock.
    pub wall_mops: f64,
}

/// Per-handoff penalty charged to contended locks in the projection:
/// roughly one cross-core cache-line transfer of the lock word.
pub const LOCK_HANDOFF_NS: u64 = 150;

/// Projects a run onto `threads` cores with the work-span bound
/// `T(p) = max(total_work / p, max_resource_serial_time)`.
///
/// `total_work` is the workers' summed thread-CPU time (immune to host
/// core count and preemption). Each lock's serial time is its measured
/// CPU-time hold plus [`LOCK_HANDOFF_NS`] per acquisition.
///
/// This is how the paper's scalability shapes — who saturates where — are
/// reproduced on hosts with fewer cores than the paper's 112-thread
/// testbed; EXPERIMENTS.md discusses fidelity and limits.
pub fn project(result: &RunResult, profile: &[pmem::LockProfile]) -> Point {
    let busy_ns = if result.cpu_ns > 0 { result.cpu_ns } else { result.elapsed.as_nanos() as u64 };
    let serial_ns = profile.iter().map(|p| p.effective_serial_ns(LOCK_HANDOFF_NS)).max().unwrap_or(0);
    let projected_ns = (busy_ns / result.threads.max(1) as u64).max(serial_ns).max(1);
    Point {
        threads: result.threads,
        mops: result.total_ops as f64 / projected_ns as f64 * 1e3,
        wall_mops: result.mops(),
    }
}

/// Runs `run` once as warm-up (creating sub-heaps, filling caches), then
/// twice measured with fresh lock counters, keeping the better projection
/// (best-of-2 damps scheduler noise on oversubscribed hosts).
pub fn measure(
    alloc: &dyn PersistentAllocator,
    run: impl Fn(&dyn PersistentAllocator) -> RunResult,
) -> Point {
    let _ = run(alloc);
    let mut best: Option<Point> = None;
    for _ in 0..2 {
        alloc.reset_contention();
        alloc.device().reset_stats();
        let result = run(alloc);
        let p = project(&result, &alloc.contention_profile());
        if best.is_none_or(|b| p.mops > b.mops) {
            best = Some(p);
        }
    }
    best.expect("two measured passes ran")
}

/// Prints one figure panel: a header, then rows of
/// `threads  poseidon wall  pmdk wall  makalu wall` (whichever series are
/// present). Each series shows its projected Mops and, beside it, the Mops
/// this host's wall clock observed; the wall column reads `-` above the
/// host's CPU count, where time-sliced workers make it meaningless.
pub fn print_panel(title: &str, series: &[(&str, Vec<Point>)]) {
    let cpus = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    println!("\n## {title}");
    print!("{:>8}", "threads");
    for (name, _) in series {
        print!(" {name:>12} {:>7}", "wall");
    }
    println!();
    let xs: Vec<usize> =
        series.first().map(|(_, s)| s.iter().map(|p| p.threads).collect()).unwrap_or_default();
    for (row, &threads) in xs.iter().enumerate() {
        print!("{threads:>8}");
        for (_, points) in series {
            match points.get(row) {
                Some(p) if p.threads <= cpus => print!(" {:>12.3} {:>7.3}", p.mops, p.wall_mops),
                Some(p) => print!(" {:>12.3} {:>7}", p.mops, "-"),
                None => print!(" {:>12} {:>7}", "-", "-"),
            }
        }
        println!();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_covers_powers_of_two_and_max() {
        assert_eq!(thread_sweep(8), vec![1, 2, 4, 8]);
        assert_eq!(thread_sweep(6), vec![1, 2, 4, 6]);
        assert_eq!(thread_sweep(1), vec![1]);
    }

    #[test]
    fn fresh_allocators_work() {
        for kind in workloads::AllocatorKind::ALL {
            let alloc = kind.build(bench_device(1));
            let a = alloc.alloc(64).unwrap();
            alloc.free(a).unwrap();
        }
    }
}
