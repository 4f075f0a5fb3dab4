//! NUMA topology model and the current-CPU registry.
//!
//! Poseidon's per-CPU sub-heaps are placed on the NUMA node of the CPU that
//! first allocates from them (§4.1), so both the allocator and the device's
//! locality accounting need to know "which CPU is this thread on?". Real
//! systems answer with `sched_getcpu()`; here the benchmark driver pins each
//! worker to a *logical* CPU with [`set_current_cpu`] (usually via
//! [`CpuPinGuard`]) and everyone else reads [`current_cpu`].

use std::cell::Cell;

/// A model of the machine's socket/CPU layout.
///
/// CPUs are numbered `0..cpus` and distributed over sockets in contiguous
/// blocks, like Linux's default enumeration of the paper's 2-socket Xeon.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NumaTopology {
    sockets: usize,
    cpus: usize,
    /// `ceil(2^32 / cpus_per_socket)`: the CPU-to-node mapping as a
    /// fixed-point reciprocal, so [`node_of_cpu`](Self::node_of_cpu) —
    /// run on every device access — multiplies instead of dividing.
    node_scale: u64,
}

impl NumaTopology {
    /// Creates a topology with `sockets` sockets and `cpus` logical CPUs.
    ///
    /// # Panics
    ///
    /// Panics if `sockets == 0`, `cpus == 0`, or `cpus < sockets`.
    pub fn new(sockets: usize, cpus: usize) -> NumaTopology {
        assert!(sockets > 0 && cpus > 0, "topology must have at least one socket and CPU");
        assert!(cpus >= sockets, "need at least one CPU per socket");
        let per_socket = cpus.div_ceil(sockets) as u64;
        NumaTopology { sockets, cpus, node_scale: (1u64 << 32).div_ceil(per_socket) }
    }

    /// The paper's testbed shape: 2 sockets, 56 physical cores
    /// (112 logical CPUs).
    pub fn paper_testbed() -> NumaTopology {
        NumaTopology::new(2, 112)
    }

    /// A 2-socket topology sized to this host's available parallelism.
    pub fn host() -> NumaTopology {
        let cpus = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(8).max(2);
        NumaTopology::new(2, cpus)
    }

    /// Number of sockets (NUMA nodes).
    #[inline]
    pub fn sockets(&self) -> usize {
        self.sockets
    }

    /// Number of logical CPUs.
    #[inline]
    pub fn cpus(&self) -> usize {
        self.cpus
    }

    /// Returns the NUMA node of `cpu` (CPU ids wrap around the topology, so
    /// any usize is a valid logical CPU).
    #[inline]
    pub fn node_of_cpu(&self, cpu: usize) -> usize {
        // Blocks of `per_socket = ceil(cpus / sockets)` CPUs, so a CPU
        // below `cpus` is on node `cpu / per_socket` < `sockets`. For
        // `cpu < 2^16`, `(cpu * ceil(2^32 / per_socket)) >> 32` is that
        // quotient exactly when `per_socket <= 2^16` (Lemire, Kaser and
        // Kurz, "Faster remainder by direct computation", Theorem 1) and
        // is 0, as the quotient is, when `per_socket` is larger.
        if cpu < self.cpus && cpu < 1 << 16 {
            return ((cpu as u64 * self.node_scale) >> 32) as usize;
        }
        let per_socket = self.cpus.div_ceil(self.sockets);
        (cpu % self.cpus / per_socket).min(self.sockets - 1)
    }
}

impl Default for NumaTopology {
    fn default() -> Self {
        NumaTopology::host()
    }
}

thread_local! {
    static CURRENT_CPU: Cell<usize> = const { Cell::new(0) };
}

/// Registers the calling thread as running on logical CPU `cpu` — the
/// simulated equivalent of pinning the thread with `sched_setaffinity` and
/// reading `sched_getcpu()`.
pub fn set_current_cpu(cpu: usize) {
    CURRENT_CPU.with(|c| c.set(cpu));
}

/// Returns the logical CPU the calling thread registered with
/// [`set_current_cpu`] (CPU 0 if never registered).
#[inline]
pub fn current_cpu() -> usize {
    CURRENT_CPU.with(|c| c.get())
}

/// RAII pin: sets the calling thread's CPU on construction and restores the
/// previous value on drop, keeping tests that share threads well-behaved.
#[derive(Debug)]
pub struct CpuPinGuard {
    previous: usize,
}

impl CpuPinGuard {
    /// Pins the calling thread to `cpu` until the guard is dropped.
    pub fn pin(cpu: usize) -> CpuPinGuard {
        let previous = current_cpu();
        set_current_cpu(cpu);
        CpuPinGuard { previous }
    }
}

impl Drop for CpuPinGuard {
    fn drop(&mut self) {
        set_current_cpu(self.previous);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_distribution_over_sockets() {
        let t = NumaTopology::new(2, 8);
        assert_eq!(t.node_of_cpu(0), 0);
        assert_eq!(t.node_of_cpu(3), 0);
        assert_eq!(t.node_of_cpu(4), 1);
        assert_eq!(t.node_of_cpu(7), 1);
        // CPU ids wrap.
        assert_eq!(t.node_of_cpu(8), 0);
    }

    #[test]
    fn node_of_cpu_matches_block_division() {
        for sockets in 1..=9 {
            for cpus in (sockets..=300).chain([1 << 12, (1 << 16) - 1, 1 << 16, 1 << 17]) {
                let t = NumaTopology::new(sockets, cpus);
                let per_socket = cpus.div_ceil(sockets);
                let probes =
                    (0..600).chain([cpus - 1, cpus, cpus + 1, 3 * cpus + 7, (1 << 16) + 5, usize::MAX]);
                for cpu in probes {
                    let expected = (cpu % cpus / per_socket).min(sockets - 1);
                    assert_eq!(t.node_of_cpu(cpu), expected, "{sockets} sockets, {cpus} cpus, cpu {cpu}");
                }
            }
        }
    }

    #[test]
    fn uneven_cpu_counts_stay_in_range() {
        let t = NumaTopology::new(3, 7);
        for cpu in 0..32 {
            assert!(t.node_of_cpu(cpu) < 3);
        }
    }

    #[test]
    fn paper_testbed_shape() {
        let t = NumaTopology::paper_testbed();
        assert_eq!(t.sockets(), 2);
        assert_eq!(t.cpus(), 112);
        assert_eq!(t.node_of_cpu(0), 0);
        assert_eq!(t.node_of_cpu(56), 1);
    }

    #[test]
    fn pin_guard_restores_previous_cpu() {
        set_current_cpu(3);
        {
            let _g = CpuPinGuard::pin(11);
            assert_eq!(current_cpu(), 11);
        }
        assert_eq!(current_cpu(), 3);
    }

    #[test]
    fn cpu_registry_is_per_thread() {
        set_current_cpu(5);
        std::thread::spawn(|| {
            assert_eq!(current_cpu(), 0);
            set_current_cpu(9);
            assert_eq!(current_cpu(), 9);
        })
        .join()
        .unwrap();
        assert_eq!(current_cpu(), 5);
    }

    #[test]
    #[should_panic(expected = "at least one CPU per socket")]
    fn rejects_fewer_cpus_than_sockets() {
        let _ = NumaTopology::new(4, 2);
    }
}
