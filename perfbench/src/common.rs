//! What every workload shares: the run plan, the timed-phase clock, the
//! per-window latency log, and the outcome each pass hands back.

use std::sync::Arc;
use std::time::{Duration, Instant};

use pmem::contention::{CacheStats, LockProfile};
use pmem::{numa, CrashMode, NumaTopology, PmemDevice, StatsSnapshot};
use poseidon::{HeapConfig, PoseidonHeap, RecoveryReport};
use workloads::PersistentAllocator;

use crate::trace::{self, span, CallCounts, Kind, Mode, Recorder, Tracked};

/// Clients of every workload, each under its own CPU id; no other thread
/// runs while they do.
pub const THREADS: usize = 2;

/// The simulated machine: 2 sockets, one CPU per client thread. Fixed, so
/// sub-heap counts and locality do not depend on the host.
pub fn topology() -> NumaTopology {
    NumaTopology::new(2, THREADS)
}

/// How big and how long one pass is.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// The timed phase is cut into this many equal windows.
    pub windows: usize,
    /// Set-ups timed for `setup_s`.
    pub setups: usize,
    /// Crash-and-reopen cycles after the timed phase.
    pub reopens: usize,
    /// Smoke-test scale: small inputs, no spill.
    pub tiny: bool,
}

/// The timed phase's clock: when it ends and which window an instant
/// falls in.
pub struct Clock {
    start: Instant,
    window: Duration,
    windows: usize,
}

impl Clock {
    pub fn start(plan: &Plan) -> Clock {
        Clock {
            start: Instant::now(),
            window: Duration::from_secs_f64(plan.seconds / plan.windows as f64),
            windows: plan.windows,
        }
    }

    pub fn window_s(&self) -> f64 {
        self.window.as_secs_f64()
    }

    /// The window `at` falls in; `None` once the timed phase is over.
    pub fn window(&self, at: Instant) -> Option<usize> {
        let w = (at.duration_since(self.start).as_nanos() / self.window.as_nanos()) as usize;
        (w < self.windows).then_some(w)
    }

    pub fn elapsed_s(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }
}

/// Request latencies in nanoseconds, per window and request class.
#[derive(Debug, Clone, Default)]
pub struct Lat {
    per: Vec<Vec<Vec<u64>>>,
}

impl Lat {
    pub fn new(windows: usize, classes: usize) -> Lat {
        Lat { per: vec![vec![Vec::new(); classes]; windows] }
    }

    pub fn record(&mut self, window: usize, class: usize, ns: u64) {
        self.per[window][class].push(ns);
    }

    pub fn merge(&mut self, other: Lat) {
        if self.per.is_empty() {
            self.per = other.per;
            return;
        }
        for (mine, theirs) in self.per.iter_mut().zip(other.per) {
            for (m, t) in mine.iter_mut().zip(theirs) {
                m.extend(t);
            }
        }
    }

    /// Requests of `classes` completed in each window.
    pub fn counts(&self, classes: &[usize]) -> Vec<u64> {
        self.per.iter().map(|w| classes.iter().map(|&c| w[c].len() as u64).sum()).collect()
    }

    /// `(p50, p99)` in microseconds of `classes` per window, and the
    /// fewest samples any window held.
    pub fn percentiles_us(&self, classes: &[usize]) -> (Vec<f64>, Vec<f64>, usize) {
        let mut p50 = Vec::new();
        let mut p99 = Vec::new();
        let mut fewest = usize::MAX;
        for w in &self.per {
            let mut all: Vec<u64> = classes.iter().flat_map(|&c| w[c].iter().copied()).collect();
            all.sort_unstable();
            fewest = fewest.min(all.len());
            p50.push(crate::report::percentile(&all, 0.50) as f64 / 1e3);
            p99.push(crate::report::percentile(&all, 0.99) as f64 / 1e3);
        }
        (p50, p99, if fewest == usize::MAX { 0 } else { fewest })
    }
}

impl Lat {
    /// `(p50, p99)` in microseconds of `classes` over every window, and
    /// the sample count.
    pub fn whole_percentiles_us(&self, classes: &[usize]) -> (f64, f64, usize) {
        let mut all: Vec<u64> =
            self.per.iter().flat_map(|w| classes.iter().flat_map(move |&c| w[c].iter().copied())).collect();
        all.sort_unstable();
        let p = |q| crate::report::percentile(&all, q) as f64 / 1e3;
        (p(0.50), p(0.99), all.len())
    }
}

/// What one client thread brought back from a timed phase.
pub struct ClientRun<S> {
    pub state: S,
    lat: Lat,
    attempted: u64,
    failed: u64,
    recorder: Recorder,
}

/// Runs `threads` closed-loop client threads, each under its own CPU id,
/// until `clock` runs out. A client builds its state with `make`, sends
/// requests with `request` (which returns the request's class and its
/// failed operations) and does `between` after each, untimed. Latencies
/// are logged per window of the clock and class, `windows` by `classes`.
pub fn run_clients<S: Send>(
    clock: &Clock,
    threads: usize,
    (windows, classes): (usize, usize),
    make: impl Fn(usize) -> S + Sync,
    request: impl Fn(&mut S) -> (usize, u64) + Sync,
    between: impl Fn(&mut S) + Sync,
) -> Vec<ClientRun<S>> {
    std::thread::scope(|s| {
        let clients: Vec<_> = (0..threads)
            .map(|t| {
                let (make, request, between) = (&make, &request, &between);
                s.spawn(move || {
                    numa::set_current_cpu(t);
                    trace::begin_thread(t as u64);
                    let mut state = make(t);
                    let mut lat = Lat::new(windows, classes);
                    let (mut attempted, mut failed) = (0, 0);
                    loop {
                        let start = Instant::now();
                        if clock.window(start).is_none() {
                            break;
                        }
                        let (class, f) = request(&mut state);
                        let end = Instant::now();
                        attempted += 1;
                        failed += f;
                        if let Some(w) = clock.window(end) {
                            lat.record(w, class, (end - start).as_nanos() as u64);
                        }
                        between(&mut state);
                    }
                    ClientRun { state, lat, attempted, failed, recorder: trace::harvest() }
                })
            })
            .collect();
        clients.into_iter().map(|c| c.join().expect("benchmark client panicked")).collect()
    })
}

/// What one timed pass of a workload measured and checked.
#[derive(Default)]
pub struct Outcome {
    pub setup_s: Vec<f64>,
    pub lat: Lat,
    /// Request classes in `lat`, by name.
    pub classes: &'static [&'static str],
    pub window_s: f64,
    /// Heap operations per request (micro-256 rounds hold 400).
    pub ops_per_request: u64,
    /// Length of the timed phase as it ran, summed over replicas.
    pub wall_s: f64,
    pub resident_per_live: f64,
    pub reopen_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Every correctness violation, in words.
    pub problems: Vec<String>,
    pub recorder: Recorder,
    /// Lock profile of the timed phase (counters reset at its start).
    pub locks: Vec<LockProfile>,
    /// Maintenance work units committed during the timed phase.
    pub maint_units: u64,
    pub frag_kib_end: f64,
    pub recovery: RecoveryReport,
    /// Facts worth printing (geometry, sizes).
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.problems.len() < 20 {
            self.problems.push(what);
        }
    }

    /// Folds the clients' logs into this outcome; returns their states.
    /// `ops_per_request` heap operations count as attempted per request.
    /// The clients' windows follow those already logged, so a workload
    /// that times several replicas logs one window per replica.
    pub fn absorb<S>(&mut self, runs: Vec<ClientRun<S>>) -> Vec<S> {
        let mut lat = Lat::default();
        let states = runs
            .into_iter()
            .map(|run| {
                lat.merge(run.lat);
                self.attempted += run.attempted * self.ops_per_request;
                self.failed += run.failed;
                self.recorder.merge(run.recorder);
                run.state
            })
            .collect();
        self.lat.per.extend(lat.per);
        states
    }

    /// Audits `heap` and fails the run if any bytes are still allocated.
    pub fn check_no_leak(&mut self, heap: &PoseidonHeap, when: &str) {
        self.attempted += 1;
        match heap.audit() {
            Ok(a) => {
                let leaked: u64 = a.iter().map(|(_, s)| s.alloc_bytes).sum();
                if leaked != 0 {
                    self.fail(format!("audit {when} found {leaked} leaked bytes"));
                }
            }
            Err(e) => self.fail(format!("audit {when} failed: {e}")),
        }
    }
}

/// Crash-and-reopen cycles on a heap with no live blocks: drop without
/// close, recover with `load`, and audit that nothing leaked.
pub fn reopen_empty(
    dev: &Arc<PmemDevice>,
    heap: Arc<Tracked>,
    config: HeapConfig,
    plan: &Plan,
    mode: Mode,
    out: &mut Outcome,
) {
    drop(heap);
    trace::set_mode(mode);
    trace::begin_thread(THREADS as u64);
    for cycle in 0..plan.reopens as u64 {
        dev.simulate_crash(CrashMode::Strict, plan.seed ^ cycle);
        let start = Instant::now();
        let loaded = {
            let _span = span(Kind::Load);
            PoseidonHeap::load(dev.clone(), config)
        };
        let ms = secs(start) * 1e3;
        out.attempted += 1;
        match loaded {
            Ok(heap) => {
                out.reopen_ms.push(ms);
                // The first reload is the one that finds the cache's blocks.
                if cycle == 0 {
                    out.recovery = heap.recovery_report();
                }
                out.check_no_leak(&heap, &format!("after reopen {cycle}"));
            }
            Err(e) => out.fail(format!("reopen {cycle}: load failed: {e}")),
        }
    }
    trace::set_mode(Mode::Off);
    out.recorder.merge(trace::harvest());
}

/// Summed cache counters of a lock profile.
pub fn cache_totals(locks: &[LockProfile]) -> CacheStats {
    let mut total = CacheStats::default();
    for c in locks.iter().filter_map(|l| l.cache) {
        total.hits += c.hits;
        total.misses += c.misses;
        total.refills += c.refills;
        total.drains += c.drains;
    }
    total
}

/// What the exact-counter pass counted: one thread, no timers, a fixed
/// number of requests.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counts {
    pub requests: u64,
    pub dev: StatsSnapshot,
    pub wrpkru: u64,
    pub lock_acquisitions: u64,
    pub alloc: CallCounts,
    pub free: CallCounts,
    pub failed: u64,
}

/// The exact-counter pass around `requests` calls of `request(i)`, which
/// returns the request's failed operations: device, MPK and lock counts
/// plus device-stat deltas around every heap call.
pub fn count_pass(heap: &Tracked, requests: u64, request: impl FnMut(u64) -> u64) -> Counts {
    let dev = heap.device();
    heap.reset_contention();
    trace::take_call_counts();
    let before = dev.stats();
    let wrpkru_before = dev.mpk().stats().wrpkru_count;
    trace::set_mode(Mode::Count);
    let failed = (0..requests).map(request).sum();
    trace::set_mode(Mode::Off);
    let (alloc, free) = trace::take_call_counts();
    Counts {
        requests,
        dev: stats_delta(&dev.stats(), &before),
        wrpkru: dev.mpk().stats().wrpkru_count - wrpkru_before,
        lock_acquisitions: heap.contention_profile().iter().map(|l| l.acquisitions).sum(),
        alloc,
        free,
        failed,
    }
}

/// `after - before`, field by field.
pub fn stats_delta(after: &StatsSnapshot, before: &StatsSnapshot) -> StatsSnapshot {
    StatsSnapshot {
        read_ops: after.read_ops - before.read_ops,
        write_ops: after.write_ops - before.write_ops,
        bytes_read: after.bytes_read - before.bytes_read,
        bytes_written: after.bytes_written - before.bytes_written,
        read_lines_local: after.read_lines_local - before.read_lines_local,
        read_lines_remote: after.read_lines_remote - before.read_lines_remote,
        write_lines_local: after.write_lines_local - before.write_lines_local,
        write_lines_remote: after.write_lines_remote - before.write_lines_remote,
        clwb_count: after.clwb_count - before.clwb_count,
        sfence_count: after.sfence_count - before.sfence_count,
        protection_faults: after.protection_faults - before.protection_faults,
        uncorrectable_errors: after.uncorrectable_errors - before.uncorrectable_errors,
        lines_poisoned: after.lines_poisoned - before.lines_poisoned,
        validations: after.validations - before.validations,
        meta_maps: after.meta_maps - before.meta_maps,
        undo_entries: after.undo_entries - before.undo_entries,
        undo_words: after.undo_words - before.undo_words,
    }
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}
