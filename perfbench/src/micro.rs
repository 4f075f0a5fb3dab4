//! micro-256: the §7.2 microbenchmark. Each client runs batches of 100
//! allocations and 100 frees of 256 B in random order on the default
//! cached heap; the live set fits in the per-CPU magazines, so warm
//! batches never leave `poseidon::frontend`.

use std::sync::Arc;
use std::time::Instant;

use pmem::{numa, DeviceConfig, PmemDevice};
use poseidon::{HeapConfig, PoseidonHeap};
use workloads::{PersistentAllocator, Xorshift};

use crate::common::{
    count_pass, reopen_empty, run_clients, secs, topology, Clock, Counts, Outcome, Plan, THREADS,
};
use crate::trace::{self, span, Kind, Mode, Tracked};

const BATCH: usize = 100;
const SIZE: u64 = 256;
const CAPACITY: u64 = 128 << 20;
/// Batches each CPU runs during set-up, so magazines start warm.
const WARM_BATCHES: usize = 20;
/// Heap operations in a request: one batch per client.
const ROUND_OPS: u64 = (THREADS * 2 * BATCH) as u64;
/// Rounds of the exact-counter pass.
const COUNT_ROUNDS: u64 = 250;

pub const CLASSES: &[&str] = &["round"];

fn config() -> HeapConfig {
    HeapConfig::new()
}

fn rng_for(seed: u64, cpu: usize) -> Xorshift {
    Xorshift::new(seed ^ (cpu as u64 + 1).wrapping_mul(0x9E37_79B9))
}

/// One batch: 100 allocations and 100 frees, randomly interleaved, never
/// freeing with nothing live. Returns the failed operations.
fn batch(heap: &Tracked, rng: &mut Xorshift, live: &mut Vec<u64>) -> u64 {
    let mut failed = 0;
    let mut allocs_left = BATCH;
    let mut frees_left = BATCH;
    while allocs_left > 0 || frees_left > 0 {
        let do_alloc = allocs_left > 0 && (live.is_empty() || frees_left == 0 || rng.below(2) == 0);
        if do_alloc {
            match heap.alloc(SIZE) {
                Ok(offset) => live.push(offset),
                Err(_) => failed += 1,
            }
            allocs_left -= 1;
        } else if live.is_empty() {
            // Only after a failed allocation: the free it owed is lost.
            failed += 1;
            frees_left -= 1;
        } else {
            let offset = live.swap_remove(rng.below(live.len() as u64) as usize);
            if heap.free(offset).is_err() {
                failed += 1;
            }
            frees_left -= 1;
        }
    }
    failed
}

struct Bench {
    dev: Arc<PmemDevice>,
    heap: Arc<Tracked>,
}

fn setup(seed: u64) -> Bench {
    let dev = Arc::new(PmemDevice::new(DeviceConfig::bench(CAPACITY).with_topology(topology())));
    let heap = Tracked::new(PoseidonHeap::create(dev.clone(), config()).expect("create micro-256 heap"));
    for cpu in 0..THREADS {
        numa::set_current_cpu(cpu);
        let mut rng = rng_for(seed ^ 0x5EED, cpu);
        let mut live = Vec::with_capacity(BATCH);
        for _ in 0..WARM_BATCHES {
            assert_eq!(batch(&heap, &mut rng, &mut live), 0, "micro-256 warm-up failed");
        }
    }
    Bench { dev, heap }
}

/// The two clients' state: a batch stream and live set per CPU.
struct Clients {
    rngs: Vec<Xorshift>,
    live: Vec<Vec<u64>>,
}

impl Clients {
    fn new(seed: u64) -> Clients {
        Clients {
            rngs: (0..THREADS).map(|cpu| rng_for(seed, cpu)).collect(),
            live: (0..THREADS).map(|_| Vec::with_capacity(BATCH)).collect(),
        }
    }

    /// One round: each client runs a batch under its CPU id. Returns the
    /// failed operations.
    fn round(&mut self, heap: &Tracked) -> u64 {
        (0..THREADS)
            .map(|cpu| {
                numa::set_current_cpu(cpu);
                batch(heap, &mut self.rngs[cpu], &mut self.live[cpu])
            })
            .sum()
    }
}

/// One timed pass (tracing per `mode`). A request is one round of both
/// clients' batches: the two clients' batch latencies form two clusters,
/// and the median of a half-and-half mix jumps between them. The clients
/// take turns on one thread: run concurrently on a 2-CPU host, every cached
/// call of both moves the heap's shared operation counters between the
/// cores, and throughput then follows where the host places its CPUs
/// (6.7 or 11 M ops/s from run to run) rather than the frontend's code.
pub fn run(plan: &Plan, mode: Mode) -> Outcome {
    let mut out = Outcome { classes: CLASSES, ops_per_request: ROUND_OPS, ..Outcome::default() };
    let mut bench = None;
    for _ in 0..plan.setups {
        drop(bench.take());
        let start = Instant::now();
        bench = Some(setup(plan.seed));
        out.setup_s.push(secs(start));
    }
    let Bench { dev, heap } = bench.expect("at least one set-up");

    heap.reset_contention();
    trace::set_mode(mode);
    let clock = Clock::start(plan);
    let runs = run_clients(
        &clock,
        1,
        (plan.windows, 1),
        |_| Clients::new(plan.seed),
        |clients| {
            let _op = span(Kind::OpRound);
            (0, clients.round(&heap))
        },
        |_| {},
    );
    trace::set_mode(Mode::Off);
    out.wall_s = clock.elapsed_s();
    out.window_s = clock.window_s();
    out.absorb(runs);
    out.locks = heap.contention_profile();
    out.check_no_leak(heap.heap(), "after the run");
    // The batches' working set: what the clients may hold live at once.
    out.resident_per_live = dev.resident_bytes() as f64 / (THREADS * BATCH) as f64 / SIZE as f64;
    out.notes.push(format!(
        "micro-256: {} sub-heaps of {} KiB user space, {} B blocks",
        heap.heap().layout().num_subheaps(),
        heap.heap().layout().user_size >> 10,
        SIZE
    ));
    reopen_empty(&dev, heap, config(), plan, mode, &mut out);
    out
}

/// The exact-counter pass: the same turn-taking batches, counted.
pub fn count(plan: &Plan) -> Counts {
    let Bench { heap, .. } = setup(plan.seed);
    let mut clients = Clients::new(plan.seed);
    let mut counts = count_pass(&heap, COUNT_ROUNDS, |_| clients.round(&heap));
    counts.requests *= ROUND_OPS;
    counts
}
