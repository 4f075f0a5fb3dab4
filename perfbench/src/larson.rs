//! larson-spill: Larson's server churn on the 64-sub-heap bench device.
//! Clients replace random slots of a shared array (free whatever is
//! there, often another client's block, then allocate 8–512 B). The
//! slot array holds about 1.5× what the clients' two home sub-heaps can,
//! so allocation keeps running out of home space: it goes through the
//! transfer pools, refills and drains, then the home-full path (merge
//! below, evict the sub-heap's cache, spill round-robin).
//!
//! The two clients take turns on one thread, each request under its own
//! CPU id, so a seed fixes the request stream and the heap state it leads
//! to. The heap's speed drifts until the slots have turned over, so the
//! device is the smallest that holds 64 sub-heaps (1.9 MiB of user space
//! each; the slots turn over in about ten seconds), and the timed phase is
//! cut into replicas, each on a fresh set-up from a seed of its own.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use pmem::{numa, DeviceConfig, PmemDevice};
use poseidon::{class_for_size, HeapConfig, PoseidonHeap};
use workloads::{PersistentAllocator, Xorshift};

use crate::common::{
    count_pass, reopen_empty, run_clients, secs, topology, Clock, Counts, Outcome, Plan, THREADS,
};
use crate::trace::{self, span, Kind, Mode, Tracked};

const MIN_SIZE: u64 = 8;
const MAX_SIZE: u64 = 512;
const SUBHEAPS: u16 = 64;
const CAPACITY: u64 = 512 << 20;
/// Replacements of the exact-counter pass.
const COUNT_OPS: u64 = 2_000;

pub const CLASSES: &[&str] = &["replace"];

/// Live set over the clients' combined home capacity.
fn live_factor(plan: &Plan) -> f64 {
    if plan.tiny {
        0.25
    } else {
        1.5
    }
}

fn config() -> HeapConfig {
    HeapConfig::new().with_subheaps(SUBHEAPS)
}

/// Mean block size a uniform 8..512 B request occupies.
fn mean_block() -> f64 {
    let total: u64 = (MIN_SIZE..MAX_SIZE).map(|s| class_for_size(s).expect("nonzero size").1).sum();
    total as f64 / (MAX_SIZE - MIN_SIZE) as f64
}

fn rng_for(seed: u64, cpu: usize) -> Xorshift {
    Xorshift::new(seed ^ (cpu as u64 + 1).wrapping_mul(0xABCD_EF01))
}

fn draw_size(rng: &mut Xorshift) -> u64 {
    MIN_SIZE + rng.below(MAX_SIZE - MIN_SIZE)
}

/// A slot: the block it holds (0 = empty) and that block's size.
#[derive(Default, Clone, Copy)]
struct Slot {
    offset: u64,
    bytes: u64,
}

struct Bench {
    dev: Arc<PmemDevice>,
    heap: Arc<Tracked>,
    slots: Vec<Mutex<Slot>>,
}

/// Replaces the block in `slot`; returns the failed operations.
fn replace(heap: &Tracked, slot: &Mutex<Slot>, size: u64) -> u64 {
    let mut failed = 0;
    let mut s = slot.lock().expect("slot lock poisoned by a panicking client");
    if s.offset != 0 && heap.free(s.offset).is_err() {
        failed += 1;
    }
    *s = match heap.alloc(size) {
        Ok(offset) => Slot { offset, bytes: class_for_size(size).expect("nonzero size").1 },
        Err(_) => {
            failed += 1;
            Slot::default()
        }
    };
    failed
}

/// Fills the slots, the clients taking turns: slot `i` is filled by
/// client `i % THREADS` under its CPU id.
fn setup(plan: &Plan) -> Bench {
    let dev = Arc::new(PmemDevice::new(DeviceConfig::bench(CAPACITY).with_topology(topology())));
    let heap = Tracked::new(PoseidonHeap::create(dev.clone(), config()).expect("create larson-spill heap"));
    let home = heap.heap().layout().user_size * THREADS as u64;
    let n = (home as f64 * live_factor(plan) / mean_block()) as usize;
    let slots: Vec<Mutex<Slot>> = (0..n).map(|_| Mutex::new(Slot::default())).collect();
    let mut rngs: Vec<Xorshift> = (0..THREADS).map(|t| rng_for(plan.seed ^ 0x5EED, t)).collect();
    for (i, slot) in slots.iter().enumerate() {
        let t = i % THREADS;
        numa::set_current_cpu(t);
        assert_eq!(replace(&heap, slot, draw_size(&mut rngs[t])), 0, "larson-spill preload failed");
    }
    Bench { dev, heap, slots }
}

/// The two clients' replacement streams, taking turns.
struct Clients {
    rngs: Vec<Xorshift>,
    turn: usize,
}

impl Clients {
    fn new(seed: u64) -> Clients {
        Clients { rngs: (0..THREADS).map(|t| rng_for(seed, t)).collect(), turn: 0 }
    }

    /// The next client's replacement, under its CPU id. Returns the failed
    /// operations.
    fn replace_next(&mut self, heap: &Tracked, slots: &[Mutex<Slot>]) -> u64 {
        let t = self.turn;
        self.turn = (t + 1) % THREADS;
        numa::set_current_cpu(t);
        let rng = &mut self.rngs[t];
        let slot = &slots[rng.below(slots.len() as u64) as usize];
        let size = draw_size(rng);
        replace(heap, slot, size)
    }
}

/// One timed pass (tracing per `mode`): `plan.setups` replicas, each a
/// fresh set-up (timed for `setup_s`) from its own seed and an equal
/// share of the timed phase, logged as one window. Every replica is
/// drained, audited and put through the crash-and-reopen cycles.
pub fn run(plan: &Plan, mode: Mode) -> Outcome {
    let mut out = Outcome { classes: CLASSES, ops_per_request: 1, ..Outcome::default() };
    for r in 0..plan.setups {
        let replica = Plan {
            seed: plan.seed ^ (r as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            seconds: plan.seconds / plan.setups as f64,
            windows: 1,
            ..*plan
        };
        let start = Instant::now();
        let Bench { dev, heap, slots } = setup(&replica);
        out.setup_s.push(secs(start));

        heap.reset_contention();
        trace::set_mode(mode);
        let clock = Clock::start(&replica);
        let runs = run_clients(
            &clock,
            1,
            (1, 1),
            |_| Clients::new(replica.seed),
            |clients| {
                let _op = span(Kind::OpReplace);
                (0, clients.replace_next(&heap, &slots))
            },
            |_| {},
        );
        trace::set_mode(Mode::Off);
        out.wall_s += clock.elapsed_s();
        out.window_s = clock.window_s();
        out.absorb(runs);
        out.locks = heap.contention_profile();

        let live: u64 = slots.iter().map(|s| s.lock().expect("slot lock poisoned").bytes).sum();
        out.resident_per_live = dev.resident_bytes() as f64 / live.max(1) as f64;
        if r == 0 {
            let layout = heap.heap().layout();
            out.notes.push(format!(
                "larson-spill: {} slots, {:.1} MiB live over {} sub-heaps of {:.1} MiB user space",
                slots.len(),
                live as f64 / (1u64 << 20) as f64,
                layout.num_subheaps(),
                layout.user_size as f64 / (1u64 << 20) as f64
            ));
        }

        // Drain every slot, then the audit must find nothing allocated.
        numa::set_current_cpu(0);
        for slot in &slots {
            let s = *slot.lock().expect("slot lock poisoned");
            if s.offset != 0 {
                out.attempted += 1;
                if heap.free(s.offset).is_err() {
                    out.fail(format!("drain: free of {:#x} failed", s.offset));
                }
            }
        }
        out.check_no_leak(heap.heap(), "after the drain");
        reopen_empty(&dev, heap, config(), &replica, mode, &mut out);
    }
    out
}

/// The exact-counter pass: the same turn-taking replacements, counted.
pub fn count(plan: &Plan) -> Counts {
    let Bench { heap, slots, .. } = setup(plan);
    let mut clients = Clients::new(plan.seed);
    count_pass(&heap, COUNT_OPS, |_| clients.replace_next(&heap, &slots))
}
