//! `crashfuzz` — randomized crash-recovery fuzzing for the Poseidon stack.
//!
//! Each iteration drives a random allocator workload — small-block
//! alloc/free (through the transient magazine cache), cached-path churn
//! bursts, huge-path (extent allocator) alloc/free, transactional
//! allocation both below and beyond the sub-heap cap, plus optional
//! `ptx` transactions — injects a device crash at a random mutation
//! event anywhere in its ops (the cut is drawn below the case's op count
//! times the arm's measured mean of events per op), in strict or
//! adversarial mode, recovers, and audits every structural invariant,
//! including the huge region's extent-table tiling and the
//! cache-residency invariant (every block the DRAM
//! cache held at the crash must still be media-FREE after recovery).
//! With `--poison`, uncorrectable media errors are armed alongside the
//! crash point (the default, `--grow` and `--maint` arms draw it below
//! the case's op count times the arm's measured mean of ranged stores
//! per op): every case must then end in either a successful load
//! whose quarantine accounting matches the audit (and whose fresh
//! allocations never overlap a poisoned line), or a clean typed
//! `MediaError` — never a panic, never silent reuse of poisoned blocks.
//! Any failure prints the reproducing seed.
//!
//! With `--poison-live`, no crash is armed at all: poison strikes
//! repeatedly *while the heap is serving*, exercising the online
//! self-healing path (undo-logged abort, live quarantine, allocation
//! failover, budgeted scrubber ticks). Every case must end with
//! quarantine accounting that balances, no poisoned block re-allocated,
//! the cache purged of every condemned sub-heap's blocks, and the
//! quarantine verdicts surviving a crash + reload.
//!
//! With `--grow`, online pool growths interleave with the workload on a
//! growable device while the crash is armed: the layout-epoch commit is
//! the atomicity point under test. After the power cycle the recovered
//! epoch chain must contain every growth that reported success — plus
//! at most the one in flight — the pool must audit clean on the
//! recovered geometry, and it must keep serving *and keep growing*.
//! Composes with `--poison`.
//!
//! With `--maint`, the heap is pre-fragmented and budgeted maintenance
//! steps (`maint_step`) interleave with the traffic while the crash is
//! armed, so the power cut lands at every maintenance-unit commit point
//! — mid buddy merge, mid table shrink, mid cache trim. After recovery
//! the block accounting and extent tiling must audit clean (no block
//! both coalesced and live), and driving maintenance to convergence on
//! the recovered heap must retire every remaining mergeable pair.
//! Composes with `--poison` and `--grow`.
//!
//! With `--full-home`, every case first fills sub-heap 0 from CPU 0 (a
//! greedy power-of-two descent) and loads its cache, so the armed
//! workload runs on a full home: the crash lands in the cached spill's refill into the next
//! sub-heap's transfer pool, in frees into that pool and the drains when
//! it overflows, and — on one-sub-heap draws — in the last-resort cache
//! eviction. The cache-residency invariant is checked as in the default
//! arm.
//!
//! With `--threads 2`, two workers, each on its own CPU id, run the
//! default arm's op mix against one heap and free each other's
//! allocations through per-worker hand-off lists. The power cut is armed
//! once both workers are past a few warm-up ops, and both run until it
//! lands, so it lands with both in flight: each thread's flushes and
//! fences are its own, and recovery must hold under every interleaving. The case seed fixes each worker's op stream but not the
//! interleaving, so a failure names the seed and the case, and a rerun
//! may need several tries to hit it again. The case ends in the default
//! arm's power cycle and checks. Composes with `--poison`.
//!
//! Each arm is its op weights plus its own checks: the ops the arms share
//! are one helper each, and every crash arm ends in the same power cycle
//! ([`power_cycle`], then [`still_serving`]).
//!
//! ```text
//! crashfuzz [--iters N] [--seed S] [--tx] [--poison] [--poison-live] [--grow] [--maint] [--full-home]
//!           [--threads 2]
//! ```

use std::process::ExitCode;
use std::sync::{Arc, Barrier, Mutex};

use pmem::{CrashMode, DeviceConfig, PmemDevice};
use poseidon::{HeapConfig, HugeAudit, NvmPtr, PoseidonError, PoseidonHeap, RecoveryReport, SubheapAudit};
use ptx::{PtxError, PtxPool};

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound
    }
}

fn main() -> ExitCode {
    let mut iters = 200u64;
    let mut seed = 0x5EED_F00Du64;
    let mut with_tx = false;
    let mut with_poison = false;
    let mut poison_live = false;
    let mut with_grow = false;
    let mut with_maint = false;
    let mut full_home = false;
    let mut with_threads = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--iters" => iters = args.next().and_then(|v| v.parse().ok()).unwrap_or(iters),
            "--seed" => seed = args.next().and_then(|v| v.parse().ok()).unwrap_or(seed),
            "--tx" => with_tx = true,
            "--poison" => with_poison = true,
            "--poison-live" => poison_live = true,
            "--grow" => with_grow = true,
            "--maint" => with_maint = true,
            "--full-home" => full_home = true,
            "--threads" => match args.next().as_deref() {
                Some("2") => with_threads = true,
                _ => return usage("--threads takes the worker count 2"),
            },
            other => return usage(&format!("unknown argument {other}")),
        }
    }
    println!(
        "crashfuzz: {iters} iterations, seed {seed}, tx={with_tx}, poison={with_poison}, \
         live={poison_live}, grow={with_grow}, maint={with_maint}, full_home={full_home}, threads={with_threads}"
    );
    let mut rng = Rng(seed | 1);
    let mut media_failures = 0u64;
    for iteration in 0..iters {
        let case_seed = rng.next();
        let result = if poison_live {
            run_live_case(case_seed)
        } else if with_maint {
            run_maint_case(case_seed, with_poison, with_grow)
        } else if with_grow {
            run_grow_case(case_seed, with_poison)
        } else if full_home {
            run_full_home_case(case_seed)
        } else if with_threads {
            run_threads_case(case_seed, with_poison)
        } else {
            run_case(case_seed, with_tx, with_poison)
        };
        match result {
            Ok(outcome) => {
                if matches!(outcome, CaseOutcome::TypedMediaFailure) {
                    media_failures += 1;
                }
            }
            Err(why) => {
                eprintln!("crashfuzz: FAILURE at iteration {iteration}, case seed {case_seed}: {why}");
                return ExitCode::from(1);
            }
        }
        if iteration % 25 == 24 {
            println!("  {}/{iters} cases clean", iteration + 1);
        }
    }
    if poison_live {
        println!("crashfuzz: all {iters} live-poison cases self-healed cleanly");
    } else if with_maint {
        println!(
            "crashfuzz: all {iters} maintenance cases recovered cleanly \
             ({media_failures} ended in a typed media error)"
        );
    } else if with_grow {
        println!(
            "crashfuzz: all {iters} grow cases recovered to a consistent epoch chain \
             ({media_failures} ended in a typed media error)"
        );
    } else if full_home {
        println!("crashfuzz: all {iters} full-home cases recovered cleanly");
    } else if with_threads {
        println!(
            "crashfuzz: all {iters} two-worker cases recovered cleanly \
             ({media_failures} ended in a typed media error)"
        );
    } else if with_poison {
        println!(
            "crashfuzz: all {iters} cases handled cleanly ({media_failures} ended in a typed media error)"
        );
    } else {
        println!("crashfuzz: all {iters} cases recovered cleanly");
    }
    ExitCode::SUCCESS
}

fn usage(why: &str) -> ExitCode {
    eprintln!("crashfuzz: {why}");
    eprintln!(
        "usage: crashfuzz [--iters N] [--seed S] [--tx] [--poison] [--poison-live] \
         [--grow] [--maint] [--full-home] [--threads 2]"
    );
    ExitCode::from(2)
}

/// How a fuzz case ended: full recovery, or a *typed* media-error failure
/// (acceptable under `--poison` when the poison landed on state the heap
/// cannot rebuild online, e.g. the superblock).
enum CaseOutcome {
    Recovered,
    TypedMediaFailure,
}

/// The batched-persistence ordering invariant (see `poseidon::undo`'s
/// module docs): log entries are fenced durable *before* any target
/// store of the operation is issued. So if the crash tore the entry
/// chain — fewer entries survived to media than were logged — the fence
/// cannot have run, and every logged target must still hold its logged
/// pre-image.
fn check_undo_ordering(
    dev: &PmemDevice,
    layout: &poseidon::HeapLayout,
    logged: &[Option<Vec<poseidon::fuzz::UndoChainEntry>>],
) -> Result<(), String> {
    let surviving = poseidon::fuzz::undo_chains(dev, layout);
    for (area, (before, after)) in logged.iter().zip(&surviving).enumerate() {
        let (Some(before), Some(after)) = (before, after) else { continue };
        // Survivors are a validated prefix of the logged chain; an equal
        // length means every entry made it (nothing to conclude), and a
        // chain already empty pre-crash means no operation was in flight.
        if before.is_empty() || after.len() >= before.len() {
            continue;
        }
        // Compare each target against the *first* entry covering it —
        // later same-target entries log intermediate staged values.
        let mut claimed: Vec<(u64, u64)> = Vec::new();
        for entry in before {
            let (start, end) = (entry.target, entry.target + entry.old.len() as u64);
            if claimed.iter().any(|&(s, e)| start < e && s < end) {
                continue;
            }
            claimed.push((start, end));
            let mut now = vec![0u8; entry.old.len()];
            if dev.read(entry.target, &mut now).is_err() {
                continue; // target line itself poisoned: unreadable
            }
            if now != entry.old {
                return Err(format!(
                    "undo area {area}: crash tore the log ({} of {} entries survived) \
                     yet target {:#x} was mutated before its entry was durable",
                    after.len(),
                    before.len(),
                    entry.target
                ));
            }
        }
    }
    Ok(())
}

/// Why a workload stopped before its last op.
enum Stop {
    /// An op hit a device error: the armed power cut fired. The live arm
    /// arms none, so there it is a failure.
    Cut(String),
    /// A check failed.
    Fail(String),
}

/// The power cut as a [`Stop`].
fn cut(op: &str, error: pmem::PmemError) -> Stop {
    Stop::Cut(format!("{op}: device error {error}"))
}

/// A crash arm's workload runs until the power cut; only a failed check
/// fails the case.
fn until_cut(workload: Result<(), Stop>) -> Result<(), String> {
    match workload {
        Err(Stop::Fail(why)) => Err(why),
        Ok(()) | Err(Stop::Cut(_)) => Ok(()),
    }
}

/// Maps a background or growth call's error: a device error is the power
/// cut, a media error is routine under `--poison`, anything else fails.
fn tolerate<T>(op: &str, result: Result<T, PoseidonError>, with_poison: bool) -> Result<(), Stop> {
    match result {
        Ok(_) => Ok(()),
        Err(PoseidonError::Device(e)) => Err(cut(op, e)),
        Err(PoseidonError::MediaError { .. }) if with_poison => Ok(()),
        Err(e) => Err(Stop::Fail(format!("{op}: {e}"))),
    }
}

/// Keeps a fresh allocation; failures other than a device error are
/// routine (space, quarantine, the huge region's size).
fn keep(op: &str, result: Result<NvmPtr, PoseidonError>, live: &mut Vec<NvmPtr>) -> Result<(), Stop> {
    match result {
        Ok(p) => live.push(p),
        Err(PoseidonError::Device(e)) => return Err(cut(op, e)),
        Err(_) => {}
    }
    Ok(())
}

/// A small allocation of 1..=8192 bytes.
fn small_alloc(heap: &PoseidonHeap, rng: &mut Rng, live: &mut Vec<NvmPtr>) -> Result<(), Stop> {
    keep("alloc", heap.alloc(1 + rng.below(8192)), live)
}

/// A huge-path allocation (extent allocator) of up to `range` bytes past
/// the sub-heap cap. TooLarge is routine: the region may be exhausted or
/// (on one-sub geometries) smaller than the cap.
fn huge_alloc(heap: &PoseidonHeap, rng: &mut Rng, live: &mut Vec<NvmPtr>, range: u64) -> Result<(), Stop> {
    keep("huge", heap.alloc(heap.layout().max_alloc() + 1 + rng.below(range)), live)
}

/// Frees `p`; failures other than a device error are routine.
fn free(heap: &PoseidonHeap, p: NvmPtr) -> Result<(), Stop> {
    match heap.free(p) {
        Err(PoseidonError::Device(e)) => Err(cut("free", e)),
        _ => Ok(()),
    }
}

/// Frees a random live pointer, small or huge alike (the heap routes by
/// the sub-heap sentinel).
fn random_free(heap: &PoseidonHeap, rng: &mut Rng, live: &mut Vec<NvmPtr>) -> Result<(), Stop> {
    if live.is_empty() {
        return Ok(());
    }
    let index = rng.below(live.len() as u64) as usize;
    free(heap, live.swap_remove(index))
}

/// A transactional allocation, kept only if it commits.
fn tx_alloc(heap: &PoseidonHeap, live: &mut Vec<NvmPtr>, size: u64, commit: bool) -> Result<(), Stop> {
    match heap.tx_alloc(size, commit) {
        Ok(p) if commit => live.push(p),
        Ok(_) => {}
        Err(PoseidonError::Device(e)) => return Err(cut("tx", e)),
        Err(_) => {
            let _ = heap.tx_abort();
        }
    }
    Ok(())
}

/// Cached-path churn: same-size alloc/free pairs drive the magazine fast
/// path (refill, hits, park) so crashes land while blocks are
/// cache-withdrawn in every state, and growths re-home mid-flight
/// magazines.
fn cached_churn(heap: &PoseidonHeap, rng: &mut Rng) -> Result<(), Stop> {
    let size = 1 + rng.below(4096);
    for _ in 0..rng.below(12) + 1 {
        match heap.alloc(size) {
            Ok(p) => free(heap, p)?,
            Err(PoseidonError::Device(e)) => return Err(cut("alloc", e)),
            Err(_) => break,
        }
    }
    Ok(())
}

/// Online growth by a random MiB-granular step of up to `max_step_mib`,
/// clamped to the device ceiling. Small steps extend only the huge band;
/// larger ones materialise whole sub-heaps. Returns whether a growth
/// committed.
fn grow(
    heap: &PoseidonHeap,
    dev: &PmemDevice,
    rng: &mut Rng,
    max_step_mib: u64,
    with_poison: bool,
) -> Result<bool, Stop> {
    let target = (heap.layout().capacity() + ((1 + rng.below(max_step_mib)) << 20)).min(dev.max_capacity());
    if target <= heap.layout().capacity() {
        return Ok(false); // already at the ceiling
    }
    match heap.grow(target) {
        Ok(report) if report.new_capacity != target => {
            Err(Stop::Fail(format!("grow reported capacity {} for a grow to {target}", report.new_capacity)))
        }
        Ok(_) => Ok(true),
        Err(PoseidonError::BadGeometry(_)) => Ok(false), // step too small for a band page
        result => tolerate("grow", result, with_poison).map(|()| false),
    }
}

/// What a crash arm's power cycle recovered.
struct Recovered {
    heap: Arc<PoseidonHeap>,
    audits: Vec<(u16, SubheapAudit)>,
    recovery: RecoveryReport,
    frozen: Vec<u16>,
    huge: Option<HugeAudit>,
}

/// The power cycle every crash arm ends with: disarm, snapshot every undo
/// area's entry chain, crash in a drawn mode (half strict, half
/// adversarial; poisoned lines survive, like real media errors survive a
/// reboot), check the undo ordering, reload, audit the sub-heaps and the
/// huge region, and check the huge region is available unless recovery
/// quarantined it. `Ok(None)` is a typed media failure on reload —
/// acceptable under `--poison` when the poison landed on state the heap
/// cannot rebuild online (e.g. the superblock); any other failure, and
/// any panic, is a bug.
fn power_cycle(
    dev: &Arc<PmemDevice>,
    heap: Arc<PoseidonHeap>,
    rng: &mut Rng,
    with_poison: bool,
    reload: HeapConfig,
) -> Result<Option<Recovered>, String> {
    dev.disarm_crash();
    dev.disarm_poison();
    let layout = heap.layout().clone();
    drop(heap);

    // Reads see all pre-crash stores, so this is exactly what a crashed
    // operation managed to log.
    let logged_chains = poseidon::fuzz::undo_chains(dev, &layout);
    let mode = if rng.below(2) == 0 { CrashMode::Strict } else { CrashMode::Adversarial };
    dev.simulate_crash(mode, rng.next());
    check_undo_ordering(dev, &layout, &logged_chains)?;

    let heap = match PoseidonHeap::load(dev.clone(), reload) {
        Ok(heap) => Arc::new(heap),
        Err(PoseidonError::MediaError { .. }) if with_poison => return Ok(None),
        Err(e) => return Err(format!("load: {e}")),
    };
    // Block accounting must be clean: a block both coalesced into its
    // buddy and still reachable would double-claim offsets. The huge
    // audit errors unless the extent table is a sorted, page-granular,
    // eagerly-coalesced tiling of the recovered data region.
    let audits = heap.audit().map_err(|e| format!("post-recovery audit: {e}"))?;
    let recovery = heap.recovery_report();
    let frozen = heap.quarantined_subheaps();
    let huge = heap.huge_audit().map_err(|e| format!("post-recovery huge audit: {e}"))?;
    if heap.layout().huge_data_size() > 0 && !recovery.huge_region_quarantined && huge.is_none() {
        return Err("huge region unavailable without being quarantined".into());
    }
    Ok(Some(Recovered { heap, audits, recovery, frozen, huge }))
}

/// The recovered heap must still serve allocations, and never hand out
/// memory overlapping a poisoned line. Refusing is acceptable only when
/// poison froze every sub-heap (the failover loop exhausts the sub-heap
/// set and types it).
fn still_serving(dev: &PmemDevice, r: &Recovered, with_poison: bool) -> Result<(), String> {
    match r.heap.alloc(64) {
        Ok(p) => {
            let raw = r.heap.raw_offset(p).map_err(|e| format!("raw_offset: {e}"))?;
            if let Some(range) = dev.scrub().iter().find(|range| range.overlaps(raw, 64)) {
                return Err(format!(
                    "fresh allocation at {raw:#x} overlaps poisoned line at {:#x}",
                    range.offset
                ));
            }
            r.heap.free(p).map_err(|e| format!("post-recovery free: {e}"))
        }
        Err(PoseidonError::AllFailed { .. } | PoseidonError::SubheapQuarantined { .. })
            if with_poison && r.frozen.len() == r.heap.layout().num_subheaps() as usize =>
        {
            Ok(())
        }
        Err(e) => Err(format!("post-recovery alloc: {e}")),
    }
}

/// The cache-residency invariant, checked after a power cycle: a block the
/// DRAM cache held at the crash instant (`cache_withdrawn`, taken just
/// before it) must be media-FREE — it can never resurface as a live
/// allocation, because the cached path issues no persistent stores.
/// `block_size` succeeds only for ALLOC records (the reloaded heap's cache
/// starts empty), so success here means the invariant broke.
fn check_cache_residency(r: &Recovered, heap_id: u64, cache_withdrawn: &[(u16, u64)]) -> Result<(), String> {
    for &(sub, offset) in cache_withdrawn {
        if r.frozen.contains(&sub) {
            continue; // wholesale quarantine froze the sub-heap's records as-is
        }
        if let Ok(size) = r.heap.block_size(NvmPtr::new(heap_id, sub, offset)) {
            return Err(format!(
                "cache-withdrawn block (sub {sub}, offset {offset:#x}) survived the \
                 crash as a live {size}-byte allocation"
            ));
        }
    }
    Ok(())
}

/// One `--poison-live` case: poison fires repeatedly *during* live
/// operations with no crash armed, so every uncorrectable error must be
/// absorbed online. Ends by checking the self-healing invariants and
/// that the quarantine verdicts survive a power cycle.
fn run_live_case(case_seed: u64) -> Result<CaseOutcome, String> {
    let mut rng = Rng(case_seed | 1);
    let dev = Arc::new(PmemDevice::new(DeviceConfig::new(64 << 20)));
    let heap = Arc::new(
        PoseidonHeap::create(dev.clone(), HeapConfig::new().with_subheaps(2 + rng.below(3) as u16))
            .map_err(|e| format!("create: {e}"))?,
    );

    // Several poison salvos, each landing mid-operation somewhere in the
    // workload. Device errors are impossible without an armed crash, so
    // any `Device` escape is a self-healing bug, as is a panic.
    let mut live: Vec<NvmPtr> = Vec::new();
    for round in 0..4u64 {
        dev.arm_poison_after(1 + rng.below(150), rng.next() ^ round);
        let salvo = (0..rng.below(120) + 30).try_for_each(|_| match rng.below(10) {
            0..=4 => small_alloc(&heap, &mut rng, &mut live),
            5..=6 => random_free(&heap, &mut rng, &mut live),
            7 => {
                let commit = rng.below(2) == 0;
                tx_alloc(&heap, &mut live, 1 + rng.below(512), commit)
            }
            8 => huge_alloc(&heap, &mut rng, &mut live, 2 << 20),
            // Budgeted scrubber tick: promotes latent poison to
            // quarantine before a user thread trips on it.
            _ => heap
                .scrub_step(1 + rng.below(8) as usize)
                .map(drop)
                .map_err(|e| Stop::Fail(format!("scrub_step: {e}"))),
        });
        salvo.map_err(|stop| match stop {
            Stop::Cut(why) => format!("live {why}"),
            Stop::Fail(why) => why,
        })?;
        dev.disarm_poison();
    }

    // A full scrub pass drains whatever poison the workload never touched.
    heap.scrub_step(usize::MAX).map_err(|e| format!("final scrub: {e}"))?;

    // Invariant 1 — quarantine accounting balances: the health report's
    // frozen count is the live set, every counted media error was
    // attributed, and the structural audit of the surviving sub-heaps
    // (which re-derives quarantined blocks from the tables) passes.
    let health = heap.health();
    let frozen = heap.quarantined_subheaps();
    if health.quarantined_subheaps as usize != frozen.len() {
        return Err(format!(
            "health reports {} quarantined sub-heaps, live set has {}",
            health.quarantined_subheaps,
            frozen.len()
        ));
    }
    heap.audit().map_err(|e| format!("post-workload audit: {e}"))?;

    // Invariant 2 — the cache holds nothing from a condemned sub-heap.
    for &(sub, offset) in &heap.cache_snapshot() {
        if frozen.contains(&sub) {
            return Err(format!(
                "cache still holds block (sub {sub}, offset {offset:#x}) of a condemned sub-heap"
            ));
        }
    }

    // Invariant 3 — no poisoned block is ever handed out again.
    for _ in 0..32 {
        let size = 1 + rng.below(4096);
        match heap.alloc(size) {
            Ok(p) => {
                let raw = heap.raw_offset(p).map_err(|e| format!("raw_offset: {e}"))?;
                for range in dev.scrub() {
                    if range.overlaps(raw, size) {
                        return Err(format!(
                            "post-heal allocation at {raw:#x} overlaps poisoned line at {:#x}",
                            range.offset
                        ));
                    }
                }
                live.push(p);
            }
            Err(PoseidonError::AllFailed { .. }) if frozen.len() == heap.layout().num_subheaps() as usize => {
                break;
            }
            Err(PoseidonError::NoSpace { .. } | PoseidonError::MediaError { .. }) => {}
            Err(e) => return Err(format!("post-heal alloc: {e}")),
        }
    }

    // Invariant 4 — the verdicts are persistent: a crash + reload sees
    // exactly the same frozen set, and the heap still audits clean.
    drop(heap);
    dev.simulate_crash(
        if rng.below(2) == 0 { CrashMode::Strict } else { CrashMode::Adversarial },
        rng.next(),
    );
    let heap = match PoseidonHeap::load(dev.clone(), HeapConfig::new()) {
        Ok(heap) => heap,
        Err(PoseidonError::MediaError { .. }) => return Ok(CaseOutcome::TypedMediaFailure),
        Err(e) => return Err(format!("reload: {e}")),
    };
    let refrozen = heap.quarantined_subheaps();
    for sub in &frozen {
        if !refrozen.contains(sub) {
            return Err(format!("sub-heap {sub} lost its quarantine verdict across the power cycle"));
        }
    }
    heap.audit().map_err(|e| format!("post-reload audit: {e}"))?;
    Ok(CaseOutcome::Recovered)
}

/// One `--grow` case: online growths interleave with small, cached, and
/// huge allocator traffic on a growable device while a crash is armed at
/// a random mutation event. The single two-fence epoch commit is the
/// atomicity point under test: after the power cycle the recovered chain
/// must hold every growth that reported success plus at most the one in
/// flight (rolled back by the superblock undo replay or completed by
/// recovery, never half-applied), the pool must audit clean on whichever
/// geometry it recovered to, and it must keep serving and keep growing.
fn run_grow_case(case_seed: u64, with_poison: bool) -> Result<CaseOutcome, String> {
    let mut rng = Rng(case_seed | 1);
    let dev = Arc::new(PmemDevice::new(DeviceConfig::new(24 << 20).growable_to(256 << 20)));
    let heap = Arc::new(
        PoseidonHeap::create(dev.clone(), HeapConfig::new().with_subheaps(1 + rng.below(2) as u16))
            .map_err(|e| format!("create: {e}"))?,
    );

    let ops = rng.below(100) + 20;
    dev.arm_crash_after(rng.below(ops * GROW_EVENTS_PER_OP));
    if with_poison {
        dev.arm_poison_after(1 + rng.below(ops * GROW_STORES_PER_OP), rng.next());
    }
    // Growths that returned Ok: their epochs are durably committed and
    // must survive the power cycle verbatim.
    let mut grows_ok = 0usize;
    let mut live: Vec<NvmPtr> = Vec::new();
    until_cut((0..ops).try_for_each(|_| match rng.below(12) {
        0..=4 => small_alloc(&heap, &mut rng, &mut live),
        5..=6 => random_free(&heap, &mut rng, &mut live),
        7..=8 => huge_alloc(&heap, &mut rng, &mut live, 4 << 20),
        9 => cached_churn(&heap, &mut rng),
        _ => grow(&heap, &dev, &mut rng, 48, with_poison).map(|grew| grows_ok += usize::from(grew)),
    }))?;

    let Some(r) = power_cycle(&dev, heap, &mut rng, with_poison, HeapConfig::new())? else {
        return Ok(CaseOutcome::TypedMediaFailure);
    };

    // Epoch-chain consistency: every acknowledged growth survived, at
    // most one unacknowledged growth (the one in flight at the crash)
    // may have reached its commit point, and the recovered layout fits
    // the device (which may be longer — growing the device is durable
    // before the epoch commit, by design). The power cycle's audits ran
    // on the recovered geometry, so a torn growth's band extension was
    // completed by recovery.
    let chain = r.heap.layout().epoch_count();
    let expected_min = 1 + grows_ok;
    if chain < expected_min {
        return Err(format!(
            "epoch chain has {chain} epochs after recovery but {grows_ok} growths were acknowledged"
        ));
    }
    if chain > expected_min + 1 {
        return Err(format!(
            "epoch chain has {chain} epochs after recovery, more than the {grows_ok} acknowledged \
             growths plus one in flight"
        ));
    }
    if r.heap.layout().capacity() > dev.capacity() {
        return Err(format!(
            "recovered layout claims {} bytes on a {}-byte device",
            r.heap.layout().capacity(),
            dev.capacity()
        ));
    }

    still_serving(&dev, &r, with_poison)?;
    // And still growing: a recovered pool below the ceiling must accept
    // a further growth and serve from it.
    let target = r.heap.layout().capacity() + (8 << 20);
    if target <= dev.max_capacity() {
        match r.heap.grow(target) {
            Ok(report) => {
                if report.new_capacity != target || r.heap.layout().capacity() != target {
                    return Err(format!(
                        "post-recovery grow to {target} left capacity {}",
                        r.heap.layout().capacity()
                    ));
                }
            }
            Err(PoseidonError::MediaError { .. }) if with_poison => {}
            Err(e) => return Err(format!("post-recovery grow: {e}")),
        }
    }
    Ok(CaseOutcome::Recovered)
}

/// One maintenance crash-consistency case: pre-fragment the heap so the
/// engine has real debt to retire, then let budgeted `maint_step` calls
/// dominate the armed window (interleaved with allocator traffic, and
/// growths under `--grow`) so the power cut lands at maintenance-unit
/// commit points — mid buddy merge, mid table shrink, mid cache trim.
/// After the power cycle the heap must audit clean — block accounting
/// and extent tiling both, so no block can be both coalesced into its
/// buddy and still live — and driving maintenance to convergence on the
/// recovered heap must retire every remaining mergeable pair.
fn run_maint_case(case_seed: u64, with_poison: bool, with_grow: bool) -> Result<CaseOutcome, String> {
    let mut rng = Rng(case_seed | 1);
    let device_config = if with_grow {
        DeviceConfig::new(24 << 20).growable_to(256 << 20)
    } else {
        DeviceConfig::new(64 << 20)
    };
    let dev = Arc::new(PmemDevice::new(device_config));
    // Half the cases run uncached so freed buddies land straight on the
    // persistent free lists (guaranteed coalescing debt); the other half
    // keep magazines so the trim/evict unit is exercised too.
    let uncached = rng.below(2) == 0;
    let mut heap_config = HeapConfig::new().with_subheaps(1 + rng.below(2) as u16);
    if uncached {
        heap_config = heap_config.without_cache();
    }
    let heap = Arc::new(PoseidonHeap::create(dev.clone(), heap_config).map_err(|e| format!("create: {e}"))?);

    // Build coalescing debt before arming: a mixed-class checkerboard
    // whose odd half is freed leaves mergeable buddy pairs in several
    // classes for the engine to chew through once the crash is armed.
    let mut live: Vec<NvmPtr> = Vec::new();
    for i in 0u64..192 {
        let p = heap.alloc(32 + (i % 4) * 32).map_err(|e| format!("pre-fragment alloc: {e}"))?;
        if i % 2 == 0 {
            live.push(p);
        } else {
            heap.free(p).map_err(|e| format!("pre-fragment free: {e}"))?;
        }
    }

    let ops = rng.below(120) + 30;
    let (events_per_op, stores_per_op) = if uncached {
        (MAINT_UNCACHED_EVENTS_PER_OP, MAINT_UNCACHED_STORES_PER_OP)
    } else {
        (MAINT_CACHED_EVENTS_PER_OP, MAINT_CACHED_STORES_PER_OP)
    };
    dev.arm_crash_after(rng.below(ops * events_per_op));
    if with_poison {
        dev.arm_poison_after(1 + rng.below(ops * stores_per_op), rng.next());
    }
    until_cut((0..ops).try_for_each(|_| match rng.below(10) {
        // Maintenance dominates the armed window so the crash lands at a
        // unit commit point more often than not.
        0..=4 => tolerate("maint_step", heap.maint_step(1 + rng.below(4) as usize), with_poison),
        5..=6 => small_alloc(&heap, &mut rng, &mut live),
        7 => random_free(&heap, &mut rng, &mut live),
        8 => huge_alloc(&heap, &mut rng, &mut live, 2 << 20),
        _ if with_grow => grow(&heap, &dev, &mut rng, 32, with_poison).map(drop),
        // Full convergence mid-traffic: marks pressure, so subsequent
        // maint_steps take the aggressive path.
        _ => tolerate("defragment", heap.defragment(), with_poison),
    }))?;

    let mut reload = HeapConfig::new();
    if uncached {
        reload = reload.without_cache();
    }
    let Some(r) = power_cycle(&dev, heap, &mut rng, with_poison, reload)? else {
        return Ok(CaseOutcome::TypedMediaFailure);
    };

    // Maintenance must converge on the recovered heap: repeated budgeted
    // steps retire every remaining mergeable pair, however the crash
    // interleaved with the engine.
    let mut converged = false;
    for _ in 0..10_000 {
        match r.heap.maint_step(1 + rng.below(8) as usize) {
            Ok(step) if step.fully_defragged => {
                converged = true;
                break;
            }
            Ok(_) => {}
            Err(PoseidonError::MediaError { .. }) if with_poison => {
                return Ok(CaseOutcome::TypedMediaFailure)
            }
            Err(e) => return Err(format!("post-recovery maint_step: {e}")),
        }
    }
    if !converged {
        return Err("maintenance failed to converge on the recovered heap".into());
    }
    match r.heap.fragmentation() {
        Ok(report) => {
            if report.frag_bytes() != 0 {
                return Err(format!(
                    "converged heap still owes {} bytes of coalescing debt",
                    report.frag_bytes()
                ));
            }
        }
        Err(PoseidonError::MediaError { .. }) if with_poison => return Ok(CaseOutcome::TypedMediaFailure),
        Err(e) => return Err(format!("post-recovery fragmentation: {e}")),
    }
    r.heap.audit().map_err(|e| format!("post-maintenance audit: {e}"))?;

    // Still serving after convergence.
    still_serving(&dev, &r, with_poison)?;
    Ok(CaseOutcome::Recovered)
}

/// Allocates `size`-byte blocks into `held` until one spills out of
/// sub-heap 0 (that block is freed again at once, so the next sub-heap
/// keeps its room) or fails.
fn fill_with(heap: &PoseidonHeap, size: u64, held: &mut Vec<NvmPtr>) -> Result<(), String> {
    loop {
        match heap.alloc(size) {
            Ok(p) if p.subheap() == 0 => held.push(p),
            Ok(p) => return heap.free(p).map_err(|e| format!("fill free: {e}")),
            Err(PoseidonError::NoSpace { .. }) => return Ok(()),
            Err(e) => return Err(format!("fill alloc of {size}: {e}")),
        }
    }
}

/// Fills sub-heap 0 from CPU 0 by a greedy power-of-two descent, largest
/// size first, and leaves its cache loaded: a 256 KiB reserve taken
/// before the descent comes back afterwards as cached 4 KiB blocks, freed
/// into CPU 0's magazine and the home's pool, where only an eviction
/// reaches them. Returns the blocks that stay allocated in sub-heap 0.
fn fill_home(heap: &PoseidonHeap) -> Result<Vec<NvmPtr>, String> {
    pmem::numa::set_current_cpu(0);
    let reserve = heap.alloc(256 << 10).map_err(|e| format!("fill reserve: {e}"))?;
    let mut held = Vec::new();
    let mut size = heap.layout().max_alloc();
    while size >= poseidon::MIN_BLOCK {
        fill_with(heap, size, &mut held)?;
        size /= 2;
    }
    heap.free(reserve).map_err(|e| format!("fill free: {e}"))?;
    let mut cached = Vec::new();
    fill_with(heap, 4096, &mut cached)?;
    for p in cached {
        heap.free(p).map_err(|e| format!("fill free: {e}"))?;
    }
    Ok(held)
}

/// A burst of same-size cached allocations, then their frees: on a full
/// home the burst refills the next sub-heap's transfer pool, and the
/// frees overflow that pool into drains.
fn spill_burst(heap: &PoseidonHeap, rng: &mut Rng) -> Result<(), Stop> {
    let size = 1 + rng.below(4096);
    let mut burst = Vec::new();
    for _ in 0..rng.below(300) + 1 {
        keep("burst alloc", heap.alloc(size), &mut burst)?;
    }
    burst.into_iter().try_for_each(|p| free(heap, p))
}

/// One `--full-home` case: sub-heap 0 is filled before the crash is armed,
/// then small, burst and churn traffic from CPU 0 runs on the full home
/// until the power cut. After recovery the cache-residency invariant must
/// hold and the heap must still serve.
fn run_full_home_case(case_seed: u64) -> Result<CaseOutcome, String> {
    let mut rng = Rng(case_seed | 1);
    let dev = Arc::new(PmemDevice::new(DeviceConfig::new(64 << 20)));
    let heap = Arc::new(
        PoseidonHeap::create(dev.clone(), HeapConfig::new().with_subheaps(1 + rng.below(3) as u16))
            .map_err(|e| format!("create: {e}"))?,
    );
    let mut live = fill_home(&heap)?;

    // The armed workload runs some 10k-160k mutation events: spread the
    // crash over all of it.
    dev.arm_crash_after(rng.below(60_000));
    until_cut((0..rng.below(80) + 10).try_for_each(|_| match rng.below(10) {
        0..=3 => small_alloc(&heap, &mut rng, &mut live),
        4..=5 => random_free(&heap, &mut rng, &mut live),
        6..=8 => spill_burst(&heap, &mut rng),
        _ => cached_churn(&heap, &mut rng),
    }))?;
    let heap_id = heap.heap_id();
    let cache_withdrawn = heap.cache_snapshot();

    let Some(r) = power_cycle(&dev, heap, &mut rng, false, HeapConfig::new())? else {
        return Err("typed media failure without --poison".into());
    };
    check_cache_residency(&r, heap_id, &cache_withdrawn)?;
    still_serving(&dev, &r, false)?;
    Ok(CaseOutcome::Recovered)
}

/// Mean device mutation events (stores, flushes, fences, punches) one op
/// of the default arm's mix issues. Each crash arm draws its cut below
/// its op count times its mean, so the cut can land in any op of the case,
/// not only its first few. Measured by counting every mutation event of
/// the armed ops, with no cut armed, over the `50 314159 --tx` and
/// `50 161803` rows (4,921 ops: 56.4 and 52.7 events an op).
const EVENTS_PER_OP: u64 = 55;
/// [`EVENTS_PER_OP`] for the `--grow` arm's mix, measured the same way
/// over the `50 314159 --grow` row (3,673 ops: 106.1 events an op).
const GROW_EVENTS_PER_OP: u64 = 105;
/// [`EVENTS_PER_OP`] for the `--maint` arm's mix on a cached heap and on
/// an uncached one, measured the same way over the `50 314159 --maint`
/// row (2,258 ops: 166.0 events an op; 2,367 ops: 10.1).
const MAINT_CACHED_EVENTS_PER_OP: u64 = 165;
const MAINT_UNCACHED_EVENTS_PER_OP: u64 = 10;
/// Mean ranged stores (writes and read-modify-writes, the events the
/// device's poison countdown counts; flushes and fences do not) one op of
/// the default arm's mix issues. Each arm armed with `--poison` draws its
/// poison point below its op count times its mean, so the poison can land
/// in any op of the case. Measured from the device's write-op counter
/// across the armed ops, with neither a cut nor poison armed, over the
/// `50 314159 --tx` and `50 161803` rows (4,921 ops: 36.6 and 35.5 stores
/// an op).
const STORES_PER_OP: u64 = 36;
/// [`STORES_PER_OP`] for the `--grow` arm's mix, measured the same way
/// over the `50 314159 --grow` row (3,673 ops: 60.5 stores an op).
const GROW_STORES_PER_OP: u64 = 60;
/// [`STORES_PER_OP`] for the `--maint` arm's mix on a cached heap and on
/// an uncached one, measured the same way over the `50 314159 --maint`
/// row (2,258 ops: 92.7 stores an op; 2,367 ops: 5.0).
const MAINT_CACHED_STORES_PER_OP: u64 = 90;
const MAINT_UNCACHED_STORES_PER_OP: u64 = 5;

fn run_case(case_seed: u64, with_tx: bool, with_poison: bool) -> Result<CaseOutcome, String> {
    let mut rng = Rng(case_seed | 1);
    let dev = Arc::new(PmemDevice::new(DeviceConfig::new(64 << 20)));
    let heap = Arc::new(
        PoseidonHeap::create(dev.clone(), HeapConfig::new().with_subheaps(1 + rng.below(3) as u16))
            .map_err(|e| format!("create: {e}"))?,
    );
    let pool =
        if with_tx { Some(PtxPool::create(heap.clone()).map_err(|e| format!("pool: {e}"))?) } else { None };

    // Random workload with a random crash point anywhere in it, and
    // (under --poison) a random media-fault point that poisons recently
    // written lines.
    let max_alloc = heap.layout().max_alloc();
    let ops = rng.below(80) + 10;
    dev.arm_crash_after(rng.below(ops * EVENTS_PER_OP));
    if with_poison {
        dev.arm_poison_after(1 + rng.below(ops * STORES_PER_OP), rng.next());
    }
    let mut live: Vec<NvmPtr> = Vec::new();
    until_cut((0..ops).try_for_each(|_| match rng.below(11) {
        0..=4 => small_alloc(&heap, &mut rng, &mut live),
        5..=6 => random_free(&heap, &mut rng, &mut live),
        7 => {
            // tx_alloc, randomly committed, occasionally beyond the
            // sub-heap cap so the spanning huge+micro scope is hit.
            let commit = rng.below(2) == 0;
            let size =
                if rng.below(6) == 0 { max_alloc + 1 + rng.below(1 << 20) } else { 1 + rng.below(512) };
            tx_alloc(&heap, &mut live, size, commit)
        }
        8 => huge_alloc(&heap, &mut rng, &mut live, 4 << 20),
        9 => cached_churn(&heap, &mut rng),
        _ => match &pool {
            Some(pool) => {
                let result = pool.run(|tx| {
                    let a = tx.alloc(1 + rng.below(256))?;
                    tx.write_pod(a, 0, &case_seed)?;
                    if rng.below(3) == 0 {
                        return Err(PtxError::Aborted("fuzz abort".into()));
                    }
                    tx.set_root(a)?;
                    Ok(())
                });
                match result {
                    Err(PtxError::Heap(PoseidonError::Device(e))) => Err(cut("ptx", e)),
                    _ => Ok(()),
                }
            }
            None => Ok(()),
        },
    }))?;
    // Snapshot what the transient cache is holding at the moment of the
    // "power cut": magazine/pool residents and checked-out allocations
    // alike. All of them are persistently FREE by construction (the fast
    // path never touches media), and recovery must return every one to
    // the free lists.
    let heap_id = heap.heap_id();
    let cache_withdrawn = heap.cache_snapshot();
    drop(pool);

    let Some(r) = power_cycle(&dev, heap, &mut rng, with_poison, HeapConfig::new())? else {
        return Ok(CaseOutcome::TypedMediaFailure);
    };
    check_recovery_books(&dev, &r, with_poison)?;
    check_cache_residency(&r, heap_id, &cache_withdrawn)?;

    if with_tx && !r.heap.root().map_err(|e| format!("root: {e}"))?.is_null() {
        match PtxPool::open(r.heap.clone()) {
            Ok(pool) => {
                let _ = pool.recovery_report();
            }
            // The root object's own lines may be the poisoned ones.
            Err(PtxError::Heap(
                PoseidonError::MediaError { .. } | PoseidonError::SubheapQuarantined { .. },
            )) if with_poison => {}
            Err(e) => return Err(format!("ptx open: {e}")),
        }
    }

    still_serving(&dev, &r, with_poison)?;
    Ok(CaseOutcome::Recovered)
}

/// The default arm's recovery bookkeeping: the recovery report's
/// wholesale quarantine count matches the frozen sub-heap set, the audits
/// see at least the block quarantine recovery claims (frees before the
/// crash may have quarantined more) — in the huge region too — and
/// without `--poison` no media damage is reported at all.
fn check_recovery_books(dev: &PmemDevice, r: &Recovered, with_poison: bool) -> Result<(), String> {
    if r.recovery.subheaps_quarantined as usize != r.frozen.len() {
        return Err(format!(
            "recovery reports {} wholesale-quarantined sub-heaps but {} are frozen",
            r.recovery.subheaps_quarantined,
            r.frozen.len()
        ));
    }
    let audited_quarantined: u64 = r.audits.iter().map(|(_, a)| a.quarantined_bytes).sum();
    if audited_quarantined < r.recovery.bytes_quarantined {
        return Err(format!(
            "audit sees {audited_quarantined} quarantined bytes, recovery quarantined {}",
            r.recovery.bytes_quarantined
        ));
    }
    if let Some(huge) = &r.huge {
        if huge.quarantined_bytes < r.recovery.huge_bytes_quarantined {
            return Err(format!(
                "huge audit sees {} quarantined bytes, recovery quarantined {}",
                huge.quarantined_bytes, r.recovery.huge_bytes_quarantined
            ));
        }
    }
    if !with_poison && (r.recovery.media_damage_detected() || dev.poisoned_lines() > 0) {
        return Err("media damage reported without --poison".into());
    }
    Ok(())
}

/// One worker of a `--threads` case: the default arm's op mix from its
/// own seed, with the ptx slot replaced by a cross-thread hand-off — one
/// of its allocations goes to the next worker's mailbox, and everything
/// in its own mailbox (allocated by the previous worker) is freed here.
/// Runs `WARM_OPS` ops, meets the other workers and the arming thread at
/// `warmed`, then runs until the power cut (or `WORKER_OPS` more ops).
fn worker(
    heap: &PoseidonHeap,
    mailboxes: &[Mutex<Vec<NvmPtr>>],
    me: usize,
    seed: u64,
    warmed: &Barrier,
) -> Result<(), Stop> {
    const WARM_OPS: u64 = 3;
    const WORKER_OPS: u64 = 5_000;
    let mut rng = Rng(seed | 1);
    let max_alloc = heap.layout().max_alloc();
    let mut live: Vec<NvmPtr> = Vec::new();
    let mut op = |rng: &mut Rng| match rng.below(11) {
        0..=4 => small_alloc(heap, rng, &mut live),
        5..=6 => random_free(heap, rng, &mut live),
        7 => {
            let commit = rng.below(2) == 0;
            let size =
                if rng.below(6) == 0 { max_alloc + 1 + rng.below(1 << 20) } else { 1 + rng.below(512) };
            tx_alloc(heap, &mut live, size, commit)
        }
        8 => huge_alloc(heap, rng, &mut live, 4 << 20),
        9 => cached_churn(heap, rng),
        _ => {
            if !live.is_empty() {
                let handed = live.swap_remove(rng.below(live.len() as u64) as usize);
                mailboxes[(me + 1) % mailboxes.len()].lock().expect("mailbox").push(handed);
            }
            let received = std::mem::take(&mut *mailboxes[me].lock().expect("mailbox"));
            received.into_iter().try_for_each(|p| free(heap, p))
        }
    };
    let warm = (0..WARM_OPS).try_for_each(|_| op(&mut rng));
    warmed.wait();
    warm?;
    (0..WORKER_OPS).try_for_each(|_| op(&mut rng))
}

/// Workers of a `--threads` case.
const WORKERS: usize = 2;

/// One `--threads` case: two workers on CPUs 0 and 1 run until the power
/// cut, armed once both are past their warm-up ops; then the default
/// arm's power cycle and checks.
fn run_threads_case(case_seed: u64, with_poison: bool) -> Result<CaseOutcome, String> {
    let mut rng = Rng(case_seed | 1);
    let dev = Arc::new(PmemDevice::new(DeviceConfig::new(64 << 20)));
    let heap = Arc::new(
        PoseidonHeap::create(dev.clone(), HeapConfig::new().with_subheaps(1 + rng.below(3) as u16))
            .map_err(|e| format!("create: {e}"))?,
    );
    let seeds: [u64; WORKERS] = std::array::from_fn(|_| rng.next());
    let mailboxes: [Mutex<Vec<NvmPtr>>; WORKERS] = std::array::from_fn(|_| Mutex::new(Vec::new()));
    let warmed = Barrier::new(WORKERS + 1);
    let outcomes: Vec<Result<(), Stop>> = std::thread::scope(|s| {
        let workers: Vec<_> = seeds
            .iter()
            .enumerate()
            .map(|(cpu, &seed)| {
                let (heap, mailboxes, warmed) = (&heap, &mailboxes, &warmed);
                s.spawn(move || {
                    pmem::numa::set_current_cpu(cpu);
                    worker(heap, mailboxes, cpu, seed, warmed)
                })
            })
            .collect();
        // Armed once both workers are past their warm-up and running
        // again. An op averages some 70 mutation events, so the cut lands
        // a few dozen ops in, with both workers in flight.
        warmed.wait();
        dev.arm_crash_after(rng.below(4_000));
        if with_poison {
            dev.arm_poison_after(1 + rng.below(3_000), rng.next());
        }
        workers
            .into_iter()
            .map(|w| w.join().unwrap_or_else(|_| Err(Stop::Fail("worker panicked".into()))))
            .collect()
    });
    for outcome in outcomes {
        until_cut(outcome)?;
    }
    let heap_id = heap.heap_id();
    let cache_withdrawn = heap.cache_snapshot();

    let Some(r) = power_cycle(&dev, heap, &mut rng, with_poison, HeapConfig::new())? else {
        return Ok(CaseOutcome::TypedMediaFailure);
    };
    check_recovery_books(&dev, &r, with_poison)?;
    check_cache_residency(&r, heap_id, &cache_withdrawn)?;
    still_serving(&dev, &r, with_poison)?;
    Ok(CaseOutcome::Recovered)
}
