//! Integration tests for the persistent KV service contract (the
//! scenario the `kvserve` soak gate runs continuously): acknowledged
//! writes survive a kill at *any* point, reopen cost is a function of
//! metadata — not of how much data the service has accumulated — and
//! one soak run rides out kill, media poison, and online growth
//! back-to-back.
//!
//! The service durability contract under test: the heap runs uncached
//! (`without_cache()`), so every allocation is committed on media when
//! `alloc` returns; each value carries a 16-byte checksummed payload
//! persisted *before* the tree insert that publishes it; and the tree
//! root is anchored into a heap-rooted directory block before any new
//! root becomes visible. An operation is "acknowledged" only once the
//! insert returns — and from that point it must survive power loss.

use std::sync::Arc;
use std::time::{Duration, Instant};

use pmem::{CrashMode, DeviceConfig, PmemDevice};
use poseidon::{HeapConfig, PoseidonHeap};
use workloads::fastfair::FastFair;
use workloads::kvserve::{run_soak, EventReport, KvServeConfig, SoakEvent};
use workloads::PersistentAllocator;

const DIR_MAGIC: u64 = 0x4B56_5345_5256_4531;
const VALUE_SALT: u64 = 0x9E37_79B9_7F4A_7C15;
const VALUE_SIZE: u64 = 100;

fn service_config() -> HeapConfig {
    // Uncached: the service durability contract needs every alloc
    // committed at return, not parked in a DRAM magazine.
    HeapConfig::new().with_subheaps(2).without_cache()
}

/// Creates the service state on a fresh device: one tree, its root
/// anchored (via the anchor-before-visible hook) in a directory block
/// that the heap root points at.
fn create_service(dev: &Arc<PmemDevice>) -> (Arc<PoseidonHeap>, FastFair<PoseidonHeap>) {
    let heap = Arc::new(PoseidonHeap::create(dev.clone(), service_config()).expect("create heap"));
    let dir = PersistentAllocator::alloc(&*heap, 16).expect("directory alloc");
    dev.write_pod(dir, &DIR_MAGIC).expect("directory magic");
    let mut tree = FastFair::new(heap.clone()).expect("tree root alloc");
    dev.write_pod(dir + 8, &tree.root_offset()).expect("anchor initial root");
    dev.persist(dir, 16).expect("persist directory");
    install_hook(dev, &mut tree, dir + 8);
    let root = heap.nvmptr_of(dir).expect("directory pointer");
    heap.set_root(root).expect("anchor directory");
    (heap, tree)
}

/// Reopens the service from a crashed device: heap recovery, then the
/// tree from its anchored root.
fn open_service(dev: &Arc<PmemDevice>) -> (Arc<PoseidonHeap>, FastFair<PoseidonHeap>) {
    let heap = Arc::new(PoseidonHeap::load(dev.clone(), service_config()).expect("recovery load"));
    let root = heap.root().expect("heap root");
    assert!(!root.is_null(), "recovered heap lost its root anchor");
    let dir = heap.raw_offset(root).expect("resolve directory");
    let magic: u64 = dev.read_pod(dir).expect("directory magic");
    assert_eq!(magic, DIR_MAGIC, "directory block corrupt after recovery");
    let anchored: u64 = dev.read_pod(dir + 8).expect("anchored root");
    let mut tree = FastFair::open(heap.clone(), anchored);
    install_hook(dev, &mut tree, dir + 8);
    (heap, tree)
}

/// Anchor-before-visible, best-effort on a crashed device (once the
/// device has failed every mutation errors out anyway, so a missed
/// anchor can never be observed by a later reader).
fn install_hook(dev: &Arc<PmemDevice>, tree: &mut FastFair<PoseidonHeap>, slot: u64) {
    let dev = dev.clone();
    tree.on_root_change(Box::new(move |root| {
        if dev.write_pod(slot, &root).is_ok() {
            let _ = dev.persist(slot, 8);
        }
    }));
}

/// Allocates, fills, persists, and publishes one checksummed value;
/// returns false if the device crashed mid-operation (the key is then
/// *not* acknowledged). The tree layer treats device failure mid-write
/// as fatal and panics — for this test that panic *is* the process
/// dying at the power cut, so it is caught and mapped to "not acked".
fn insert_value(heap: &Arc<PoseidonHeap>, tree: &FastFair<PoseidonHeap>, key: u64) -> bool {
    insert_value_sized(heap, tree, key, VALUE_SIZE)
}

/// [`insert_value`] with an explicit allocation size (the verified
/// payload stays the first 16 bytes regardless).
fn insert_value_sized(heap: &Arc<PoseidonHeap>, tree: &FastFair<PoseidonHeap>, key: u64, size: u64) -> bool {
    let dev = heap.device().clone();
    let Ok(off) = PersistentAllocator::alloc(&**heap, size) else { return false };
    if dev.write_pod(off, &key).is_err()
        || dev.write_pod(off + 8, &(key ^ VALUE_SALT)).is_err()
        || dev.persist(off, 16).is_err()
    {
        return false;
    }
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| tree.insert(key, off).is_ok())).unwrap_or(false)
}

/// Asserts `key` is present with an intact payload.
fn verify_value(dev: &Arc<PmemDevice>, tree: &FastFair<PoseidonHeap>, key: u64) {
    let off = tree.get(key).unwrap_or_else(|| panic!("acknowledged key lost: {key:#x}"));
    let stored: u64 = dev.read_pod(off).expect("payload read");
    let check: u64 = dev.read_pod(off + 8).expect("checksum read");
    assert_eq!(stored, key, "payload corrupt for key {key:#x}");
    assert_eq!(check, key ^ VALUE_SALT, "checksum corrupt for key {key:#x}");
}

/// Kills the service mid-traffic at an arbitrary device-event count and
/// proves every *acknowledged* key survives with its payload intact —
/// then resumes service on the recovered heap and re-verifies.
#[test]
fn kill_and_resume_preserves_acknowledged_inserts() {
    for seed in 0..6u64 {
        let dev = Arc::new(PmemDevice::new(DeviceConfig::new(64 << 20)));
        let (heap, tree) = create_service(&dev);

        // Acknowledge a warm base population before arming the crash.
        let mut acked: Vec<u64> = Vec::new();
        for key in 0..64u64 {
            assert!(insert_value(&heap, &tree, key), "warm insert must succeed");
            acked.push(key);
        }

        // Crash at a seed-varied point inside ongoing traffic. Each
        // value insert costs hundreds of device events, so this sweeps
        // crash points from mid-insert to deep into the batch.
        dev.arm_crash_after(300 + seed * 709);
        for key in 64..4096u64 {
            if !insert_value(&heap, &tree, key) {
                break; // crashed mid-op: key never acknowledged
            }
            acked.push(key);
        }
        assert!(dev.is_crashed(), "seed {seed}: the armed crash never fired");
        dev.disarm_crash();
        drop(tree);
        drop(heap); // no close(): this models power loss
        dev.simulate_crash(CrashMode::Strict, seed);

        // Recovery: every acknowledged key present and intact.
        let (heap, tree) = open_service(&dev);
        assert!(tree.len() >= acked.len() as u64, "tree lost acknowledged keys");
        for &key in &acked {
            verify_value(&dev, &tree, key);
        }

        // Service resumes: new writes land and old ones stay.
        for key in 10_000..10_200u64 {
            assert!(insert_value(&heap, &tree, key), "post-recovery insert failed");
            acked.push(key);
        }
        for &key in &acked {
            verify_value(&dev, &tree, key);
        }
        heap.audit().expect("post-resume audit");
    }
}

/// One reopen: kill (drop without close + power cycle), recover the
/// heap, reopen the tree, touch one key. Returns the wall-clock cost.
fn timed_reopen(
    dev: &Arc<PmemDevice>,
    heap: Arc<PoseidonHeap>,
    tree: FastFair<PoseidonHeap>,
    probe: u64,
) -> (Arc<PoseidonHeap>, FastFair<PoseidonHeap>, Duration) {
    drop(tree);
    drop(heap);
    dev.simulate_crash(CrashMode::Strict, 7);
    let start = Instant::now();
    let (heap, tree) = open_service(dev);
    let reopen = start.elapsed();
    verify_value(dev, &tree, probe);
    (heap, tree, reopen)
}

/// Reopen latency is O(metadata), not O(data): recovery replays
/// fixed-size logs and scans the block table, but never walks value
/// bytes. So holding the block count — and with it every table and
/// free-list recovery touches — constant while growing each value 16x
/// (16x the data bytes on media) must leave the reopen cost flat.
/// (Scaling the *block count* instead grows the table itself, which
/// recovery legitimately scans; data bytes are what recovery must
/// never read.)
#[test]
fn reopen_time_scales_with_metadata_not_data() {
    let population = 2_000u64;
    let mut medians = Vec::new();
    for value_size in [100u64, 1_600] {
        let dev = Arc::new(PmemDevice::new(DeviceConfig::new(128 << 20)));
        let (mut heap, mut tree) = create_service(&dev);
        for key in 0..population {
            assert!(insert_value_sized(&heap, &tree, key, value_size), "load insert must succeed");
        }
        let mut times = Vec::new();
        for _ in 0..5 {
            let (h, t, reopen) = timed_reopen(&dev, heap, tree, population / 2);
            heap = h;
            tree = t;
            times.push(reopen);
        }
        times.sort();
        medians.push(times[times.len() / 2]);
    }
    let (small, large) = (medians[0], medians[1]);
    // Identical metadata, 16x the data: reopen must not follow the
    // data. The ratio bound leaves room for allocator-class effects and
    // scheduler noise; the absolute slack absorbs timer jitter when
    // both medians are small.
    assert!(
        large <= small * 3 + Duration::from_millis(5),
        "reopen cost followed data bytes: {small:?} with 100 B values vs {large:?} with 1600 B \
         values at equal population"
    );
}

/// The full soak contract in one run: mixed traffic over 4 shards rides
/// out a kill-and-resume, live media poison, and an online grow, and the
/// report's cross-cutting invariants (ack ledger, histogram totals,
/// quarantine balance, event trace) all hold.
#[test]
fn soak_survives_kill_poison_and_grow() {
    let config = KvServeConfig::new(4, 4, 1_500, 3_000)
        .with_events(vec![SoakEvent::Kill, SoakEvent::Poison, SoakEvent::Grow])
        .with_capacity(64 << 20, 256 << 20);
    let report = run_soak(&config);
    // run_soak already asserted its invariants; re-assert the headline
    // service guarantees explicitly so this test documents them.
    assert_eq!(report.ops, 12_000);
    assert_eq!(report.population, report.loaded + report.inserted);
    let mut saw_kill = false;
    for event in &report.events {
        match event {
            EventReport::Kill { reopen, .. } => {
                saw_kill = true;
                assert!(reopen < &Duration::from_secs(5), "reopen took {reopen:?}");
            }
            EventReport::Poison { keys, .. } => assert!(*keys > 0, "poison event found no targets"),
            EventReport::Grow { old_capacity, new_capacity, .. } => {
                assert!(new_capacity > old_capacity, "grow event did not grow");
            }
        }
    }
    assert!(saw_kill);
}

/// Maintenance-engine soak comparison: two identical update-heavy runs
/// (same seed, same traffic), one with maintenance ticks in the
/// coordinator loop and one without. The engine must leave the heap
/// *measurably less fragmented* (free bytes outside each class's
/// largest coalescable run, summed), and its ticks must do work during
/// the soak, each within its budget.
/// Frees on this heap never coalesce inline — merging is maintenance
/// work, or the alloc path's own when a class runs dry — so the off run
/// accumulates unmerged buddy pairs that the on run retires.
#[test]
fn soak_maintenance_lowers_steady_state_fragmentation() {
    let base = |maint: usize| {
        // value_spread 2: value sizes ramp from 2 KiB through three buddy
        // classes over the run, and near-uniform updates (theta 0.01)
        // free the outgrown blocks of every key, never reallocated — the
        // freed buddies pile up side by side as coalescing debt. 1,400
        // keys fill the eight sub-heaps far enough that the debt passes
        // the engine's watermark (a quarter of the sub-heap free bytes)
        // mid-soak, so ticks step the engine while clients run. Half the
        // ops update, so only the last few allocations reach the ramp's
        // third class, whose misses make the alloc path merge on demand.
        let mut config = KvServeConfig::new(2, 2, 1_400, 2_000)
            .with_events(vec![])
            .with_capacity(96 << 20, 96 << 20)
            .with_value_spread(2)
            .with_maint(maint);
        config.value_size = 2048;
        config.theta = 0.01;
        config.update_permille = 500; // churn: every update frees the old value
        config.intervals = 16; // a fragmentation sample (and watermark refresh) per 250 ops
        config
    };
    let off = run_soak(&base(0));
    let on = run_soak(&base(8));

    // Equal throughput: same seed, same op budget, both runs completed.
    assert_eq!(off.ops, on.ops, "runs diverged in completed ops");
    assert_eq!(off.health.maint_steps, 0, "maint_budget=0 must disable the engine");
    assert!(on.health.maint_merges > 0, "engine stepped but never coalesced anything");

    // Maintenance must not wreck the serving tail: no tick spends more
    // than its budget, so none holds a sub-heap lock across a full
    // defrag. `run_soak` checks every tick's step as it returns (at most
    // `maint_budget` committed operations and buddy merges) and panics on
    // the first that overspends. That check ran: the quiesce after the
    // soak takes at most two steps (one unbudgeted cycle merges every
    // pair, cascading, and the next finds nothing), so any further step
    // was a tick that stepped the engine mid-soak.
    assert!(on.health.maint_steps > 2, "no maintenance tick stepped the engine mid-soak: {:?}", on.health);

    // The headline guarantee: final steady-state fragmentation strictly
    // lower with the engine on. (The off run's churn leaves unmerged
    // buddies behind, so its figure is necessarily positive.)
    let frag_off = off.fragmentation.last().expect("off run sampled fragmentation").frag_bytes;
    let frag_on = on.fragmentation.last().expect("on run sampled fragmentation").frag_bytes;
    assert!(frag_off > 0, "maintenance-off run ended with nothing to coalesce");
    assert!(frag_on < frag_off, "maintenance did not lower fragmentation: {frag_on} on vs {frag_off} off");
}
