//! Robustness tests: a corrupted or hostile pool image must never panic
//! the loader — every failure mode is a clean `Err`. Also verifies the
//! §5.6 claim that unused metadata is returned to the device. The
//! `online_` tests cover live self-healing: quarantine racing the cached
//! front-end, and bulk media faults injected under concurrent load.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use platform::check::{check, Config};
use platform::sync::Mutex;
use pmem::{CrashMode, DeviceConfig, NumaTopology, PmemDevice};
use poseidon::{HeapConfig, NvmPtr, PoseidonError, PoseidonHeap};
use workloads::Xorshift;

fn build_pool() -> Arc<PmemDevice> {
    let dev = Arc::new(PmemDevice::new(DeviceConfig::new(64 << 20)));
    let heap = PoseidonHeap::create(dev.clone(), HeapConfig::new().with_subheaps(2)).unwrap();
    let mut live = Vec::new();
    for i in 0..50u64 {
        live.push(heap.alloc(32 + i * 17).unwrap());
    }
    for p in live.iter().step_by(2) {
        heap.free(*p).unwrap();
    }
    heap.set_root(live[1]).unwrap();
    heap.close().unwrap();
    dev
}

/// Loading may fail (`Err`) or succeed; succeeding implies the audit ran
/// or failed cleanly — nothing may panic.
fn try_load(dev: Arc<PmemDevice>) {
    if let Ok(heap) = PoseidonHeap::load(dev, HeapConfig::new()) {
        let _ = heap.audit();
        let _ = heap.alloc(64);
        let _ = heap.root();
    }
}

#[test]
fn byte_flips_in_metadata_never_panic() {
    check("byte_flips_in_metadata_never_panic", Config::cases(24), |g| {
        let flips = g.vec(1..24, |g| (g.u64(0..4 << 20), g.any_u8()));
        let dev = build_pool();
        // The attacker/bit-rot writes (simulating at-rest corruption of
        // the pool file) go to a fresh device no heap has tagged, so MPK
        // lets every one of them land.
        let raw = PmemDevice::new(DeviceConfig::new(64 << 20));
        // Copy the image across (reads are unprotected).
        let mut buf = vec![0u8; 1 << 20];
        let mut off = 0;
        while off < dev.capacity() {
            let len = buf.len().min((dev.capacity() - off) as usize);
            dev.read(off, &mut buf[..len]).unwrap();
            raw.write(off, &buf[..len]).unwrap();
            off += len as u64;
        }
        for (offset, value) in flips {
            raw.write(offset, &[value]).unwrap();
        }
        try_load(Arc::new(raw));
    });
}

#[test]
fn log_area_corruption_never_panics() {
    check("log_area_corruption_never_panics", Config::cases(24), |g| {
        let flips = g.vec(1..16, |g| (g.u64(0..0x12000), g.any_u8()));
        // Target the sub-heap 0 header/log area specifically (the part
        // recovery parses), after an interrupted operation.
        let dev = Arc::new(PmemDevice::new(DeviceConfig::new(64 << 20)));
        {
            let heap = PoseidonHeap::create(dev.clone(), HeapConfig::new().with_subheaps(2)).unwrap();
            let _ = heap.alloc(4096).unwrap();
            dev.arm_crash_after(12);
            let _ = heap.alloc(64);
            dev.disarm_crash();
        }
        dev.simulate_crash(pmem::CrashMode::Strict, 5);
        // The dropped heap untagged its metadata, so the flips pass MPK.
        let meta0 = 64 * 1024u64; // SB_REGION_SIZE
        for (offset, value) in flips {
            dev.write(meta0 + offset, &[value]).unwrap();
        }
        try_load(dev);
    });
}

#[test]
fn undo_and_micro_log_byte_flips_never_panic() {
    check("undo_and_micro_log_byte_flips_never_panic", Config::cases(32), |g| {
        // Target the log regions specifically: the sub-heap undo log lives
        // at meta + [0x1000, 0x11000) and the micro log at
        // meta + [0x11000, 0x15000) — the exact bytes recovery parses and
        // replays. Whole-pool sampling (above) rarely lands here.
        let flips = g.vec(1..16, |g| (g.u64(0x1000..0x15000), g.any_u8()));
        let dev = Arc::new(PmemDevice::new(DeviceConfig::new(64 << 20)));
        let meta_size;
        {
            let heap = PoseidonHeap::create(dev.clone(), HeapConfig::new().with_subheaps(2)).unwrap();
            meta_size = heap.layout().meta_size;
            // Leave both an open transaction and an interrupted operation
            // so the logs are non-empty when the flips land.
            let _ = heap.tx_alloc(128, false).unwrap();
            dev.arm_crash_after(10);
            let _ = heap.alloc(64);
            dev.disarm_crash();
        }
        dev.simulate_crash(pmem::CrashMode::Strict, 7);
        // The dropped heap untagged its metadata, so the flips pass MPK.
        let sb_region = 64 * 1024u64; // SB_REGION_SIZE
        for (offset, value) in flips {
            for sub in 0..2u64 {
                dev.write(sb_region + sub * meta_size + offset, &[value]).unwrap();
            }
        }
        try_load(dev);
    });
}

#[test]
fn unused_hash_levels_are_punched_back() {
    // §5.6: grow the table by allocating a dense population of minimum-
    // size blocks, then free + defragment; the emptied upper levels must
    // be returned to the device (resident bytes drop).
    let dev = Arc::new(PmemDevice::new(DeviceConfig::new(128 << 20)));
    let heap = PoseidonHeap::create(dev.clone(), HeapConfig::new().with_subheaps(1)).unwrap();

    let mut live = Vec::new();
    while let Ok(p) = heap.alloc(32) {
        live.push(p);
        if live.len() >= 12_000 {
            break;
        }
    }
    let grown = heap.audit().unwrap()[0].1.active_levels;
    assert!(grown > 1, "table never grew (got {} blocks)", live.len());
    let resident_peak = dev.resident_bytes();

    for p in live {
        heap.free(p).unwrap();
    }
    let merges = heap.defragment().unwrap();
    assert!(merges > 0);
    let audit = heap.audit().unwrap()[0].1;
    assert_eq!(audit.active_levels, 1, "upper levels not deactivated");
    // The punched levels are zero-filled and their fully-covered backing
    // chunks returned (for this table size the levels are smaller than a
    // backing chunk, so we assert no growth here; full dematerialisation
    // is covered by pmem's punch_hole tests at chunk scale).
    assert!(
        dev.resident_bytes() <= resident_peak,
        "defragmentation grew resident memory: {} -> {}",
        resident_peak,
        dev.resident_bytes()
    );
    // The heap can serve a maximal allocation again.
    let big = heap.alloc(heap.layout().max_alloc()).unwrap();
    heap.free(big).unwrap();
}

/// Worker threads hammer the lock-free cached front-end while another
/// thread poisons their home sub-heap's metadata and drives the scrubber
/// until it condemns the unit. Nothing may panic or tear: workers see
/// typed errors or transparent failover, the cache ends with no block
/// homed on the condemned sub-heap, and every surviving pointer is still
/// accounted for — resolvable, or claimed inside the quarantined unit,
/// never unknown to the heap.
#[test]
fn online_quarantine_races_cached_frontend() {
    const THREADS: usize = 4;
    let dev = Arc::new(PmemDevice::new(
        DeviceConfig::bench(256 << 20).with_topology(NumaTopology::new(2, THREADS)),
    ));
    let heap =
        Arc::new(PoseidonHeap::create(dev.clone(), HeapConfig::new().with_subheaps(THREADS as u16)).unwrap());
    // Materialise every sub-heap up front (creation is lazy, on first
    // use): the race below must exercise quarantine of a *live* unit,
    // not creation-vs-poison.
    for cpu in 0..THREADS {
        let _pin = pmem::numa::CpuPinGuard::pin(cpu);
        let p = heap.alloc(64).unwrap();
        heap.free(p).unwrap();
    }
    let stop = AtomicBool::new(false);
    let survivors: Vec<Mutex<Vec<NvmPtr>>> = (0..THREADS).map(|_| Mutex::new(Vec::new())).collect();

    platform::thread::scope(|scope| {
        for thread in 0..THREADS {
            let heap = heap.clone();
            let stop = &stop;
            let survivors = &survivors;
            scope.spawn(move || {
                pmem::numa::set_current_cpu(thread);
                let mut rng = Xorshift::new(thread as u64 * 6151 + 3);
                let mut mine: Vec<NvmPtr> = Vec::new();
                // Bounded rounds (not `loop`): the scope joins these
                // threads even if the driver below panics, so they must
                // always terminate on their own.
                for round in 0..50_000u32 {
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    if round % 128 == 0 {
                        std::thread::yield_now();
                    }
                    if rng.below(3) < 2 {
                        match heap.alloc(64 + rng.below(192)) {
                            Ok(p) => mine.push(p),
                            // Typed degradations only — never a panic.
                            Err(PoseidonError::SubheapQuarantined { .. })
                            | Err(PoseidonError::MediaError { .. })
                            | Err(PoseidonError::AllFailed { .. })
                            | Err(PoseidonError::NoSpace { .. }) => {}
                            Err(e) => panic!("alloc under live quarantine: {e:?}"),
                        }
                    } else if let Some(p) = mine.pop() {
                        match heap.free(p) {
                            Ok(()) => {}
                            // The block's sub-heap was condemned while the
                            // block was checked out: it stays claimed
                            // inside the quarantined unit. Keep it for the
                            // accounting pass below.
                            Err(PoseidonError::SubheapQuarantined { .. })
                            | Err(PoseidonError::MediaError { .. }) => {
                                survivors[thread].lock().push(p);
                            }
                            Err(e) => panic!("free under live quarantine: {e:?}"),
                        }
                    }
                }
                survivors[thread].lock().extend(mine);
            });
        }

        // Let the workers warm their magazines, then poison sub-heap 0's
        // metadata and drive the scrubber until the unit is condemned
        // (a worker may trip the fault first — both paths are valid).
        for _ in 0..50 {
            std::thread::yield_now();
        }
        dev.poison(heap.layout().meta_base(0), 1).unwrap();
        let mut steps = 0u32;
        while heap.health().quarantined_subheaps == 0 {
            heap.scrub_step(2).expect("scrub step under live load");
            std::thread::yield_now();
            steps += 1;
            assert!(steps < 10_000, "scrubber never condemned the poisoned sub-heap");
        }
        // Let the workers run against the condemned unit for a while,
        // with the scrubber still ticking alongside them.
        for _ in 0..200 {
            heap.scrub_step(1).expect("scrub step after condemnation");
            std::thread::yield_now();
        }
        stop.store(true, Ordering::Relaxed);
    });

    let frozen = heap.quarantined_subheaps();
    assert!(frozen.contains(&0), "poisoned sub-heap not quarantined: {frozen:?}");

    // No cache-managed block may be homed on a condemned sub-heap.
    for (sub, offset) in heap.cache_snapshot() {
        assert!(!frozen.contains(&sub), "cached block {offset:#x} survives on condemned sub {sub}");
    }

    // Failover: allocation still succeeds from the condemned home CPU.
    pmem::numa::set_current_cpu(0);
    let p = heap.alloc(64).expect("failover allocation from condemned home CPU");
    heap.free(p).unwrap();

    // Every surviving pointer is resolvable or inside the quarantined
    // unit — an `InvalidFree` here would mean the heap lost a live block.
    for bucket in &survivors {
        for p in bucket.lock().drain(..) {
            match heap.block_size(p) {
                Ok(_) => heap.free(p).unwrap(),
                Err(PoseidonError::SubheapQuarantined { .. }) => {}
                Err(e) => panic!("live block lost under quarantine: {e:?}"),
            }
        }
    }
    heap.audit().unwrap();
}

/// Acceptance sweep for the self-healing tentpole: ≥ 50 live media faults
/// (metadata lines on a strict subset of sub-heaps, user-data lines on
/// every sub-heap) injected under concurrent allocation load. The heap
/// must end with the damaged units quarantined, allocation still served,
/// a clean audit — and the verdicts must survive crash + recovery.
#[test]
fn online_fifty_live_faults_heal_under_load() {
    const THREADS: usize = 4;
    // Crash tracking stays on (the default): the sweep ends with a
    // simulated power loss, which needs the tracked write sets.
    let dev =
        Arc::new(PmemDevice::new(DeviceConfig::new(256 << 20).with_topology(NumaTopology::new(2, THREADS))));
    let heap =
        Arc::new(PoseidonHeap::create(dev.clone(), HeapConfig::new().with_subheaps(THREADS as u16)).unwrap());
    // Materialise every sub-heap before the faults start flying.
    for cpu in 0..THREADS {
        let _pin = pmem::numa::CpuPinGuard::pin(cpu);
        let p = heap.alloc(64).unwrap();
        heap.free(p).unwrap();
    }
    let stop = AtomicBool::new(false);

    let mut faults = 0u32;
    let mut promoted_blocks = 0u64;
    platform::thread::scope(|scope| {
        for thread in 0..THREADS {
            let heap = heap.clone();
            let stop = &stop;
            scope.spawn(move || {
                pmem::numa::set_current_cpu(thread);
                let mut rng = Xorshift::new(thread as u64 * 2741 + 11);
                let mut mine: Vec<NvmPtr> = Vec::new();
                for round in 0..50_000u32 {
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    if round % 128 == 0 {
                        std::thread::yield_now();
                    }
                    if mine.len() < 64 && rng.below(3) < 2 {
                        match heap.alloc(32 + rng.below(480)) {
                            Ok(p) => mine.push(p),
                            Err(PoseidonError::SubheapQuarantined { .. })
                            | Err(PoseidonError::MediaError { .. })
                            | Err(PoseidonError::AllFailed { .. })
                            | Err(PoseidonError::NoSpace { .. }) => {}
                            Err(e) => panic!("alloc under fault sweep: {e:?}"),
                        }
                    } else if let Some(p) = mine.pop() {
                        match heap.free(p) {
                            Ok(())
                            | Err(PoseidonError::SubheapQuarantined { .. })
                            | Err(PoseidonError::MediaError { .. }) => {}
                            Err(e) => panic!("free under fault sweep: {e:?}"),
                        }
                    }
                }
            });
        }

        let layout = heap.layout();
        // Metadata faults on sub-heaps 0 and 1 only — 2 and 3 must stay
        // healthy so failover always has somewhere to land.
        for sub in 0..2u16 {
            dev.poison(layout.meta_base(sub), 1).unwrap();
            faults += 1;
        }
        // User-data faults on every sub-heap, spread across the low user
        // region where the buddy free lists (and the cache's withdrawn
        // blocks) live; interleave scrubber steps so promotion happens
        // concurrently with the injection, under full load.
        for wave in 0..13u64 {
            for sub in 0..THREADS as u16 {
                dev.poison(layout.user_base(sub) + wave * 8192, 1).unwrap();
                faults += 1;
            }
            let step = heap.scrub_step(THREADS + 1).expect("scrub step mid-sweep");
            promoted_blocks += step.blocks_quarantined;
            std::thread::yield_now();
        }
        // Two more full passes so every unit is examined after the last
        // injection wave.
        for _ in 0..2 {
            let step = heap.scrub_step(THREADS + 1).expect("final scrub pass");
            promoted_blocks += step.blocks_quarantined;
        }
        stop.store(true, Ordering::Relaxed);
    });

    assert!(faults >= 50, "sweep injected only {faults} faults");
    let frozen = heap.quarantined_subheaps();
    assert!(frozen.contains(&0) && frozen.contains(&1), "metadata-poisoned subs not condemned: {frozen:?}");
    assert!(!frozen.contains(&2) && !frozen.contains(&3), "healthy subs condemned: {frozen:?}");
    assert!(promoted_blocks > 0, "scrubber promoted no poisoned free blocks");
    let health = heap.health();
    assert_eq!(health.quarantined_subheaps, 2);

    // The heap still serves allocation from every CPU and audits clean.
    for cpu in 0..THREADS {
        pmem::numa::set_current_cpu(cpu);
        let p = heap.alloc(64).expect("allocation after the fault sweep");
        heap.free(p).unwrap();
    }
    heap.audit().unwrap();

    // The verdicts are persistent: crash, recover, and the same units are
    // quarantined while the rest of the heap audits clean and allocates.
    drop(heap);
    dev.simulate_crash(CrashMode::Strict, 42);
    let heap = PoseidonHeap::load(dev, HeapConfig::new()).expect("recovery with live verdicts");
    let refrozen = heap.quarantined_subheaps();
    assert!(refrozen.contains(&0) && refrozen.contains(&1), "quarantine lost across crash: {refrozen:?}");
    heap.audit().unwrap();
    let p = heap.alloc(64).expect("allocation after recovery");
    heap.free(p).unwrap();
}

#[test]
fn op_stats_track_activity() {
    let dev = Arc::new(PmemDevice::new(DeviceConfig::new(64 << 20)));
    let heap = PoseidonHeap::create(dev, HeapConfig::new().with_subheaps(1)).unwrap();
    let a = heap.alloc(64).unwrap();
    let b = heap.alloc(64).unwrap();
    heap.free(a).unwrap();
    let _ = heap.free(a); // double free, rejected
    let _ = heap.tx_alloc(32, true).unwrap();
    let _ = heap.tx_alloc(32, false).unwrap();
    heap.tx_abort().unwrap();
    let stats = heap.op_stats();
    assert_eq!(stats.allocs, 4);
    assert_eq!(stats.frees, 1);
    assert_eq!(stats.rejected_frees, 1);
    assert_eq!(stats.tx_commits, 1);
    assert_eq!(stats.tx_aborts, 1);
    heap.free(b).unwrap();
}
