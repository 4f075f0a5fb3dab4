//! Integration tests for the media-error fault model: poisoned cache
//! lines fault on read and survive reboots, and the heap must degrade
//! gracefully — quarantine what it cannot trust, fail over, keep serving
//! the rest — rather than panic or brick the pool. `pfsck --repair`
//! (exercised here through [`poseidon::repair`]) is the offline escape
//! hatch that rebuilds the damaged metadata.

use std::sync::Arc;

use pmem::{CrashMode, DeviceConfig, PmemDevice, CACHE_LINE_SIZE};
use poseidon::{HeapConfig, PoseidonError, PoseidonHeap};

fn faulty_device() -> Arc<PmemDevice> {
    Arc::new(PmemDevice::new(DeviceConfig::new(64 << 20).with_media_faults(true)))
}

fn line_of(raw: u64) -> u64 {
    raw & !(CACHE_LINE_SIZE - 1)
}

#[test]
fn poisoned_free_block_is_quarantined_and_never_reused() {
    let dev = faulty_device();
    let heap = PoseidonHeap::create(dev.clone(), HeapConfig::new().with_subheaps(1)).unwrap();
    let keep = heap.alloc(256).unwrap();
    let victim = heap.alloc(256).unwrap();
    let victim_raw = heap.raw_offset(victim).unwrap();
    heap.free(victim).unwrap();
    heap.set_root(keep).unwrap();
    heap.close().unwrap();

    // Poison the freed block's user bytes at rest, then power-cycle.
    dev.poison(line_of(victim_raw), CACHE_LINE_SIZE).unwrap();
    dev.simulate_crash(CrashMode::Strict, 1);

    let heap = PoseidonHeap::load(dev.clone(), HeapConfig::new()).unwrap();
    let report = heap.recovery_report();
    assert!(report.media_damage_detected());
    assert_eq!(report.subheaps_quarantined, 0, "user-line poison must not freeze the sub-heap");
    assert_eq!(report.blocks_quarantined, 1);
    assert!(report.bytes_quarantined >= 256);
    let quarantined: u64 = heap.audit().unwrap().iter().map(|(_, a)| a.quarantined_bytes).sum();
    assert_eq!(quarantined, report.bytes_quarantined);

    // The quarantined block must never be handed out again: allocate the
    // whole class dry and check nothing overlaps the poisoned line.
    let mut live = Vec::new();
    while let Ok(p) = heap.alloc(256) {
        let raw = heap.raw_offset(p).unwrap();
        assert!(
            line_of(victim_raw) + CACHE_LINE_SIZE <= raw || raw + 256 <= line_of(victim_raw),
            "poisoned block re-allocated at {raw:#x}"
        );
        live.push(p);
        if live.len() > 100_000 {
            break;
        }
    }
    // Root and its block survived untouched.
    assert_eq!(heap.root().unwrap(), keep);
}

/// Freeing a live block whose bytes picked up poison must quarantine it
/// *and* say so in the live health ledger. The record-state side has
/// always held; the `blocks_quarantined_live` counter silently stayed at
/// zero on this path (the scrubber never revisits the block because it is
/// no longer FREE), so a service watching `health()` saw a clean heap
/// while the audit showed quarantined blocks.
#[test]
fn free_of_poisoned_live_block_bumps_live_quarantine_counter() {
    let dev = faulty_device();
    let config = HeapConfig::new().with_subheaps(1).without_cache();
    let heap = PoseidonHeap::create(dev.clone(), config).unwrap();
    let victim = heap.alloc(256).unwrap();
    let victim_raw = heap.raw_offset(victim).unwrap();
    dev.poison(line_of(victim_raw), CACHE_LINE_SIZE).unwrap();

    assert_eq!(heap.health().blocks_quarantined_live, 0);
    heap.free(victim).unwrap();
    assert_eq!(
        heap.health().blocks_quarantined_live,
        1,
        "free-time quarantine must be visible in the live health ledger, not just the audit"
    );
    let quarantined: u64 = heap.audit().unwrap().iter().map(|(_, a)| a.quarantined_blocks).sum();
    assert_eq!(quarantined, 1, "the durable record state and the ledger must agree");

    // A scrub pass finds nothing new — the block is QUARANTINED, not
    // FREE — so the counter must not double-count.
    heap.scrub_step(usize::MAX).unwrap();
    assert_eq!(heap.health().blocks_quarantined_live, 1);

    // And the block is never handed out again.
    let mut live = Vec::new();
    while let Ok(p) = heap.alloc(256) {
        let raw = heap.raw_offset(p).unwrap();
        assert!(
            line_of(victim_raw) + CACHE_LINE_SIZE <= raw || raw + 256 <= line_of(victim_raw),
            "poisoned block re-allocated at {raw:#x}"
        );
        live.push(p);
        if live.len() > 100_000 {
            break;
        }
    }
}

/// Same ledger contract for the magazine-cache path: a block sitting in
/// the transient cache when its line is poisoned gets quarantined when
/// the cache drains it back to the persistent free lists, and that
/// drain-time quarantine must also land in `blocks_quarantined_live`,
/// in the scrub step's byte tally, and in the cache's drain count.
#[test]
fn cache_drain_of_poisoned_block_bumps_live_quarantine_counter() {
    let dev = faulty_device();
    let heap = PoseidonHeap::create(dev.clone(), HeapConfig::new().with_subheaps(1)).unwrap();
    let victim = heap.alloc(256).unwrap();
    let victim_raw = heap.raw_offset(victim).unwrap();
    heap.free(victim).unwrap(); // absorbed by the per-CPU magazine
    dev.poison(line_of(victim_raw), CACHE_LINE_SIZE).unwrap();

    // Scrubbing the sub-heap evicts cache residents through the cache
    // drain, which routes the poisoned block to quarantine.
    let step = heap.scrub_step(usize::MAX).unwrap();
    assert_eq!(
        heap.health().blocks_quarantined_live,
        1,
        "drain-time quarantine must be counted exactly once"
    );
    let audits = heap.audit().unwrap();
    let quarantined: u64 = audits.iter().map(|(_, a)| a.quarantined_blocks).sum();
    assert_eq!(quarantined, 1);
    let quarantined_bytes: u64 = audits.iter().map(|(_, a)| a.quarantined_bytes).sum();
    assert_eq!(step.bytes_quarantined, quarantined_bytes, "the scrub step must report the drained bytes");
    let cache = heap.contention_profile()[0].cache.expect("the heap runs its cache");
    assert_eq!(cache.drains, 1, "the scrubber's drain must be counted");
}

#[test]
fn poisoned_metadata_quarantines_subheap_and_alloc_fails_over() {
    let dev = faulty_device();
    let layout;
    let home;
    let hostage;
    {
        let heap = PoseidonHeap::create(dev.clone(), HeapConfig::new().with_subheaps(2)).unwrap();
        layout = heap.layout().clone();
        // Materialise both sub-heaps (pinning picks the serving sub-heap),
        // so failover has somewhere healthy to land after recovery.
        let mut probes = Vec::new();
        for cpu in 0..2usize {
            let _pin = pmem::numa::CpuPinGuard::pin(cpu);
            probes.push(heap.alloc(64).unwrap());
        }
        home = probes[0].subheap();
        assert_ne!(home, probes[1].subheap());
        hostage = probes[0];
        heap.free(probes[1]).unwrap();
        heap.close().unwrap();
    }

    // Poison a buddy free-list head line in the home sub-heap's metadata.
    dev.poison(layout.meta_base(home) + 0x100, CACHE_LINE_SIZE).unwrap();
    dev.simulate_crash(CrashMode::Strict, 2);

    let heap = PoseidonHeap::load(dev.clone(), HeapConfig::new()).unwrap();
    assert_eq!(heap.quarantined_subheaps(), vec![home]);
    assert_eq!(heap.recovery_report().subheaps_quarantined, 1);

    // alloc transparently retries from the healthy sub-heap, even when the
    // calling CPU's home sub-heap is the frozen one...
    let _pin = pmem::numa::CpuPinGuard::pin(0);
    let p = heap.alloc(64).unwrap();
    assert_ne!(p.subheap(), home, "allocation landed on a quarantined sub-heap");
    heap.free(p).unwrap();
    // ...while direct operations on the frozen sub-heap's blocks are
    // refused with the typed error.
    assert!(matches!(
        heap.free(hostage),
        Err(PoseidonError::SubheapQuarantined { subheap }) if subheap == home
    ));
    assert!(matches!(
        heap.block_size(hostage),
        Err(PoseidonError::SubheapQuarantined { subheap }) if subheap == home
    ));
}

#[test]
fn poisoned_superblock_fails_load_with_typed_error() {
    let dev = faulty_device();
    let heap = PoseidonHeap::create(dev.clone(), HeapConfig::new().with_subheaps(1)).unwrap();
    heap.close().unwrap();
    dev.poison(0, CACHE_LINE_SIZE).unwrap();
    dev.simulate_crash(CrashMode::Strict, 3);
    assert!(matches!(PoseidonHeap::load(dev, HeapConfig::new()), Err(PoseidonError::MediaError { .. })));
}

#[test]
fn repair_restores_a_quarantined_subheap_with_data_intact() {
    let dev = faulty_device();
    let layout;
    let keep;
    let keep_raw;
    {
        let heap = PoseidonHeap::create(dev.clone(), HeapConfig::new().with_subheaps(1)).unwrap();
        layout = heap.layout().clone();
        keep = heap.alloc(128).unwrap();
        keep_raw = heap.raw_offset(keep).unwrap();
        dev.write(keep_raw, b"survives repair").unwrap();
        dev.persist(keep_raw, 15).unwrap();
        heap.set_root(keep).unwrap();
        heap.close().unwrap();
    }

    // Poison a free-list line and an undo-log line: the whole sub-heap is
    // frozen on load until repair rebuilds it.
    dev.poison(layout.meta_base(0) + 0x100, CACHE_LINE_SIZE).unwrap();
    dev.poison(layout.meta_base(0) + 0x1000, CACHE_LINE_SIZE).unwrap();
    dev.simulate_crash(CrashMode::Strict, 4);
    {
        let heap = PoseidonHeap::load(dev.clone(), HeapConfig::new()).unwrap();
        assert_eq!(heap.quarantined_subheaps(), vec![0]);
        assert!(heap.alloc(64).is_err(), "the only sub-heap is frozen");
        heap.close().unwrap();
    }

    let report = poseidon::repair(&dev).unwrap();
    assert!(report.damage_found());
    assert!(report.lines_scrubbed >= 2);

    let heap = PoseidonHeap::load(dev.clone(), HeapConfig::new()).unwrap();
    assert!(heap.quarantined_subheaps().is_empty(), "repair must lift the quarantine");
    assert_eq!(heap.root().unwrap(), keep);
    let mut buf = [0u8; 15];
    dev.read(keep_raw, &mut buf).unwrap();
    assert_eq!(&buf, b"survives repair");
    let p = heap.alloc(64).unwrap();
    heap.free(p).unwrap();
    heap.free(keep).unwrap();
}

#[test]
fn crash_during_recovery_with_poison_never_panics() {
    // Interleave all three fault dimensions: a crash mid-workload, poison
    // on recently written lines, and further crashes *during* recovery.
    // Every attempt must end in Ok or a typed error — never a panic.
    for seed in 0..30u64 {
        let dev = faulty_device();
        {
            let heap = PoseidonHeap::create(dev.clone(), HeapConfig::new().with_subheaps(2)).unwrap();
            let mut live = Vec::new();
            dev.arm_crash_after(40 + seed * 13);
            dev.arm_poison_after(20 + seed * 7, seed);
            for i in 0..40u64 {
                match heap.alloc(32 + i * 96) {
                    Ok(p) => live.push(p),
                    Err(PoseidonError::Device(_)) => break,
                    Err(_) => {}
                }
                if i % 3 == 0 && !live.is_empty() {
                    let p = live.swap_remove(0);
                    if matches!(heap.free(p), Err(PoseidonError::Device(_))) {
                        break;
                    }
                }
            }
            dev.disarm_crash();
            dev.disarm_poison();
        }
        dev.simulate_crash(CrashMode::Adversarial, seed);

        let mut attempts = 0u64;
        loop {
            attempts += 1;
            dev.arm_crash_after(attempts * 7);
            match PoseidonHeap::load(dev.clone(), HeapConfig::new()) {
                Ok(heap) => {
                    dev.disarm_crash();
                    heap.audit().expect("audit after interrupted poisoned recoveries");
                    break;
                }
                Err(PoseidonError::MediaError { .. }) => {
                    // Typed, clean failure (poison landed on the
                    // superblock): acceptable terminal outcome.
                    dev.disarm_crash();
                    break;
                }
                Err(_) => dev.simulate_crash(CrashMode::Strict, attempts),
            }
            assert!(attempts < 1000, "recovery never converged at seed {seed}");
        }
    }
}
