//! Integration tests for online pool growth: versioned layout epochs,
//! dynamic sub-heap materialisation, huge-band extension, crash
//! atomicity of the epoch commit, and the v1→v2 format migration.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use pmem::{CrashMode, DeviceConfig, PmemDevice};
use poseidon::{HeapConfig, PoseidonError, PoseidonHeap};

const MIB: u64 = 1 << 20;
const GIB: u64 = 1 << 30;

/// The acceptance scenario: a 256 MiB pool grows online to 4 GiB in
/// steps while worker threads allocate and free throughout. Every step
/// must be acknowledged, allocations must keep succeeding during the
/// growths, and the final geometry must audit clean with more sub-heaps
/// than it was created with.
#[test]
fn pool_grows_online_to_4gib_while_serving_allocations() {
    let dev = Arc::new(PmemDevice::new(DeviceConfig::new(256 * MIB).growable_to(4 * GIB)));
    let heap = Arc::new(PoseidonHeap::create(dev.clone(), HeapConfig::new().with_subheaps(4)).unwrap());
    let created_subheaps = heap.layout().num_subheaps();

    let stop = Arc::new(AtomicBool::new(false));
    let workers: Vec<_> = (0..4)
        .map(|worker| {
            let heap = Arc::clone(&heap);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut live = Vec::new();
                let mut allocated = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    match heap.alloc(64 + (worker as u64) * 48) {
                        Ok(p) => {
                            allocated += 1;
                            live.push(p);
                        }
                        Err(e) => panic!("worker {worker}: alloc failed during growth: {e}"),
                    }
                    if live.len() >= 64 {
                        for p in live.drain(..) {
                            heap.free(p).unwrap();
                        }
                    }
                }
                for p in live {
                    heap.free(p).unwrap();
                }
                allocated
            })
        })
        .collect();

    // Grow in eight steps of 480 MiB, each acknowledged while the
    // workers hammer the allocator.
    let mut capacity = 256 * MIB;
    let mut epochs = 1;
    while capacity < 4 * GIB {
        capacity = (capacity + 480 * MIB).min(4 * GIB);
        let report = heap.grow(capacity).unwrap();
        epochs += 1;
        assert_eq!(report.new_capacity, capacity);
        assert_eq!(report.epoch, epochs - 1);
        assert_eq!(heap.layout().capacity(), capacity);
    }
    stop.store(true, Ordering::Relaxed);
    let total: u64 = workers.into_iter().map(|w| w.join().unwrap()).sum();
    assert!(total > 0, "workers made no progress");

    assert_eq!(heap.layout().capacity(), 4 * GIB);
    assert_eq!(heap.layout().epoch_count(), epochs);
    assert!(heap.layout().num_subheaps() > created_subheaps, "growing 16x materialised no new sub-heaps");
    heap.audit().unwrap();
    heap.huge_audit().unwrap();

    // The grown geometry is durable: reload and check it survived.
    let Ok(heap_owned) = Arc::try_unwrap(heap) else { panic!("workers still hold the heap") };
    heap_owned.close().unwrap();
    let heap = PoseidonHeap::load(dev, HeapConfig::new()).unwrap();
    assert_eq!(heap.layout().capacity(), 4 * GIB);
    assert_eq!(heap.layout().epoch_count(), epochs);
    heap.audit().unwrap();
}

/// A full home sub-heap spills into sub-heaps materialised by a grow:
/// the pool serves more data than the creation geometry could hold.
#[test]
fn grow_materialises_subheaps_that_absorb_spill() {
    let dev = Arc::new(PmemDevice::new(DeviceConfig::new(24 * MIB).growable_to(96 * MIB)));
    let heap = PoseidonHeap::create(dev, HeapConfig::new().with_subheaps(1)).unwrap();
    let report = heap.grow(96 * MIB).unwrap();
    assert!(report.new_subheaps >= 1, "72 MiB of growth fits at least one whole sub-heap");
    assert_eq!(heap.layout().num_subheaps(), 1 + report.new_subheaps);

    // Fill past what the single creation sub-heap can hold; the NoSpace
    // failover must route the overflow into the grown sub-heaps.
    let block = 512 * 1024;
    let mut live = Vec::new();
    while (live.len() as u64) * block < 2 * heap.layout().user_size {
        live.push(heap.alloc(block).unwrap());
    }
    assert!(live.iter().any(|p| p.subheap() >= 1), "no allocation landed in a grow-materialised sub-heap");
    heap.audit().unwrap();
    for p in live {
        heap.free(p).unwrap();
    }
}

/// Satellite regression: an allocation that fails `TooLarge` succeeds
/// after `grow()`, and the error's `huge_remaining` reflects the grown
/// capacity when the request still does not fit.
#[test]
fn too_large_allocation_succeeds_after_grow() {
    let dev = Arc::new(PmemDevice::new(DeviceConfig::new(64 * MIB).growable_to(256 * MIB)));
    let heap = PoseidonHeap::create(dev, HeapConfig::new().with_subheaps(2)).unwrap();
    let initial_huge = heap.layout().huge_data_size();
    assert!(initial_huge > 0, "64 MiB pools carve a huge region");

    let request = initial_huge + 4 * MIB;
    let before = match heap.alloc(request) {
        Err(PoseidonError::TooLarge { requested, huge_remaining, .. }) => {
            assert_eq!(requested, request);
            huge_remaining
        }
        other => panic!("expected TooLarge before the grow, got {other:?}"),
    };
    assert!(before <= initial_huge);

    // A small growth extends only the huge band; the new band alone must
    // absorb the request (bands are hard coalesce boundaries).
    let report = heap.grow(64 * MIB + request.next_multiple_of(MIB) + MIB).unwrap();
    assert!(report.huge_bytes_added >= request, "growth added {} huge bytes", report.huge_bytes_added);
    let p = heap.alloc(request).expect("previously-TooLarge allocation fits after grow");

    // Exhaust it again: huge_remaining now reflects the post-grow band.
    match heap.alloc(heap.layout().huge_data_size()) {
        Err(PoseidonError::TooLarge { huge_remaining, .. }) => {
            assert!(huge_remaining < report.huge_bytes_added)
        }
        other => panic!("expected TooLarge after refilling, got {other:?}"),
    }
    heap.free(p).unwrap();
    heap.huge_audit().unwrap().expect("huge region present");
    heap.audit().unwrap();
}

/// Growth steps too small to host a sub-heap or a band page are typed
/// errors and leave the layout untouched.
#[test]
fn degenerate_growths_are_rejected() {
    let dev = Arc::new(PmemDevice::new(DeviceConfig::new(64 * MIB).growable_to(128 * MIB)));
    let heap = PoseidonHeap::create(dev, HeapConfig::new().with_subheaps(2)).unwrap();
    assert!(matches!(heap.grow(64 * MIB), Err(PoseidonError::BadGeometry(_))));
    assert!(matches!(heap.grow(32 * MIB), Err(PoseidonError::BadGeometry(_))));
    assert!(matches!(heap.grow(64 * MIB + 512), Err(PoseidonError::BadGeometry(_))));
    assert_eq!(heap.layout().epoch_count(), 1);
    assert_eq!(heap.layout().capacity(), 64 * MIB);
}

/// Once the epoch commit has passed, `grow` reports the growth even if
/// its completion fails: media errors in the huge band's bookkeeping and
/// in the cache re-balance are contained (the huge region quarantined,
/// the sub-heap whose cached blocks could not drain condemned) and the
/// rest is left to the next open, so an `Err` from `grow` always means
/// the pool did not grow.
#[test]
fn a_media_error_after_the_epoch_commit_still_reports_the_growth() {
    let dev = Arc::new(PmemDevice::new(DeviceConfig::new(64 * MIB).growable_to(128 * MIB)));
    let heap = PoseidonHeap::create(dev.clone(), HeapConfig::new().with_subheaps(2)).unwrap();
    // A block freed on CPU 0 stays resident in sub-heap 0's cache, so the
    // re-balance has to drain it through sub-heap 0's metadata.
    pmem::numa::set_current_cpu(0);
    let p = heap.alloc(64).unwrap();
    assert_eq!(p.subheap(), 0);
    heap.free(p).unwrap();
    dev.poison(heap.layout().huge_meta_base(), 1).unwrap();
    dev.poison(heap.layout().meta_base(0), heap.layout().meta_size).unwrap();
    let report = heap.grow(72 * MIB).expect("the epoch committed, so the pool grew");
    assert_eq!((report.epoch, report.new_capacity, report.huge_bytes_added), (1, 72 * MIB, 0));
    assert_eq!(heap.layout().epoch_count(), 2);
    assert_eq!(heap.layout().capacity(), 72 * MIB);
    assert!(heap.health().huge_region_quarantined, "the poisoned huge header was contained");
    assert_eq!(heap.quarantined_subheaps(), vec![0], "the sub-heap whose drain failed was condemned");
}

/// Crash atomicity of the epoch commit: sweep the crash point over every
/// mutation event of a grow. After each power cycle the pool must sit
/// entirely on the old layout or entirely on the new one — matching
/// whether the grow was acknowledged — and must audit clean and serve.
#[test]
fn crash_at_any_point_during_grow_recovers_to_old_or_new_epoch() {
    let base = 24 * MIB;
    let target = 48 * MIB;
    let mut acknowledged = false;
    for arm in 1..2000u64 {
        let dev = Arc::new(PmemDevice::new(DeviceConfig::new(base).growable_to(64 * MIB)));
        let heap = PoseidonHeap::create(dev.clone(), HeapConfig::new().with_subheaps(1)).unwrap();
        let keep = heap.alloc(4096).unwrap();
        heap.set_root(keep).unwrap();

        dev.arm_crash_after(arm);
        let grew = match heap.grow(target) {
            Ok(report) => {
                assert_eq!(report.new_capacity, target);
                true
            }
            Err(PoseidonError::Device(_)) => false,
            Err(e) => panic!("arm point {arm}: unexpected grow error {e}"),
        };
        dev.disarm_crash();
        let crashed = !grew;
        drop(heap);
        dev.simulate_crash(CrashMode::Adversarial, arm);

        let heap = PoseidonHeap::load(dev.clone(), HeapConfig::new()).unwrap();
        let epochs = heap.layout().epoch_count();
        match (grew, epochs) {
            // Acknowledged: the new epoch must have survived.
            (true, 2) => assert_eq!(heap.layout().capacity(), target),
            (true, n) => panic!("arm point {arm}: acknowledged grow lost, {n} epochs survived"),
            // Torn: either fully rolled back or fully committed.
            (false, 1) => assert_eq!(heap.layout().capacity(), base),
            (false, 2) => assert_eq!(heap.layout().capacity(), target),
            (false, n) => panic!("arm point {arm}: torn grow left {n} epochs"),
        }
        assert_eq!(heap.root().unwrap(), keep, "root lost at arm point {arm}");
        heap.audit().unwrap();
        heap.huge_audit().unwrap();
        let p = heap.alloc(64).unwrap();
        heap.free(p).unwrap();

        if grew && !crashed {
            // The whole grow ran without tripping the crash countdown:
            // later arm points are identical. The sweep covered every
            // mutation event of the grow.
            acknowledged = true;
            break;
        }
    }
    assert!(acknowledged, "sweep never reached a crash-free grow in 2000 events");
}

/// Satellite: reopen across format versions. A freshly created pool is
/// rewritten into the version-1 byte image (no epoch chain), saved,
/// reloaded from the file, and reopened: the migration must synthesise
/// epoch 0, preserve the root object, and leave a pool that can grow.
#[test]
fn v1_image_reopens_migrates_and_grows() {
    let path = std::env::temp_dir().join(format!("poseidon-growth-v1-{}.pool", std::process::id()));
    let path = path.to_str().unwrap().to_string();

    let dev = Arc::new(PmemDevice::new(DeviceConfig::new(64 * MIB)));
    let heap = PoseidonHeap::create(dev.clone(), HeapConfig::new().with_subheaps(2)).unwrap();
    let root = heap.alloc(1024).unwrap();
    heap.set_root(root).unwrap();
    heap.close().unwrap();

    // Downgrade the image to the v1 byte format and take it through a
    // save/load cycle, like a pool file written by the previous release.
    poseidon::fuzz::downgrade_to_v1(&dev).unwrap();
    dev.save(&path).unwrap();
    drop(dev);

    let dev = Arc::new(PmemDevice::load(&path, DeviceConfig::new(0).growable_to(128 * MIB)).unwrap());
    let heap = PoseidonHeap::load(dev.clone(), HeapConfig::new()).unwrap();
    assert_eq!(heap.layout().epoch_count(), 1, "migration synthesises exactly epoch 0");
    assert_eq!(heap.root().unwrap(), root);
    assert_eq!(heap.block_size(root).unwrap(), 1024);
    heap.audit().unwrap();

    // The migrated pool is a full v2 citizen: it grows.
    let report = heap.grow(128 * MIB).unwrap();
    assert_eq!(report.epoch, 1);
    heap.close().unwrap();

    // And the migrated + grown image reopens cleanly (now natively v2).
    let heap = PoseidonHeap::load(dev, HeapConfig::new()).unwrap();
    assert_eq!(heap.layout().epoch_count(), 2);
    assert_eq!(heap.layout().capacity(), 128 * MIB);
    assert_eq!(heap.root().unwrap(), root);
    heap.audit().unwrap();

    let _ = std::fs::remove_file(&path);
}

/// A grown pool's epoch chain round-trips through `repair` untouched,
/// and a torn trailing epoch record (superblock undo log lost) is
/// conservatively truncated back to the last committed geometry.
#[test]
fn repair_preserves_committed_epochs() {
    let dev = Arc::new(PmemDevice::new(DeviceConfig::new(24 * MIB).growable_to(96 * MIB)));
    let heap = PoseidonHeap::create(dev.clone(), HeapConfig::new().with_subheaps(1)).unwrap();
    heap.grow(48 * MIB).unwrap();
    heap.grow(96 * MIB).unwrap();
    let keep = heap.alloc(4096).unwrap();
    heap.set_root(keep).unwrap();
    heap.close().unwrap();

    let report = poseidon::repair(&dev).unwrap();
    assert_eq!(report.epochs_truncated, 0, "repair must not drop committed epochs");
    let heap = PoseidonHeap::load(dev, HeapConfig::new()).unwrap();
    assert_eq!(heap.layout().epoch_count(), 3);
    assert_eq!(heap.layout().capacity(), 96 * MIB);
    assert_eq!(heap.root().unwrap(), keep);
    heap.audit().unwrap();
}
