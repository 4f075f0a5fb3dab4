//! Integration test for the `pfsck` pool inspector binary.

use std::process::Command;
use std::sync::Arc;

use pmem::{CrashMode, DeviceConfig, PmemDevice};
use poseidon::{HeapConfig, PoseidonHeap};

fn pfsck() -> Command {
    Command::new(env!("CARGO_BIN_EXE_pfsck"))
}

fn make_pool(path: &std::path::Path, crash: bool) {
    let dev = Arc::new(PmemDevice::new(DeviceConfig::new(64 << 20)));
    let heap = PoseidonHeap::create(dev.clone(), HeapConfig::new().with_subheaps(2)).unwrap();
    let keep = heap.alloc(256).unwrap();
    let gone = heap.alloc(512).unwrap();
    heap.free(gone).unwrap();
    heap.set_root(keep).unwrap();
    if crash {
        // Leave an open transaction and an armed crash, then power-cycle.
        let _ = heap.tx_alloc(128, false).unwrap();
        drop(heap);
        dev.simulate_crash(CrashMode::Strict, 9);
    } else {
        heap.close().unwrap();
    }
    dev.save(path).unwrap();
}

#[test]
fn clean_pool_passes() {
    let path = std::env::temp_dir().join(format!("pfsck-clean-{}.pool", std::process::id()));
    make_pool(&path, false);
    let out = pfsck().arg("--verbose").arg(&path).output().unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "pfsck failed: {stdout}\n{}", String::from_utf8_lossy(&out.stderr));
    assert!(stdout.contains("clean shutdown"), "{stdout}");
    assert!(stdout.contains("— OK"), "{stdout}");
    assert!(stdout.contains("root     : nvmptr("), "{stdout}");
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn crashed_pool_is_recovered_and_passes() {
    let path = std::env::temp_dir().join(format!("pfsck-crash-{}.pool", std::process::id()));
    make_pool(&path, true);
    let out = pfsck().arg("--defrag").arg(&path).output().unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "pfsck failed: {stdout}\n{}", String::from_utf8_lossy(&out.stderr));
    assert!(stdout.contains("CRASH DETECTED"), "{stdout}");
    assert!(stdout.contains("tx allocations reverted: 1"), "{stdout}");
    assert!(stdout.contains("— OK"), "{stdout}");
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn repair_fixes_poisoned_pool_in_place() {
    let path = std::env::temp_dir().join(format!("pfsck-repair-{}.pool", std::process::id()));
    // Build a pool with media faults enabled, then poison a buddy
    // free-list head line, an undo-log line, and a freed block's user
    // line before saving — the acceptance scenario for `--repair`.
    let dev = Arc::new(PmemDevice::new(DeviceConfig::new(64 << 20)));
    let heap = PoseidonHeap::create(dev.clone(), HeapConfig::new().with_subheaps(1)).unwrap();
    let layout = heap.layout().clone();
    let keep = heap.alloc(256).unwrap();
    let gone = heap.alloc(4096).unwrap();
    let gone_raw = heap.raw_offset(gone).unwrap();
    heap.free(gone).unwrap();
    heap.set_root(keep).unwrap();
    heap.close().unwrap();
    dev.poison(layout.meta_base(0) + 0x100, 64).unwrap(); // buddy free-list heads
    dev.poison(layout.meta_base(0) + 0x1000, 64).unwrap(); // undo-log line
    dev.poison(gone_raw & !63, 64).unwrap(); // freed block's user bytes
    dev.save(&path).unwrap();

    // Without --repair the sub-heap is contained (frozen) but the pool
    // still loads and checks out.
    let out = pfsck().arg(&path).output().unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "pfsck failed: {stdout}\n{}", String::from_utf8_lossy(&out.stderr));
    assert!(stdout.contains("DAMAGE CONTAINED"), "{stdout}");

    // --repair rebuilds the metadata and writes the image back.
    let out = pfsck().arg("--repair").arg(&path).output().unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "repair failed: {stdout}\n{}", String::from_utf8_lossy(&out.stderr));
    assert!(stdout.contains("repair   :"), "{stdout}");
    assert!(stdout.contains("repaired image saved"), "{stdout}");

    // A subsequent plain check sees a healthy pool: no frozen sub-heaps,
    // and the user-line poison reduced to a quarantined block in audit.
    let out = pfsck().arg(&path).output().unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "post-repair pfsck failed: {stdout}");
    assert!(!stdout.contains("DAMAGE CONTAINED"), "{stdout}");
    assert!(stdout.contains("quarantined after media errors"), "{stdout}");

    // And a direct load finds the root intact with quarantine accounted.
    let dev = Arc::new(PmemDevice::load(&path, DeviceConfig::new(0)).unwrap());
    let heap = PoseidonHeap::load(dev, HeapConfig::new()).unwrap();
    assert!(heap.quarantined_subheaps().is_empty());
    assert_eq!(heap.root().unwrap(), keep);
    let quarantined: u64 = heap.audit().unwrap().iter().map(|(_, a)| a.quarantined_bytes).sum();
    assert!(quarantined >= 4096, "poisoned free block not quarantined: {quarantined}");
    let p = heap.alloc(64).unwrap();
    heap.free(p).unwrap();
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn repair_with_lost_root_exits_nonzero() {
    let path = std::env::temp_dir().join(format!("pfsck-lost-root-{}.pool", std::process::id()));
    let dev = Arc::new(PmemDevice::new(DeviceConfig::new(64 << 20)));
    let heap = PoseidonHeap::create(dev.clone(), HeapConfig::new().with_subheaps(1)).unwrap();
    let keep = heap.alloc(256).unwrap();
    heap.set_root(keep).unwrap();
    heap.close().unwrap();
    // Poison the superblock identity line: the root object is lost and no
    // repair can get it back.
    dev.poison(0, 64).unwrap();
    dev.save(&path).unwrap();
    let out = pfsck().arg("--repair").arg(&path).output().unwrap();
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("REPAIR FAILED"));
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn garbage_file_is_rejected() {
    let path = std::env::temp_dir().join(format!("pfsck-garbage-{}.pool", std::process::id()));
    std::fs::write(&path, b"this is not a pool").unwrap();
    let out = pfsck().arg(&path).output().unwrap();
    assert_eq!(out.status.code(), Some(1));
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn missing_argument_is_usage_error() {
    let out = pfsck().output().unwrap();
    assert_eq!(out.status.code(), Some(2));
}
