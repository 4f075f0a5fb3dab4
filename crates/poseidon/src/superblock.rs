//! Superblock creation, validation, and the root pointer (§2.2, §4.6).
//!
//! The superblock's undo-logged commits ([`set_root`], [`commit_epoch`],
//! [`quarantine_subheap`]) open their [`UndoScope`] on the device's
//! unmapped view, not on a view mapped over the superblock region:
//! mapping the region fails if any of its lines is poisoned, and the
//! superblock has no quarantine to fall back on, while the unmapped view
//! checks each access on its own and touches only the lines the scope
//! logs and writes.

use std::cell::RefCell;

use pmem::{PmemDevice, Pod, PAGE_SIZE};

use crate::error::{PoseidonError, Result};
use crate::layout::{
    Epoch, HeapLayout, MAX_EPOCHS, MAX_SUBHEAPS, SB_DIR_OFF, SB_EPOCHS_OFF, SB_UNDO_OFF, SB_UNDO_SIZE,
};
use crate::nvmptr::NvmPtr;
use crate::persist::{
    DirEntry, EpochRecord, SuperblockHeader, EPOCH_COMMITTED, EPOCH_EMPTY, FORMAT_VERSION, FORMAT_VERSION_V1,
    SUPERBLOCK_MAGIC,
};
use crate::undo::{UndoArea, UndoScope};

/// Size of one on-device epoch record.
const EPOCH_RECORD_SIZE: u64 = std::mem::size_of::<EpochRecord>() as u64;

/// Device offset of the superblock's `undo_gen` field.
fn undo_gen_off() -> u64 {
    std::mem::offset_of!(SuperblockHeader, undo_gen) as u64
}

/// Device offset of the superblock's `root` field.
fn root_off() -> u64 {
    std::mem::offset_of!(SuperblockHeader, root) as u64
}

/// Device offset of the superblock's `version` field.
fn version_off() -> u64 {
    std::mem::offset_of!(SuperblockHeader, version) as u64
}

/// Device offset of the superblock's `epoch_count` field.
pub(crate) fn epoch_count_off() -> u64 {
    std::mem::offset_of!(SuperblockHeader, epoch_count) as u64
}

/// Device offset of layout-epoch record `index`.
pub(crate) fn epoch_record_off(index: usize) -> u64 {
    debug_assert!(index < MAX_EPOCHS);
    SB_EPOCHS_OFF + index as u64 * EPOCH_RECORD_SIZE
}

/// Reads layout-epoch record `index` (any state).
pub(crate) fn epoch_record(dev: &PmemDevice, index: usize) -> Result<EpochRecord> {
    Ok(dev.read_pod(epoch_record_off(index))?)
}

/// Durably commits epoch `index` of the chain: the record and the
/// header's `epoch_count` are logged and written in **one** superblock
/// undo transaction, whose two-fence commit is the single commit point
/// of an online growth — a crash before it reverts both together, a
/// crash after it leaves the epoch fully described. Caller holds the
/// superblock lock and the MPK write guard.
pub(crate) fn commit_epoch(dev: &PmemDevice, index: usize, epoch: &Epoch) -> Result<()> {
    commit(
        dev,
        &[
            (epoch_record_off(index), EpochRecord::from_epoch(epoch).as_bytes()),
            (epoch_count_off(), (index as u32 + 1).as_bytes()),
        ],
    )
}

/// The superblock's undo-log area.
pub(crate) fn undo_area() -> UndoArea {
    UndoArea { base: SB_UNDO_OFF, size: SB_UNDO_SIZE, gen_field: undo_gen_off() }
}

/// Logs and writes each `(target, bytes)` pair, in order, under one
/// superblock undo scope on the device's unmapped view (see the module
/// docs) — one two-fence commit. The caller holds the superblock lock, so
/// the scope re-drives a rollback that died mid-flight.
fn commit(dev: &PmemDevice, writes: &[(u64, &[u8])]) -> Result<()> {
    let view = dev.unmapped_view();
    let staged = RefCell::default();
    let mut scope = UndoScope::begin(&view, &staged, undo_area(), true, None)?;
    for &(target, bytes) in writes {
        scope.log_and_write(target, bytes)?;
    }
    scope.commit()
}

/// Directory-entry state of a sub-heap condemned online after a live
/// media fault. Recovery honours it without touching the region;
/// `pfsck --repair` rebuilds the metadata and resets the entry to 1.
pub(crate) const DIR_QUARANTINED: u32 = 2;

/// Device offset of sub-heap `sub`'s directory entry.
pub(crate) fn dir_entry_off(sub: u16) -> u64 {
    SB_DIR_OFF + sub as u64 * 8
}

/// Reads sub-heap `sub`'s directory entry.
pub(crate) fn dir_entry(dev: &PmemDevice, sub: u16) -> Result<DirEntry> {
    Ok(dev.read_pod(dir_entry_off(sub))?)
}

/// Publishes sub-heap `sub` as created (8-byte atomic persisted store —
/// the commit point of sub-heap creation).
pub(crate) fn publish_subheap(dev: &PmemDevice, sub: u16, entry: DirEntry) -> Result<()> {
    dev.write_pod(dir_entry_off(sub), &entry)?;
    dev.persist(dir_entry_off(sub), 8)?;
    Ok(())
}

/// Writes a fresh superblock for `layout` with identity `heap_id`.
///
/// The magic is written *last*, after everything else (directory zeroed,
/// header persisted), so a crash mid-creation leaves a device that does
/// not claim to be a Poseidon heap and is simply re-created next time.
pub(crate) fn create(dev: &PmemDevice, layout: &HeapLayout, heap_id: u64) -> Result<()> {
    debug_assert_eq!(layout.epoch_count(), 1, "create formats a single-epoch layout");
    let header = SuperblockHeader {
        magic: 0, // published below
        version: FORMAT_VERSION,
        heap_id,
        capacity: layout.capacity(),
        num_subheaps: layout.num_subheaps() as u32,
        meta_size: layout.meta_size,
        user_size: layout.user_size,
        c0: layout.c0,
        huge_data_size: layout.huge_data_size(),
        undo_gen: 0,
        root: NvmPtr::NULL,
        epoch_count: 1,
        _pad0: 0,
        _pad1: 0,
        _pad2: 0,
    };
    dev.write_pod(0, &header)?;
    // Zero the whole directory page: sub-heaps materialised by a later
    // grow must read state 0 too, not just the epoch-0 ones.
    dev.write(SB_DIR_OFF, &vec![0u8; PAGE_SIZE as usize])?;
    dev.write_pod(epoch_record_off(0), &EpochRecord::from_epoch(layout.epoch(0)))?;
    dev.persist(0, SB_EPOCHS_OFF + EPOCH_RECORD_SIZE)?;
    dev.write_pod(0, &SUPERBLOCK_MAGIC)?;
    dev.persist(0, 8)?;
    Ok(())
}

/// Checks that a header's stored geometry fields match what this build
/// computes for its creation-time capacity and sub-heap count, returning
/// the recomputed single-epoch layout.
fn check_creation_geometry(header: &SuperblockHeader) -> Result<HeapLayout> {
    let recomputed = HeapLayout::compute(header.capacity, header.num_subheaps as u16)?;
    if recomputed.meta_size != header.meta_size
        || recomputed.user_size != header.user_size
        || recomputed.c0 != header.c0
        || recomputed.huge_data_size() != header.huge_data_size
    {
        return Err(PoseidonError::Corrupted("superblock geometry does not match this build"));
    }
    Ok(recomputed)
}

/// Migrates a version-1 image in place: synthesises the epoch-0 record
/// from the creation-time geometry, publishes the count, then bumps the
/// version — in that order, each persisted, so a crash at any point
/// leaves either a still-valid v1 image (re-migrated next open) or a
/// complete v2 image. Idempotent: every attempt writes the same bytes.
fn migrate_v1(dev: &PmemDevice, header: &SuperblockHeader) -> Result<()> {
    let layout = check_creation_geometry(header)?;
    dev.write_pod(epoch_record_off(0), &EpochRecord::from_epoch(layout.epoch(0)))?;
    dev.persist(epoch_record_off(0), EPOCH_RECORD_SIZE)?;
    dev.write_pod(epoch_count_off(), &1u32)?;
    dev.persist(epoch_count_off(), 4)?;
    dev.write_pod(version_off(), &FORMAT_VERSION)?;
    dev.persist(version_off(), 4)?;
    Ok(())
}

/// Loads and validates an existing superblock, reconstructing the heap
/// geometry — the full layout-epoch chain — it carries. Version-1
/// images are migrated to version 2 in place first.
///
/// # Errors
///
/// [`PoseidonError::FormatVersion`] when the stamped version is one this
/// build cannot open; [`PoseidonError::Corrupted`] if the header is
/// missing or inconsistent with the device.
pub(crate) fn load(dev: &PmemDevice) -> Result<(SuperblockHeader, HeapLayout)> {
    let mut header: SuperblockHeader = dev.read_pod(0)?;
    if header.magic != SUPERBLOCK_MAGIC {
        return Err(PoseidonError::Corrupted("no Poseidon superblock on this device"));
    }
    if header.version == FORMAT_VERSION_V1 {
        migrate_v1(dev, &header)?;
        header = dev.read_pod(0)?;
    }
    if header.version != FORMAT_VERSION {
        return Err(PoseidonError::FormatVersion { found: header.version, supported: FORMAT_VERSION });
    }
    if header.heap_id == 0 || header.num_subheaps == 0 || header.num_subheaps > MAX_SUBHEAPS as u32 {
        return Err(PoseidonError::Corrupted("implausible superblock identity"));
    }
    if header.epoch_count == 0 || header.epoch_count as usize > MAX_EPOCHS {
        return Err(PoseidonError::Corrupted("implausible layout-epoch count"));
    }
    // Epoch 0 must reproduce the creation-time geometry this build
    // computes; growth epochs are validated structurally by the chain
    // builder (contiguity, directory bound).
    let recomputed = check_creation_geometry(&header)?;
    let mut epochs = Vec::with_capacity(header.epoch_count as usize);
    for i in 0..header.epoch_count as usize {
        let rec = epoch_record(dev, i)?;
        if rec.state != EPOCH_COMMITTED {
            return Err(PoseidonError::Corrupted(if rec.state == EPOCH_EMPTY {
                "layout-epoch chain shorter than its recorded count"
            } else {
                "uncommitted record inside the layout-epoch chain"
            }));
        }
        epochs.push(rec.to_epoch());
    }
    if epochs[0] != *recomputed.epoch(0) {
        return Err(PoseidonError::Corrupted("epoch-0 record disagrees with the superblock geometry"));
    }
    let layout = HeapLayout::from_epochs(header.meta_size, header.user_size, header.c0, &epochs)?;
    if layout.capacity() > dev.capacity() {
        return Err(PoseidonError::Corrupted("heap larger than the device holding it"));
    }
    Ok((header, layout))
}

/// Size of the on-device epoch-record area.
pub(crate) const EPOCH_AREA_SIZE: u64 = MAX_EPOCHS as u64 * EPOCH_RECORD_SIZE;

/// Conservatively truncates a torn tail of the layout-epoch chain — the
/// `pfsck --repair` pass for images whose superblock undo log was lost
/// to poison mid-grow (an intact log rolls the tear back instead; run
/// the replay first). Keeps the longest structurally valid committed
/// prefix of the recorded chain, rebuilding the epoch-0 record from the
/// creation geometry if even that was zero-filled, and writes the
/// reduced count back. Returns how many trailing epochs were dropped.
pub(crate) fn truncate_torn_epochs(dev: &PmemDevice) -> Result<u32> {
    let header: SuperblockHeader = dev.read_pod(0)?;
    if header.magic != SUPERBLOCK_MAGIC || header.version != FORMAT_VERSION {
        // Nothing to do: v1 images have no chain (load migrates them) and
        // unknown versions fail the load with the typed error.
        return Ok(0);
    }
    let recomputed = check_creation_geometry(&header)?;
    let count = (header.epoch_count as usize).min(MAX_EPOCHS);
    let mut epochs: Vec<Epoch> = Vec::with_capacity(count);
    for i in 0..count {
        let rec = epoch_record(dev, i)?;
        if rec.state != EPOCH_COMMITTED {
            break;
        }
        let epoch = rec.to_epoch();
        if (i == 0 && epoch != *recomputed.epoch(0)) || epoch.capacity > dev.capacity() {
            break;
        }
        let mut candidate = epochs.clone();
        candidate.push(epoch);
        if HeapLayout::from_epochs(header.meta_size, header.user_size, header.c0, &candidate).is_err() {
            break;
        }
        epochs = candidate;
    }
    if epochs.is_empty() {
        dev.write_pod(epoch_record_off(0), &EpochRecord::from_epoch(recomputed.epoch(0)))?;
        dev.persist(epoch_record_off(0), EPOCH_RECORD_SIZE)?;
        epochs.push(*recomputed.epoch(0));
    }
    let target = epochs.len() as u32;
    if header.epoch_count != target {
        dev.write_pod(epoch_count_off(), &target)?;
        dev.persist(epoch_count_off(), 4)?;
    }
    Ok(header.epoch_count.saturating_sub(target))
}

/// Rewrites a closed single-epoch v2 image into the version-1 byte
/// format — no epoch records, no count, version stamp rolled back — so
/// tests can pin the read-old/write-new migration path without shipping
/// a binary fixture. Refuses a grown (multi-epoch) image, which v1
/// cannot express.
pub(crate) fn downgrade_to_v1(dev: &PmemDevice) -> Result<()> {
    let header: SuperblockHeader = dev.read_pod(0)?;
    if header.magic != SUPERBLOCK_MAGIC || header.epoch_count != 1 {
        return Err(PoseidonError::Corrupted("only a single-epoch image downgrades to v1"));
    }
    dev.write(SB_EPOCHS_OFF, &vec![0u8; EPOCH_AREA_SIZE as usize])?;
    dev.persist(SB_EPOCHS_OFF, EPOCH_AREA_SIZE)?;
    dev.write_pod(epoch_count_off(), &0u32)?;
    dev.persist(epoch_count_off(), 4)?;
    dev.write_pod(version_off(), &FORMAT_VERSION_V1)?;
    dev.persist(version_off(), 4)?;
    Ok(())
}

/// Reads the root pointer.
pub(crate) fn root(dev: &PmemDevice) -> Result<NvmPtr> {
    Ok(dev.read_pod(root_off())?)
}

/// Sets the root pointer through the superblock undo log (a 16-byte
/// value cannot be stored atomically, §5.8 machinery covers it).
/// Caller holds the superblock lock and the MPK write guard.
pub(crate) fn set_root(dev: &PmemDevice, ptr: NvmPtr) -> Result<()> {
    commit(dev, &[(root_off(), ptr.as_bytes())])
}

/// Persistently condemns sub-heap `sub` after a live media fault: its
/// directory entry flips to [`DIR_QUARANTINED`] under the superblock
/// undo log's two-fence commit, so the verdict is crash-atomic and
/// every future load sees the sub-heap as quarantined. Caller holds the
/// superblock lock and the MPK write guard. Idempotent.
pub(crate) fn quarantine_subheap(dev: &PmemDevice, sub: u16) -> Result<()> {
    let entry = dir_entry(dev, sub)?;
    if entry.state == DIR_QUARANTINED {
        return Ok(());
    }
    commit(dev, &[(dir_entry_off(sub), DirEntry { state: DIR_QUARANTINED, node: entry.node }.as_bytes())])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::SB_REGION_SIZE;
    use crate::undo;
    use pmem::{AccessKind, CrashMode, DeviceConfig, PmemError};

    fn setup() -> (PmemDevice, HeapLayout) {
        let dev = PmemDevice::new(DeviceConfig::new(64 << 20));
        let layout = HeapLayout::compute(64 << 20, 2).unwrap();
        (dev, layout)
    }

    #[test]
    fn create_then_load_roundtrips_geometry() {
        let (dev, layout) = setup();
        create(&dev, &layout, 0xABCD).unwrap();
        let (header, loaded) = load(&dev).unwrap();
        assert_eq!(header.heap_id, 0xABCD);
        assert_eq!(loaded, layout);
    }

    #[test]
    fn load_rejects_blank_device() {
        let (dev, _) = setup();
        assert!(matches!(load(&dev), Err(PoseidonError::Corrupted(_))));
    }

    #[test]
    fn crash_during_creation_leaves_no_heap() {
        let (dev, layout) = setup();
        // Crash before the magic is persisted.
        dev.arm_crash_after(3);
        let _ = create(&dev, &layout, 0xABCD);
        dev.simulate_crash(CrashMode::Strict, 0);
        assert!(matches!(load(&dev), Err(PoseidonError::Corrupted(_))));
        // Re-creation succeeds.
        create(&dev, &layout, 0xABCD).unwrap();
        load(&dev).unwrap();
    }

    #[test]
    fn root_set_is_crash_atomic() {
        let (dev, layout) = setup();
        create(&dev, &layout, 0xABCD).unwrap();
        set_root(&dev, NvmPtr::new(0xABCD, 1, 64)).unwrap();
        assert_eq!(root(&dev).unwrap().offset(), 64);

        // Interrupt a second update mid-way; replay must restore the old
        // value, never expose a half-written pointer.
        dev.arm_crash_after(4);
        let _ = set_root(&dev, NvmPtr::new(0xABCD, 0, 128));
        dev.simulate_crash(CrashMode::Strict, 0);
        undo::replay(&dev, undo_area()).unwrap();
        let r = root(&dev).unwrap();
        assert!(
            (r.subheap() == 1 && r.offset() == 64) || (r.subheap() == 0 && r.offset() == 128),
            "torn root pointer: {r}"
        );
    }

    #[test]
    fn quarantine_subheap_is_persistent_and_idempotent() {
        let (dev, layout) = setup();
        create(&dev, &layout, 0xABCD).unwrap();
        publish_subheap(&dev, 1, DirEntry { state: 1, node: 7 }).unwrap();
        quarantine_subheap(&dev, 1).unwrap();
        let e = dir_entry(&dev, 1).unwrap();
        assert_eq!(e.state, DIR_QUARANTINED);
        assert_eq!(e.node, 7, "the NUMA node survives condemnation");
        // Idempotent: a second condemnation is a no-op, not an error.
        quarantine_subheap(&dev, 1).unwrap();
        assert_eq!(dir_entry(&dev, 1).unwrap().state, DIR_QUARANTINED);

        // Crash-atomic: interrupt a condemnation of sub-heap 0 mid-way;
        // after replay the entry is either fully old or fully new.
        dev.arm_crash_after(4);
        let _ = quarantine_subheap(&dev, 0);
        dev.simulate_crash(CrashMode::Strict, 0);
        undo::replay(&dev, undo_area()).unwrap();
        let e = dir_entry(&dev, 0).unwrap();
        assert!(e.state == 0 || e.state == DIR_QUARANTINED, "torn directory entry: {}", e.state);
    }

    #[test]
    fn commits_stay_device_backed_past_a_poisoned_line() {
        // Why the superblock's scope runs on the unmapped view: mapping
        // the superblock region refuses a region with any poisoned line,
        // and the superblock has no quarantine to fall back on. With a
        // line poisoned that no commit touches (the last epoch slot),
        // unmapped commits still succeed at the ordinary cost.
        let (dev, layout) = setup();
        create(&dev, &layout, 0xABCD).unwrap();
        publish_subheap(&dev, 1, DirEntry { state: 1, node: 0 }).unwrap();
        dev.poison(epoch_record_off(MAX_EPOCHS - 1), 64).unwrap();
        assert!(matches!(
            dev.map_meta(0, SB_REGION_SIZE, AccessKind::Write),
            Err(PmemError::Uncorrectable { .. })
        ));

        let before = dev.stats();
        set_root(&dev, NvmPtr::new(0xABCD, 1, 64)).unwrap();
        let after = dev.stats();
        assert_eq!(after.sfence_count - before.sfence_count, 3, "set_root fences");
        assert_eq!(after.clwb_count - before.clwb_count, 3, "set_root flushes");
        assert_eq!(root(&dev).unwrap().offset(), 64);

        quarantine_subheap(&dev, 1).unwrap();
        assert_eq!(dir_entry(&dev, 1).unwrap().state, DIR_QUARANTINED);
    }

    /// Rewinds a freshly created v2 image to what a v1 build would have
    /// written: version 1, no epoch count, a virgin epoch-record area.
    fn downgrade_to_v1(dev: &PmemDevice) {
        dev.write_pod(version_off(), &FORMAT_VERSION_V1).unwrap();
        dev.write_pod(epoch_count_off(), &0u32).unwrap();
        dev.write(epoch_record_off(0), &[0u8; 64]).unwrap();
        dev.persist(0, SB_EPOCHS_OFF + EPOCH_RECORD_SIZE).unwrap();
    }

    #[test]
    fn load_migrates_v1_images_in_place() {
        let (dev, layout) = setup();
        create(&dev, &layout, 0xABCD).unwrap();
        downgrade_to_v1(&dev);
        let (header, loaded) = load(&dev).unwrap();
        assert_eq!(header.version, FORMAT_VERSION);
        assert_eq!(header.epoch_count, 1);
        assert_eq!(loaded, layout);
        // The migration is durable: the on-device bytes are v2 now.
        let reread: SuperblockHeader = dev.read_pod(0).unwrap();
        assert_eq!(reread.version, FORMAT_VERSION);
        assert_eq!(epoch_record(&dev, 0).unwrap().state, EPOCH_COMMITTED);
        // And idempotent under a crash mid-migration: re-running from a
        // half-migrated image converges to the same v2 state.
        downgrade_to_v1(&dev);
        dev.arm_crash_after(2);
        let _ = load(&dev);
        dev.simulate_crash(CrashMode::Strict, 0);
        let (header, reloaded) = load(&dev).unwrap();
        assert_eq!(header.version, FORMAT_VERSION);
        assert_eq!(reloaded, layout);
    }

    #[test]
    fn unknown_version_reports_typed_error() {
        let (dev, layout) = setup();
        create(&dev, &layout, 0xABCD).unwrap();
        dev.write_pod(version_off(), &99u32).unwrap();
        dev.persist(version_off(), 4).unwrap();
        match load(&dev) {
            Err(PoseidonError::FormatVersion { found, supported }) => {
                assert_eq!(found, 99);
                assert_eq!(supported, FORMAT_VERSION);
            }
            other => panic!("expected FormatVersion, got {other:?}"),
        }
    }

    #[test]
    fn committed_epoch_extends_the_loaded_chain() {
        let dev = PmemDevice::new(DeviceConfig::new(64 << 20).growable_to(256 << 20));
        let layout = HeapLayout::compute(64 << 20, 2).unwrap();
        create(&dev, &layout, 0xABCD).unwrap();
        // Grow the device and commit a second epoch.
        let epoch = layout.plan_growth(128 << 20).unwrap();
        dev.grow(128 << 20).unwrap();
        commit_epoch(&dev, 1, &epoch).unwrap();
        let (header, loaded) = load(&dev).unwrap();
        assert_eq!(header.epoch_count, 2);
        assert_eq!(loaded.epoch_count(), 2);
        assert_eq!(loaded.capacity(), 128 << 20);
        assert!(loaded.num_subheaps() >= layout.num_subheaps());
    }

    #[test]
    fn torn_trailing_epoch_is_truncated() {
        let dev = PmemDevice::new(DeviceConfig::new(64 << 20).growable_to(256 << 20));
        let layout = HeapLayout::compute(64 << 20, 2).unwrap();
        create(&dev, &layout, 0xABCD).unwrap();
        let epoch = layout.plan_growth(128 << 20).unwrap();
        dev.grow(128 << 20).unwrap();
        commit_epoch(&dev, 1, &epoch).unwrap();
        layout.push_epoch(epoch).unwrap();

        // Simulate a tear the undo log cannot fix (it was lost to
        // poison): the count claims a third epoch whose record never
        // reached media. The load refuses it; truncation drops it.
        dev.write_pod(epoch_count_off(), &3u32).unwrap();
        dev.persist(epoch_count_off(), 4).unwrap();
        assert!(load(&dev).is_err());
        assert_eq!(truncate_torn_epochs(&dev).unwrap(), 1);
        let (header, loaded) = load(&dev).unwrap();
        assert_eq!(header.epoch_count, 2);
        assert_eq!(loaded.capacity(), 128 << 20);

        // A zero-filled record area (poison scrubbed away) keeps no
        // committed prefix at all: epoch 0 is rebuilt from the creation
        // geometry and the growth epoch is dropped.
        dev.write(SB_EPOCHS_OFF, &vec![0u8; EPOCH_AREA_SIZE as usize]).unwrap();
        dev.persist(SB_EPOCHS_OFF, EPOCH_AREA_SIZE).unwrap();
        assert_eq!(truncate_torn_epochs(&dev).unwrap(), 1);
        let (header, loaded) = load(&dev).unwrap();
        assert_eq!(header.epoch_count, 1);
        assert_eq!(loaded.capacity(), 64 << 20);
        assert_eq!(loaded.num_subheaps(), 2);
    }

    #[test]
    fn publish_subheap_is_visible() {
        let (dev, layout) = setup();
        create(&dev, &layout, 0xABCD).unwrap();
        assert_eq!(dir_entry(&dev, 1).unwrap().state, 0);
        publish_subheap(&dev, 1, DirEntry { state: 1, node: 1 }).unwrap();
        let e = dir_entry(&dev, 1).unwrap();
        assert_eq!(e.state, 1);
        assert_eq!(e.node, 1);
    }
}
