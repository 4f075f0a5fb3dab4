//! `pfsck` — inspect, check, and repair a Poseidon pool image.
//!
//! A `fsck`-style utility for pool files written by
//! [`PmemDevice::save`]: loads the image, runs crash recovery, audits
//! every sub-heap's structural invariants, and prints a report. With
//! `--repair`, an offline [`poseidon::repair`] pass first scrubs
//! poisoned metadata lines and rebuilds what they destroyed (directory
//! entries, sub-heap headers, tombstoned table entries, truncated logs,
//! free lists), then the repaired image is written back in place.
//!
//! ```text
//! pfsck [--verbose] [--defrag] [--repair] <pool-file>
//! ```
//!
//! Exit code 0 = clean (possibly after replaying crash logs or
//! repairing media damage), 1 = the image is corrupt or the root object
//! is lost to an uncorrectable media error, 2 = usage error.

use std::process::ExitCode;
use std::sync::Arc;

use pmem::{DeviceConfig, PmemDevice};
use poseidon::{HeapConfig, PoseidonHeap};

fn main() -> ExitCode {
    let mut verbose = false;
    let mut defrag = false;
    let mut repair = false;
    let mut path = None;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--verbose" | "-v" => verbose = true,
            "--defrag" => defrag = true,
            "--repair" => repair = true,
            other if !other.starts_with('-') => path = Some(other.to_string()),
            other => {
                eprintln!("pfsck: unknown flag {other}");
                return ExitCode::from(2);
            }
        }
    }
    let Some(path) = path else {
        eprintln!("usage: pfsck [--verbose] [--defrag] [--repair] <pool-file>");
        return ExitCode::from(2);
    };

    let dev = match PmemDevice::load(&path, DeviceConfig::new(0)) {
        Ok(dev) => Arc::new(dev),
        Err(e) => {
            eprintln!("pfsck: cannot load {path}: {e}");
            return ExitCode::from(1);
        }
    };
    println!("pool     : {path}");
    println!("capacity : {} MiB ({} MiB resident)", dev.capacity() >> 20, dev.resident_bytes() >> 20);
    if dev.poisoned_lines() > 0 {
        println!("media    : {} uncorrectable cache lines reported by scrub", dev.poisoned_lines());
    }

    if repair {
        match poseidon::repair(&dev) {
            Ok(report) => {
                if report.damage_found() {
                    println!(
                        "repair   : {} lines scrubbed, {} dir entries + {} headers rebuilt, \
                         {} table entries tombstoned, {} logs truncated, {} micro slots reset",
                        report.lines_scrubbed,
                        report.directory_entries_rebuilt,
                        report.headers_rebuilt,
                        report.entries_tombstoned,
                        report.undo_logs_truncated,
                        report.micro_slots_reset,
                    );
                    println!(
                        "repair   : {} blocks ({} KiB) quarantined, {} blocks released from quarantine",
                        report.blocks_quarantined,
                        report.bytes_quarantined >> 10,
                        report.blocks_released,
                    );
                    if report.epochs_truncated > 0 {
                        println!(
                            "repair   : {} torn trailing layout epoch(s) truncated — pool reverts \
                             to its last committed geometry",
                            report.epochs_truncated
                        );
                    }
                    if report.level_sums_mismatched > 0 {
                        println!(
                            "repair   : {} hash-table levels had lost records (identity checksum mismatch)",
                            report.level_sums_mismatched
                        );
                    }
                    if report.huge_header_rebuilt
                        || report.huge_slots_dropped > 0
                        || report.huge_bytes_quarantined > 0
                    {
                        println!(
                            "repair   : huge region — header rebuilt: {}, {} extent slots dropped, \
                             {} KiB quarantined",
                            report.huge_header_rebuilt,
                            report.huge_slots_dropped,
                            report.huge_bytes_quarantined >> 10,
                        );
                    }
                } else {
                    println!(
                        "repair   : no media damage found ({} sub-heaps checked)",
                        report.subheaps_repaired
                    );
                }
            }
            Err(e) => {
                eprintln!("pfsck: REPAIR FAILED (root object lost?): {e}");
                return ExitCode::from(1);
            }
        }
    }

    let heap = match PoseidonHeap::load(dev.clone(), HeapConfig::new()) {
        Ok(heap) => heap,
        Err(e) => {
            eprintln!("pfsck: not a loadable Poseidon heap: {e}");
            return ExitCode::from(1);
        }
    };
    let layout = heap.layout().clone();
    println!("heap id  : {:#018x}", heap.heap_id());
    println!(
        "geometry : {} sub-heaps x ({} KiB metadata + {} MiB user), level-0 table {} entries",
        layout.num_subheaps(),
        layout.meta_size >> 10,
        layout.user_size >> 20,
        layout.c0
    );
    if layout.huge_data_size() > 0 {
        println!(
            "geometry : huge region {} MiB (objects beyond the {} MiB sub-heap cap)",
            layout.huge_data_size() >> 20,
            layout.max_alloc() >> 20
        );
    }
    println!("epochs   : {} committed layout epoch(s)", layout.epoch_count());
    for (i, epoch) in layout.epochs().enumerate() {
        let grown = if i == 0 { "creation" } else { "growth" };
        println!(
            "epoch {i:>3}: {grown:>8} @ {:#x}, +{} MiB (total {} MiB), sub-heaps {}..{}, \
             huge band {} MiB",
            epoch.base,
            (epoch.capacity - epoch.base) >> 20,
            epoch.capacity >> 20,
            epoch.first_subheap,
            epoch.first_subheap + epoch.num_subheaps,
            epoch.huge_size >> 20,
        );
    }
    let report = heap.recovery_report();
    if report.crash_detected() {
        println!(
            "recovery : CRASH DETECTED — superblock undo: {}, sub-heap undos: {}, huge undo: {}, \
             tx allocations reverted: {}",
            report.superblock_undo_replayed,
            report.subheap_undos_replayed,
            report.huge_undo_replayed,
            report.tx_allocations_reverted
        );
    } else {
        println!("recovery : clean shutdown (no logs to replay)");
    }
    if report.media_damage_detected() {
        println!(
            "media    : DAMAGE CONTAINED — {} sub-heaps quarantined wholesale, {} blocks ({} KiB) quarantined",
            report.subheaps_quarantined,
            report.blocks_quarantined,
            report.bytes_quarantined >> 10,
        );
        if report.huge_region_quarantined {
            println!("media    : huge region frozen wholesale — run pfsck --repair to rebuild it");
        } else if report.huge_extents_quarantined > 0 {
            println!(
                "media    : {} huge extents ({} KiB) quarantined",
                report.huge_extents_quarantined,
                report.huge_bytes_quarantined >> 10
            );
        }
    }
    // The live health census, independent of what *this* load found:
    // verdicts condemned online in an earlier session persist in the
    // directory and must show up even when recovery saw no new damage.
    let health = heap.health();
    let quarantined = heap.quarantined_subheaps();
    if !quarantined.is_empty() {
        println!("health   : frozen sub-heaps {quarantined:?} — run pfsck --repair to rebuild them");
    }
    if health.huge_region_quarantined {
        println!("health   : huge region frozen — run pfsck --repair to rebuild it");
    }
    if health.poisoned_lines > 0 {
        println!(
            "health   : {} poisoned lines outstanding ({} free blocks quarantined by this load)",
            health.poisoned_lines, report.blocks_quarantined
        );
    }
    if quarantined.is_empty() && !health.huge_region_quarantined && health.poisoned_lines == 0 {
        println!("health   : all units serving, no outstanding media damage");
    }
    match heap.root() {
        Ok(root) if !root.is_null() => println!("root     : {root}"),
        Ok(_) => println!("root     : (null)"),
        Err(e) => {
            eprintln!("pfsck: unreadable root pointer: {e}");
            return ExitCode::from(1);
        }
    }

    if defrag {
        match heap.defragment() {
            Ok(merges) => println!("defrag   : {merges} buddy merges performed"),
            Err(e) => {
                eprintln!("pfsck: defragmentation failed: {e}");
                return ExitCode::from(1);
            }
        }
    }

    let audits = match heap.audit() {
        Ok(audits) => audits,
        Err(e) => {
            eprintln!("pfsck: STRUCTURAL CORRUPTION: {e}");
            return ExitCode::from(1);
        }
    };
    let frag = match heap.fragmentation() {
        Ok(frag) => frag,
        Err(e) => {
            eprintln!("pfsck: STRUCTURAL CORRUPTION: {e}");
            return ExitCode::from(1);
        }
    };
    let mut total_alloc = 0;
    let mut total_free = 0;
    let mut total_quarantined = 0;
    for (sub, audit) in &audits {
        total_alloc += audit.alloc_bytes;
        total_free += audit.free_bytes;
        total_quarantined += audit.quarantined_bytes;
        // External fragmentation: the share of free bytes a single
        // largest-block allocation cannot use.
        let fragmentation = frag
            .subheaps
            .iter()
            .find(|s| s.subheap == *sub && s.free_bytes > 0)
            .map_or(0.0, |s| 1.0 - s.largest_block as f64 / s.free_bytes as f64);
        println!(
            "subheap {sub:>3}: {:>7} blocks ({:>6} allocated), {:>8} KiB live, {:>8} KiB free, \
             {} levels, {:>5} tombstones, fragmentation {:>5.1}%",
            audit.blocks,
            audit.alloc_blocks,
            audit.alloc_bytes >> 10,
            audit.free_bytes >> 10,
            audit.active_levels,
            audit.tombstones,
            100.0 * fragmentation
        );
        if audit.quarantined_blocks > 0 {
            println!(
                "             {} blocks ({} KiB) quarantined after media errors",
                audit.quarantined_blocks,
                audit.quarantined_bytes >> 10
            );
        }
        if verbose {
            for (class, &count) in audit.free_by_class.iter().enumerate() {
                if count > 0 {
                    println!("             class {class:>2} ({:>9} B): {count} free", 32u64 << class);
                }
            }
        }
    }
    match heap.huge_audit() {
        Ok(Some(huge)) => {
            println!(
                "huge     : {:>7} extents ({:>6} allocated), {:>8} KiB live, {:>8} KiB free, \
                 largest free {} KiB",
                huge.free_extents + huge.alloc_extents + huge.quarantined_extents,
                huge.alloc_extents,
                huge.alloc_bytes >> 10,
                huge.free_bytes >> 10,
                huge.largest_free >> 10,
            );
            if huge.quarantined_extents > 0 {
                println!(
                    "             {} extents ({} KiB) quarantined after media errors",
                    huge.quarantined_extents,
                    huge.quarantined_bytes >> 10
                );
            }
            total_alloc += huge.alloc_bytes;
            total_free += huge.free_bytes;
            total_quarantined += huge.quarantined_bytes;
        }
        Ok(None) => {}
        Err(e) => {
            eprintln!("pfsck: STRUCTURAL CORRUPTION in the huge region: {e}");
            return ExitCode::from(1);
        }
    }
    let quarantine_note = if total_quarantined > 0 {
        format!(", {} KiB quarantined", total_quarantined >> 10)
    } else {
        String::new()
    };
    println!(
        "summary  : {} sub-heaps audited, {} KiB allocated, {} KiB free{quarantine_note} — OK",
        audits.len(),
        total_alloc >> 10,
        total_free >> 10
    );

    if repair {
        if let Err(e) = heap.close() {
            eprintln!("pfsck: cannot close repaired heap: {e}");
            return ExitCode::from(1);
        }
        if let Err(e) = dev.save(&path) {
            eprintln!("pfsck: cannot write repaired image back to {path}: {e}");
            return ExitCode::from(1);
        }
        println!("written  : repaired image saved to {path}");
    }
    ExitCode::SUCCESS
}
