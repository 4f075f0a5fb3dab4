//! Crash-fuzz support: undo-chain decoding for the out-of-tree
//! `crashfuzz` harness.
//!
//! Hidden from the public API (`#[doc(hidden)]` at the `mod`
//! declaration): the harness needs to inspect undo-log internals to
//! check the batched-persistence ordering invariant — *a missing or
//! torn log entry implies no target of the operation was mutated* — and
//! nothing else should depend on these details. Chains are decoded with
//! the same `read_entry` validation recovery uses, so the harness and
//! the allocator can never disagree about what counts as a live entry.

use pmem::PmemDevice;

use crate::layout::HeapLayout;
use crate::persist::{HugeCtx, SubCtx};
use crate::superblock;
use crate::undo::{self, UndoArea};

/// One live undo-log entry: the target range's offset and logged
/// pre-image.
#[derive(Debug, Clone)]
pub struct UndoChainEntry {
    /// Device offset the entry would restore.
    pub target: u64,
    /// The logged original bytes.
    pub old: Vec<u8>,
}

/// Decodes the live entry chain of every undo area of a heap with
/// geometry `layout` — the superblock's area first, then one per
/// sub-heap, then (when the layout carves a huge region) the huge
/// region's area. An area that cannot be read (e.g. a poisoned line)
/// decodes to `None`.
///
/// Readable both before and after [`PmemDevice::simulate_crash`]:
/// before, it sees the in-cache (DRAM) chain a crashed operation left
/// behind; after, only what survived to media.
pub fn undo_chains(dev: &PmemDevice, layout: &HeapLayout) -> Vec<Option<Vec<UndoChainEntry>>> {
    let mut areas = vec![superblock::undo_area()];
    for sub in 0..layout.num_subheaps() {
        areas.push(SubCtx { dev, layout, sub }.undo_area());
    }
    if layout.huge_data_size() > 0 {
        areas.push(HugeCtx { dev, layout }.undo_area());
    }
    areas.into_iter().map(|area| decode_chain(dev, area)).collect()
}

/// Rewrites a closed, never-grown pool image into the version-1 byte
/// format (pre-epoch-chain). Test support: integration tests downgrade
/// a freshly created pool, save/reload the bytes, and reopen to pin the
/// v1→v2 migration path. Errors on anything but a clean single-epoch
/// v2 image.
pub fn downgrade_to_v1(dev: &PmemDevice) -> crate::error::Result<()> {
    superblock::downgrade_to_v1(dev)
}

fn decode_chain(dev: &PmemDevice, area: UndoArea) -> Option<Vec<UndoChainEntry>> {
    let view = dev.unmapped_view();
    let gen: u64 = view.read_pod(area.gen_field).ok()?;
    let mut entries = Vec::new();
    let mut pos = 0u64;
    loop {
        match undo::read_entry(&view, area, gen, pos) {
            Ok(Some((target, _len, old, entry_len))) => {
                entries.push(UndoChainEntry { target, old });
                pos += entry_len;
            }
            Ok(None) => break,
            Err(_) => return None, // unreadable area (e.g. poison)
        }
    }
    Some(entries)
}
