//! # Poseidon — a safe, fast and scalable persistent memory allocator
//!
//! Reproduction of *Poseidon* (Demeri et al., Middleware '20): a
//! persistent memory allocator that is the first to guarantee **complete
//! heap-metadata protection** while remaining fast and manycore-scalable.
//! Its three pillars, all implemented here:
//!
//! * **Per-CPU sub-heaps** (§4.1) — each CPU allocates from its own
//!   sub-heap with its own lock, logs, buddy lists and block table, placed
//!   on the CPU's NUMA node. No global structures on the hot path: a
//!   cached alloc or free hit writes no atomic another thread shares but
//!   the block's residency byte, the CPU's magazine claim flag and, past
//!   the magazine, its sub-heap's transfer pool (its hit count goes to the
//!   calling thread's row of `platform`'s striped counters).
//! * **Fully segregated, MPK-protected metadata** (§4.2–§4.3) — metadata
//!   lives in its own page-aligned region, tagged with an Intel MPK
//!   protection key and writable only between the `wrpkru` pair that
//!   brackets each allocator operation, and only for the executing
//!   thread. Heap overflows, wild stores, and cross-thread bugs get a
//!   protection fault instead of silently corrupting allocation state.
//! * **Block tracking** (§4.4) — a multi-level hash table records every
//!   allocated *and* free block, validating each `free` (rejecting
//!   double/invalid frees) and backing the buddy free lists. Probing it
//!   costs up to one window per active level; once a second level is
//!   active, a DRAM record index per sub-heap turns each lookup or insert
//!   into one hash lookup plus one slot read, without changing where any
//!   record is placed.
//!
//! Crash consistency comes from **undo logging** for every operation and
//! **micro logging** for transactional allocation (§4.5), both replayed
//! idempotently on load (§5.8).
//!
//! Uncorrectable media errors degrade gracefully instead of failing the
//! heap: load-time recovery *quarantines* poisoned free blocks (and, when
//! a sub-heap's metadata itself is damaged, the whole sub-heap) while the
//! rest of the heap keeps allocating, and the offline [`repair`] pass
//! (exposed as `pfsck --repair`) scrubs the poison and rebuilds the
//! damaged metadata. Faults that strike *while serving* are handled
//! online: the operation aborts through its undo log, the damaged unit is
//! live-quarantined persistently, allocations fail over to healthy
//! sub-heaps, and a budgeted background scrubber
//! ([`PoseidonHeap::scrub_step`]) promotes latent poison to quarantine
//! before a user thread trips on it — see [`PoseidonHeap::health`].
//!
//! Deferred buddy coalescing is paid down the same way: the scrubber and
//! incremental defragmentation ([`PoseidonHeap::maint_step`]) are two
//! kinds of visit on one background engine — one cursor over the
//! sub-heaps and the huge region, one budgeted step loop, one step report
//! ([`MaintStep`]) — with [`PoseidonHeap::maint_tick`] letting a serving
//! loop leave the scheduling to its pressure and watermark triggers.
//!
//! This implementation runs on the [`pmem`] simulated-NVMM substrate and
//! the [`mpk`] simulated protection keys (see those crates and `DESIGN.md`
//! for the substitution rationale); the allocator logic itself is exactly
//! the paper's design. The crate is safe Rust throughout: its lazily
//! materialised DRAM index is `platform`'s `LazyArray`.
//!
//! # Quickstart
//!
//! ```
//! use poseidon::{HeapConfig, PoseidonHeap};
//! use pmem::{DeviceConfig, PmemDevice};
//! use std::sync::Arc;
//!
//! # fn main() -> Result<(), poseidon::PoseidonError> {
//! let dev = Arc::new(PmemDevice::new(DeviceConfig::new(64 << 20)));
//! let heap = PoseidonHeap::open(dev, HeapConfig::new().with_subheaps(2))?;
//!
//! // Allocate, write through the device, persist, and anchor at the root.
//! let ptr = heap.alloc(1024)?;
//! let raw = heap.raw_offset(ptr)?;
//! heap.device().write(raw, b"durable bytes")?;
//! heap.device().persist(raw, 13)?;
//! heap.set_root(ptr)?;
//!
//! // Transactional allocation: all-or-nothing across a crash.
//! let a = heap.tx_alloc(64, false)?;
//! let b = heap.tx_alloc(64, true)?; // is_end = true commits
//!
//! heap.free(a)?;
//! heap.free(b)?;
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod backend;
mod buddy;
mod defrag;
mod error;
mod frontend;
#[doc(hidden)]
pub mod fuzz;
mod hashtable;
mod heap;
mod hugeregion;
mod layout;
mod maintenance;
mod microlog;
mod nvmptr;
mod persist;
mod quarantine;
mod recovery;
mod repair;
mod selfheal;
mod session;
mod subheap;
mod superblock;
mod undo;

pub use error::{OpKind, PoseidonError, Result};
pub use heap::{GrowReport, HeapConfig, PoseidonHeap};
pub use hugeregion::HugeAudit;
pub use layout::{
    class_for_size, class_size, Epoch, HeapLayout, Region, MAX_EPOCHS, MAX_SUBHEAPS, MIN_BLOCK, NUM_CLASSES,
};
pub use maintenance::{ClassFrag, FragmentationReport, HugeFrag, MaintStep, SubheapFrag};
pub use nvmptr::{NvmPtr, MAX_OFFSET};
pub use recovery::RecoveryReport;
pub use repair::{repair, RepairReport};
pub use selfheal::HeapHealth;
pub use subheap::SubheapAudit;
