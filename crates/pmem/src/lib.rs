//! Simulated byte-addressable persistent memory (NVMM).
//!
//! The Poseidon paper runs on Intel Optane DC Persistent Memory accessed
//! through a DAX file system: ordinary loads/stores against a memory-mapped
//! region, with durability controlled by `clwb` (flush a cache line) and
//! `sfence` (order/commit flushes). That hardware is not available here, so
//! this crate provides a software device that models the parts that matter
//! to a persistent allocator:
//!
//! * **Explicit cache semantics** — stores land in a modelled CPU cache;
//!   only lines that were `clwb`-flushed *and* then fenced by an `sfence`
//!   of the thread that flushed them are guaranteed to be on media: like
//!   Px86 hardware, a fence commits only its own thread's flushes, and a
//!   store voids every pending flush of its line.
//!   [`PmemDevice::simulate_crash`] reverts everything else (or, in
//!   [`CrashMode::Adversarial`], an arbitrary subset, modelling
//!   spontaneous cache eviction), which makes torn and unflushed states
//!   *testable* — something real hardware cannot offer deterministically.
//! * **MPK page protection** — every page can be tagged with an
//!   [`mpk::ProtectionKey`]; loads and stores consult the executing
//!   thread's simulated `PKRU` and fail with
//!   [`PmemError::ProtectionFault`] instead of SIGSEGV.
//! * **NUMA and traffic accounting** — pages have a home NUMA node,
//!   threads have a current CPU ([`numa::set_current_cpu`]), and the
//!   device counts local/remote traffic plus flushes and fences
//!   ([`StatsSnapshot`]).
//! * **One access path** — every access runs one body in [`MetaView`]:
//!   the device's accessors through an unmapped view that checks each
//!   access in full, sessions through a [mapped](PmemDevice::map_meta)
//!   view validated once.
//! * **Sparse capacity and hole punching** — backing memory materialises on
//!   first write and can be returned with [`PmemDevice::punch_hole`]
//!   (the `fallocate` analogue Poseidon uses to shrink unused metadata).
//!   A crash-tracked store locks only the shard of its 64 KiB granule,
//!   and a flush or fence only the calling thread's own fence domain.
//! * **Crash-point injection** — [`PmemDevice::arm_crash_after`] makes the
//!   device fail after the *n*-th mutation event, so property tests can
//!   crash an allocator at every edge of an operation.
//! * **Media-error (poison) modelling** — cache lines can turn
//!   *uncorrectable* ([`PmemDevice::poison`], or randomized injection via
//!   [`PmemDevice::arm_poison_after`]): reads, read-modify-writes and
//!   flushes of such a line fail with [`PmemError::Uncorrectable`] while
//!   every other line stays usable. Poison is durable — it survives
//!   crashes and snapshot round trips — and is enumerated by
//!   [`PmemDevice::scrub`] (the Address Range Scrub analogue) until
//!   cleared with [`PmemDevice::clear_poison`].
//!
//! All persistent state is addressed by `u64` device offsets; allocators
//! built on this crate never hold native pointers into persistent data.
//! This is deliberate: it means an out-of-bounds store (a "heap overflow")
//! is expressible in safe Rust and really does corrupt whatever neighbours
//! the target — exactly like a C heap overflow through a raw pointer —
//! which the paper's Figure 3 experiments rely on.
//!
//! # Examples
//!
//! ```
//! use pmem::{CrashMode, DeviceConfig, PmemDevice};
//!
//! # fn main() -> Result<(), pmem::PmemError> {
//! let dev = PmemDevice::new(DeviceConfig::small_test());
//!
//! dev.write(0, b"hello")?;
//! dev.persist(0, 5)?; // clwb + sfence
//! dev.write(64, b"world")?; // dirty, never flushed
//!
//! dev.simulate_crash(CrashMode::Strict, 0);
//!
//! let mut buf = [0u8; 5];
//! dev.read(0, &mut buf)?;
//! assert_eq!(&buf, b"hello"); // persisted
//! dev.read(64, &mut buf)?;
//! assert_eq!(buf, [0; 5]); // lost in the crash
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod batch;
mod cache;
pub mod contention;
mod device;
mod error;
pub mod numa;
mod pod;
mod poison;
mod slots;
mod stats;
mod store;
mod view;

pub use batch::FlushBatch;
pub use cache::{CrashMode, LineHasher, CACHE_LINE_SIZE};
pub use contention::{CacheStats, LockProfile, TrackedMutex};
pub use device::{DeviceConfig, PmemDevice, PAGE_SIZE};
pub use error::PmemError;
pub use mpk::AccessKind;
pub use numa::NumaTopology;
pub use pod::Pod;
pub use poison::PoisonRange;
pub use stats::StatsSnapshot;
pub use store::CHUNK_SIZE;
pub use view::MetaView;
