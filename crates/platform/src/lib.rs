//! The in-tree platform layer.
//!
//! Every crate in this workspace used to pull six crates.io dependencies
//! (`parking_lot`, `crossbeam`, `rand`, `proptest`, `criterion`, `libc`)
//! for a small slice of each crate's surface. This crate owns those
//! slices (all but `criterion`'s, which the `repro` binary's own timing
//! replaced) directly, on top of `std` alone, so the workspace builds and
//! tests hermetically — and so the primitives the measurement harness
//! depends on (lock guards, per-thread CPU clocks, deterministic RNG
//! streams) are ours to instrument:
//!
//! * [`sync`] — non-poisoning [`Mutex`](sync::Mutex) /
//!   [`RwLock`](sync::RwLock) wrappers and a cache-line-aligned
//!   [`CachePadded`](sync::CachePadded) wrapper.
//! * [`thread`] — scoped spawning ([`thread::scope`]) and the
//!   thread-CPU-time clock ([`thread::cpu_time_ns`]) that lock-hold
//!   accounting and throughput projection are built on.
//! * [`rng`] — a seeded xorshift generator ([`rng::Rng`]) with
//!   `gen_range` / `shuffle` / `fill` APIs; workload op streams are a
//!   pure function of the seed.
//! * [`check`] — a property-testing harness: seeded case generation, an
//!   iteration budget, failing-seed reporting, and shrink-by-halving of
//!   the input size budget.
//! * [`percpu`] — a fixed array of CAS-claimed, cache-padded per-CPU
//!   slots ([`percpu::PerCpuSlots`]), the substrate for transient
//!   per-CPU caches.
//! * [`lockfree`] — bounded lock-free value pools
//!   ([`lockfree::SlotPool`]), ABA-free by storing values rather than
//!   nodes.

#![warn(missing_docs)]

pub mod check;
pub mod lockfree;
pub mod percpu;
pub mod rng;
pub mod sync;
pub mod thread;
