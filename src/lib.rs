//! Umbrella crate for the Poseidon (Middleware '20) reproduction.
//!
//! This crate re-exports the workspace's public surface so that examples,
//! integration tests, and downstream users can depend on a single crate:
//!
//! * [`poseidon`] — the paper's contribution: a safe, fast, scalable
//!   persistent memory allocator (per-CPU sub-heaps, fully segregated
//!   MPK-protected metadata, buddy lists, a multi-level hash table, and
//!   undo/micro logging).
//! * [`pmem`] — the simulated NVMM device substrate (cache-line flush/fence
//!   semantics, crash simulation, NUMA model, media poison).
//! * [`mpk`] — the simulated Intel Memory Protection Keys substrate.
//! * [`ptx`] — durable persistent transactions over Poseidon (the
//!   programming model transactional allocation exists to serve).
//! * [`pds`] — crash-consistent persistent data structures (vector,
//!   list, hash map) built on `ptx`.
//! * [`baselines`] — structural models of PMDK `libpmemobj` and Makalu used
//!   as comparison points in the paper's evaluation.
//! * [`workloads`] — the paper's benchmark applications (microbenchmark,
//!   Larson, Ackermann, Kruskal, N-Queens, YCSB over a FAST-FAIR-style
//!   persistent B+-tree).
//!
//! See `README.md` for a quickstart and `DESIGN.md` for the full system
//! inventory and per-experiment index.

pub use baselines;
pub use mpk;
pub use pds;
pub use pmem;
pub use poseidon;
pub use ptx;
pub use workloads;
