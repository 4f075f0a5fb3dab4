//! Simulated Intel Memory Protection Keys (MPK).
//!
//! Intel MPK tags each page-table entry with one of 16 protection keys and
//! gives every hardware thread a private `PKRU` register holding two bits
//! per key (*access-disable* and *write-disable*). Userspace flips
//! permissions with the unprivileged `wrpkru` instruction in ~23 cycles,
//! without touching the page tables. Poseidon (Middleware '20) uses this to
//! keep its persistent-heap metadata read-only except inside allocator code.
//!
//! Real MPK needs pkey-capable hardware and kernel support, so this crate
//! provides a faithful software model:
//!
//! * [`MpkDomain`] — the per-process key space: 16 keys, key 0 reserved and
//!   always read-write, `pkey_alloc`/`pkey_free`, and the default rights
//!   that a thread starts from (the analogue of the init value Linux gives
//!   `PKRU` for keys allocated with `PKEY_DISABLE_WRITE`).
//! * [`Pkru`] — a per-thread register value, two bits per key, read and
//!   written through the domain (`rdpkru`/`wrpkru`). Each `wrpkru` is
//!   charged [`WRPKRU_CYCLES`] simulated cycles in the domain statistics
//!   ([`MpkStats`]), which the domain keeps in `platform`'s striped rows:
//!   threads issuing `wrpkru` on one domain never share a counter line.
//! * [`PkruGuard`] — an RAII guard that grants the current thread write
//!   access to one key and restores the previous `PKRU` value on drop,
//!   which is exactly how Poseidon brackets its allocation/free paths.
//!
//! Enforcement happens at the memory substrate: the `pmem` crate tags
//! device pages with keys and consults [`MpkDomain::access_allowed`] on
//! every load/store, turning a would-be SIGSEGV into a
//! `ProtectionFault` error.
//!
//! # Examples
//!
//! ```
//! use mpk::{AccessKind, AccessRights, MpkDomain};
//!
//! # fn main() -> Result<(), mpk::MpkError> {
//! let domain = MpkDomain::new();
//! let key = domain.pkey_alloc(AccessRights::ReadOnly)?;
//!
//! // By default the key is read-only on every thread.
//! assert!(domain.access_allowed(key, AccessKind::Read));
//! assert!(!domain.access_allowed(key, AccessKind::Write));
//!
//! // Inside the guard the current thread (and only it) may write.
//! {
//!     let _guard = domain.grant_write(key);
//!     assert!(domain.access_allowed(key, AccessKind::Write));
//! }
//! assert!(!domain.access_allowed(key, AccessKind::Write));
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod guard;
mod keys;
mod pkru;

pub use guard::PkruGuard;
pub use keys::{AccessRights, MpkDomain, MpkError, MpkStats, ProtectionKey, NUM_KEYS};
pub use pkru::{AccessKind, Pkru, WRPKRU_CYCLES};
