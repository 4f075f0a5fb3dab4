//! Protection-key allocation and the per-process key domain.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

use platform::counter;
use platform::counters::StripedCounters;
use platform::sync::Mutex;

use crate::pkru::{read_tls, write_tls, AccessKind, Pkru, WRPKRU_CYCLES};

/// Number of protection keys per domain (Intel MPK provides 16).
pub const NUM_KEYS: u8 = 16;

/// A protection key handle returned by [`MpkDomain::pkey_alloc`].
///
/// Key 0 is the implicit default key of every page and is never returned by
/// allocation, mirroring Linux's `pkey_alloc(2)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ProtectionKey(u8);

impl ProtectionKey {
    /// The default key carried by untagged pages; always fully accessible.
    pub const DEFAULT: ProtectionKey = ProtectionKey(0);

    /// Returns the raw key index (0..16).
    #[inline]
    pub fn index(self) -> u8 {
        self.0
    }

    /// Creates a key handle from a raw index.
    ///
    /// # Errors
    ///
    /// Returns [`MpkError::InvalidKey`] if `index >= NUM_KEYS`.
    pub fn from_index(index: u8) -> Result<ProtectionKey, MpkError> {
        if index < NUM_KEYS {
            Ok(ProtectionKey(index))
        } else {
            Err(MpkError::InvalidKey(index))
        }
    }
}

impl std::fmt::Display for ProtectionKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "pkey{}", self.0)
    }
}

/// Initial access rights installed in the domain's default `PKRU` when a
/// key is allocated — the analogue of `pkey_alloc(2)`'s `init_access_rights`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum AccessRights {
    /// Reads and writes allowed (no disable bits).
    #[default]
    ReadWrite,
    /// Reads allowed, writes fault (`PKEY_DISABLE_WRITE`).
    ReadOnly,
    /// All accesses fault (`PKEY_DISABLE_ACCESS`).
    None,
}

/// Errors reported by the MPK model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MpkError {
    /// All 15 allocatable keys are in use.
    OutOfKeys,
    /// The key index is out of range or refers to an unallocated key.
    InvalidKey(u8),
}

impl std::fmt::Display for MpkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MpkError::OutOfKeys => f.write_str("no free protection keys (16 per domain, key 0 reserved)"),
            MpkError::InvalidKey(k) => write!(f, "invalid protection key index {k}"),
        }
    }
}

impl std::error::Error for MpkError {}

platform::counter_struct! {
    /// Counters describing protection activity inside a domain. The
    /// domain keeps `wrpkru_count` and `violations` in striped rows, one
    /// per thread stripe; `wrpkru_cycles` follows from `wrpkru_count`.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
    pub struct MpkStats {
        /// Number of `wrpkru` executions (permission changes).
        pub wrpkru_count: u64,
        /// Simulated cycles spent in `wrpkru` ([`WRPKRU_CYCLES`] each).
        pub wrpkru_cycles: u64,
        /// Number of denied accesses observed through [`MpkDomain::access_allowed`].
        pub violations: u64,
    }
}

/// A process-like protection-key domain: 16 keys, a default `PKRU`
/// template for fresh threads, and per-thread registers accessed through
/// `rdpkru`/`wrpkru`.
///
/// The `pmem` crate holds one domain per simulated device and consults it on
/// every guarded access. See the [crate docs](crate) for an example.
#[derive(Debug)]
pub struct MpkDomain {
    id: u64,
    /// Bitmap of allocated keys; bit 0 (the default key) is always set.
    allocated: Mutex<u16>,
    /// The `PKRU` value a thread starts from the first time it touches this
    /// domain.
    default_pkru: AtomicU32,
    stats: StripedCounters<MpkStats, 3>,
}

static NEXT_DOMAIN_ID: AtomicU64 = AtomicU64::new(1);

impl MpkDomain {
    /// Creates a fresh domain with all 15 allocatable keys free and an
    /// all-access default `PKRU`.
    pub fn new() -> MpkDomain {
        MpkDomain {
            id: NEXT_DOMAIN_ID.fetch_add(1, Ordering::Relaxed),
            allocated: Mutex::new(1),
            default_pkru: AtomicU32::new(Pkru::ALL_ACCESS.0),
            stats: StripedCounters::new(),
        }
    }

    /// Returns the unique id of this domain (used to index the per-thread
    /// register file).
    #[inline]
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Allocates a protection key and installs `rights` for it in the
    /// domain's default `PKRU`, so that *every* thread — current and future —
    /// observes those rights until it explicitly executes `wrpkru`.
    ///
    /// Note this is slightly stronger than Linux, where `init_access_rights`
    /// only affects the calling thread; Poseidon additionally re-disables
    /// write access at the end of every allocator operation, so the two
    /// models agree in steady state. We adopt the stronger default so that
    /// threads spawned before heap initialisation are also protected.
    ///
    /// # Errors
    ///
    /// Returns [`MpkError::OutOfKeys`] if all 15 keys are allocated.
    pub fn pkey_alloc(&self, rights: AccessRights) -> Result<ProtectionKey, MpkError> {
        let mut allocated = self.allocated.lock();
        for key in 1..NUM_KEYS {
            let bit = 1u16 << key;
            if *allocated & bit == 0 {
                *allocated |= bit;
                let mut default = Pkru(self.default_pkru.load(Ordering::Relaxed));
                default = match rights {
                    AccessRights::ReadWrite => default.with_key_writable(key),
                    AccessRights::ReadOnly => default.with_key_read_only(key),
                    AccessRights::None => default.with_key_no_access(key),
                };
                self.default_pkru.store(default.0, Ordering::Relaxed);
                return Ok(ProtectionKey(key));
            }
        }
        Err(MpkError::OutOfKeys)
    }

    /// Releases a key allocated with [`pkey_alloc`](Self::pkey_alloc) and
    /// resets its default rights to all-access.
    ///
    /// # Errors
    ///
    /// Returns [`MpkError::InvalidKey`] for key 0 or a key that is not
    /// currently allocated.
    pub fn pkey_free(&self, key: ProtectionKey) -> Result<(), MpkError> {
        if key.index() == 0 {
            return Err(MpkError::InvalidKey(0));
        }
        let mut allocated = self.allocated.lock();
        let bit = 1u16 << key.index();
        if *allocated & bit == 0 {
            return Err(MpkError::InvalidKey(key.index()));
        }
        *allocated &= !bit;
        let default = Pkru(self.default_pkru.load(Ordering::Relaxed)).with_key_writable(key.index());
        self.default_pkru.store(default.0, Ordering::Relaxed);
        Ok(())
    }

    /// Reads the calling thread's `PKRU` value for this domain.
    #[inline]
    pub fn rdpkru(&self) -> Pkru {
        Pkru(read_tls(self.id, self.default_pkru.load(Ordering::Relaxed)))
    }

    /// Writes the calling thread's `PKRU` value, charging the simulated
    /// `wrpkru` cost.
    #[inline]
    pub fn wrpkru(&self, value: Pkru) {
        self.stats.add([(counter!(MpkStats, wrpkru_count), 1)]);
        write_tls(self.id, value.0);
    }

    /// Returns whether the calling thread may perform a `kind` access to a
    /// page tagged with `key`. A denial is counted in [`MpkStats::violations`].
    #[inline]
    pub fn access_allowed(&self, key: ProtectionKey, kind: AccessKind) -> bool {
        if key.index() == 0 {
            return true;
        }
        let ok = self.rdpkru().allows(key.index(), kind);
        if !ok {
            self.stats.add([(counter!(MpkStats, violations), 1)]);
        }
        ok
    }

    /// Returns a snapshot of the domain's protection-activity counters.
    pub fn stats(&self) -> MpkStats {
        let stats = self.stats.snapshot();
        MpkStats { wrpkru_cycles: stats.wrpkru_count * WRPKRU_CYCLES, ..stats }
    }

    /// Returns the default `PKRU` value for threads that have not executed
    /// `wrpkru` in this domain.
    pub fn default_pkru(&self) -> Pkru {
        Pkru(self.default_pkru.load(Ordering::Relaxed))
    }
}

impl Default for MpkDomain {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_assigns_distinct_keys_and_exhausts_at_15() {
        let d = MpkDomain::new();
        let mut seen = std::collections::HashSet::new();
        for _ in 0..15 {
            let k = d.pkey_alloc(AccessRights::ReadWrite).unwrap();
            assert!(k.index() >= 1 && k.index() < 16);
            assert!(seen.insert(k));
        }
        assert_eq!(d.pkey_alloc(AccessRights::ReadWrite), Err(MpkError::OutOfKeys));
    }

    #[test]
    fn free_makes_key_reusable() {
        let d = MpkDomain::new();
        let k = d.pkey_alloc(AccessRights::ReadOnly).unwrap();
        d.pkey_free(k).unwrap();
        let k2 = d.pkey_alloc(AccessRights::ReadWrite).unwrap();
        assert_eq!(k, k2);
    }

    #[test]
    fn cannot_free_default_or_unallocated_key() {
        let d = MpkDomain::new();
        assert_eq!(d.pkey_free(ProtectionKey::DEFAULT), Err(MpkError::InvalidKey(0)));
        assert_eq!(d.pkey_free(ProtectionKey::from_index(5).unwrap()), Err(MpkError::InvalidKey(5)));
    }

    #[test]
    fn read_only_key_blocks_writes_by_default() {
        let d = MpkDomain::new();
        let k = d.pkey_alloc(AccessRights::ReadOnly).unwrap();
        assert!(d.access_allowed(k, AccessKind::Read));
        assert!(!d.access_allowed(k, AccessKind::Write));
        assert_eq!(d.stats().violations, 1);
    }

    #[test]
    fn default_key_always_accessible() {
        let d = MpkDomain::new();
        assert!(d.access_allowed(ProtectionKey::DEFAULT, AccessKind::Write));
    }

    #[test]
    fn wrpkru_is_thread_local() {
        let d = std::sync::Arc::new(MpkDomain::new());
        let k = d.pkey_alloc(AccessRights::ReadOnly).unwrap();
        // Grant write on this thread.
        d.wrpkru(d.rdpkru().with_key_writable(k.index()));
        assert!(d.access_allowed(k, AccessKind::Write));
        // Another thread still sees the read-only default.
        let d2 = d.clone();
        std::thread::spawn(move || {
            assert!(!d2.access_allowed(k, AccessKind::Write));
        })
        .join()
        .unwrap();
        // And this thread keeps its grant.
        assert!(d.access_allowed(k, AccessKind::Write));
    }

    #[test]
    fn stats_count_wrpkru_and_cycles() {
        let d = MpkDomain::new();
        d.wrpkru(Pkru::ALL_ACCESS);
        d.wrpkru(Pkru::ALL_ACCESS);
        let s = d.stats();
        assert_eq!(s.wrpkru_count, 2);
        assert_eq!(s.wrpkru_cycles, 2 * WRPKRU_CYCLES);
    }

    /// Two threads each bracket `GUARDS` writes in a guard (two
    /// `wrpkru`s per guard) and trip a read-only key once: the summed rows
    /// count every `wrpkru` and every violation.
    #[test]
    fn two_threads_count_every_wrpkru() {
        const GUARDS: u64 = 5_000;
        let d = MpkDomain::new();
        let k = d.pkey_alloc(AccessRights::ReadOnly).unwrap();
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    for _ in 0..GUARDS {
                        let _guard = d.grant_write(k);
                        assert!(d.access_allowed(k, AccessKind::Write));
                    }
                    assert!(!d.access_allowed(k, AccessKind::Write));
                });
            }
        });
        let s = d.stats();
        assert_eq!(s.wrpkru_count, 2 * 2 * GUARDS);
        assert_eq!(s.wrpkru_cycles, 2 * 2 * GUARDS * WRPKRU_CYCLES);
        assert_eq!(s.violations, 2);
    }

    #[test]
    fn none_rights_disable_reads() {
        let d = MpkDomain::new();
        let k = d.pkey_alloc(AccessRights::None).unwrap();
        assert!(!d.access_allowed(k, AccessKind::Read));
        assert!(!d.access_allowed(k, AccessKind::Write));
    }
}
