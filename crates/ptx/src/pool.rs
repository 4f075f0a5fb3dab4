//! The transactional pool and its persistent descriptor.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use pmem::{pod_struct, Pod};
use poseidon::{NvmPtr, PoseidonError, PoseidonHeap};

use crate::error::PtxError;

/// Number of concurrently open transactions a pool supports (one
/// descriptor context each, mirroring PMDK's per-thread transactions).
pub const TX_CONTEXTS: usize = 8;
/// Bytes per transaction context (header + journals + undo area).
const CTX_BYTES: u64 = 64 * 1024;
/// Offset of the first context within the descriptor.
const CTX0_OFF: u64 = 0x1000;
/// Size of the pool descriptor block allocated from the heap.
const DESCR_BYTES: u64 = CTX0_OFF + TX_CONTEXTS as u64 * CTX_BYTES;
/// Context-relative offset of the allocation journal.
const ALLOC_JOURNAL_OFF: u64 = 0x40;
/// Context-relative offset of the free-intent journal.
const FREE_JOURNAL_OFF: u64 = 0x1040;
/// Context-relative offset of the user-data undo journal.
const UNDO_OFF: u64 = 0x2040;
/// Capacity of one context's user-data undo journal in bytes.
const UNDO_CAPACITY: u64 = CTX_BYTES - UNDO_OFF;
/// Entries per alloc/free journal.
const JOURNAL_SLOTS: usize = 256;

const STATE_IDLE: u64 = 0;
const STATE_ACTIVE: u64 = 1;
const STATE_COMMITTED: u64 = 2;

const DESCR_MAGIC: u64 = 0x5054_5844_4553_4352; // "PTXDESCR"

pod_struct! {
    /// The persistent pool descriptor header.
    pub struct DescriptorHeader {
        /// [`DESCR_MAGIC`].
        pub magic: u64,
        /// Number of transaction contexts in this descriptor.
        pub contexts: u64,
        /// The application's root pointer.
        pub app_root: NvmPtr,
    }
}

pod_struct! {
    /// The persistent header of one transaction context.
    pub struct CtxHeader {
        /// Transaction state: idle / active / committed.
        pub state: u64,
        /// Live entries in the allocation journal.
        pub alloc_count: u64,
        /// Live entries in the free-intent journal.
        pub free_count: u64,
        /// Bytes used in the user-data undo journal.
        pub undo_bytes: u64,
    }
}

/// What [`PtxPool::open`] found and repaired.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PtxRecovery {
    /// Transactions interrupted before their commit point and rolled back.
    pub rolled_back: u64,
    /// User-data undo entries restored across them.
    pub writes_reverted: u64,
    /// Transactional allocations released across them.
    pub allocs_reverted: u64,
    /// Transactions that crashed after their commit point and were
    /// completed (deferred frees executed).
    pub rolled_forward: u64,
}

impl PtxRecovery {
    /// Whether the previous session left interrupted transactions.
    pub fn crash_detected(&self) -> bool {
        self.rolled_back > 0 || self.rolled_forward > 0
    }
}

/// A pool of persistent transactions over a [`PoseidonHeap`].
///
/// Up to [`TX_CONTEXTS`] transactions run concurrently, each on its own
/// persistent context (journals + state word) inside the descriptor block
/// anchored at the heap's root pointer. Applications anchor *their* data
/// via [`Ptx::set_root`] / [`PtxPool::root`].
///
/// Do not nest [`run`](Self::run) calls on one thread: the inner
/// transaction would claim a second context while the allocator's
/// per-thread transactional-allocation state is already in use.
pub struct PtxPool {
    heap: Arc<PoseidonHeap>,
    /// Device offset of the descriptor block.
    descr: u64,
    /// Bitmap of claimed transaction contexts.
    claimed: AtomicU32,
    recovery: PtxRecovery,
}

impl std::fmt::Debug for PtxPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PtxPool").field("descr", &self.descr).finish_non_exhaustive()
    }
}

impl PtxPool {
    /// Creates a fresh pool on `heap`: allocates the descriptor block and
    /// anchors it at the heap's root pointer.
    ///
    /// # Errors
    ///
    /// [`PtxError::RootOccupied`] if the heap root is already set (open
    /// the existing pool instead), or allocator errors.
    pub fn create(heap: Arc<PoseidonHeap>) -> Result<PtxPool, PtxError> {
        if !heap.root()?.is_null() {
            return Err(PtxError::RootOccupied);
        }
        let descr_ptr = heap.alloc(DESCR_BYTES)?;
        let descr = heap.raw_offset(descr_ptr)?;
        let dev = heap.device();
        let header =
            DescriptorHeader { magic: DESCR_MAGIC, contexts: TX_CONTEXTS as u64, app_root: NvmPtr::NULL };
        dev.write_pod(descr, &header)?;
        dev.persist(descr, std::mem::size_of::<DescriptorHeader>() as u64)?;
        for ctx in 0..TX_CONTEXTS {
            let ctx_off = descr + CTX0_OFF + ctx as u64 * CTX_BYTES;
            dev.write_pod(ctx_off, &CtxHeader::zeroed())?;
            dev.persist(ctx_off, std::mem::size_of::<CtxHeader>() as u64)?;
        }
        heap.set_root(descr_ptr)?;
        Ok(PtxPool { heap, descr, claimed: AtomicU32::new(0), recovery: PtxRecovery::default() })
    }

    /// Opens the pool anchored at `heap`'s root pointer, completing or
    /// rolling back every transaction a crash interrupted. Idempotent: a
    /// crash during this recovery is healed by the next `open`.
    ///
    /// # Errors
    ///
    /// [`PtxError::NoDescriptor`] if the root does not lead to a valid
    /// descriptor, or allocator errors.
    pub fn open(heap: Arc<PoseidonHeap>) -> Result<PtxPool, PtxError> {
        let descr_ptr = heap.root()?;
        if descr_ptr.is_null() {
            return Err(PtxError::NoDescriptor);
        }
        let descr = heap.raw_offset(descr_ptr)?;
        let header: DescriptorHeader = heap.device().read_pod(descr)?;
        if header.magic != DESCR_MAGIC || header.contexts != TX_CONTEXTS as u64 {
            return Err(PtxError::NoDescriptor);
        }
        let mut pool = PtxPool { heap, descr, claimed: AtomicU32::new(0), recovery: PtxRecovery::default() };
        let mut report = PtxRecovery::default();
        for ctx in 0..TX_CONTEXTS {
            let ctx_header: CtxHeader = pool.heap.device().read_pod(pool.ctx_off(ctx))?;
            match ctx_header.state {
                STATE_ACTIVE => {
                    let (writes, allocs) = pool.roll_back(ctx, &ctx_header)?;
                    report.rolled_back += 1;
                    report.writes_reverted += writes;
                    report.allocs_reverted += allocs;
                }
                STATE_COMMITTED => {
                    pool.roll_forward(ctx, &ctx_header)?;
                    report.rolled_forward += 1;
                }
                _ => {}
            }
        }
        pool.recovery = report;
        Ok(pool)
    }

    /// What recovery found when this pool was opened.
    pub fn recovery_report(&self) -> PtxRecovery {
        self.recovery
    }

    /// The heap this pool transacts on.
    pub fn heap(&self) -> &Arc<PoseidonHeap> {
        &self.heap
    }

    /// The application's root pointer.
    ///
    /// # Errors
    ///
    /// Device errors.
    pub fn root(&self) -> Result<NvmPtr, PtxError> {
        let header: DescriptorHeader = self.heap.device().read_pod(self.descr)?;
        Ok(header.app_root)
    }

    /// Runs `f` as a persistent transaction: every
    /// [`Ptx::alloc`]/[`write`](Ptx::write)/[`free`](Ptx::free)/
    /// [`set_root`](Ptx::set_root) inside it becomes durable atomically
    /// when `f` returns `Ok`, and is fully undone when `f` returns `Err`
    /// (or the process crashes at any instant). Up to [`TX_CONTEXTS`]
    /// transactions run concurrently.
    ///
    /// # Errors
    ///
    /// The closure's error (after rollback), [`PtxError::JournalFull`]
    /// when all contexts are claimed, or transaction-machinery errors.
    pub fn run<R>(&self, f: impl FnOnce(&mut Ptx<'_>) -> Result<R, PtxError>) -> Result<R, PtxError> {
        let ctx = self.claim_ctx()?;
        // Begin: mark active before any journaled effect.
        let result = self.write_ctx_field(ctx, offset_of_state(), &STATE_ACTIVE).and_then(|()| {
            let mut tx = Ptx { pool: self, ctx, dirty: Vec::new(), finished: false };
            match f(&mut tx) {
                Ok(value) => {
                    tx.commit()?;
                    Ok(value)
                }
                Err(error) => {
                    tx.rollback()?;
                    Err(error)
                }
            }
        });
        self.release_ctx(ctx);
        result
    }

    fn claim_ctx(&self) -> Result<usize, PtxError> {
        loop {
            let current = self.claimed.load(Ordering::Acquire);
            let free = (!current).trailing_zeros() as usize;
            if free >= TX_CONTEXTS {
                return Err(PtxError::JournalFull { max: TX_CONTEXTS });
            }
            if self
                .claimed
                .compare_exchange(current, current | (1 << free), Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                return Ok(free);
            }
        }
    }

    fn release_ctx(&self, ctx: usize) {
        self.claimed.fetch_and(!(1u32 << ctx), Ordering::AcqRel);
    }

    /// Device offset of context `ctx`'s header.
    fn ctx_off(&self, ctx: usize) -> u64 {
        self.descr + CTX0_OFF + ctx as u64 * CTX_BYTES
    }

    fn write_ctx_field<T: Pod>(&self, ctx: usize, field_off: u64, value: &T) -> Result<(), PtxError> {
        let dev = self.heap.device();
        dev.write_pod(self.ctx_off(ctx) + field_off, value)?;
        dev.persist(self.ctx_off(ctx) + field_off, std::mem::size_of::<T>() as u64)?;
        Ok(())
    }

    fn journal_slot(&self, ctx: usize, journal_off: u64, index: u64) -> u64 {
        self.ctx_off(ctx) + journal_off + index * 16
    }

    /// Restores user writes (reverse order), releases journaled
    /// allocations, truncates everything, returns the context to idle.
    fn roll_back(&self, ctx: usize, header: &CtxHeader) -> Result<(u64, u64), PtxError> {
        let dev = self.heap.device();
        let undo_base = self.ctx_off(ctx) + UNDO_OFF;
        let mut entries = Vec::new();
        let mut pos = 0u64;
        while pos + 16 <= header.undo_bytes {
            let target: u64 = dev.read_pod(undo_base + pos)?;
            let len: u64 = dev.read_pod(undo_base + pos + 8)?;
            if len > UNDO_CAPACITY || pos + 16 + len.next_multiple_of(8) > header.undo_bytes {
                break; // torn tail entry: its target was never written
            }
            let mut old = vec![0u8; len as usize];
            dev.read(undo_base + pos + 16, &mut old)?;
            entries.push((target, old));
            pos += 16 + len.next_multiple_of(8);
        }
        let writes = entries.len() as u64;
        for (target, old) in entries.iter().rev() {
            dev.write(*target, old)?;
            dev.clwb(*target, old.len() as u64)?;
        }
        dev.sfence()?;
        // Release the transaction's allocations (poseidon's own micro-log
        // recovery may have freed some already — tolerated). A block whose
        // sub-heap was condemned, or that sits inside fresh media damage,
        // cannot be freed — its bytes are already inside the quarantined
        // unit, so skipping it loses nothing.
        let mut allocs = 0;
        for i in 0..header.alloc_count.min(JOURNAL_SLOTS as u64) {
            let ptr: NvmPtr = dev.read_pod(self.journal_slot(ctx, ALLOC_JOURNAL_OFF, i))?;
            match self.heap.free(ptr) {
                Ok(()) => allocs += 1,
                Err(PoseidonError::DoubleFree { .. })
                | Err(PoseidonError::InvalidFree { .. })
                | Err(PoseidonError::SubheapQuarantined { .. })
                | Err(PoseidonError::MediaError { .. }) => {}
                Err(e) => return Err(e.into()),
            }
        }
        self.truncate_to_idle(ctx)?;
        Ok((writes, allocs))
    }

    /// Completes a committed transaction: executes the deferred frees and
    /// truncates the context's journals.
    fn roll_forward(&self, ctx: usize, header: &CtxHeader) -> Result<u64, PtxError> {
        let dev = self.heap.device();
        let mut frees = 0;
        for i in 0..header.free_count.min(JOURNAL_SLOTS as u64) {
            let ptr: NvmPtr = dev.read_pod(self.journal_slot(ctx, FREE_JOURNAL_OFF, i))?;
            match self.heap.free(ptr) {
                Ok(()) => frees += 1,
                // Already freed by recovery, or unreachable inside a
                // quarantined/damaged unit — the deferred free is moot.
                Err(PoseidonError::DoubleFree { .. })
                | Err(PoseidonError::InvalidFree { .. })
                | Err(PoseidonError::SubheapQuarantined { .. })
                | Err(PoseidonError::MediaError { .. }) => {}
                Err(e) => return Err(e.into()),
            }
        }
        self.truncate_to_idle(ctx)?;
        Ok(frees)
    }

    fn truncate_to_idle(&self, ctx: usize) -> Result<(), PtxError> {
        self.write_ctx_field(ctx, offset_of_alloc_count(), &0u64)?;
        self.write_ctx_field(ctx, offset_of_free_count(), &0u64)?;
        self.write_ctx_field(ctx, offset_of_undo_bytes(), &0u64)?;
        self.write_ctx_field(ctx, offset_of_state(), &STATE_IDLE)?;
        Ok(())
    }
}

fn offset_of_state() -> u64 {
    std::mem::offset_of!(CtxHeader, state) as u64
}
fn offset_of_app_root() -> u64 {
    std::mem::offset_of!(DescriptorHeader, app_root) as u64
}
fn offset_of_alloc_count() -> u64 {
    std::mem::offset_of!(CtxHeader, alloc_count) as u64
}
fn offset_of_free_count() -> u64 {
    std::mem::offset_of!(CtxHeader, free_count) as u64
}
fn offset_of_undo_bytes() -> u64 {
    std::mem::offset_of!(CtxHeader, undo_bytes) as u64
}

/// An open persistent transaction. See [`PtxPool::run`].
pub struct Ptx<'p> {
    pool: &'p PtxPool,
    ctx: usize,
    /// User ranges written this transaction (persisted at commit).
    dirty: Vec<(u64, u64)>,
    finished: bool,
}

impl std::fmt::Debug for Ptx<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ptx")
            .field("ctx", &self.ctx)
            .field("dirty_ranges", &self.dirty.len())
            .finish_non_exhaustive()
    }
}

impl Ptx<'_> {
    /// The heap this transaction operates on. Raw device writes through
    /// it are *not* journaled — use them only on blocks allocated inside
    /// this transaction and not yet published (an abort discards those
    /// wholesale via the allocation journal).
    pub fn heap(&self) -> &Arc<PoseidonHeap> {
        &self.pool.heap
    }

    fn ctx_header(&self) -> Result<CtxHeader, PtxError> {
        Ok(self.pool.heap.device().read_pod(self.pool.ctx_off(self.ctx))?)
    }

    /// Allocates `size` bytes transactionally: reclaimed on abort or
    /// crash, durable at commit.
    ///
    /// # Errors
    ///
    /// Allocator errors, or [`PtxError::JournalFull`].
    pub fn alloc(&mut self, size: u64) -> Result<NvmPtr, PtxError> {
        let header = self.ctx_header()?;
        if header.alloc_count as usize >= JOURNAL_SLOTS {
            return Err(PtxError::JournalFull { max: JOURNAL_SLOTS });
        }
        let ptr = self.pool.heap.tx_alloc(size, false)?;
        let dev = self.pool.heap.device();
        let slot = self.pool.journal_slot(self.ctx, ALLOC_JOURNAL_OFF, header.alloc_count);
        dev.write_pod(slot, &ptr)?;
        dev.persist(slot, 16)?;
        self.pool.write_ctx_field(self.ctx, offset_of_alloc_count(), &(header.alloc_count + 1))?;
        Ok(ptr)
    }

    /// Registers `ptr` to be freed when the transaction commits. The
    /// block stays fully usable until then, and stays allocated if the
    /// transaction aborts.
    ///
    /// # Errors
    ///
    /// [`PoseidonError::InvalidFree`]-class errors for dead pointers, or
    /// [`PtxError::JournalFull`].
    pub fn free(&mut self, ptr: NvmPtr) -> Result<(), PtxError> {
        // Validate now so the commit-time free cannot fail.
        self.pool.heap.block_size(ptr)?;
        let header = self.ctx_header()?;
        if header.free_count as usize >= JOURNAL_SLOTS {
            return Err(PtxError::JournalFull { max: JOURNAL_SLOTS });
        }
        let dev = self.pool.heap.device();
        let slot = self.pool.journal_slot(self.ctx, FREE_JOURNAL_OFF, header.free_count);
        dev.write_pod(slot, &ptr)?;
        dev.persist(slot, 16)?;
        self.pool.write_ctx_field(self.ctx, offset_of_free_count(), &(header.free_count + 1))?;
        Ok(())
    }

    /// Transactionally writes `bytes` at byte `offset` inside the block
    /// at `ptr`: the overwritten bytes are journaled first, so abort or
    /// crash restores them.
    ///
    /// Concurrent transactions writing the *same* bytes race (as in any
    /// transactional memory without conflict detection); coordinate at
    /// the data-structure level.
    ///
    /// # Errors
    ///
    /// [`PtxError::WriteOutOfBlock`], [`PtxError::UndoFull`], or
    /// allocator/device errors.
    pub fn write(&mut self, ptr: NvmPtr, offset: u64, bytes: &[u8]) -> Result<(), PtxError> {
        let block = self.pool.heap.block_size(ptr)?;
        let len = bytes.len() as u64;
        if offset + len > block {
            return Err(PtxError::WriteOutOfBlock { offset, len, block });
        }
        let target = self.pool.heap.raw_offset(ptr)? + offset;
        self.log_and_write(target, bytes)
    }

    /// [`write`](Self::write) of a [`Pod`] value.
    ///
    /// # Errors
    ///
    /// As for [`write`](Self::write).
    pub fn write_pod<T: Pod>(&mut self, ptr: NvmPtr, offset: u64, value: &T) -> Result<(), PtxError> {
        self.write(ptr, offset, value.as_bytes())
    }

    /// Transactionally updates the application root pointer.
    ///
    /// # Errors
    ///
    /// Allocator/device errors or a full undo journal.
    pub fn set_root(&mut self, ptr: NvmPtr) -> Result<(), PtxError> {
        let target = self.pool.descr + offset_of_app_root();
        self.log_and_write(target, ptr.as_bytes())
    }

    /// Reads a [`Pod`] value from byte `offset` of the block at `ptr`
    /// (transactions read their own writes — writes go straight to the
    /// device after journaling).
    ///
    /// # Errors
    ///
    /// [`PtxError::WriteOutOfBlock`] (bounds) or device errors.
    pub fn read_pod<T: Pod>(&self, ptr: NvmPtr, offset: u64) -> Result<T, PtxError> {
        let block = self.pool.heap.block_size(ptr)?;
        let len = std::mem::size_of::<T>() as u64;
        if offset + len > block {
            return Err(PtxError::WriteOutOfBlock { offset, len, block });
        }
        Ok(self.pool.heap.device().read_pod(self.pool.heap.raw_offset(ptr)? + offset)?)
    }

    fn log_and_write(&mut self, target: u64, bytes: &[u8]) -> Result<(), PtxError> {
        let header = self.ctx_header()?;
        let len = bytes.len() as u64;
        let entry_len = 16 + len.next_multiple_of(8);
        if header.undo_bytes + entry_len > UNDO_CAPACITY {
            return Err(PtxError::UndoFull { capacity: UNDO_CAPACITY });
        }
        let dev = self.pool.heap.device();
        // Build the entry: header + old image.
        let mut entry = vec![0u8; entry_len as usize];
        entry[0..8].copy_from_slice(&target.to_le_bytes());
        entry[8..16].copy_from_slice(&len.to_le_bytes());
        dev.read(target, &mut entry[16..16 + bytes.len()])?;
        let entry_off = self.pool.ctx_off(self.ctx) + UNDO_OFF + header.undo_bytes;
        dev.write(entry_off, &entry)?;
        dev.persist(entry_off, entry_len)?;
        self.pool.write_ctx_field(self.ctx, offset_of_undo_bytes(), &(header.undo_bytes + entry_len))?;
        // The mutation itself; durable at commit.
        dev.write(target, bytes)?;
        self.dirty.push((target, len));
        Ok(())
    }

    fn commit(&mut self) -> Result<(), PtxError> {
        self.finished = true;
        let dev = self.pool.heap.device();
        // 1. User writes become durable.
        for &(off, len) in &self.dirty {
            dev.clwb(off, len)?;
        }
        dev.sfence()?;
        // 2. The allocator's micro log commits: the transaction's
        //    allocations are now permanent.
        self.pool.heap.tx_commit()?;
        // 3. The commit point: one atomic persisted state change.
        self.pool.write_ctx_field(self.ctx, offset_of_state(), &STATE_COMMITTED)?;
        // 4. Roll forward: deferred frees + truncation.
        let header = self.ctx_header()?;
        self.pool.roll_forward(self.ctx, &header)?;
        Ok(())
    }

    fn rollback(&mut self) -> Result<(), PtxError> {
        self.finished = true;
        let header = self.ctx_header()?;
        self.pool.roll_back(self.ctx, &header)?;
        // Drop the allocator's micro log for this transaction (its
        // entries were already freed through the alloc journal). A
        // condemned sub-heap refuses the cleanup: the pending entries sit
        // inside the quarantined unit and recovery settles them there.
        // The ptx-level abort above is already complete — every pre-image
        // is restored — so that refusal must not mask the abort's cause.
        match self.pool.heap.tx_abort() {
            Ok(())
            | Err(PoseidonError::SubheapQuarantined { .. })
            | Err(PoseidonError::MediaError { .. }) => Ok(()),
            Err(e) => Err(e.into()),
        }
    }
}

impl Drop for Ptx<'_> {
    fn drop(&mut self) {
        // A panic inside the closure unwinds through here: roll back so
        // the pool is usable (and consistent) afterwards.
        if !self.finished {
            let _ = self.rollback();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmem::{CrashMode, DeviceConfig, PmemDevice};
    use poseidon::HeapConfig;

    fn pool() -> (Arc<PmemDevice>, PtxPool) {
        let dev = Arc::new(PmemDevice::new(DeviceConfig::new(64 << 20)));
        let heap = Arc::new(PoseidonHeap::create(dev.clone(), HeapConfig::new().with_subheaps(2)).unwrap());
        let pool = PtxPool::create(heap).unwrap();
        (dev, pool)
    }

    #[test]
    fn committed_transaction_is_durable() {
        let (dev, pool) = pool();
        let node = pool
            .run(|tx| {
                let node = tx.alloc(64)?;
                tx.write_pod(node, 0, &0xFEEDu64)?;
                tx.set_root(node)?;
                Ok(node)
            })
            .unwrap();
        dev.simulate_crash(CrashMode::Strict, 0);
        assert_eq!(pool.root().unwrap(), node);
        let value: u64 = dev.read_pod(pool.heap().raw_offset(node).unwrap()).unwrap();
        assert_eq!(value, 0xFEED);
    }

    #[test]
    fn failed_closure_rolls_everything_back() {
        let (_dev, pool) = pool();
        let keeper = pool
            .run(|tx| {
                let k = tx.alloc(64)?;
                tx.write_pod(k, 0, &1u64)?;
                tx.set_root(k)?;
                Ok(k)
            })
            .unwrap();

        let result: Result<(), PtxError> = pool.run(|tx| {
            let doomed = tx.alloc(128)?;
            tx.write_pod(doomed, 0, &2u64)?;
            tx.write_pod(keeper, 0, &99u64)?; // overwrite, then abort
            tx.set_root(doomed)?;
            Err(PtxError::Aborted("changed my mind".into()))
        });
        assert!(matches!(result, Err(PtxError::Aborted(_))));

        // Root and data restored; the doomed allocation is gone.
        assert_eq!(pool.root().unwrap(), keeper);
        let value: u64 = pool.heap().device().read_pod(pool.heap().raw_offset(keeper).unwrap()).unwrap();
        assert_eq!(value, 1);
        for (_, audit) in pool.heap().audit().unwrap() {
            // Only the descriptor and keeper remain allocated.
            assert!(audit.alloc_blocks <= 2);
        }
    }

    #[test]
    fn deferred_free_keeps_data_until_commit() {
        let (_dev, pool) = pool();
        let block = pool.run(|tx| tx.alloc(64)).unwrap();
        // An aborted transaction that frees the block leaves it alive.
        let aborted: Result<(), PtxError> = pool.run(|tx| {
            tx.free(block)?;
            Err(PtxError::Aborted("no".into()))
        });
        assert!(aborted.is_err());
        assert!(pool.heap().block_size(block).is_ok(), "block freed despite abort");
        // A committed transaction releases it.
        pool.run(|tx| tx.free(block)).unwrap();
        assert!(pool.heap().block_size(block).is_err());
    }

    #[test]
    fn huge_allocations_commit_and_abort_transactionally() {
        let dev = Arc::new(PmemDevice::new(DeviceConfig::new(256 << 20)));
        let heap = Arc::new(PoseidonHeap::create(dev.clone(), HeapConfig::new().with_subheaps(16)).unwrap());
        let max = heap.layout().max_alloc();
        let size = 4 * max; // beyond every buddy class: extent-table path
        assert!(3 * size <= heap.layout().huge_data_size(), "huge region too small for the test geometry");
        let pool = PtxPool::create(heap.clone()).unwrap();

        // Commit: the extent survives and both ends of the payload are
        // durable (the tail write also exercises huge block_size bounds).
        let big = pool
            .run(|tx| {
                let big = tx.alloc(size)?;
                tx.write_pod(big, 0, &0xB16_0B1Eu64)?;
                tx.write_pod(big, size - 8, &0xCAFEu64)?;
                tx.set_root(big)?;
                Ok(big)
            })
            .unwrap();
        let raw = heap.raw_offset(big).unwrap();
        assert_eq!(dev.read_pod::<u64>(raw).unwrap(), 0xB16_0B1E);
        assert_eq!(dev.read_pod::<u64>(raw + size - 8).unwrap(), 0xCAFE);
        let huge = heap.huge_audit().unwrap().unwrap();
        assert_eq!(huge.alloc_extents, 1);
        assert_eq!(huge.alloc_bytes, size);

        // Abort: the doomed extent is rolled back, the committed one
        // stays.
        let aborted: Result<(), PtxError> = pool.run(|tx| {
            let doomed = tx.alloc(size)?;
            tx.write_pod(doomed, 0, &7u64)?;
            Err(PtxError::Aborted("huge alloc rolled back".into()))
        });
        assert!(matches!(aborted, Err(PtxError::Aborted(_))));
        let huge = heap.huge_audit().unwrap().unwrap();
        assert_eq!(huge.alloc_extents, 1);
        assert_eq!(huge.alloc_bytes, size);

        // A committed free coalesces the region back to one extent.
        pool.run(|tx| tx.free(big)).unwrap();
        let huge = heap.huge_audit().unwrap().unwrap();
        assert_eq!(huge.alloc_extents, 0);
        assert_eq!(huge.free_extents, 1);
        assert_eq!(huge.free_bytes, heap.layout().huge_data_size());
    }

    #[test]
    fn panic_in_closure_rolls_back() {
        let (_dev, pool) = pool();
        let keeper = pool
            .run(|tx| {
                let k = tx.alloc(64)?;
                tx.write_pod(k, 0, &7u64)?;
                tx.set_root(k)?;
                Ok(k)
            })
            .unwrap();
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _: Result<(), PtxError> = pool.run(|tx| {
                tx.write_pod(keeper, 0, &0u64)?;
                panic!("boom");
            });
        }));
        assert!(outcome.is_err());
        let value: u64 = pool.heap().device().read_pod(pool.heap().raw_offset(keeper).unwrap()).unwrap();
        assert_eq!(value, 7, "panic rollback failed");
        // Pool still works.
        pool.run(|tx| tx.alloc(32).map(|_| ())).unwrap();
    }

    #[test]
    fn write_bounds_are_enforced() {
        let (_dev, pool) = pool();
        let r: Result<(), PtxError> = pool.run(|tx| {
            let p = tx.alloc(64)?; // rounds to a 64-byte block
            tx.write(p, 60, &[0u8; 8])?;
            Ok(())
        });
        assert!(matches!(r, Err(PtxError::WriteOutOfBlock { .. })));
        // And the failed transaction rolled back cleanly.
        pool.run(|tx| tx.alloc(32).map(|_| ())).unwrap();
    }

    #[test]
    fn concurrent_transactions_commit_independently() {
        let dev = Arc::new(PmemDevice::new(DeviceConfig::new(128 << 20)));
        let heap = Arc::new(PoseidonHeap::create(dev, HeapConfig::new().with_subheaps(4)).unwrap());
        let pool = Arc::new(PtxPool::create(heap).unwrap());
        // One persistent counter per thread, bumped transactionally with
        // allocation churn mixed in.
        let cells: Vec<NvmPtr> = (0..4)
            .map(|_| {
                pool.run(|tx| {
                    let c = tx.alloc(64)?;
                    tx.write_pod(c, 0, &0u64)?;
                    Ok(c)
                })
                .unwrap()
            })
            .collect();
        platform::thread::scope(|s| {
            for (thread, &cell) in cells.iter().enumerate() {
                let pool = pool.clone();
                s.spawn(move || {
                    pmem::numa::set_current_cpu(thread);
                    for _ in 0..150 {
                        pool.run(|tx| {
                            let v: u64 = tx.read_pod(cell, 0)?;
                            let scratch = tx.alloc(32)?;
                            tx.write_pod(scratch, 0, &v)?;
                            tx.free(scratch)?;
                            tx.write_pod(cell, 0, &(v + 1))?;
                            Ok(())
                        })
                        .unwrap();
                    }
                });
            }
        });
        for &cell in &cells {
            let v: u64 = pool.heap().device().read_pod(pool.heap().raw_offset(cell).unwrap()).unwrap();
            assert_eq!(v, 150);
        }
        pool.heap().audit().unwrap();
    }

    #[test]
    fn crash_before_commit_rolls_back_on_open() {
        let dev = Arc::new(PmemDevice::new(DeviceConfig::new(64 << 20)));
        let heap = Arc::new(PoseidonHeap::create(dev.clone(), HeapConfig::new().with_subheaps(2)).unwrap());
        let pool = PtxPool::create(heap).unwrap();
        let keeper = pool
            .run(|tx| {
                let k = tx.alloc(64)?;
                tx.write_pod(k, 0, &5u64)?;
                tx.set_root(k)?;
                Ok(k)
            })
            .unwrap();

        // Interrupt a transaction mid-flight with a device crash.
        dev.arm_crash_after(60);
        let _ = pool.run(|tx| {
            let a = tx.alloc(64)?;
            tx.write_pod(a, 0, &1u64)?;
            tx.write_pod(keeper, 0, &666u64)?;
            tx.set_root(a)?;
            tx.write_pod(a, 8, &2u64)?;
            Ok(())
        });
        dev.disarm_crash();
        drop(pool);
        dev.simulate_crash(CrashMode::Strict, 3);

        let heap = Arc::new(PoseidonHeap::load(dev.clone(), HeapConfig::new()).unwrap());
        let pool = PtxPool::open(heap).unwrap();
        // Whatever instant the crash hit, the committed state is intact.
        assert_eq!(pool.root().unwrap(), keeper);
        let value: u64 = pool.heap().device().read_pod(pool.heap().raw_offset(keeper).unwrap()).unwrap();
        assert_eq!(value, 5);
        pool.heap().audit().unwrap();
    }

    #[test]
    fn crash_sweep_every_point_is_atomic() {
        // Crash at every mutation-event count through a transaction; after
        // recovery the pool must show either the full old state or the
        // full new state.
        for crash_at in (5..260).step_by(3) {
            let dev = Arc::new(PmemDevice::new(DeviceConfig::new(64 << 20)));
            let heap =
                Arc::new(PoseidonHeap::create(dev.clone(), HeapConfig::new().with_subheaps(1)).unwrap());
            let pool = PtxPool::create(heap).unwrap();
            let old_root = pool
                .run(|tx| {
                    let k = tx.alloc(64)?;
                    tx.write_pod(k, 0, &111u64)?;
                    tx.set_root(k)?;
                    Ok(k)
                })
                .unwrap();

            dev.arm_crash_after(crash_at);
            let attempted = pool.run(|tx| {
                let n = tx.alloc(64)?;
                tx.write_pod(n, 0, &222u64)?;
                tx.free(old_root)?;
                tx.set_root(n)?;
                Ok(n)
            });
            dev.disarm_crash();
            drop(pool);
            dev.simulate_crash(CrashMode::Strict, crash_at);

            let heap = Arc::new(PoseidonHeap::load(dev.clone(), HeapConfig::new()).unwrap());
            let pool = PtxPool::open(heap).unwrap();
            let root = pool.root().unwrap();
            let raw = pool.heap().raw_offset(root).unwrap();
            let value: u64 = dev.read_pod(raw).unwrap();
            if root == old_root {
                // Old world: value intact, old root still allocated.
                assert_eq!(value, 111, "crash_at {crash_at}: old world torn");
                assert!(pool.heap().block_size(old_root).is_ok());
            } else {
                // New world: new value, old root freed (roll-forward done).
                assert_eq!(value, 222, "crash_at {crash_at}: new world torn");
                assert!(pool.heap().block_size(old_root).is_err(), "crash_at {crash_at}: deferred free lost");
            }
            let _ = attempted;
            pool.heap().audit().unwrap();
        }
    }

    #[test]
    fn adversarial_crash_sweep_is_atomic() {
        for (i, crash_at) in (5..200).step_by(11).enumerate() {
            let dev = Arc::new(PmemDevice::new(DeviceConfig::new(64 << 20)));
            let heap =
                Arc::new(PoseidonHeap::create(dev.clone(), HeapConfig::new().with_subheaps(1)).unwrap());
            let pool = PtxPool::create(heap).unwrap();
            let old_root = pool
                .run(|tx| {
                    let k = tx.alloc(64)?;
                    tx.write_pod(k, 0, &111u64)?;
                    tx.set_root(k)?;
                    Ok(k)
                })
                .unwrap();
            dev.arm_crash_after(crash_at);
            let _ = pool.run(|tx| {
                let n = tx.alloc(64)?;
                tx.write_pod(n, 0, &222u64)?;
                tx.free(old_root)?;
                tx.set_root(n)?;
                Ok(n)
            });
            dev.disarm_crash();
            drop(pool);
            dev.simulate_crash(CrashMode::Adversarial, i as u64 * 31 + 7);

            let heap = Arc::new(PoseidonHeap::load(dev.clone(), HeapConfig::new()).unwrap());
            let pool = PtxPool::open(heap).unwrap();
            let root = pool.root().unwrap();
            let value: u64 = dev.read_pod(pool.heap().raw_offset(root).unwrap()).unwrap();
            assert!(value == 111 || value == 222, "crash_at {crash_at}: root value torn ({value})");
            pool.heap().audit().unwrap();
        }
    }

    #[test]
    fn media_fault_mid_transaction_aborts_with_preimages_intact() {
        let dev = Arc::new(PmemDevice::new(DeviceConfig::new(64 << 20)));
        let heap = Arc::new(PoseidonHeap::create(dev.clone(), HeapConfig::new().with_subheaps(2)).unwrap());
        let pool = PtxPool::create(heap.clone()).unwrap();
        pmem::numa::set_current_cpu(0);
        let keeper = pool
            .run(|tx| {
                let k = tx.alloc(64)?;
                tx.write_pod(k, 0, &41u64)?;
                tx.set_root(k)?;
                Ok(k)
            })
            .unwrap();

        // Pin a transaction, journal an overwrite of `keeper`, then
        // poison the pinned sub-heap's metadata header: the next alloc
        // trips the uncorrectable error, the allocator condemns the
        // sub-heap, and the transaction must abort with every pre-image
        // restored — no pool reopen, no torn user data.
        let mut pinned_sub = 0u16;
        let result: Result<(), PtxError> = pool.run(|tx| {
            let first = tx.alloc(64)?; // pins the transaction's sub-heap
            pinned_sub = first.subheap();
            tx.write_pod(keeper, 0, &99u64)?;
            dev.poison(heap.layout().meta_base(pinned_sub), 1).unwrap();
            tx.alloc(64)?; // hits Uncorrectable on the poisoned metadata
            Ok(())
        });
        assert!(result.is_err(), "the faulted transaction must not commit");

        // Pre-images intact, damage contained, pool still serving.
        assert_eq!(pool.root().unwrap(), keeper);
        let value: u64 = dev.read_pod(heap.raw_offset(keeper).unwrap()).unwrap();
        assert_eq!(value, 41, "journaled pre-image lost in the media-fault abort");
        assert_eq!(heap.quarantined_subheaps(), vec![pinned_sub]);
        pool.run(|tx| tx.alloc(32).map(drop)).unwrap(); // fails over
    }

    #[test]
    fn open_rejects_blank_and_foreign_roots() {
        let dev = Arc::new(PmemDevice::new(DeviceConfig::new(64 << 20)));
        let heap = Arc::new(PoseidonHeap::create(dev.clone(), HeapConfig::new().with_subheaps(2)).unwrap());
        assert!(matches!(PtxPool::open(heap.clone()), Err(PtxError::NoDescriptor)));
        // Root pointing at a non-descriptor block.
        let junk = heap.alloc(64).unwrap();
        heap.set_root(junk).unwrap();
        assert!(matches!(PtxPool::open(heap.clone()), Err(PtxError::NoDescriptor)));
        // And create refuses an occupied root.
        assert!(matches!(PtxPool::create(heap), Err(PtxError::RootOccupied)));
    }
}
