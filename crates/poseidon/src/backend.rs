//! Persistent slow path: undo-logged buddy allocation behind the cache.
//!
//! The methods here are the media-touching half of the allocator split
//! introduced with the transient caching layer ([`crate::frontend`]).
//! Every path below opens an [`crate::session::OpSession`] (sub-heap
//! lock + MPK write window + metadata validation) and commits through
//! the two-fence undo protocol — exactly the PR-4 cost model. The
//! frontend calls in here only on cache misses, refills, drains and
//! publishes; uncacheable sizes come straight through.

use std::sync::atomic::Ordering;

use crate::error::{PoseidonError, Result};
use crate::hashtable;
use crate::heap::PoseidonHeap;
use crate::hugeregion::{self, HUGE_SUBHEAP};
use crate::layout::class_for_size;
use crate::nvmptr::NvmPtr;
use crate::session::HugeOp;
use crate::subheap;

impl PoseidonHeap {
    /// Returns `preferred` unless that sub-heap is quarantined, in which
    /// case the nearest healthy neighbour (mod scan) serves instead —
    /// the routing half of allocation failover. When every sub-heap is
    /// condemned the typed exhaustion error says so.
    pub(crate) fn healthy_sub(&self, preferred: u16) -> Result<u16> {
        let n = self.layout.num_subheaps();
        for step in 0..n {
            let sub = (preferred + step) % n;
            if !self.slots[sub as usize].quarantined.load(Ordering::Acquire) {
                return Ok(sub);
            }
        }
        Err(PoseidonError::AllFailed { tried: n })
    }

    /// The spill order both allocation paths walk for `class`: `home`,
    /// `home + 1`, … mod n, skipping quarantined sub-heaps and any whose
    /// full-class hint covers `class`. Two atomic loads per sub-heap
    /// visited, no lock.
    pub(crate) fn spill_order(&self, home: u16, class: usize) -> impl Iterator<Item = u16> + '_ {
        let n = self.layout.num_subheaps();
        (0..n).map(move |step| (home + step) % n).filter(move |&sub| {
            let slot = &self.slots[sub as usize];
            !slot.quarantined.load(Ordering::Acquire) && !slot.full_for(class)
        })
    }

    /// Allocates from a specific sub-heap through the full persistent
    /// path. `micro` optionally records the new block in a transaction's
    /// micro log within the same undo scope. A `NoSpace` sets the
    /// sub-heap's full-class hint; nothing else does.
    pub(crate) fn alloc_on(&self, sub: u16, size: u64, micro: Option<(u64, usize)>) -> Result<NvmPtr> {
        if self.slots[sub as usize].quarantined.load(Ordering::Acquire) {
            return Err(PoseidonError::SubheapQuarantined { subheap: sub });
        }
        if size == 0 {
            return Err(PoseidonError::ZeroSize);
        }
        if size > self.layout.max_alloc() {
            // Beyond every buddy class: served by the huge-object region
            // (page-granular extents) under the same pointer surface.
            return self.huge_alloc(sub, size, micro);
        }
        let (class, _rounded) = class_for_size(size)?;
        self.ensure_subheap(sub)?;
        let op = self.begin_op(sub)?;
        // Note: no table shrink here. Allocation only ever *adds*
        // records, so the top level cannot become empty on this path; the
        // shrink runs on free and in maintenance, where levels drain.
        let offset = match subheap::alloc_block(&op, class, micro) {
            Err(e @ PoseidonError::NoSpace { .. }) => {
                // Trigger-1 merging could not assemble the class. Noted
                // under the lock, which orders it against every release.
                self.slots[sub as usize].mark_full(class);
                return Err(e);
            }
            result => result?,
        };
        drop(op);
        self.ops.allocs.fetch_add(1, Ordering::Relaxed);
        Ok(NvmPtr::new(self.heap_id, sub, offset))
    }

    /// Allocates an extent from the huge-object region.
    fn huge_alloc(&self, sub: u16, size: u64, micro: Option<(u64, usize)>) -> Result<NvmPtr> {
        if self.layout.huge_data_size() == 0 {
            return Err(PoseidonError::TooLarge {
                requested: size,
                subheap_max: self.layout.max_alloc(),
                huge_remaining: 0,
            });
        }
        let result = match micro {
            None => hugeregion::alloc(&self.begin_huge()?, size, None),
            Some((heap_id, slot)) => {
                // The micro-log slot lives in the transaction's sub-heap;
                // make sure it exists before mapping the spanning view.
                // Lock order: sb_lock (inside ensure) strictly before the
                // huge lock; the sub lock is never taken on this path —
                // the slot is exclusively claimed via the tx bitmap.
                self.ensure_subheap(sub)?;
                if self.huge_quarantined.load(Ordering::Acquire) {
                    return Err(PoseidonError::SubheapQuarantined { subheap: HUGE_SUBHEAP });
                }
                let pkru = self.write_guard();
                let lock = self.huge_lock.lock();
                let op = HugeOp::spanning(self.huge_ctx(), sub, lock, pkru)?;
                hugeregion::alloc(&op, size, Some(hugeregion::MicroHook { heap_id, sub, slot }))
            }
        };
        let offset = match result {
            Ok(offset) => offset,
            Err(e) => {
                if let PoseidonError::TooLarge { huge_remaining, .. } = e {
                    // The scan just measured the largest free extent —
                    // keep the continuously-exposed figure fresh and
                    // signal pressure so maintenance (and growth
                    // policies watching it) react before the next miss.
                    self.note_huge_largest_free(huge_remaining);
                    self.note_space_pressure();
                }
                return Err(e);
            }
        };
        self.ops.allocs.fetch_add(1, Ordering::Relaxed);
        Ok(NvmPtr::new(self.heap_id, HUGE_SUBHEAP, offset))
    }

    /// Frees a huge-region extent.
    pub(crate) fn free_huge(&self, ptr: NvmPtr) -> Result<()> {
        match hugeregion::free(&self.begin_huge()?, ptr.offset()) {
            Ok(_) => {
                self.note_free();
                Ok(())
            }
            Err(e @ (PoseidonError::InvalidFree { .. } | PoseidonError::DoubleFree { .. })) => {
                self.note_rejected_free();
                Err(e)
            }
            Err(e) => Err(e),
        }
    }

    /// Frees a buddy block through the full persistent path: one
    /// undo-logged [`subheap::free_block`], whose record goes where the
    /// release rule ([`crate::quarantine::release`]) sends it — its
    /// class's free list, or quarantine when its bytes are poisoned —
    /// then the full-class hint is cleared and the table shrinks.
    /// Coalescing is deferred — the free runs no
    /// merges; the maintenance engine and the alloc path's
    /// defragmentation pay that debt later (DESIGN.md §15).
    pub(crate) fn free_slow(&self, ptr: NvmPtr) -> Result<()> {
        let sub = ptr.subheap();
        if !self.slots[sub as usize].created.load(Ordering::Acquire) {
            return Err(PoseidonError::InvalidFree { offset: ptr.offset() });
        }
        if self.slots[sub as usize].quarantined.load(Ordering::Acquire) {
            return Err(PoseidonError::SubheapQuarantined { subheap: sub });
        }
        let op = self.begin_op(sub)?;
        match subheap::free_block(&op, ptr.offset()) {
            Ok((quarantined, _)) => {
                self.slots[sub as usize].clear_full();
                // Frees drain table levels; shrink here (two view reads
                // when the top level is still populated) so the alloc hot
                // path never pays for it.
                hashtable::shrink(&op)?;
                drop(op);
                if quarantined > 0 {
                    // A block sent to quarantine, not a free list, must
                    // show in `health()` as in the audit (the scrubber
                    // never revisits it: it is no longer FREE).
                    self.health.blocks_quarantined.fetch_add(quarantined, Ordering::Relaxed);
                }
                self.note_free();
                Ok(())
            }
            Err(e @ (PoseidonError::InvalidFree { .. } | PoseidonError::DoubleFree { .. })) => {
                self.note_rejected_free();
                Err(e)
            }
            Err(e) => Err(e),
        }
    }
}
