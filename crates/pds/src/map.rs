//! A persistent chained hash map.

use std::marker::PhantomData;

use platform::rng::splitmix64;
use pmem::{pod_struct, Pod};
use poseidon::NvmPtr;
use ptx::{Ptx, PtxError, PtxPool};

pod_struct! {
    /// Persistent header of a [`PMap`].
    pub struct MapHeader {
        /// Number of buckets (power of two).
        pub buckets: u64,
        /// Live entries.
        pub len: u64,
        /// Pointer to the bucket array (`buckets` x 16-byte `NvmPtr`s).
        pub table: NvmPtr,
    }
}

/// A crash-consistent hash map from `u64` keys to [`Pod`] values, with
/// separate chaining. Bucket count is fixed at creation (pick it for the
/// expected population; load factors beyond ~4 just mean longer chains,
/// never corruption).
///
/// Node layout: `{next: NvmPtr, key: u64, _pad: u64, value: T}`.
#[derive(Debug, Clone, Copy)]
pub struct PMap<V> {
    header: NvmPtr,
    _marker: PhantomData<V>,
}

const NODE_VALUE_OFF: u64 = 32;

impl<V: Pod> PMap<V> {
    const NODE_BYTES: u64 = NODE_VALUE_OFF + std::mem::size_of::<V>() as u64;

    /// Allocates an empty map with `buckets` chains (rounded up to a
    /// power of two, minimum 8) in one transaction.
    ///
    /// # Errors
    ///
    /// Transaction/allocator errors.
    pub fn create(pool: &PtxPool, buckets: u64) -> Result<PMap<V>, PtxError> {
        let buckets = buckets.next_power_of_two().max(8);
        let header = pool.run(|tx| {
            let table = tx.alloc(buckets * 16)?;
            // Freshly allocated blocks are not guaranteed zeroed: null the
            // bucket heads explicitly (one write per bucket, all undone on
            // abort via the allocation journal discarding the block).
            for b in 0..buckets {
                tx.write_pod(table, b * 16, &NvmPtr::NULL)?;
            }
            let header = tx.alloc(std::mem::size_of::<MapHeader>() as u64)?;
            tx.write_pod(header, 0, &MapHeader { buckets, len: 0, table })?;
            Ok(header)
        })?;
        Ok(PMap { header, _marker: PhantomData })
    }

    /// Reattaches to the map whose header block is at `header`.
    pub fn open(header: NvmPtr) -> PMap<V> {
        PMap { header, _marker: PhantomData }
    }

    /// The header block's persistent pointer (anchor this).
    pub fn handle(&self) -> NvmPtr {
        self.header
    }

    fn read_header(&self, pool: &PtxPool) -> Result<MapHeader, PtxError> {
        Ok(pool.heap().device().read_pod(pool.heap().raw_offset(self.header)?)?)
    }

    fn bucket_head(&self, pool: &PtxPool, header: &MapHeader, key: u64) -> Result<(u64, NvmPtr), PtxError> {
        let bucket = splitmix64(key) & (header.buckets - 1);
        let table = pool.heap().raw_offset(header.table)?;
        let head: NvmPtr = pool.heap().device().read_pod(table + bucket * 16)?;
        Ok((bucket, head))
    }

    /// Live entry count.
    ///
    /// # Errors
    ///
    /// Device errors.
    pub fn len(&self, pool: &PtxPool) -> Result<u64, PtxError> {
        Ok(self.read_header(pool)?.len)
    }

    /// Whether the map is empty.
    ///
    /// # Errors
    ///
    /// Device errors.
    pub fn is_empty(&self, pool: &PtxPool) -> Result<bool, PtxError> {
        Ok(self.len(pool)? == 0)
    }

    /// Looks up `key`.
    ///
    /// # Errors
    ///
    /// Device errors.
    pub fn get(&self, pool: &PtxPool, key: u64) -> Result<Option<V>, PtxError> {
        let header = self.read_header(pool)?;
        let (_, mut cursor) = self.bucket_head(pool, &header, key)?;
        let dev = pool.heap().device();
        while !cursor.is_null() {
            let node = pool.heap().raw_offset(cursor)?;
            let node_key: u64 = dev.read_pod(node + 16)?;
            if node_key == key {
                return Ok(Some(dev.read_pod(node + NODE_VALUE_OFF)?));
            }
            cursor = dev.read_pod(node)?;
        }
        Ok(None)
    }

    /// Inserts or replaces `key -> value` atomically; returns the
    /// previous value if the key existed.
    ///
    /// # Errors
    ///
    /// Transaction/allocator errors.
    pub fn insert(&self, pool: &PtxPool, key: u64, value: V) -> Result<Option<V>, PtxError> {
        pool.run(|tx| self.insert_in(tx, key, value))
    }

    /// [`insert`](Self::insert) inside an already-open transaction, so
    /// multiple container operations commit atomically together.
    ///
    /// # Errors
    ///
    /// As for [`insert`](Self::insert).
    pub fn insert_in(&self, tx: &mut Ptx<'_>, key: u64, value: V) -> Result<Option<V>, PtxError> {
        {
            let header: MapHeader = tx.read_pod(self.header, 0)?;
            let bucket = splitmix64(key) & (header.buckets - 1);
            // In-place update if present.
            let mut cursor: NvmPtr = tx.read_pod(header.table, bucket * 16)?;
            while !cursor.is_null() {
                let node_key: u64 = tx.read_pod(cursor, 16)?;
                if node_key == key {
                    let old: V = tx.read_pod(cursor, NODE_VALUE_OFF)?;
                    tx.write_pod(cursor, NODE_VALUE_OFF, &value)?;
                    return Ok(Some(old));
                }
                cursor = tx.read_pod(cursor, 0)?;
            }
            // Prepend a new node.
            let head: NvmPtr = tx.read_pod(header.table, bucket * 16)?;
            let node = tx.alloc(Self::NODE_BYTES)?;
            tx.write_pod(node, 0, &head)?;
            tx.write_pod(node, 16, &key)?;
            tx.write_pod(node, 24, &0u64)?;
            tx.write_pod(node, NODE_VALUE_OFF, &value)?;
            tx.write_pod(header.table, bucket * 16, &node)?;
            tx.write_pod(self.header, 0, &MapHeader { len: header.len + 1, ..header })?;
            Ok(None)
        }
    }

    /// Removes `key` atomically, returning its value if present. The
    /// node's memory is freed with the transaction's commit.
    ///
    /// # Errors
    ///
    /// Transaction/allocator errors.
    pub fn remove(&self, pool: &PtxPool, key: u64) -> Result<Option<V>, PtxError> {
        pool.run(|tx| self.remove_in(tx, key))
    }

    /// [`remove`](Self::remove) inside an already-open transaction.
    ///
    /// # Errors
    ///
    /// As for [`remove`](Self::remove).
    pub fn remove_in(&self, tx: &mut Ptx<'_>, key: u64) -> Result<Option<V>, PtxError> {
        {
            let header: MapHeader = tx.read_pod(self.header, 0)?;
            let bucket = splitmix64(key) & (header.buckets - 1);
            let mut prev: Option<NvmPtr> = None;
            let mut cursor: NvmPtr = tx.read_pod(header.table, bucket * 16)?;
            while !cursor.is_null() {
                let next: NvmPtr = tx.read_pod(cursor, 0)?;
                let node_key: u64 = tx.read_pod(cursor, 16)?;
                if node_key == key {
                    let old: V = tx.read_pod(cursor, NODE_VALUE_OFF)?;
                    match prev {
                        Some(prev) => tx.write_pod(prev, 0, &next)?,
                        None => tx.write_pod(header.table, bucket * 16, &next)?,
                    }
                    tx.free(cursor)?;
                    tx.write_pod(self.header, 0, &MapHeader { len: header.len - 1, ..header })?;
                    return Ok(Some(old));
                }
                prev = Some(cursor);
                cursor = next;
            }
            Ok(None)
        }
    }

    /// Looks up `key` inside an open transaction (sees the transaction's
    /// own writes).
    ///
    /// # Errors
    ///
    /// Device errors.
    pub fn get_in(&self, tx: &Ptx<'_>, key: u64) -> Result<Option<V>, PtxError> {
        let header: MapHeader = tx.read_pod(self.header, 0)?;
        let mut cursor: NvmPtr = tx.read_pod(header.table, (splitmix64(key) & (header.buckets - 1)) * 16)?;
        while !cursor.is_null() {
            let node_key: u64 = tx.read_pod(cursor, 16)?;
            if node_key == key {
                return Ok(Some(tx.read_pod(cursor, NODE_VALUE_OFF)?));
            }
            cursor = tx.read_pod(cursor, 0)?;
        }
        Ok(None)
    }
}
