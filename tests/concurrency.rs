//! Concurrency stress: many threads, cross-thread frees, transactions,
//! and oversubscribed sub-heaps — the heap must stay consistent and no
//! allocation may ever be handed to two owners.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use platform::sync::Mutex;
use pmem::{DeviceConfig, NumaTopology, PmemDevice};
use poseidon::{HeapConfig, NvmPtr, PoseidonHeap};
use workloads::Xorshift;

fn stress(threads: usize, subheaps: u16, rounds: u64) {
    let dev = Arc::new(PmemDevice::new(
        DeviceConfig::bench(1 << 30).with_topology(NumaTopology::new(2, threads.max(2))),
    ));
    let heap =
        Arc::new(PoseidonHeap::create(dev.clone(), HeapConfig::new().with_subheaps(subheaps)).unwrap());

    // A shared exchange: threads deposit pointers here for *other*
    // threads to free (§5.7's cross-thread free path).
    let exchange: Vec<Mutex<Vec<NvmPtr>>> = (0..threads).map(|_| Mutex::new(Vec::new())).collect();
    let ownership_claims = AtomicU64::new(0);

    platform::thread::scope(|scope| {
        for thread in 0..threads {
            let heap = heap.clone();
            let dev = dev.clone();
            let exchange = &exchange;
            let ownership_claims = &ownership_claims;
            scope.spawn(move || {
                pmem::numa::set_current_cpu(thread);
                let mut rng = Xorshift::new(thread as u64 * 7919 + 13);
                let mut mine: Vec<(NvmPtr, u64)> = Vec::new();
                for round in 0..rounds {
                    match rng.below(10) {
                        0..=4 => {
                            // Allocate and stamp a unique owner tag.
                            let size = 32 + rng.below(2000);
                            if let Ok(p) = heap.alloc(size) {
                                let tag = ownership_claims.fetch_add(1, Ordering::Relaxed) + 1;
                                let raw = heap.raw_offset(p).unwrap();
                                dev.write_pod(raw, &tag).unwrap();
                                mine.push((p, tag));
                            }
                        }
                        5..=6 => {
                            // Verify + free one of ours.
                            if let Some((p, tag)) = mine.pop() {
                                let raw = heap.raw_offset(p).unwrap();
                                let stored: u64 = dev.read_pod(raw).unwrap();
                                assert_eq!(stored, tag, "another thread scribbled on a live block");
                                heap.free(p).unwrap();
                            }
                        }
                        7 => {
                            // Hand one over for a cross-thread free.
                            if let Some((p, _)) = mine.pop() {
                                exchange[rng.below(exchange.len() as u64) as usize].lock().push(p);
                            }
                        }
                        8 => {
                            // Free someone else's.
                            let donated = exchange[thread].lock().pop();
                            if let Some(p) = donated {
                                heap.free(p).unwrap();
                            }
                        }
                        _ => {
                            // A small transaction, committed or aborted.
                            if let (Ok(a), Ok(b)) = (heap.tx_alloc(64, false), heap.tx_alloc(64, false)) {
                                if round % 2 == 0 {
                                    let c = heap.tx_alloc(64, true).unwrap();
                                    heap.free(a).unwrap();
                                    heap.free(b).unwrap();
                                    heap.free(c).unwrap();
                                } else {
                                    heap.tx_abort().unwrap();
                                }
                            } else {
                                let _ = heap.tx_abort();
                            }
                        }
                    }
                }
                // Drain what's left.
                for (p, _) in mine {
                    heap.free(p).unwrap();
                }
            });
        }
    });

    // Drain the exchange and verify the heap is balanced and intact.
    for slot in &exchange {
        for p in slot.lock().drain(..) {
            heap.free(p).unwrap();
        }
    }
    for (sub, audit) in heap.audit().unwrap() {
        assert_eq!(audit.alloc_bytes, 0, "sub-heap {sub} leaked under concurrency");
    }
}

#[test]
fn threads_matching_subheaps() {
    stress(4, 4, 400);
}

#[test]
fn threads_oversubscribing_subheaps() {
    // More threads than sub-heaps: threads share sub-heap locks.
    stress(8, 2, 250);
}

#[test]
fn single_subheap_total_contention() {
    stress(6, 1, 200);
}

#[test]
fn lock_profile_shows_no_cross_subheap_serialisation() {
    // Fixed-seed mixed alloc/free/tx stress with every thread pinned to
    // its own CPU (hence its own sub-heap), followed by a structural
    // audit and a lock-profile check: the per-CPU design means the only
    // shared lock is the superblock's, taken once per sub-heap creation —
    // operations must never serialise across sub-heaps.
    const THREADS: usize = 4;
    const ROUNDS: u64 = 300;
    let dev =
        Arc::new(PmemDevice::new(DeviceConfig::bench(1 << 30).with_topology(NumaTopology::new(2, THREADS))));
    let heap =
        Arc::new(PoseidonHeap::create(dev.clone(), HeapConfig::new().with_subheaps(THREADS as u16)).unwrap());

    platform::thread::scope(|scope| {
        for thread in 0..THREADS {
            let heap = heap.clone();
            scope.spawn(move || {
                pmem::numa::set_current_cpu(thread);
                let mut rng = Xorshift::new(thread as u64 * 6271 + 5);
                let mut mine: Vec<NvmPtr> = Vec::new();
                for _ in 0..ROUNDS {
                    match rng.below(4) {
                        0..=1 => {
                            if let Ok(p) = heap.alloc(32 + rng.below(1024)) {
                                mine.push(p);
                            }
                        }
                        2 => {
                            if let Some(p) = mine.pop() {
                                heap.free(p).unwrap();
                            }
                        }
                        _ => {
                            let a = heap.tx_alloc(64, false).unwrap();
                            let b = heap.tx_alloc(64, true).unwrap();
                            mine.push(a);
                            mine.push(b);
                        }
                    }
                }
                for p in mine {
                    heap.free(p).unwrap();
                }
            });
        }
    });

    // Capture the profile before the audit (the audit itself takes every
    // sub-heap lock once more).
    let profile = heap.contention_profile();
    for (sub, audit) in heap.audit().unwrap() {
        assert_eq!(audit.alloc_bytes, 0, "sub-heap {sub} leaked under concurrency");
    }

    let sb = profile.iter().find(|p| p.name == "superblock").unwrap();
    assert!(
        sb.acquisitions <= 2 * THREADS as u64,
        "superblock lock taken {} times — more than sub-heap creation needs",
        sb.acquisitions
    );
    for thread in 0..THREADS {
        let lock = profile.iter().find(|p| p.name == format!("subheap[{thread}]")).unwrap();
        let cache = lock.cache.expect("sub-heap profiles carry cache stats");
        // Every thread drove its own sub-heap (pinning worked)...
        assert!(
            cache.hits + cache.misses >= ROUNDS / 4,
            "sub-heap {thread} barely used: {} cached ops",
            cache.hits + cache.misses
        );
        // ...the magazine layer absorbed nearly all of its traffic without
        // the lock (the tentpole's acceptance bar: >90% hit rate under a
        // pinned steady-state mix)...
        assert!(
            cache.hit_rate() > 0.90,
            "sub-heap {thread} cache hit rate {:.3} below 0.90 ({cache:?})",
            cache.hit_rate()
        );
        // ...and nothing funnelled through one sub-heap: the busiest lock
        // stays within the work one thread can generate on its own (each
        // round costs at most 3 operations).
        assert!(
            lock.acquisitions <= 3 * ROUNDS + 8,
            "sub-heap {thread} serialised foreign work: {} acquisitions",
            lock.acquisitions
        );
    }
}

#[test]
fn full_homes_spill_concurrently_without_clashing_owners() {
    // Two threads on three sub-heaps. Each fills 1.25x its home with
    // 8-512 B blocks, so both homes fill and spill: CPU 0 into sub-heap 1
    // (CPU 1's home) and on, CPU 1 into sub-heap 2 and on. Then both
    // churn with cross-thread frees, so the cached spill, its pool drains
    // and the hint's set and clear race each other.
    const THREADS: usize = 2;
    const ROUNDS: u64 = 4000;
    let dev =
        Arc::new(PmemDevice::new(DeviceConfig::bench(32 << 20).with_topology(NumaTopology::new(1, THREADS))));
    let heap = Arc::new(PoseidonHeap::create(dev.clone(), HeapConfig::new().with_subheaps(3)).unwrap());
    let fill_bytes = heap.layout().user_size / 4 * 5;
    let exchange: Vec<Mutex<Vec<(NvmPtr, u64)>>> = (0..THREADS).map(|_| Mutex::new(Vec::new())).collect();
    let tags = AtomicU64::new(0);
    let spilled = AtomicU64::new(0);

    platform::thread::scope(|scope| {
        for thread in 0..THREADS {
            let (heap, dev, exchange, tags, spilled) =
                (heap.clone(), dev.clone(), &exchange, &tags, &spilled);
            scope.spawn(move || {
                pmem::numa::set_current_cpu(thread);
                let mut rng = Xorshift::new(thread as u64 * 104_729 + 17);
                // Allocates and stamps a unique owner tag; returns the
                // bytes the block occupies.
                let alloc = |rng: &mut Xorshift, mine: &mut Vec<(NvmPtr, u64)>| -> u64 {
                    let size = 8 + rng.below(505);
                    let p =
                        heap.alloc(size).unwrap_or_else(|e| panic!("thread {thread}: alloc({size}): {e}"));
                    let tag = tags.fetch_add(1, Ordering::Relaxed) + 1;
                    dev.write_pod(heap.raw_offset(p).unwrap(), &tag).unwrap();
                    if p.subheap() as usize != thread {
                        spilled.fetch_add(1, Ordering::Relaxed);
                    }
                    mine.push((p, tag));
                    poseidon::class_for_size(size).unwrap().1
                };
                let verify_free = |(p, tag): (NvmPtr, u64)| {
                    let stored: u64 = dev.read_pod(heap.raw_offset(p).unwrap()).unwrap();
                    assert_eq!(stored, tag, "two owners held one block");
                    heap.free(p).unwrap();
                };
                let mut mine: Vec<(NvmPtr, u64)> = Vec::new();
                let mut live = 0;
                while live < fill_bytes {
                    live += alloc(&mut rng, &mut mine);
                }
                // Churn at a steady live set: every round frees one block
                // (its own, or one the other thread handed over) and
                // allocates one.
                for _ in 0..ROUNDS {
                    let index = rng.below(mine.len() as u64) as usize;
                    let victim = mine.swap_remove(index);
                    match rng.below(4) {
                        0 => exchange[(thread + 1) % THREADS].lock().push(victim),
                        1 => {
                            let donated = exchange[thread].lock().pop();
                            verify_free(donated.unwrap_or(victim));
                            if donated.is_some() {
                                mine.push(victim);
                            }
                        }
                        _ => verify_free(victim),
                    }
                    alloc(&mut rng, &mut mine);
                }
                for block in mine {
                    verify_free(block);
                }
            });
        }
    });

    for slot in &exchange {
        for (p, _) in slot.lock().drain(..) {
            heap.free(p).unwrap();
        }
    }
    assert!(spilled.load(Ordering::Relaxed) > 0, "no allocation spilled out of a full home");
    for (sub, audit) in heap.audit().unwrap() {
        assert_eq!(audit.alloc_bytes, 0, "sub-heap {sub} leaked under concurrent spills");
    }
}

#[test]
fn tx_isolation_between_threads() {
    // Two threads run interleaved transactions on the same sub-heap; the
    // per-thread micro-log pinning must keep their commits independent.
    let dev = Arc::new(PmemDevice::new(DeviceConfig::bench(256 << 20)));
    let heap = Arc::new(PoseidonHeap::create(dev, HeapConfig::new().with_subheaps(1)).unwrap());
    platform::thread::scope(|scope| {
        for thread in 0..2 {
            let heap = heap.clone();
            scope.spawn(move || {
                pmem::numa::set_current_cpu(thread);
                for i in 0..200u64 {
                    let a = heap.tx_alloc(32 + i % 128, false).unwrap();
                    let b = heap.tx_alloc(32, true).unwrap();
                    heap.free(a).unwrap();
                    heap.free(b).unwrap();
                }
            });
        }
    });
    for (_, audit) in heap.audit().unwrap() {
        assert_eq!(audit.alloc_bytes, 0);
    }
}
