//! kv-soak: a durable KV service over FAST-FAIR shards. Two clients send
//! kvserve's 60/25/10/5 read/update/insert/scan mix, zipfian (θ 0.99)
//! over the acknowledged keys, to an uncached heap on a device with crash
//! tracking and media faults on, so every acknowledged op is durable.
//! Value sizes come from a fixed mix of buddy classes (64 B–2 KiB).
//! Maintenance and scrub ticks run on the clients, between requests. The
//! run ends with crash → `PoseidonHeap::load` → shard reopen → verify
//! cycles.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use pmem::{numa, CrashMode, DeviceConfig, PmemDevice};
use poseidon::{HeapConfig, PoseidonHeap};
use workloads::fastfair::FastFair;
use workloads::ycsb::Zipfian;
use workloads::{PersistentAllocator, Xorshift};

use crate::common::{count_pass, run_clients, secs, topology, Clock, Counts, Outcome, Plan, THREADS};
use crate::trace::{self, span, Kind, Mode, Tracked};

/// First word of the shard-root directory block.
const DIR_MAGIC: u64 = 0x4B56_534F_414B_3031;
/// Folded into the second payload word of every value.
const VALUE_SALT: u64 = 0x9E37_79B9_7F4A_7C15;
/// Bytes of each value written, persisted and verified.
const PAYLOAD_BYTES: u64 = 16;
const SHARDS: usize = 4;
const SUBHEAPS: u16 = 8;
const THETA: f64 = 0.99;
/// Request mix in permille; the rest are reads.
const UPDATE_PERMILLE: u64 = 250;
const INSERT_PERMILLE: u64 = 100;
const SCAN_PERMILLE: u64 = 50;
const MAX_SCAN: u64 = 16;
/// Value sizes and their weights in permille.
const VALUE_MIX: [(u64, u64); 6] = [(64, 300), (128, 250), (256, 200), (512, 120), (1024, 80), (2048, 50)];
/// Requests between a client's background ticks (client 0 runs
/// maintenance, client 1 the scrubber).
const TICK_EVERY: u64 = 256;
/// Maintenance ticks between fragmentation samples (which feed the
/// maintenance trigger).
const FRAG_EVERY: u64 = 16;
const MAINT_BUDGET: usize = 4;
const SCRUB_BUDGET: usize = 4;
/// Requests between refreshes of a client's zipfian key space.
const ZIPF_REFRESH: u64 = 64;
/// Key-id distance between the clients' insert stripes.
const STRIPE: u64 = 1 << 32;
/// A read retries when a concurrent update recycles the value under it.
const READ_RETRIES: u32 = 10_000;
/// Requests of the exact-counter pass.
const COUNT_OPS: u64 = 20_000;

pub const CLASSES: &[&str] = &["read", "update", "insert", "scan"];
const READ: usize = 0;
const UPDATE: usize = 1;
const INSERT: usize = 2;
const SCAN: usize = 3;

fn capacity(plan: &Plan) -> u64 {
    if plan.tiny {
        128 << 20
    } else {
        1 << 30
    }
}

fn load_keys(plan: &Plan) -> u64 {
    if plan.tiny {
        2_000
    } else {
        50_000
    }
}

fn config() -> HeapConfig {
    HeapConfig::new().with_subheaps(SUBHEAPS).without_cache()
}

/// FNV-1a, spreading sequential ids over the key space.
fn fnv(x: u64) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    for byte in x.to_le_bytes() {
        hash ^= byte as u64;
        hash = hash.wrapping_mul(0x1000_0000_01B3);
    }
    hash
}

fn draw_value_size(rng: &mut Xorshift) -> u64 {
    let mut dice = rng.below(1000);
    for (size, weight) in VALUE_MIX {
        if dice < weight {
            return size;
        }
        dice -= weight;
    }
    unreachable!("value mix weights sum to 1000")
}

type Shard = FastFair<Tracked>;

struct Service {
    heap: Arc<Tracked>,
    shards: Vec<Shard>,
}

/// The service and the ledger of acknowledged keys.
struct Kv {
    dev: Arc<PmemDevice>,
    load_keys: u64,
    service: Option<Service>,
    /// Per client: inserts acknowledged so far (the stripe's length).
    completed: Vec<AtomicU64>,
    inserted_total: AtomicU64,
}

impl Kv {
    fn svc(&self) -> &Service {
        self.service.as_ref().expect("service is up")
    }

    fn shard(&self, key: u64) -> &Shard {
        &self.svc().shards[(key % SHARDS as u64) as usize]
    }

    fn stripe_id(&self, client: usize, index: u64) -> u64 {
        self.load_keys + client as u64 * STRIPE + index
    }

    /// Maps a zipfian rank over the acknowledged key space to a key id:
    /// ranks past the loaded keys address the clients' insert stripes
    /// round-robin, falling back to a loaded key where a stripe is short.
    fn sample_id(&self, rank: u64) -> u64 {
        if rank < self.load_keys {
            return rank;
        }
        let past = rank - self.load_keys;
        let client = (past % THREADS as u64) as usize;
        let index = past / THREADS as u64;
        if index < self.completed[client].load(Ordering::Acquire) {
            self.stripe_id(client, index)
        } else {
            rank % self.load_keys
        }
    }

    /// Allocates a value of `size` and commits `key`'s payload into it.
    fn put_value(&self, key: u64, size: u64) -> Result<u64, String> {
        let heap = &self.svc().heap;
        let offset = heap.alloc(size).map_err(|e| format!("value alloc: {e}"))?;
        let written = self
            .dev
            .write_pod(offset, &key)
            .and_then(|()| self.dev.write_pod(offset + 8, &(key ^ VALUE_SALT)))
            .and_then(|()| {
                let _span = span(Kind::Persist);
                self.dev.persist(offset, PAYLOAD_BYTES)
            });
        written.map(|()| offset).map_err(|e| format!("payload write: {e}"))
    }

    fn payload_matches(&self, offset: u64, key: u64) -> Result<bool, String> {
        let a: u64 = self.dev.read_pod(offset).map_err(|e| format!("payload read: {e}"))?;
        let b: u64 = self.dev.read_pod(offset + 8).map_err(|e| format!("payload read: {e}"))?;
        Ok(a == key && b == key ^ VALUE_SALT)
    }

    /// A verified read; returns the reads retried because a concurrent
    /// update recycled the value block mid-read.
    fn read(&self, key: u64) -> Result<u64, String> {
        for retry in 0..READ_RETRIES {
            let found = {
                let _span = span(Kind::FfGet);
                self.shard(key).get(key)
            };
            let offset = found.ok_or_else(|| format!("acknowledged key {key:#x} missing"))?;
            if self.payload_matches(offset, key)? {
                return Ok(retry as u64);
            }
        }
        Err(format!("read of key {key:#x} never matched its payload"))
    }

    fn update(&self, key: u64, size: u64) -> Result<(), String> {
        let fresh = self.put_value(key, size)?;
        let old = {
            let _span = span(Kind::FfUpdate);
            self.shard(key).update(key, fresh)
        };
        let heap = &self.svc().heap;
        match old {
            Some(old) => heap.free(old).map_err(|e| format!("free of replaced value: {e}")),
            None => {
                let _ = heap.free(fresh);
                Err(format!("acknowledged key {key:#x} missing on update"))
            }
        }
    }

    fn insert(&self, client: usize, index: u64, size: u64) -> Result<(), String> {
        let key = fnv(self.stripe_id(client, index));
        let value = self.put_value(key, size)?;
        let previous = {
            let _span = span(Kind::FfInsert);
            self.shard(key).insert(key, value)
        };
        match previous {
            Ok(None) => {}
            Ok(Some(_)) => return Err(format!("fresh key {key:#x} was already present")),
            Err(e) => return Err(format!("insert: {e}")),
        }
        // Acknowledged: publish it to the sampling space and the ledger.
        self.completed[client].store(index + 1, Ordering::Release);
        self.inserted_total.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    fn scan(&self, start: u64, len: usize) -> Result<(), String> {
        let pairs = {
            let _span = span(Kind::FfScan);
            self.shard(start).scan(start, len)
        };
        if pairs.first().map(|p| p.0) != Some(start) {
            return Err(format!("scan from acknowledged key {start:#x} did not start there"));
        }
        if pairs.len() > len || pairs.windows(2).any(|w| w[0].0 >= w[1].0) {
            return Err(format!("scan from {start:#x} came back out of order or too long"));
        }
        Ok(())
    }

    /// Every acknowledged key, by id.
    fn acknowledged(&self) -> Vec<u64> {
        let mut ids: Vec<u64> = (0..self.load_keys).collect();
        for client in 0..THREADS {
            let n = self.completed[client].load(Ordering::Acquire);
            ids.extend((0..n).map(|i| self.stripe_id(client, i)));
        }
        ids
    }
}

/// Persists a shard's new root into its directory slot before the root
/// becomes visible.
fn install_root_hook(dev: &Arc<PmemDevice>, tree: &mut Shard, slot: u64) {
    let dev = dev.clone();
    tree.on_root_change(Box::new(move |root| {
        dev.write_pod(slot, &root).expect("anchor shard root");
        dev.persist(slot, 8).expect("persist shard root");
    }));
}

fn create_shards(dev: &Arc<PmemDevice>, heap: &Arc<Tracked>) -> Vec<Shard> {
    let n = SHARDS as u64;
    let dir = heap.alloc((2 + n) * 8).expect("directory allocation");
    dev.write_pod(dir, &DIR_MAGIC).expect("directory magic");
    dev.write_pod(dir + 8, &n).expect("directory count");
    let mut shards = Vec::with_capacity(SHARDS);
    for s in 0..n {
        let mut tree = FastFair::new(heap.clone()).expect("shard root allocation");
        let slot = dir + 16 + s * 8;
        dev.write_pod(slot, &tree.root_offset()).expect("directory root");
        install_root_hook(dev, &mut tree, slot);
        shards.push(tree);
    }
    dev.persist(dir, (2 + n) * 8).expect("directory persist");
    let root = heap.heap().nvmptr_of(dir).expect("directory pointer");
    heap.heap().set_root(root).expect("anchor directory");
    shards
}

fn open_shards(dev: &Arc<PmemDevice>, heap: &Arc<Tracked>) -> Result<Vec<Shard>, String> {
    let root = heap.heap().root().map_err(|e| format!("heap root: {e}"))?;
    let dir = heap.heap().raw_offset(root).map_err(|e| format!("directory pointer: {e}"))?;
    let magic: u64 = dev.read_pod(dir).map_err(|e| e.to_string())?;
    let n: u64 = dev.read_pod(dir + 8).map_err(|e| e.to_string())?;
    if magic != DIR_MAGIC || n != SHARDS as u64 {
        return Err("shard directory corrupt after recovery".to_string());
    }
    let mut shards = Vec::with_capacity(SHARDS);
    for s in 0..n {
        let slot = dir + 16 + s * 8;
        let anchored: u64 = dev.read_pod(slot).map_err(|e| e.to_string())?;
        let mut tree = FastFair::open(heap.clone(), anchored);
        install_root_hook(dev, &mut tree, slot);
        shards.push(tree);
    }
    Ok(shards)
}

/// Builds the service and loads its keys, on two threads or (for the
/// exact-counter pass) interleaved on one.
fn setup(plan: &Plan, threads: usize) -> Kv {
    let dev = Arc::new(PmemDevice::new(DeviceConfig::new(capacity(plan)).with_topology(topology())));
    numa::set_current_cpu(0);
    let heap = Tracked::new(PoseidonHeap::create(dev.clone(), config()).expect("create kv-soak heap"));
    let shards = create_shards(&dev, &heap);
    let kv = Kv {
        dev,
        load_keys: load_keys(plan),
        service: Some(Service { heap, shards }),
        completed: (0..THREADS).map(|_| AtomicU64::new(0)).collect(),
        inserted_total: AtomicU64::new(0),
    };
    let load = |t: usize, rng: &mut Xorshift, id: u64| {
        numa::set_current_cpu(t);
        let key = fnv(id);
        let value = kv.put_value(key, draw_value_size(rng)).expect("kv-soak preload value");
        assert_eq!(kv.shard(key).insert(key, value), Ok(None), "kv-soak preload insert");
    };
    if threads == 1 {
        let mut rngs: Vec<Xorshift> = (0..THREADS).map(|t| rng_for(plan.seed ^ 0x5EED, t)).collect();
        for id in 0..kv.load_keys {
            let t = (id % THREADS as u64) as usize;
            load(t, &mut rngs[t], id);
        }
    } else {
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let load = &load;
                let n = kv.load_keys;
                s.spawn(move || {
                    let mut rng = rng_for(plan.seed ^ 0x5EED, t);
                    for id in (t as u64..n).step_by(THREADS) {
                        load(t, &mut rng, id);
                    }
                });
            }
        });
    }
    kv
}

fn rng_for(seed: u64, client: usize) -> Xorshift {
    Xorshift::new(seed ^ (client as u64 + 1).wrapping_mul(0x5E4B_11CE))
}

/// One client's request stream and its tallies.
struct Client {
    id: usize,
    rng: Xorshift,
    zipf: Zipfian,
    inserted: u64,
    requests: u64,
    ticks: u64,
    failed: u64,
    read_races: u64,
    maint_units: u64,
    problems: Vec<String>,
}

impl Client {
    fn new(kv: &Kv, id: usize, seed: u64) -> Client {
        Client {
            id,
            rng: rng_for(seed, id),
            zipf: Zipfian::new(kv.load_keys, THETA),
            inserted: 0,
            requests: 0,
            ticks: 0,
            failed: 0,
            read_races: 0,
            maint_units: 0,
            problems: Vec::new(),
        }
    }

    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.problems.len() < 20 {
            self.problems.push(what);
        }
    }

    /// Sends one request and waits for it; returns its class.
    fn request(&mut self, kv: &Kv) -> usize {
        if self.requests.is_multiple_of(ZIPF_REFRESH) {
            self.zipf.extend(kv.load_keys + kv.inserted_total.load(Ordering::Relaxed));
        }
        self.requests += 1;
        let dice = self.rng.below(1000);
        let key = fnv(kv.sample_id(self.zipf.sample(&mut self.rng)));
        let size = draw_value_size(&mut self.rng);
        let scan_len = 1 + self.rng.below(MAX_SCAN) as usize;
        let (class, kind) = if dice < UPDATE_PERMILLE {
            (UPDATE, Kind::OpUpdate)
        } else if dice < UPDATE_PERMILLE + INSERT_PERMILLE {
            (INSERT, Kind::OpInsert)
        } else if dice < UPDATE_PERMILLE + INSERT_PERMILLE + SCAN_PERMILLE {
            (SCAN, Kind::OpScan)
        } else {
            (READ, Kind::OpRead)
        };
        let _op = span(kind);
        let result = match class {
            UPDATE => kv.update(key, size),
            INSERT => {
                self.inserted += 1;
                kv.insert(self.id, self.inserted - 1, size)
            }
            SCAN => kv.scan(key, scan_len),
            _ => kv.read(key).map(|races| self.read_races += races),
        };
        if let Err(e) = result {
            self.fail(e);
        }
        class
    }

    /// The background tick due after this request, if any: maintenance
    /// on client 0, the scrubber on client 1.
    fn tick(&mut self, kv: &Kv) {
        if !self.requests.is_multiple_of(TICK_EVERY) {
            return;
        }
        self.ticks += 1;
        let heap = kv.svc().heap.heap();
        if self.id == 0 {
            let _span = span(Kind::MaintTick);
            if self.ticks.is_multiple_of(FRAG_EVERY) {
                if let Err(e) = heap.fragmentation() {
                    self.fail(format!("fragmentation sample: {e}"));
                }
            }
            match heap.maint_tick(MAINT_BUDGET) {
                Ok(step) => self.maint_units += step.map_or(0, |s| s.work_units),
                Err(e) => self.fail(format!("maintenance tick: {e}")),
            }
        } else {
            let _span = span(Kind::ScrubStep);
            if let Err(e) = heap.scrub_step(SCRUB_BUDGET) {
                self.fail(format!("scrub step: {e}"));
            }
        }
    }
}

/// Reads back every acknowledged key and scans from a sample of them.
fn verify(kv: &Kv, out: &mut Outcome, when: &str) {
    let ids = kv.acknowledged();
    for (i, &id) in ids.iter().enumerate() {
        let key = fnv(id);
        out.attempted += 1;
        if let Err(e) = kv.read(key) {
            out.fail(format!("{when}: {e}"));
        }
        if i % 1024 == 0 {
            out.attempted += 1;
            if let Err(e) = kv.scan(key, MAX_SCAN as usize) {
                out.fail(format!("{when}: {e}"));
            }
        }
    }
}

/// Crash, recover, reopen the shards, verify — `plan.reopens` times.
fn reopen_cycles(kv: &mut Kv, plan: &Plan, mode: Mode, out: &mut Outcome) {
    numa::set_current_cpu(0);
    for cycle in 0..plan.reopens as u64 {
        drop(kv.service.take());
        kv.dev.simulate_crash(CrashMode::Strict, plan.seed ^ cycle);
        trace::set_mode(mode);
        trace::begin_thread(THREADS as u64);
        let start = Instant::now();
        out.attempted += 1;
        let loaded = {
            let _span = span(Kind::Load);
            PoseidonHeap::load(kv.dev.clone(), config())
        };
        let heap = match loaded {
            Ok(heap) => Tracked::new(heap),
            Err(e) => {
                trace::set_mode(Mode::Off);
                out.fail(format!("reopen {cycle}: load failed: {e}"));
                return;
            }
        };
        let opened = {
            let _span = span(Kind::ShardOpen);
            open_shards(&kv.dev, &heap)
        };
        let ms = secs(start) * 1e3;
        trace::set_mode(Mode::Off);
        out.recorder.merge(trace::harvest());
        out.recovery = heap.heap().recovery_report();
        match opened {
            Ok(shards) => {
                out.reopen_ms.push(ms);
                kv.service = Some(Service { heap, shards });
                verify(kv, out, &format!("after reopen {cycle}"));
            }
            Err(e) => {
                out.fail(format!("reopen {cycle}: {e}"));
                return;
            }
        }
    }
}

/// One timed pass (tracing per `mode`).
pub fn run(plan: &Plan, mode: Mode) -> Outcome {
    let mut out = Outcome { classes: CLASSES, ops_per_request: 1, ..Outcome::default() };
    let mut kv = None;
    for _ in 0..plan.setups {
        drop(kv.take());
        let start = Instant::now();
        kv = Some(setup(plan, THREADS));
        out.setup_s.push(secs(start));
    }
    let mut kv = kv.expect("at least one set-up");

    kv.svc().heap.reset_contention();
    trace::set_mode(mode);
    let clock = Clock::start(plan);
    let runs = run_clients(
        &clock,
        THREADS,
        (plan.windows, CLASSES.len()),
        |t| Client::new(&kv, t, plan.seed),
        // Failures are the client's own tally, ticks' included.
        |client| (client.request(&kv), 0),
        |client| client.tick(&kv),
    );
    trace::set_mode(Mode::Off);
    out.wall_s = clock.elapsed_s();
    out.window_s = clock.window_s();
    out.locks = kv.svc().heap.contention_profile();
    let mut races = 0;
    for client in out.absorb(runs) {
        races += client.read_races;
        out.maint_units += client.maint_units;
        out.failed += client.failed;
        out.problems.extend(client.problems);
    }

    let heap = kv.svc().heap.heap();
    match heap.fragmentation() {
        Ok(f) => out.frag_kib_end = f.frag_bytes() as f64 / 1024.0,
        Err(e) => out.fail(format!("final fragmentation sample: {e}")),
    }
    match heap.audit() {
        Ok(a) => {
            let live: u64 = a.iter().map(|(_, s)| s.alloc_bytes).sum();
            out.resident_per_live = kv.dev.resident_bytes() as f64 / live.max(1) as f64;
            out.notes.push(format!(
                "kv-soak: {} keys acknowledged, {:.1} MiB live, {} read races retried, {} sub-heaps of {:.1} MiB",
                kv.acknowledged().len(),
                live as f64 / (1u64 << 20) as f64,
                races,
                heap.layout().num_subheaps(),
                heap.layout().user_size as f64 / (1u64 << 20) as f64
            ));
        }
        Err(e) => out.fail(format!("final audit failed: {e}")),
    }
    reopen_cycles(&mut kv, plan, mode, &mut out);
    out
}

/// The exact-counter pass: a single-threaded preload, then both clients'
/// requests and ticks interleaved on one thread under their CPU ids.
pub fn count(plan: &Plan) -> Counts {
    let kv = setup(plan, 1);
    let mut clients: Vec<Client> = (0..THREADS).map(|t| Client::new(&kv, t, plan.seed)).collect();
    count_pass(&kv.svc().heap, COUNT_OPS, |i| {
        let client = &mut clients[(i % THREADS as u64) as usize];
        numa::set_current_cpu(client.id);
        let failed = client.failed;
        client.request(&kv);
        client.tick(&kv);
        client.failed - failed
    })
}
