//! Spans around the benchmark's calls into the program, exact per-call
//! device counts, and the allocator wrapper that carries both.
//!
//! Spans are kept per thread in memory: name (kind), start, end, the
//! span that caused it and the op it belongs to. On close a span's self
//! time (its duration minus the time its child spans cover) is recorded
//! per kind and folded into the totals of the root op it ran under. Each
//! worker hands its recorder back with [`harvest`] before it exits.

use std::cell::RefCell;
use std::io::Write as _;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use pmem::contention::LockProfile;
use pmem::{PmemDevice, StatsSnapshot};
use poseidon::PoseidonHeap;
use workloads::{AllocError, PersistentAllocator};

/// Every kind of span the benchmark records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// micro-256: one 100-alloc/100-free batch per client.
    OpRound,
    /// larson-spill: one slot replacement.
    OpReplace,
    OpRead,
    OpUpdate,
    OpInsert,
    OpScan,
    HeapAlloc,
    HeapFree,
    FfGet,
    FfUpdate,
    FfInsert,
    FfScan,
    Persist,
    MaintTick,
    ScrubStep,
    Load,
    ShardOpen,
}

pub const KINDS: usize = 17;

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::OpRound => "op.round",
            Kind::OpReplace => "op.replace",
            Kind::OpRead => "op.read",
            Kind::OpUpdate => "op.update",
            Kind::OpInsert => "op.insert",
            Kind::OpScan => "op.scan",
            Kind::HeapAlloc => "heap.alloc",
            Kind::HeapFree => "heap.free",
            Kind::FfGet => "fastfair.get",
            Kind::FfUpdate => "fastfair.update",
            Kind::FfInsert => "fastfair.insert",
            Kind::FfScan => "fastfair.scan",
            Kind::Persist => "pmem.persist",
            Kind::MaintTick => "maint.tick",
            Kind::ScrubStep => "selfheal.scrub_step",
            Kind::Load => "recovery.load",
            Kind::ShardOpen => "recovery.shard_open",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

const OFF: u8 = 0;
const TRACE: u8 = 1;
const COUNT: u8 = 2;

/// What the wrappers and span guards do: nothing, record spans, or count
/// device events around each heap call.
static MODE: AtomicU8 = AtomicU8::new(OFF);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Off,
    Trace,
    Count,
}

pub fn set_mode(mode: Mode) {
    let m = match mode {
        Mode::Off => OFF,
        Mode::Trace => TRACE,
        Mode::Count => COUNT,
    };
    MODE.store(m, Ordering::SeqCst);
}

fn clock_base() -> Instant {
    static BASE: OnceLock<Instant> = OnceLock::new();
    *BASE.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    clock_base().elapsed().as_nanos() as u64
}

/// One closed span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub op: u64,
    pub kind: Kind,
    pub start_ns: u64,
    pub end_ns: u64,
}

struct Open {
    id: u64,
    kind: Kind,
    start_ns: u64,
    child_ns: u64,
}

/// Spans kept verbatim per thread for the span file; self times are
/// aggregated for every span regardless.
const RETAINED_PER_THREAD: usize = 50_000;

/// One thread's spans and self-time aggregates.
#[derive(Default)]
pub struct Recorder {
    thread: u64,
    next: u64,
    op: u64,
    root: Option<Kind>,
    stack: Vec<Open>,
    /// Self time of every closed span, per kind.
    pub self_ns: Vec<Vec<u64>>,
    /// Summed self time of every span under a root of each kind.
    pub tree_self_ns: [u64; KINDS],
    /// Summed duration of root spans of each kind.
    pub root_ns: [u64; KINDS],
    /// Summed heap alloc/free self time under a root of each kind.
    pub heap_self_under: [u64; KINDS],
    pub spans: Vec<Span>,
}

impl Recorder {
    fn open(&mut self, kind: Kind) {
        self.next += 1;
        let id = (self.thread << 40) | self.next;
        if self.stack.is_empty() {
            self.op = id;
            self.root = Some(kind);
        }
        self.stack.push(Open { id, kind, start_ns: now_ns(), child_ns: 0 });
    }

    fn close(&mut self) {
        let end_ns = now_ns();
        let open = self.stack.pop().expect("span closed without being opened");
        let dur = end_ns - open.start_ns;
        let self_time = dur.saturating_sub(open.child_ns);
        if self.self_ns.is_empty() {
            self.self_ns = vec![Vec::new(); KINDS];
        }
        self.self_ns[open.kind.index()].push(self_time);
        let root = self.root.expect("open span has a root").index();
        self.tree_self_ns[root] += self_time;
        if matches!(open.kind, Kind::HeapAlloc | Kind::HeapFree) {
            self.heap_self_under[root] += self_time;
        }
        let parent = match self.stack.last_mut() {
            Some(p) => {
                p.child_ns += dur;
                p.id
            }
            None => {
                self.root_ns[root] += dur;
                0
            }
        };
        if self.spans.len() < RETAINED_PER_THREAD {
            self.spans.push(Span {
                id: open.id,
                parent,
                op: self.op,
                kind: open.kind,
                start_ns: open.start_ns,
                end_ns,
            });
        }
    }

    /// Folds another thread's recorder into this one.
    pub fn merge(&mut self, other: Recorder) {
        if self.self_ns.is_empty() {
            self.self_ns = vec![Vec::new(); KINDS];
        }
        for (mine, theirs) in self.self_ns.iter_mut().zip(other.self_ns) {
            mine.extend(theirs);
        }
        for k in 0..KINDS {
            self.tree_self_ns[k] += other.tree_self_ns[k];
            self.root_ns[k] += other.root_ns[k];
            self.heap_self_under[k] += other.heap_self_under[k];
        }
        self.spans.extend(other.spans);
    }

    /// Sorted self times of `kind`, in nanoseconds.
    pub fn sorted_self(&self, kind: Kind) -> Vec<u64> {
        let mut v = self.self_ns.get(kind.index()).cloned().unwrap_or_default();
        v.sort_unstable();
        v
    }

    /// Summed self time of `kind`'s spans.
    pub fn total_self(&self, kind: Kind) -> u64 {
        self.self_ns.get(kind.index()).map_or(0, |v| v.iter().sum())
    }

    pub fn root_total(&self, kind: Kind) -> u64 {
        self.root_ns[kind.index()]
    }

    pub fn tree_self_total(&self, kind: Kind) -> u64 {
        self.tree_self_ns[kind.index()]
    }

    pub fn heap_self_under(&self, kind: Kind) -> u64 {
        self.heap_self_under[kind.index()]
    }

    /// Writes the retained spans as tab-separated lines.
    pub fn write_spans(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\top\tkind\tstart_ns\tend_ns")?;
        for s in &self.spans {
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}",
                s.id,
                s.parent,
                s.op,
                s.kind.name(),
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }
}

thread_local! {
    static LOCAL: RefCell<Recorder> = RefCell::new(Recorder::default());
}

/// Starts this thread's recorder afresh; `thread` tags its span ids.
pub fn begin_thread(thread: u64) {
    LOCAL.with(|l| *l.borrow_mut() = Recorder { thread: thread + 1, ..Recorder::default() });
}

/// Takes this thread's recorder (call before the thread exits).
pub fn harvest() -> Recorder {
    LOCAL.with(|l| std::mem::take(&mut *l.borrow_mut()))
}

/// Closes its span on drop; inert unless tracing.
pub struct SpanGuard {
    active: bool,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if self.active {
            LOCAL.with(|l| l.borrow_mut().close());
        }
    }
}

/// Opens a span of `kind` under the innermost open span of this thread.
pub fn span(kind: Kind) -> SpanGuard {
    if MODE.load(Ordering::Relaxed) != TRACE {
        return SpanGuard { active: false };
    }
    LOCAL.with(|l| l.borrow_mut().open(kind));
    SpanGuard { active: true }
}

/// Device events summed over the wrapped heap calls of one kind.
#[derive(Debug, Clone, Copy, Default)]
pub struct CallCounts {
    pub calls: u64,
    pub sfences: u64,
    pub clwbs: u64,
}

/// Per-call counts of (alloc, free) gathered in [`Mode::Count`].
static CALLS: Mutex<[CallCounts; 2]> = Mutex::new([CallCounts { calls: 0, sfences: 0, clwbs: 0 }; 2]);

/// Takes and zeroes the per-call counts: `(alloc, free)`.
pub fn take_call_counts() -> (CallCounts, CallCounts) {
    let mut c = CALLS.lock().expect("call counters poisoned by a panicking worker");
    let out = (c[0], c[1]);
    *c = [CallCounts::default(); 2];
    out
}

fn counted<T>(dev: &PmemDevice, slot: usize, call: impl FnOnce() -> T) -> T {
    if MODE.load(Ordering::Relaxed) != COUNT {
        return call();
    }
    let before: StatsSnapshot = dev.stats();
    let out = call();
    let after = dev.stats();
    let mut c = CALLS.lock().expect("call counters poisoned by a panicking worker");
    c[slot].calls += 1;
    c[slot].sfences += after.sfence_count - before.sfence_count;
    c[slot].clwbs += after.clwb_count - before.clwb_count;
    out
}

/// A [`PoseidonHeap`] behind the [`PersistentAllocator`] trait, with a
/// span and (in counting mode) device-stat deltas around every alloc and
/// free. [`workloads::fastfair::FastFair`] is generic over the trait, so
/// the tree's own node allocations pass through here too.
pub struct Tracked {
    heap: PoseidonHeap,
}

impl Tracked {
    pub fn new(heap: PoseidonHeap) -> Arc<Tracked> {
        Arc::new(Tracked { heap })
    }

    pub fn heap(&self) -> &PoseidonHeap {
        &self.heap
    }
}

impl PersistentAllocator for Tracked {
    fn alloc(&self, size: u64) -> Result<u64, AllocError> {
        let _span = span(Kind::HeapAlloc);
        counted(self.heap.device(), 0, || PersistentAllocator::alloc(&self.heap, size))
    }

    fn free(&self, offset: u64) -> Result<(), AllocError> {
        let _span = span(Kind::HeapFree);
        counted(self.heap.device(), 1, || PersistentAllocator::free(&self.heap, offset))
    }

    fn device(&self) -> &Arc<PmemDevice> {
        self.heap.device()
    }

    fn name(&self) -> &'static str {
        "poseidon"
    }

    fn contention_profile(&self) -> Vec<LockProfile> {
        self.heap.contention_profile()
    }

    fn reset_contention(&self) {
        self.heap.reset_contention()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_of_a_tree_add_up_to_its_root() {
        set_mode(Mode::Trace);
        begin_thread(0);
        {
            let _op = span(Kind::OpUpdate);
            {
                let _a = span(Kind::HeapAlloc);
                std::hint::black_box((0..1000).sum::<u64>());
            }
            {
                let _f = span(Kind::FfUpdate);
                let _p = span(Kind::Persist);
            }
        }
        set_mode(Mode::Off);
        let r = harvest();
        assert_eq!(r.tree_self_total(Kind::OpUpdate), r.root_total(Kind::OpUpdate));
        assert_eq!(r.spans.len(), 4);
        let root = r.spans.last().unwrap();
        assert_eq!(root.parent, 0);
        assert!(r.spans.iter().all(|s| s.op == root.id));
        assert_eq!(r.heap_self_under(Kind::OpUpdate), r.total_self(Kind::HeapAlloc));
    }
}
