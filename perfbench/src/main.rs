//! The Poseidon benchmark: three closed-loop workloads, each generated
//! from a seed, measured end to end (untraced) or per layer (traced run
//! plus an exact-counter pass).
//!
//! ```text
//! perfbench --workload <micro-256|larson-spill|kv-soak> --seed <n> --seconds <s> --trace <0|1>
//!           [--scale tiny] [--out <dir>]
//! perfbench --list-metrics
//! ```
//!
//! Every metric is printed as `metric <name> = <value> <unit>`; the last
//! line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics` (the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`). The exit code is
//! 1 if any check failed and 2 on bad arguments.

mod common;
mod kv;
mod larson;
mod micro;
mod report;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use common::{cache_totals, Counts, Outcome, Plan};
use report::{median, ratio, Host, Metric, MetricDef, END_TO_END, PER_LAYER};
use trace::{Kind, Mode};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Micro,
    Larson,
    Kv,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "micro-256" => Some(Workload::Micro),
            "larson-spill" => Some(Workload::Larson),
            "kv-soak" => Some(Workload::Kv),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::Micro => "micro-256",
            Workload::Larson => "larson-spill",
            Workload::Kv => "kv-soak",
        }
    }

    fn run(self, plan: &Plan, mode: Mode) -> Outcome {
        match self {
            Workload::Micro => micro::run(plan, mode),
            Workload::Larson => larson::run(plan, mode),
            Workload::Kv => kv::run(plan, mode),
        }
    }

    fn count(self, plan: &Plan) -> Counts {
        match self {
            Workload::Micro => micro::count(plan),
            Workload::Larson => larson::count(plan),
            Workload::Kv => kv::count(plan),
        }
    }

    /// Set-ups timed per pass: cheap ones are repeated more, so their
    /// median settles. On larson-spill each is followed by a replica of
    /// the timed phase.
    fn setups(self, tiny: bool) -> usize {
        match (self, tiny) {
            (_, true) => 1,
            (Workload::Micro, false) => 51,
            (Workload::Larson, false) => 5,
            (Workload::Kv, false) => 3,
        }
    }

    /// Crash-and-reopen cycles: kv-soak's time `reopen_ms`; on the
    /// others they check recovery leaks nothing.
    fn reopens(self, tiny: bool) -> usize {
        match (self, tiny) {
            (Workload::Kv, false) => 3,
            _ => 2,
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    tiny: bool,
    out: PathBuf,
}

const USAGE: &str = "usage: perfbench --workload <micro-256|larson-spill|kv-soak> --seed <n> \
                     --seconds <s> --trace <0|1> [--scale tiny|full] [--out <dir>]";

fn parse_args() -> Result<Option<Args>, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut tiny = false;
    let mut out = PathBuf::from("perfbench/out");
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--list-metrics" {
            return Ok(None);
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed {value:?}: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds {value:?}: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {value:?} is outside (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            "--scale" => {
                tiny = match value.as_str() {
                    "tiny" => true,
                    "full" => false,
                    _ => return Err(format!("--scale takes tiny or full, not {value:?}")),
                }
            }
            "--out" => out = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Some(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        tiny,
        out,
    }))
}

fn print_metric(m: &Metric, note: &str) {
    if note.is_empty() {
        println!("metric {} = {} {}", m.name, m.value, m.unit);
    } else {
        println!("metric {} = {} {}    [{note}]", m.name, m.value, m.unit);
    }
}

fn metric(defs: &[MetricDef], name: &'static str, value: f64) -> Metric {
    let def = defs.iter().find(|d| d.name == name).unwrap_or_else(|| panic!("undefined metric {name}"));
    Metric { name, value, unit: def.unit }
}

/// Throughput and request latency of `classes` over the whole timed
/// phase, and the request count behind them.
fn phase_summary(o: &Outcome, classes: &[usize]) -> (f64, f64, f64, usize) {
    let counts = o.lat.counts(classes);
    let requests: u64 = counts.iter().sum();
    let seconds = o.window_s * counts.len() as f64;
    let (p50, p99, samples) = o.lat.whole_percentiles_us(classes);
    (ratio((requests * o.ops_per_request) as f64, seconds), p50, p99, samples)
}

fn join(values: &[f64], digits: usize) -> String {
    values.iter().map(|v| format!("{v:.digits$}")).collect::<Vec<_>>().join(" ")
}

fn all_classes(o: &Outcome) -> Vec<usize> {
    (0..o.classes.len()).collect()
}

fn end_to_end(o: &Outcome) -> Vec<Metric> {
    let classes = all_classes(o);
    let (_, p50, _, timed) = phase_summary(o, &classes);
    println!("metric op_p50_us = {p50} us");
    let (p50s, p99s, fewest) = o.lat.percentiles_us(&classes);
    println!(
        "windows: {} of {:.2} s, {timed} requests timed, at least {fewest} in each; timed phase {:.2} s",
        p50s.len(),
        o.window_s,
        o.wall_s
    );
    let per_s: Vec<f64> =
        o.lat.counts(&classes).iter().map(|&n| (n * o.ops_per_request) as f64 / o.window_s).collect();
    println!("  ops_per_s by window: {}", join(&per_s, 0));
    println!("  op_p50_us by window: {}", join(&p50s, 2));
    println!("  op_p99_us by window: {}", join(&p99s, 2));
    println!("  setup_s by set-up: {}", join(&o.setup_s, 4));
    println!("  reopen_ms by cycle: {}", join(&o.reopen_ms, 3));
    let e = END_TO_END;
    vec![
        metric(e, "setup_s", median(&o.setup_s)),
        metric(e, "ops_per_s", median(&per_s)),
        metric(e, "op_p99_us", median(&p99s)),
        metric(e, "resident_per_live", o.resident_per_live),
    ]
}

/// Percentiles of a span kind's self times, in microseconds.
fn self_us(o: &Outcome, kind: Kind, q: f64) -> f64 {
    report::percentile(&o.recorder.sorted_self(kind), q) as f64 / 1e3
}

fn per_layer(
    base: &Outcome,
    traced: &Outcome,
    counts: &Counts,
    workload: Workload,
) -> (Vec<Metric>, Vec<String>) {
    let mut problems = Vec::new();
    let l = PER_LAYER;
    let ops = counts.requests as f64;
    let d = &counts.dev;
    let lines =
        (d.read_lines_local + d.read_lines_remote + d.write_lines_local + d.write_lines_remote) as f64;
    let (base_ops_per_s, ..) = phase_summary(base, &all_classes(base));
    let (traced_ops_per_s, ..) = phase_summary(traced, &all_classes(traced));
    let traced_ops: f64 =
        traced.lat.counts(&all_classes(traced)).iter().sum::<u64>() as f64 * traced.ops_per_request as f64;
    let cache = cache_totals(&traced.locks);
    let cache_ops = (cache.hits + cache.misses) as f64;
    let held: u64 = traced.locks.iter().map(|p| p.held_ns).sum();
    let hottest = traced.locks.iter().map(|p| p.held_ns).max().unwrap_or(0);
    let wall_ns = traced.wall_s * 1e9;
    let update_root = traced.recorder.root_total(Kind::OpUpdate) as f64;
    let maint_ns = traced.recorder.total_self(Kind::MaintTick) + traced.recorder.total_self(Kind::ScrubStep);

    // The self times of each request's spans must add up to the request.
    for kind in [Kind::OpRound, Kind::OpReplace, Kind::OpRead, Kind::OpUpdate, Kind::OpInsert, Kind::OpScan] {
        let (tree, root) = (traced.recorder.tree_self_total(kind), traced.recorder.root_total(kind));
        if root > 0 {
            println!("span check: {} spans {root} ns, self times under them {tree} ns", kind.name());
        }
        if tree != root {
            problems.push(format!(
                "{}: self times under the spans sum to {tree} ns, spans to {root} ns",
                kind.name()
            ));
        }
    }

    let mut m = vec![
        metric(l, "pmem.sfence_per_op", d.sfence_count as f64 / ops),
        metric(l, "pmem.clwb_per_op", d.clwb_count as f64 / ops),
        metric(l, "pmem.validations_per_op", d.validations as f64 / ops),
        metric(l, "pmem.meta_maps_per_op", d.meta_maps as f64 / ops),
        metric(l, "pmem.write_lines_per_op", (d.write_lines_local + d.write_lines_remote) as f64 / ops),
        metric(l, "pmem.read_lines_per_op", (d.read_lines_local + d.read_lines_remote) as f64 / ops),
        metric(l, "pmem.remote_line_frac", ratio((d.read_lines_remote + d.write_lines_remote) as f64, lines)),
        metric(l, "heap.sfence_per_alloc", ratio(counts.alloc.sfences as f64, counts.alloc.calls as f64)),
        metric(l, "heap.sfence_per_free", ratio(counts.free.sfences as f64, counts.free.calls as f64)),
        metric(l, "heap.clwb_per_alloc", ratio(counts.alloc.clwbs as f64, counts.alloc.calls as f64)),
        metric(l, "heap.clwb_per_free", ratio(counts.free.clwbs as f64, counts.free.calls as f64)),
        metric(l, "pmem.persist_us_p50", self_us(traced, Kind::Persist, 0.5)),
        metric(l, "mpk.wrpkru_per_op", counts.wrpkru as f64 / ops),
        metric(l, "frontend.hit_rate", cache.hit_rate()),
        metric(l, "frontend.refills_per_kop", ratio(cache.refills as f64 * 1e3, cache_ops)),
        metric(l, "frontend.drains_per_kop", ratio(cache.drains as f64 * 1e3, cache_ops)),
        metric(l, "backend.lock_acq_per_op", counts.lock_acquisitions as f64 / ops),
        metric(l, "backend.lock_held_ns_per_op", ratio(held as f64, traced_ops)),
        metric(l, "backend.hottest_lock_busy_frac", ratio(hottest as f64, wall_ns)),
        metric(l, "heap.alloc_self_us_p50", self_us(traced, Kind::HeapAlloc, 0.5)),
        metric(l, "heap.alloc_self_us_p99", self_us(traced, Kind::HeapAlloc, 0.99)),
        metric(l, "heap.free_self_us_p50", self_us(traced, Kind::HeapFree, 0.5)),
        metric(l, "heap.free_self_us_p99", self_us(traced, Kind::HeapFree, 0.99)),
        metric(l, "undo.entries_per_op", d.undo_entries as f64 / ops),
        metric(l, "undo.words_per_op", d.undo_words as f64 / ops),
        metric(l, "fastfair.get_self_us_p50", self_us(traced, Kind::FfGet, 0.5)),
        metric(l, "fastfair.update_self_us_p50", self_us(traced, Kind::FfUpdate, 0.5)),
        metric(l, "fastfair.insert_self_us_p50", self_us(traced, Kind::FfInsert, 0.5)),
        metric(
            l,
            "heap.share_of_update",
            ratio(traced.recorder.heap_self_under(Kind::OpUpdate) as f64, update_root),
        ),
        metric(l, "recovery.load_ms_p50", self_us(traced, Kind::Load, 0.5) / 1e3),
        metric(l, "recovery.shard_open_ms_p50", self_us(traced, Kind::ShardOpen, 0.5) / 1e3),
        metric(
            l,
            "recovery.undo_logs_replayed",
            (traced.recovery.subheap_undos_replayed
                + u32::from(traced.recovery.superblock_undo_replayed)
                + u32::from(traced.recovery.huge_undo_replayed)) as f64,
        ),
        metric(l, "recovery.cached_blocks_reclaimed", traced.recovery.cached_blocks_reclaimed as f64),
        metric(l, "maint.tick_us_p99", self_us(traced, Kind::MaintTick, 0.99)),
        metric(l, "maint.work_units_per_kop", ratio(traced.maint_units as f64 * 1e3, traced_ops)),
        metric(l, "maint.busy_frac", ratio(maint_ns as f64, wall_ns)),
        metric(l, "maint.frag_kib_end", traced.frag_kib_end),
        metric(l, "selfheal.scrub_us_p99", self_us(traced, Kind::ScrubStep, 0.99)),
        metric(l, "trace.overhead_frac", 1.0 - ratio(traced_ops_per_s, base_ops_per_s)),
    ];
    // The unbounded end-to-end figures come from the untraced pass.
    let (_, base_p50, ..) = phase_summary(base, &all_classes(base));
    m.push(metric(l, "op_p50_us", base_p50));
    m.push(metric(l, "reopen_ms", if workload == Workload::Kv { median(&base.reopen_ms) } else { 0.0 }));
    for (class, p50_name, p99_name) in [
        (0, "read_p50_us", "read_p99_us"),
        (1, "update_p50_us", "update_p99_us"),
        (2, "insert_p50_us", "insert_p99_us"),
    ] {
        let (p50, p99) = if workload == Workload::Kv {
            let (_, p50, p99, _) = phase_summary(base, &[class]);
            (p50, p99)
        } else {
            (0.0, 0.0)
        };
        m.push(metric(l, p50_name, p50));
        m.push(metric(l, p99_name, p99));
    }
    (m, problems)
}

fn print_counts(c: &Counts) {
    let d = &c.dev;
    println!(
        "counter pass: requests={} sfence={} clwb={} validations={} meta_maps={} undo_entries={} undo_words={} \
         read_lines={}+{}r write_lines={}+{}r wrpkru={} lock_acq={} alloc_calls={} alloc_sfence={} \
         alloc_clwb={} free_calls={} free_sfence={} free_clwb={} failed={}",
        c.requests,
        d.sfence_count,
        d.clwb_count,
        d.validations,
        d.meta_maps,
        d.undo_entries,
        d.undo_words,
        d.read_lines_local,
        d.read_lines_remote,
        d.write_lines_local,
        d.write_lines_remote,
        c.wrpkru,
        c.lock_acquisitions,
        c.alloc.calls,
        c.alloc.sfences,
        c.alloc.clwbs,
        c.free.calls,
        c.free.sfences,
        c.free.clwbs,
        c.failed
    );
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Some(a)) => a,
        Ok(None) => {
            report::list_metrics();
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let host = Host::detect();
    println!(
        "perfbench workload={} seed={} seconds={} trace={} scale={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        if args.tiny { "tiny" } else { "full" }
    );
    println!("host nproc={} cpu={:?} rustc={:?}", host.nproc, host.cpu, host.rustc);
    let plan = Plan {
        seed: args.seed,
        seconds: args.seconds,
        windows: 5,
        setups: args.workload.setups(args.tiny),
        reopens: args.workload.reopens(args.tiny),
        tiny: args.tiny,
    };

    let (metrics, attempted, failed, problems) = if !args.trace {
        let o = args.workload.run(&plan, Mode::Off);
        for note in &o.notes {
            println!("{note}");
        }
        let m = end_to_end(&o);
        for x in &m {
            print_metric(x, "");
        }
        println!("metric fail_frac = {} ratio", ratio(o.failed as f64, o.attempted as f64));
        if args.workload == Workload::Kv {
            println!("metric reopen_ms = {} ms", median(&o.reopen_ms));
            for (class, name) in o.classes.iter().enumerate() {
                let (_, p50, p99, n) = phase_summary(&o, &[class]);
                println!("metric {name}_p50_us = {p50} us");
                println!("metric {name}_p99_us = {p99} us    [{n} samples]");
            }
        }
        (m, o.attempted, o.failed, o.problems)
    } else {
        // Half the time untraced, half traced; then the counter pass.
        let half = Plan { seconds: args.seconds / 2.0, setups: 1, ..plan };
        let base = args.workload.run(&half, Mode::Off);
        let traced = args.workload.run(&half, Mode::Trace);
        let counts = args.workload.count(&plan);
        print_counts(&counts);
        for note in &traced.notes {
            println!("{note}");
        }
        let spans = args.out.join(format!("spans-{}-seed{}.tsv", args.workload.name(), args.seed));
        match traced.recorder.write_spans(&spans) {
            Ok(()) => println!(
                "spans: {} retained spans written to {}",
                traced.recorder.spans.len(),
                spans.display()
            ),
            Err(e) => println!("spans: not written to {}: {e}", spans.display()),
        }
        let (m, mut problems) = per_layer(&base, &traced, &counts, args.workload);
        for x in &m {
            let target = PER_LAYER.iter().find(|d| d.name == x.name).map_or("", |d| d.target);
            print_metric(x, &format!("moves {target}"));
        }
        problems.extend(base.problems);
        problems.extend(traced.problems);
        if counts.failed > 0 {
            problems.push(format!("counter pass: {} requests failed", counts.failed));
        }
        (
            m,
            base.attempted + traced.attempted + counts.requests,
            base.failed + traced.failed + counts.failed,
            problems,
        )
    };

    for p in &problems {
        println!("FAILED: {p}");
    }
    if failed > 0 {
        println!("FAILED: {failed} of {attempted} operations");
    }
    let correct = problems.is_empty() && failed == 0;
    println!("{}", report::result_line(correct, attempted.max(1), failed, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
