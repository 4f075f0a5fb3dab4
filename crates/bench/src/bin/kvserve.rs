//! The KV service soak gate: mixed zipfian traffic over sharded
//! FAST-FAIR trees on one Poseidon heap, with kill-and-resume, live
//! media-fault, and online-grow events injected mid-run.
//!
//! ```text
//! kvserve [--threads N] [--shards S] [--keys K] [--ops O] [--seed X]
//!         [--value-size B] [--events kill,poison,grow] [--maint N]
//! ```
//!
//! Prints the per-interval latency table (p50/p99/p999 per op class),
//! one line per injected event, and a final summary. Exits non-zero
//! (panics) on any correctness violation: a lost acknowledged key, a
//! corrupt value, an out-of-order scan, or a failed recovery/audit —
//! which is what makes it a CI gate rather than a benchmark.

use workloads::kvserve::{run_soak, EventReport, KvServeConfig, SoakEvent, SoakReport};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut threads = 4usize;
    let mut shards = 4usize;
    let mut keys = 4000u64;
    let mut ops = 4000u64;
    let mut seed = 0x5EA5_0A4Bu64;
    let mut value_size = 100u64;
    let mut events = vec![SoakEvent::Kill, SoakEvent::Poison, SoakEvent::Grow];
    let mut maint_budget: Option<usize> = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let mut value =
            |name: &str| iter.next().cloned().unwrap_or_else(|| usage(&format!("missing value for {name}")));
        match arg.as_str() {
            "--threads" => threads = parse(&value("--threads")),
            "--shards" => shards = parse(&value("--shards")),
            "--keys" => keys = parse(&value("--keys")),
            "--ops" => ops = parse(&value("--ops")),
            "--seed" => seed = parse(&value("--seed")),
            "--value-size" => value_size = parse(&value("--value-size")),
            "--maint" => maint_budget = Some(parse(&value("--maint"))),
            "--events" => {
                let list = value("--events");
                events = list
                    .split(',')
                    .filter(|s| !s.is_empty())
                    .map(|s| SoakEvent::parse(s).unwrap_or_else(|| usage(&format!("unknown event {s}"))))
                    .collect();
            }
            other => usage(&format!("unknown flag {other}")),
        }
    }

    let mut config = KvServeConfig::new(threads, shards, keys, ops).with_events(events);
    config.seed = seed;
    config.value_size = value_size;
    if let Some(budget) = maint_budget {
        config = config.with_maint(budget);
    }
    println!(
        "# kvserve soak: {threads} threads x {ops} ops over {shards} shards, {keys} loaded keys, \
         events [{}], maint budget {}, seed {seed:#x}",
        config.events.iter().map(|e| e.name()).collect::<Vec<_>>().join(","),
        config.maint_budget
    );

    let report = run_soak(&config);
    print_report(&report);

    // Gate assertions beyond run_soak's internal invariants: the service
    // must have actually exercised what the flags asked for.
    report.assert_invariants(&config);
    for event in &report.events {
        if let EventReport::Kill { reopen, .. } = event {
            assert!(
                reopen.as_millis() < 5_000,
                "reopen took {reopen:?} — recovery is not O(metadata) anymore"
            );
        }
    }
    println!("kvserve gate: OK ({} ops, {} intervals)", report.ops, report.intervals.len());
}

fn parse<T: std::str::FromStr>(s: &str) -> T {
    s.parse().unwrap_or_else(|_| usage(&format!("invalid numeric value {s}")))
}

fn usage(problem: &str) -> ! {
    eprintln!("error: {problem}");
    eprintln!(
        "usage: kvserve [--threads N] [--shards S] [--keys K] [--ops O] [--seed X] \
         [--value-size B] [--events kill,poison,grow] [--maint N]"
    );
    std::process::exit(2)
}

fn print_report(report: &SoakReport) {
    println!("\n## intervals (latency ns per op class)");
    println!("{:<4} {:>8} {:>10}  class p50/p99/p999", "#", "ops", "ms");
    for interval in &report.intervals {
        let mut cells = Vec::new();
        for (class, summary) in &interval.classes {
            if summary.count > 0 {
                cells.push(format!("{} {}/{}/{}", class.name(), summary.p50, summary.p99, summary.p999));
            }
        }
        println!(
            "{:<4} {:>8} {:>10.1}  {}",
            interval.index,
            interval.ops,
            interval.elapsed.as_secs_f64() * 1e3,
            cells.join("  ")
        );
    }

    println!("\n## events");
    for event in &report.events {
        match event {
            EventReport::Kill { at_op, reopen, population } => println!(
                "kill   @op {at_op}: reopened in {:.2} ms, verified all {population} acknowledged keys",
                reopen.as_secs_f64() * 1e3
            ),
            EventReport::Poison { at_op, keys } => {
                println!("poison @op {at_op}: {keys} live value blocks poisoned")
            }
            EventReport::Grow { at_op, old_capacity, new_capacity, new_subheaps } => println!(
                "grow   @op {at_op}: {} MiB -> {} MiB (+{new_subheaps} sub-heaps)",
                old_capacity >> 20,
                new_capacity >> 20
            ),
        }
    }

    println!("\n## fragmentation (coalescing debt over time)");
    println!(
        "{:>10} {:>12} {:>12} {:>13} {:>14}",
        "at op", "free KiB", "frag KiB", "largest", "huge largest"
    );
    for sample in &report.fragmentation {
        println!(
            "{:>10} {:>12} {:>12} {:>13} {:>14}",
            sample.at_op,
            sample.free_bytes >> 10,
            sample.frag_bytes >> 10,
            sample.largest_block,
            sample.huge_largest_free.map_or_else(|| "-".into(), |v| v.to_string())
        );
    }
    let h = &report.health;
    println!(
        "maintenance: {} steps, {} buddy merges, {} table levels shrunk, {} cached blocks trimmed",
        h.maint_steps, h.maint_merges, h.maint_table_levels_shrunk, h.maint_blocks_trimmed
    );
    println!("background engine: {} full passes (scrub and maintenance visits)", h.passes);

    println!("\n## totals");
    for (class, summary) in &report.totals {
        if summary.count > 0 {
            println!("{:<7} {summary}", class.name());
        }
    }
    let c = &report.counters;
    println!(
        "population {} ({} loaded + {} inserted), healed {}, dirty allocs {}, space stalls {}, \
         read races {}, free errors {}",
        report.population,
        report.loaded,
        report.inserted,
        c.healed,
        c.dirty_allocs,
        c.space_stalls,
        c.read_races,
        c.free_errors
    );
    let h = &report.health;
    println!(
        "health: {} live media errors, {} blocks quarantined live ({} durable), {} scrub steps, \
         {} poisoned lines left",
        h.live_media_errors(),
        h.blocks_quarantined_live,
        report.quarantined_blocks,
        h.scrub_steps,
        h.poisoned_lines
    );
    println!(
        "soak elapsed {:.2} s ({:.0} ops/s)",
        report.elapsed.as_secs_f64(),
        report.ops as f64 / report.elapsed.as_secs_f64().max(1e-9)
    );
}
