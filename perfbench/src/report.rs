//! Metric values, summary statistics, host facts and the result line.

use std::fmt::Write as _;

/// One named measurement with its unit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric the benchmark defines: its name, unit, direction, and (for
/// per-layer metrics) the end-to-end metric and workload it should move.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub target: &'static str,
}

const fn def(name: &'static str, unit: &'static str, better: Better, target: &'static str) -> MetricDef {
    MetricDef { name, unit, better, target }
}

use Better::{Higher, Lower};

/// End-to-end metrics: reported by every workload, from the untraced pass
/// (the `target` column describes them).
pub const END_TO_END: &[MetricDef] = &[
    def("setup_s", "s", Lower, "device and heap creation plus preload or warm-up, median of the set-ups"),
    def(
        "ops_per_s",
        "1/s",
        Higher,
        "heap operations (micro-256) or requests per second, median over the windows",
    ),
    def("op_p99_us", "us", Lower, "request latency p99, median over the windows of the timed phase"),
    def("resident_per_live", "ratio", Lower, "device resident bytes over live user bytes at the end"),
];

/// Per-layer metrics: reported by every workload from the traced run (0
/// where the workload does not reach the layer).
pub const PER_LAYER: &[MetricDef] = &[
    // pmem, from the exact-counter pass.
    def("pmem.sfence_per_op", "count/op", Lower, "update_p50_us, insert_p50_us, ops_per_s @ kv-soak"),
    def("pmem.clwb_per_op", "count/op", Lower, "update_p50_us, insert_p50_us, ops_per_s @ kv-soak"),
    def("pmem.validations_per_op", "count/op", Lower, "update_p50_us, ops_per_s @ kv-soak"),
    def("pmem.meta_maps_per_op", "count/op", Lower, "update_p50_us, ops_per_s @ kv-soak"),
    def("pmem.write_lines_per_op", "count/op", Lower, "update_p50_us, insert_p50_us @ kv-soak"),
    def("pmem.read_lines_per_op", "count/op", Lower, "read_p50_us, ops_per_s @ kv-soak"),
    def("pmem.remote_line_frac", "ratio", Lower, "ops_per_s @ kv-soak, larson-spill"),
    def("heap.sfence_per_alloc", "count/call", Lower, "update_p50_us, insert_p50_us @ kv-soak"),
    def("heap.sfence_per_free", "count/call", Lower, "update_p50_us @ kv-soak"),
    def("heap.clwb_per_alloc", "count/call", Lower, "update_p50_us, insert_p50_us @ kv-soak"),
    def("heap.clwb_per_free", "count/call", Lower, "update_p50_us @ kv-soak"),
    // pmem, timed in the traced pass.
    def("pmem.persist_us_p50", "us", Lower, "update_p50_us, insert_p50_us @ kv-soak"),
    // mpk.
    def("mpk.wrpkru_per_op", "count/op", Lower, "update_p50_us @ kv-soak"),
    // poseidon::frontend, from the traced pass.
    def("frontend.hit_rate", "ratio", Higher, "ops_per_s @ micro-256, larson-spill"),
    def("frontend.refills_per_kop", "count/kop", Lower, "ops_per_s @ micro-256, larson-spill"),
    def("frontend.drains_per_kop", "count/kop", Lower, "ops_per_s @ micro-256, larson-spill"),
    // poseidon::backend / subheap.
    def("backend.lock_acq_per_op", "count/op", Lower, "op_p99_us, ops_per_s @ larson-spill"),
    def("backend.lock_held_ns_per_op", "ns/op", Lower, "op_p99_us, ops_per_s @ larson-spill"),
    def("backend.hottest_lock_busy_frac", "ratio", Lower, "op_p99_us, ops_per_s @ larson-spill"),
    def("heap.alloc_self_us_p50", "us", Lower, "op_p50_us @ larson-spill; update_p50_us @ kv-soak"),
    def("heap.alloc_self_us_p99", "us", Lower, "op_p99_us @ larson-spill; update_p99_us @ kv-soak"),
    def("heap.free_self_us_p50", "us", Lower, "op_p50_us @ larson-spill; update_p50_us @ kv-soak"),
    def("heap.free_self_us_p99", "us", Lower, "op_p99_us @ larson-spill; update_p99_us @ kv-soak"),
    // poseidon::undo, from the exact-counter pass.
    def("undo.entries_per_op", "count/op", Lower, "update_p50_us @ kv-soak"),
    def("undo.words_per_op", "count/op", Lower, "update_p50_us @ kv-soak"),
    // workloads::fastfair.
    def("fastfair.get_self_us_p50", "us", Lower, "read_p50_us @ kv-soak (an allocator change leaves it)"),
    def("fastfair.update_self_us_p50", "us", Lower, "update_p50_us @ kv-soak"),
    def("fastfair.insert_self_us_p50", "us", Lower, "insert_p50_us @ kv-soak"),
    def("heap.share_of_update", "ratio", Lower, "bounds any allocator gain on update_p50_us @ kv-soak"),
    // poseidon::recovery.
    def("recovery.load_ms_p50", "ms", Lower, "reopen_ms @ kv-soak"),
    def("recovery.shard_open_ms_p50", "ms", Lower, "reopen_ms @ kv-soak"),
    def("recovery.undo_logs_replayed", "count", Lower, "reopen_ms @ kv-soak"),
    def("recovery.cached_blocks_reclaimed", "count", Lower, "reopen_ms @ micro-256, larson-spill"),
    // poseidon::maintenance and selfheal.
    def("maint.tick_us_p99", "us", Lower, "read_p99_us, update_p99_us @ kv-soak"),
    def("maint.work_units_per_kop", "count/kop", Lower, "update_p99_us, resident_per_live @ kv-soak"),
    def("maint.busy_frac", "ratio", Lower, "ops_per_s, update_p99_us @ kv-soak"),
    def("maint.frag_kib_end", "KiB", Lower, "resident_per_live @ kv-soak"),
    def("selfheal.scrub_us_p99", "us", Lower, "read_p99_us, update_p99_us @ kv-soak"),
    // Cost of the tracing itself.
    def("trace.overhead_frac", "ratio", Lower, "ops_per_s of the traced pass against the untraced pass"),
    // End-to-end figures without a bound, from the untraced pass of the
    // traced run: the request latency median (on micro-256 it jumps
    // between the host's two speeds, a spread of 0.34 over ten seeds),
    // and kv-soak's reopen time and per-class latencies.
    def("op_p50_us", "us", Lower, "end-to-end, every workload: request latency median"),
    def("reopen_ms", "ms", Lower, "end-to-end @ kv-soak: crash to serving, median over the cycles"),
    def("read_p50_us", "us", Lower, "end-to-end @ kv-soak"),
    def("read_p99_us", "us", Lower, "end-to-end @ kv-soak"),
    def("update_p50_us", "us", Lower, "end-to-end @ kv-soak"),
    def("update_p99_us", "us", Lower, "end-to-end @ kv-soak"),
    def("insert_p50_us", "us", Lower, "end-to-end @ kv-soak"),
    def("insert_p99_us", "us", Lower, "end-to-end @ kv-soak"),
];

/// Nearest-rank percentile of `sorted` (0 when empty).
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Median of `values` (mean of the middle two for an even count; 0 when
/// empty).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The metric tables as JSON lines, in `BENCHMARK.json`'s shape.
pub fn list_metrics() {
    for (section, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        for d in defs {
            println!(
                "{section}\t{{\"name\": {}, \"unit\": {}, \"better\": {}}}\t{}",
                json_str(d.name),
                json_str(d.unit),
                json_str(d.better.as_str()),
                d.target
            );
        }
    }
}

/// Ratio that reads 0 instead of NaN when nothing happened.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Facts about the host a result was measured on.
pub struct Host {
    pub nproc: usize,
    pub cpu: String,
    pub rustc: &'static str,
}

impl Host {
    pub fn detect() -> Host {
        Host {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu: cpu_model(),
            rustc: env!("PERFBENCH_RUSTC"),
        }
    }
}

/// The CPU brand string from `cpuid` leaves 0x80000002..=0x80000004.
#[cfg(target_arch = "x86_64")]
fn cpu_model() -> String {
    use std::arch::x86_64::__cpuid;
    // SAFETY: `cpuid` exists on every x86-64 CPU, and leaf 0x80000000
    // reports which extended leaves may be queried before we query them.
    #[allow(unused_unsafe)]
    let brand = unsafe {
        if __cpuid(0x8000_0000).eax < 0x8000_0004 {
            return "unknown".to_string();
        }
        let mut bytes = Vec::with_capacity(48);
        for leaf in 0x8000_0002u32..=0x8000_0004 {
            let r = __cpuid(leaf);
            for word in [r.eax, r.ebx, r.ecx, r.edx] {
                bytes.extend_from_slice(&word.to_le_bytes());
            }
        }
        bytes
    };
    String::from_utf8_lossy(&brand).trim_matches(char::from(0)).trim().to_string()
}

#[cfg(not(target_arch = "x86_64"))]
fn cpu_model() -> String {
    "unknown".to_string()
}

/// Escapes `s` for a JSON string literal.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite number in JSON (non-finite values, which JSON cannot carry,
/// become 0).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.5), 50);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&[], 0.5), 0);
    }

    #[test]
    fn medians_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn result_line_has_the_four_keys() {
        let line = result_line(true, 10, 0, &[Metric { name: "ops_per_s", value: 1.5, unit: "1/s" }]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \
             \"metrics\": {\"ops_per_s\": {\"value\": 1.5, \"unit\": \"1/s\"}}}"
        );
    }

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|d| d.name).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(before, names.len());
    }
}
