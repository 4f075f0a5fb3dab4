//! Smoke test of the benchmark itself: every workload at tiny scale,
//! untraced and traced. Each metric `BENCHMARK.json` names must appear
//! with its unit, the traced run must print its counter pass and write
//! its spans, and the counter pass must repeat exactly.

use std::path::{Path, PathBuf};
use std::process::Command;

const WORKLOADS: [&str; 3] = ["micro-256", "larson-spill", "kv-soak"];

fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("perfbench-smoke")
}

/// Runs the benchmark; returns its standard output.
fn run(workload: &str, trace: u8, seed: u64) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", &seed.to_string(), "--seconds", "0.4"])
        .args(["--trace", &trace.to_string(), "--scale", "tiny", "--out"])
        .arg(out_dir())
        .output()
        .expect("run the benchmark");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} --trace {trace} exited with {}:\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("read BENCHMARK.json");
    let start = text.find(&format!("\"{section}\"")).expect("section present");
    let body = &text[start..text[start..].find(']').map(|end| start + end).expect("section closes")];
    let field = |entry: &str, key: &str| -> String {
        let at = entry.find(&format!("\"{key}\": \"")).expect("field present") + key.len() + 5;
        entry[at..at + entry[at..].find('"').expect("string closes")].to_string()
    };
    body.split('{').skip(1).map(|entry| (field(entry, "name"), field(entry, "unit"))).collect()
}

fn result_line(stdout: &str) -> &str {
    let last = stdout.lines().last().expect("some output");
    assert!(last.starts_with("{\"correct\": true, \"attempted\": "), "bad result line: {last}");
    last
}

fn check_metrics(stdout: &str, section: &str) {
    let result = result_line(stdout);
    let metrics = declared(section);
    assert!(!metrics.is_empty());
    for (name, unit) in metrics {
        assert!(
            result.contains(&format!("\"{name}\": {{\"value\": "))
                && result.contains(&format!("\"unit\": \"{unit}\"")),
            "{name} [{unit}] missing from the result line: {result}"
        );
        let printed = format!("metric {name} = ");
        let line =
            stdout.lines().find(|l| l.starts_with(&printed)).unwrap_or_else(|| panic!("{name} not printed"));
        assert!(line.contains(&format!(" {unit}")), "{name} printed without its unit: {line}");
    }
    assert_eq!(result.matches("\"value\": ").count(), declared(section).len(), "extra metrics: {result}");
}

fn counter_line(stdout: &str) -> String {
    stdout.lines().find(|l| l.starts_with("counter pass: ")).expect("counter pass printed").to_string()
}

#[test]
fn every_workload_reports_its_end_to_end_metrics() {
    for workload in WORKLOADS {
        check_metrics(&run(workload, 0, 7), "end_to_end");
    }
}

#[test]
fn traced_runs_report_per_layer_metrics_and_repeat_their_counts() {
    for workload in WORKLOADS {
        let first = run(workload, 1, 7);
        check_metrics(&first, "per_layer");
        assert!(first.contains("moves "), "per-layer metrics must name what they move");
        let spans = out_dir().join(format!("spans-{workload}-seed7.tsv"));
        let text = std::fs::read_to_string(&spans).expect("span file written");
        assert!(text.lines().count() > 1, "no spans in {}", spans.display());
        assert_eq!(counter_line(&first), counter_line(&run(workload, 1, 7)), "{workload}: counts differ");
    }
}

#[test]
fn bad_arguments_exit_with_usage() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench")).args(["--workload", "nope"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}
