//! Smoke test: `repro fig3` at CI scale must show Poseidon rejecting the
//! paper's metadata attacks while the PMDK simulation visibly corrupts.
//! Also pins the digests: two `repro digest` runs must print the same
//! bytes (determinism is part of the reproduction contract), and checks
//! that an invalid `--threads` value is a usage error.

use std::process::Command;

fn run_repro(args: &[&str]) -> String {
    let output = Command::new(env!("CARGO_BIN_EXE_repro")).args(args).output().expect("spawn repro binary");
    assert!(
        output.status.success(),
        "repro {args:?} exited with {}: {}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8(output.stdout).expect("utf-8 stdout")
}

#[test]
fn fig3_poseidon_rejects_attacks_while_pmdk_corrupts() {
    let out = run_repro(&["fig3"]);

    // Poseidon stops every attack.
    assert!(out.contains("MPK protection fault (store rejected)"), "overflow not rejected:\n{out}");
    assert!(out.contains("rejected as invalid free"), "forged free not rejected:\n{out}");
    assert!(out.contains("rejected as double free"), "double free not rejected:\n{out}");
    assert!(out.contains("audit clean — no metadata corruption"), "audit not clean:\n{out}");
    assert!(!out.contains("UNEXPECTED"), "an attack had an unexpected outcome:\n{out}");

    // The PMDK simulation, by design, corrupts: the overlap count and the
    // leak count on its lines must be non-zero.
    let overlaps: u64 = field_before(&out, "overlapping allocations");
    assert!(overlaps > 0, "pmdk overlap attack produced no overlaps:\n{out}");
    let leaked: u64 = field_before(&out, "chunks permanently leaked");
    assert!(leaked > 0, "pmdk shrink attack leaked nothing:\n{out}");
}

#[test]
fn digest_output_is_stable_across_runs() {
    let first = run_repro(&["digest"]);
    let second = run_repro(&["digest"]);
    assert!(first.contains("fnv1a-64"), "digest table missing:\n{first}");
    assert_eq!(first, second, "repro digest printed different output on a second run");
}

#[test]
fn zero_threads_is_a_usage_error() {
    // Rejected while parsing the arguments, before any run starts a worker.
    let output = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--threads", "0", "fig7"])
        .output()
        .expect("spawn repro binary");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(2), "repro --threads 0 fig7 was accepted; stderr:\n{stderr}");
    assert!(stderr.contains("usage: repro"), "no usage line on stderr:\n{stderr}");
    assert!(output.stdout.is_empty(), "repro printed a run before rejecting --threads 0");
}

/// Extracts the number immediately preceding `marker` on its line.
fn field_before(out: &str, marker: &str) -> u64 {
    let line =
        out.lines().find(|l| l.contains(marker)).unwrap_or_else(|| panic!("no line with {marker:?}:\n{out}"));
    let prefix = line.split(marker).next().unwrap();
    prefix
        .split_whitespace()
        .last()
        .and_then(|w| w.parse().ok())
        .unwrap_or_else(|| panic!("no count before {marker:?} in line {line:?}"))
}
