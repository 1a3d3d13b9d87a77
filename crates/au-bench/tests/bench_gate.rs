//! End-to-end checks on the perf-regression gate binaries: `bench-diff`
//! must pass on identical runs, fail (exit 1) on an injected synthetic
//! regression, and `bench-history` must append parseable history lines
//! that feed straight back into the gate.

use au_bench::history::{Fingerprint, HistoryRun, SCHEMA};
use std::path::{Path, PathBuf};
use std::process::Command;

fn temp_history(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "au-bench-gate-{tag}-{}-{}",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos()
    ));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join("BENCH_history.jsonl")
}

fn run_with(benches: &[(&str, f64)]) -> HistoryRun {
    HistoryRun {
        schema: SCHEMA,
        unix_secs: 1_754_600_000,
        commit: "abc1234".to_owned(),
        fingerprint: Fingerprint::current(),
        benches: benches.iter().map(|(k, v)| ((*k).to_owned(), *v)).collect(),
    }
}

fn bench_diff(history: &Path, extra: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_bench-diff"))
        .args(["--history", history.to_str().unwrap()])
        .args(extra)
        .output()
        .expect("run bench-diff")
}

#[test]
fn diff_passes_on_identical_runs_and_fails_on_injected_regression() {
    let history = temp_history("diff");
    let mut fast = run_with(&[("gemm_64", 250_000.0), ("predict", 9_000.0)]);
    fast.commit = "aaa1111".to_owned();
    au_bench::history::append(&history, &fast).unwrap();
    au_bench::history::append(&history, &fast).unwrap();

    let ok = bench_diff(&history, &["--threshold", "1.30"]);
    assert!(
        ok.status.success(),
        "identical runs must pass: {}",
        String::from_utf8_lossy(&ok.stderr)
    );

    // Inject a synthetic 2x regression on gemm_64 and the gate must trip.
    let mut slower = fast.clone();
    slower.commit = "bbb2222".to_owned();
    slower.benches.insert("gemm_64".to_owned(), 500_000.0);
    au_bench::history::append(&history, &slower).unwrap();

    let fail = bench_diff(&history, &["--threshold", "1.30"]);
    assert_eq!(
        fail.status.code(),
        Some(1),
        "regression must exit 1: {}",
        String::from_utf8_lossy(&fail.stderr)
    );
    let stderr = String::from_utf8_lossy(&fail.stderr);
    assert!(stderr.contains("gemm_64"), "names the culprit: {stderr}");
    assert!(stderr.contains("2.00x"), "states the ratio: {stderr}");

    // A follow-up run at the regressed speed: the default (previous-run)
    // comparison passes, but pinning the baseline to the fast commit
    // still trips the gate — --baseline selects by commit, not recency.
    let mut settled = slower.clone();
    settled.commit = "ccc3333".to_owned();
    au_bench::history::append(&history, &settled).unwrap();
    let vs_prev = bench_diff(&history, &["--threshold", "1.30"]);
    assert!(
        vs_prev.status.success(),
        "vs previous (equally slow) run: {}",
        String::from_utf8_lossy(&vs_prev.stderr)
    );
    let vs_fast = bench_diff(&history, &["--threshold", "1.30", "--baseline", "aaa"]);
    assert_eq!(
        vs_fast.status.code(),
        Some(1),
        "vs pinned fast baseline: still regressed: {}",
        String::from_utf8_lossy(&vs_fast.stderr)
    );

    std::fs::remove_dir_all(history.parent().unwrap()).ok();
}

#[test]
fn diff_defaults_to_the_latest_same_machine_run() {
    let history = temp_history("machine");
    let mut older = run_with(&[("gemm_64", 100_000.0)]);
    older.commit = "aaa1111".to_owned();
    // The newest committed line comes from a faster machine: against it
    // the head would read as a 2x regression.
    let mut elsewhere = run_with(&[("gemm_64", 50_000.0)]);
    elsewhere.commit = "bbb2222".to_owned();
    elsewhere.fingerprint.cpu_model = "another machine's CPU".to_owned();
    let mut head = older.clone();
    head.commit = "ccc3333".to_owned();
    for run in [&older, &elsewhere, &head] {
        au_bench::history::append(&history, run).unwrap();
    }
    let out = bench_diff(&history, &["--threshold", "1.30"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "same-machine base is equal: {stderr}");
    assert!(
        stderr.contains("against base aaa1111"),
        "diffs against the same-machine line: {stderr}"
    );
    // Naming the other machine's run explicitly still compares against
    // it, with the advisory warning.
    let pinned = bench_diff(&history, &["--threshold", "1.30", "--baseline", "bbb"]);
    assert_eq!(pinned.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&pinned.stderr).contains("different machines"));

    // Only other-machine runs before the head: nothing to compare.
    let lonely = temp_history("lonely");
    au_bench::history::append(&lonely, &elsewhere).unwrap();
    au_bench::history::append(&lonely, &head).unwrap();
    let out = bench_diff(&lonely, &["--threshold", "1.30"]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("no earlier run on this machine"));

    std::fs::remove_dir_all(history.parent().unwrap()).ok();
    std::fs::remove_dir_all(lonely.parent().unwrap()).ok();
}

#[test]
fn diff_handles_empty_and_single_run_histories() {
    let history = temp_history("edge");
    // No file at all: usage error, exit 2.
    let missing = bench_diff(&history, &[]);
    assert_eq!(missing.status.code(), Some(2));
    // One run: nothing to compare, advisory pass.
    au_bench::history::append(&history, &run_with(&[("a", 1000.0)])).unwrap();
    let single = bench_diff(&history, &[]);
    assert!(single.status.success());
    std::fs::remove_dir_all(history.parent().unwrap()).ok();
}

#[test]
fn bench_history_appends_parseable_runs_that_gate_clean() {
    let history = temp_history("smoke");
    for _ in 0..2 {
        let out = Command::new(env!("CARGO_BIN_EXE_bench-history"))
            .args(["--quick", "--out", history.to_str().unwrap()])
            .output()
            .expect("run bench-history");
        assert!(
            out.status.success(),
            "bench-history failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    let (runs, skipped) = au_bench::history::load(&history).unwrap();
    assert_eq!(runs.len(), 2, "two appended runs");
    assert!(skipped.is_empty(), "{skipped:?}");
    for run in &runs {
        for expected in [
            "gemm_64",
            "gemm_128",
            "au_extract",
            "predict",
            "pool_map_1k",
        ] {
            let ns = run.benches.get(expected).copied().unwrap_or_default();
            assert!(ns > 0.0, "{expected} missing or non-positive: {ns}");
        }
    }
    // Two back-to-back smoke runs on the same machine should be well
    // within a generous advisory threshold; use a huge one so scheduler
    // noise on loaded CI machines cannot flake this test — the strict
    // threshold behaviour is covered by the synthetic-regression test.
    let gate = bench_diff(&history, &["--threshold", "25.0"]);
    assert!(
        gate.status.success(),
        "back-to-back smoke runs gated: {}",
        String::from_utf8_lossy(&gate.stderr)
    );
    std::fs::remove_dir_all(history.parent().unwrap()).ok();
}
