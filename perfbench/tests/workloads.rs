//! Short runs of every workload: each op passes its oracle, every named
//! metric is reported, and the traced run's closure identity holds. A
//! damaged oracle value must count as a failed op, not stop the run.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use perfbench::{per_layer_metrics, run, run_with, Config, Kind, Outcome, END_TO_END};
use std::sync::Mutex;

/// The telemetry recorder, the au-par thread override and the au-nn init
/// seed are process-wide, so runs in this file take turns.
static SERIAL: Mutex<()> = Mutex::new(());

fn config(kind: Kind, trace: bool) -> Config {
    Config {
        kind,
        seed: 7,
        seconds: 0.4,
        trace,
        threads: 2,
    }
}

fn assert_reports(outcome: &Outcome, names: &[(String, &str)]) {
    assert_eq!(
        outcome.metrics.len(),
        names.len(),
        "exactly the named metrics"
    );
    for (name, unit) in names {
        let m = outcome
            .metric(name)
            .unwrap_or_else(|| panic!("metric {name} missing"));
        assert_eq!(m.unit, *unit, "unit of {name}");
        assert!(m.value.is_finite(), "{name} is not finite");
        let json = outcome.json();
        assert!(
            json.contains(&format!("\"{name}\": {{\"value\": ")),
            "{name} not in {json}"
        );
    }
}

#[test]
fn every_workload_passes_its_oracle_and_reports_every_metric() {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let e2e: Vec<(String, &str)> = END_TO_END.iter().map(|&(n, u)| (n.to_owned(), u)).collect();
    for kind in Kind::ALL {
        let untraced = run(&config(kind, false));
        assert!(untraced.attempted >= 1, "[{}] ran no op", kind.name());
        assert_eq!(untraced.fail_frac(), 0.0, "[{}] untraced", kind.name());
        assert!(untraced.correct());
        assert_reports(&untraced, &e2e);
        for (name, _) in &e2e {
            let value = untraced.metric(name).expect("checked above").value;
            assert!(value > 0.0, "[{}] {name} is {value}", kind.name());
        }
        assert!(untraced.json().starts_with("{\"correct\": true, "));

        let traced = run(&config(kind, true));
        assert_eq!(traced.fail_frac(), 0.0, "[{}] traced", kind.name());
        assert!(traced.closure_holds, "[{}] closure broke", kind.name());
        assert!(traced.correct());
        assert_reports(&traced, &per_layer_metrics());
        // Each workload enters the layers it is meant to stress.
        let entered: &[&str] = match kind {
            Kind::CorpusRun => &[
                "vm.steps",
                "vm.dispatch_ms",
                "core.au_nn_rl_ms",
                "core.au_calls",
            ],
            Kind::CorpusAutonomize => &[
                "lang.parse_ms",
                "lang.analyze_ms",
                "lang.compile_ms",
                "trace.values",
                "trace.extract_sl_ms",
                "trace.extract_rl_ms",
                "vm.run_ms.threshold",
                "trace.preprune_pairs",
            ],
            Kind::Serve => &[
                "nn.infer_us.b1",
                "nn.infer_us.b64",
                "nn.gemm_ms",
                "nn.gemm_gflops",
            ],
        };
        for name in entered {
            let value = traced.metric(name).expect("checked above").value;
            assert!(value > 0.0, "[{}] {name} is {value}", kind.name());
        }
    }
}

/// `BENCHMARK.json` at the repository root declares exactly the workloads
/// and metrics this package reports.
#[test]
fn benchmark_json_declares_what_the_benchmark_reports() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
    let declared = |name: &str, unit: Option<&str>| {
        let entry = match unit {
            Some(unit) => format!("\"name\": \"{name}\",\n      \"unit\": \"{unit}\""),
            None => format!("\"name\": \"{name}\""),
        };
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    };
    for kind in Kind::ALL {
        declared(kind.name(), None);
    }
    for (name, unit) in END_TO_END {
        declared(name, Some(unit));
    }
    for (name, unit) in per_layer_metrics() {
        declared(&name, Some(unit));
    }
    let entries = json.matches("\"name\": ").count();
    assert_eq!(
        entries,
        Kind::ALL.len() + END_TO_END.len() + per_layer_metrics().len(),
        "BENCHMARK.json declares metrics or workloads the benchmark does not report"
    );
}

#[test]
fn a_corrupted_oracle_value_is_a_failed_op_not_a_stopped_run() {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    for kind in Kind::ALL {
        let outcome = run_with(&config(kind, false), |wl| wl.corrupt_oracle());
        assert!(outcome.failed >= 1, "[{}] no op failed", kind.name());
        assert!(outcome.attempted >= 2, "[{}] the run stopped", kind.name());
        assert!(outcome.fail_frac() > 0.0);
        assert!(!outcome.correct());
        assert!(outcome.json().starts_with("{\"correct\": false, "));
        // The metrics are still measured and reported.
        assert_eq!(outcome.metrics.len(), END_TO_END.len());
    }
}
