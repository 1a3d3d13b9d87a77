//! The human-readable report printed before the result line: the run's
//! identity (seed, threads, commit, host), every metric with its sample
//! count, median and quartiles, the closure table of the traced run, and
//! the interaction table with the predicted shares beside the measured
//! ones.

use crate::run::{Closure, Config, Metric, Outcome, Phase, SETUPS};
use crate::stats::percentile;
use crate::{Kind, Workload};
use au_bench::history::{current_commit, Fingerprint};

fn metric_line(m: &Metric) -> String {
    let s = m.summary;
    format!(
        "  {:<34} {:>14.6} {:<8} n={:<7} median={:.6} q1={:.6} q3={:.6}",
        m.name, m.value, m.unit, s.n, s.median, s.q1, s.q3
    )
}

fn pct(share: f64) -> String {
    format!("{:.1}%", share * 100.0)
}

/// Renders the report.
pub(crate) fn render(
    cfg: &Config,
    outcome: &Outcome,
    e2e: &[Metric],
    untraced: &Phase,
    traced: Option<&Phase>,
    layers: Option<&[Metric]>,
    wl: &dyn Workload,
) -> Vec<String> {
    let fp = Fingerprint::current();
    let mut out = vec![
        format!("# perfbench workload={}", cfg.kind.name()),
        format!(
            "seed={} threads={} seconds={} trace={} setups={} commit={}",
            cfg.seed,
            cfg.threads,
            cfg.seconds,
            u8::from(cfg.trace),
            SETUPS,
            current_commit()
        ),
        format!(
            "host: os={} arch={} cpus={} cpu_model={:?}",
            fp.os, fp.arch, fp.cpus, fp.cpu_model
        ),
        "## end-to-end (untraced ops)".to_owned(),
    ];
    out.extend(e2e.iter().map(metric_line));
    out.push(format!(
        "  {:<34} {:>14.6} {:<8} n={} failed={}",
        "fail_frac",
        outcome.fail_frac(),
        "ratio",
        outcome.attempted,
        outcome.failed
    ));
    let classes = wl.classes();
    for (i, class) in classes.iter().enumerate() {
        let ns = untraced.ops.sorted_ns(Some(i));
        out.push(format!(
            "  class {class:<4} n={:<7} p50={:.1}us p90={:.1}us p99={:.1}us",
            ns.len(),
            percentile(&ns, 0.5) / 1e3,
            percentile(&ns, 0.9) / 1e3,
            percentile(&ns, 0.99) / 1e3
        ));
    }
    let (Some(traced), Some(layers)) = (traced, layers) else {
        return out;
    };
    out.push("## per-layer (traced ops)".to_owned());
    out.extend(layers.iter().map(metric_line));
    out.extend(closure_table(&traced.closure));
    out.extend(interaction_table(cfg.kind, &traced.closure, layers));
    out
}

/// Self time per layer per op, and whether the identity held on each op.
fn closure_table(c: &Closure) -> Vec<String> {
    let ops = c.ops.max(1) as f64;
    let mut out = vec![
        "## closure: layer self time + driver self time == op time".to_owned(),
        format!("  {:<20} {:>12} {:>8}", "layer", "ms/op", "share"),
    ];
    for (layer, ns) in &c.layer_ns {
        out.push(format!(
            "  {:<20} {:>12.4} {:>8}",
            layer,
            *ns as f64 / 1e6 / ops,
            pct(*ns as f64 / c.root_ns.max(1) as f64)
        ));
    }
    let sum: i64 = c.layer_ns.values().sum();
    out.push(format!(
        "  {:<20} {:>12.4} {:>8}   (op time {:.4} ms/op)",
        "sum",
        sum as f64 / 1e6 / ops,
        pct(sum as f64 / c.root_ns.max(1) as f64),
        c.root_ns as f64 / 1e6 / ops
    ));
    out.push(format!(
        "  closure holds on {}/{} traced ops",
        c.holding, c.ops
    ));
    out.push("  of which, from the program's histograms (summed over threads):".to_owned());
    for (hist, ns) in &c.inside_ns {
        out.push(format!(
            "    {:<18} {:>12.4} {:>8}",
            hist,
            *ns as f64 / 1e6 / ops,
            pct(*ns as f64 / c.root_ns.max(1) as f64)
        ));
    }
    out
}

/// Layer metric → end-to-end metric → workload, with the predicted share
/// beside the measured one.
fn interaction_table(kind: Kind, c: &Closure, layers: &[Metric]) -> Vec<String> {
    let med = |name: &str| {
        layers
            .iter()
            .find(|m| m.name == name)
            .map_or(0.0, |m| m.value)
    };
    let w = kind.name();
    let rows: Vec<(&str, &str, &str, String)> = match kind {
        Kind::CorpusRun => {
            let rl_run: f64 = ["flappy", "mario", "arkanoid", "torcs", "breakout"]
                .iter()
                .map(|p| med(&format!("vm.run_ms.{p}")))
                .sum();
            vec![
                (
                    "vm.dispatch_ms",
                    "sweep_p50_ms",
                    "~55% of the sweep",
                    pct(c.share(&["vm.dispatch"])),
                ),
                (
                    "core.au_nn_ms+core.au_nn_rl_ms",
                    "sweep_p50_ms",
                    "~45% of the sweep",
                    pct(c.share(&["core.au_nn", "core.au_nn_rl"])),
                ),
                (
                    "core.au_nn_rl_ms",
                    "sweep_p50_ms",
                    "~50% of Vm::run in the RL programs",
                    pct(med("core.au_nn_rl_ms") / rl_run.max(1e-9)),
                ),
                (
                    "lang.*_ms",
                    "setup_s only",
                    "0% of the sweep",
                    pct(c.share(&["lang.parse", "lang.analyze", "lang.compile"])),
                ),
                (
                    "trace.record_ms",
                    "none",
                    "0 (recording compiled out)",
                    format!(
                        "{:.3} ms, {} values",
                        med("trace.record_ms"),
                        med("trace.values")
                    ),
                ),
                (
                    "par.regions",
                    "none",
                    "~0 forked regions/sweep",
                    format!("{}", med("par.regions")),
                ),
                (
                    "prof.unattributed_frac",
                    "-",
                    "small",
                    pct(c.share(&["driver"])),
                ),
            ]
        }
        Kind::CorpusAutonomize => {
            let record = med("trace.record_ms");
            vec![
                (
                    "lang.*_ms",
                    "sweep_p50_ms",
                    "~17% of the sweep",
                    pct(c.share(&["lang.parse", "lang.analyze", "lang.compile"])),
                ),
                (
                    "vm.dispatch_ms",
                    "sweep_p50_ms",
                    "less than on corpus_run",
                    pct(c.share(&["vm.dispatch"])),
                ),
                (
                    "core.au_nn_ms+core.au_nn_rl_ms",
                    "sweep_p50_ms",
                    "less than on corpus_run",
                    pct(c.share(&["core.au_nn", "core.au_nn_rl"])),
                ),
                (
                    "trace.record_ms",
                    "sweep_p50_ms",
                    "~+50% on a run",
                    format!("+{}", pct(record / (med("vm.run_ms") - record).max(1e-9))),
                ),
                (
                    "trace.extract_*_ms",
                    "sweep_p50_ms",
                    "~1% of the sweep",
                    pct(c.share(&["trace.extract_sl", "trace.extract_rl"])),
                ),
                (
                    "par.regions",
                    "none",
                    "~0 forked regions/sweep",
                    format!("{}", med("par.regions")),
                ),
                (
                    "prof.unattributed_frac",
                    "-",
                    "small",
                    pct(c.share(&["driver"])),
                ),
            ]
        }
        Kind::Serve => {
            let infer_share = |class: &str| {
                let infer = med(&format!("nn.infer_us.{class}"));
                let over = med(&format!("core.predict_overhead_us.{class}"));
                pct(infer / (infer + over).max(1e-9))
            };
            vec![
                (
                    "core.predict_overhead_us.b1",
                    "req_p50_us",
                    "moves p50 (1-row class)",
                    format!(
                        "{:.2} us; infer = {} of the request",
                        med("core.predict_overhead_us.b1"),
                        infer_share("b1")
                    ),
                ),
                (
                    "nn.infer_us.b8",
                    "req_p90_us",
                    "moves p90 (8-row class)",
                    format!(
                        "{:.2} us = {} of the request",
                        med("nn.infer_us.b8"),
                        infer_share("b8")
                    ),
                ),
                (
                    "nn.infer_us.b64+nn.gemm_gflops",
                    "req_p99_us, rows_per_s",
                    "moves p99 (64-row class)",
                    format!(
                        "{:.2} us = {} of the request, {:.2} GFLOP/s",
                        med("nn.infer_us.b64"),
                        infer_share("b64"),
                        med("nn.gemm_gflops")
                    ),
                ),
                (
                    "par.join_wait_ms.b8",
                    "req_p90_us",
                    "8-row p50 62us at 1 thread vs 115us at 2",
                    format!(
                        "{:.2} us over {} regions",
                        med("par.join_wait_ms.b8") * 1e3,
                        med("par.regions.b8")
                    ),
                ),
                (
                    "par.join_wait_ms.b64",
                    "req_p99_us, rows_per_s",
                    "fork/join cost at 2 threads",
                    format!(
                        "{:.2} us over {} regions",
                        med("par.join_wait_ms.b64") * 1e3,
                        med("par.regions.b64")
                    ),
                ),
                (
                    "core.predict (self)",
                    "req_p50_us",
                    "-",
                    pct(c.share(&["core.predict"])),
                ),
                (
                    "prof.unattributed_frac",
                    "-",
                    "small",
                    pct(c.share(&["driver"])),
                ),
            ]
        }
    };
    let mut out = vec![
        "## interaction: layer metric -> end-to-end metric, workload, predicted vs measured"
            .to_owned(),
    ];
    for (layer, e2e, predicted, measured) in rows {
        out.push(format!(
            "  {layer:<32} -> {e2e:<24} {w:<18} predicted: {predicted:<42} measured: {measured}"
        ));
    }
    let overhead = med("prof.overhead_frac");
    out.push(format!(
        "  prof.overhead_frac = {overhead:.4} (traced median op over untraced median op, minus 1)"
    ));
    out
}
