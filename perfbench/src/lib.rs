//! The repository benchmark: three closed-loop workloads driven through
//! the public entry points of au-lang, au-trace, au-core and au-nn, each op
//! checked against an oracle the code under test does not produce.
//!
//! An untraced run gives the end-to-end metrics; a traced run of the same
//! workload gives the per-layer breakdown (see [`probe`]). See
//! `perfbench/README.md` for the workloads, the metrics and how they
//! interact.

#![forbid(unsafe_code)]

pub mod corpus;
pub mod probe;
mod report;
mod run;
pub mod serve;
pub mod stats;

pub use run::{run, run_with, Config, Metric, Outcome, SETUPS};

use probe::Probe;
use std::collections::BTreeMap;

/// One op's outcome.
#[derive(Debug, Clone, Copy)]
pub struct Op {
    /// Wall time of the op's timed part, in nanoseconds.
    pub ns: u64,
    /// Units of work done: programs for the corpus workloads, rows for
    /// `serve`.
    pub work: u64,
    /// Request class index into [`Workload::classes`] (0 when unclassed).
    pub class: usize,
    /// Whether every output matched the oracle.
    pub ok: bool,
}

/// Per-op samples of the per-layer metrics, by metric name.
#[derive(Debug, Default)]
pub struct Samples(BTreeMap<String, Vec<f64>>);

impl Samples {
    /// Appends one sample of `name`.
    pub fn push(&mut self, name: &str, value: f64) {
        self.0.entry(name.to_owned()).or_default().push(value);
    }

    /// Every sample of `name`, in recording order.
    pub fn get(&self, name: &str) -> &[f64] {
        self.0.get(name).map_or(&[], Vec::as_slice)
    }
}

/// A benchmark workload: its inputs and oracle, built once, and the
/// program state its [`setup`](Workload::setup) builds.
pub trait Workload {
    /// The program's own setup, the part `setup_s` times: compiling the
    /// programs, or deploying the model. Each call rebuilds that state,
    /// replacing what the last call built. Runs before the first op.
    fn setup(&mut self);

    /// Runs one op. Its timed part runs inside the root span; the oracle
    /// check runs after it.
    fn op(&mut self) -> Op;

    /// Records the workload's own per-layer samples for the op just run,
    /// in the traced run.
    fn record(&mut self, op: &Op, probe: &Probe, samples: &mut Samples);

    /// Names of the request classes, for per-class metrics.
    fn classes(&self) -> &'static [&'static str] {
        &[]
    }

    /// GEMM floating-point operations one op performs, when its shapes are
    /// known.
    fn gemm_flops(&self, _op: &Op) -> f64 {
        0.0
    }

    /// Damages one oracle value, so the op that checks it must fail.
    fn corrupt_oracle(&mut self);
}

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The nine corpus programs, compiled untraced, one sweep per op.
    CorpusRun,
    /// The TR pass over the nine corpus programs and `threshold.au`, one
    /// sweep per op.
    CorpusAutonomize,
    /// A deployed model serving a seeded request mix.
    Serve,
}

impl Kind {
    /// Every workload, in the order the benchmark lists them.
    pub const ALL: [Kind; 3] = [Kind::CorpusRun, Kind::CorpusAutonomize, Kind::Serve];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::CorpusRun => "corpus_run",
            Kind::CorpusAutonomize => "corpus_autonomize",
            Kind::Serve => "serve",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Draws the workload's inputs from `seed` and computes their oracle,
    /// ahead of (and outside) the timed [`Workload::setup`].
    pub fn prepare(self, seed: u64) -> Box<dyn Workload> {
        match self {
            Kind::CorpusRun => Box::new(corpus::Corpus::run(seed)),
            Kind::CorpusAutonomize => Box::new(corpus::Corpus::autonomize(seed)),
            Kind::Serve => Box::new(serve::Serve::new(seed)),
        }
    }
}

/// End-to-end metrics the result line carries, as `(name, unit)`. The
/// report adds the median latency and the throughput under each workload's
/// own names; they are left out here because on a shared host their
/// run-to-run spread exceeds any bound a regression gate could use (see
/// `perfbench/README.md`).
pub const END_TO_END: [(&str, &str); 3] =
    [("setup_s", "s"), ("peak_rss_mb", "MB"), ("op_p90_ms", "ms")];

/// Per-layer metrics, as `(name, unit)`: the traced run prints these, on
/// every workload (zero where the workload does not enter the layer).
pub fn per_layer_metrics() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = [
        ("lang.parse_ms", "ms"),
        ("lang.analyze_ms", "ms"),
        ("lang.compile_ms", "ms"),
        ("vm.run_ms", "ms"),
        ("vm.steps", "count"),
        ("vm.dispatch_ms", "ms"),
        ("vm.ns_per_step", "ns"),
    ]
    .into_iter()
    .map(|(n, u)| (n.to_owned(), u))
    .collect();
    for program in corpus::Corpus::program_names() {
        out.push((format!("vm.run_ms.{program}"), "ms"));
    }
    for (n, u) in [
        ("trace.record_ms", "ms"),
        ("trace.values", "count"),
        ("trace.vars", "count"),
        ("trace.extract_sl_ms", "ms"),
        ("trace.extract_rl_ms", "ms"),
        ("trace.preprune_pairs", "count"),
        ("trace.preprune_reduction", "ratio"),
        ("core.au_nn_ms", "ms"),
        ("core.au_nn_rl_ms", "ms"),
        ("core.au_calls", "count"),
    ] {
        out.push((n.to_owned(), u));
    }
    for class in serve::CLASSES {
        out.push((format!("core.predict_overhead_us.{class}"), "us"));
    }
    for class in serve::CLASSES {
        out.push((format!("nn.infer_us.{class}"), "us"));
    }
    out.push(("nn.gemm_ms".to_owned(), "ms"));
    out.push(("nn.gemm_gflops".to_owned(), "GFLOP/s"));
    for suffix in std::iter::once(String::new()).chain(serve::CLASSES.map(|c| format!(".{c}"))) {
        out.push((format!("par.regions{suffix}"), "count"));
        out.push((format!("par.inline_frac{suffix}"), "ratio"));
        out.push((format!("par.join_wait_ms{suffix}"), "ms"));
    }
    out.push(("prof.overhead_frac".to_owned(), "ratio"));
    out.push(("prof.unattributed_frac".to_owned(), "ratio"));
    out
}

/// SplitMix64: the benchmark's seeded input generator.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform value in `[0, 1)`.
    pub fn unit_f32(&mut self) -> f32 {
        (self.next_u64() >> 40) as f32 / (1u64 << 24) as f32
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}
