//! The closed-loop driver: setup, the untraced and traced ops, and the
//! metrics they yield.

use crate::probe::{elapsed_ns, Probe};
use crate::stats::{percentile, Summary};
use crate::{per_layer_metrics, report, Kind, Op, Samples, SplitMix64, Workload, END_TO_END};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// What to run.
#[derive(Debug, Clone)]
pub struct Config {
    /// The workload.
    pub kind: Kind,
    /// Seed the workload's inputs are drawn from.
    pub seed: u64,
    /// How long the measured run lasts, in seconds.
    pub seconds: f64,
    /// Whether to alternate untraced ops with traced ones and report the
    /// per-layer metrics instead of the end-to-end ones.
    pub trace: bool,
    /// au-par worker threads.
    pub threads: usize,
}

/// How many times the program's setup runs in one benchmark run;
/// `setup_s` is the median.
pub const SETUPS: usize = 21;

/// One metric as printed: its value and the samples behind it.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// The reported value.
    pub value: f64,
    /// Count, median and quartiles of the samples the value comes from.
    pub summary: Summary,
}

impl Metric {
    fn new(name: impl Into<String>, unit: &'static str, value: f64, summary: Summary) -> Metric {
        Metric {
            name: name.into(),
            unit,
            value: if value.is_finite() { value } else { 0.0 },
            summary,
        }
    }

    /// A metric reported as the median of its samples.
    fn median_of(name: impl Into<String>, unit: &'static str, samples: &[f64]) -> Metric {
        let summary = Summary::of(samples);
        Metric::new(name, unit, summary.median, summary)
    }
}

/// The result of one benchmark run.
#[derive(Debug)]
pub struct Outcome {
    /// Ops run, warm-up included.
    pub attempted: u64,
    /// Ops whose output differed from the oracle or that errored.
    pub failed: u64,
    /// Traced run only: whether the closure identity held on every op.
    pub closure_holds: bool,
    /// The metrics this run reports: end-to-end untraced, per-layer traced.
    pub metrics: Vec<Metric>,
    /// The human-readable report printed before the result line.
    pub report: Vec<String>,
}

impl Outcome {
    /// Every op matched its oracle and, when traced, closure held.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.closure_holds
    }

    /// Failed ops over attempted ops.
    pub fn fail_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The metric called `name`, if reported.
    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// The one-line JSON result.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Self time per layer summed over a run's traced ops.
#[derive(Debug, Default)]
pub(crate) struct Closure {
    pub(crate) ops: u64,
    pub(crate) holding: u64,
    pub(crate) root_ns: i64,
    pub(crate) layer_ns: BTreeMap<&'static str, i64>,
    /// Time the program's own histograms attribute inside the spans:
    /// `au_nn.forward`, `au_nn.gemm` and `au_par.join_wait`, summed over
    /// every thread.
    pub(crate) inside_ns: BTreeMap<&'static str, u64>,
}

impl Closure {
    fn add(&mut self, probe: &Probe) {
        self.ops += 1;
        self.holding += u64::from(probe.closure_holds());
        self.root_ns += i64::try_from(probe.root_ns()).unwrap_or(i64::MAX);
        for (layer, ns) in probe.layer_self_ns() {
            *self.layer_ns.entry(layer).or_insert(0) += ns;
        }
        for hist in ["au_nn.forward", "au_nn.gemm", "au_par.join_wait"] {
            *self.inside_ns.entry(hist).or_insert(0) += probe.hist_sum_ns(hist);
        }
    }

    /// Summed self time of `layers` as a share of summed op time.
    pub(crate) fn share(&self, layers: &[&str]) -> f64 {
        let ns: i64 = layers.iter().filter_map(|l| self.layer_ns.get(l)).sum();
        ns as f64 / self.root_ns.max(1) as f64
    }
}

/// Ops each tenth of a phase keeps for its latency percentiles.
const TENTH_SAMPLE: usize = 1 << 13;

/// The ops that ended in one tenth of a phase's run time.
#[derive(Debug, Default)]
struct Tenth {
    seen: u64,
    /// A uniform sample of the tenth's ops (all of them up to
    /// [`TENTH_SAMPLE`]).
    sample: Vec<Op>,
    work: u64,
    ns: u64,
}

impl Tenth {
    fn latencies_ns(&self, class: Option<usize>) -> impl Iterator<Item = f64> + '_ {
        self.sample
            .iter()
            .filter(move |op| class.is_none_or(|c| op.class == c))
            .map(|op| op.ns as f64)
    }
}

/// The ops of one phase, per tenth of the run, in storage of fixed size:
/// the benchmark's own memory stops growing early, so `peak_rss_mb`, read
/// at the end of the run, shows the program's.
#[derive(Debug)]
pub(crate) struct OpLog {
    rng: SplitMix64,
    tenths: [Tenth; 10],
}

impl OpLog {
    fn new(seed: u64) -> OpLog {
        OpLog {
            rng: SplitMix64::new(seed),
            tenths: std::array::from_fn(|_| Tenth {
                sample: Vec::with_capacity(TENTH_SAMPLE),
                ..Tenth::default()
            }),
        }
    }

    /// Logs `op`, which ended `run_frac` of the way through the run.
    fn push(&mut self, op: Op, run_frac: f64) {
        let tenth = &mut self.tenths[((run_frac * 10.0) as usize).min(9)];
        tenth.seen += 1;
        tenth.work += op.work;
        tenth.ns += op.ns;
        if tenth.sample.len() < TENTH_SAMPLE {
            tenth.sample.push(op);
        } else {
            let slot = self.rng.next_u64() % tenth.seen;
            if let Some(kept) = tenth.sample.get_mut(slot as usize) {
                *kept = op;
            }
        }
    }

    /// Ops logged.
    pub(crate) fn len(&self) -> u64 {
        self.tenths.iter().map(|t| t.seen).sum()
    }

    /// Sorted op latencies in nanoseconds, optionally of one class only,
    /// over every tenth's sample.
    pub(crate) fn sorted_ns(&self, class: Option<usize>) -> Vec<f64> {
        let mut ns: Vec<f64> = self
            .tenths
            .iter()
            .flat_map(|t| t.latencies_ns(class))
            .collect();
        ns.sort_by(f64::total_cmp);
        ns
    }

    /// Percentile `p` of op latency in nanoseconds, in each tenth of the
    /// run that ran ops.
    fn tenth_percentiles(&self, p: f64) -> Vec<f64> {
        self.tenths
            .iter()
            .filter(|t| t.seen > 0)
            .map(|t| {
                let mut ns: Vec<f64> = t.latencies_ns(None).collect();
                ns.sort_by(f64::total_cmp);
                percentile(&ns, p)
            })
            .collect()
    }

    /// Work per second of op time, in each tenth of the run that ran ops.
    fn tenth_rates(&self) -> Vec<f64> {
        self.tenths
            .iter()
            .filter(|t| t.ns > 0)
            .map(|t| t.work as f64 / (t.ns as f64 / 1e9))
            .collect()
    }
}

/// The ops of one measured phase.
#[derive(Debug)]
pub(crate) struct Phase {
    pub(crate) ops: OpLog,
    pub(crate) samples: Samples,
    pub(crate) closure: Closure,
    gemm_flops: f64,
    gemm_ns: u64,
}

impl Phase {
    fn new(seed: u64) -> Phase {
        Phase {
            ops: OpLog::new(seed),
            samples: Samples::default(),
            closure: Closure::default(),
            gemm_flops: 0.0,
            gemm_ns: 0,
        }
    }
}

/// Counts of ops run and ops failed.
#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn add(&mut self, op: &Op) {
        self.attempted += 1;
        self.failed += u64::from(!op.ok);
    }
}

/// Repeated setups for `setup_s`: one before the first op, the rest spread
/// evenly over the run (between ops, outside their timing), so the median
/// samples the host over the whole run rather than its first second.
struct Setups {
    seconds: Vec<f64>,
    /// When each remaining setup is due, in seconds into the phase.
    due: Vec<f64>,
}

impl Setups {
    /// Runs the first setup of `wl` and schedules the other
    /// [`SETUPS`]` - 1` over a run of `run_s` seconds.
    fn start(wl: &mut dyn Workload, run_s: f64) -> Setups {
        let mut setups = Setups {
            seconds: Vec::with_capacity(SETUPS),
            due: (1..SETUPS)
                .rev()
                .map(|i| run_s * i as f64 / SETUPS as f64)
                .collect(),
        };
        setups.timed(wl);
        setups
    }

    fn timed(&mut self, wl: &mut dyn Workload) {
        let start = Instant::now();
        wl.setup();
        self.seconds.push(elapsed_ns(start) as f64 / 1e9);
    }

    /// Runs the next setup if it is due `at` seconds into the run (all
    /// remaining ones when `at` is infinite).
    fn tick(&mut self, wl: &mut dyn Workload, at: f64) {
        while self.due.last().is_some_and(|&due| due <= at) {
            self.due.pop();
            self.timed(wl);
            if at.is_finite() {
                break;
            }
        }
    }
}

/// Runs ops for `seconds` (at least one round) and the setups that fall
/// due meanwhile. With `trace`, each round is an untraced op followed by a
/// traced one, so both runs see the same host conditions. Returns the
/// untraced phase and, with `trace`, the traced one.
fn measure(
    wl: &mut dyn Workload,
    cfg: &Config,
    tally: &mut Tally,
    setups: &mut Setups,
) -> (Phase, Option<Phase>) {
    let mut untraced = Phase::new(cfg.seed);
    let mut traced = cfg.trace.then(|| Phase::new(!cfg.seed));
    let classes = wl.classes();
    let start = Instant::now();
    let run_frac = || start.elapsed().as_secs_f64() / cfg.seconds;
    loop {
        let op = wl.op();
        tally.add(&op);
        untraced.ops.push(op, run_frac());
        if let Some(phase) = traced.as_mut() {
            Probe::reset();
            au_telemetry::enable();
            let op = wl.op();
            tally.add(&op);
            let probe = Probe::collect();
            phase.closure.add(&probe);
            record_generic(&op, &probe, classes, phase);
            phase.gemm_flops += wl.gemm_flops(&op);
            wl.record(&op, &probe, &mut phase.samples);
            au_telemetry::disable();
            Probe::reset();
            phase.ops.push(op, run_frac());
        }
        let at = start.elapsed().as_secs_f64();
        setups.tick(wl, at);
        if at >= cfg.seconds {
            break;
        }
    }
    setups.tick(wl, f64::INFINITY);
    (untraced, traced)
}

/// Per-layer samples every workload yields from the program's own
/// metrics: GEMM time, au-par regions, and the driver's unattributed time.
fn record_generic(op: &Op, probe: &Probe, classes: &[&str], phase: &mut Phase) {
    let gemm_ns = probe.hist_sum_ns("au_nn.gemm");
    phase.gemm_ns += gemm_ns;
    let forked = probe.counter("au_par.regions") as f64;
    let inline = probe.counter("au_par.region_inline_total") as f64;
    let inline_frac = if forked + inline > 0.0 {
        inline / (forked + inline)
    } else {
        0.0
    };
    let join_ms = probe.hist_sum_ns("au_par.join_wait") as f64 / 1e6;
    let s = &mut phase.samples;
    s.push("nn.gemm_ms", gemm_ns as f64 / 1e6);
    let suffixes =
        std::iter::once(String::new()).chain(classes.get(op.class).map(|c| format!(".{c}")));
    for suffix in suffixes {
        s.push(&format!("par.regions{suffix}"), forked);
        s.push(&format!("par.inline_frac{suffix}"), inline_frac);
        s.push(&format!("par.join_wait_ms{suffix}"), join_ms);
    }
    s.push(
        "prof.unattributed_frac",
        probe.driver_ns() as f64 / probe.root_ns().max(1) as f64,
    );
}

/// Peak resident set size of this process, in MiB (Linux `VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs the benchmark described by `cfg`.
pub fn run(cfg: &Config) -> Outcome {
    run_with(cfg, |_| {})
}

/// Like [`run`], handing the set-up workload to `prepare` before any op
/// runs (tests use it to damage an oracle value).
pub fn run_with(cfg: &Config, prepare: impl FnOnce(&mut dyn Workload)) -> Outcome {
    au_par::set_thread_override(Some(cfg.threads));
    let mut wl = cfg.kind.prepare(cfg.seed);
    let mut setups = Setups::start(wl.as_mut(), cfg.seconds);
    prepare(wl.as_mut());

    // Warm-up: lazy pool start, caches and allocator pools settle before
    // timing. Its ops are checked and counted like any other.
    let mut tally = Tally::default();
    let warm = Duration::from_secs_f64((cfg.seconds * 0.05).min(1.0));
    let start = Instant::now();
    loop {
        tally.add(&wl.op());
        if start.elapsed() >= warm {
            break;
        }
    }
    let (untraced, traced) = measure(wl.as_mut(), cfg, &mut tally, &mut setups);
    // Peak memory over the whole run, setups and ops included.
    let rss_mb = peak_rss_mb();

    let e2e = end_to_end(cfg.kind, &setups.seconds, rss_mb, &untraced);
    let mut outcome = Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        closure_holds: true,
        metrics: Vec::new(),
        report: Vec::new(),
    };
    let layers = traced.as_ref().map(|t| per_layer(&untraced, t));
    if let Some(t) = &traced {
        outcome.closure_holds = t.closure.holding == t.closure.ops;
    }
    outcome.report = report::render(
        cfg,
        &outcome,
        &e2e,
        &untraced,
        traced.as_ref(),
        layers.as_deref(),
        wl.as_ref(),
    );
    outcome.metrics = match layers {
        Some(layers) => layers,
        None => e2e
            .into_iter()
            .filter(|m| END_TO_END.iter().any(|(n, _)| *n == m.name))
            .collect(),
    };
    outcome
}

/// The end-to-end metrics of the untraced ops: the result line's set
/// first, then the latencies and throughput under the workload's names.
fn end_to_end(kind: Kind, setup_s: &[f64], rss_mb: f64, phase: &Phase) -> Vec<Metric> {
    let lat = phase.ops.sorted_ns(None);
    // One latency metric: percentile `p` in `unit`, with the summary of the
    // whole latency distribution in the same unit.
    let latency = |name: &str, p: f64, unit: &'static str| {
        let scale = if unit == "us" { 1e3 } else { 1e6 };
        let scaled: Vec<f64> = lat.iter().map(|ns| ns / scale).collect();
        Metric::new(name, unit, percentile(&scaled, p), Summary::of(&scaled))
    };
    let rates = phase.ops.tenth_rates();
    let rate = Summary::of(&rates);
    // The third quartile over the run's tenths of each tenth's p90. The
    // shared host switches between a fast and a slow speed for seconds to
    // whole runs; this reads the slow speed whenever it covers a quarter
    // of the run, where the median flipped with whichever covered half.
    let tenth_p90 = Summary::of(
        &phase
            .ops
            .tenth_percentiles(0.9)
            .iter()
            .map(|ns| ns / 1e6)
            .collect::<Vec<_>>(),
    );
    let mut out = vec![
        Metric::median_of("setup_s", "s", setup_s),
        Metric::new("peak_rss_mb", "MB", rss_mb, Summary::of(&[rss_mb])),
        Metric::new("op_p90_ms", "ms", tenth_p90.q3, tenth_p90),
    ];
    match kind {
        Kind::Serve => {
            out.push(latency("req_p50_us", 0.5, "us"));
            out.push(latency("req_p90_us", 0.9, "us"));
            out.push(latency("req_p99_us", 0.99, "us"));
            out.push(Metric::new("rows_per_s", "1/s", rate.median, rate));
        }
        Kind::CorpusRun | Kind::CorpusAutonomize => {
            out.push(latency("sweep_p50_ms", 0.5, "ms"));
            out.push(latency("sweep_p90_ms", 0.9, "ms"));
            out.push(Metric::new("programs_per_s", "1/s", rate.median, rate));
        }
    }
    out
}

/// Every per-layer metric, in the declared order, from the traced phase
/// (zero with no samples where the workload never entered the layer).
fn per_layer(untraced: &Phase, traced: &Phase) -> Vec<Metric> {
    per_layer_metrics()
        .into_iter()
        .map(|(name, unit)| match name.as_str() {
            "nn.gemm_gflops" => {
                let gflops = traced.gemm_flops / traced.gemm_ns.max(1) as f64;
                let n = if traced.gemm_flops > 0.0 {
                    traced.ops.len() as usize
                } else {
                    0
                };
                Metric::new(
                    name,
                    unit,
                    gflops,
                    Summary {
                        n,
                        ..Summary::of(&[gflops])
                    },
                )
            }
            "prof.overhead_frac" => {
                let on = Summary::of(&traced.ops.sorted_ns(None)).median;
                let off = Summary::of(&untraced.ops.sorted_ns(None)).median;
                let frac = on / off.max(1.0) - 1.0;
                Metric::new(
                    name,
                    unit,
                    frac,
                    Summary {
                        n: traced.ops.len() as usize,
                        ..Summary::of(&[frac])
                    },
                )
            }
            _ => Metric::median_of(name.clone(), unit, traced.samples.get(&name)),
        })
        .collect()
}
