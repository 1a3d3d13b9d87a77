//! Spans around the calls the benchmark makes, and the per-op read-out of
//! what the program's own telemetry recorded underneath them.
//!
//! Every op runs inside one root span opened by the benchmark; each public
//! call into a layer gets a child span. With the global recorder disabled
//! (the untraced run) [`span`] costs one atomic load and records nothing.
//! After a traced op, [`Probe::collect`] folds the op's spans through
//! au-prof, snapshots the counters and histograms the program emits
//! (`au_nn.gemm`, `au_par.*`, `au_core.*`), and resets the recorder so the
//! next op starts from zero.

use au_prof::NameStat;
use au_telemetry::SpanGuard;
use std::collections::BTreeMap;
use std::time::Instant;

/// Opens a span named `name` on the global recorder (a no-op when the
/// recorder is disabled). The span closes when the guard drops.
pub fn span(name: &'static str) -> Option<SpanGuard<'static>> {
    au_telemetry::span_with(name, &[])
}

/// Runs `f` inside the root span `name`, returning its result and the wall
/// time of the call in nanoseconds.
pub fn timed_root<R>(name: &'static str, f: impl FnOnce() -> R) -> (R, u64) {
    let start = Instant::now();
    let out = {
        let _root = span(name);
        f()
    };
    (out, elapsed_ns(start))
}

/// Nanoseconds since `start`.
pub fn elapsed_ns(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// The layer a span belongs to. Benchmark spans are named after the layer
/// call they wrap; program spans (`aulang_vm_run`, `au_config`, `au_nn`,
/// `predict*`) fold into the layer whose call contains them. The op's root
/// span is the benchmark's own (`driver`) time. Any other span falls in
/// `other`, which breaks closure: every span must count toward a named
/// layer.
pub fn layer_of(span: &str) -> &'static str {
    match span {
        "sweep" | "request" => "driver",
        "lang.parse" => "lang.parse",
        "lang.analyze" => "lang.analyze",
        "lang.compile" => "lang.compile",
        "vm.run" | "aulang_vm_run" => "vm.dispatch",
        "au_config" | "au_config_custom" => "core.au_config",
        "au_nn" => "core.au_nn",
        "au_nn_rl" => "core.au_nn_rl",
        "trace.extract_sl" => "trace.extract_sl",
        "trace.extract_rl" => "trace.extract_rl",
        "core.predict" | "predict" | "predict_f32" | "predict_batch" => "core.predict",
        _ => "other",
    }
}

/// What the recorder captured during one traced op.
#[derive(Debug, Default)]
pub struct Probe {
    names: BTreeMap<String, NameStat>,
    root_name: String,
    root_ns: u64,
    exclusive_sum_ns: i64,
    traces: u64,
    spans_recorded: usize,
    spans_folded: u64,
    counters: BTreeMap<String, u64>,
    hists: BTreeMap<String, (u64, u64)>,
}

impl Probe {
    /// Folds everything recorded since the last reset, then resets the
    /// global recorder.
    pub fn collect() -> Probe {
        let rec = au_telemetry::global();
        let profile = rec.tap_spans_since(0, |spans| au_prof::profile_spans(spans));
        let mut probe = Probe {
            names: profile.names().clone(),
            traces: profile.traces(),
            spans_recorded: rec.span_count(),
            spans_folded: profile.spans(),
            counters: rec.counters().into_iter().collect(),
            hists: rec
                .histograms()
                .into_iter()
                .map(|(name, h)| (name, (h.count, h.sum)))
                .collect(),
            ..Probe::default()
        };
        if let Some(t) = profile.recent_traces().last() {
            probe.root_name = t.root.clone();
            probe.root_ns = t.inclusive_ns;
            probe.exclusive_sum_ns = t.exclusive_sum_ns;
        }
        rec.reset();
        probe
    }

    /// Discards whatever the recorder holds.
    pub fn reset() {
        au_telemetry::global().reset();
    }

    /// Inclusive time of every span named `name`, in nanoseconds.
    pub fn inclusive_ns(&self, name: &str) -> u64 {
        self.names.get(name).map_or(0, |s| s.inclusive_ns)
    }

    /// Self time (exclusive of child spans) of every span named `name`.
    pub fn exclusive_ns(&self, name: &str) -> i64 {
        self.names.get(name).map_or(0, |s| s.exclusive_ns)
    }

    /// Inclusive time of the op's root span.
    pub fn root_ns(&self) -> u64 {
        self.root_ns
    }

    /// Self time of the op's root span: the benchmark's own share.
    pub fn driver_ns(&self) -> i64 {
        self.exclusive_ns(&self.root_name)
    }

    /// Value of counter `name` (0 if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Sum of the nanoseconds recorded in histogram `name`.
    pub fn hist_sum_ns(&self, name: &str) -> u64 {
        self.hists.get(name).map_or(0, |h| h.1)
    }

    /// Observation counts summed over histograms whose name starts with
    /// `prefix`.
    pub fn hist_count_prefix(&self, prefix: &str) -> u64 {
        self.hists
            .iter()
            .filter(|(name, _)| name.starts_with(prefix))
            .map(|(_, h)| h.0)
            .sum()
    }

    /// Self time per layer ([`layer_of`]) in nanoseconds.
    pub fn layer_self_ns(&self) -> BTreeMap<&'static str, i64> {
        let mut out = BTreeMap::new();
        for (name, stat) in &self.names {
            *out.entry(layer_of(name)).or_insert(0) += stat.exclusive_ns;
        }
        out
    }

    /// The closure identity for this op: exactly one trace was recorded,
    /// every span folded into it, every span belongs to a named layer (none
    /// to `other`), and the self times sum to the root's inclusive time, to
    /// the nanosecond.
    pub fn closure_holds(&self) -> bool {
        self.traces == 1
            && self.spans_folded == self.spans_recorded as u64
            && self.names.keys().all(|name| layer_of(name) != "other")
            && self.exclusive_sum_ns == i64::try_from(self.root_ns).unwrap_or(i64::MAX)
    }
}
