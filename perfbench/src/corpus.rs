//! The two corpus workloads over the nine `au_lang::corpus` programs.
//!
//! - `corpus_run`: what `aulang run` does. The programs are compiled once
//!   with tracing compiled out during setup; one op is a sweep that runs
//!   each program once on a fresh VM.
//! - `corpus_autonomize`: the TR pass per program, from source: parse,
//!   static analysis and the tightened pre-pruning filter, selective
//!   compilation, the traced run, and Algorithms 1 and 2 over the recorded
//!   facts. Its sweep adds `examples/aulang/threshold.au` to the nine: none
//!   of them marks an input, so on them alone the algorithms select
//!   nothing and the pre-pruning considers no pair.
//!
//! Both are checked against the tree-walking interpreter, run once before
//! setup with the same seeds and inputs: result, printed output and step
//! count per program, and for `corpus_autonomize` also the Algorithm 1/2
//! selections (by name) over the interpreter's full database.

use crate::probe::{self, elapsed_ns, Probe};
use crate::{Op, Samples, Workload};
use au_lang::corpus::CorpusProgram;
use au_lang::{
    compile_program, parse, static_analysis, CompiledProgram, Interpreter, TraceMode, Value, Vm,
};
use au_trace::{
    extract_rl, extract_rl_pruned, extract_sl, extract_sl_pruned, AnalysisDb, PrepruneStats,
    RankedFeature, RlParams, StaticFilter, VarId,
};
use std::collections::BTreeMap;
use std::time::Instant;

/// Algorithm 1 selections by name: target → ranked (feature, distance).
type SlByName = BTreeMap<String, Vec<(String, usize)>>;
/// Algorithm 2 selections by name: target → selected features.
type RlByName = BTreeMap<String, Vec<String>>;

/// The observable outcome of one program run.
#[derive(Debug, Clone, PartialEq)]
struct Observed {
    result: Result<au_lang::Value, String>,
    output: Vec<String>,
    steps: u64,
}

/// What the interpreter oracle says one program must produce.
#[derive(Debug, Clone)]
struct Expected {
    run: Observed,
    /// Only for `corpus_autonomize`.
    selections: Option<(SlByName, RlByName)>,
}

/// The repository's example program that marks an input: its model
/// learns a detection threshold from the signal amplitude, read with
/// `input("amplitude", 0.5)`.
const THRESHOLD: CorpusProgram = CorpusProgram {
    name: "threshold",
    src: include_str!("../../examples/aulang/threshold.au"),
    step_limit: None,
    nn_seed: 17,
};

/// One corpus program prepared for the workload.
struct Entry {
    program: CorpusProgram,
    /// What the program's runs receive, drawn from the workload seed.
    inputs: Inputs,
    expected: Expected,
}

/// Seeded inputs of one program run.
#[derive(Debug, Clone, Copy)]
struct Inputs {
    /// Seed for the program's `rand()` builtin.
    rand_seed: u64,
    /// The value of `input("amplitude", _)`; only `threshold.au` reads it.
    amplitude: f64,
}

/// Draws each program's inputs from the workload seed.
fn program_inputs(seed: u64, count: usize) -> Vec<Inputs> {
    let mut rng = crate::SplitMix64::new(seed);
    (0..count)
        .map(|_| Inputs {
            rand_seed: rng.next_u64(),
            amplitude: 0.2 + 0.6 * f64::from(rng.unit_f32()),
        })
        .collect()
}

/// The programs of a sweep, in order.
fn programs(autonomize: bool) -> Vec<CorpusProgram> {
    let mut programs = au_lang::corpus::all().to_vec();
    if autonomize {
        programs.push(THRESHOLD);
    }
    programs
}

fn observe(
    result: Result<au_lang::Value, au_lang::LangError>,
    output: &[String],
    steps: u64,
) -> Observed {
    Observed {
        result: result.map_err(|e| e.to_string()),
        output: output.to_vec(),
        steps,
    }
}

/// Runs `p` on the tree-walking interpreter, with or without tracing.
fn interpret(p: &CorpusProgram, inputs: Inputs, tracing: bool) -> (Observed, Interpreter) {
    au_nn::set_init_seed(p.nn_seed);
    let mut interp = Interpreter::compile(p.src).expect("corpus programs parse");
    interp.set_tracing(tracing);
    interp.set_seed(inputs.rand_seed);
    interp.set_input("amplitude", Value::Num(inputs.amplitude));
    if let Some(limit) = p.step_limit {
        interp.set_step_limit(limit);
    }
    let result = interp.run();
    let observed = observe(result, interp.output(), interp.stats().steps);
    (observed, interp)
}

/// A fresh VM for `p` over `compiled`, seeded like the oracle.
fn fresh_vm(p: &CorpusProgram, inputs: Inputs, compiled: CompiledProgram) -> Vm {
    au_nn::set_init_seed(p.nn_seed);
    let mut vm = Vm::from_compiled(compiled);
    vm.set_seed(inputs.rand_seed);
    vm.set_input("amplitude", Value::Num(inputs.amplitude));
    if let Some(limit) = p.step_limit {
        vm.set_step_limit(limit);
    }
    vm
}

fn sl_by_name(db: &AnalysisDb, map: &BTreeMap<VarId, Vec<RankedFeature>>) -> SlByName {
    map.iter()
        .map(|(&t, feats)| {
            let ranked = feats
                .iter()
                .map(|f| (db.name(f.var).to_owned(), f.distance))
                .collect();
            (db.name(t).to_owned(), ranked)
        })
        .collect()
}

fn rl_by_name<'a>(db: &AnalysisDb, map: impl Iterator<Item = (VarId, &'a [VarId])>) -> RlByName {
    map.map(|(t, sel)| {
        let names = sel.iter().map(|&v| db.name(v).to_owned()).collect();
        (db.name(t).to_owned(), names)
    })
    .collect()
}

/// Total recorded values and variables in an analysis database.
fn db_size(db: &AnalysisDb) -> (u64, u64) {
    let values = db.all_vars().map(|v| db.trace(v).len() as u64).sum();
    (values, db.var_count() as u64)
}

/// Per-program record of one op, kept for the traced read-out.
#[derive(Debug, Default, Clone)]
struct ProgramRun {
    run_ns: u64,
    steps: u64,
    values: u64,
    vars: u64,
    prepruned: PrepruneStats,
}

impl ProgramRun {
    fn of(vm: &Vm, run_ns: u64, prepruned: PrepruneStats) -> ProgramRun {
        let (values, vars) = db_size(vm.analysis());
        ProgramRun {
            run_ns,
            steps: vm.stats().steps,
            values,
            vars,
            prepruned,
        }
    }
}

/// One program's TR pass, as `corpus_autonomize` runs it.
struct Autonomized {
    vm: Vm,
    result: Result<au_lang::Value, au_lang::LangError>,
    run_ns: u64,
    sl: BTreeMap<VarId, Vec<RankedFeature>>,
    rl: BTreeMap<VarId, au_trace::RlExtraction>,
    prepruned: PrepruneStats,
}

fn autonomize_one(p: &CorpusProgram, inputs: Inputs) -> Option<Autonomized> {
    let ast = {
        let _s = probe::span("lang.parse");
        parse(p.src).ok()?
    };
    let filter = {
        let _s = probe::span("lang.analyze");
        let (static_db, constants) = static_analysis::analyze_tightened(&ast);
        StaticFilter::with_constants(&static_db, constants)
    };
    let compiled = {
        let _s = probe::span("lang.compile");
        compile_program(&ast, TraceMode::Selective)
    };
    let mut vm = fresh_vm(p, inputs, compiled);
    let start = Instant::now();
    let result = {
        let _s = probe::span("vm.run");
        vm.run()
    };
    let run_ns = elapsed_ns(start);
    let (sl, sl_stats) = {
        let _s = probe::span("trace.extract_sl");
        extract_sl_pruned(vm.analysis(), &filter)
    };
    let (rl, rl_stats) = {
        let _s = probe::span("trace.extract_rl");
        extract_rl_pruned(vm.analysis(), &filter, RlParams::default())
    };
    Some(Autonomized {
        vm,
        result,
        run_ns,
        sl,
        rl,
        prepruned: PrepruneStats {
            considered: sl_stats.considered + rl_stats.considered,
            pruned: sl_stats.pruned + rl_stats.pruned,
        },
    })
}

/// `corpus_run` and `corpus_autonomize`.
pub struct Corpus {
    autonomize: bool,
    entries: Vec<Entry>,
    /// The programs compiled untraced by [`Workload::setup`]: what
    /// `corpus_run` sweeps, and what `corpus_autonomize`'s traced run
    /// times for `trace.record_ms`.
    compiled: Vec<CompiledProgram>,
    /// The last op's per-program records.
    last: Vec<ProgramRun>,
}

impl Corpus {
    /// `corpus_run` for `seed`: the untraced interpreter oracle.
    pub fn run(seed: u64) -> Corpus {
        let programs = programs(false);
        let entries = program_inputs(seed, programs.len())
            .into_iter()
            .zip(programs)
            .map(|(inputs, program)| {
                let (run, _) = interpret(&program, inputs, false);
                Entry {
                    program,
                    inputs,
                    expected: Expected {
                        run,
                        selections: None,
                    },
                }
            })
            .collect();
        Corpus::with_entries(false, entries)
    }

    /// `corpus_autonomize` for `seed`: the traced interpreter oracle and
    /// its full-database Algorithm 1/2 selections, with no static
    /// pre-pruning.
    pub fn autonomize(seed: u64) -> Corpus {
        let programs = programs(true);
        let entries = program_inputs(seed, programs.len())
            .into_iter()
            .zip(programs)
            .map(|(inputs, program)| {
                let (run, interp) = interpret(&program, inputs, true);
                let db = interp.analysis();
                let sl = sl_by_name(db, &extract_sl(db));
                let rl_map = extract_rl(db, RlParams::default());
                let rl = rl_by_name(db, rl_map.iter().map(|(&t, s)| (t, s.as_slice())));
                Entry {
                    program,
                    inputs,
                    expected: Expected {
                        run,
                        selections: Some((sl, rl)),
                    },
                }
            })
            .collect();
        Corpus::with_entries(true, entries)
    }

    fn with_entries(autonomize: bool, entries: Vec<Entry>) -> Corpus {
        Corpus {
            autonomize,
            compiled: Vec::new(),
            last: Vec::with_capacity(entries.len()),
            entries,
        }
    }

    /// Names of every program a sweep runs, in order (`corpus_run` runs
    /// all but the last).
    pub fn program_names() -> Vec<&'static str> {
        programs(true).iter().map(|p| p.name).collect()
    }

    /// `corpus_run`'s op: each program once on a fresh untraced VM.
    fn op_run(&mut self) -> (bool, u64) {
        let (runs, ns) = probe::timed_root("sweep", || {
            self.entries
                .iter()
                .zip(&self.compiled)
                .map(|(e, compiled)| {
                    let mut vm = fresh_vm(&e.program, e.inputs, compiled.clone());
                    let start = Instant::now();
                    let result = {
                        let _s = probe::span("vm.run");
                        vm.run()
                    };
                    (vm, result, elapsed_ns(start))
                })
                .collect::<Vec<_>>()
        });
        // Checks happen after the timed part.
        let mut ok = true;
        self.last.clear();
        for ((vm, result, run_ns), e) in runs.into_iter().zip(&self.entries) {
            ok &= observe(result, vm.output(), vm.stats().steps) == e.expected.run;
            self.last
                .push(ProgramRun::of(&vm, run_ns, PrepruneStats::default()));
        }
        (ok, ns)
    }

    /// `corpus_autonomize`'s op: the TR pass for each program.
    fn op_autonomize(&mut self) -> (bool, u64) {
        let (runs, ns) = probe::timed_root("sweep", || {
            self.entries
                .iter()
                .map(|e| autonomize_one(&e.program, e.inputs))
                .collect::<Vec<_>>()
        });
        let mut ok = true;
        self.last.clear();
        for (done, e) in runs.into_iter().zip(&self.entries) {
            let Some(a) = done else {
                ok = false;
                self.last.push(ProgramRun::default());
                continue;
            };
            let db = a.vm.analysis();
            let selections = (
                sl_by_name(db, &a.sl),
                rl_by_name(db, a.rl.iter().map(|(&t, x)| (t, x.selected.as_slice()))),
            );
            ok &= observe(a.result, a.vm.output(), a.vm.stats().steps) == e.expected.run
                && e.expected.selections.as_ref() == Some(&selections);
            self.last.push(ProgramRun::of(&a.vm, a.run_ns, a.prepruned));
        }
        (ok, ns)
    }

    /// `trace.record_ms` of the traced sweep just run: its selective runs
    /// minus untraced runs of the same programs, timed right after it with
    /// the recorder still on, so both sides see the same host and carry the
    /// same tracing cost.
    fn recording_ms(&self) -> f64 {
        let mut extra_ns = 0.0;
        for ((e, compiled), traced) in self.entries.iter().zip(&self.compiled).zip(&self.last) {
            let mut vm = fresh_vm(&e.program, e.inputs, compiled.clone());
            let start = Instant::now();
            let _ = vm.run();
            extra_ns += traced.run_ns as f64 - elapsed_ns(start) as f64;
        }
        extra_ns / 1e6
    }
}

impl Workload for Corpus {
    /// Parses and compiles every program with tracing compiled out.
    fn setup(&mut self) {
        self.compiled = self
            .entries
            .iter()
            .map(|e| {
                let ast = parse(e.program.src).expect("corpus programs parse");
                compile_program(&ast, TraceMode::Off)
            })
            .collect();
    }

    fn op(&mut self) -> Op {
        let (ok, ns) = if self.autonomize {
            self.op_autonomize()
        } else {
            self.op_run()
        };
        Op {
            ns,
            work: self.entries.len() as u64,
            class: 0,
            ok,
        }
    }

    fn record(&mut self, _op: &Op, probe: &Probe, samples: &mut Samples) {
        let ms = |ns: u64| ns as f64 / 1e6;
        let steps: u64 = self.last.iter().map(|r| r.steps).sum();
        let run_ns: u64 = self.last.iter().map(|r| r.run_ns).sum();
        let dispatch_ns = probe.exclusive_ns("vm.run") + probe.exclusive_ns("aulang_vm_run");
        samples.push("vm.run_ms", ms(run_ns));
        samples.push("vm.steps", steps as f64);
        samples.push("vm.dispatch_ms", dispatch_ns as f64 / 1e6);
        samples.push(
            "vm.ns_per_step",
            if steps == 0 {
                0.0
            } else {
                dispatch_ns as f64 / steps as f64
            },
        );
        for (e, r) in self.entries.iter().zip(&self.last) {
            samples.push(&format!("vm.run_ms.{}", e.program.name), ms(r.run_ns));
        }
        samples.push("lang.parse_ms", ms(probe.inclusive_ns("lang.parse")));
        samples.push("lang.analyze_ms", ms(probe.inclusive_ns("lang.analyze")));
        samples.push("lang.compile_ms", ms(probe.inclusive_ns("lang.compile")));
        samples.push(
            "trace.values",
            self.last.iter().map(|r| r.values).sum::<u64>() as f64,
        );
        samples.push(
            "trace.vars",
            self.last.iter().map(|r| r.vars).sum::<u64>() as f64,
        );
        samples.push(
            "trace.extract_sl_ms",
            ms(probe.inclusive_ns("trace.extract_sl")),
        );
        samples.push(
            "trace.extract_rl_ms",
            ms(probe.inclusive_ns("trace.extract_rl")),
        );
        let considered: usize = self.last.iter().map(|r| r.prepruned.considered).sum();
        let pruned: usize = self.last.iter().map(|r| r.prepruned.pruned).sum();
        samples.push("trace.preprune_pairs", considered as f64);
        samples.push(
            "trace.preprune_reduction",
            PrepruneStats { considered, pruned }.reduction(),
        );
        samples.push("core.au_nn_ms", ms(probe.inclusive_ns("au_nn")));
        samples.push("core.au_nn_rl_ms", ms(probe.inclusive_ns("au_nn_rl")));
        samples.push(
            "core.au_calls",
            probe.hist_count_prefix("au_core.au_") as f64,
        );
        let record_ms = if self.autonomize {
            self.recording_ms()
        } else {
            0.0
        };
        samples.push("trace.record_ms", record_ms);
    }

    fn corrupt_oracle(&mut self) {
        self.entries[0].expected.run.steps += 1;
    }
}
