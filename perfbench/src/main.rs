//! Runs one benchmark workload and prints its report, then one JSON result
//! line.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload corpus_run|corpus_autonomize|serve --seed N --seconds S \
//!     --trace 0|1 [--threads N]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics untraced; `--trace 1`
//! alternates untraced and traced ops and reports the per-layer metrics.
//! `--threads` sets the au-par worker count (default: the host's available
//! parallelism). The program's setup runs `SETUPS` times, spread over the
//! run; `setup_s` is the median.

use perfbench::{run, Config, Kind};
use std::process::ExitCode;

fn usage(msg: &str) -> ExitCode {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--threads <n>]",
        Kind::ALL.map(Kind::name).join("|")
    );
    ExitCode::from(2)
}

fn parse_args(args: &[String]) -> Result<Config, String> {
    let mut cfg = Config {
        kind: Kind::CorpusRun,
        seed: 1,
        seconds: 10.0,
        trace: false,
        threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
    };
    let mut workload = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Kind::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?);
            }
            "--seed" => cfg.seed = value.parse().map_err(bad)?,
            "--seconds" => {
                cfg.seconds = value
                    .parse()
                    .map_err(|_| format!("bad value for {flag}: {value:?}"))?;
                if !(cfg.seconds > 0.0 && cfg.seconds.is_finite()) {
                    return Err("--seconds must be positive".to_owned());
                }
            }
            "--trace" => {
                cfg.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            "--threads" => cfg.threads = value.parse().map_err(bad)?,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    cfg.kind = workload.ok_or("--workload is required")?;
    if cfg.threads == 0 {
        return Err("--threads must be at least 1".to_owned());
    }
    Ok(cfg)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse_args(&args) {
        Ok(cfg) => cfg,
        Err(msg) => return usage(&msg),
    };
    let outcome = run(&cfg);
    for line in &outcome.report {
        println!("{line}");
    }
    println!("{}", outcome.json());
    ExitCode::SUCCESS
}
