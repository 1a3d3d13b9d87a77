//! End-to-end pinning of the `aulang` binary's exit-code contract:
//! `0` success, `1` the program was understood but failed (denied lint
//! findings, runtime errors), `2` the invocation or source could not be
//! processed (usage, unreadable file, parse error). Also pins that an
//! unknown flag is a usage error rather than silently ignored.

use std::path::PathBuf;
use std::process::{Command, Output};

fn aulang(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_aulang"))
        .args(args)
        .output()
        .expect("aulang binary runs")
}

fn code(out: &Output) -> i32 {
    out.status.code().expect("aulang exited normally")
}

/// Writes `src` to a unique temp file and returns its path.
fn temp_program(tag: &str, src: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("aulang_cli_{}_{tag}.au", std::process::id()));
    std::fs::write(&path, src).expect("temp file writes");
    path
}

fn corpus(file: &str) -> String {
    format!("{}/tests/lint_corpus/{file}", env!("CARGO_MANIFEST_DIR"))
}

#[test]
fn check_exits_zero_on_warnings_unless_denied() {
    // AU006 is warning-severity: plain `check` reports it but succeeds…
    let warn = corpus("au006_dead_extract.au");
    assert_eq!(code(&aulang(&["check", &warn])), 0);
    // …while `--deny warnings` turns findings into exit 1.
    assert_eq!(code(&aulang(&["check", &warn, "--deny", "warnings"])), 1);
}

#[test]
fn check_exits_one_on_protocol_errors() {
    let err = corpus("au004_restore_without_checkpoint.au");
    assert_eq!(code(&aulang(&["check", &err])), 1);
}

#[test]
fn check_exits_two_on_parse_errors() {
    // A parse error is not a lint finding: the source could not be
    // processed at all, which must be distinguishable in CI.
    let bad = temp_program("parse", "fn main( {\n");
    assert_eq!(
        code(&aulang(&["check", bad.to_str().unwrap()])),
        2,
        "parse errors must exit 2, not be conflated with lint findings"
    );
    let _ = std::fs::remove_file(&bad);
}

#[test]
fn unreadable_file_and_unknown_command_exit_two() {
    assert_eq!(code(&aulang(&["check", "/nonexistent/no_such.au"])), 2);
    let example = format!(
        "{}/examples/aulang/threshold.au",
        env!("CARGO_MANIFEST_DIR")
    );
    assert_eq!(code(&aulang(&["frobnicate", &example])), 2);
    assert_eq!(code(&aulang(&["run"])), 2, "missing file is a usage error");
}

#[test]
fn runtime_errors_exit_one() {
    let bad = temp_program(
        "runtime",
        "fn main() {\n    let a = [1, 2];\n    return a + 1;\n}\n",
    );
    assert_eq!(code(&aulang(&["run", bad.to_str().unwrap()])), 1);
    let _ = std::fs::remove_file(&bad);
}

#[test]
fn retired_opt_flag_is_a_usage_error_on_every_engine() {
    let example = format!(
        "{}/examples/aulang/threshold.au",
        env!("CARGO_MANIFEST_DIR")
    );
    for engine in ["interp", "vm", "vm-traced"] {
        let out = aulang(&["run", &example, "--engine", engine, "--opt"]);
        assert_eq!(code(&out), 2, "--opt on {engine}");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("--opt"),
            "the message names the flag"
        );
    }
    assert_eq!(code(&aulang(&["run", &example, "--opt"])), 2);
}

#[test]
fn unknown_flags_are_usage_errors() {
    let example = format!(
        "{}/examples/aulang/threshold.au",
        env!("CARGO_MANIFEST_DIR")
    );
    for command in ["run", "check", "fmt"] {
        let out = aulang(&[command, &example, "--bogus"]);
        assert_eq!(code(&out), 2, "{command} --bogus");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("--bogus"),
            "the message names the flag"
        );
    }
    // A value-taking flag at the end of the line has no value to take.
    assert_eq!(code(&aulang(&["run", &example, "--seed"])), 2);
    // Known flags with their values still run.
    let ok = aulang(&["run", &example, "--seed", "7", "--input", "amplitude=0.8"]);
    assert_eq!(code(&ok), 0, "{}", String::from_utf8_lossy(&ok.stderr));
}
