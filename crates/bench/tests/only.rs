//! End-to-end gates for `all --only`, the one entry point for a single
//! artefact, driving the real `all` binary.
//!
//! Pinned behaviours:
//! - `--only` prints exactly the named sections of the full run, in
//!   registry order whatever the order on the command line;
//! - an unknown id, like a zero instruction count, is a usage error
//!   (exit 2) that lists the valid ids;
//! - an isolated `--only` sweep prints what the in-process one does.

use std::process::{Command, Output};

fn run_all(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_all"))
        .args(args)
        .output()
        .expect("all binary runs")
}

fn stdout_of(output: &Output) -> String {
    assert!(
        output.status.success(),
        "all failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8(output.stdout.clone()).expect("utf-8 stdout")
}

/// The section of a full `all` stdout whose banner reads
/// `== {title}: …`, up to (not including) the blank separator line.
fn section<'a>(full: &'a str, title: &str) -> &'a str {
    let start = full
        .find(&format!("== {title}:"))
        .unwrap_or_else(|| panic!("no {title} section in:\n{full}"));
    let end = full[start..]
        .find("\n\n== ")
        .map_or(full.len(), |offset| start + offset + 1);
    &full[start..end]
}

#[test]
fn only_prints_the_named_sections_of_the_full_run_in_registry_order() {
    let full = stdout_of(&run_all(&["2000", "7", "--no-cache"]));
    let only = stdout_of(&run_all(&[
        "2000",
        "7",
        "--no-cache",
        "--only",
        "table5,fig8",
    ]));
    let expected = format!(
        "{}\n{}",
        section(&full, "Fig. 8"),
        section(&full, "Table V")
    );
    assert_eq!(only, expected);
}

#[test]
fn unknown_id_and_zero_instructions_are_usage_errors() {
    for args in [&["2000", "7", "--only", "nosuch"][..], &["0", "7"][..]] {
        let output = run_all(args);
        assert_eq!(output.status.code(), Some(2), "{args:?}");
        assert!(output.stdout.is_empty(), "{args:?} printed an artefact");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(
            stderr.starts_with("usage: all") && stderr.contains("sgx_compare"),
            "{args:?}: usage must list the valid ids:\n{stderr}"
        );
    }
}

#[test]
fn isolated_only_matches_in_process() {
    let args = ["2000", "7", "--no-cache", "--only", "sgx_compare"];
    let in_process = stdout_of(&run_all(&args));
    let isolated = stdout_of(&run_all(&[&args[..], &["--isolate"]].concat()));
    assert!(in_process.starts_with("== SGX ablation:"), "{in_process}");
    assert_eq!(in_process, isolated);
}
