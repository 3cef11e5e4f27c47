//! End-to-end chaos sweeps, driving the real `all` binary under
//! `--chaos`.
//!
//! Pinned behaviours:
//! - a warm-cache chaos sweep serves every run from the cache except
//!   the quarantined ones;
//! - an unrecoverable fault degrades the sweep instead of aborting it:
//!   exit 3, the lost run and every artefact that needs it named on
//!   stderr, and the surviving artefacts printed exactly as a clean
//!   `--only` run of them prints them.

use std::path::Path;
use std::process::{Command, Output};

use plp_bench::{all_specs, RunSettings};

// The artefact renderers assert structural minimums (e.g. adjacent
// same-page persists) that need a few thousand instructions of trace.
const INSTRUCTIONS: &str = "2000";
const SEED: &str = "7";

/// Chaos sweeps run under a 300 ms watchdog instead of `all`'s 1.5 s
/// chaos default: each injected stall lasts twice the watchdog plus
/// 50 ms, and the fault plan and its verdicts do not depend on it.
const CHAOS: [&str; 4] = ["--chaos", "0xC0FFEE", "--watchdog-ms", "300"];

/// Runs `all` with `dir` as its working directory (and so with its run
/// cache under `dir/results/cache`).
fn run_all_in(dir: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_all"))
        .current_dir(dir)
        .args([INSTRUCTIONS, SEED])
        .args(args)
        .output()
        .expect("all binary runs")
}

/// The number printed just before `label` on the first stderr line
/// containing it (`525` for `" unique,"` in `… (525 unique, …`).
fn stderr_count(output: &Output, label: &str) -> usize {
    let stderr = String::from_utf8_lossy(&output.stderr);
    let line = stderr
        .lines()
        .find(|l| l.contains(label))
        .unwrap_or_else(|| panic!("no '{label}' in stderr:\n{stderr}"));
    let before = line[..line.find(label).unwrap()].trim_end();
    before
        .rsplit([' ', '('])
        .next()
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("no count before '{label}' in: {line}"))
}

/// After a warm-up sweep, a chaos sweep finds every entry on disk: only
/// the quarantined ones (planted corruption) miss, including for runs
/// retried after a worker fault.
#[test]
fn warm_chaos_sweep_caches_every_run_but_the_quarantined() {
    let dir = std::env::temp_dir().join(format!("plp-chaos-warm-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let warm_up = run_all_in(&dir, &["--threads", "2"]);
    assert!(warm_up.status.success(), "warm-up sweep failed");
    let chaos = run_all_in(&dir, &[&["--threads", "2"][..], &CHAOS].concat());
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(chaos.status.code(), Some(0), "chaos sweep did not recover");
    let unique = stderr_count(&chaos, " unique,");
    let quarantined = stderr_count(&chaos, " cache-quarantined,");
    assert!(quarantined > 0, "the chaos plan plants cache faults");
    assert_eq!(stderr_count(&chaos, " cached) in"), unique - quarantined);
}

/// `--chaos-hard 1` makes the first run in key order panic on every
/// attempt. The sweep still finishes: it exits 3, names that run as
/// `panicked` and skips exactly the artefacts that need it, and its
/// stdout is what a clean sweep of the other artefacts prints.
#[test]
fn unrecoverable_fault_skips_its_artefacts_and_exits_3() {
    let here = Path::new(".");
    let degraded = run_all_in(
        here,
        &[&["--no-cache", "--chaos-hard", "1"][..], &CHAOS].concat(),
    );
    let stderr = String::from_utf8_lossy(&degraded.stderr);
    assert_eq!(degraded.status.code(), Some(3), "stderr:\n{stderr}");
    assert!(stderr.contains(", 1 panicked,"), "stderr:\n{stderr}");
    let panicked: Vec<&str> = stderr
        .lines()
        .filter_map(|l| l.strip_prefix("[plp-bench]   panicked "))
        .collect();
    let [lost] = panicked[..] else {
        panic!("expected one panicked run, got {panicked:?}");
    };
    let skipped: Vec<&str> = stderr
        .lines()
        .filter_map(|l| {
            l.strip_prefix("[plp-bench] artefact ")?
                .strip_suffix(" skipped: runs missing after degraded execution")
        })
        .collect();

    let settings = RunSettings {
        instructions: INSTRUCTIONS.parse().unwrap(),
        seed: SEED.parse().unwrap(),
    };
    let (needs_lost, survivors): (Vec<_>, Vec<_>) = all_specs().iter().partition(|spec| {
        spec.runs_needed(settings)
            .iter()
            .any(|req| req.key() == lost)
    });
    let needs_lost: Vec<&str> = needs_lost.iter().map(|spec| spec.id).collect();
    assert!(!needs_lost.is_empty() && !survivors.is_empty());
    assert_eq!(skipped, needs_lost, "skipped artefacts");

    let survivors: Vec<&str> = survivors.iter().map(|spec| spec.id).collect();
    let clean = run_all_in(here, &["--no-cache", "--only", &survivors.join(",")]);
    assert!(clean.status.success(), "clean --only sweep failed");
    assert_eq!(
        String::from_utf8_lossy(&degraded.stdout),
        String::from_utf8_lossy(&clean.stdout)
    );
}
