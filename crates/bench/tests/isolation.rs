//! End-to-end gates for process-isolated matrix supervision, driving
//! the real `all` binary (`--isolate` re-execs it once per run as
//! `all … --run-one <key>`).
//!
//! Pinned behaviours:
//! - stdout is byte-identical between in-process and isolated sweeps,
//!   and under a chaos seed so is stderr minus the timing line;
//! - the degradation report (stderr minus the timing line) is equal
//!   across thread counts under a chaos seed in isolated mode;
//! - a warm-cache chaos sweep serves every run from the cache except
//!   the quarantined ones, in both modes;
//! - a child that exhausts its address-space rlimit degrades to an
//!   `oom-killed` verdict promptly instead of hanging the sweep;
//! - no `--run-one` child processes survive a finished sweep.

use std::path::Path;
use std::process::{Command, Output};
use std::sync::Mutex;
use std::time::Instant;

/// Sweeps in this file spawn and then assert on child *processes*, so
/// they must not interleave: a test's no-survivors scan would observe
/// another test's live children.
static SWEEP_LOCK: Mutex<()> = Mutex::new(());

// The artefact renderers assert structural minimums (e.g. adjacent
// same-page persists) that need a few thousand instructions of trace.
const INSTRUCTIONS: &str = "2000";
const SEED: &str = "7";

/// Chaos sweeps run under a 300 ms watchdog instead of `all`'s 1.5 s
/// chaos default: each injected stall lasts twice the watchdog plus
/// 50 ms, and the fault plan and its verdicts do not depend on it.
const CHAOS: [&str; 4] = ["--chaos", "0xC0FFEE", "--watchdog-ms", "300"];

fn all_binary() -> &'static str {
    env!("CARGO_BIN_EXE_all")
}

fn run_all(args: &[&str]) -> Output {
    run_all_in(Path::new("."), args)
}

/// Runs `all` with `dir` as its working directory (and so with its run
/// cache under `dir/results/cache`).
fn run_all_in(dir: &Path, args: &[&str]) -> Output {
    Command::new(all_binary())
        .current_dir(dir)
        .args([INSTRUCTIONS, SEED])
        .args(args)
        .output()
        .expect("all binary runs")
}

/// stderr with the one legitimately run-dependent line (the stats
/// summary, which embeds wall-clock timing and the thread count)
/// removed.
fn stable_stderr(output: &Output) -> String {
    String::from_utf8_lossy(&output.stderr)
        .lines()
        .filter(|line| !line.starts_with("[plp-bench] all ("))
        .collect::<Vec<_>>()
        .join("\n")
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

/// True if any live process on the system has `needle` in its argv.
fn any_process_cmdline_contains(needle: &str) -> bool {
    let Ok(entries) = std::fs::read_dir("/proc") else {
        return false;
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if !name.chars().all(|c| c.is_ascii_digit()) {
            continue;
        }
        if let Ok(cmdline) = std::fs::read(entry.path().join("cmdline")) {
            if String::from_utf8_lossy(&cmdline)
                .split('\0')
                .any(|arg| arg.contains(needle))
            {
                return true;
            }
        }
    }
    false
}

fn assert_no_surviving_children() {
    assert!(
        !any_process_cmdline_contains("--run-one"),
        "a --run-one child process survived the sweep"
    );
}

#[test]
fn isolated_sweep_stdout_is_byte_identical_to_in_process() {
    let _guard = SWEEP_LOCK.lock().unwrap();
    let in_process = run_all(&["--no-cache"]);
    let isolated = run_all(&["--no-cache", "--isolate"]);
    assert!(in_process.status.success(), "in-process sweep failed");
    assert!(isolated.status.success(), "isolated sweep degraded");
    assert_eq!(
        in_process.stdout, isolated.stdout,
        "isolated stdout diverged from in-process stdout"
    );
    assert_no_surviving_children();
}

#[test]
fn isolated_chaos_report_is_deterministic_across_thread_counts() {
    let _guard = SWEEP_LOCK.lock().unwrap();
    let two = run_all(&[&["--no-cache", "--isolate", "--threads", "2"][..], &CHAOS].concat());
    let four = run_all(&[&["--no-cache", "--isolate", "--threads", "4"][..], &CHAOS].concat());
    assert_eq!(
        two.status.code(),
        four.status.code(),
        "exit code changed with thread count"
    );
    assert_eq!(
        two.stdout, four.stdout,
        "chaos stdout changed with thread count"
    );
    assert_eq!(
        stable_stderr(&two),
        stable_stderr(&four),
        "degradation report changed with thread count"
    );
    // Every injected fault must be visible in the report: the chaos
    // plan for this seed includes worker faults, and recovery must be
    // total (exit 0) — isolation may not weaken chaos coverage.
    let report = stable_stderr(&two);
    assert!(
        report.contains("faults injected"),
        "chaos banner missing from stderr:\n{report}"
    );
    assert_eq!(two.status.code(), Some(0), "chaos sweep did not recover");
    assert_no_surviving_children();
}

#[test]
fn chaos_sweep_reports_equal_in_process_and_isolated() {
    let _guard = SWEEP_LOCK.lock().unwrap();
    let in_process = run_all(&[&["--no-cache"][..], &CHAOS].concat());
    let isolated = run_all(&[&["--no-cache", "--isolate"][..], &CHAOS].concat());
    assert_eq!(
        in_process.status.code(),
        Some(0),
        "in-process chaos sweep did not recover"
    );
    assert_eq!(
        isolated.status.code(),
        Some(0),
        "isolated chaos sweep did not recover"
    );
    assert_eq!(
        in_process.stdout, isolated.stdout,
        "isolated chaos stdout diverged from in-process"
    );
    assert_eq!(
        stable_stderr(&in_process),
        stable_stderr(&isolated),
        "isolated degradation report diverged from in-process"
    );
    assert_no_surviving_children();
}

/// After a warm-up sweep, a chaos sweep finds every entry on disk: only
/// the quarantined ones (planted corruption) miss, including for runs
/// retried after a worker fault, in both modes.
#[test]
fn warm_chaos_sweep_caches_every_run_but_the_quarantined() {
    let _guard = SWEEP_LOCK.lock().unwrap();
    for mode in [&[][..], &["--isolate"][..]] {
        let dir = std::env::temp_dir().join(format!(
            "plp-isolation-warm-{}-{}",
            mode.len(),
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let warm_up = run_all_in(&dir, &[&["--threads", "2"], mode].concat());
        assert!(warm_up.status.success(), "warm-up sweep failed {mode:?}");
        let chaos = run_all_in(&dir, &[&["--threads", "2"][..], &CHAOS, mode].concat());
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(
            chaos.status.code(),
            Some(0),
            "chaos sweep did not recover {mode:?}"
        );
        let unique = stderr_count(&chaos, " unique,");
        let quarantined = stderr_count(&chaos, " cache-quarantined,");
        assert!(quarantined > 0, "the chaos plan plants cache faults");
        assert_eq!(
            stderr_count(&chaos, " cached) in"),
            unique - quarantined,
            "cached runs {mode:?}"
        );
    }
    assert_no_surviving_children();
}

/// Pinned regression: an isolated child that exhausts its rlimit is
/// reported as `oom-killed` — terminal, never retried — and the sweep
/// finishes promptly and degrades instead of hanging. Before process
/// isolation an allocation bomb inside a worker thread took the whole
/// sweep down with it.
#[test]
fn oom_child_degrades_to_oom_killed_without_hanging_the_sweep() {
    let _guard = SWEEP_LOCK.lock().unwrap();
    #[expect(
        clippy::disallowed_methods,
        reason = "the test bounds the sweep's wall-clock time"
    )]
    let started = Instant::now();
    let output = run_all(&["--no-cache", "--isolate", "--test-oom-key", "bench=gcc|"]);
    let elapsed = started.elapsed();
    assert_eq!(
        output.status.code(),
        Some(3),
        "oom-killed runs must degrade the sweep (exit 3)"
    );
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("runs oom-killed"),
        "isolation tally missing from stderr:\n{stderr}"
    );
    assert!(
        stderr.contains("exceeded its address-space limit"),
        "oom verdict detail missing from stderr:\n{stderr}"
    );
    assert!(
        stderr.contains("0 ipc-corrupt"),
        "oom children misclassified as ipc corruption:\n{stderr}"
    );
    // Terminal classification means no retry backoff: even a debug
    // build finishes the whole sweep in well under this bound, while a
    // hung watchdog-less sweep would blow straight through it.
    assert!(
        elapsed.as_secs() < 300,
        "oom sweep took {elapsed:?}; child OOM is stalling the matrix"
    );
    assert_no_surviving_children();
}
