//! The isolate watchdog kills a stalled child's whole process group.
//!
//! This test has a binary of its own because it reads every thread of
//! its process to show that isolated supervision spawns no
//! `plp-run-attempt` thread. The supervisor's in-process tests spawn
//! such threads, and a timed-out one is abandoned and outlives its
//! test, so sharing their process would make the check race them.

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use plp_bench::isolate::{run_attempt, IsolateOptions, ResourceLimits};
use plp_bench::matrix::MatrixOptions;
use plp_bench::supervisor::{supervise, RunVerdict, SupervisorOptions};
use plp_core::retry::RetryPolicy;

/// A stalled child is SIGKILLed for real, together with its process
/// group: `/bin/sh` forks `sleep 30` rather than exec-ing it, and
/// that grandchild holds the stdout pipe. The supervisor returns in
/// well under a second, no process is left in any killed child's
/// group, no process with the marker survives, and no
/// `plp-run-attempt` thread was ever spawned (process isolation
/// replaced thread abandonment).
#[test]
fn tripped_watchdog_leaves_no_live_child_and_no_attempt_threads() {
    let marker = format!("plp-isolate-stall-marker-{}", std::process::id());
    let mut sup = SupervisorOptions::new(MatrixOptions::serial());
    sup.watchdog = Duration::from_millis(200);
    sup.retry = RetryPolicy::constant(1, 1000.0);
    // `sh -c 'sleep 30 # marker'` ignores the trailing protocol
    // arguments (they land in $0/$@) and sleeps far past the
    // watchdog on every attempt.
    let iso = IsolateOptions {
        exe: PathBuf::from("/bin/sh"),
        base_args: vec!["-c".to_string(), format!("sleep 30 # {marker}")],
        limits: ResourceLimits {
            address_space_bytes: None,
            cpu_secs: None,
        },
        oom_key: None,
    };
    // Each child lives for one 200 ms watchdog period; polling /proc
    // meanwhile records its pid and process group.
    let done = Arc::new(AtomicBool::new(false));
    let watcher = {
        let (done, marker) = (Arc::clone(&done), marker.clone());
        std::thread::Builder::new()
            .name("plp-test-watch".to_string())
            .spawn(move || {
                let mut seen = BTreeSet::new();
                while !done.load(Ordering::Relaxed) {
                    for pid in pids_with_cmdline(&marker) {
                        if let Some((_, pgrp)) = state_and_group(pid) {
                            seen.insert((pid, pgrp));
                        }
                    }
                    std::thread::sleep(Duration::from_millis(2));
                }
                seen
            })
            .unwrap()
    };
    #[expect(
        clippy::disallowed_methods,
        reason = "the test bounds the supervisor's wall-clock time"
    )]
    let started = std::time::Instant::now();
    let (run, log) = supervise("stall-key", &sup, &[], |fire| {
        run_attempt(&iso, "stall-key", fire, sup.watchdog, sup.chaos_stall())
    });
    let elapsed = started.elapsed();
    done.store(true, Ordering::Relaxed);
    let children = watcher.join().unwrap();
    assert!(run.is_none());
    assert_eq!(log.verdict, RunVerdict::TimedOut { attempts: 2 });
    assert_eq!(
        log.failures,
        vec![
            "attempt 0: watchdog timeout".to_string(),
            "attempt 1: watchdog timeout".to_string()
        ]
    );
    // Two 200 ms watchdog periods and one retry delay, not the
    // grandchild's 30 s sleep per attempt.
    assert!(
        elapsed < Duration::from_secs(5),
        "supervise took {elapsed:?}: the pipe reader waited on a survivor"
    );
    assert!(!children.is_empty(), "the watcher never saw a child");
    for &(pid, pgrp) in &children {
        assert_eq!(pid, pgrp, "child {pid} must lead its own process group");
        assert_eq!(
            live_members_after_grace(pgrp),
            Vec::<u32>::new(),
            "processes survived in the killed group {pgrp}"
        );
    }
    // No child survived the SIGKILL: no process's cmdline still
    // carries the marker.
    assert!(
        pids_with_cmdline(&marker).is_empty(),
        "a SIGKILLed child must not survive the sweep"
    );
    // And no abandoned attempt thread exists in this process.
    assert!(
        !any_own_thread_named("plp-run-attempt"),
        "isolated supervision must not spawn attempt threads"
    );
}

/// Pids of other processes whose cmdline contains `needle`.
fn pids_with_cmdline(needle: &str) -> Vec<u32> {
    let Ok(entries) = std::fs::read_dir("/proc") else {
        return Vec::new();
    };
    entries
        .flatten()
        .filter_map(|entry| entry.file_name().to_str()?.parse::<u32>().ok())
        .filter(|pid| *pid != std::process::id())
        .filter(|pid| {
            std::fs::read(format!("/proc/{pid}/cmdline"))
                .is_ok_and(|cmdline| String::from_utf8_lossy(&cmdline).contains(needle))
        })
        .collect()
}

/// A process's state letter and process group, from
/// `/proc/PID/stat` (the fields after the parenthesised command).
fn state_and_group(pid: u32) -> Option<(char, u32)> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    let mut fields = stat.get(stat.rfind(')')? + 2..)?.split(' ');
    let state = fields.next()?.chars().next()?;
    let _ppid = fields.next()?;
    Some((state, fields.next()?.parse().ok()?))
}

/// Processes in group `pgrp` that are not dead (zombie or exiting)
/// after a second's grace: SIGKILL lands asynchronously, and an
/// orphan's reaping is up to its new parent.
fn live_members_after_grace(pgrp: u32) -> Vec<u32> {
    let members = || -> Vec<u32> {
        let Ok(entries) = std::fs::read_dir("/proc") else {
            return Vec::new();
        };
        entries
            .flatten()
            .filter_map(|entry| entry.file_name().to_str()?.parse::<u32>().ok())
            .filter(|pid| {
                state_and_group(*pid)
                    .is_some_and(|(state, group)| group == pgrp && !matches!(state, 'Z' | 'X'))
            })
            .collect()
    };
    for _ in 0..100 {
        let live = members();
        if live.is_empty() {
            return live;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    members()
}

fn any_own_thread_named(needle: &str) -> bool {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return false;
    };
    for task in tasks.flatten() {
        if let Ok(comm) = std::fs::read_to_string(task.path().join("comm")) {
            if comm.trim() == needle {
                return true;
            }
        }
    }
    false
}
