//! The process-isolated attempt executor: each matrix attempt executes
//! in a re-exec'ed child under real OS resource limits, so a wedged or
//! memory-hungry run can be SIGKILLed instead of abandoned.
//!
//! The retry/backoff/verdict loop is `crate::supervisor::supervise`'s,
//! shared with the in-process executor; this module only runs one
//! attempt ([`run_attempt`]). Rust cannot cancel a thread, so a
//! timed-out in-process attempt is abandoned and keeps burning CPU in
//! the background; an isolated one is killed. Every attempt re-execs
//! the harness binary as `<exe> --run-one <key> …`; the child applies
//! rlimits to itself ([`apply_self_limits`]), runs exactly one
//! simulation, and returns its `RunReport` over stdout as exactly the
//! bytes of its run-cache entry: one checksummed, versioned frame
//! ([`cache::encode`]) that the parent checks with
//! [`cache::decode_checked`]. Watchdog trips become real SIGKILLs of
//! the child's process group (each child leads its own), so a process
//! the child forked dies with it instead of holding its pipes open;
//! panics become nonzero exits; a child that outgrows its
//! address-space limit dies to the allocator's abort and is reported
//! as [`RunVerdict::OomKilled`](crate::RunVerdict::OomKilled) instead
//! of hanging the sweep.
//!
//! Output discipline matches the in-process path: isolation never
//! touches stdout, reports decode bit-exactly (the cache codec is
//! lossless), and the cache stays with the driver in the parent —
//! children never open it, so a corrupt entry is quarantined exactly
//! once.

use std::io::Read;
use std::os::unix::process::CommandExt;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::time::Duration;

use crate::cache;
use crate::chaos::ChaosClass;
use crate::supervisor::{AttemptOutcome, RunError};

/// Exit code a child uses for a request key it cannot reconstruct.
pub const EXIT_UNKNOWN_KEY: i32 = 4;
/// Exit code a child uses when the simulation itself fails (unknown
/// benchmark or invalid configuration — spec bugs, not crashes).
pub const EXIT_RUN_FAILED: i32 = 5;

/// Per-child OS resource limits, applied by the child to itself at
/// startup (before any allocation of consequence).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResourceLimits {
    /// `RLIMIT_AS` in bytes; an allocation past it fails and the
    /// allocator aborts the child (SIGABRT →
    /// [`RunVerdict::OomKilled`](crate::RunVerdict::OomKilled)).
    pub address_space_bytes: Option<u64>,
    /// `RLIMIT_CPU` in seconds — a kernel-side backstop behind the
    /// parent's wall-clock watchdog.
    pub cpu_secs: Option<u64>,
}

impl Default for ResourceLimits {
    /// 32 GiB of address space — RLIMIT_AS charges virtual
    /// reservations, and the heaviest paper configs model an 8 GiB NVM
    /// whose sparse structures reserve past 8 GiB while touching far
    /// less — and a 10-minute CPU backstop. A runaway allocation still
    /// trips the limit orders of magnitude before exhausting the host.
    fn default() -> Self {
        ResourceLimits {
            address_space_bytes: Some(32 << 30),
            cpu_secs: Some(600),
        }
    }
}

/// `struct rlimit` as the kernel sees it on 64-bit Linux.
#[repr(C)]
struct RLimit {
    cur: u64,
    max: u64,
}

const RLIMIT_CPU: i32 = 0;
const RLIMIT_AS: i32 = 9;
const SIGKILL: i32 = 9;

extern "C" {
    fn setrlimit(resource: i32, rlim: *const RLimit) -> i32;
    fn kill(pid: i32, sig: i32) -> i32;
}

/// Applies `limits` to the calling process. Children call this first
/// thing in `--run-one` mode; failures are reported, not fatal — a
/// limit that cannot be applied degrades to unlimited, never to a
/// silently skipped run.
pub fn apply_self_limits(limits: &ResourceLimits) -> Result<(), String> {
    let apply = |resource: i32, value: u64, what: &str| -> Result<(), String> {
        let rlim = RLimit {
            cur: value,
            max: value,
        };
        // SAFETY: setrlimit reads a valid, initialized struct and
        // affects only the calling process.
        if unsafe { setrlimit(resource, &rlim) } != 0 {
            return Err(format!("setrlimit({what}, {value}) failed"));
        }
        Ok(())
    };
    if let Some(bytes) = limits.address_space_bytes {
        apply(RLIMIT_AS, bytes, "RLIMIT_AS")?;
    }
    if let Some(secs) = limits.cpu_secs {
        apply(RLIMIT_CPU, secs, "RLIMIT_CPU")?;
    }
    Ok(())
}

/// Test-only allocation bomb (`--chaos-oom`): requests an allocation
/// far past any sane address-space limit. Under `RLIMIT_AS` the
/// allocator aborts the process, which the parent classifies as
/// [`AttemptOutcome::OomKilled`]; without a limit the reservation may
/// succeed untouched (overcommit), in which case the child exits
/// without a report frame instead of dirtying terabytes.
#[expect(
    clippy::exit,
    reason = "the bomb runs only in a re-exec'd child, which must end without a report frame"
)]
pub fn allocation_bomb() -> ! {
    // black_box keeps the allocation observable: without it the
    // optimizer elides the untouched vec and the child exits 0.
    let v = std::hint::black_box(vec![0u8; 1 << 44]);
    std::process::exit(i32::from(v[0]));
}

/// How isolated children are launched.
#[derive(Debug, Clone)]
pub struct IsolateOptions {
    /// The harness binary to re-exec (normally `current_exe`).
    pub exe: PathBuf,
    /// Arguments every child needs to reconstruct its request —
    /// passed *before* `--run-one` so tests can substitute a shell
    /// script that ignores the trailing protocol arguments.
    pub base_args: Vec<String>,
    /// Rlimits each child self-applies.
    pub limits: ResourceLimits,
    /// Test-only: keys containing this substring run the allocation
    /// bomb instead of simulating (pins the OomKilled path).
    pub oom_key: Option<String>,
}

impl IsolateOptions {
    /// Isolation via `exe` with default limits and no test faults.
    pub fn new(exe: PathBuf, base_args: Vec<String>) -> Self {
        IsolateOptions {
            exe,
            base_args,
            limits: ResourceLimits::default(),
            oom_key: None,
        }
    }
}

/// The panic message a child printed, extracted from the default
/// hook's stderr shape (`thread '…' panicked at …:\n<message>\n`).
/// Deterministic for deterministic panics, so degradation reports
/// stay equal across thread counts and repeated sweeps.
fn panic_message_from_stderr(stderr: &[u8]) -> String {
    let text = String::from_utf8_lossy(stderr);
    let mut lines = text.lines();
    while let Some(line) = lines.next() {
        if line.contains("panicked at") {
            let message: Vec<&str> = lines
                .by_ref()
                .take_while(|l| !l.starts_with("note:") && !l.starts_with("stack backtrace"))
                .collect();
            if !message.is_empty() {
                return message.join(" ");
            }
        }
    }
    "child panicked (exit 101)".to_string()
}

/// The isolated executor: runs one attempt in a child — fault flags
/// for the classes in `fire`, spawn, pump stdout on a named reader
/// thread, SIGKILL on watchdog expiry, classify the exit. A stall
/// sleeps `stall` in the child.
pub fn run_attempt(
    iso: &IsolateOptions,
    key: &str,
    fire: &[ChaosClass],
    watchdog: Duration,
    stall: Duration,
) -> AttemptOutcome {
    let mut cmd = Command::new(&iso.exe);
    cmd.args(&iso.base_args)
        .arg("--run-one")
        .arg(key)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .process_group(0);
    if let Some(bytes) = iso.limits.address_space_bytes {
        cmd.arg("--limit-as").arg(bytes.to_string());
    }
    if let Some(secs) = iso.limits.cpu_secs {
        cmd.arg("--limit-cpu").arg(secs.to_string());
    }
    for class in fire {
        match class {
            ChaosClass::WorkerPanic => {
                cmd.arg("--chaos-panic");
            }
            ChaosClass::WorkerStall => {
                cmd.arg("--chaos-stall-ms")
                    .arg(stall.as_millis().to_string());
            }
            _ => {}
        }
    }
    if iso.oom_key.as_deref().is_some_and(|s| key.contains(s)) {
        cmd.arg("--chaos-oom");
    }
    let mut child = match cmd.spawn() {
        Ok(child) => child,
        Err(e) => return failed(format!("spawn failed: {e}")),
    };
    let (Some(mut stdout), Some(mut stderr)) = (child.stdout.take(), child.stderr.take()) else {
        kill_group(&mut child);
        let _ = child.wait();
        return failed("child pipes were not captured".to_string());
    };
    // Reader threads drain both pipes; stdout EOF doubles as the
    // completion signal for the watchdog's recv_timeout. Both threads
    // are joined below — no attempt thread ever outlives the run.
    let (tx, rx) = mpsc::channel::<Vec<u8>>();
    let out_reader = std::thread::Builder::new()
        .name("plp-isolate-io".to_string())
        .spawn(move || {
            let mut buf = Vec::new();
            let _ = stdout.read_to_end(&mut buf);
            let _ = tx.send(buf);
        });
    let err_reader = std::thread::Builder::new()
        .name("plp-isolate-io".to_string())
        .spawn(move || {
            let mut buf = Vec::new();
            let _ = stderr.read_to_end(&mut buf);
            buf
        });
    let (Ok(out_reader), Ok(err_reader)) = (out_reader, err_reader) else {
        kill_group(&mut child);
        let _ = child.wait();
        return failed("could not spawn pipe reader".to_string());
    };
    let (stdout_bytes, timed_out) = match rx.recv_timeout(watchdog) {
        Ok(bytes) => (bytes, false),
        Err(_) => {
            // The whole point of isolation: a real, unblockable
            // SIGKILL of the child and everything it forked, not an
            // abandoned thread.
            kill_group(&mut child);
            (Vec::new(), true)
        }
    };
    let status = child.wait();
    let _ = out_reader.join();
    let stderr_bytes = err_reader.join().unwrap_or_default();
    if timed_out {
        return AttemptOutcome::TimedOut;
    }
    let status = match status {
        Ok(status) => status,
        Err(e) => return failed(format!("wait failed: {e}")),
    };
    #[cfg(unix)]
    {
        use std::os::unix::process::ExitStatusExt;
        if let Some(signal) = status.signal() {
            // SIGABRT(6) is the allocator's response to a failed
            // allocation under RLIMIT_AS. Any other fatal signal is
            // outside the protocol.
            return if signal == 6 {
                AttemptOutcome::OomKilled
            } else {
                failed(format!("child killed by signal {signal}"))
            };
        }
    }
    match status.code() {
        Some(0) => match cache::decode_checked(key, &stdout_bytes) {
            Ok(report) => AttemptOutcome::Report(Box::new(report)),
            Err(fault) => AttemptOutcome::IpcCorrupt(fault.to_string()),
        },
        Some(101) => AttemptOutcome::Panicked(panic_message_from_stderr(&stderr_bytes)),
        Some(code) => {
            let tail = String::from_utf8_lossy(&stderr_bytes);
            failed(format!(
                "child exited {code}: {}",
                tail.lines().last().unwrap_or("").trim()
            ))
        }
        None => failed("child reported no exit status".to_string()),
    }
}

/// SIGKILLs `child`'s process group. [`run_attempt`] makes every child
/// the leader of its own group, so the group is the child and whatever
/// it forked: a grandchild that inherited the stdout pipe would
/// otherwise outlive the kill and keep the pipe reader (and so the
/// supervisor) waiting until it exited by itself. Falls back to
/// killing the child alone if the group cannot be signalled.
fn kill_group(child: &mut Child) {
    let group_killed = i32::try_from(child.id()).is_ok_and(|pid| {
        // SAFETY: plain syscall wrapper; a negative pid names the
        // process group our own unreaped child leads, so its id
        // cannot have been reused.
        unsafe { kill(-pid, SIGKILL) == 0 }
    });
    if !group_killed {
        #[expect(
            clippy::disallowed_methods,
            reason = "process isolation kills its own child"
        )]
        let _ = child.kill();
    }
}

/// A child that died outside the `--run-one` protocol: a spawn
/// failure, an unexpected signal or exit code (retryable).
fn failed(message: String) -> AttemptOutcome {
    AttemptOutcome::Failed(RunError::ChildFailed(message))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CacheFault;

    #[test]
    fn report_frame_round_trips_and_rejects_corruption() {
        // What a child writes and what the parent accepts: the run's
        // cache entry, checked by the cache decoder.
        let key = format!("{}|isolate-test", cache::CACHE_FORMAT);
        let report = plp_core::RunReport::default();
        let bytes = cache::encode(&key, &report);
        assert_eq!(cache::decode_checked(&key, &bytes), Ok(report));
        // Truncations at every prefix fail closed.
        for cut in 0..bytes.len() {
            assert_eq!(
                cache::decode_checked(&key, &bytes[..cut]),
                Err(CacheFault::Truncated),
                "cut {cut}"
            );
        }
        // A flipped payload byte fails the frame checksum.
        let mut flipped = bytes.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x40;
        assert_eq!(
            cache::decode_checked(&key, &flipped),
            Err(CacheFault::ChecksumMismatch)
        );
        // The wrong key fails the stored-key check.
        assert_eq!(
            cache::decode_checked("some other key", &bytes),
            Err(CacheFault::KeyMismatch)
        );
        // Trailing garbage after a valid frame is rejected too.
        let mut trailing = bytes;
        trailing.push(0);
        assert_eq!(
            cache::decode_checked(&key, &trailing),
            Err(CacheFault::Malformed)
        );
    }

    #[test]
    fn panic_messages_extract_deterministically() {
        let stderr = b"thread 'main' panicked at crates/bench/src/bin/all.rs:12:5:\n\
                       chaos: injected worker panic\n\
                       note: run with `RUST_BACKTRACE=1` environment variable to display a backtrace\n";
        assert_eq!(
            panic_message_from_stderr(stderr),
            "chaos: injected worker panic"
        );
        assert_eq!(
            panic_message_from_stderr(b"no panic shape here"),
            "child panicked (exit 101)"
        );
    }
}
