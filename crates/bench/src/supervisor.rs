//! The run supervisor: the one retry/backoff/verdict driver of the
//! experiment matrix, with panic isolation, watchdog timeouts and
//! graceful degradation.
//!
//! [`supervise`] drives one run to a [`RunVerdict`]. Per attempt it
//! decides which chaos faults fire ([`ChaosFault::fires`]), probes the
//! run cache when none does (quarantining a corrupt entry), hands the
//! attempt to the executor, and stores a fresh report; a retryable
//! failure backs off under the shared [`plp_core::retry`] policy
//! (jitter seeded by the run key, so schedules replay exactly). A run
//! that exhausts its budget degrades to a structured verdict in a
//! [`DegradationReport`] instead of aborting the whole matrix.
//!
//! The executor, [`attempt_in_thread`], only runs an attempt and
//! classifies how it ended, as one [`AttemptOutcome`]: it runs the
//! attempt on a dedicated thread under [`std::panic::catch_unwind`],
//! bounded by the watchdog.
//!
//! Rust has no thread cancellation, so a timed-out attempt thread is
//! abandoned and finishes in the background. It changes nothing: only
//! the driver touches the cache, the result slots and the counters.
//! Output discipline: supervision never touches stdout — surviving
//! runs render byte-identically to a clean run, and everything about
//! failures goes to stderr via [`DegradationReport::render`].

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::sync::Once;
use std::time::Duration;

use plp_core::retry::{RetryPolicy, RetryToken};
use plp_core::{ConfigError, RunReport};

use crate::cache::{self, CacheOutcome};
use crate::chaos::{ChaosClass, ChaosFault, ChaosOptions};
use crate::matrix::MatrixOptions;

/// Seed mixed with each run key into the backoff jitter token.
const BACKOFF_SEED: u64 = 0x5355_5045_5256_4953; // "SUPERVIS"

/// Why a run request could not produce a report — the typed form of
/// what used to be worker panics in `matrix::run_request`.
#[derive(Debug, Clone, PartialEq)]
pub enum RunError {
    /// The request names a benchmark the trace registry does not know.
    UnknownBenchmark(String),
    /// The request's system configuration failed validation.
    InvalidConfig(ConfigError),
    /// The OS refused to spawn the attempt thread.
    SpawnFailed(String),
}

impl RunError {
    /// Whether retrying could possibly help. Spec bugs (unknown
    /// benchmark, invalid configuration) are deterministic and fail
    /// every attempt identically, so the supervisor rejects them
    /// immediately instead of burning the retry budget.
    pub fn is_retryable(&self) -> bool {
        matches!(self, RunError::SpawnFailed(_))
    }
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::UnknownBenchmark(b) => write!(f, "unknown benchmark '{b}' in run request"),
            RunError::InvalidConfig(e) => write!(f, "invalid configuration in run request: {e}"),
            RunError::SpawnFailed(e) => write!(f, "could not spawn attempt thread: {e}"),
        }
    }
}

impl std::error::Error for RunError {}

/// How the supervised matrix executes: the base matrix options plus
/// the supervision envelope.
#[derive(Debug, Clone)]
pub struct SupervisorOptions {
    /// Threads and cache directory.
    pub matrix: MatrixOptions,
    /// Wall-clock budget per attempt before the watchdog abandons it.
    pub watchdog: Duration,
    /// Retry/backoff policy (delays in nanoseconds, per the shared
    /// `plp_core::retry` convention).
    pub retry: RetryPolicy,
    /// Harness-level fault injection, if enabled.
    pub chaos: Option<ChaosOptions>,
}

impl SupervisorOptions {
    /// Default supervision around `matrix`: a generous two-minute
    /// watchdog (the heaviest paper run takes a couple of seconds) and
    /// three retries backing off 25 ms → 100 ms → 400 ms with 25%
    /// seeded jitter.
    pub fn new(matrix: MatrixOptions) -> Self {
        SupervisorOptions {
            matrix,
            watchdog: Duration::from_secs(120),
            retry: RetryPolicy::exponential(3, 25.0e6)
                .with_multiplier(4.0)
                .with_max_delay_ns(400.0e6)
                .with_jitter(0.25),
            chaos: None,
        }
    }

    /// How long an injected stall sleeps: comfortably past the
    /// watchdog, so a chaos stall always trips it.
    pub fn chaos_stall(&self) -> Duration {
        self.watchdog * 2 + Duration::from_millis(50)
    }
}

/// The per-run outcome recorded in the [`DegradationReport`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunVerdict {
    /// First attempt, no cache trouble.
    Ok,
    /// The run succeeded first try, but only after its cache entry was
    /// quarantined and the report regenerated.
    CacheQuarantined,
    /// The run succeeded after `attempts` failed attempts.
    Retried {
        /// Failed attempts before the success.
        attempts: u32,
    },
    /// Every attempt tripped the watchdog; no report exists.
    TimedOut {
        /// Attempts made (initial try + retries).
        attempts: u32,
    },
    /// The retry budget drained with the last failure a panic; no
    /// report exists.
    Panicked {
        /// Attempts made (initial try + retries).
        attempts: u32,
    },
    /// A non-retryable typed error ([`RunError`]); no report exists.
    Rejected,
    /// The crash harness SIGKILLed the run on purpose at a named
    /// failpoint. No report exists *by design* — distinguish this
    /// from [`RunVerdict::TimedOut`], which is a watchdog losing a
    /// run it wanted to keep.
    KilledByHarness {
        /// The failpoint the kill landed on (stable kebab name).
        failpoint: &'static str,
    },
}

impl RunVerdict {
    /// Short stable name for rendering and tests.
    pub fn name(&self) -> &'static str {
        match self {
            RunVerdict::Ok => "ok",
            RunVerdict::CacheQuarantined => "cache-quarantined",
            RunVerdict::Retried { .. } => "retried",
            RunVerdict::TimedOut { .. } => "timed-out",
            RunVerdict::Panicked { .. } => "panicked",
            RunVerdict::Rejected => "rejected",
            RunVerdict::KilledByHarness { .. } => "killed-by-harness",
        }
    }

    /// Whether the run produced a trustworthy report.
    pub fn recovered(&self) -> bool {
        matches!(
            self,
            RunVerdict::Ok | RunVerdict::CacheQuarantined | RunVerdict::Retried { .. }
        )
    }
}

/// Everything the supervisor observed about one run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunLog {
    /// The final verdict.
    pub verdict: RunVerdict,
    /// One deterministic line per failed attempt.
    pub failures: Vec<String>,
    /// Why the run's cache entry was quarantined, if it was.
    pub quarantine: Option<String>,
    /// The terminal typed error, for [`RunVerdict::Rejected`].
    pub error: Option<RunError>,
}

impl RunLog {
    /// A clean first-attempt log.
    pub fn clean() -> Self {
        RunLog {
            verdict: RunVerdict::Ok,
            failures: Vec::new(),
            quarantine: None,
            error: None,
        }
    }
}

/// Per-verdict tallies of a finished matrix.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VerdictCounts {
    /// Clean first-attempt runs.
    pub ok: usize,
    /// Runs that regenerated a quarantined cache entry.
    pub cache_quarantined: usize,
    /// Runs that needed retries.
    pub retried: usize,
    /// Runs whose every attempt tripped the watchdog.
    pub timed_out: usize,
    /// Runs whose budget drained on panics.
    pub panicked: usize,
    /// Runs rejected with a typed, non-retryable error.
    pub rejected: usize,
    /// Runs the crash harness SIGKILLed on purpose at a failpoint.
    pub killed_by_harness: usize,
}

impl VerdictCounts {
    /// Runs that produced no report *against the supervisor's will*.
    /// Intentional harness kills are not losses: the kill site was the
    /// experiment.
    pub fn lost(&self) -> usize {
        self.timed_out + self.panicked + self.rejected
    }
}

/// The structured outcome of a supervised matrix: what happened to
/// every run that was not a clean first-attempt success, plus the
/// chaos faults that were injected. Deterministic by construction —
/// entries are keyed by run key, failure lines carry no wall-clock —
/// so two runs with the same chaos seed produce equal reports.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DegradationReport {
    /// Distinct runs the matrix executed.
    pub total_runs: usize,
    counts: VerdictCounts,
    entries: BTreeMap<String, RunLog>,
    /// Deterministic descriptions of every injected chaos fault.
    pub chaos_faults: Vec<String>,
}

impl DegradationReport {
    /// An empty report pre-loaded with the chaos fault enumeration.
    pub fn new(chaos_faults: Vec<String>) -> Self {
        DegradationReport {
            chaos_faults,
            ..DegradationReport::default()
        }
    }

    /// Records one run's log. Clean logs only bump counters; anything
    /// eventful keeps its full log for rendering.
    pub fn record(&mut self, key: &str, log: RunLog) {
        self.total_runs += 1;
        let counts = &mut self.counts;
        match log.verdict {
            RunVerdict::Ok => counts.ok += 1,
            RunVerdict::CacheQuarantined => counts.cache_quarantined += 1,
            RunVerdict::Retried { .. } => counts.retried += 1,
            RunVerdict::TimedOut { .. } => counts.timed_out += 1,
            RunVerdict::Panicked { .. } => counts.panicked += 1,
            RunVerdict::Rejected => counts.rejected += 1,
            RunVerdict::KilledByHarness { .. } => counts.killed_by_harness += 1,
        }
        if log.verdict != RunVerdict::Ok {
            self.entries.insert(key.to_string(), log);
        }
    }

    /// Per-verdict tallies.
    pub fn counts(&self) -> VerdictCounts {
        self.counts
    }

    /// The eventful runs, keyed and ordered by run key.
    pub fn entries(&self) -> impl Iterator<Item = (&String, &RunLog)> {
        self.entries.iter()
    }

    /// Whether every run produced a report (faults, if any, were all
    /// recovered).
    pub fn fully_recovered(&self) -> bool {
        self.counts.lost() == 0
    }

    /// Whether there is anything worth printing at all.
    pub fn is_event_free(&self) -> bool {
        self.entries.is_empty() && self.chaos_faults.is_empty()
    }

    /// The stderr rendering: a summary line, the chaos fault
    /// enumeration, and one block per eventful run.
    pub fn render(&self) -> String {
        let c = self.counts;
        let mut out = format!(
            "[plp-bench] supervisor: {} runs — {} ok, {} cache-quarantined, {} retried, {} timed-out, {} panicked, {} rejected\n",
            self.total_runs, c.ok, c.cache_quarantined, c.retried, c.timed_out, c.panicked, c.rejected
        );
        if c.killed_by_harness > 0 {
            out.push_str(&format!(
                "[plp-bench] crash-harness: {} runs killed on purpose at failpoints\n",
                c.killed_by_harness
            ));
        }
        if !self.chaos_faults.is_empty() {
            out.push_str(&format!(
                "[plp-bench] chaos: {} faults injected\n",
                self.chaos_faults.len()
            ));
            for fault in &self.chaos_faults {
                out.push_str(&format!("[plp-bench]   chaos-fault {fault}\n"));
            }
        }
        for (key, log) in &self.entries {
            out.push_str(&format!("[plp-bench]   {} {key}\n", log.verdict.name()));
            if let Some(reason) = &log.quarantine {
                out.push_str(&format!(
                    "[plp-bench]     cache entry quarantined: {reason}\n"
                ));
            }
            for failure in &log.failures {
                out.push_str(&format!("[plp-bench]     {failure}\n"));
            }
            if let Some(error) = &log.error {
                out.push_str(&format!("[plp-bench]     error: {error}\n"));
            }
        }
        out
    }
}

/// A successful supervised execution of one run.
#[derive(Debug)]
pub struct SupervisedRun {
    /// The run's report.
    pub report: RunReport,
    /// Whether the report came out of the on-disk cache.
    pub cache_hit: bool,
}

/// How one attempt ended.
#[derive(Debug)]
pub enum AttemptOutcome {
    /// The attempt produced a report.
    Report(Box<RunReport>),
    /// The attempt panicked; the payload rendered as text.
    Panicked(String),
    /// The watchdog expired and the attempt thread was abandoned.
    TimedOut,
    /// A typed error: a spec bug, or an executor-level failure.
    Failed(RunError),
}

thread_local! {
    /// Marks threads whose panics the quiet hook swallows.
    static SUPERVISED_THREAD: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Installs (once) a panic hook that silences supervised attempt
/// threads — their panics are caught, recorded and rendered through
/// the [`DegradationReport`], so the default hook's stderr backtrace
/// would only be noise — while delegating every other thread's panic
/// to the previously installed hook.
fn install_quiet_hook() {
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !SUPERVISED_THREAD.with(std::cell::Cell::get) {
                previous(info);
            }
        }));
    });
}

/// Renders a panic payload the way the default hook would.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The attempt executor: runs one attempt on a dedicated thread
/// under `catch_unwind`, bounded by the watchdog. A timed-out thread is
/// abandoned (see the module docs) — its send into the dropped
/// receiver is simply lost.
pub fn attempt_in_thread<J>(job: J, watchdog: Duration) -> AttemptOutcome
where
    J: FnOnce() -> Result<RunReport, RunError> + Send + 'static,
{
    install_quiet_hook();
    let (tx, rx) = mpsc::sync_channel(1);
    let spawned = std::thread::Builder::new()
        .name("plp-run-attempt".to_string())
        .spawn(move || {
            SUPERVISED_THREAD.with(|s| s.set(true));
            let outcome = match catch_unwind(AssertUnwindSafe(job)) {
                Ok(Ok(report)) => AttemptOutcome::Report(Box::new(report)),
                Ok(Err(error)) => AttemptOutcome::Failed(error),
                Err(payload) => AttemptOutcome::Panicked(panic_message(payload.as_ref())),
            };
            let _ = tx.send(outcome);
        });
    let handle = match spawned {
        Ok(handle) => handle,
        Err(e) => return AttemptOutcome::Failed(RunError::SpawnFailed(e.to_string())),
    };
    match rx.recv_timeout(watchdog) {
        Ok(outcome) => {
            let _ = handle.join();
            outcome
        }
        Err(mpsc::RecvTimeoutError::Timeout) => AttemptOutcome::TimedOut,
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            AttemptOutcome::Panicked("attempt thread exited without reporting".to_string())
        }
    }
}

/// Drives one run to a verdict. Per attempt: pick the planned `faults`
/// that fire on it; when none does, probe the cache and return a hit
/// (a corrupt entry is quarantined, and the first reason kept); else
/// run the attempt through `execute` (given the firing fault classes)
/// and store a fresh report. A retryable failure backs off
/// (deterministically, seeded by `key`) and tries again until success
/// or budget exhaustion; a spec bug ends the run at once, since every
/// further attempt would fail the same way.
pub fn supervise<E>(
    key: &str,
    opts: &SupervisorOptions,
    faults: &[ChaosFault],
    mut execute: E,
) -> (Option<SupervisedRun>, RunLog)
where
    E: FnMut(&[ChaosClass]) -> AttemptOutcome,
{
    let policy = &opts.retry;
    let token = RetryToken::new(BACKOFF_SEED).mix_str(key);
    let cache_dir = opts.matrix.cache_dir.as_deref();
    let budget = policy.max_retries + 1;
    let mut failures = Vec::new();
    let mut quarantine: Option<String> = None;
    // The verdict and error if the budget drains after the latest
    // failed attempt.
    let mut exhausted = (RunVerdict::TimedOut { attempts: budget }, None);
    // The successful run and the index of the attempt that produced it.
    let mut success = None;
    for attempt in 0..=policy.max_retries {
        if attempt > 0 {
            std::thread::sleep(Duration::from_nanos(policy.delay_ns(token, attempt) as u64));
        }
        let fire: Vec<ChaosClass> = faults
            .iter()
            .filter(|f| f.fires(attempt))
            .map(|f| f.class)
            .collect();
        if let (true, Some(dir)) = (fire.is_empty(), cache_dir) {
            match cache::load_checked(dir, key) {
                CacheOutcome::Hit(report) => {
                    let run = SupervisedRun {
                        report: *report,
                        cache_hit: true,
                    };
                    success = Some((run, attempt));
                    break;
                }
                CacheOutcome::Quarantined { reason, .. } => {
                    quarantine.get_or_insert(reason);
                }
                CacheOutcome::Miss => {}
            }
        }
        let (line, verdict, error) = match execute(&fire) {
            AttemptOutcome::Report(report) => {
                if let Some(dir) = cache_dir {
                    cache::store(dir, key, &report);
                }
                let run = SupervisedRun {
                    report: *report,
                    cache_hit: false,
                };
                success = Some((run, attempt));
                break;
            }
            AttemptOutcome::Panicked(message) => (
                format!("panicked: {message}"),
                RunVerdict::Panicked { attempts: budget },
                None,
            ),
            AttemptOutcome::TimedOut => (
                "watchdog timeout".to_string(),
                RunVerdict::TimedOut { attempts: budget },
                None,
            ),
            AttemptOutcome::Failed(error) => (error.to_string(), RunVerdict::Rejected, Some(error)),
        };
        failures.push(format!("attempt {attempt}: {line}"));
        let terminal = error.as_ref().is_some_and(|e| !e.is_retryable());
        exhausted = (verdict, error);
        if terminal {
            break;
        }
    }
    let (run, (verdict, error)) = match success {
        Some((run, 0)) if quarantine.is_some() => (Some(run), (RunVerdict::CacheQuarantined, None)),
        Some((run, 0)) => (Some(run), (RunVerdict::Ok, None)),
        Some((run, attempts)) => (Some(run), (RunVerdict::Retried { attempts }, None)),
        None => (None, exhausted),
    };
    (
        run,
        RunLog {
            verdict,
            failures,
            quarantine,
            error,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_opts() -> SupervisorOptions {
        let mut opts = SupervisorOptions::new(MatrixOptions::serial());
        opts.watchdog = Duration::from_millis(200);
        // Near-zero backoff keeps tests fast while still exercising
        // the scheduling path.
        opts.retry = RetryPolicy::constant(2, 1000.0);
        opts
    }

    fn ok_run() -> Result<RunReport, RunError> {
        Ok(RunReport::default())
    }

    fn fault(class: ChaosClass, sticky: bool) -> ChaosFault {
        ChaosFault {
            class,
            attempt: 0,
            sticky,
        }
    }

    /// Drives key `k` through the executor: each attempt
    /// injects its firing faults, then succeeds.
    fn drive(opts: &SupervisorOptions, faults: &[ChaosFault]) -> (Option<SupervisedRun>, RunLog) {
        let stall = opts.chaos_stall();
        supervise("k", opts, faults, |fire| {
            let fire = fire.to_vec();
            attempt_in_thread(
                move || {
                    crate::chaos::inject(&fire, stall);
                    ok_run()
                },
                opts.watchdog,
            )
        })
    }

    #[test]
    fn clean_job_is_ok_first_try() {
        let (run, log) = drive(&test_opts(), &[]);
        assert!(run.is_some_and(|r| !r.cache_hit));
        assert_eq!(log, RunLog::clean());
    }

    #[test]
    fn panicking_job_is_isolated_and_retried() {
        let (run, log) = drive(&test_opts(), &[fault(ChaosClass::WorkerPanic, false)]);
        assert!(run.is_some());
        assert_eq!(log.verdict, RunVerdict::Retried { attempts: 1 });
        assert_eq!(
            log.failures,
            vec!["attempt 0: panicked: chaos: injected worker panic".to_string()]
        );
    }

    #[test]
    fn stalled_job_trips_watchdog_and_retries() {
        let (run, log) = drive(&test_opts(), &[fault(ChaosClass::WorkerStall, false)]);
        assert!(run.is_some());
        assert_eq!(log.verdict, RunVerdict::Retried { attempts: 1 });
        assert_eq!(
            log.failures,
            vec!["attempt 0: watchdog timeout".to_string()]
        );
    }

    #[test]
    fn always_panicking_job_exhausts_budget() {
        let (run, log) = drive(&test_opts(), &[fault(ChaosClass::WorkerPanic, true)]);
        assert!(run.is_none());
        assert_eq!(log.verdict, RunVerdict::Panicked { attempts: 3 });
        assert_eq!(log.failures.len(), 3);
    }

    #[test]
    fn non_retryable_error_rejects_immediately() {
        let mut calls = 0;
        let (run, log) = supervise("k", &test_opts(), &[], |_| {
            calls += 1;
            AttemptOutcome::Failed(RunError::UnknownBenchmark("nope".to_string()))
        });
        assert!(run.is_none());
        assert_eq!(calls, 1, "a spec bug must not burn the retry budget");
        assert_eq!(log.verdict, RunVerdict::Rejected);
        assert_eq!(
            log.error,
            Some(RunError::UnknownBenchmark("nope".to_string()))
        );
    }

    #[test]
    fn budget_drains_to_the_last_failure_kind() {
        let mut outcomes = vec![
            AttemptOutcome::Panicked("boom".to_string()),
            AttemptOutcome::Failed(RunError::SpawnFailed("no threads".to_string())),
            AttemptOutcome::TimedOut,
        ];
        let (run, log) = supervise("k", &test_opts(), &[], |_| outcomes.pop().unwrap());
        assert!(run.is_none());
        // A failed thread spawn is retryable, unlike a spec bug.
        assert_eq!(log.verdict, RunVerdict::Panicked { attempts: 3 });
        assert_eq!(log.error, None);
        assert_eq!(
            log.failures,
            [
                "attempt 0: watchdog timeout",
                "attempt 1: could not spawn attempt thread: no threads",
                "attempt 2: panicked: boom",
            ]
        );
    }

    #[test]
    fn cache_is_probed_only_on_attempts_no_fault_fires_on() {
        let dir = std::env::temp_dir().join(format!("plp-supervise-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut opts = test_opts();
        opts.matrix.cache_dir = Some(dir.clone());
        let corrupt = || {
            std::fs::create_dir_all(&dir).unwrap();
            std::fs::write(cache::cache_path(&dir, "k"), "garbage").unwrap();
        };

        // A corrupt entry is quarantined and the fresh report stored;
        // the quarantine upgrades a first-try Ok.
        corrupt();
        let (run, log) = drive(&opts, &[]);
        assert!(run.is_some_and(|r| !r.cache_hit));
        assert_eq!(log.verdict, RunVerdict::CacheQuarantined);
        assert!(log.quarantine.is_some());

        // The stored report is a hit: no attempt runs at all.
        let (run, log) = supervise("k", &opts, &[], |_| AttemptOutcome::TimedOut);
        assert!(run.is_some_and(|r| r.cache_hit));
        assert_eq!(log, RunLog::clean());

        // A fault firing on attempt 0 skips its probe; attempt 1 probes,
        // hits, and the run counts as retried.
        let mut calls = 0;
        let faults = [fault(ChaosClass::WorkerStall, false)];
        let (run, log) = supervise("k", &opts, &faults, |fire| {
            calls += 1;
            assert_eq!(fire, [ChaosClass::WorkerStall]);
            AttemptOutcome::TimedOut
        });
        assert_eq!(calls, 1);
        assert!(run.is_some_and(|r| r.cache_hit));
        assert_eq!(log.verdict, RunVerdict::Retried { attempts: 1 });

        // A quarantine never downgrades a retried verdict.
        corrupt();
        let (run, log) = drive(&opts, &[fault(ChaosClass::WorkerPanic, false)]);
        assert!(run.is_some_and(|r| !r.cache_hit));
        assert_eq!(log.verdict, RunVerdict::Retried { attempts: 1 });
        assert!(log.quarantine.is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn degradation_report_orders_and_counts() {
        let mut report = DegradationReport::new(vec!["worker-panic@0 b".to_string()]);
        report.record("b", {
            let mut log = RunLog::clean();
            log.verdict = RunVerdict::Retried { attempts: 1 };
            log.failures.push("attempt 0: panicked: chaos".to_string());
            log
        });
        report.record("a", RunLog::clean());
        report.record("c", {
            let mut log = RunLog::clean();
            log.verdict = RunVerdict::TimedOut { attempts: 3 };
            log
        });
        assert_eq!(report.total_runs, 3);
        assert_eq!(report.counts().ok, 1);
        assert_eq!(report.counts().retried, 1);
        assert_eq!(report.counts().timed_out, 1);
        assert!(!report.fully_recovered());
        let keys: Vec<&String> = report.entries().map(|(k, _)| k).collect();
        assert_eq!(
            keys,
            ["b", "c"],
            "entries are key-ordered, clean runs elided"
        );
        let rendered = report.render();
        assert!(rendered.contains("3 runs"));
        assert!(rendered.contains("chaos-fault worker-panic@0 b"));
        assert!(rendered.contains("timed-out c"));
    }

    #[test]
    fn harness_kills_are_counted_but_not_lost() {
        let mut report = DegradationReport::new(Vec::new());
        report.record("sp/mid-tuple", {
            let mut log = RunLog::clean();
            log.verdict = RunVerdict::KilledByHarness {
                failpoint: "mid-tuple",
            };
            log
        });
        report.record("sp/clean", RunLog::clean());
        assert_eq!(report.counts().killed_by_harness, 1);
        // An intentional SIGKILL is not a lost run: the kill site was
        // the experiment, unlike a watchdog timeout.
        assert_eq!(report.counts().lost(), 0);
        assert!(report.fully_recovered());
        let verdict = RunVerdict::KilledByHarness {
            failpoint: "mid-tuple",
        };
        assert_eq!(verdict.name(), "killed-by-harness");
        assert!(!verdict.recovered());
        let rendered = report.render();
        assert!(rendered.contains("1 runs killed on purpose"));
        assert!(rendered.contains("killed-by-harness sp/mid-tuple"));
    }
}
