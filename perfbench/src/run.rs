//! One benchmark invocation: set-up repetitions, timed passes, checks
//! and the result.

use std::time::{Duration, Instant};

use crate::crash;
use crate::host::{self, WorkDir};
use crate::metrics::{Ledger, Outcome};
use crate::span::{self, Tracer};
use crate::stats;
use crate::sweep::{self, Mode, Sweep};

/// Every workload this benchmark runs. `BENCHMARK.json` gates
/// `paper_sweep` and `crash_recovery`; see `README.md` for the others.
pub const WORKLOADS: [&str; 4] = ["paper_sweep", "ci_sweep", "cache_replay", "crash_recovery"];

/// Each batch of set-ups lasts at least this long (and holds at least
/// one set-up). One batch runs before every pass, so that `setup_s`,
/// the median over every batch, samples the same host states across
/// the run as `wall_s` does.
pub const SETUP_BATCH_SECONDS: f64 = 0.25;

/// Passes per run at least, however long they take.
pub const MIN_PASSES: usize = 3;

/// What one measured pass did.
#[derive(Debug, Clone, Copy)]
pub struct PassStat {
    /// Wall-clock, excluding set-up.
    pub wall: Duration,
    /// Ops attempted.
    pub attempted: u64,
    /// Ops failed.
    pub failed: u64,
    /// Σ `RunReport::instructions` over the pass's runs.
    pub instructions: u64,
    /// Output fingerprint.
    pub fingerprint: u64,
}

/// Everything an untraced run measured.
#[derive(Debug, Default)]
pub struct Measured {
    /// Each set-up's duration, s.
    pub setups: Vec<f64>,
    /// The median set-up of each batch, s (one batch per pass).
    pub batch_setups: Vec<f64>,
    /// Each pass.
    pub passes: Vec<PassStat>,
    /// Failed checks outside any pass (set-up).
    pub setup_failures: u64,
    /// Extra human-readable lines.
    pub notes: Vec<String>,
}

/// Runs batches of `setup` and one pass after each batch, until
/// `seconds` have elapsed and at least [`MIN_PASSES`] passes ran. A
/// batch repeats `setup` for [`SETUP_BATCH_SECONDS`], dropping each
/// state before the next set-up starts; the pass gets the batch's last
/// state. A set-up returns its state and its failed checks.
///
/// # Errors
///
/// Returns the first I/O error a set-up or pass meets.
pub fn measure<S>(
    seconds: f64,
    work: &mut WorkDir,
    mut setup: impl FnMut(&mut WorkDir) -> std::io::Result<(S, u64)>,
    mut pass: impl FnMut(&mut S, &mut WorkDir) -> std::io::Result<PassStat>,
) -> std::io::Result<Measured> {
    let mut m = Measured::default();
    let started = Instant::now();
    while m.passes.len() < MIN_PASSES || started.elapsed().as_secs_f64() < seconds {
        let mut state = None;
        let first = m.setups.len();
        let batch = Instant::now();
        while state.is_none() || batch.elapsed().as_secs_f64() < SETUP_BATCH_SECONDS {
            drop(state.take());
            let t = Instant::now();
            let (s, failures) = setup(work)?;
            m.setups.push(t.elapsed().as_secs_f64());
            m.setup_failures += failures;
            state = Some(s);
        }
        let mut state = state.expect("a batch runs at least one set-up");
        m.batch_setups.extend(stats::median(&m.setups[first..]));
        m.passes.push(pass(&mut state, work)?);
    }
    Ok(m)
}

/// Turns an untraced run into its outcome and end-to-end metrics.
pub fn summarise(m: &Measured) -> Outcome {
    let attempted = m.passes.iter().map(|p| p.attempted).sum();
    let failed = m.passes.iter().map(|p| p.failed).sum();
    let stable = m
        .passes
        .windows(2)
        .all(|w| w[0].fingerprint == w[1].fingerprint);
    let mut metrics = Ledger::default();
    let walls: Vec<f64> = m.passes.iter().map(|p| p.wall.as_secs_f64()).collect();
    if let Some(wall) = stats::median(&walls) {
        metrics.set("wall_s", wall, "s");
    }
    if let Some(setup) = stats::median(&m.setups) {
        metrics.set("setup_s", setup, "s");
    }
    let per_instr: Vec<f64> = m
        .passes
        .iter()
        .filter(|p| p.instructions > 0)
        .map(|p| p.wall.as_nanos() as f64 / p.instructions as f64)
        .collect();
    if let Some(ns) = stats::median(&per_instr) {
        metrics.set("host_ns_per_instr", ns, "ns");
    }
    Outcome {
        attempted,
        failed,
        correct: failed == 0 && m.setup_failures == 0 && stable,
        metrics,
    }
}

/// The human-readable lines printed before the result.
pub fn report_lines(workload: &str, seed: u64, m: &Measured, outcome: &Outcome) -> Vec<String> {
    let mut lines = vec![format!(
        "perfbench {workload} seed={seed} threads={} passes={} setups={}",
        host::threads(),
        m.passes.len(),
        m.setups.len()
    )];
    let walls: Vec<String> = m
        .passes
        .iter()
        .map(|p| format!("{:.4}", p.wall.as_secs_f64()))
        .collect();
    lines.push(format!("pass_wall_s {}", walls.join(" ")));
    let batches: Vec<String> = m.batch_setups.iter().map(|s| format!("{s:.6}")).collect();
    lines.push(format!("setup_batch_s {}", batches.join(" ")));
    let frac = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    lines.push(format!(
        "ops {} failed {} ops_failed_frac {frac}",
        outcome.attempted, outcome.failed
    ));
    if let Some(p) = m.passes.first() {
        lines.push(format!("fingerprint {:016x}", p.fingerprint));
    }
    if let Some(rss) = host::peak_rss_mib() {
        lines.push(format!("peak_rss_mib {rss}"));
    }
    lines.extend(m.notes.iter().cloned());
    lines
}

/// The matrix a matrix workload runs, and how; `None` for
/// `crash_recovery` and unknown names.
fn matrix_workload(workload: &str, seed: u64) -> Option<(Sweep, Mode)> {
    match workload {
        "paper_sweep" => Some((Sweep::paper(seed), Mode::Simulate)),
        "ci_sweep" => Some((Sweep::ci(seed), Mode::Simulate)),
        "cache_replay" => Some((Sweep::ci(seed), Mode::Replay)),
        _ => None,
    }
}

fn unknown(workload: &str) -> std::io::Error {
    std::io::Error::new(
        std::io::ErrorKind::InvalidInput,
        format!("unknown workload {workload:?}"),
    )
}

/// Runs `workload` untraced for `seconds`.
///
/// # Errors
///
/// Returns the first I/O error of the benchmark's scratch directory.
pub fn untraced(
    workload: &str,
    seed: u64,
    seconds: f64,
    work: &mut WorkDir,
) -> std::io::Result<Measured> {
    match matrix_workload(workload, seed) {
        Some((sweep, Mode::Simulate)) => measure(
            seconds,
            work,
            |_| {
                let requests = sweep.requests();
                let keys = sweep::unique(&requests);
                Ok(((requests, keys), 0))
            },
            |(requests, keys), work| {
                // Each pass gets an empty run cache, removed after the
                // pass, outside its timed interval.
                let dir = work.fresh("pass")?;
                let pass = sweep::run_pass(&sweep, requests, &dir);
                std::fs::remove_dir_all(&dir)?;
                Ok(PassStat {
                    wall: pass.wall,
                    attempted: keys.len() as u64,
                    failed: sweep::sweep_failures(&pass, keys),
                    instructions: sweep::instructions(&pass, keys),
                    fingerprint: sweep::fingerprint(&pass.rendered),
                })
            },
        ),
        Some((sweep, Mode::Replay)) => {
            let requests = sweep.requests();
            let keys = sweep::unique(&requests);
            measure(
                seconds,
                work,
                |work| sweep::fill(&sweep, &requests, &keys, work),
                |fill, _| {
                    let pass = sweep::run_pass(&sweep, &requests, &fill.dir);
                    Ok(PassStat {
                        wall: pass.wall,
                        attempted: keys.len() as u64,
                        failed: sweep::replay_failures(&pass, fill, &keys),
                        instructions: sweep::instructions(&pass, &keys),
                        fingerprint: sweep::fingerprint(&pass.rendered),
                    })
                },
            )
        }
        None if workload == "crash_recovery" => {
            let mut latencies = Vec::new();
            let mut worst = None;
            let mut m = measure(
                seconds,
                work,
                |_| Ok((crash::trace(seed), 0)),
                |trace, work| {
                    let t = Instant::now();
                    let pass = crash::run_pass(seed, trace, work, &mut Tracer::off())?;
                    let wall = t.elapsed();
                    latencies.extend_from_slice(&pass.recover_ns);
                    worst = Some(pass.worst_cycles);
                    Ok(PassStat {
                        wall,
                        attempted: pass.attempted,
                        failed: pass.failed,
                        instructions: pass.instructions,
                        fingerprint: pass.fingerprint,
                    })
                },
            )?;
            // Cut-recovery latency over every pass's cuts.
            let mut ledger = Ledger::default();
            crash::record_latency(&mut ledger, "recover_ms", &latencies);
            m.notes
                .extend(ledger.render("latency").lines().map(String::from));
            if let Some(worst) = worst {
                let at11: Vec<String> = worst
                    .iter()
                    .filter(|((_, levels), _)| *levels == 11)
                    .map(|((scheme, _), cycles)| format!("{scheme}={cycles}"))
                    .collect();
                m.notes
                    .push(format!("worst_recovery_cycles@11 {}", at11.join(" ")));
            }
            Ok(m)
        }
        None => Err(unknown(workload)),
    }
}

/// What a traced run produced.
pub struct TracedOutcome {
    /// Ops, failures and the ledger.
    pub outcome: Outcome,
    /// Output fingerprint.
    pub fingerprint: u64,
    /// Every recorded span.
    pub tracer: Tracer,
}

/// Runs `workload` traced.
///
/// # Errors
///
/// Returns the first I/O error of the benchmark's scratch directory.
pub fn traced(workload: &str, seed: u64, work: &mut WorkDir) -> std::io::Result<TracedOutcome> {
    let (ledger, attempted, failed, fingerprint, tracer) = match matrix_workload(workload, seed) {
        Some((sweep, mode)) => {
            let t = sweep::traced(&sweep, mode, work)?;
            (t.ledger, t.attempted, t.failed, t.fingerprint, t.tracer)
        }
        None if workload == "crash_recovery" => {
            let (pass, tracer, ledger) = crash::traced(seed, work)?;
            (
                ledger,
                pass.attempted,
                pass.failed,
                pass.fingerprint,
                tracer,
            )
        }
        None => return Err(unknown(workload)),
    };
    Ok(TracedOutcome {
        outcome: Outcome {
            attempted,
            failed,
            correct: failed == 0,
            metrics: ledger,
        },
        fingerprint,
        tracer,
    })
}

/// Writes the spans of a traced run to `.bench_spans/<workload>-<seed>.tsv`.
///
/// # Errors
///
/// Returns the I/O error if the file cannot be written.
pub fn write_spans(
    workload: &str,
    seed: u64,
    tracer: &Tracer,
) -> std::io::Result<std::path::PathBuf> {
    let dir = std::path::PathBuf::from(".bench_spans");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{workload}-{seed}.tsv"));
    std::fs::write(&path, span::render(tracer.spans()))?;
    Ok(path)
}
