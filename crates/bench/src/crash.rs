//! Real-process crash harness: SIGKILL a child simulation at a named
//! failpoint, reopen the file image it left behind, and prove recovery.
//!
//! The harness closes the loop that the in-memory fault sweep
//! (`fault_sweep`) cannot: there, "crash" means truncating a record
//! list; here, a real OS process is killed with an unblockable signal
//! while its [`plp_core::DurableSink`] is mid-write, and the only
//! surviving evidence is the write-through device image on disk.
//!
//! Protocol, per matrix cell `(scheme, failpoint, hit)`:
//!
//! 1. the parent re-executes itself (`current_exe`) with `--child`
//!    arguments naming the scheme, workload, seed, image path and an
//!    armed park-mode failpoint;
//! 2. the child simulates with a durable sink attached; when the
//!    failpoint fires it prints [`plp_core::failpoint::PARK_MARKER`],
//!    flushes stdout and parks in an infinite sleep — *deliberately
//!    unable* to clean up;
//! 3. the parent reads the marker, sends SIGKILL
//!    ([`std::process::Child::kill`]), reaps the corpse, and replays
//!    the orphaned image with [`plp_core::replay_image`];
//! 4. a golden in-process run of the same `(scheme, trace, seed)`
//!    provides the full persist history; the ids the image holds
//!    completely define the cut, [`plp_core::RecoveryManager`] judges
//!    the image against the cut's expectation, and the replayed
//!    counter state is compared field-for-field against a golden fold.
//!
//! A child that finishes the trace before its failpoint fires prints a
//! deterministic `COMPLETED_MARKER` line instead; those cells verify
//! the complete image round-trips (and back the `verify.sh` gate that
//! file-backed no-kill stdout is byte-identical to in-memory stdout).
//!
//! The crash model is process death, not power loss: `write(2)`-ed
//! bytes live in the kernel page cache and survive SIGKILL without
//! fsync, so the image the parent reopens is exactly what the child
//! had appended when it parked.

use std::collections::{BTreeSet, HashMap};
use std::io::BufRead;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::mpsc;
use std::time::Duration;

use plp_core::failpoint::PARK_MARKER;
use plp_core::{
    replay_image, DurableSink, Failpoint, FailpointPlan, FailpointRegistry, FaultVerdict,
    ObserverExpectation, PersistRecord, RecoveryManager, SimSetup, SystemConfig, UpdateScheme,
};
use plp_crypto::CounterBlock;
use plp_trace::spec;

use crate::cache;
use crate::supervisor::{DegradationReport, RunLog, RunVerdict};

/// Marker line a child prints when it finishes its trace without the
/// armed failpoint firing. Stable: the `verify.sh` no-kill identity
/// gate `cmp`s whole stdouts across file-backed and in-memory runs.
pub const COMPLETED_MARKER: &str = "crash-harness: completed";

/// Marker a recovery-mode child prints after its durable recovery
/// runs to completion (parked recovery children print [`PARK_MARKER`]
/// instead and never reach this line).
pub const RECOVERED_MARKER: &str = "crash-harness: recovered";

// ---------------------------------------------------------------------------
// Child side
// ---------------------------------------------------------------------------

/// Everything a child process needs to reproduce one simulation:
/// parsed from `--child` arguments, serialized back with
/// [`ChildSpec::to_args`]. The round trip is exact — the child must
/// run the *same* trace the parent's golden run used.
#[derive(Debug, Clone, PartialEq)]
pub struct ChildSpec {
    /// Update scheme under test.
    pub scheme: UpdateScheme,
    /// Workload profile name (e.g. `gcc`).
    pub benchmark: String,
    /// Trace length.
    pub instructions: u64,
    /// Trace seed.
    pub seed: u64,
    /// Device image path; `None` runs purely in memory (the identity
    /// gate's baseline half).
    pub image: Option<PathBuf>,
    /// Armed park-mode failpoint; `None` runs to completion.
    pub plan: Option<FailpointPlan>,
    /// Recovery mode: instead of running the trace, durably recover
    /// the existing image (the second/third process of the
    /// double-kill protocol). Requires `image`.
    pub recover: bool,
}

impl ChildSpec {
    /// The `--child` argument vector that [`ChildSpec::from_args`]
    /// parses back into `self`.
    pub fn to_args(&self) -> Vec<String> {
        let mut args = vec![
            "--child".to_string(),
            "--scheme".to_string(),
            self.scheme.name().to_string(),
            "--benchmark".to_string(),
            self.benchmark.clone(),
            "--instructions".to_string(),
            self.instructions.to_string(),
            "--seed".to_string(),
            self.seed.to_string(),
        ];
        if let Some(image) = &self.image {
            args.push("--image".to_string());
            args.push(image.display().to_string());
        }
        if let Some(plan) = self.plan {
            args.push("--failpoint".to_string());
            args.push(plan.point.name().to_string());
            args.push("--hit".to_string());
            args.push(plan.hit.to_string());
        }
        if self.recover {
            args.push("--recover".to_string());
        }
        args
    }

    /// Parses the argument list *after* the `--child` flag.
    pub fn from_args(args: &[String]) -> Result<ChildSpec, String> {
        let mut scheme = None;
        let mut benchmark = None;
        let mut instructions = None;
        let mut seed = None;
        let mut image = None;
        let mut point = None;
        let mut hit = None;
        let mut recover = false;
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            if flag == "--child" {
                continue;
            }
            if flag == "--recover" {
                recover = true;
                continue;
            }
            let value = it
                .next()
                .ok_or_else(|| format!("flag {flag} is missing its value"))?;
            match flag.as_str() {
                "--scheme" => {
                    scheme = Some(
                        UpdateScheme::parse(value).ok_or_else(|| format!("unknown scheme {value}"))?,
                    );
                }
                "--benchmark" => benchmark = Some(value.clone()),
                "--instructions" => {
                    instructions =
                        Some(value.parse().map_err(|_| format!("bad instruction count {value}"))?);
                }
                "--seed" => {
                    seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?);
                }
                "--image" => image = Some(PathBuf::from(value)),
                "--failpoint" => {
                    point = Some(
                        Failpoint::parse(value).ok_or_else(|| format!("unknown failpoint {value}"))?,
                    );
                }
                "--hit" => {
                    hit = Some(value.parse().map_err(|_| format!("bad hit index {value}"))?);
                }
                other => return Err(format!("unknown child flag {other}")),
            }
        }
        let plan = match (point, hit) {
            (Some(point), Some(hit)) => Some(FailpointPlan { point, hit }),
            (None, None) => None,
            _ => return Err("--failpoint and --hit must be given together".to_string()),
        };
        if recover && image.is_none() {
            return Err("--recover requires --image".to_string());
        }
        Ok(ChildSpec {
            scheme: scheme.ok_or("missing --scheme")?,
            benchmark: benchmark.ok_or("missing --benchmark")?,
            instructions: instructions.ok_or("missing --instructions")?,
            seed: seed.ok_or("missing --seed")?,
            image,
            plan,
            recover,
        })
    }
}

/// Runs one child simulation to completion (or until its armed
/// failpoint parks the process — in which case this never returns).
/// Returns the `COMPLETED_MARKER` stdout line on success.
pub fn run_child(child: &ChildSpec) -> Result<String, String> {
    let profile = spec::benchmark(&child.benchmark)
        .ok_or_else(|| format!("unknown benchmark {}", child.benchmark))?;
    let setup = SimSetup::for_profile(
        SystemConfig::for_scheme(child.scheme),
        &profile,
        child.seed,
    )
    .map_err(|e| format!("config rejected: {e}"))?;
    let trace = setup.generate_trace(child.instructions);
    let mut sim = setup.simulation();
    if let Some(path) = &child.image {
        let sink = DurableSink::create(path, setup.config(), child.seed)
            .map_err(|e| format!("cannot create device image {}: {e}", path.display()))?;
        sim.attach_durable_sink(sink);
    }
    if let Some(plan) = child.plan {
        sim.arm_failpoints(FailpointRegistry::park(plan));
    }
    let (report, finished) = sim.run_with_state(&trace);
    if let Some(e) = finished.durable_error() {
        return Err(format!("durable sink poisoned: {e}"));
    }
    // Byte-stable across file-backed and in-memory runs: the sink must
    // not perturb the simulation, and this line is the proof surface.
    Ok(format!(
        "{COMPLETED_MARKER} scheme={} persists={} epochs={} root={:#018x} cycles={}",
        child.scheme.name(),
        report.persists,
        report.epochs,
        finished.architectural_root(),
        report.total_cycles
    ))
}

/// Runs one child in recovery mode: rebuilds the golden history for
/// the spec's `(scheme, benchmark, instructions, seed)` in-process,
/// then durably recovers the existing image. With an armed park-mode
/// plan the process parks at the recovery failpoint and awaits
/// SIGKILL; without one it prints the [`RECOVERED_MARKER`] line.
pub fn run_recover_child(child: &ChildSpec) -> Result<String, String> {
    let image = child
        .image
        .as_deref()
        .ok_or("recovery mode requires --image")?;
    let golden = golden_run(child.scheme, &child.benchmark, child.instructions, child.seed)?;
    let replayed = replay_image(image, golden.config.key)
        .map_err(|e| format!("replay of {} failed: {e}", image.display()))?;
    let expected = ObserverExpectation::from_complete_ids(&golden.records, &replayed.complete_ids);
    let manager = RecoveryManager::for_config(&golden.config);
    let mut registry = child.plan.map(FailpointRegistry::park);
    let wb = plp_core::recover_image(
        image,
        golden.config.key,
        &manager,
        &golden.records,
        &expected,
        registry.as_mut(),
    )
    .map_err(|e| format!("durable recovery of {} failed: {e}", image.display()))?;
    Ok(format!(
        "{RECOVERED_MARKER} scheme={} verdict={} complete={} quarantined={} root={:#018x} rewritten={}",
        child.scheme.name(),
        wb.outcome.verdict().name(),
        wb.replayed.complete_ids.len(),
        wb.outcome.quarantined().len(),
        wb.outcome.adopted_root,
        wb.rewritten
    ))
}

// ---------------------------------------------------------------------------
// Golden model + judge
// ---------------------------------------------------------------------------

/// One full in-process reference run: the persist history every kill
/// of the same `(scheme, benchmark, instructions, seed)` is cut from.
struct Golden {
    config: SystemConfig,
    records: Vec<PersistRecord>,
}

fn golden_run(
    scheme: UpdateScheme,
    benchmark: &str,
    instructions: u64,
    seed: u64,
) -> Result<Golden, String> {
    let profile =
        spec::benchmark(benchmark).ok_or_else(|| format!("unknown benchmark {benchmark}"))?;
    let mut config = SystemConfig::for_scheme(scheme);
    config.record_persists = true;
    let setup = SimSetup::for_profile(config, &profile, seed)
        .map_err(|e| format!("config rejected: {e}"))?;
    let trace = setup.generate_trace(instructions);
    let config = setup.config().clone();
    let (report, _) = setup.simulation().run_with_state(&trace);
    Ok(Golden {
        config,
        records: report.records,
    })
}

/// What recovery concluded about one reopened image.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Judgement {
    /// The recovery verdict against the cut's observer expectation.
    pub verdict: FaultVerdict,
    /// Whether the replayed split-counter state equals the golden
    /// program-order fold of the cut — the "recovered tree/counter
    /// state matches the in-memory model" half of the contract (the
    /// counters *are* the tree: equal counters force an equal root).
    pub counters_match: bool,
    /// Complete persists the image held.
    pub complete: usize,
    /// Persists with only some tuple components on media (torn).
    pub partial: usize,
}

impl Judgement {
    /// Detect-or-recover held and the counter state is the model's.
    pub fn healthy(&self) -> bool {
        matches!(self.verdict, FaultVerdict::Clean | FaultVerdict::Repaired)
            && self.counters_match
    }
}

/// The golden program-order counter fold of the same cut — the
/// "field-exact counters" half of a judgement.
fn cut_counters(golden: &Golden, complete_ids: &BTreeSet<u64>) -> HashMap<u64, CounterBlock> {
    let mut counters = HashMap::new();
    for r in golden
        .records
        .iter()
        .filter(|r| complete_ids.contains(&r.id.0))
    {
        counters.insert(r.addr.page().index(), r.counters_after.clone());
    }
    counters
}

/// Reopens `image`, replays it, and judges it against the golden run.
fn judge(golden: &Golden, image: &Path) -> Result<Judgement, String> {
    let replayed = replay_image(image, golden.config.key)
        .map_err(|e| format!("replay of {} failed: {e}", image.display()))?;
    let expected = ObserverExpectation::from_complete_ids(&golden.records, &replayed.complete_ids);
    let counters = cut_counters(golden, &replayed.complete_ids);
    let outcome = RecoveryManager::for_config(&golden.config).recover(
        &replayed.image,
        &golden.records,
        &expected,
    );
    Ok(Judgement {
        verdict: outcome.verdict(),
        counters_match: replayed.image.counters == counters,
        complete: replayed.complete_ids.len(),
        partial: replayed.partial_ids.len(),
    })
}

// ---------------------------------------------------------------------------
// Parent side: spawn, watch, SIGKILL
// ---------------------------------------------------------------------------

/// How one matrix cell's child process ended.
#[derive(Debug, Clone, PartialEq)]
pub enum CellOutcome {
    /// The failpoint fired at `persist`; the child was SIGKILLed while
    /// parked and its image judged.
    Killed {
        /// Persist index (1-based) the kill landed in.
        persist: u64,
        /// Recovery's judgement of the orphaned image.
        judgement: Judgement,
    },
    /// The trace ended before the failpoint fired; the complete image
    /// was judged as a round-trip sanity check.
    NotReached {
        /// Recovery's judgement of the complete image.
        judgement: Judgement,
    },
    /// The child printed neither marker within the watchdog window.
    TimedOut,
    /// Spawn, replay or judge failed outright.
    Error(String),
}

/// One judged matrix cell.
#[derive(Debug, Clone, PartialEq)]
pub struct CellReport {
    /// Scheme under test.
    pub scheme: UpdateScheme,
    /// The armed failpoint.
    pub point: Failpoint,
    /// Zero-based hit index the plan armed.
    pub hit: u64,
    /// How the cell ended.
    pub outcome: CellOutcome,
}

/// Parses `persist=<n>` out of a park-marker line.
fn parse_park_persist(line: &str) -> Option<u64> {
    line.split_whitespace()
        .find_map(|tok| tok.strip_prefix("persist="))
        .and_then(|v| v.parse().ok())
}

/// How a watched child process ended.
#[derive(Debug)]
enum ChildEnd {
    /// The armed failpoint fired; the child was SIGKILLed while parked.
    /// Carries the park-marker line.
    Parked(String),
    /// The child printed the marker that ends the wait without parking.
    Done,
    /// Neither marker arrived inside the watchdog window; the child was
    /// SIGKILLed.
    TimedOut,
    /// Spawn or pipe failure.
    Error(String),
}

/// Spawns one child and waits for the park marker or the `done` marker
/// line ([`COMPLETED_MARKER`] for a run, [`RECOVERED_MARKER`] for a
/// recovery), SIGKILLing it if it parks or stays silent past the
/// watchdog.
fn watch_child(exe: &Path, spec: &ChildSpec, done: &str, watchdog: Duration) -> ChildEnd {
    let mut child = match Command::new(exe)
        .args(spec.to_args())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
    {
        Ok(child) => child,
        Err(e) => return ChildEnd::Error(format!("spawn failed: {e}")),
    };
    // Park-marker bookkeeping: while the child lives, a `.pid` file
    // next to its image names it. A parent killed mid-cell leaves the
    // file (and possibly a parked child) behind; the next sweep's
    // startup GC reaps both.
    let pid_file = spec.image.as_deref().map(pid_marker_path);
    if let Some(pf) = &pid_file {
        let _ = std::fs::write(pf, format!("{}\n", child.id()));
    }
    let Some(stdout) = child.stdout.take() else {
        #[expect(
            clippy::disallowed_methods,
            reason = "the crash harness kills its own child"
        )]
        let _ = child.kill();
        let _ = child.wait();
        if let Some(pf) = &pid_file {
            let _ = std::fs::remove_file(pf);
        }
        return ChildEnd::Error("child stdout was not captured".to_string());
    };
    // A reader thread forwards marker lines; recv_timeout is the
    // watchdog. After the SIGKILL the pipe closes and the thread
    // drains to EOF on its own.
    let (tx, rx) = mpsc::channel::<String>();
    let reader = std::thread::spawn(move || {
        for line in std::io::BufReader::new(stdout).lines() {
            let Ok(line) = line else { break };
            if tx.send(line).is_err() {
                break;
            }
        }
    });
    let end = loop {
        match rx.recv_timeout(watchdog) {
            Ok(line) if line.starts_with(PARK_MARKER) => {
                // The whole point: a real, unblockable SIGKILL while
                // the child is parked mid-persist.
                #[expect(
                    clippy::disallowed_methods,
                    reason = "the crash harness kills its own child"
                )]
                let _ = child.kill();
                break ChildEnd::Parked(line);
            }
            Ok(line) if line.starts_with(done) => break ChildEnd::Done,
            Ok(_) => continue,
            Err(_) => {
                #[expect(
                    clippy::disallowed_methods,
                    reason = "the crash harness kills its own child"
                )]
                let _ = child.kill();
                break ChildEnd::TimedOut;
            }
        }
    };
    let _ = child.wait();
    let _ = reader.join();
    if let Some(pf) = &pid_file {
        let _ = std::fs::remove_file(pf);
    }
    end
}

/// Classifies how a run-mode child ended, with a placeholder judgement
/// the caller fills in from the image.
fn cell_outcome(end: ChildEnd) -> CellOutcome {
    let judgement = Judgement {
        verdict: FaultVerdict::Clean,
        counters_match: false,
        complete: 0,
        partial: 0,
    };
    match end {
        ChildEnd::Parked(line) => match parse_park_persist(&line) {
            Some(persist) => CellOutcome::Killed { persist, judgement },
            None => CellOutcome::Error(format!("unparseable park marker: {line}")),
        },
        ChildEnd::Done => CellOutcome::NotReached { judgement },
        ChildEnd::TimedOut => CellOutcome::TimedOut,
        ChildEnd::Error(e) => CellOutcome::Error(e),
    }
}

/// Path of the `.pid` park-marker file for a child using `image`.
fn pid_marker_path(image: &Path) -> PathBuf {
    let mut os = image.as_os_str().to_os_string();
    os.push(".pid");
    PathBuf::from(os)
}

// ---------------------------------------------------------------------------
// Startup GC
// ---------------------------------------------------------------------------

// The harness is the one place allowed to signal arbitrary pids: a
// parent killed mid-cell leaves a parked child (infinite sleep) whose
// only record is its `.pid` file, and only SIGKILL can reap it.
extern "C" {
    fn kill(pid: i32, sig: i32) -> i32;
}

/// Reaps a parked child recorded in `pid_file`, if it is still alive
/// and verifiably ours (its cmdline contains the `--child` flag).
/// Returns whether a SIGKILL was actually sent.
fn reap_orphan(pid_file: &Path) -> bool {
    let Ok(text) = std::fs::read_to_string(pid_file) else {
        return false;
    };
    let Ok(pid) = text.trim().parse::<i32>() else {
        return false;
    };
    if pid <= 1 {
        return false;
    }
    let Ok(cmdline) = std::fs::read(format!("/proc/{pid}/cmdline")) else {
        return false; // already gone
    };
    let ours = cmdline
        .split(|b| *b == 0)
        .any(|arg| arg == b"--child");
    // SAFETY: plain syscall wrapper; SIGKILL (9) to a pid we just
    // verified belongs to a parked harness child.
    ours && unsafe { kill(pid, 9) } == 0
}

/// Removes stale crash images, recovery-scratch images, orphaned
/// `.pid` park-marker files (SIGKILLing any still-parked child they
/// name) and quarantined run-cache entries left behind by earlier
/// (possibly killed) harness invocations. Returns
/// `(files_removed, quarantine_entries_removed)`.
///
/// Both directories only ever hold files this repo's tooling wrote:
/// `*.img` device images, their `*.img.rec` recovery scratches and
/// `*.pid` markers here, and rejected cache entries moved aside by
/// [`crate::cache`]. Anything else is left alone.
pub fn gc_stale(image_dir: &Path, cache_dir: &Path) -> (usize, usize) {
    let mut images = 0;
    if let Ok(entries) = std::fs::read_dir(image_dir) {
        for entry in entries.flatten() {
            let path = entry.path();
            let stale = match path.extension() {
                Some(e) if e == "img" || e == "rec" => true,
                Some(e) if e == "pid" => {
                    reap_orphan(&path);
                    true
                }
                _ => false,
            };
            if stale && std::fs::remove_file(&path).is_ok() {
                images += 1;
            }
        }
    }
    let mut quarantined = 0;
    if let Ok(entries) = std::fs::read_dir(cache::quarantine_dir(cache_dir)) {
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_file() && std::fs::remove_file(&path).is_ok() {
                quarantined += 1;
            }
        }
    }
    (images, quarantined)
}

// ---------------------------------------------------------------------------
// The sweep
// ---------------------------------------------------------------------------

/// Parent-side sweep configuration.
#[derive(Debug, Clone)]
pub struct HarnessOptions {
    /// Workload profile name.
    pub benchmark: String,
    /// Trace length per child.
    pub instructions: u64,
    /// Trace seed.
    pub seed: u64,
    /// Schemes to sweep; default: every correct engine (`phoenix`
    /// included via [`UpdateScheme::correct`]) plus the two schemes
    /// that must demonstrably lose data — the `unordered` strawman
    /// everywhere, and `triad_nvm` inside its relaxed flush window.
    pub schemes: Vec<UpdateScheme>,
    /// Failpoints to arm; default: the whole run-path catalog
    /// (epoch-only points are skipped for strict-persistency schemes;
    /// recovery points belong to the double-kill sweep, not this one).
    pub points: Vec<Failpoint>,
    /// Hit-index override applied to every point; `None` uses the
    /// per-point defaults of [`default_hits`].
    pub hits: Option<Vec<u64>>,
    /// Where child images are written (and GC'd at startup).
    pub image_dir: PathBuf,
    /// Run-cache directory whose quarantine is GC'd at startup.
    pub cache_dir: PathBuf,
    /// Per-child watchdog.
    pub watchdog: Duration,
}

impl Default for HarnessOptions {
    fn default() -> Self {
        let mut schemes: Vec<UpdateScheme> = UpdateScheme::correct().to_vec();
        schemes.push(UpdateScheme::Unordered);
        schemes.push(UpdateScheme::TriadNvm);
        HarnessOptions {
            benchmark: "gcc".to_string(),
            instructions: 20_000,
            seed: 7,
            schemes,
            points: Failpoint::RUN.to_vec(),
            hits: None,
            image_dir: PathBuf::from("results").join("crash_images"),
            cache_dir: crate::matrix::default_cache_dir(),
            watchdog: Duration::from_secs(120),
        }
    }
}

/// Default hit indices (zero-based) per failpoint: one early, one
/// deeper into the run. Sites that count faster (`mid-tuple` visits
/// once per component under `unordered`, `between-levels` once per
/// touched tree level) still land well inside a 20k-instruction trace;
/// epoch seals are rare, so their indices stay small.
pub fn default_hits(point: Failpoint) -> Vec<u64> {
    match point {
        Failpoint::MidTuple => vec![5, 40],
        Failpoint::BetweenLevels => vec![3, 97],
        Failpoint::PreRootSeal | Failpoint::PostRootSeal => vec![2, 33],
        Failpoint::MidEpochFlush => vec![1, 10],
        Failpoint::PostEpochSeal => vec![0, 2],
        // Recovery points fire once per recovery run, except the
        // writeback point which fires per scratch frame. The deeper
        // writeback hit must stay under the smallest scratch a swept
        // kill produces (the unordered strawman's ~13-frame image).
        Failpoint::RecoveryPreRepair
        | Failpoint::RecoveryPreRootCommit
        | Failpoint::RecoveryPostRootCommit => vec![0],
        Failpoint::RecoveryMidWriteback => vec![1, 7],
    }
}

/// Whether `point` can fire at all under `scheme` during a live run.
fn applicable(scheme: UpdateScheme, point: Failpoint) -> bool {
    match point {
        Failpoint::MidEpochFlush | Failpoint::PostEpochSeal => scheme.is_epoch_based(),
        p if p.is_recovery() => false,
        _ => true,
    }
}

/// The judged matrix plus the aggregate verdict.
#[derive(Debug)]
pub struct HarnessReport {
    /// Every judged cell, in sweep order.
    pub cells: Vec<CellReport>,
    /// Supervisor-style degradation ledger (kills are intentional).
    pub degradation: DegradationReport,
    /// Stale images / quarantine entries removed at startup.
    pub gc: (usize, usize),
    /// Whether the harness gate passed (see [`HarnessReport::gate`]).
    pub pass: bool,
}

/// Runs the full SIGKILL sweep. `exe` is the binary to re-execute in
/// child mode (normally [`std::env::current_exe`]).
pub fn run_harness(opts: &HarnessOptions, exe: &Path) -> Result<HarnessReport, String> {
    let gc = gc_stale(&opts.image_dir, &opts.cache_dir);
    std::fs::create_dir_all(&opts.image_dir)
        .map_err(|e| format!("cannot create {}: {e}", opts.image_dir.display()))?;

    let mut cells = Vec::new();
    let mut degradation = DegradationReport::new(Vec::new());
    for &scheme in &opts.schemes {
        let golden = golden_run(scheme, &opts.benchmark, opts.instructions, opts.seed)?;
        for &point in &opts.points {
            if !applicable(scheme, point) {
                continue;
            }
            let hits = opts
                .hits
                .clone()
                .unwrap_or_else(|| default_hits(point));
            for hit in hits {
                let image = opts
                    .image_dir
                    .join(format!("{}-{}-h{}.img", scheme.name(), point.name(), hit));
                let spec = ChildSpec {
                    scheme,
                    benchmark: opts.benchmark.clone(),
                    instructions: opts.instructions,
                    seed: opts.seed,
                    image: Some(image.clone()),
                    plan: Some(FailpointPlan { point, hit }),
                    recover: false,
                };
                let mut outcome =
                    cell_outcome(watch_child(exe, &spec, COMPLETED_MARKER, opts.watchdog));
                // Judge the surviving image for both kill and
                // run-to-completion outcomes.
                match &mut outcome {
                    CellOutcome::Killed { judgement, .. }
                    | CellOutcome::NotReached { judgement } => match judge(&golden, &image) {
                        Ok(j) => *judgement = j,
                        Err(e) => outcome = CellOutcome::Error(e),
                    },
                    _ => {}
                }
                let key = format!("{}/{}/h{}", scheme.name(), point.name(), hit);
                let verdict = match &outcome {
                    CellOutcome::Killed { .. } => RunVerdict::KilledByHarness {
                        failpoint: point.name(),
                    },
                    CellOutcome::NotReached { .. } => RunVerdict::Ok,
                    CellOutcome::TimedOut => RunVerdict::TimedOut { attempts: 1 },
                    CellOutcome::Error(_) => RunVerdict::Rejected,
                };
                let failures = match &outcome {
                    CellOutcome::Error(e) => vec![e.clone()],
                    CellOutcome::TimedOut => vec![format!("{key}: watchdog expired")],
                    _ => Vec::new(),
                };
                degradation.record(
                    &key,
                    RunLog {
                        verdict,
                        failures,
                        quarantine: None,
                        error: None,
                    },
                );
                // Healthy cells clean up after themselves; failed
                // cells keep the image on disk for inspection (the
                // next run's GC removes it).
                let keep = match &outcome {
                    CellOutcome::Killed { judgement, .. } => !judgement.healthy(),
                    CellOutcome::NotReached { judgement } => !judgement.healthy(),
                    _ => true,
                };
                if !keep {
                    let _ = std::fs::remove_file(&image);
                }
                cells.push(CellReport {
                    scheme,
                    point,
                    hit,
                    outcome,
                });
            }
        }
    }
    let pass = gate(&opts.schemes, &cells);
    Ok(HarnessReport {
        cells,
        degradation,
        gc,
        pass,
    })
}

/// The PASS gate:
///
/// * every *correct* scheme: each applicable failpoint produced at
///   least one real kill, and every killed or completed cell is
///   [`Judgement::healthy`] — Clean or Repaired, counters matching;
/// * `triad_nvm` (when swept): every kill *outside* the relaxed flush
///   window is healthy (the strict slice tears atomically), at least
///   one `between-levels` kill is unhealthy (the relaxed window
///   genuinely loses data), and every loss is *detected* — never
///   silent garbage, never an undetected stale rollback;
/// * the `unordered` strawman (when swept): at least one kill is
///   *unhealthy* (Tables I/II — torn tuples lose data), but none may
///   be silent garbage ([`FaultVerdict::UndetectedCorruption`]) —
///   the MAC + BMT must still catch every non-authentic state;
/// * no cell timed out or errored.
pub fn gate(schemes: &[UpdateScheme], cells: &[CellReport]) -> bool {
    let correct = UpdateScheme::correct();
    for &scheme in schemes {
        let mine: Vec<&CellReport> = cells.iter().filter(|c| c.scheme == scheme).collect();
        if mine.iter().any(|c| {
            matches!(c.outcome, CellOutcome::TimedOut | CellOutcome::Error(_))
        }) {
            return false;
        }
        if correct.contains(&scheme) {
            for &point in Failpoint::RUN.iter().filter(|&&p| applicable(scheme, p)) {
                let at_point: Vec<&&CellReport> =
                    mine.iter().filter(|c| c.point == point).collect();
                if at_point.is_empty() {
                    continue; // point filtered out of this sweep
                }
                if !at_point
                    .iter()
                    .any(|c| matches!(c.outcome, CellOutcome::Killed { .. }))
                {
                    return false;
                }
                let all_healthy = at_point.iter().all(|c| match &c.outcome {
                    CellOutcome::Killed { judgement, .. }
                    | CellOutcome::NotReached { judgement } => judgement.healthy(),
                    _ => false,
                });
                if !all_healthy {
                    return false;
                }
            }
        } else if scheme == UpdateScheme::TriadNvm {
            // The relaxed-tree class: strict below the floor, lossy
            // (but detectably so) only inside the lazy flush window.
            let mut lossy_in_window = false;
            for c in &mine {
                let judgement = match &c.outcome {
                    CellOutcome::Killed { judgement, .. }
                    | CellOutcome::NotReached { judgement } => judgement,
                    _ => return false,
                };
                if matches!(
                    judgement.verdict,
                    FaultVerdict::UndetectedCorruption | FaultVerdict::StaleRollback
                ) {
                    return false;
                }
                if !judgement.healthy() {
                    if c.point != Failpoint::BetweenLevels {
                        return false;
                    }
                    lossy_in_window = true;
                }
            }
            if mine.iter().any(|c| c.point == Failpoint::BetweenLevels) && !lossy_in_window {
                return false;
            }
        } else {
            let mut lossy = false;
            for c in &mine {
                if let CellOutcome::Killed { judgement, .. } = &c.outcome {
                    if judgement.verdict == FaultVerdict::UndetectedCorruption {
                        return false;
                    }
                    if !judgement.healthy() {
                        lossy = true;
                    }
                }
            }
            if !lossy {
                return false;
            }
        }
    }
    true
}

// ---------------------------------------------------------------------------
// Double-kill sweep: SIGKILL the run, then SIGKILL the recovery
// ---------------------------------------------------------------------------

/// One judged double-kill cell: a run killed at `(run_point,
/// run_hit)`, a recovery of that image killed at `(recovery_point,
/// recovery_hit)`, and a third process that recovered to completion.
#[derive(Debug, Clone, PartialEq)]
pub struct DoubleKillCell {
    /// Scheme under test.
    pub scheme: UpdateScheme,
    /// The run-path failpoint the first kill was armed at.
    pub run_point: Failpoint,
    /// Its zero-based hit index.
    pub run_hit: u64,
    /// The recovery failpoint the second kill was armed at.
    pub recovery_point: Failpoint,
    /// Its zero-based hit index.
    pub recovery_hit: u64,
    /// How the cell ended.
    pub outcome: DoubleKillOutcome,
}

/// The outcome of one double-kill cell.
#[derive(Debug, Clone, PartialEq)]
pub enum DoubleKillOutcome {
    /// All three processes ran; the final image was judged.
    Done {
        /// Persist index the first kill landed in.
        first_persist: u64,
        /// Whether the armed recovery failpoint actually fired (the
        /// second SIGKILL landed while recovery was parked there).
        second_fired: bool,
        /// Recovery was never *less* recovered than before the second
        /// kill: the set of fully durable persist ids survived both
        /// the killed recovery and the completing one, and the final
        /// image is canonical-recovered.
        monotone: bool,
        /// The third process's recovery verdict, re-derived by the
        /// parent from the final image.
        final_verdict: FaultVerdict,
        /// Field-exact match of the final counters against the golden
        /// program-order fold of the durable cut.
        counters_match: bool,
        /// Complete persists in the final image.
        complete: usize,
        /// Addresses the final image quarantines.
        quarantined: usize,
    },
    /// A child process timed out.
    TimedOut,
    /// Spawn, replay or judge failure.
    Error(String),
}

/// The judged double-kill matrix plus the aggregate verdict.
#[derive(Debug)]
pub struct DoubleKillReport {
    /// Every judged cell, in sweep order.
    pub cells: Vec<DoubleKillCell>,
    /// Stale files / quarantine entries removed at startup.
    pub gc: (usize, usize),
    /// Whether [`double_kill_gate`] passed.
    pub pass: bool,
}

/// The run-path plan the first kill of a double-kill cell arms: the
/// first applicable point of the sweep, at its deepest default hit
/// (or the caller's override). Deep hits maximize address reuse, so
/// the `unordered` strawman's torn tuple demonstrably quarantines.
fn double_kill_run_plan(scheme: UpdateScheme, opts: &HarnessOptions) -> Option<FailpointPlan> {
    let point = opts
        .points
        .iter()
        .copied()
        .find(|&p| applicable(scheme, p))?;
    let hit = match &opts.hits {
        Some(hits) => *hits.last()?,
        None => *default_hits(point).last()?,
    };
    Some(FailpointPlan { point, hit })
}

/// Runs the nested-crash sweep: for each scheme, kill a child at a
/// run failpoint, then for each recovery failpoint re-exec the image
/// into durable recovery, SIGKILL it parked there, and require a
/// third process to finish the recovery. The parent independently
/// replays the final image and judges it against the golden cut.
pub fn run_double_kill(opts: &HarnessOptions, exe: &Path) -> Result<DoubleKillReport, String> {
    let gc = gc_stale(&opts.image_dir, &opts.cache_dir);
    std::fs::create_dir_all(&opts.image_dir)
        .map_err(|e| format!("cannot create {}: {e}", opts.image_dir.display()))?;

    let mut cells = Vec::new();
    for &scheme in &opts.schemes {
        let golden = golden_run(scheme, &opts.benchmark, opts.instructions, opts.seed)?;
        let Some(run_plan) = double_kill_run_plan(scheme, opts) else {
            continue;
        };
        let base = opts.image_dir.join(format!(
            "dk-{}-{}-h{}.img",
            scheme.name(),
            run_plan.point.name(),
            run_plan.hit
        ));
        let spec1 = ChildSpec {
            scheme,
            benchmark: opts.benchmark.clone(),
            instructions: opts.instructions,
            seed: opts.seed,
            image: Some(base.clone()),
            plan: Some(run_plan),
            recover: false,
        };
        let first = cell_outcome(watch_child(exe, &spec1, COMPLETED_MARKER, opts.watchdog));
        let first_persist = match &first {
            CellOutcome::Killed { persist, .. } => *persist,
            other => {
                for &rp in Failpoint::RECOVERY.iter() {
                    cells.push(DoubleKillCell {
                        scheme,
                        run_point: run_plan.point,
                        run_hit: run_plan.hit,
                        recovery_point: rp,
                        recovery_hit: 0,
                        outcome: DoubleKillOutcome::Error(format!(
                            "first kill did not park: {other:?}"
                        )),
                    });
                }
                continue;
            }
        };
        let killed_bytes = std::fs::read(&base)
            .map_err(|e| format!("cannot read killed image {}: {e}", base.display()))?;
        let base_ids = replay_image(&base, golden.config.key)
            .map_err(|e| format!("replay of killed image failed: {e}"))?
            .complete_ids;

        let mut scheme_ok = true;
        for &rp in Failpoint::RECOVERY.iter() {
            for &rh in &default_hits(rp) {
                let cell_img = opts.image_dir.join(format!(
                    "dk-{}-{}-h{}-{}-h{}.img",
                    scheme.name(),
                    run_plan.point.name(),
                    run_plan.hit,
                    rp.name(),
                    rh
                ));
                let outcome = double_kill_cell(
                    exe,
                    opts,
                    &golden,
                    scheme,
                    first_persist,
                    &killed_bytes,
                    &base_ids,
                    &cell_img,
                    rp,
                    rh,
                );
                let healthy = matches!(
                    &outcome,
                    DoubleKillOutcome::Done {
                        second_fired: true,
                        monotone: true,
                        ..
                    }
                );
                if healthy {
                    let _ = std::fs::remove_file(&cell_img);
                } else {
                    scheme_ok = false;
                }
                cells.push(DoubleKillCell {
                    scheme,
                    run_point: run_plan.point,
                    run_hit: run_plan.hit,
                    recovery_point: rp,
                    recovery_hit: rh,
                    outcome,
                });
            }
        }
        if scheme_ok {
            let _ = std::fs::remove_file(&base);
        }
    }
    let pass = double_kill_gate(&opts.schemes, &cells);
    Ok(DoubleKillReport { cells, gc, pass })
}

/// One recovery cell of the double-kill protocol: seed the image with
/// the first kill's bytes, kill a recovery parked at `(rp, rh)`, let
/// a third process finish, and judge the final image.
#[allow(clippy::too_many_arguments)]
fn double_kill_cell(
    exe: &Path,
    opts: &HarnessOptions,
    golden: &Golden,
    scheme: UpdateScheme,
    first_persist: u64,
    killed_bytes: &[u8],
    base_ids: &BTreeSet<u64>,
    cell_img: &Path,
    rp: Failpoint,
    rh: u64,
) -> DoubleKillOutcome {
    if let Err(e) = std::fs::write(cell_img, killed_bytes) {
        return DoubleKillOutcome::Error(format!("cannot seed cell image: {e}"));
    }
    let spec2 = ChildSpec {
        scheme,
        benchmark: opts.benchmark.clone(),
        instructions: opts.instructions,
        seed: opts.seed,
        image: Some(cell_img.to_path_buf()),
        plan: Some(FailpointPlan { point: rp, hit: rh }),
        recover: true,
    };
    let second_fired = match watch_child(exe, &spec2, RECOVERED_MARKER, opts.watchdog) {
        ChildEnd::Parked(_) => true,
        ChildEnd::Done => false,
        ChildEnd::TimedOut => return DoubleKillOutcome::TimedOut,
        ChildEnd::Error(e) => {
            return DoubleKillOutcome::Error(format!("killed recovery: {e}"))
        }
    };
    // Monotonicity, checkpoint 1: whatever instant the second kill
    // landed at, the durable cut never shrank.
    let mid_ids = match replay_image(cell_img, golden.config.key) {
        Ok(r) => r.complete_ids,
        Err(e) => return DoubleKillOutcome::Error(format!("replay after second kill: {e}")),
    };
    let mut monotone = mid_ids == *base_ids;

    // Third process: a fresh recovery with no failpoint must complete.
    let spec3 = ChildSpec {
        plan: None,
        ..spec2
    };
    match watch_child(exe, &spec3, RECOVERED_MARKER, opts.watchdog) {
        ChildEnd::Done => {}
        ChildEnd::Parked(_) => {
            return DoubleKillOutcome::Error("unarmed recovery parked".to_string())
        }
        ChildEnd::TimedOut => return DoubleKillOutcome::TimedOut,
        ChildEnd::Error(e) => {
            return DoubleKillOutcome::Error(format!("final recovery: {e}"))
        }
    }

    // Parent-side judgement of the final image.
    let final_replay = match replay_image(cell_img, golden.config.key) {
        Ok(r) => r,
        Err(e) => return DoubleKillOutcome::Error(format!("replay of final image: {e}")),
    };
    monotone = monotone && final_replay.complete_ids == *base_ids && final_replay.recovered;
    let expected =
        ObserverExpectation::from_complete_ids(&golden.records, &final_replay.complete_ids);
    let counters = cut_counters(golden, &final_replay.complete_ids);
    let outcome = RecoveryManager::for_config(&golden.config).recover(
        &final_replay.image,
        &golden.records,
        &expected,
    );
    DoubleKillOutcome::Done {
        first_persist,
        second_fired,
        monotone,
        final_verdict: outcome.verdict(),
        counters_match: final_replay.image.counters == counters,
        complete: final_replay.complete_ids.len(),
        quarantined: final_replay.quarantined.len(),
    }
}

/// The double-kill PASS gate:
///
/// * every *correct* scheme: each recovery failpoint produced a real
///   second kill, recovery stayed monotone, and the final image
///   judges Clean with field-exact counters;
/// * `triad_nvm` (when swept): a first kill outside the relaxed flush
///   window tears its strict slice atomically, so the cell must judge
///   Clean exactly like the correct class; a `between-levels` first
///   kill may instead detect the stranded pair (Clean or
///   DetectedLoss);
/// * the `unordered` strawman (when swept): recovery stays monotone
///   and detects its loss — every cell's final verdict is
///   DetectedLoss, never UndetectedCorruption;
/// * no cell timed out or errored.
pub fn double_kill_gate(schemes: &[UpdateScheme], cells: &[DoubleKillCell]) -> bool {
    let correct = UpdateScheme::correct();
    for &scheme in schemes {
        let mine: Vec<&DoubleKillCell> = cells.iter().filter(|c| c.scheme == scheme).collect();
        if mine.is_empty() {
            return false;
        }
        for &point in Failpoint::RECOVERY.iter() {
            if !mine.iter().any(|c| c.recovery_point == point) {
                return false;
            }
        }
        for cell in &mine {
            let DoubleKillOutcome::Done {
                second_fired,
                monotone,
                final_verdict,
                counters_match,
                ..
            } = &cell.outcome
            else {
                return false;
            };
            if !second_fired || !monotone {
                return false;
            }
            let ok = if correct.contains(&scheme) {
                *final_verdict == FaultVerdict::Clean && *counters_match
            } else if scheme == UpdateScheme::TriadNvm {
                match cell.run_point {
                    Failpoint::BetweenLevels => matches!(
                        final_verdict,
                        FaultVerdict::Clean | FaultVerdict::DetectedLoss
                    ),
                    _ => *final_verdict == FaultVerdict::Clean && *counters_match,
                }
            } else {
                *final_verdict == FaultVerdict::DetectedLoss
            };
            if !ok {
                return false;
            }
        }
    }
    true
}

/// Renders the double-kill verdict matrix.
pub fn render_double_kill(report: &DoubleKillReport) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "gc: removed {} stale file(s), {} quarantined cache entr(ies)\n\n",
        report.gc.0, report.gc.1
    ));
    out.push_str(&format!(
        "{:<12} {:<12} {:<22} {:>5} {:<15} {:>6} {:>9} {:>5} {:>5}\n",
        "scheme", "run-kill", "recovery-kill", "hit", "verdict", "fired", "monotone", "compl", "quar"
    ));
    for cell in &report.cells {
        let (verdict, fired, monotone, complete, quarantined) = match &cell.outcome {
            DoubleKillOutcome::Done {
                second_fired,
                monotone,
                final_verdict,
                counters_match,
                complete,
                quarantined,
                ..
            } => (
                format!(
                    "{}{}",
                    final_verdict.name(),
                    if *counters_match { "" } else { "!ctr" }
                ),
                second_fired.to_string(),
                monotone.to_string(),
                complete.to_string(),
                quarantined.to_string(),
            ),
            DoubleKillOutcome::TimedOut => (
                "timed-out".to_string(),
                String::new(),
                String::new(),
                String::new(),
                String::new(),
            ),
            DoubleKillOutcome::Error(e) => (
                format!("error: {e}"),
                String::new(),
                String::new(),
                String::new(),
                String::new(),
            ),
        };
        out.push_str(&format!(
            "{:<12} {:<12} {:<22} {:>5} {:<15} {:>6} {:>9} {:>5} {:>5}\n",
            cell.scheme.name(),
            format!("{}/h{}", cell.run_point.name(), cell.run_hit),
            cell.recovery_point.name(),
            cell.recovery_hit,
            verdict,
            fired,
            monotone,
            complete,
            quarantined
        ));
    }
    out
}

/// Renders the verdict matrix in the `fault_sweep` house style.
pub fn render(report: &HarnessReport) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "gc: removed {} stale image(s), {} quarantined cache entr(ies)\n\n",
        report.gc.0, report.gc.1
    ));
    out.push_str(&format!(
        "{:<12} {:<16} {:>5} {:>9} {:<15} {:>9} {:>9}\n",
        "scheme", "failpoint", "hit", "persist", "verdict", "complete", "partial"
    ));
    for cell in &report.cells {
        let (persist, verdict, complete, partial) = match &cell.outcome {
            CellOutcome::Killed { persist, judgement } => (
                persist.to_string(),
                format!(
                    "{}{}",
                    judgement.verdict.name(),
                    if judgement.counters_match { "" } else { "!ctr" }
                ),
                judgement.complete.to_string(),
                judgement.partial.to_string(),
            ),
            CellOutcome::NotReached { judgement } => (
                "-".to_string(),
                format!("not-reached/{}", judgement.verdict.name()),
                judgement.complete.to_string(),
                judgement.partial.to_string(),
            ),
            CellOutcome::TimedOut => ("-".to_string(), "timed-out".to_string(), String::new(), String::new()),
            CellOutcome::Error(e) => ("-".to_string(), format!("error: {e}"), String::new(), String::new()),
        };
        out.push_str(&format!(
            "{:<12} {:<16} {:>5} {:>9} {:<15} {:>9} {:>9}\n",
            cell.scheme.name(),
            cell.point.name(),
            cell.hit,
            persist,
            verdict,
            complete,
            partial
        ));
    }
    out.push('\n');
    out.push_str(&report.degradation.render());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec_with(image: Option<PathBuf>, plan: Option<FailpointPlan>) -> ChildSpec {
        ChildSpec {
            scheme: UpdateScheme::Sp,
            benchmark: "gcc".to_string(),
            instructions: 4_000,
            seed: 7,
            image,
            plan,
            recover: false,
        }
    }

    #[test]
    fn child_args_round_trip() {
        for spec in [
            spec_with(None, None),
            spec_with(Some(PathBuf::from("/tmp/x.img")), None),
            spec_with(
                Some(PathBuf::from("/tmp/x.img")),
                Some(FailpointPlan {
                    point: Failpoint::PostRootSeal,
                    hit: 33,
                }),
            ),
        ] {
            let args = spec.to_args();
            assert_eq!(ChildSpec::from_args(&args), Ok(spec));
        }
    }

    #[test]
    fn child_args_reject_malformed() {
        let bad = |args: &[&str]| {
            let owned: Vec<String> = args.iter().map(|s| s.to_string()).collect();
            ChildSpec::from_args(&owned).unwrap_err()
        };
        assert!(bad(&["--scheme"]).contains("missing its value"));
        assert!(bad(&["--scheme", "sp"]).contains("missing --benchmark"));
        assert!(bad(&["--wat", "1"]).contains("unknown child flag"));
        assert!(bad(&[
            "--scheme",
            "sp",
            "--benchmark",
            "gcc",
            "--instructions",
            "10",
            "--seed",
            "7",
            "--failpoint",
            "mid-tuple"
        ])
        .contains("must be given together"));
    }

    #[test]
    fn park_marker_parses() {
        assert_eq!(
            parse_park_persist("crash-harness: parked point=mid-tuple hit=40 persist=41"),
            Some(41)
        );
        assert_eq!(parse_park_persist("crash-harness: parked"), None);
    }

    #[test]
    fn default_hits_cover_every_point() {
        for &point in Failpoint::ALL.iter() {
            assert!(!default_hits(point).is_empty());
        }
    }

    #[test]
    fn epoch_points_only_apply_to_epoch_schemes() {
        assert!(!applicable(UpdateScheme::Sp, Failpoint::MidEpochFlush));
        assert!(applicable(UpdateScheme::O3, Failpoint::MidEpochFlush));
        assert!(applicable(UpdateScheme::Sp, Failpoint::MidTuple));
    }

    #[test]
    fn gc_removes_images_scratches_markers_and_quarantine_entries() {
        let base = std::env::temp_dir().join(format!("plp-crash-gc-{}", std::process::id()));
        let images = base.join("images");
        let cache_dir = base.join("cache");
        let qdir = cache::quarantine_dir(&cache_dir);
        std::fs::create_dir_all(&images).unwrap();
        std::fs::create_dir_all(&qdir).unwrap();
        std::fs::write(images.join("stale-a.img"), b"x").unwrap();
        std::fs::write(images.join("stale-b.img"), b"y").unwrap();
        // A recovery scratch (kill landed mid-writeback) and an
        // orphaned park marker (parent died before its child): both
        // are startup debris and must be swept. The marker names a
        // long-dead pid, so the sweep removes the file without
        // signalling anyone.
        std::fs::write(images.join("stale-b.img.rec"), b"r").unwrap();
        std::fs::write(images.join("stale-b.img.pid"), b"999999999").unwrap();
        std::fs::write(images.join("keep.txt"), b"z").unwrap();
        std::fs::write(qdir.join("entry.json"), b"{}").unwrap();
        assert_eq!(gc_stale(&images, &cache_dir), (4, 1));
        assert!(images.join("keep.txt").exists());
        assert!(!images.join("stale-a.img").exists());
        assert!(!images.join("stale-b.img.rec").exists());
        assert!(!images.join("stale-b.img.pid").exists());
        assert!(!qdir.join("entry.json").exists());
        // A second pass finds nothing; missing dirs are fine too.
        assert_eq!(gc_stale(&images, &cache_dir), (0, 0));
        assert_eq!(gc_stale(&base.join("nope"), &base.join("nada")), (0, 0));
        std::fs::remove_dir_all(&base).unwrap();
    }

    /// `reap_orphan` must never signal a process that is not a parked
    /// harness child, whatever a stale marker claims.
    #[test]
    fn reap_orphan_refuses_foreign_and_garbage_pids() {
        let base = std::env::temp_dir().join(format!("plp-crash-reap-{}", std::process::id()));
        std::fs::create_dir_all(&base).unwrap();
        let marker = base.join("x.img.pid");
        // Garbage contents, init, and our own (live, non-child) pid.
        for contents in ["not-a-pid", "-4", "1", &std::process::id().to_string()] {
            std::fs::write(&marker, contents).unwrap();
            assert!(!reap_orphan(&marker), "reaped with marker {contents:?}");
        }
        std::fs::remove_dir_all(&base).unwrap();
    }

    #[test]
    fn gate_requires_kills_and_health_for_correct_schemes() {
        let healthy = Judgement {
            verdict: FaultVerdict::Clean,
            counters_match: true,
            complete: 10,
            partial: 0,
        };
        let cell = |scheme, point, outcome| CellReport {
            scheme,
            point,
            hit: 0,
            outcome,
        };
        // A correct scheme with one healthy kill per point passes.
        let cells: Vec<CellReport> = [
            Failpoint::MidTuple,
            Failpoint::BetweenLevels,
            Failpoint::PreRootSeal,
            Failpoint::PostRootSeal,
        ]
        .into_iter()
        .map(|p| {
            cell(
                UpdateScheme::Sp,
                p,
                CellOutcome::Killed {
                    persist: 10,
                    judgement: healthy,
                },
            )
        })
        .collect();
        assert!(gate(&[UpdateScheme::Sp], &cells));
        // An unhealthy kill on a correct scheme fails the gate.
        let mut bad = cells.clone();
        bad[0] = cell(
            UpdateScheme::Sp,
            Failpoint::MidTuple,
            CellOutcome::Killed {
                persist: 10,
                judgement: Judgement {
                    verdict: FaultVerdict::DetectedLoss,
                    ..healthy
                },
            },
        );
        assert!(!gate(&[UpdateScheme::Sp], &bad));
        // Only not-reached cells (no kill landed) also fail.
        let unreached = vec![cell(
            UpdateScheme::Sp,
            Failpoint::MidTuple,
            CellOutcome::NotReached { judgement: healthy },
        )];
        assert!(!gate(&[UpdateScheme::Sp], &unreached));
        // Unordered must demonstrate loss...
        let lossy = vec![cell(
            UpdateScheme::Unordered,
            Failpoint::MidTuple,
            CellOutcome::Killed {
                persist: 3,
                judgement: Judgement {
                    verdict: FaultVerdict::DetectedLoss,
                    counters_match: false,
                    complete: 2,
                    partial: 1,
                },
            },
        )];
        assert!(gate(&[UpdateScheme::Unordered], &lossy));
        // ...and an all-clean unordered sweep fails the gate.
        let too_clean = vec![cell(
            UpdateScheme::Unordered,
            Failpoint::MidTuple,
            CellOutcome::Killed {
                persist: 3,
                judgement: healthy,
            },
        )];
        assert!(!gate(&[UpdateScheme::Unordered], &too_clean));
        // Silent garbage anywhere fails, even on the strawman.
        let silent = vec![cell(
            UpdateScheme::Unordered,
            Failpoint::MidTuple,
            CellOutcome::Killed {
                persist: 3,
                judgement: Judgement {
                    verdict: FaultVerdict::UndetectedCorruption,
                    ..healthy
                },
            },
        )];
        assert!(!gate(&[UpdateScheme::Unordered], &silent));
        // Timeouts fail regardless of scheme.
        let stuck = vec![cell(
            UpdateScheme::Unordered,
            Failpoint::MidTuple,
            CellOutcome::TimedOut,
        )];
        assert!(!gate(&[UpdateScheme::Unordered], &stuck));
    }

    /// The relaxed-tree class: `triad_nvm` must be healthy wherever
    /// its strict slice holds, demonstrably (but detectably) lossy
    /// inside the `between-levels` flush window.
    #[test]
    fn gate_holds_triad_to_the_relaxed_window_contract() {
        let healthy = Judgement {
            verdict: FaultVerdict::Clean,
            counters_match: true,
            complete: 10,
            partial: 0,
        };
        let detected = Judgement {
            verdict: FaultVerdict::DetectedLoss,
            counters_match: false,
            complete: 9,
            partial: 1,
        };
        let cell = |point, judgement| CellReport {
            scheme: UpdateScheme::TriadNvm,
            point,
            hit: 0,
            outcome: CellOutcome::Killed {
                persist: 10,
                judgement,
            },
        };
        // Healthy at strict points, detected loss in the window: pass.
        let good = vec![
            cell(Failpoint::MidTuple, healthy),
            cell(Failpoint::PostRootSeal, healthy),
            cell(Failpoint::BetweenLevels, detected),
        ];
        assert!(gate(&[UpdateScheme::TriadNvm], &good));
        // The window may also be caught at a strict hit (healthy), but
        // an all-healthy window means the relaxation never showed: fail.
        let too_clean = vec![
            cell(Failpoint::MidTuple, healthy),
            cell(Failpoint::BetweenLevels, healthy),
        ];
        assert!(!gate(&[UpdateScheme::TriadNvm], &too_clean));
        // Loss outside the window breaks the strict slice: fail.
        let strict_loss = vec![
            cell(Failpoint::MidTuple, detected),
            cell(Failpoint::BetweenLevels, detected),
        ];
        assert!(!gate(&[UpdateScheme::TriadNvm], &strict_loss));
        // Silent garbage fails even inside the window.
        let silent = vec![cell(
            Failpoint::BetweenLevels,
            Judgement {
                verdict: FaultVerdict::UndetectedCorruption,
                ..detected
            },
        )];
        assert!(!gate(&[UpdateScheme::TriadNvm], &silent));
        // A window-less sweep (mid-tuple only) passes on health alone.
        let no_window = vec![cell(Failpoint::MidTuple, healthy)];
        assert!(gate(&[UpdateScheme::TriadNvm], &no_window));
    }

    /// Double-kill: `triad_nvm`'s mid-tuple first kill tears the
    /// strict slice atomically and must land Clean like the correct
    /// class; only a between-levels first kill may detect loss.
    #[test]
    fn double_kill_gate_triad_expects_clean_outside_the_window() {
        let done = |verdict, counters_match| DoubleKillOutcome::Done {
            first_persist: 5,
            second_fired: true,
            monotone: true,
            final_verdict: verdict,
            counters_match,
            complete: 5,
            quarantined: 0,
        };
        let cell = |run_point, outcome| DoubleKillCell {
            scheme: UpdateScheme::TriadNvm,
            run_point,
            run_hit: 40,
            recovery_point: Failpoint::RecoveryPreRepair,
            recovery_hit: 0,
            outcome,
        };
        let all_points = |outcome: DoubleKillOutcome, run_point| {
            Failpoint::RECOVERY
                .iter()
                .map(|&rp| DoubleKillCell {
                    recovery_point: rp,
                    ..cell(run_point, outcome.clone())
                })
                .collect::<Vec<_>>()
        };
        let schemes = [UpdateScheme::TriadNvm];
        // Clean at mid-tuple: pass.
        let clean = all_points(done(FaultVerdict::Clean, true), Failpoint::MidTuple);
        assert!(double_kill_gate(&schemes, &clean));
        // DetectedLoss at mid-tuple: the strict slice tore — fail.
        let torn = all_points(done(FaultVerdict::DetectedLoss, false), Failpoint::MidTuple);
        assert!(!double_kill_gate(&schemes, &torn));
        // DetectedLoss at between-levels: the relaxed window — pass.
        let window = all_points(
            done(FaultVerdict::DetectedLoss, false),
            Failpoint::BetweenLevels,
        );
        assert!(double_kill_gate(&schemes, &window));
        // Garbage never passes.
        let garbage = all_points(
            done(FaultVerdict::UndetectedCorruption, false),
            Failpoint::BetweenLevels,
        );
        assert!(!double_kill_gate(&schemes, &garbage));
    }
}
