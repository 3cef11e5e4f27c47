//! The run matrix: deduplicated, parallel, cached execution of
//! `(benchmark, config, settings)` simulation requests.
//!
//! Every experiment declares the runs it needs as [`RunRequest`]s; the
//! matrix executes each *distinct* request exactly once — however many
//! figures ask for it — on a `std::thread::scope` worker pool, sharing
//! generated traces through a [`TraceStore`] and completed reports
//! through the on-disk run cache. Results are keyed, not ordered, so
//! rendered output is identical no matter how the pool schedules.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::time::{Duration, Instant};

use plp_core::{RunReport, ShardTopology, ShardedSetup, SimSetup, SystemConfig};
use plp_events::stats::Throughput;
use plp_trace::{multi, spec, Trace, TraceStore};

use crate::cache;
use crate::chaos::{self, ChaosPlan};
use crate::isolate;
use crate::supervisor::DegradationReport;
use crate::supervisor::{self, RunError, RunLog, RunVerdict, SupervisedRun, SupervisorOptions};
use crate::RunSettings;

/// One simulation the harness wants: a benchmark trace under a
/// configuration, at a given length and seed.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRequest {
    /// Benchmark name (one of [`spec::all_benchmarks`]).
    pub bench: String,
    /// Full system configuration.
    pub config: SystemConfig,
    /// Instructions to simulate.
    pub instructions: u64,
    /// Trace-generation seed.
    pub seed: u64,
    /// Stream/shard topology. The default unit topology is the
    /// classic unsharded simulator and leaves the cache key untouched.
    pub topology: ShardTopology,
}

impl RunRequest {
    /// A request for `bench` under `config` at `settings`, on the
    /// unsharded unit topology.
    pub fn new(bench: &str, config: SystemConfig, settings: RunSettings) -> Self {
        RunRequest {
            bench: bench.to_string(),
            config,
            instructions: settings.instructions,
            seed: settings.seed,
            topology: ShardTopology::unit(),
        }
    }

    /// The same request fanned out over `topology`.
    pub fn with_topology(mut self, topology: ShardTopology) -> Self {
        self.topology = topology;
        self
    }

    /// The canonical identity of this request: every field that can
    /// change the simulation's outcome, spelled out. Two requests with
    /// equal keys produce identical [`RunReport`]s (the simulator is
    /// deterministic), so the key doubles as the dedup key and the
    /// content address of the run cache. Unit-topology requests keep
    /// the pre-sharding key format, so existing caches carry over.
    pub fn key(&self) -> String {
        let mut key = format!(
            "{}|bench={}|instr={}|seed={}|{:?}",
            cache::CACHE_FORMAT,
            self.bench,
            self.instructions,
            self.seed,
            self.config
        );
        if !self.topology.is_unit() {
            key.push_str(&format!(
                "|streams={}|shards={}",
                self.topology.streams(),
                self.topology.shards()
            ));
        }
        key
    }
}

/// Keyed results of an executed matrix.
#[derive(Debug, Default)]
pub struct ResultSet {
    reports: HashMap<String, RunReport>,
}

impl ResultSet {
    /// The report for `request`.
    ///
    /// # Panics
    ///
    /// Panics if the matrix never executed this request — an
    /// experiment spec whose `render` asks for a run its `requests`
    /// didn't declare.
    #[expect(
        clippy::panic,
        reason = "documented panic contract for a spec authoring bug"
    )]
    pub fn get(&self, request: &RunRequest) -> &RunReport {
        self.reports.get(&request.key()).unwrap_or_else(|| {
            panic!(
                "run matrix has no result for {}/{} (spec render/requests mismatch)",
                request.bench, request.config.scheme
            )
        })
    }

    /// Whether the matrix produced a report for `request`. Under
    /// degraded execution some requests may be missing — callers that
    /// must not panic check here before [`ResultSet::get`].
    pub fn contains(&self, request: &RunRequest) -> bool {
        self.reports.contains_key(&request.key())
    }

    /// Convenience lookup by parts (see [`RunRequest::new`]).
    pub fn report(&self, bench: &str, config: &SystemConfig, settings: RunSettings) -> &RunReport {
        self.get(&RunRequest::new(bench, config.clone(), settings))
    }

    /// Inserts (or replaces) the report held for `request`. Lets tests
    /// and tools re-key reports across configurations — e.g. the
    /// sanitizer determinism pin, which files sanitizer-off reports
    /// under sanitizer-on keys before rendering.
    pub fn insert(&mut self, request: &RunRequest, report: RunReport) {
        self.reports.insert(request.key(), report);
    }

    /// Iterates over `(key, report)` pairs in arbitrary order.
    pub fn iter(&self) -> impl Iterator<Item = (&String, &RunReport)> {
        self.reports.iter()
    }

    /// Number of distinct runs held.
    pub fn len(&self) -> usize {
        self.reports.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.reports.is_empty()
    }
}

/// How to execute a matrix.
#[derive(Debug, Clone)]
pub struct MatrixOptions {
    /// Worker threads (1 = run serially on the calling thread).
    pub threads: usize,
    /// Run-cache directory; `None` disables the cache entirely.
    pub cache_dir: Option<PathBuf>,
}

impl MatrixOptions {
    /// Serial, uncached execution: what `all --serial --no-cache`
    /// does.
    pub fn serial() -> Self {
        MatrixOptions {
            threads: 1,
            cache_dir: None,
        }
    }
}

/// The default on-disk run-cache location.
pub fn default_cache_dir() -> PathBuf {
    PathBuf::from("results").join("cache")
}

/// What executing a matrix cost.
#[derive(Debug, Clone, Copy)]
pub struct MatrixStats {
    /// Requests submitted (duplicates included).
    pub requested: usize,
    /// Distinct runs after deduplication.
    pub unique: usize,
    /// Distinct runs served from the on-disk cache.
    pub cache_hits: usize,
    /// Elapsed wall-clock for the whole matrix.
    pub elapsed: Duration,
    /// Simulation throughput summed across workers (CPU time, not
    /// elapsed time).
    pub throughput: Throughput,
}

impl MatrixStats {
    /// A one-line human summary (the harness prints it to stderr so
    /// experiment stdout stays byte-identical across serial, parallel
    /// and cached executions).
    pub fn summary(&self) -> String {
        format!(
            "{} runs ({} unique, {} cached) in {:.2}s — {:.1} runs/s, {:.2}M sim-cycles/s",
            self.requested,
            self.unique,
            self.cache_hits,
            self.elapsed.as_secs_f64(),
            self.throughput.runs_per_sec(),
            self.throughput.cycles_per_sec() / 1e6,
        )
    }
}

/// Wall-clock of one request set executed twice: a cold pass and an
/// immediately following warm pass with the same options.
///
/// With a (fresh) cache directory the cold pass simulates everything
/// and the warm pass measures pure cache-replay overhead; with the
/// cache disabled both passes simulate, and `warm` measures the
/// process-warm steady state the hot-path benchmark pins.
#[derive(Debug, Clone, Copy)]
pub struct SweepTiming {
    /// Elapsed wall-clock of the first (cold) pass.
    pub cold: Duration,
    /// Elapsed wall-clock of the second (warm) pass.
    pub warm: Duration,
    /// Distinct runs per pass after deduplication.
    pub unique_runs: usize,
}

/// Times a cold-then-warm double execution of `requests` (see
/// [`SweepTiming`]). Reports are discarded; only the wall-clock and
/// dedup statistics survive, so this never perturbs rendered output.
pub fn time_sweep(requests: &[RunRequest], opts: &MatrixOptions) -> SweepTiming {
    let (_, cold) = execute(requests, opts);
    let (_, warm) = execute(requests, opts);
    SweepTiming {
        cold: cold.elapsed,
        warm: warm.elapsed,
        unique_runs: cold.unique,
    }
}

/// Executes every distinct request exactly once under default
/// supervision and returns the keyed results plus execution
/// statistics. Anything eventful (a retried, lost or quarantined run)
/// is rendered to stderr; callers that need the structured
/// [`DegradationReport`] use [`execute_supervised`] directly.
pub fn execute(requests: &[RunRequest], opts: &MatrixOptions) -> (ResultSet, MatrixStats) {
    let sup = SupervisorOptions::new(opts.clone());
    let (results, stats, degradation) = execute_supervised(requests, &sup);
    if !degradation.is_event_free() {
        eprint!("{}", degradation.render());
    }
    (results, stats)
}

/// Executes every distinct request exactly once under full
/// supervision: panic isolation, watchdog timeouts, seeded
/// retry/backoff, cache quarantine and (optionally) chaos injection.
///
/// Returns the keyed results — possibly *partial* under unrecoverable
/// faults — plus execution statistics and the structured
/// [`DegradationReport`]. Nothing here prints; stdout for surviving
/// runs renders byte-identically to a clean run.
///
/// Determinism: the result of each run depends only on its request
/// (the simulator is seeded and pure), distinct runs share nothing,
/// results are keyed by request identity, and the chaos plan and
/// backoff schedules are pure functions of their seeds — so thread
/// count, scheduling order and cache state cannot change any report
/// or the degradation verdicts, only the wall-clock. Workers claim
/// jobs off a shared atomic index; each writes its result into that
/// job's dedicated slot.
pub fn execute_supervised(
    requests: &[RunRequest],
    sup: &SupervisorOptions,
) -> (ResultSet, MatrixStats, DegradationReport) {
    let opts = &sup.matrix;
    #[expect(
        clippy::disallowed_methods,
        reason = "wall-clock feeds MatrixStats on stderr, never a simulation"
    )]
    let started = Instant::now();

    // Deduplicate, preserving first-seen order.
    let mut unique: Vec<&RunRequest> = Vec::new();
    let mut seen: HashMap<String, usize> = HashMap::new();
    for req in requests {
        seen.entry(req.key()).or_insert_with(|| {
            unique.push(req);
            unique.len() - 1
        });
    }
    let keys: Vec<String> = unique.iter().map(|r| r.key()).collect();

    // Plan and plant chaos before any worker starts, so the fault set
    // is independent of scheduling.
    let cache_enabled = opts.cache_dir.is_some();
    let plan: Option<ChaosPlan> = sup
        .chaos
        .map(|chaos_opts| ChaosPlan::generate(chaos_opts, &keys));
    let chaos_faults = match &plan {
        Some(plan) => {
            if let Some(dir) = opts.cache_dir.as_deref() {
                plan.plant(dir);
            }
            plan.descriptions(cache_enabled)
        }
        None => Vec::new(),
    };

    let traces = Arc::new(TraceStore::new());
    let slots: Vec<OnceLock<SupervisedRun>> = (0..unique.len()).map(|_| OnceLock::new()).collect();
    let logs: Vec<OnceLock<RunLog>> = (0..unique.len()).map(|_| OnceLock::new()).collect();
    let next = AtomicUsize::new(0);
    let throughput = Mutex::new(Throughput::new());
    let stall = sup.chaos_stall();

    let worker = || {
        let mut local = Throughput::new();
        loop {
            let idx = next.fetch_add(1, Ordering::Relaxed);
            let Some(req) = unique.get(idx) else { break };
            let key = &keys[idx];
            #[expect(
                clippy::disallowed_methods,
                reason = "wall-clock feeds throughput stats, never a simulation"
            )]
            let run_started = Instant::now();
            let faults = plan.as_ref().map_or(&[][..], |p| p.for_key(key));
            let (run, log) = supervisor::supervise(key, sup, faults, |fire| match &sup.isolation {
                // An isolated attempt re-execs the harness binary and
                // shares neither this process's traces nor its cache.
                Some(iso) => isolate::run_attempt(iso, key, fire, sup.watchdog, stall),
                None => {
                    let (req, traces, fire) = ((*req).clone(), Arc::clone(&traces), fire.to_vec());
                    let job = move || {
                        chaos::inject(&fire, stall);
                        run_request(&req, &traces)
                    };
                    supervisor::attempt_in_thread(job, sup.watchdog)
                }
            });
            if let Some(run) = run {
                local.record(run.report.total_cycles.get(), run_started.elapsed());
                let _ = slots[idx].set(run);
            }
            let _ = logs[idx].set(log);
        }
        throughput
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .merge(local);
    };

    if opts.threads <= 1 {
        worker();
    } else {
        std::thread::scope(|s| {
            for _ in 0..opts.threads.min(unique.len().max(1)) {
                s.spawn(worker);
            }
        });
    }

    let mut degradation = DegradationReport::new(chaos_faults);
    let mut reports = HashMap::with_capacity(unique.len());
    let mut cache_hits = 0;
    for ((key, slot), log) in keys.iter().zip(slots).zip(logs) {
        if let Some(run) = slot.into_inner() {
            cache_hits += usize::from(run.cache_hit);
            reports.insert(key.clone(), run.report);
        }
        let log = log.into_inner().unwrap_or_else(|| RunLog {
            verdict: RunVerdict::Rejected,
            failures: vec!["worker never reported a verdict".to_string()],
            quarantine: None,
            error: None,
        });
        degradation.record(key, log);
    }
    let stats = MatrixStats {
        requested: requests.len(),
        unique: seen.len(),
        cache_hits,
        elapsed: started.elapsed(),
        throughput: throughput
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner),
    };
    (ResultSet { reports }, stats, degradation)
}

/// Runs one request in the calling process with a private trace
/// store — the isolated child's (`--run-one`) whole job. No cache, no
/// supervision: the parent owns both.
///
/// # Errors
///
/// Returns a typed [`RunError`] for spec bugs — an unknown benchmark
/// name or an invalid configuration.
pub fn run_single(req: &RunRequest) -> Result<RunReport, RunError> {
    run_request(req, &TraceStore::new())
}

/// Runs one request, sharing its trace through `traces`.
///
/// # Errors
///
/// Returns a typed [`RunError`] for spec bugs — an unknown benchmark
/// name or an invalid configuration — which the supervisor records as
/// a [`RunVerdict::Rejected`] instead of panicking the worker.
fn run_request(req: &RunRequest, traces: &TraceStore) -> Result<RunReport, RunError> {
    let profile =
        spec::benchmark(&req.bench).ok_or_else(|| RunError::UnknownBenchmark(req.bench.clone()))?;
    let setup = SimSetup::for_profile(req.config.clone(), &profile, req.seed)
        .map_err(RunError::InvalidConfig)?;
    if req.topology.is_unit() {
        let trace = traces.get(&profile, req.instructions, req.seed);
        return Ok(setup.run(&trace));
    }
    // Sharded: one trace per stream, each memoized in the shared store
    // under its derived seed (stream 0 reuses the unsharded entry).
    let stream_traces: Vec<Arc<Trace>> = (0..req.topology.streams())
        .map(|s| traces.get(&profile, req.instructions, multi::stream_seed(req.seed, s)))
        .collect();
    let refs: Vec<&Trace> = stream_traces.iter().map(|t| t.as_ref()).collect();
    Ok(ShardedSetup::new(setup, req.topology).run(&refs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use plp_core::{run_benchmark, UpdateScheme};

    fn tiny() -> RunSettings {
        RunSettings {
            instructions: 3_000,
            seed: 5,
        }
    }

    #[test]
    fn matrix_matches_direct_runs_and_dedupes() {
        let s = tiny();
        let cfg = SystemConfig::for_scheme(UpdateScheme::Sp);
        let reqs = vec![
            RunRequest::new("gcc", cfg.clone(), s),
            RunRequest::new("milc", cfg.clone(), s),
            RunRequest::new("gcc", cfg.clone(), s), // duplicate
        ];
        let (results, stats) = execute(&reqs, &MatrixOptions::serial());
        assert_eq!(stats.requested, 3);
        assert_eq!(stats.unique, 2);
        assert_eq!(stats.cache_hits, 0);
        assert_eq!(results.len(), 2);
        let direct = run_benchmark(
            &spec::benchmark("gcc").unwrap(),
            &cfg,
            s.instructions,
            s.seed,
        );
        assert_eq!(*results.report("gcc", &cfg, s), direct);
    }

    #[test]
    fn parallel_execution_equals_serial() {
        let s = tiny();
        let mut reqs = Vec::new();
        for scheme in UpdateScheme::all() {
            for bench in ["gcc", "milc", "astar"] {
                reqs.push(RunRequest::new(bench, SystemConfig::for_scheme(scheme), s));
            }
        }
        let (serial, _) = execute(&reqs, &MatrixOptions::serial());
        let (parallel, _) = execute(
            &reqs,
            &MatrixOptions {
                threads: 4,
                cache_dir: None,
            },
        );
        for req in &reqs {
            assert_eq!(serial.get(req), parallel.get(req), "{}", req.key());
        }
    }

    #[test]
    fn distinct_settings_have_distinct_keys() {
        let cfg = SystemConfig::for_scheme(UpdateScheme::O3);
        let a = RunRequest::new("gcc", cfg.clone(), tiny());
        let mut other = tiny();
        other.seed = 6;
        let b = RunRequest::new("gcc", cfg.clone(), other);
        let mut cfg2 = cfg.clone();
        cfg2.epoch_size = 64;
        let c = RunRequest::new("gcc", cfg2, tiny());
        assert_ne!(a.key(), b.key());
        assert_ne!(a.key(), c.key());
    }

    #[test]
    #[should_panic(expected = "no result")]
    fn missing_result_is_loud() {
        let results = ResultSet::default();
        let _ = results.report("gcc", &SystemConfig::for_scheme(UpdateScheme::Sp), tiny());
    }
}
