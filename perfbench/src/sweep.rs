//! The three matrix workloads: `paper_sweep`, `ci_sweep` and
//! `cache_replay`.
//!
//! A pass is what the `all` binary does: execute the registered specs'
//! requests with `matrix::execute_supervised` through a run-cache
//! directory, then render every spec whose runs all survived.

use std::collections::{BTreeMap, HashSet};
use std::panic::AssertUnwindSafe;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use plp_bench::cache::{self, CacheOutcome};
use plp_bench::{
    all_specs, execute_supervised, ExperimentSpec, MatrixOptions, ResultSet, RunRequest,
    RunSettings, RunVerdict, SupervisorOptions,
};
use plp_core::SimSetup;
use plp_trace::{spec, TraceStore};

use crate::host::{self, WorkDir};
use crate::metrics::{Ledger, CRASH_ONLY};
use crate::replay::Layers;
use crate::span::{self, Tracer};
use crate::stats::{self, Fingerprint};

/// Specs of the `paper_sweep` subset: the paper's headline summary
/// (secure_WB and all five persisting schemes on all 15 profiles), the
/// SGX counter-tree comparison (sp_ctree, whose long runs show the
/// per-run cost blow-up) and the scheme zoo (triad_nvm, phoenix).
/// Together they keep every scheme.
pub const PAPER_SPECS: [&str; 3] = ["summary", "sgx_compare", "zoo"];

/// A set of registered specs at one run length.
#[derive(Clone, Copy)]
pub struct Sweep {
    /// Spec ids kept (`None`: every spec), rendered in `all` order.
    pub only: Option<&'static [&'static str]>,
    /// Run length and seed.
    pub settings: RunSettings,
}

impl Sweep {
    /// `paper_sweep`: the [`PAPER_SPECS`] at 400 000 instructions,
    /// through an empty run cache.
    pub fn paper(seed: u64) -> Self {
        Sweep {
            only: Some(&PAPER_SPECS),
            settings: RunSettings {
                instructions: 400_000,
                seed,
            },
        }
    }

    /// `ci_sweep` (and `cache_replay`'s matrix): every registered spec
    /// at 10 000 instructions.
    pub fn ci(seed: u64) -> Self {
        Sweep {
            only: None,
            settings: RunSettings {
                instructions: 10_000,
                seed,
            },
        }
    }

    /// The specs in this sweep.
    pub fn selected(&self) -> impl Iterator<Item = &'static ExperimentSpec> + '_ {
        all_specs()
            .iter()
            .filter(|s| self.only.is_none_or(|ids| ids.contains(&s.id)))
    }

    /// Every request of every selected spec, duplicates included.
    pub fn requests(&self) -> Vec<RunRequest> {
        self.selected()
            .flat_map(|s| s.runs_needed(self.settings))
            .collect()
    }

    /// Renders `spec` if every run it needs survived: `None` when
    /// skipped, `Some(Err(()))` when its renderer panicked.
    pub fn render_one(
        &self,
        spec: &ExperimentSpec,
        results: &ResultSet,
    ) -> Option<Result<String, ()>> {
        let complete = spec
            .runs_needed(self.settings)
            .iter()
            .all(|r| results.contains(r));
        complete.then(|| {
            std::panic::catch_unwind(AssertUnwindSafe(|| spec.output(results, self.settings)))
                .map_err(|_| ())
        })
    }

    /// Renders every spec whose runs all survived, separated by blank
    /// lines, as `all` prints them; also returns how many renderers
    /// panicked.
    pub fn render(&self, results: &ResultSet) -> (String, u64) {
        let mut parts = Vec::new();
        let mut panics = 0;
        for s in self.selected() {
            match self.render_one(s, results) {
                Some(Ok(part)) => parts.push(part),
                Some(Err(())) => panics += 1,
                None => {}
            }
        }
        (parts.join("\n"), panics)
    }
}

/// The distinct requests, in first-seen order, with their keys.
pub fn unique(requests: &[RunRequest]) -> Vec<(String, RunRequest)> {
    let mut seen = HashSet::new();
    requests
        .iter()
        .filter_map(|r| {
            let key = r.key();
            seen.insert(key.clone()).then(|| (key, r.clone()))
        })
        .collect()
}

/// One executed matrix pass.
pub struct Pass {
    /// Wall-clock of execution plus rendering.
    pub wall: Duration,
    /// Process CPU time of `execute_supervised` alone.
    pub matrix_cpu: Duration,
    /// Keyed reports.
    pub results: ResultSet,
    /// Runs served from the cache.
    pub cache_hits: usize,
    /// Keys whose supervisor verdict was not `Ok`.
    pub bad_verdicts: Vec<String>,
    /// Keys quarantined from the cache.
    pub quarantined: usize,
    /// Supervisor attempts, retries included.
    pub attempts: u64,
    /// The rendered artefacts.
    pub rendered: String,
    /// Specs whose renderer panicked.
    pub render_panics: u64,
}

/// Executes `requests` through the run cache in `cache_dir` and
/// renders, as `all` does.
pub fn run_pass(sweep: &Sweep, requests: &[RunRequest], cache_dir: &Path) -> Pass {
    let sup = SupervisorOptions::new(MatrixOptions {
        threads: host::threads(),
        cache_dir: Some(cache_dir.to_path_buf()),
    });
    let started = Instant::now();
    let cpu = host::cpu_time();
    let (results, stats, degradation) = execute_supervised(requests, &sup);
    let matrix_cpu = host::cpu_time() - cpu;
    let (rendered, render_panics) = sweep.render(&results);
    let wall = started.elapsed();
    let mut bad_verdicts = Vec::new();
    let mut quarantined = 0;
    let mut retries = 0u64;
    for (key, log) in degradation.entries() {
        retries += log.failures.len() as u64;
        if log.quarantine.is_some() || log.verdict == RunVerdict::CacheQuarantined {
            quarantined += 1;
        }
        if log.verdict != RunVerdict::Ok {
            bad_verdicts.push(key.clone());
        }
    }
    Pass {
        wall,
        matrix_cpu,
        attempts: stats.unique as u64 + retries,
        results,
        cache_hits: stats.cache_hits,
        bad_verdicts,
        quarantined,
        rendered,
        render_panics,
    }
}

/// Failed ops of a simulating pass: unique runs with no report, a
/// verdict other than `Ok` or a sanitizer violation, plus one per
/// panicking renderer.
pub fn sweep_failures(pass: &Pass, keys: &[(String, RunRequest)]) -> u64 {
    let bad: HashSet<&String> = pass.bad_verdicts.iter().collect();
    let runs = keys
        .iter()
        .filter(|(key, req)| {
            bad.contains(key)
                || !pass.results.contains(req)
                || !pass.results.get(req).sanitizer.is_clean()
        })
        .count() as u64;
    runs + pass.render_panics
}

/// Failed lookups of a cache-served pass: misses, quarantines, and
/// reports or rendered bytes that differ from the fill.
pub fn replay_failures(pass: &Pass, fill: &Fill, keys: &[(String, RunRequest)]) -> u64 {
    let bad: HashSet<&String> = pass.bad_verdicts.iter().collect();
    let mismatched = keys
        .iter()
        .filter(|(key, req)| {
            bad.contains(key)
                || !pass.results.contains(req)
                || !fill.results.contains(req)
                || pass.results.get(req) != fill.results.get(req)
        })
        .count();
    // A quarantined entry is also a miss; other misses name no key.
    let silent_misses =
        (keys.len() - pass.cache_hits.min(keys.len())).saturating_sub(pass.quarantined);
    let rendered = u64::from(pass.rendered != fill.rendered);
    (mismatched + silent_misses) as u64 + rendered + pass.render_panics
}

/// Σ instructions over the pass's unique runs.
pub fn instructions(pass: &Pass, keys: &[(String, RunRequest)]) -> u64 {
    keys.iter()
        .filter(|(_, r)| pass.results.contains(r))
        .map(|(_, r)| pass.results.get(r).instructions)
        .sum()
}

/// The fingerprint of rendered artefacts.
pub fn fingerprint(rendered: &str) -> u64 {
    let mut f = Fingerprint::default();
    f.feed(rendered.as_bytes());
    f.value()
}

/// A filled run cache (`cache_replay`'s set-up). It owns its
/// directory and removes it when dropped.
pub struct Fill {
    /// The directory holding every entry.
    pub dir: PathBuf,
    /// The fill pass's reports.
    pub results: ResultSet,
    /// The fill pass's rendered artefacts.
    pub rendered: String,
}

impl Drop for Fill {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Fills a fresh cache directory with `sweep`'s matrix; also returns
/// the fill pass's failed runs.
///
/// # Errors
///
/// Returns the I/O error if the directory cannot be created.
pub fn fill(
    sweep: &Sweep,
    requests: &[RunRequest],
    keys: &[(String, RunRequest)],
    work: &mut WorkDir,
) -> std::io::Result<(Fill, u64)> {
    let dir = work.fresh("fill")?;
    let pass = run_pass(sweep, requests, &dir);
    let failed = sweep_failures(&pass, keys);
    let fill = Fill {
        dir,
        results: pass.results,
        rendered: pass.rendered,
    };
    Ok((fill, failed))
}

/// Per-run host costs gathered by a traced re-execution.
#[derive(Default)]
struct RunCosts {
    /// Σ instructions of the distinct traces generated.
    trace_instructions: u64,
    traces: usize,
    runs: u64,
    run_ns_per_instr: Vec<f64>,
    run_ns_by_scheme: BTreeMap<String, u64>,
    cache_bytes: u64,
    stores: u64,
    failures: u64,
    layers: Layers,
    results: ResultSet,
}

/// The calls the matrix makes per simulated run, as span names.
const PER_RUN_CALLS: [&str; 5] = [
    "bench.cache.probe",
    "trace.get",
    "system.build",
    "system.run",
    "bench.cache.store",
];

/// Re-executes a matrix one unique run at a time through the calls the
/// matrix makes per run (cache probe, trace, set-up, run, cache store)
/// into the empty `cache_dir`, checking each report against
/// `expected`, and replays each run through the layers.
fn traced_runs(
    tracer: &mut Tracer,
    keys: &[(String, RunRequest)],
    expected: &ResultSet,
    cache_dir: &Path,
) -> RunCosts {
    let mut costs = RunCosts::default();
    let traces = TraceStore::new();
    for (op, (key, req)) in keys.iter().enumerate() {
        let op = op as u64;
        let probe = tracer.span("bench.cache.probe", op, |_| {
            cache::load_checked(cache_dir, key)
        });
        let Some(profile) = spec::benchmark(&req.bench) else {
            costs.failures += 1;
            continue;
        };
        let before = traces.len();
        let trace = tracer.span("trace.get", op, |_| {
            traces.get(&profile, req.instructions, req.seed)
        });
        if traces.len() > before {
            costs.trace_instructions += trace.total_instructions();
        }
        let built = tracer.span("system.build", op, |_| {
            SimSetup::for_profile(req.config.clone(), &profile, req.seed)
                .map(|setup| (setup.simulation(), setup))
        });
        let Ok((sim, setup)) = built else {
            costs.failures += 1;
            continue;
        };
        let t = Instant::now();
        let report = tracer.span("system.run", op, |_| sim.run(&trace));
        let run = t.elapsed();
        tracer.span("bench.cache.store", op, |_| {
            cache::store(cache_dir, key, &report)
        });
        costs.stores += 1;
        costs.cache_bytes +=
            std::fs::metadata(cache::cache_path(cache_dir, key)).map_or(0, |m| m.len());
        costs.runs += 1;
        if report.instructions > 0 {
            costs
                .run_ns_per_instr
                .push(run.as_nanos() as f64 / report.instructions as f64);
        }
        *costs
            .run_ns_by_scheme
            .entry(req.config.scheme.name().to_string())
            .or_insert(0) += u64::try_from(run.as_nanos()).unwrap_or(u64::MAX);
        let exact = matches!(probe, CacheOutcome::Miss)
            && expected.contains(req)
            && expected.get(req) == &report;
        if !costs
            .layers
            .replay(tracer, op, &setup, &trace, &report, run)
            || !exact
        {
            costs.failures += 1;
        }
        costs.results.insert(req, report);
    }
    costs.traces = traces.len();
    costs
}

/// Re-serves `dir` one lookup at a time, checking each report against
/// `expected`; returns the results, the failed lookups and the time
/// spent in `load_checked`.
fn traced_loads(
    tracer: &mut Tracer,
    keys: &[(String, RunRequest)],
    dir: &Path,
    expected: &ResultSet,
) -> (ResultSet, u64, Duration) {
    let mut results = ResultSet::default();
    let mut failures = 0;
    let mut time = Duration::ZERO;
    for (op, (key, req)) in keys.iter().enumerate() {
        let t = Instant::now();
        let outcome = tracer.span("bench.cache.load", op as u64, |_| {
            cache::load_checked(dir, key)
        });
        time += t.elapsed();
        match outcome {
            CacheOutcome::Hit(report)
                if expected.contains(req) && *report == *expected.get(req) =>
            {
                results.insert(req, *report);
            }
            _ => failures += 1,
        }
    }
    (results, failures, time)
}

/// Renders under one span per spec; also returns the panicking
/// renderers.
fn traced_render(tracer: &mut Tracer, sweep: &Sweep, results: &ResultSet) -> (String, u64) {
    let mut parts = Vec::new();
    let mut panics = 0;
    for (op, s) in sweep.selected().enumerate() {
        let name = format!("bench.specs.render.{}", s.id);
        match tracer.span(&name, op as u64, |_| sweep.render_one(s, results)) {
            Some(Ok(part)) => parts.push(part),
            Some(Err(())) => panics += 1,
            None => {}
        }
    }
    (parts.join("\n"), panics)
}

/// Writes the metrics of a traced re-execution.
fn record_run_costs(ledger: &mut Ledger, tracer: &Tracer, costs: &RunCosts) {
    let own = span::self_times(tracer.spans());
    let t = |name: &str| own.get(name).copied().unwrap_or(0) as f64;
    ledger.ratio(
        "trace.gen_ns_per_instr",
        t("trace.get"),
        costs.trace_instructions as f64,
        "ns",
    );
    ledger.count("trace.traces", costs.traces as u64);
    ledger.ratio(
        "system.build_us_per_run",
        t("system.build") / 1e3,
        costs.runs as f64,
        "us",
    );
    if let Some(p50) = stats::quantile(&costs.run_ns_per_instr, 0.50) {
        ledger.set("system.run_ns_per_instr_p50", p50, "ns");
    }
    if let Some(p98) = stats::quantile(&costs.run_ns_per_instr, 0.98) {
        ledger.set("system.run_ns_per_instr_p98", p98, "ns");
    }
    ledger.count("system.runs", costs.runs);
    for (scheme, ns) in &costs.run_ns_by_scheme {
        ledger.set(&format!("system.run_s.{scheme}"), *ns as f64 / 1e9, "s");
    }
    ledger.set("bench.cache.store_ms", t("bench.cache.store") / 1e6, "ms");
    ledger.ratio(
        "bench.cache.store_us",
        t("bench.cache.store") / 1e3,
        costs.stores as f64,
        "us",
    );
    ledger.set("bench.cache.bytes", costs.cache_bytes as f64, "bytes");
    ledger.ratio(
        "bench.cache.entry_bytes",
        costs.cache_bytes as f64,
        costs.stores as f64,
        "bytes",
    );
    costs.layers.record(ledger);
    ledger.add_report_counts(costs.results.iter().map(|(_, r)| r));
}

/// What a traced run found.
pub struct Traced {
    /// The per-layer ledger.
    pub ledger: Ledger,
    /// Ops attempted (the untraced reference pass's and the traced
    /// re-execution's).
    pub attempted: u64,
    /// Failed ops, replay mismatches included.
    pub failed: u64,
    /// Fingerprint of the rendered artefacts.
    pub fingerprint: u64,
    /// Every recorded span.
    pub tracer: Tracer,
}

/// Which matrix workload is traced.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Mode {
    /// Simulate into an empty cache (`paper_sweep`, `ci_sweep`).
    Simulate,
    /// Serve from a filled cache (`cache_replay`).
    Replay,
}

/// The traced run of a matrix workload.
///
/// One untraced pass is the reference (reports, rendered bytes, CPU
/// time). The same work is then re-executed one unique run at a time
/// under spans: for `Simulate` the pass itself; for `Replay` the fill
/// that is its set-up, then the lookups. Every simulated run is
/// replayed through the layers.
///
/// # Errors
///
/// Returns the I/O error if a scratch directory cannot be created.
pub fn traced(sweep: &Sweep, mode: Mode, work: &mut WorkDir) -> std::io::Result<Traced> {
    let requests = sweep.requests();
    let keys = unique(&requests);
    let n = keys.len() as u64;
    let mut tracer = Tracer::default();
    let mut ledger = Ledger::default();

    // The untraced reference pass: its reports and rendered bytes are
    // what the traced re-execution must reproduce.
    let (fill, pass, mut failed) = match mode {
        Mode::Simulate => {
            let pass = run_pass(sweep, &requests, &work.fresh("untraced")?);
            let failed = sweep_failures(&pass, &keys);
            (None, pass, failed)
        }
        Mode::Replay => {
            let (fill, fill_failed) = fill(sweep, &requests, &keys, work)?;
            let pass = run_pass(sweep, &requests, &fill.dir);
            let failed = fill_failed + replay_failures(&pass, &fill, &keys);
            (Some(fill), pass, failed)
        }
    };
    let (expected, reference) = match &fill {
        Some(f) => (&f.results, &f.rendered),
        None => (&pass.results, &pass.rendered),
    };

    let dir = work.fresh("traced")?;
    let costs = traced_runs(&mut tracer, &keys, expected, &dir);
    failed += costs.failures;
    let (served, per_run_calls) = match mode {
        Mode::Simulate => {
            let totals = span::total_times(tracer.spans());
            let ns: u64 = PER_RUN_CALLS
                .iter()
                .map(|c| totals.get(*c).copied().unwrap_or(0))
                .sum();
            (None, Duration::from_nanos(ns))
        }
        Mode::Replay => {
            let (results, load_failures, time) = traced_loads(&mut tracer, &keys, &dir, expected);
            failed += load_failures;
            (Some(results), time)
        }
    };
    let (rendered, panics) = traced_render(
        &mut tracer,
        sweep,
        served.as_ref().unwrap_or(&costs.results),
    );
    failed += panics + u64::from(&rendered != reference);

    record_run_costs(&mut ledger, &tracer, &costs);
    let own = span::self_times(tracer.spans());
    for (span_name, metric) in [
        ("bench.cache.probe", "bench.cache.probe_us"),
        ("bench.cache.load", "bench.cache.load_us"),
    ] {
        let times: Vec<u64> = tracer
            .spans()
            .iter()
            .filter(|s| s.name == span_name)
            .map(|s| s.end - s.start)
            .collect();
        ledger.ratio(
            metric,
            times.iter().sum::<u64>() as f64 / 1e3,
            times.len() as f64,
            "us",
        );
    }
    let mut render_ns = 0;
    for (name, ns) in own.range("bench.specs.render.".to_string()..) {
        let Some(id) = name.strip_prefix("bench.specs.render.") else {
            break;
        };
        render_ns += ns;
        ledger.set(
            &format!("bench.specs.render_ms.{id}"),
            *ns as f64 / 1e6,
            "ms",
        );
    }
    ledger.set("bench.specs.render_ms", render_ns as f64 / 1e6, "ms");
    ledger.set(
        "bench.cache.load_ms",
        own.get("bench.cache.load").copied().unwrap_or(0) as f64 / 1e6,
        "ms",
    );
    ledger.set("bench.untraced_pass_s", pass.wall.as_secs_f64(), "s");
    if let Some(frac) = span::overhead_frac(tracer.spans()) {
        ledger.set("bench.tracing_overhead_frac", frac, "ratio");
    }
    let overhead = pass.matrix_cpu.as_secs_f64() - per_run_calls.as_secs_f64();
    ledger.set("bench.matrix.overhead_ms", overhead * 1e3, "ms");
    ledger.ratio(
        "bench.matrix.overhead_us_per_run",
        overhead * 1e6,
        n as f64,
        "us",
    );
    ledger.count("bench.matrix.attempts", pass.attempts);
    ledger.zero(&CRASH_ONLY);
    Ok(Traced {
        ledger,
        attempted: 2 * n,
        failed,
        fingerprint: fingerprint(&rendered),
        tracer,
    })
}
