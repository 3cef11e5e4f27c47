//! The `crash_recovery` workload: the three recovery pipelines on real
//! device images.
//!
//! Each cell of (durable scheme × BMT height) runs gcc once with a
//! file-backed `DurableSink`. The image is cut at [`CUTS`] points, and
//! every cut goes through `replay_image` → `RecoveryManager::recover` →
//! `recover_image` → a second `recover_image`, which must rewrite
//! nothing. At each cut's time the Tables I/II classifier runs
//! (`PersistImage::at_time` + `RecoveryChecker::check`). At the paper
//! height, each `fault_sweep` scheme also gets one `FaultSweep::run`.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::path::Path;
use std::time::Instant;

use plp_bmt::{BmtGeometry, BonsaiTree};
use plp_core::fault::{FaultConfig, FaultSweep};
use plp_core::{
    recover_image, recovery_scratch_path, replay_image, DurableSink, FaultVerdict,
    ObserverExpectation, PersistImage, PersistRecord, RecoveryChecker, RecoveryManager, RootStatus,
    RunReport, SimSetup, SystemConfig, UpdateScheme,
};
use plp_crypto::SipKey;
use plp_trace::{spec, Trace, TraceGenerator};

use crate::host::WorkDir;
use crate::metrics::{Ledger, MATRIX_ONLY};
use crate::replay::Layers;
use crate::span::{self, Tracer};
use crate::stats::{self, Fingerprint};

/// Every scheme that can attach the durable sink (`recovery_sweep`'s
/// set).
pub const SCHEMES: [UpdateScheme; 7] = [
    UpdateScheme::Unordered,
    UpdateScheme::Sp,
    UpdateScheme::Pipeline,
    UpdateScheme::O3,
    UpdateScheme::Coalescing,
    UpdateScheme::TriadNvm,
    UpdateScheme::Phoenix,
];

/// BMT heights: 8-ary trees of 7, 9 and 11 levels.
pub const LEVELS: [u32; 3] = [7, 9, 11];

/// Cut `k` of `CUTS` keeps the header plus `k / CUTS` of the frame
/// bytes. Cuts 3, 6, 9 and 12 are `recovery_sweep`'s 0.25/0.5/0.75/1.0.
pub const CUTS: usize = 12;

/// The cuts `recovery_sweep` takes its worst case over.
const REFERENCE_CUTS: [usize; 4] = [3, 6, 9, 12];

/// The benchmark's workload: gcc at 20 000 instructions, the length
/// `recovery_sweep` uses. Each pass writes and deletes every cut image
/// and recovered image; at 60 000 instructions that churn (about
/// 190 MB a pass) slowed file creation for every later run on the
/// volume.
pub const INSTRUCTIONS: u64 = 20_000;

/// Crash points per `FaultSweep::run` (`fault_sweep` uses 128; the
/// sweep's cost is linear in this).
pub const FAULT_POINTS: usize = 8;

/// The trace every cell runs: gcc at [`INSTRUCTIONS`], from `seed`.
pub fn trace(seed: u64) -> Trace {
    let profile = spec::benchmark("gcc").expect("gcc is a registered benchmark");
    TraceGenerator::new(profile, seed).generate(INSTRUCTIONS)
}

/// What one pass did.
#[derive(Debug, Default)]
pub struct CrashPass {
    /// Cut recoveries plus fault sweeps.
    pub attempted: u64,
    /// Ops that broke a pass rule or errored.
    pub failed: u64,
    /// Latency of each cut's `replay_image` + `recover_image`, ns.
    pub recover_ns: Vec<f64>,
    /// Worst modelled recovery cycles over `recovery_sweep`'s cuts, per
    /// (scheme, levels).
    pub worst_cycles: BTreeMap<(String, u32), u64>,
    /// Hash of every verdict and modelled cycle count.
    pub fingerprint: u64,
    /// Σ instructions of the cell runs.
    pub instructions: u64,
    /// Frames in the full images.
    pub frames: u64,
    /// Bytes of the full images.
    pub image_bytes: u64,
    /// Crash points the fault sweeps enumerated.
    pub fault_points: u64,
    /// Σ root-prefix updates behind over lagged cut recoveries.
    pub prefix_updates: u64,
    /// Replayed layers (traced only).
    pub layers: Layers,
    /// Run host time per instruction, one per cell (traced only).
    pub run_ns_per_instr: Vec<f64>,
    /// The traced plain runs' reports (traced only).
    pub reports: Vec<RunReport>,
}

/// The program-order fold of the completely persisted prefix: the
/// observer recovery is judged against.
fn expectation_for(records: &[PersistRecord], complete: &BTreeSet<u64>) -> ObserverExpectation {
    let mut plaintexts = HashMap::new();
    for r in records.iter().filter(|r| complete.contains(&r.id.0)) {
        plaintexts.insert(r.addr, r.plaintext);
    }
    ObserverExpectation { plaintexts }
}

fn config_for(scheme: UpdateScheme, levels: u32) -> SystemConfig {
    let mut config = SystemConfig::for_scheme(scheme);
    config.bmt = BmtGeometry::new(8, levels);
    config.record_persists = true;
    config
}

/// Runs one pass over `trace` (generated from `seed`, which also seeds
/// the fault sweeps). With an enabled tracer every call into a layer is
/// spanned, each image is also rebuilt with `BonsaiTree::from_counters`,
/// and each cell is also run without the sink and replayed through the
/// layers.
///
/// # Errors
///
/// Returns the I/O error if the scratch directory cannot be used.
pub fn run_pass(
    seed: u64,
    trace: &Trace,
    work: &mut WorkDir,
    tracer: &mut Tracer,
) -> std::io::Result<CrashPass> {
    let traced = tracer.is_on();
    let dir = work.fresh("images")?;
    let profile = spec::benchmark("gcc").expect("gcc is a registered benchmark");
    let mut pass = CrashPass::default();
    let mut fp = Fingerprint::default();
    let correct = UpdateScheme::correct();
    let mut fault_schemes = correct.to_vec();
    fault_schemes.push(UpdateScheme::Unordered);

    for (cell, (scheme, levels)) in SCHEMES
        .iter()
        .flat_map(|s| LEVELS.iter().map(move |l| (*s, *l)))
        .enumerate()
    {
        let op = cell as u64;
        let is_correct = correct.contains(&scheme);
        let config = config_for(scheme, levels);
        let (setup, mut sim) = tracer
            .span("system.build", op, |_| {
                SimSetup::for_profile(config, &profile, seed).map(|s| {
                    let sim = s.simulation();
                    (s, sim)
                })
            })
            .expect("the sweep's configurations are valid");
        let path = dir.join(format!("{}-{levels}.img", scheme.name()));
        let sink = tracer.span("crash.sink_create", op, |_| {
            DurableSink::create(&path, setup.config(), seed)
        });
        let Ok(sink) = sink else {
            pass.attempted += CUTS as u64;
            pass.failed += CUTS as u64;
            continue;
        };
        sim.attach_durable_sink(sink);
        let (report, finished) = tracer.span("crash.sink_run", op, |_| sim.run_with_state(trace));
        pass.instructions += report.instructions;
        let bytes = std::fs::read(&path);
        let _ = std::fs::remove_file(&path);
        let bytes = match (finished.durable_error(), bytes) {
            (None, Ok(bytes)) => bytes,
            _ => {
                pass.attempted += CUTS as u64;
                pass.failed += CUTS as u64;
                continue;
            }
        };
        pass.image_bytes += bytes.len() as u64;
        if traced {
            traced_extras(&mut pass, tracer, op, &setup, trace, &report);
        }

        let recovery = Recovery {
            key: setup.config().key,
            geometry: setup.config().bmt,
            manager: RecoveryManager::for_config(setup.config()),
            records: &report.records,
            rebuild: traced,
        };
        let checker = RecoveryChecker::new(recovery.geometry, recovery.key);
        let records = &report.records;
        let header = 32.min(bytes.len());
        for k in 1..=CUTS {
            pass.attempted += 1;
            let len = header + ((bytes.len() - header) as f64 * (k as f64 / CUTS as f64)) as usize;
            let path = dir.join(format!("{}-{levels}-cut{k}.img", scheme.name()));
            std::fs::write(&path, &bytes[..len])?;
            let cut = recovery.recover(tracer, op, &path, &mut pass, &mut fp);
            let _ = std::fs::remove_file(&path);
            let _ = std::fs::remove_file(recovery_scratch_path(&path));
            let Some(cut) = cut else {
                pass.failed += 1;
                continue;
            };
            if k == CUTS {
                pass.frames += cut.frames as u64;
            }
            let mut failed = is_correct
                && matches!(
                    cut.verdict,
                    FaultVerdict::UndetectedCorruption | FaultVerdict::StaleRollback
                );
            if REFERENCE_CUTS.contains(&k) {
                let worst = pass
                    .worst_cycles
                    .entry((scheme.name().to_string(), levels))
                    .or_insert(0);
                *worst = (*worst).max(cut.cycles);
            }
            fp.feed(
                format!(
                    "{}/{levels}/{k}: {} {}\n",
                    scheme.name(),
                    cut.verdict,
                    cut.cycles
                )
                .as_bytes(),
            );

            // The Tables I/II classifier at the time the cut's durable
            // prefix completed.
            let t = records
                .iter()
                .filter(|r| cut.complete.contains(&r.id.0))
                .map(|r| r.completed_at())
                .max()
                .unwrap_or_default();
            let check = tracer.span("recovery.check", op, |_| {
                let image = PersistImage::at_time(records, t, recovery.geometry, recovery.key);
                checker.check(&image, &ObserverExpectation::at_time(records, t))
            });
            failed |= is_correct && !check.is_clean();
            fp.feed(
                format!(
                    "check {} {} {}\n",
                    check.bmt_failure,
                    check.mac_failures.len(),
                    check.plaintext_failures.len()
                )
                .as_bytes(),
            );
            pass.failed += u64::from(failed);
        }

        let paper_height = SystemConfig::for_scheme(scheme).bmt == recovery.geometry;
        if paper_height && fault_schemes.contains(&scheme) {
            pass.attempted += 1;
            let fault = FaultConfig {
                crash_point_budget: FAULT_POINTS,
                ..FaultConfig::all_classes(seed)
            };
            let result = tracer.span("fault.sweep", op, |_| {
                FaultSweep::new(setup.config(), fault).run(scheme, records)
            });
            let silent: u64 = result.baseline.undetected_corruption
                + result
                    .classes
                    .iter()
                    .map(|(_, t)| t.undetected_corruption)
                    .sum::<u64>();
            let holds = if is_correct {
                result.detect_or_recover_holds()
            } else {
                silent == 0
            };
            pass.failed += u64::from(!holds);
            pass.fault_points += result.crash_points as u64;
            fp.feed(
                format!(
                    "fault {} {} {} {}\n",
                    scheme.name(),
                    result.crash_points,
                    result.baseline.clean,
                    silent
                )
                .as_bytes(),
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    pass.fingerprint = fp.value();
    Ok(pass)
}

/// What recovering one cut found.
struct Cut {
    verdict: FaultVerdict,
    /// Modelled recovery cycles.
    cycles: u64,
    /// Persist ids complete in the cut.
    complete: BTreeSet<u64>,
    frames: usize,
}

/// One cell's recovery context.
struct Recovery<'a> {
    key: SipKey,
    geometry: BmtGeometry,
    manager: RecoveryManager,
    records: &'a [PersistRecord],
    /// Also time a `BonsaiTree::from_counters` on each replayed image.
    rebuild: bool,
}

impl Recovery<'_> {
    /// `replay_image` → `RecoveryManager::recover` → `recover_image` →
    /// a second `recover_image`, which must rewrite nothing. Records
    /// the latency of `replay_image` + `recover_image`. `None` on an
    /// error or a rewriting second recovery.
    fn recover(
        &self,
        tracer: &mut Tracer,
        op: u64,
        path: &Path,
        pass: &mut CrashPass,
        fp: &mut Fingerprint,
    ) -> Option<Cut> {
        let t = Instant::now();
        let replayed = tracer
            .span("crash.replay", op, |_| replay_image(path, self.key))
            .ok()?;
        let mut latency = t.elapsed();
        let expected = expectation_for(self.records, &replayed.complete_ids);
        let outcome = tracer.span("fault.recover", op, |_| {
            self.manager
                .recover(&replayed.image, self.records, &expected)
        });
        if let RootStatus::Lagged { updates_behind } = outcome.root {
            pass.prefix_updates += updates_behind as u64;
        }
        if self.rebuild {
            tracer.span("bmt.rebuild", op, |_| {
                let counters = replayed.image.counters.iter().map(|(p, c)| (*p, c));
                BonsaiTree::from_counters(self.geometry, self.key, counters)
            });
        }
        let recover = |tracer: &mut Tracer, name| {
            tracer.span(name, op, |_| {
                recover_image(path, self.key, &self.manager, self.records, &expected, None)
            })
        };
        let t = Instant::now();
        let first = recover(tracer, "crash.recover_image").ok()?;
        latency += t.elapsed();
        pass.recover_ns.push(latency.as_nanos() as f64);
        let second = recover(tracer, "crash.fixpoint").ok()?;
        fp.feed(
            format!(
                "recover {} {} {}\n",
                first.outcome.verdict(),
                first.rewritten,
                second.outcome.recovery_cycles
            )
            .as_bytes(),
        );
        (!second.rewritten).then(|| Cut {
            verdict: outcome.verdict(),
            cycles: outcome.recovery_cycles,
            complete: replayed.complete_ids,
            frames: replayed.frames,
        })
    }
}

/// Traced-only work per cell: the same run without the sink (which
/// must report identically) and the layer replays.
fn traced_extras(
    pass: &mut CrashPass,
    tracer: &mut Tracer,
    op: u64,
    setup: &SimSetup,
    trace: &Trace,
    sink_report: &RunReport,
) {
    let t = Instant::now();
    let mut plain = tracer.span("system.run", op, |_| setup.simulation().run(trace));
    let run = t.elapsed();
    pass.failed += u64::from(&plain != sink_report);
    if plain.instructions > 0 {
        pass.run_ns_per_instr
            .push(run.as_nanos() as f64 / plain.instructions as f64);
    }
    plain.records.clear();
    if !pass.layers.replay(tracer, op, setup, trace, &plain, run) {
        pass.failed += 1;
    }
    pass.reports.push(plain);
}

/// The traced run: one untraced pass (the overhead reference), then a
/// traced pass, then the per-layer ledger.
///
/// # Errors
///
/// Returns the I/O error if the scratch directory cannot be used.
pub fn traced(seed: u64, work: &mut WorkDir) -> std::io::Result<(CrashPass, Tracer, Ledger)> {
    let mut tracer = Tracer::default();
    let trace = tracer.span("trace.generate", 0, |_| trace(seed));
    let started = Instant::now();
    let untraced = run_pass(seed, &trace, work, &mut Tracer::off())?;
    let untraced_s = started.elapsed().as_secs_f64();
    let mut pass = run_pass(seed, &trace, work, &mut tracer)?;
    pass.attempted += untraced.attempted;
    pass.failed += untraced.failed;
    pass.failed += u64::from(untraced.fingerprint != pass.fingerprint);

    let mut ledger = Ledger::default();
    let own = span::self_times(tracer.spans());
    let t = |name: &str| own.get(name).copied().unwrap_or(0) as f64;
    let cells = (SCHEMES.len() * LEVELS.len()) as f64;
    ledger.ratio(
        "trace.gen_ns_per_instr",
        t("trace.generate"),
        trace.total_instructions() as f64,
        "ns",
    );
    ledger.count("trace.traces", 1);
    ledger.ratio(
        "system.build_us_per_run",
        t("system.build") / 1e3,
        cells,
        "us",
    );
    if let Some(p50) = stats::quantile(&pass.run_ns_per_instr, 0.50) {
        ledger.set("system.run_ns_per_instr_p50", p50, "ns");
    }
    if let Some(p98) = stats::quantile(&pass.run_ns_per_instr, 0.98) {
        ledger.set("system.run_ns_per_instr_p98", p98, "ns");
    }
    pass.layers.record(&mut ledger);
    ledger.add_report_counts(pass.reports.iter());
    ledger.zero(&MATRIX_ONLY);

    let sink = t("crash.sink_run");
    let plain = t("system.run");
    ledger.ratio("crash.sink_overhead_frac", sink - plain, plain, "ratio");
    ledger.count("crash.frames", pass.frames);
    ledger.set("crash.image_bytes", pass.image_bytes as f64, "bytes");
    // Layer times are totals over the traced pass's cuts.
    for (span_name, metric) in [
        ("crash.replay", "crash.replay_ms"),
        ("crash.recover_image", "crash.recover_image_ms"),
        ("crash.fixpoint", "crash.fixpoint_ms"),
        ("fault.recover", "fault.recover_ms"),
        ("recovery.check", "recovery.check_ms"),
        ("bmt.rebuild", "bmt.rebuild_ms"),
    ] {
        ledger.set(metric, t(span_name) / 1e6, "ms");
    }
    record_latency(&mut ledger, "crash.recover_ms", &pass.recover_ns);
    ledger.set("fault.sweep_s", t("fault.sweep") / 1e9, "s");
    ledger.count("fault.points", pass.fault_points);
    ledger.count("fault.prefix_updates", pass.prefix_updates);
    ledger.set("bench.untraced_pass_s", untraced_s, "s");
    if let Some(frac) = span::overhead_frac(tracer.spans()) {
        ledger.set("bench.tracing_overhead_frac", frac, "ratio");
    }
    Ok((pass, tracer, ledger))
}

/// Records the median and rule-chosen tail of latencies given in ns as
/// `<prefix>_p50` / `<prefix>_p<NN>` in ms, with the sample count.
pub fn record_latency(ledger: &mut Ledger, prefix: &str, ns: &[f64]) {
    ledger.count(&format!("{prefix}_samples"), ns.len() as u64);
    if let Some(p) = stats::tail_percentile(ns.len()) {
        let p50 = stats::median(ns).expect("non-empty") / 1e6;
        ledger.set(&format!("{prefix}_p50"), p50, "ms");
        let tail = stats::quantile(ns, p / 100.0).expect("non-empty") / 1e6;
        let label = format!("{p}").replace('.', "_");
        ledger.set(&format!("{prefix}_p{label}"), tail, "ms");
    }
}
