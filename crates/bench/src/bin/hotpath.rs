//! Hot-path microbenchmark: steady-state host cost of a simulation
//! per scheme, plus the cold/warm wall-clock of a reduced experiment
//! sweep.
//!
//! Per scheme, the benchmark generates one trace, warms the process
//! with an untimed run, then times `--reps` full simulations and
//! reports the *fastest* observed host nanoseconds per simulated
//! instruction. Every run simulates the same instruction count, so
//! the denominator is never zero and means the same for every
//! scheme. Host noise is strictly additive, so the minimum is the
//! stable estimator of the code's actual cost — a median would gate
//! on machine load. Each sample is additionally divided by the host
//! time of one iteration of a fixed pure-CPU calibration workload
//! timed around it, yielding a load-normalized *relative cost* (the
//! cost of a simulated instruction in calibration iterations): a slow
//! or contended machine inflates numerator and denominator alike,
//! while a code regression inflates only the numerator. Where a
//! scheme's run makes persist-path calls (ordered persists + eviction
//! write-backs, every call that walks the BMT), the host nanoseconds
//! per call are reported too; `secure_WB` on milc makes none, so it
//! has no such figure. The sweep section executes every registered
//! experiment's requests at a reduced instruction count, cold then
//! warm, through [`plp_bench::matrix::time_sweep`].
//!
//! The result is written to `BENCH_hotpath.json` (override with
//! `--out`). With `--check <baseline.json>` the run compares its
//! per-scheme *relative costs* against the committed baseline's
//! `relative_cost` section and exits 1 on a >10% regression; raw
//! nanoseconds and wall-clock numbers are reported but never gate
//! (they track machine load, not just code).
//!
//! Host timing is intentionally nondeterministic (it measures this
//! machine); simulated results never flow through this binary.
//!
//! Usage: `hotpath [--out PATH] [--check BASELINE] [--instructions N]
//! [--seed N] [--reps N] [--sweep-instructions N] [--threads N]`

use std::path::PathBuf;
use std::time::Instant;

use plp_bench::matrix::{time_sweep, MatrixOptions, RunRequest, SweepTiming};
use plp_bench::{all_specs, RunSettings};
use plp_core::{SimSetup, SystemConfig, UpdateScheme};
use plp_trace::{spec, TraceGenerator};

/// Tolerated per-scheme slowdown before `--check` fails the run.
const REGRESSION_TOLERANCE: f64 = 1.10;

struct Options {
    out: PathBuf,
    check: Option<PathBuf>,
    instructions: u64,
    seed: u64,
    reps: usize,
    sweep_instructions: u64,
    threads: usize,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            out: PathBuf::from("BENCH_hotpath.json"),
            check: None,
            instructions: 100_000,
            seed: 7,
            reps: 7,
            sweep_instructions: 50_000,
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        }
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: hotpath [--out PATH] [--check BASELINE] [--instructions N] \
         [--seed N] [--reps N] [--sweep-instructions N] [--threads N]"
    );
    std::process::exit(2);
}

fn parse_args() -> Options {
    let mut o = Options::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => match args.next() {
                Some(p) => o.out = PathBuf::from(p),
                None => usage(),
            },
            "--check" => match args.next() {
                Some(p) => o.check = Some(PathBuf::from(p)),
                None => usage(),
            },
            "--instructions" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) if n > 0 => o.instructions = n,
                _ => usage(),
            },
            "--seed" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) => o.seed = n,
                None => usage(),
            },
            "--reps" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) if n > 0 => o.reps = n,
                _ => usage(),
            },
            "--sweep-instructions" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) if n > 0 => o.sweep_instructions = n,
                _ => usage(),
            },
            "--threads" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) if n > 0 => o.threads = n,
                _ => usage(),
            },
            _ => usage(),
        }
    }
    o
}

/// Iterations of the calibration workload (a fixed pure-CPU mul/add
/// chain the optimizer cannot elide).
const CAL_ITERS: u64 = 1 << 22;

/// Times the fixed calibration workload once, in nanoseconds per
/// iteration. Pure CPU with no memory traffic: machine load slows it
/// and the simulator alike, so their ratio is load-invariant.
fn calibration_ns_per_iter() -> f64 {
    #[expect(
        clippy::disallowed_methods,
        reason = "host wall-clock is the measurand"
    )]
    let started = Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for i in 0..CAL_ITERS {
        x = std::hint::black_box(x.wrapping_mul(0x0100_0000_01B3).wrapping_add(i));
    }
    std::hint::black_box(x);
    started.elapsed().as_nanos() as f64 / CAL_ITERS as f64
}

/// One scheme's steady-state host cost.
struct SchemeCost {
    scheme: UpdateScheme,
    /// Host ns per simulated instruction.
    ns_per_instr: f64,
    /// Host ns per persist-path call; `None` when the run makes none.
    ns_per_persist: Option<f64>,
    /// The gate metric: host ns per instruction divided by the host ns
    /// per iteration of the calibration workload timed around the same
    /// sample.
    relative_cost: f64,
}

/// Measures one scheme on milc: one untimed warmup run, then the
/// minimum over `reps` timed runs of each figure.
fn scheme_cost(scheme: UpdateScheme, o: &Options) -> SchemeCost {
    let profile = spec::benchmark("milc").expect("milc is a registered benchmark");
    let trace = TraceGenerator::new(profile.clone(), o.seed).generate(o.instructions);
    let mut cfg = SystemConfig::for_scheme(scheme);
    cfg.ideal_metadata = true;
    let setup = SimSetup::for_profile(cfg, &profile, o.seed).expect("paper-default config");

    // Warmup. The simulation is deterministic, so its counts are every
    // timed run's.
    let warm = setup.simulation().run(&trace);
    let instructions = warm.instructions.max(1) as f64;
    let calls = warm.persists + warm.writebacks;
    let (mut best_ns, mut best_rel) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..o.reps {
        let cal_before = calibration_ns_per_iter();
        let sim = setup.simulation();
        #[expect(
            clippy::disallowed_methods,
            reason = "host wall-clock is the measurand"
        )]
        let started = Instant::now();
        let _report = sim.run(&trace);
        let elapsed = started.elapsed().as_nanos() as f64;
        let cal = cal_before.min(calibration_ns_per_iter());
        best_ns = best_ns.min(elapsed);
        best_rel = best_rel.min(elapsed / instructions / cal);
    }
    SchemeCost {
        scheme,
        ns_per_instr: best_ns / instructions,
        ns_per_persist: (calls > 0).then(|| best_ns / calls as f64),
        relative_cost: best_rel,
    }
}

/// The reduced all-experiments sweep, executed cold then warm through
/// a fresh throwaway cache directory.
fn sweep_timing(o: &Options) -> SweepTiming {
    let settings = RunSettings {
        instructions: o.sweep_instructions,
        seed: o.seed,
    };
    let mut requests: Vec<RunRequest> = Vec::new();
    for spec in all_specs() {
        requests.extend(spec.runs_needed(settings));
    }
    let cache_dir = std::env::temp_dir().join(format!(
        "plp-hotpath-cache-{}-{}",
        std::process::id(),
        o.seed
    ));
    let _ = std::fs::remove_dir_all(&cache_dir);
    let opts = MatrixOptions {
        threads: o.threads,
        cache_dir: Some(cache_dir.clone()),
    };
    let timing = time_sweep(&requests, &opts);
    let _ = std::fs::remove_dir_all(&cache_dir);
    timing
}

/// Renders one `"name": { "scheme": value, ... }` section of the
/// flat JSON document.
fn json_section<'a>(name: &str, rows: impl Iterator<Item = (&'a str, String)>) -> String {
    let body: Vec<String> = rows
        .map(|(scheme, value)| format!("    \"{scheme}\": {value}"))
        .collect();
    format!("  \"{name}\": {{\n{}\n  }},\n", body.join(",\n"))
}

fn render_json(o: &Options, costs: &[SchemeCost], sweep: &SweepTiming) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"format\": 2,\n");
    out.push_str(&format!("  \"instructions\": {},\n", o.instructions));
    out.push_str(&format!("  \"seed\": {},\n", o.seed));
    out.push_str(&format!("  \"reps\": {},\n", o.reps));
    out.push_str(&format!(
        "  \"sweep_instructions\": {},\n",
        o.sweep_instructions
    ));
    out.push_str(&json_section(
        "relative_cost",
        costs
            .iter()
            .map(|c| (c.scheme.name(), format!("{:.4}", c.relative_cost))),
    ));
    out.push_str(&json_section(
        "ns_per_instr",
        costs
            .iter()
            .map(|c| (c.scheme.name(), format!("{:.2}", c.ns_per_instr))),
    ));
    // Only schemes whose runs make persist-path calls have a per-call
    // cost; a zero base would turn the whole run into one "call".
    out.push_str(&json_section(
        "ns_per_persist",
        costs
            .iter()
            .filter_map(|c| Some((c.scheme.name(), format!("{:.1}", c.ns_per_persist?)))),
    ));
    out.push_str(&format!("  \"sweep_unique_runs\": {},\n", sweep.unique_runs));
    out.push_str(&format!(
        "  \"cold_sweep_ms\": {:.1},\n",
        sweep.cold.as_secs_f64() * 1e3
    ));
    out.push_str(&format!(
        "  \"warm_sweep_ms\": {:.1}\n",
        sweep.warm.as_secs_f64() * 1e3
    ));
    out.push_str("}\n");
    out
}

/// Pulls `"key": number` out of a flat JSON document (the only shape
/// this tool reads or writes — no dependency needed).
fn json_number(doc: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let start = doc.find(&needle)? + needle.len();
    let rest = doc[start..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Compares fresh per-scheme relative costs against the committed
/// baseline's `relative_cost` section; returns the regression report
/// lines (empty = gate passes). Only the load-normalized metric
/// gates — raw nanoseconds track the machine, not the code.
fn check_regressions(baseline: &str, costs: &[SchemeCost]) -> Vec<String> {
    let rel_section = match baseline.find("\"relative_cost\"") {
        Some(pos) => &baseline[pos..],
        None => return vec!["  baseline has no \"relative_cost\" section".to_string()],
    };
    let mut failures = Vec::new();
    for c in costs {
        let Some(base) = json_number(rel_section, c.scheme.name()) else {
            // A scheme missing from the baseline is not a regression —
            // the next baseline refresh will pin it.
            continue;
        };
        let rel = c.relative_cost;
        if rel > base * REGRESSION_TOLERANCE {
            failures.push(format!(
                "  {}: relative cost {:.4} vs baseline {:.4} (+{:.0}%)",
                c.scheme.name(),
                rel,
                base,
                (rel / base - 1.0) * 100.0
            ));
        }
    }
    failures
}

fn main() {
    let o = parse_args();

    let mut costs = Vec::new();
    for scheme in UpdateScheme::all_extended() {
        let c = scheme_cost(scheme, &o);
        let per_persist = c.ns_per_persist.map_or_else(
            || "no persists".to_string(),
            |ns| format!("{ns:.1} ns/persist"),
        );
        eprintln!(
            "hotpath: {:<10} {:>8.2} ns/instr  (relative cost {:.3}; {per_persist})",
            scheme.name(),
            c.ns_per_instr,
            c.relative_cost
        );
        costs.push(c);
    }

    let sweep = sweep_timing(&o);
    eprintln!(
        "hotpath: sweep ({} unique runs) cold {:.2}s, warm {:.2}s",
        sweep.unique_runs,
        sweep.cold.as_secs_f64(),
        sweep.warm.as_secs_f64()
    );

    let doc = render_json(&o, &costs, &sweep);
    if let Err(e) = std::fs::write(&o.out, &doc) {
        eprintln!("hotpath: cannot write {}: {e}", o.out.display());
        std::process::exit(2);
    }
    eprintln!("hotpath: wrote {}", o.out.display());

    if let Some(baseline_path) = &o.check {
        let baseline = match std::fs::read_to_string(baseline_path) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("hotpath: cannot read baseline {}: {e}", baseline_path.display());
                std::process::exit(2);
            }
        };
        let failures = check_regressions(&baseline, &costs);
        if !failures.is_empty() {
            eprintln!(
                "hotpath: PERF GATE FAILED (>{:.0}% over baseline):",
                (REGRESSION_TOLERANCE - 1.0) * 100.0
            );
            for f in &failures {
                eprintln!("{f}");
            }
            std::process::exit(1);
        }
        eprintln!("hotpath: perf gate passed against {}", baseline_path.display());
    }
}
