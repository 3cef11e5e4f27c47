//! Recovery-time axis of the scheme zoo: a runtime-vs-recovery Pareto
//! frontier, measured.
//!
//! Per durable-capable scheme and BMT height, the sweep runs a full
//! simulation with the file-backed durable sink attached, cuts the
//! image at enumerated byte fractions (every cut is a legal SIGKILL
//! instant — the same quantification the recovery-idempotence proptest
//! uses), replays each cut and times the modeled full-device recovery
//! through [`RecoveryManager::for_config`]. The worst cut per height is
//! the reported recovery latency, so the table answers "how long until
//! service resumes after the least convenient crash, as a function of
//! protected-memory size".
//!
//! The runtime axis is the same run's simulated execution time at the
//! default geometry, normalized to `secure_WB` — together the two
//! columns are the Pareto frontier the zoo schemes span: `phoenix`
//! pays the highest runtime for O(1) tree recovery, `triad_nvm` a
//! middling runtime for a truncated rebuild, the volatile-tree paper
//! schemes the lowest runtime for a full rebuild.
//!
//! Everything here is simulated, so the table is byte-deterministic:
//! the verify gate regenerates it and `cmp`s against the committed
//! `results/recovery_pareto.txt`, and `--check` compares the JSON
//! envelope against `results/BENCH_recovery_baseline.json` exactly
//! (integers) / to float-print precision (overheads).
//!
//! Usage: `recovery_sweep [instructions] [seed] [--out PATH]
//! [--check BASELINE] [--table PATH]`

use std::path::PathBuf;

use plp_core::{
    replay_image, DurableSink, FaultVerdict, ObserverExpectation, RebuildStrategy, RecoveryManager,
    SimSetup, SystemConfig, UpdateScheme,
};
use plp_nvm::image::IMAGE_HEADER_BYTES;
use plp_trace::spec;

/// BMT heights swept: 8-ary trees covering 256K, 16M and 1G leaf
/// blocks — the protected-memory-size axis.
const LEVELS: [u32; 3] = [7, 9, 11];

/// Height the runtime column is measured at (the paper default).
const RUNTIME_LEVELS: u32 = 9;

/// Image-cut fractions of the bytes past [`CUT_BASE`]: the enumerated
/// crash points. 1.0 is the graceful-shutdown control; the others land
/// the kill mid-history.
const CUTS: [f64; 4] = [0.25, 0.5, 0.75, 1.0];

/// Byte offset the [`CUTS`] fractions are measured from. It is not the
/// header length ([`IMAGE_HEADER_BYTES`]): the committed Pareto table
/// and baseline were measured from this offset, and `unordered`'s
/// column moves if the cuts shift by even a few bytes. Cuts that would
/// land inside the header are clamped to its end.
const CUT_BASE: usize = 32;

/// Every scheme that can attach the durable sink, zoo included.
const SCHEMES: [UpdateScheme; 7] = [
    UpdateScheme::Unordered,
    UpdateScheme::Sp,
    UpdateScheme::Pipeline,
    UpdateScheme::O3,
    UpdateScheme::Coalescing,
    UpdateScheme::TriadNvm,
    UpdateScheme::Phoenix,
];

/// Relative tolerance when `--check`ing the printed-then-parsed
/// runtime overheads; recovery cycles must match exactly.
const FLOAT_TOLERANCE: f64 = 1e-6;

struct Options {
    instructions: u64,
    seed: u64,
    out: PathBuf,
    check: Option<PathBuf>,
    table: PathBuf,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            // Short by default: the run records every persist, which
            // is memory-heavy.
            instructions: 20_000,
            seed: 7,
            out: PathBuf::from("BENCH_recovery.json"),
            check: None,
            table: PathBuf::from("results/recovery_pareto.txt"),
        }
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: recovery_sweep [instructions] [seed] [--out PATH] [--check BASELINE] \
         [--table PATH]"
    );
    std::process::exit(2);
}

fn parse_args() -> Options {
    let mut o = Options::default();
    let mut positionals = 0;
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
            "--table" => match args.next() {
                Some(p) => o.table = PathBuf::from(p),
                None => usage(),
            },
            other => match (other.parse::<u64>(), positionals) {
                (Ok(n), 0) if n > 0 => {
                    o.instructions = n;
                    positionals = 1;
                }
                (Ok(n), 1) => {
                    o.seed = n;
                    positionals = 2;
                }
                _ => usage(),
            },
        }
    }
    o
}

/// One scheme's measured row.
struct ParetoRow {
    scheme: UpdateScheme,
    strategy: RebuildStrategy,
    /// Execution time at [`RUNTIME_LEVELS`], normalized to secure_WB.
    runtime_overhead: f64,
    /// Worst-cut modeled recovery cycles, one per [`LEVELS`] entry.
    recovery_cycles: Vec<u64>,
}

fn temp_image(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("plp-recovery-sweep-{name}-{}.img", std::process::id()))
}

fn config_for(scheme: UpdateScheme, levels: u32) -> SystemConfig {
    let mut config = SystemConfig::for_scheme(scheme);
    config.bmt = plp_bmt::BmtGeometry::new(8, levels);
    config
}

/// Simulated execution cycles of `scheme` at `levels`, no sink.
fn runtime_cycles(scheme: UpdateScheme, levels: u32, o: &Options) -> u64 {
    let config = config_for(scheme, levels);
    let profile = spec::benchmark("gcc").expect("gcc is a registered benchmark");
    let setup = SimSetup::for_profile(config, &profile, o.seed).expect("valid sweep config");
    let trace = setup.generate_trace(o.instructions);
    setup.simulation().run(&trace).total_cycles.get()
}

/// Worst-cut recovery latency for `scheme` at `levels`: run once with
/// the sink attached, then replay + recover every enumerated cut.
/// Exits non-zero if a recovery-correct scheme ever shows silent
/// corruption or rollback — the table must not tabulate a broken
/// scheme as if it were merely slow.
fn worst_recovery_cycles(scheme: UpdateScheme, levels: u32, o: &Options) -> u64 {
    let mut config = config_for(scheme, levels);
    config.record_persists = true;
    let profile = spec::benchmark("gcc").expect("gcc is a registered benchmark");
    let setup = SimSetup::for_profile(config, &profile, o.seed).expect("valid sweep config");
    let trace = setup.generate_trace(o.instructions);
    let path = temp_image(&format!("{}-{levels}", scheme.name()));
    let mut sim = setup.simulation();
    sim.attach_durable_sink(
        DurableSink::create(&path, setup.config(), o.seed).expect("writable temp image"),
    );
    let (report, finished) = sim.run_with_state(&trace);
    assert_eq!(finished.durable_error(), None, "durable sink failed");
    let bytes = std::fs::read(&path).expect("readable image");
    let _ = std::fs::remove_file(&path);

    let manager = RecoveryManager::for_config(setup.config());
    let key = setup.config().key;
    let correct = UpdateScheme::correct().contains(&scheme);
    let mut worst = 0u64;
    for (i, cut) in CUTS.iter().enumerate() {
        // Keep the whole image header — the sink writes it before the
        // run starts, so no kill can cut into it.
        let len = (CUT_BASE + (bytes.len().saturating_sub(CUT_BASE) as f64 * cut) as usize)
            .clamp(IMAGE_HEADER_BYTES.min(bytes.len()), bytes.len());
        let cut_path = temp_image(&format!("{}-{levels}-cut{i}", scheme.name()));
        std::fs::write(&cut_path, &bytes[..len]).expect("writable cut image");
        let replayed = replay_image(&cut_path, key).expect("replayable cut image");
        let _ = std::fs::remove_file(&cut_path);
        let expected =
            ObserverExpectation::from_complete_ids(&report.records, &replayed.complete_ids);
        let outcome = manager.recover(&replayed.image, &report.records, &expected);
        if correct
            && matches!(
                outcome.verdict(),
                FaultVerdict::UndetectedCorruption | FaultVerdict::StaleRollback
            )
        {
            eprintln!(
                "recovery_sweep: {} at {levels} levels, cut {cut}: {}",
                scheme.name(),
                outcome
            );
            std::process::exit(1);
        }
        worst = worst.max(outcome.recovery_cycles);
    }
    worst
}

fn render_table(o: &Options, rows: &[ParetoRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "-- runtime-vs-recovery Pareto frontier (gcc, {} instructions, seed {})\n",
        o.instructions, o.seed
    ));
    out.push_str(&format!(
        "-- runtime: execution time at {RUNTIME_LEVELS} levels normalized to secure_WB\n"
    ));
    out.push_str(
        "-- recovery: worst-cut modeled cycles to resume service, per BMT height\n",
    );
    out.push_str(&format!(
        "{:<11} {:>8} {:>9}",
        "scheme", "strategy", "runtime"
    ));
    for levels in LEVELS {
        out.push_str(&format!(" {:>11}", format!("rec@{levels}lv")));
    }
    out.push('\n');
    for row in rows {
        out.push_str(&format!(
            "{:<11} {:>8} {:>8.3}x",
            row.scheme.name(),
            row.strategy.name(),
            row.runtime_overhead
        ));
        for cycles in &row.recovery_cycles {
            out.push_str(&format!(" {cycles:>11}"));
        }
        out.push('\n');
    }
    let frontier: Vec<&str> = rows
        .iter()
        .filter(|r| {
            // Pareto-optimal at the largest height: no other scheme is
            // at least as good on both axes and better on one.
            !rows.iter().any(|other| {
                let (ro, rr) = (other.runtime_overhead, *other.recovery_cycles.last().unwrap());
                let (so, sr) = (r.runtime_overhead, *r.recovery_cycles.last().unwrap());
                ro <= so && rr <= sr && (ro < so || rr < sr)
            })
        })
        .map(|r| r.scheme.name())
        .collect();
    out.push_str(&format!(
        "-- Pareto-optimal at {} levels: {}\n",
        LEVELS[LEVELS.len() - 1],
        frontier.join(", ")
    ));
    out
}

fn render_json(o: &Options, rows: &[ParetoRow]) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"format\": 1,\n");
    out.push_str(&format!("  \"instructions\": {},\n", o.instructions));
    out.push_str(&format!("  \"seed\": {},\n", o.seed));
    out.push_str("  \"runtime_overhead\": {\n");
    for (i, row) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        out.push_str(&format!(
            "    \"{}\": {:.6}{}\n",
            row.scheme.name(),
            row.runtime_overhead,
            comma
        ));
    }
    out.push_str("  },\n");
    out.push_str("  \"recovery_cycles\": {\n");
    for (i, row) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        out.push_str(&format!(
            "    \"{}\": {}{}\n",
            row.scheme.name(),
            row.recovery_cycles.last().unwrap(),
            comma
        ));
    }
    out.push_str("  }\n");
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

/// Compares fresh values against the committed baseline. The sweep is
/// fully simulated, so this is an equality check, not a tolerance
/// band: recovery cycles must match exactly, overheads to print
/// precision. A scheme missing from the baseline is tolerated — the
/// next refresh will pin it.
fn check_baseline(baseline: &str, rows: &[ParetoRow]) -> Vec<String> {
    let mut failures = Vec::new();
    let section = |name: &str| baseline.find(name).map(|pos| &baseline[pos..]);
    let Some(overheads) = section("\"runtime_overhead\"") else {
        return vec!["  baseline has no \"runtime_overhead\" section".to_string()];
    };
    let Some(cycles) = section("\"recovery_cycles\"") else {
        return vec!["  baseline has no \"recovery_cycles\" section".to_string()];
    };
    for row in rows {
        if let Some(base) = json_number(overheads, row.scheme.name()) {
            let fresh = row.runtime_overhead;
            if (fresh - base).abs() > FLOAT_TOLERANCE * base.max(1.0) {
                failures.push(format!(
                    "  {}: runtime overhead {fresh:.6} vs baseline {base:.6}",
                    row.scheme.name()
                ));
            }
        }
        if let Some(base) = json_number(cycles, row.scheme.name()) {
            let fresh = *row.recovery_cycles.last().unwrap() as f64;
            if fresh != base {
                failures.push(format!(
                    "  {}: recovery cycles {fresh} vs baseline {base}",
                    row.scheme.name()
                ));
            }
        }
    }
    failures
}

fn main() {
    let o = parse_args();

    let wb_cycles = runtime_cycles(UpdateScheme::SecureWb, RUNTIME_LEVELS, &o);
    let mut rows = Vec::new();
    for scheme in SCHEMES {
        let runtime_overhead = runtime_cycles(scheme, RUNTIME_LEVELS, &o) as f64
            / wb_cycles.max(1) as f64;
        let recovery_cycles: Vec<u64> = LEVELS
            .iter()
            .map(|&levels| worst_recovery_cycles(scheme, levels, &o))
            .collect();
        eprintln!(
            "recovery_sweep: {:<10} runtime {:>6.3}x  recovery {:?}",
            scheme.name(),
            runtime_overhead,
            recovery_cycles
        );
        rows.push(ParetoRow {
            scheme,
            strategy: RebuildStrategy::for_config(&config_for(scheme, RUNTIME_LEVELS)),
            runtime_overhead,
            recovery_cycles,
        });
    }

    let table = render_table(&o, &rows);
    print!("{table}");
    if let Some(parent) = o.table.parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    if let Err(e) = std::fs::write(&o.table, &table) {
        eprintln!("recovery_sweep: cannot write {}: {e}", o.table.display());
        std::process::exit(2);
    }

    let doc = render_json(&o, &rows);
    if let Err(e) = std::fs::write(&o.out, &doc) {
        eprintln!("recovery_sweep: cannot write {}: {e}", o.out.display());
        std::process::exit(2);
    }
    eprintln!(
        "recovery_sweep: wrote {} and {}",
        o.table.display(),
        o.out.display()
    );

    if let Some(baseline_path) = &o.check {
        let baseline = match std::fs::read_to_string(baseline_path) {
            Ok(b) => b,
            Err(e) => {
                eprintln!(
                    "recovery_sweep: cannot read baseline {}: {e}",
                    baseline_path.display()
                );
                std::process::exit(2);
            }
        };
        let failures = check_baseline(&baseline, &rows);
        if !failures.is_empty() {
            eprintln!("recovery_sweep: BASELINE GATE FAILED:");
            for f in &failures {
                eprintln!("{f}");
            }
            std::process::exit(1);
        }
        eprintln!(
            "recovery_sweep: baseline gate passed against {}",
            baseline_path.display()
        );
    }
}
