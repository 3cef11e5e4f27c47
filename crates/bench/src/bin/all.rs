//! Every paper artefact in one invocation: the one entry point of the
//! experiment registry.
//!
//! Collects the run requests of every registered [`plp_bench::specs`]
//! experiment, executes the union as one deduplicated matrix — in
//! parallel, through the on-disk run cache, and under the run
//! supervisor by default — and prints each artefact, separated by
//! blank lines. Execution statistics and the supervisor's degradation
//! report go to stderr so stdout is byte-identical across serial,
//! parallel, warm-cache and fully-recovered chaos runs.
//!
//! `--only ID[,ID…]` executes and renders only the named specs, in
//! registry order, through the same matrix; `all 400000 7 --only fig10`
//! prints exactly `results/fig10.txt`. An unknown id is a usage error.
//!
//! Chaos mode (`--chaos SEED`) injects a deterministic fault plan —
//! worker panics, artificial stalls, cache truncation, bit-flips and
//! IO errors — that the supervisor must absorb; `--chaos-hard N`
//! additionally makes N runs unrecoverable to demonstrate graceful
//! degradation (partial output, exit code 3).
//!
//! Exit codes: 0 clean (all faults, if any, recovered), 1 sanitizer
//! violation, 2 usage (including a zero instruction count or an
//! unknown `--only` id), 3 degraded (some runs produced no report).
//!
//! Usage: `all [instructions] [seed] [--only ID[,ID…]] [--serial]
//! [--threads N] [--no-cache] [--chaos SEED] [--chaos-hard N]
//! [--watchdog-ms N]`

use std::time::Duration;

use plp_bench::{
    all_specs, matrix, specs, ChaosOptions, MatrixOptions, RunSettings, SupervisorOptions,
};

fn usage() -> ! {
    let ids: Vec<&str> = all_specs().iter().map(|spec| spec.id).collect();
    eprintln!(
        "usage: all [instructions] [seed] [--only ID[,ID...]] [--serial] [--threads N] \
         [--no-cache] [--chaos SEED] [--chaos-hard N] [--watchdog-ms N]\n  \
         instructions > 0; IDs: {}",
        ids.join(", ")
    );
    std::process::exit(2);
}

/// Parses `--only`'s comma-separated spec ids; `None` if any of them
/// is not registered.
fn parse_only(list: &str) -> Option<Vec<&'static str>> {
    list.split(',')
        .map(|id| specs::find(id).map(|spec| spec.id))
        .collect()
}

/// Parses a chaos seed, accepting both decimal and `0x`-prefixed hex
/// (the verify gate uses `--chaos 0xC0FFEE`).
fn parse_seed(arg: &str) -> Option<u64> {
    if let Some(hex) = arg.strip_prefix("0x").or_else(|| arg.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        arg.parse().ok()
    }
}

fn main() {
    let mut settings = RunSettings::default();
    let mut positionals = 0;
    let mut threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut cached = true;
    let mut chaos_seed: Option<u64> = None;
    let mut chaos_hard = 0usize;
    let mut watchdog_ms: Option<u64> = None;
    let mut only: Option<Vec<&'static str>> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--serial" => threads = 1,
            "--no-cache" => cached = false,
            "--only" => match args.next().as_deref().and_then(parse_only) {
                Some(ids) => only.get_or_insert_with(Vec::new).extend(ids),
                None => usage(),
            },
            "--threads" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) if n > 0 => threads = n,
                _ => usage(),
            },
            "--chaos" => match args.next().as_deref().and_then(parse_seed) {
                Some(seed) => chaos_seed = Some(seed),
                None => usage(),
            },
            "--chaos-hard" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) => chaos_hard = n,
                None => usage(),
            },
            "--watchdog-ms" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) if n > 0 => watchdog_ms = Some(n),
                _ => usage(),
            },
            _ => match (arg.parse::<u64>(), positionals) {
                (Ok(n), 0) if n > 0 => {
                    settings.instructions = n;
                    positionals = 1;
                }
                (Ok(n), 1) => {
                    settings.seed = n;
                    positionals = 2;
                }
                _ => usage(),
            },
        }
    }

    let opts = MatrixOptions {
        threads,
        cache_dir: cached.then(matrix::default_cache_dir),
    };
    let mut sup = SupervisorOptions::new(opts.clone());
    if let Some(seed) = chaos_seed {
        sup.chaos = Some(ChaosOptions {
            seed,
            unrecoverable: chaos_hard,
            ..ChaosOptions::new(seed)
        });
        // Chaos stalls are sized to trip the watchdog; a snappy
        // timeout keeps the sweep's wall-clock reasonable.
        sup.watchdog = Duration::from_millis(1500);
    }
    if let Some(ms) = watchdog_ms {
        sup.watchdog = Duration::from_millis(ms);
    }
    let selected: Vec<_> = all_specs()
        .iter()
        .filter(|spec| only.as_ref().is_none_or(|ids| ids.contains(&spec.id)))
        .collect();
    let requests: Vec<_> = selected
        .iter()
        .flat_map(|spec| spec.runs_needed(settings))
        .collect();
    let (results, stats, degradation) = matrix::execute_supervised(&requests, &sup);

    // Sanitizer tallies come off the executed result set, so each run
    // is counted exactly once however many specs request it.
    let (mut checked, mut violations) = (0u64, 0u64);
    let mut offenders = Vec::new();
    let executed_runs = results.len();
    for (key, report) in results.iter() {
        let s = &report.sanitizer;
        checked += s.checked_persists + s.checked_node_updates + s.checked_epochs;
        violations += s.total_violations();
        if s.total_violations() > 0 {
            offenders.push((key.clone(), s.clone()));
        }
    }

    // Render only the artefacts whose every run survived; a spec with
    // missing runs is skipped (noted on stderr below) instead of
    // panicking mid-print. Surviving artefacts keep their exact bytes
    // and blank-line separation.
    let mut first = true;
    let mut skipped = Vec::new();
    for spec in &selected {
        let complete = spec
            .runs_needed(settings)
            .iter()
            .all(|req| results.contains(req));
        if !complete {
            skipped.push(spec.id);
            continue;
        }
        if !first {
            println!();
        }
        first = false;
        print!("{}", spec.output(&results, settings));
    }
    eprintln!(
        "[plp-bench] all ({} threads{}): {}",
        opts.threads,
        if cached { ", cached" } else { ", uncached" },
        stats.summary()
    );
    if !degradation.is_event_free() {
        eprint!("{}", degradation.render());
    }
    for id in &skipped {
        eprintln!("[plp-bench] artefact {id} skipped: runs missing after degraded execution");
    }

    // Sanitizer verdict — stderr only, so stdout stays byte-identical
    // with sanitizer-off runs. Any invariant violation fails the
    // invocation: the numbers above would be measurements of a broken
    // ordering model.
    eprintln!(
        "[plp-bench] sanitizer: {} events checked across {} runs, {} violations",
        checked, executed_runs, violations
    );
    if violations > 0 {
        offenders.sort_unstable_by_key(|(key, _)| key.clone());
        for (key, s) in offenders {
            eprintln!(
                "[plp-bench]   {} violations ({} detailed, {} dropped) in {key}",
                s.total_violations(),
                s.violations.len(),
                s.dropped_violations
            );
            for v in s.violations.iter().take(5) {
                eprintln!("[plp-bench]     {v}");
            }
        }
        std::process::exit(1);
    }
    if !degradation.fully_recovered() {
        std::process::exit(3);
    }
}
