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
//! Isolated mode (`--isolate`) re-execs this binary as
//! `all … --run-one <key>` once per simulated run: the child applies
//! rlimits to itself, runs exactly one request, and returns its report
//! over stdout as one checksummed frame (see `plp_bench::isolate`).
//! Stdout stays byte-identical to in-process execution; watchdog trips
//! become real SIGKILLs and an over-limit child degrades to an
//! `oom-killed` verdict instead of a hung sweep.
//!
//! Exit codes: 0 clean (all faults, if any, recovered), 1 sanitizer
//! violation, 2 usage (including a zero instruction count or an
//! unknown `--only` id), 3 degraded (some runs produced no report).
//!
//! Usage: `all [instructions] [seed] [--only ID[,ID…]] [--serial]
//! [--threads N] [--no-cache] [--chaos SEED] [--chaos-hard N]
//! [--watchdog-ms N] [--isolate]`

use std::io::Write;
use std::time::Duration;

use plp_bench::{
    all_specs, cache, isolate, matrix, specs, ChaosOptions, IsolateOptions, MatrixOptions,
    ResourceLimits, RunSettings, SupervisorOptions,
};

fn usage() -> ! {
    let ids: Vec<&str> = all_specs().iter().map(|spec| spec.id).collect();
    eprintln!(
        "usage: all [instructions] [seed] [--only ID[,ID...]] [--serial] [--threads N] \
         [--no-cache] [--chaos SEED] [--chaos-hard N] [--watchdog-ms N] [--isolate]\n  \
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

/// Child mode (`--run-one <key>`): apply rlimits, fire any injected
/// chaos, reconstruct the request whose identity is `key` from the
/// spec registry, run it, and write the report frame to stdout.
fn run_one_main(args: &[String]) -> ! {
    let mut key: Option<String> = None;
    let mut settings = RunSettings::default();
    let mut positionals = 0;
    let mut limits = ResourceLimits {
        address_space_bytes: None,
        cpu_secs: None,
    };
    let mut chaos_panic = false;
    let mut chaos_oom = false;
    let mut stall_ms: Option<u64> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--run-one" => key = it.next().cloned(),
            "--limit-as" => limits.address_space_bytes = it.next().and_then(|v| v.parse().ok()),
            "--limit-cpu" => limits.cpu_secs = it.next().and_then(|v| v.parse().ok()),
            "--chaos-panic" => chaos_panic = true,
            "--chaos-oom" => chaos_oom = true,
            "--chaos-stall-ms" => stall_ms = it.next().and_then(|v| v.parse().ok()),
            other => {
                if let Ok(n) = other.parse::<u64>() {
                    match positionals {
                        0 => settings.instructions = n,
                        1 => settings.seed = n,
                        _ => {}
                    }
                    positionals += 1;
                }
            }
        }
    }
    let Some(key) = key else {
        eprintln!("run-one: missing key");
        std::process::exit(2);
    };
    if let Err(e) = isolate::apply_self_limits(&limits) {
        eprintln!("run-one: {e} (continuing unlimited)");
    }
    if let Some(ms) = stall_ms {
        std::thread::sleep(Duration::from_millis(ms));
    }
    if chaos_panic {
        panic!("chaos: injected worker panic");
    }
    if chaos_oom {
        isolate::allocation_bomb();
    }
    let request = all_specs()
        .iter()
        .flat_map(|spec| spec.runs_needed(settings))
        .find(|req| req.key() == key);
    let Some(request) = request else {
        eprintln!("run-one: no spec produces key {key}");
        std::process::exit(isolate::EXIT_UNKNOWN_KEY);
    };
    match matrix::run_single(&request) {
        Ok(report) => {
            if std::io::stdout()
                .write_all(&cache::encode(&key, &report))
                .is_err()
            {
                std::process::exit(isolate::EXIT_RUN_FAILED);
            }
            std::process::exit(0);
        }
        Err(e) => {
            eprintln!("run-one: {e}");
            std::process::exit(isolate::EXIT_RUN_FAILED);
        }
    }
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
    let raw_args: Vec<String> = std::env::args().skip(1).collect();
    if raw_args.iter().any(|a| a == "--run-one") {
        run_one_main(&raw_args);
    }

    let mut settings = RunSettings::default();
    let mut positionals = 0;
    let mut threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut cached = true;
    let mut chaos_seed: Option<u64> = None;
    let mut chaos_hard = 0usize;
    let mut watchdog_ms: Option<u64> = None;
    let mut isolated = false;
    let mut only: Option<Vec<&'static str>> = None;
    let mut test_oom_key: Option<String> = None;

    let mut args = raw_args.into_iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--serial" => threads = 1,
            "--no-cache" => cached = false,
            "--isolate" => isolated = true,
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
            // Test-only hook: force one isolated child (matched by key
            // substring) to OOM under its rlimit. Hidden from usage; no
            // effect without --isolate.
            "--test-oom-key" => test_oom_key = args.next(),
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
    if isolated {
        let exe = match std::env::current_exe() {
            Ok(p) => p,
            Err(e) => {
                eprintln!("[plp-bench] --isolate: cannot locate own binary: {e}");
                std::process::exit(2);
            }
        };
        let base_args = vec![settings.instructions.to_string(), settings.seed.to_string()];
        let mut iso = IsolateOptions::new(exe, base_args);
        iso.oom_key = test_oom_key;
        sup.isolation = Some(iso);
    }

    // The `--run-one` children look their keys up in the full
    // registry, so `--only` narrows only what this process requests
    // and prints.
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
