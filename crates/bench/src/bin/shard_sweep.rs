//! Shard sweep: the sharded multi-stream coordinator scaled over
//! shards ∈ {1, 2, 4, 8} (one client stream per shard), three schemes
//! (`sp`, `o3`, `coalescing`), two benchmarks.
//!
//! Three sections:
//!
//! 1. The artefact table (cycles per instruction normalized to the
//!    unsharded 1×1 point) from the declarative `shard_sweep` spec.
//! 2. A cross-shard mutation check: three deliberately broken
//!    coordinators (`SkipRootOfRoots`, `SkipEpochBarrier`,
//!    `ReorderAcks`) must each be caught by the new sanitizer rules,
//!    while the correct coordinator stays clean.
//! 3. Per-shard-count throughput, written to
//!    `results/shard_sweep_throughput.txt`.
//!
//! Exit codes: 0 clean, 1 sanitizer/mutation failure, 2 usage.
//!
//! Usage: `shard_sweep [instructions] [seed] [--threads N] [--serial]`

use std::time::Instant;

use plp_bench::{matrix, shard_spec, MatrixOptions, RunSettings};
use plp_core::{
    ShardMutation, ShardTopology, ShardedSetup, SimSetup, SystemConfig, UpdateScheme,
    ViolationKind,
};
use plp_events::stats::ShardedThroughput;
use plp_trace::{multi, spec, Trace, TraceGenerator};

fn usage() -> ! {
    eprintln!("usage: shard_sweep [instructions] [seed] [--threads N] [--serial]");
    std::process::exit(2);
}

fn sharded(scheme: UpdateScheme, streams: u32, shards: u32, seed: u64) -> ShardedSetup {
    let profile = spec::benchmark("gcc").expect("gcc profile");
    let setup = SimSetup::for_profile(SystemConfig::for_scheme(scheme), &profile, seed)
        .expect("valid config");
    ShardedSetup::new(setup, ShardTopology::new(streams, shards))
}

fn stream_traces(streams: u32, seed: u64, instructions: u64) -> Vec<Trace> {
    let profile = spec::benchmark("gcc").expect("gcc profile");
    (0..streams)
        .map(|s| {
            TraceGenerator::new(profile.clone(), multi::stream_seed(seed, s))
                .generate(instructions)
        })
        .collect()
}

fn main() {
    let mut settings = RunSettings::default();
    let mut positionals = 0;
    let mut threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--serial" => threads = 1,
            "--threads" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) if n > 0 => threads = n,
                _ => usage(),
            },
            _ => match (arg.parse::<u64>(), positionals) {
                (Ok(n), 0) => {
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

    // 1. The sweep artefact through the shared matrix (parallel,
    // cached, supervised like `all`).
    let spec_ = shard_spec();
    let requests = spec_.runs_needed(settings);
    let opts = MatrixOptions {
        threads,
        cache_dir: Some(matrix::default_cache_dir()),
    };
    let (results, stats) = matrix::execute(&requests, &opts);
    print!("{}", spec_.output(&results, settings));
    eprintln!("[plp-bench] shard_sweep: {}", stats.summary());

    let mut failed = false;

    // Correct sharded runs must uphold the whole contract, the new
    // cross-shard rules included.
    for req in &requests {
        let report = results.get(req);
        if !report.sanitizer.is_clean() {
            failed = true;
            eprintln!(
                "[plp-bench] shard_sweep: sanitizer violations in {}",
                req.key()
            );
        }
    }

    // 2. Mutation checks: each broken coordinator must trip its rule.
    let s = spec_.settings(settings);
    let mutant_instr = s.instructions.min(30_000);
    println!();
    println!("-- cross-shard mutation checks (2 streams x 2 shards, gcc)");
    let mutants: [(ShardMutation, UpdateScheme, ViolationKind); 3] = [
        (
            ShardMutation::SkipRootOfRoots,
            UpdateScheme::O3,
            ViolationKind::CrossShardRootOrder,
        ),
        (
            ShardMutation::SkipEpochBarrier,
            UpdateScheme::O3,
            ViolationKind::CrossShardRootOrder,
        ),
        (
            ShardMutation::ReorderAcks,
            UpdateScheme::Sp,
            ViolationKind::StreamOrder,
        ),
    ];
    for (mutation, scheme, kind) in mutants {
        let setup = sharded(scheme, 2, 2, s.seed);
        let traces = stream_traces(2, s.seed, mutant_instr);
        let refs: Vec<&Trace> = traces.iter().collect();
        let report = setup.run_mutated(&refs, mutation);
        let caught = report.sanitizer.count_of(kind);
        println!(
            "{:<18} {:<10} {:<22} {}",
            format!("{mutation:?}"),
            scheme.name(),
            kind.name(),
            if caught > 0 {
                format!("CAUGHT ({caught} violations)")
            } else {
                "MISSED".to_string()
            }
        );
        if caught == 0 {
            failed = true;
        }
    }

    // 3. Per-shard-count simulation throughput, recorded to results/.
    let mut throughput = ShardedThroughput::new();
    for (streams, shards) in plp_bench::specs::SHARD_POINTS {
        let setup = sharded(UpdateScheme::O3, streams, shards, s.seed);
        let traces = stream_traces(streams, s.seed, mutant_instr);
        let refs: Vec<&Trace> = traces.iter().collect();
        #[expect(
            clippy::disallowed_methods,
            reason = "wall-clock feeds the throughput file, never a simulation"
        )]
        let started = Instant::now();
        let report = setup.run(&refs);
        throughput.record(shards, report.total_cycles.get(), started.elapsed());
    }
    let mut out = String::from("shard_sweep per-shard-count throughput (gcc, o3)\n");
    for (shards, t) in throughput.shards() {
        out.push_str(&format!(
            "shards={shards}: {:.2}M sim-cycles/s ({} runs)\n",
            t.cycles_per_sec() / 1e6,
            t.runs()
        ));
    }
    out.push_str(&format!(
        "merged: {:.2}M sim-cycles/s over {} runs\n",
        throughput.merged().cycles_per_sec() / 1e6,
        throughput.merged().runs()
    ));
    let path = std::path::Path::new("results").join("shard_sweep_throughput.txt");
    match std::fs::create_dir_all("results").and_then(|_| std::fs::write(&path, &out)) {
        Ok(()) => eprintln!("[plp-bench] shard_sweep: throughput written to {}", path.display()),
        Err(e) => eprintln!("[plp-bench] shard_sweep: could not write {}: {e}", path.display()),
    }

    if failed {
        std::process::exit(1);
    }
}
