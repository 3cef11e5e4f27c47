//! `plp-sim` — the general-purpose simulation CLI.
//!
//! Run any benchmark (or a custom workload) under any scheme with any
//! knob, and print the full report:
//!
//! ```text
//! plp_sim --bench gcc --scheme coalescing --instructions 1000000 \
//!         --epoch 64 --wpq 32 --mac 40 --seed 7 --scope nonstack
//! plp_sim --bench milc --instructions 20000 --save-trace milc.plpt
//! plp_sim --bench milc --load-trace milc.plpt
//! plp_sim --list
//! ```
//!
//! A loaded trace replaces the generated one, so `--instructions` and
//! `--seed` do not apply to it: the header line names the trace file
//! and its own instruction count.

use plp_core::{ProtectionScope, SystemConfig, UpdateScheme};
use plp_events::Cycle;
use plp_trace::spec;

struct Args {
    bench: String,
    scheme: UpdateScheme,
    instructions: u64,
    seed: u64,
    config: SystemConfig,
    baseline: bool,
    save_trace: Option<String>,
    load_trace: Option<String>,
}

fn parse_scheme(s: &str) -> Option<UpdateScheme> {
    UpdateScheme::all_extended()
        .into_iter()
        .find(|u| u.name().eq_ignore_ascii_case(s))
}

fn usage() -> ! {
    eprintln!(
        "usage: plp_sim [--bench NAME] [--scheme NAME] [--instructions N] [--seed N]\n\
        \x20              [--epoch N] [--wpq N] [--ett N] [--mac CYCLES] [--llc MB]\n\
        \x20              [--mdc KB] [--scope nonstack|full] [--ideal-mdc] [--no-baseline]\n\
        \x20              [--sanitizer off|check] [--save-trace FILE] [--load-trace FILE]\n\
        \x20      plp_sim --list\n\
        \n\
        instructions > 0; schemes: {}",
        UpdateScheme::all_extended().map(|s| s.name()).join(", ")
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut args = Args {
        bench: "gcc".to_string(),
        scheme: UpdateScheme::Coalescing,
        instructions: 400_000,
        seed: 7,
        config: SystemConfig::default(),
        baseline: true,
        save_trace: None,
        load_trace: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = |it: &mut dyn Iterator<Item = String>| -> String {
            it.next().unwrap_or_else(|| usage())
        };
        match flag.as_str() {
            "--list" => {
                println!("benchmarks:");
                for p in spec::all_benchmarks() {
                    println!(
                        "  {:<11} ipc={:<5} store_ppki={:<7} nonstack={:<6}",
                        p.name, p.base_ipc, p.store_ppki_full, p.store_ppki_nonstack
                    );
                }
                println!();
                println!(
                    "schemes: {}",
                    UpdateScheme::all_extended().map(|s| s.name()).join(", ")
                );
                std::process::exit(0);
            }
            "--bench" => args.bench = value(&mut it),
            "--scheme" => args.scheme = parse_scheme(&value(&mut it)).unwrap_or_else(|| usage()),
            "--instructions" => match value(&mut it).parse() {
                Ok(n) if n > 0 => args.instructions = n,
                _ => usage(),
            },
            "--seed" => args.seed = value(&mut it).parse().unwrap_or_else(|_| usage()),
            "--epoch" => {
                args.config.epoch_size = value(&mut it).parse().unwrap_or_else(|_| usage())
            }
            "--wpq" => args.config.wpq_entries = value(&mut it).parse().unwrap_or_else(|_| usage()),
            "--ett" => args.config.ett_entries = value(&mut it).parse().unwrap_or_else(|_| usage()),
            "--mac" => {
                args.config.mac_latency =
                    Cycle::new(value(&mut it).parse().unwrap_or_else(|_| usage()))
            }
            "--llc" => {
                let mb: usize = value(&mut it).parse().unwrap_or_else(|_| usage());
                args.config.llc_bytes = mb << 20;
            }
            "--mdc" => {
                let kb: usize = value(&mut it).parse().unwrap_or_else(|_| usage());
                args.config.metadata_cache_bytes = kb << 10;
            }
            "--scope" => {
                args.config.scope = match value(&mut it).as_str() {
                    "nonstack" => ProtectionScope::NonStack,
                    "full" => ProtectionScope::Full,
                    _ => usage(),
                }
            }
            "--sanitizer" => {
                args.config.sanitizer = plp_core::sanitizer::SanitizerMode::parse(&value(&mut it))
                    .unwrap_or_else(|| usage())
            }
            "--ideal-mdc" => args.config.ideal_metadata = true,
            "--no-baseline" => args.baseline = false,
            "--save-trace" => args.save_trace = Some(value(&mut it)),
            "--load-trace" => args.load_trace = Some(value(&mut it)),
            _ => usage(),
        }
    }
    args.config.scheme = args.scheme;
    args
}

fn main() {
    let args = parse_args();
    let Some(profile) = spec::benchmark(&args.bench) else {
        eprintln!(
            "unknown benchmark '{}' — try --list for the 15 available profiles",
            args.bench
        );
        std::process::exit(2);
    };

    // Build (or load) the trace, optionally persist it, then run.
    let trace = match &args.load_trace {
        Some(path) => plp_trace::codec::load_trace(path).unwrap_or_else(|e| {
            eprintln!("failed to load trace {path}: {e}");
            std::process::exit(1);
        }),
        None => {
            plp_trace::TraceGenerator::new(profile.clone(), args.seed).generate(args.instructions)
        }
    };
    if let Some(path) = &args.save_trace {
        if let Err(e) = plp_trace::codec::save_trace(&trace, path) {
            eprintln!("failed to save trace {path}: {e}");
            std::process::exit(1);
        }
        println!("trace saved to {path} ({} events)", trace.op_count());
    }
    let setup = plp_core::SimSetup::with_base_ipc(args.config.clone(), profile.base_ipc)
        .unwrap_or_else(|e| {
            eprintln!("invalid configuration: {e}");
            std::process::exit(2);
        });
    let report = setup.run(&trace);
    let source = match &args.load_trace {
        Some(path) => format!("trace {path}"),
        None => format!("seed {}", args.seed),
    };
    println!(
        "{} / {} / {} instructions ({source})",
        profile.name,
        args.scheme.name(),
        trace.total_instructions()
    );
    println!("  {report}");
    println!(
        "  writebacks={} wpq_stall={} wpq_peak={} bmt_fetches={} saved_updates={}",
        report.writebacks,
        report.wpq_stall_cycles,
        report.wpq_peak,
        report.engine.bmt_fetches,
        report.coalesced_saved_updates
    );
    println!(
        "  caches: L1 {:.1}% L2 {:.1}% L3 {:.1}% | ctr {:.1}% mac {:.1}% bmt {:.1}%",
        report.data_caches[0].hit_ratio() * 100.0,
        report.data_caches[1].hit_ratio() * 100.0,
        report.data_caches[2].hit_ratio() * 100.0,
        report.metadata.counter.hit_ratio() * 100.0,
        report.metadata.mac.hit_ratio() * 100.0,
        report.metadata.bmt.hit_ratio() * 100.0,
    );
    println!(
        "  nvm: reads={} writes={} (+{} combined) row-hit={:.1}%",
        report.nvm.reads,
        report.nvm.writes,
        report.nvm.writes_combined,
        if report.nvm.row_hits + report.nvm.row_misses > 0 {
            report.nvm.row_hits as f64 * 100.0
                / (report.nvm.row_hits + report.nvm.row_misses) as f64
        } else {
            0.0
        }
    );

    if args.baseline && args.scheme != UpdateScheme::SecureWb {
        let mut base_cfg = args.config.clone();
        base_cfg.scheme = UpdateScheme::SecureWb;
        let base = plp_core::SimSetup::with_base_ipc(base_cfg, profile.base_ipc)
            .expect("baseline config derives from a validated one")
            .run(&trace);
        println!(
            "  vs secure_WB: {:.3}x ({:+.1}% overhead)",
            report.normalized_to(&base),
            (report.normalized_to(&base) - 1.0) * 100.0
        );
    }
}
