//! SIGKILL-and-recover robustness matrix over a *real* file-backed
//! device image (see `DESIGN.md` §11 and `crates/bench/src/crash.rs`).
//!
//! Two modes in one binary:
//!
//! * **parent** (default): GC stale images and quarantined cache
//!   entries, then for every `(scheme, failpoint, hit)` cell re-execute
//!   itself in child mode, SIGKILL the child when its failpoint parks,
//!   replay the orphaned image and judge recovery against a golden
//!   in-process run. Exits 0 only if the gate passes: the four correct
//!   engines recover Clean/Repaired with matching counter state from
//!   every kill, the `unordered` strawman demonstrably loses data at
//!   least once (but never silently), and nothing times out.
//! * **child** (`--child ...`): one simulation with a durable sink
//!   attached and (optionally) a park-mode failpoint armed. Prints the
//!   park marker and waits for the kill, or a deterministic COMPLETED
//!   line — byte-identical whether or not `--image` is given, which
//!   `scripts/verify.sh` checks with `cmp`.
//!
//! A third mode, `--double-kill`, runs the nested-crash matrix: kill
//! the run, re-exec the image into durable recovery, SIGKILL the
//! recovery at each recovery failpoint, and require a third process
//! to finish with verdict Clean and field-exact counters (DetectedLoss
//! for the strawman). Recovery children are `--child --recover ...`.
//!
//! Usage (exit codes: 0 PASS, 1 FAIL, 2 usage):
//!   crash_harness [instructions] [seed] [--points p1,p2,..] [--hits h1,h2,..]
//!   crash_harness [instructions] [seed] --double-kill [--points ..]
//!   crash_harness --child --scheme S --benchmark B --instructions N \
//!                 --seed K [--image PATH] [--failpoint F --hit H] [--recover]

use std::time::Duration;

use plp_bench::crash::{
    render, render_double_kill, run_double_kill, run_harness, ChildSpec, HarnessOptions,
};
use plp_core::Failpoint;

fn child_main(args: &[String]) -> ! {
    let run = ChildSpec::from_args(args).and_then(|spec| {
        if spec.recover {
            plp_bench::crash::run_recover_child(&spec)
        } else {
            plp_bench::crash::run_child(&spec)
        }
    });
    match run {
        Ok(line) => {
            println!("{line}");
            std::process::exit(0);
        }
        Err(e) => {
            eprintln!("crash-harness child: {e}");
            std::process::exit(1);
        }
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: crash_harness [instructions] [seed] [--double-kill] [--points p1,p2,..] \
         [--hits h1,h2,..] [--watchdog-secs N]"
    );
    std::process::exit(2);
}

fn parse_points(list: &str) -> Option<Vec<Failpoint>> {
    list.split(',')
        .map(|name| Failpoint::parse(name.trim()))
        .collect()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--child") {
        child_main(&args);
    }

    let mut opts = HarnessOptions::default();
    let mut double_kill = false;
    let mut positional = 0;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--double-kill" => double_kill = true,
            "--points" => match it.next().and_then(|list| parse_points(list)) {
                Some(points) => opts.points = points,
                None => usage(),
            },
            "--hits" => match it
                .next()
                .and_then(|list| list.split(',').map(|h| h.trim().parse().ok()).collect())
            {
                Some(hits) => opts.hits = Some(hits),
                None => usage(),
            },
            "--watchdog-secs" => match it.next().and_then(|v| v.parse().ok()) {
                Some(secs) => opts.watchdog = Duration::from_secs(secs),
                None => usage(),
            },
            other => {
                match (positional, other.parse()) {
                    (0, Ok(n)) => opts.instructions = n,
                    (1, Ok(n)) => opts.seed = n,
                    _ => usage(),
                }
                positional += 1;
            }
        }
    }

    let exe = std::env::current_exe().expect("current_exe resolves");
    if double_kill {
        println!("== Crash harness: nested-crash (double-kill) recovery matrix ==");
        println!(
            "workload {}, {} instructions, seed {}; each cell kills a run, \
             kills its recovery at a recovery failpoint, then requires a \
             third process to recover completely",
            opts.benchmark, opts.instructions, opts.seed
        );
        println!();
        match run_double_kill(&opts, &exe) {
            Ok(report) => {
                print!("{}", render_double_kill(&report));
                println!();
                if report.pass {
                    println!("crash harness: PASS");
                    return;
                }
                println!("crash harness: FAIL");
                std::process::exit(1);
            }
            Err(e) => {
                eprintln!("crash harness: {e}");
                std::process::exit(1);
            }
        }
    }

    println!("== Crash harness: real-process SIGKILL x file-backed recovery ==");
    println!(
        "workload {}, {} instructions, seed {}; each cell forks a child, \
         kills it at a named failpoint, and replays the surviving image",
        opts.benchmark, opts.instructions, opts.seed
    );
    println!();

    match run_harness(&opts, &exe) {
        Ok(report) => {
            print!("{}", render(&report));
            println!();
            if report.pass {
                println!("crash harness: PASS");
            } else {
                println!("crash harness: FAIL");
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("crash harness: {e}");
            std::process::exit(1);
        }
    }
}
