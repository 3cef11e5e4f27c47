//! `perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]`
//!
//! Prints human-readable lines, then one JSON result object as the
//! last line of stdout. Untraced runs report the end-to-end metrics;
//! traced runs (`--trace 1`) report the per-layer ledger.

use perfbench::host::WorkDir;
use perfbench::metrics::{result_json, END_TO_END, PER_LAYER};
use perfbench::run;

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload {{{}}} [--seed N] [--seconds S] [--trace 0|1]",
        run::WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn main() {
    let mut workload = None;
    let mut seed = 7u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let value = args.next().unwrap_or_else(|| usage());
        match arg.as_str() {
            "--workload" if run::WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--seed" => seed = value.parse().unwrap_or_else(|_| usage()),
            "--seconds" => seconds = value.parse().unwrap_or_else(|_| usage()),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            _ => usage(),
        }
    }
    let Some(workload) = workload else { usage() };
    let mut work = match WorkDir::create(&workload) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("perfbench: cannot create the work directory: {e}");
            std::process::exit(1);
        }
    };

    let result = if trace {
        run::traced(&workload, seed, &mut work).and_then(|t| {
            let path = run::write_spans(&workload, seed, &t.tracer)?;
            println!(
                "perfbench {workload} seed={seed} traced spans={} written to {}",
                t.tracer.spans().len(),
                path.display()
            );
            println!(
                "ops {} failed {} fingerprint {:016x}",
                t.outcome.attempted, t.outcome.failed, t.fingerprint
            );
            print!("{}", t.outcome.metrics.render("ledger"));
            Ok(result_json(&t.outcome, &PER_LAYER))
        })
    } else {
        run::untraced(&workload, seed, seconds, &mut work).map(|m| {
            let outcome = run::summarise(&m);
            for line in run::report_lines(&workload, seed, &m, &outcome) {
                println!("{line}");
            }
            result_json(&outcome, &END_TO_END)
        })
    };
    drop(work);
    match result {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {workload}: {e}");
            std::process::exit(1);
        }
    }
}
