//! Fault-injection robustness matrix: for every update scheme, sweep
//! recovery across all enumerated crash points while injecting torn
//! line writes, single-bit flips and dropped acknowledged persists,
//! then report the verdict counts per fault class.
//!
//! Expected shape of the result:
//!
//! * the four correct engines (`sp`, `pipeline`, `o3`, `coalescing`)
//!   must show **zero** stale-rollback / undetected outcomes under the
//!   pure-crash baseline and the torn-write and bit-flip classes — the
//!   detect-or-recover contract;
//! * the dropped-persist class legitimately produces stale rollbacks
//!   on every scheme (a broken ADR promise resurrects an older but
//!   authentic tuple, which no integrity machinery can flag) — it is
//!   reported separately and excluded from the PASS gate;
//! * the `unordered` strawman fails its baseline (Tables I/II torn
//!   tuples) but must still never yield silent garbage: the MAC + BMT
//!   always catch non-authentic states.
//!
//! Usage: `fault_sweep [instructions] [seed]` (defaults 60000, 7).
//! The whole matrix is a pure function of the two arguments. Exit
//! codes: 0 PASS, 1 FAIL, 2 usage, including a run too short to
//! enumerate 100 crash points for some scheme (then nothing is printed
//! on stdout).

use plp_core::fault::{enumerate_crash_points, ClassTally, FaultClass, FaultConfig, FaultSweep};
use plp_core::{run_with_crash, PersistRecord, SystemConfig, UpdateScheme};
use plp_trace::{spec, TraceGenerator};

/// The fewest crash points a scheme's sweep may enumerate.
const MIN_CRASH_POINTS: usize = 100;

/// How many crash points `FaultSweep::run` will sweep for `records`
/// under `fault`: the same enumeration, without the sweep.
fn crash_points(fault: &FaultConfig, records: &[PersistRecord]) -> usize {
    enumerate_crash_points(records, fault.crash_point_budget, fault.seed).len()
}

fn tally_row(scheme: UpdateScheme, points: usize, label: &str, t: &ClassTally) -> String {
    format!(
        "{:<12} {:>6}  {:<9} {:>8} {:>7} {:>9} {:>9} {:>7} {:>7} {:>11}",
        scheme.name(),
        points,
        label,
        t.attempts,
        t.clean,
        t.repaired,
        t.detected_loss,
        t.stale_rollback,
        t.undetected_corruption,
        t.mean_recovery_cycles(),
    )
}

fn usage() -> ! {
    eprintln!("usage: fault_sweep [instructions] [seed]");
    std::process::exit(2);
}

fn main() {
    let (mut instructions, mut seed) = (60_000u64, 7u64);
    for (position, arg) in std::env::args().skip(1).enumerate() {
        match (position, arg.parse()) {
            (0, Ok(n)) => instructions = n,
            (1, Ok(n)) => seed = n,
            _ => usage(),
        }
    }
    let profile = spec::benchmark("gcc").expect("gcc profile exists");

    // Every scheme's crash points are counted before any is swept, so a
    // run below the floor is a usage error that sweeps nothing and
    // prints no partial table.
    let correct = UpdateScheme::correct();
    let mut schemes: Vec<UpdateScheme> = correct.to_vec();
    schemes.push(UpdateScheme::Unordered);
    let fault = FaultConfig::all_classes(seed);
    let trace = TraceGenerator::new(profile.clone(), seed).generate(instructions);
    let mut runs = Vec::with_capacity(schemes.len());
    for scheme in schemes {
        let mut cfg = SystemConfig::for_scheme(scheme);
        cfg.record_persists = true;
        let (report, _, _) = run_with_crash(&cfg, profile.base_ipc, &trace, None);
        let points = crash_points(&fault, &report.records);
        if points < MIN_CRASH_POINTS {
            eprintln!("{scheme}: only {points} crash points enumerated; raise [instructions]");
            usage();
        }
        runs.push((scheme, cfg, report.records));
    }
    let results: Vec<_> = runs
        .into_iter()
        .map(|(scheme, cfg, records)| (scheme, FaultSweep::new(&cfg, fault).run(scheme, &records)))
        .collect();

    println!("== Fault sweep: crash-point enumeration x fault injection ==");
    println!(
        "workload gcc, {instructions} instructions, seed {seed}; \
         faults and crash points derive deterministically from the seed"
    );
    println!();
    println!(
        "{:<12} {:>6}  {:<9} {:>8} {:>7} {:>9} {:>9} {:>7} {:>7} {:>11}",
        "scheme",
        "points",
        "class",
        "attempts",
        "clean",
        "repaired",
        "det-loss",
        "stale",
        "undet",
        "avg-cycles"
    );

    let mut all_pass = true;
    for (scheme, result) in results {
        println!(
            "{}",
            tally_row(scheme, result.crash_points, "baseline", &result.baseline)
        );
        for (class, tally) in &result.classes {
            println!(
                "{}",
                tally_row(scheme, result.crash_points, class.name(), tally)
            );
        }

        let silent_garbage: u64 = result.baseline.undetected_corruption
            + result
                .classes
                .iter()
                .map(|(_, t)| t.undetected_corruption)
                .sum::<u64>();
        if correct.contains(&scheme) {
            let ok = result.detect_or_recover_holds();
            all_pass &= ok;
            println!(
                "  -> {}: detect-or-recover {}",
                scheme.name(),
                if ok { "PASS" } else { "FAIL" }
            );
            if !ok {
                for ex in &result.examples {
                    println!(
                        "     example: crash at {:?}, {:?} -> {}",
                        ex.crash_at, ex.spec, ex.verdict
                    );
                }
            }
        } else {
            let baseline_failures = result.baseline.attempts - result.baseline.clean;
            println!(
                "  -> {}: negative control; {} baseline failure(s) across {} points, \
                 silent garbage {} (must be 0: {})",
                scheme.name(),
                baseline_failures,
                result.crash_points,
                silent_garbage,
                if silent_garbage == 0 { "PASS" } else { "FAIL" }
            );
            all_pass &= silent_garbage == 0;
        }
        if let Some(drop) = result.class(FaultClass::DroppedPersist) {
            if drop.stale_rollback > 0 {
                println!(
                    "     note: {} dropped-ack rollback(s) — undetectable by design, \
                     the ADR flush domain is the trust anchor",
                    drop.stale_rollback
                );
            }
        }
        println!();
    }

    println!("overall: {}", if all_pass { "PASS" } else { "FAIL" });
    if !all_pass {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The floor check counts exactly the points the sweep then sweeps,
    /// below the budget and where the budget samples.
    #[test]
    fn counted_points_are_the_swept_points() {
        let profile = spec::benchmark("gcc").unwrap();
        let fault = FaultConfig::all_classes(7);
        for instructions in [500, 3_000] {
            let trace = TraceGenerator::new(profile.clone(), 7).generate(instructions);
            let mut cfg = SystemConfig::for_scheme(UpdateScheme::Sp);
            cfg.record_persists = true;
            let (report, _, _) = run_with_crash(&cfg, profile.base_ipc, &trace, None);
            let counted = crash_points(&fault, &report.records);
            let swept = FaultSweep::new(&cfg, fault)
                .run(UpdateScheme::Sp, &report.records)
                .crash_points;
            assert_eq!(counted, swept, "{instructions} instructions");
        }
    }
}
