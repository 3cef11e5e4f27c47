//! Crash recovery demo: the difference between an engine that obeys
//! the paper's invariants (sp) and one that does not (unordered).
//!
//! A workload runs, power fails at a series of arbitrary points, and
//! each time the recovery procedure (1) recomputes the BMT root over
//! the persisted counters, (2) verifies every expected block's
//! stateful MAC and (3) decrypts and compares plaintexts.
//!
//! ```text
//! cargo run --release --example crash_recovery
//! ```

use plp::core::{
    run_with_crash, ObserverExpectation, PersistImage, RecoveryChecker, SystemConfig, UpdateScheme,
};
use plp::events::Cycle;
use plp::trace::{spec, TraceGenerator};

fn main() {
    let profile = spec::benchmark("milc").expect("known benchmark");
    let trace = TraceGenerator::new(profile.clone(), 9).generate(15_000);

    for scheme in [UpdateScheme::Sp, UpdateScheme::Unordered] {
        let mut cfg = SystemConfig::for_scheme(scheme);
        cfg.record_persists = true;
        let (report, _, _) = run_with_crash(&cfg, profile.base_ipc, &trace, None);
        let checker = RecoveryChecker::new(cfg.bmt, cfg.key);

        // Crash at 16 points spread across the run.
        let span = report.total_cycles.get().max(1);
        let mut clean = 0;
        let mut failures = Vec::new();
        for k in 1..=16u64 {
            let t = Cycle::new(span * k / 16);
            let image = PersistImage::at_time(&report.records, t, cfg.bmt, cfg.key);
            let expected = ObserverExpectation::at_time(&report.records, t);
            let verdict = checker.check(&image, &expected);
            if verdict.is_clean() {
                clean += 1;
            } else {
                failures.push((t, verdict));
            }
        }

        println!(
            "scheme {:<10} -> {clean}/16 crash points recover cleanly",
            scheme.name()
        );
        for (t, v) in failures.iter().take(3) {
            println!("   crash at {t}: {v}");
        }
        if failures.len() > 3 {
            println!(
                "   ... and {} more failing crash points",
                failures.len() - 3
            );
        }
        println!();
    }

    println!(
        "sp enforces Invariants 1 and 2 through the 2-step-persist WPQ, so every\n\
         crash point recovers; unordered persists tuple components independently\n\
         and the BMT root out of order, so some crash windows are torn — exactly\n\
         the paper's argument for why prior work under-estimated persistency cost."
    );
}
