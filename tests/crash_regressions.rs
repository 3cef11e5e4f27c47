//! Pinned crash-recovery regressions.
//!
//! Each test replays one concrete counterexample that property testing
//! found in the past (the parameters come from shrunk proptest
//! failures). Unlike a `.proptest-regressions` file, these replays do
//! not depend on any particular proptest RNG stream, so they keep
//! working across proptest versions and strategy changes.

use plp::core::{
    run_with_crash, ObserverExpectation, PersistImage, RecoveryChecker, SystemConfig, UpdateScheme,
};
use plp::events::Cycle;
use plp::trace::{TraceGenerator, WorkloadProfile};

/// Replays a (profile, seed, crash fraction, scheme) tuple through the
/// same path as the `correct_schemes_always_recover` property.
fn replay(profile: WorkloadProfile, seed: u64, crash_frac: f64, scheme: UpdateScheme) {
    let mut cfg = SystemConfig::for_scheme(scheme);
    cfg.record_persists = true;
    let trace = TraceGenerator::new(profile, seed).generate(5_000);
    let (report, _, _) = run_with_crash(&cfg, 1.0, &trace, None);
    let t = Cycle::new((report.total_cycles.get() as f64 * crash_frac) as u64);
    let image = PersistImage::at_time(&report.records, t, cfg.bmt, cfg.key);
    let expected = ObserverExpectation::at_time(&report.records, t);
    let verdict = RecoveryChecker::new(cfg.bmt, cfg.key).check(&image, &expected);
    assert!(verdict.is_clean(), "{scheme} at {t}: {verdict}");
}

/// Shrunk counterexample once recorded in
/// `crash_properties.proptest-regressions`: a store-heavy, highly
/// repetitive workload crashing the `pipeline` engine at ~70% of the
/// run.
#[test]
fn pipeline_recovers_store_heavy_repetitive_workload() {
    let profile = WorkloadProfile::builder("prop")
        .base_ipc(1.0)
        .store_ppki(53.868358961942576, 21.547343584777032)
        .load_ppki(60.0)
        .locality(0.7424701974058485, 256, 16.373232256169253)
        .build();
    replay(
        profile,
        17478386929309104237,
        0.6981282319444854,
        UpdateScheme::Pipeline,
    );
}

/// The same shape swept across every correct scheme and a spread of
/// crash fractions, so a reintroduced ordering bug is caught no matter
/// which engine it lands in. `phoenix` is pinned here too: its atomic
/// tuple times mean every enumerated crash instant recovers Clean.
#[test]
fn all_correct_schemes_recover_the_regression_workload() {
    for scheme in [
        UpdateScheme::Sp,
        UpdateScheme::Pipeline,
        UpdateScheme::O3,
        UpdateScheme::Coalescing,
        UpdateScheme::Phoenix,
    ] {
        for crash_frac in [0.0, 0.25, 0.6981282319444854, 0.95, 1.0] {
            let profile = WorkloadProfile::builder("prop")
                .base_ipc(1.0)
                .store_ppki(53.868358961942576, 21.547343584777032)
                .load_ppki(60.0)
                .locality(0.7424701974058485, 256, 16.373232256169253)
                .build();
            replay(profile, 17478386929309104237, crash_frac, scheme);
        }
    }
}

/// `triad_nvm` relaxes MAC and root persistence behind the data and
/// counter (the lazily-flushed upper tree), so a crash inside that lag
/// window strands pairs under a stale MAC. Pins the scheme's whole
/// verdict contract: a quiesced image recovers Clean, every in-window
/// crash is *detected* (BMT or MAC failure), and no crash instant —
/// in-window or not — ever yields a silently wrong plaintext.
#[test]
fn triad_nvm_losses_are_detected_and_confined_to_the_lag_window() {
    let mut cfg = SystemConfig::for_scheme(UpdateScheme::TriadNvm);
    cfg.record_persists = true;
    let profile = WorkloadProfile::builder("prop")
        .base_ipc(1.0)
        .store_ppki(53.868358961942576, 21.547343584777032)
        .load_ppki(60.0)
        .locality(0.7424701974058485, 256, 16.373232256169253)
        .build();
    let trace = TraceGenerator::new(profile, 17478386929309104237).generate(5_000);
    let (report, _, _) = run_with_crash(&cfg, 1.0, &trace, None);
    assert!(!report.records.is_empty());
    let checker = RecoveryChecker::new(cfg.bmt, cfg.key);

    // Quiescent image: past the last record's lagged root persist,
    // every window has drained and recovery is Clean.
    let settled = report.records.iter().map(|r| r.times.root).max().unwrap() + Cycle::new(1);
    let image = PersistImage::at_time(&report.records, settled, cfg.bmt, cfg.key);
    let expected = ObserverExpectation::at_time(&report.records, settled);
    let verdict = checker.check(&image, &expected);
    assert!(verdict.is_clean(), "quiesced triad_nvm image: {verdict}");

    // Crash instants inside the lag window: the pair is durable, its
    // MAC and root are still in flight. Sample across the run.
    let stride = report.records.len() / 16 + 1;
    let mut windows = 0;
    for r in report.records.iter().step_by(stride) {
        let t = r.times.data;
        if r.times.mac <= t {
            continue; // window already drained at this instant
        }
        windows += 1;
        let image = PersistImage::at_time(&report.records, t, cfg.bmt, cfg.key);
        let expected = ObserverExpectation::at_time(&report.records, t);
        let verdict = checker.check(&image, &expected);
        assert!(
            !verdict.is_clean(),
            "a mid-window crash at {t} must be detected"
        );
        // Detected, never silent: a wrong plaintext is only acceptable
        // when the same block's MAC already flagged it (Table I's
        // "wrong plaintext, MAC failure" category).
        for addr in &verdict.plaintext_failures {
            assert!(
                verdict.mac_failures.contains(addr),
                "triad_nvm silently lost {addr:?} at {t}: {verdict}"
            );
        }
    }
    assert!(windows > 0, "the sweep never sampled a lag window");
}
