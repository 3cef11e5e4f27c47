//! Whole-stack consistency checks across every benchmark and scheme:
//! the accounting identities that must hold no matter the workload.

use plp::core::{run_benchmark, SystemConfig, UpdateScheme};
use plp::trace::spec;

const INSTRUCTIONS: u64 = 40_000;

/// Every (benchmark, scheme) pair runs to completion with sane,
/// internally consistent statistics.
#[test]
fn every_benchmark_every_scheme() {
    let levels = SystemConfig::default().bmt.levels() as u64;
    for profile in spec::all_benchmarks() {
        for scheme in UpdateScheme::all_extended() {
            let r = run_benchmark(&profile, &SystemConfig::for_scheme(scheme), INSTRUCTIONS, 3);
            let label = format!("{}:{}", profile.name, scheme.name());

            assert!(r.total_cycles.get() > 0, "{label}: empty run");
            assert!(r.instructions >= INSTRUCTIONS, "{label}: trace truncated");
            assert!(r.ipc() > 0.0 && r.ipc() < 8.0, "{label}: IPC {}", r.ipc());

            let security_ops = r.persists + r.writebacks;
            match scheme {
                UpdateScheme::SecureWb => {
                    assert_eq!(r.persists, 0, "{label}: baseline has no ordered persists");
                }
                UpdateScheme::Coalescing => {
                    // Coalescing performs at most levels×ops and saved
                    // the difference.
                    assert!(
                        r.engine.node_updates + r.coalesced_saved_updates > 0
                            && r.engine.node_updates <= security_ops * levels,
                        "{label}: node-update accounting broken"
                    );
                }
                UpdateScheme::TriadNvm => {
                    // The walk truncates at the persisted floor: only
                    // the deepest levels are updated strictly.
                    let cfg = SystemConfig::for_scheme(scheme);
                    let walked = u64::from(cfg.bmt.levels() - cfg.triad_floor() + 1);
                    assert_eq!(
                        r.engine.node_updates,
                        security_ops * walked,
                        "{label}: every persist must walk exactly the strict suffix"
                    );
                }
                _ => {
                    assert_eq!(
                        r.engine.node_updates,
                        security_ops * levels,
                        "{label}: every persist must walk the full path"
                    );
                }
            }
            if scheme.is_epoch_based() && r.persists > 0 {
                assert!(r.epochs > 0, "{label}: persists without epochs");
            }
            assert_eq!(
                r.engine.persists, security_ops,
                "{label}: engine persist count mismatch"
            );
        }
    }
}

/// The measured PPKI tracks the Table V calibration targets.
#[test]
fn ppki_tracks_table5() {
    for profile in spec::all_benchmarks() {
        let sp = run_benchmark(
            &profile,
            &SystemConfig::for_scheme(UpdateScheme::Sp),
            200_000,
            7,
        );
        let target = profile.store_ppki_nonstack;
        let measured = sp.persist_ppki();
        assert!(
            (measured - target).abs() / target.max(1.0) < 0.15,
            "{}: sp PPKI {measured:.2} vs Table V {target:.2}",
            profile.name
        );
    }
}

/// Architectural BMT state stays self-consistent after any run.
#[test]
fn architectural_tree_is_consistent() {
    use plp::core::SimSetup;
    use plp::trace::TraceGenerator;
    let profile = spec::benchmark("gcc").unwrap();
    let trace = TraceGenerator::new(profile.clone(), 21).generate(30_000);
    for scheme in UpdateScheme::all_extended() {
        let setup = SimSetup::with_base_ipc(SystemConfig::for_scheme(scheme), profile.base_ipc)
            .expect("valid configuration");
        let sim = setup.simulation();
        let before = sim.architectural_root();
        let (r, finished) = sim.run_with_state(&trace);
        if r.persists + r.writebacks > 0 {
            assert_ne!(
                finished.architectural_root(),
                before,
                "{scheme}: persists must move the root"
            );
        }
    }
}

/// Custom workloads built through the builder run end to end.
#[test]
fn custom_workload_profile_runs() {
    use plp::trace::WorkloadProfile;
    let profile = WorkloadProfile::builder("adhoc")
        .base_ipc(0.9)
        .store_ppki(60.0, 25.0)
        .load_ppki(90.0)
        .locality(0.7, 512, 12.0)
        .build();
    let base = run_benchmark(
        &profile,
        &SystemConfig::for_scheme(UpdateScheme::SecureWb),
        INSTRUCTIONS,
        1,
    );
    let co = run_benchmark(
        &profile,
        &SystemConfig::for_scheme(UpdateScheme::Coalescing),
        INSTRUCTIONS,
        1,
    );
    assert!(co.persists > 0);
    assert!(co.normalized_to(&base) >= 1.0);
}
