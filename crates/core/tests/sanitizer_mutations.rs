//! Mutation tests: the invariant sanitizer must *fire* on seeded
//! ordering bugs and stay silent on every correct engine.
//!
//! Each test swaps a [`MutantEngine`] into a full-system run via
//! [`Simulation::override_engine`] and asserts the sanitizer reports
//! the violation kind that mutation's bug class produces. The final
//! test sweeps every correct scheme across seeds and demands a clean
//! verdict — the sanitizer earns trust in both directions.

use plp_core::engine::{MutantEngine, Mutation};
use plp_core::sanitizer::SanitizerSummary;
use plp_core::{run_benchmark, SimSetup, SystemConfig, UpdateScheme, ViolationKind};
use plp_trace::{TraceGenerator, WorkloadProfile};

const INSTRUCTIONS: u64 = 20_000;
const SEED: u64 = 11;

fn profile() -> WorkloadProfile {
    WorkloadProfile::builder("mutation")
        .base_ipc(1.0)
        .store_ppki(50.0, 20.0)
        .load_ppki(60.0)
        .locality(0.7, 128, 16.0)
        .build()
}

/// Runs the full simulator for `scheme` with `mutation` seeded into
/// the update engine and returns the sanitizer's verdict.
fn run_mutant(scheme: UpdateScheme, mutation: Mutation) -> SanitizerSummary {
    let cfg = SystemConfig::for_scheme(scheme);
    let profile = profile();
    let setup = SimSetup::for_profile(cfg.clone(), &profile, SEED).expect("valid config");
    let trace = TraceGenerator::new(profile, SEED).generate(INSTRUCTIONS);
    let mut sim = setup.simulation();
    sim.override_engine(Box::new(MutantEngine::new(mutation, cfg.bmt.levels())));
    let report = sim.run(&trace);
    assert!(report.persists > 0, "mutant run must actually persist");
    report.sanitizer
}

fn kinds(summary: &SanitizerSummary) -> Vec<ViolationKind> {
    summary.violations.iter().map(|v| v.kind).collect()
}

#[test]
fn skipped_level_mutation_is_caught() {
    let s = run_mutant(UpdateScheme::Sp, Mutation::SkipLevel(2));
    assert!(!s.is_clean(), "sanitizer must fire on a skipped level");
    assert!(
        kinds(&s).contains(&ViolationKind::SkippedLevel),
        "expected SkippedLevel among {:?}",
        kinds(&s)
    );
}

#[test]
fn reverse_walk_mutation_is_caught() {
    let s = run_mutant(UpdateScheme::Sp, Mutation::ReverseWalk);
    assert!(!s.is_clean(), "sanitizer must fire on a root-first walk");
    assert!(
        kinds(&s).contains(&ViolationKind::LevelOrder),
        "expected LevelOrder among {:?}",
        kinds(&s)
    );
}

#[test]
fn ignored_epoch_gate_mutation_is_caught() {
    let s = run_mutant(UpdateScheme::O3, Mutation::IgnoreEpochGate);
    assert!(!s.is_clean(), "sanitizer must fire on a bypassed handoff");
    let k = kinds(&s);
    assert!(
        k.contains(&ViolationKind::EpochLevelOrder),
        "expected EpochLevelOrder among {k:?}"
    );
    assert!(
        k.contains(&ViolationKind::WawHazard),
        "expected WawHazard among {k:?}"
    );
}

#[test]
fn regressing_seal_mutation_is_caught() {
    let s = run_mutant(UpdateScheme::O3, Mutation::RegressSeal);
    assert!(!s.is_clean(), "sanitizer must fire on regressing seals");
    assert!(
        kinds(&s).contains(&ViolationKind::EpochCompletionOrder),
        "expected EpochCompletionOrder among {:?}",
        kinds(&s)
    );
}

/// Every violation a mutant produces carries the scheme it ran under
/// and a populated location — the reporting side of the contract.
#[test]
fn violations_carry_scheme_and_location() {
    let s = run_mutant(UpdateScheme::Sp, Mutation::ReverseWalk);
    for v in &s.violations {
        assert_eq!(v.scheme, UpdateScheme::Sp);
        assert!(v.level > 0, "node-order violations name a tree level");
    }
}

/// The other direction: no correct engine trips the sanitizer, for any
/// scheme in the extended matrix, across several seeds.
#[test]
fn correct_engines_are_clean_across_the_matrix() {
    let profile = profile();
    for scheme in UpdateScheme::all_extended() {
        for seed in [3, 11] {
            let cfg = SystemConfig::for_scheme(scheme);
            let report = run_benchmark(&profile, &cfg, INSTRUCTIONS, seed);
            assert!(
                report.sanitizer.is_clean(),
                "{} (seed {seed}) tripped the sanitizer: {:?}",
                scheme.name(),
                report.sanitizer.violations
            );
            // A scheme that persisted anything must have been checked;
            // unordered promises nothing, so nothing is checked.
            let checked = report.sanitizer.checked_persists
                + report.sanitizer.checked_node_updates
                + report.sanitizer.checked_epochs;
            assert!(
                checked > 0 || report.persists == 0 || scheme == UpdateScheme::Unordered,
                "{} persisted {} blocks unchecked",
                scheme.name(),
                report.persists
            );
        }
    }
}
