//! End-to-end crash-recovery invariants (the executable form of the
//! paper's Tables I and II), exercised through the full system stack:
//! trace generation → simulation → crash image → recovery check.

use plp::core::{
    run_with_crash, with_component_lost, with_component_reordered, ObserverExpectation,
    PersistImage, RecoveryChecker, SystemConfig, TupleComponent, UpdateScheme,
};
use plp::events::Cycle;
use plp::trace::{spec, TraceGenerator};

fn recorded_run(
    scheme: UpdateScheme,
    bench: &str,
    instructions: u64,
) -> (SystemConfig, plp::core::RunReport) {
    let mut cfg = SystemConfig::for_scheme(scheme);
    cfg.record_persists = true;
    let profile = spec::benchmark(bench).expect("known benchmark");
    let trace = TraceGenerator::new(profile.clone(), 5).generate(instructions);
    let (report, _, _) = run_with_crash(&cfg, profile.base_ipc, &trace, None);
    (cfg, report)
}

fn check_at(cfg: &SystemConfig, report: &plp::core::RunReport, t: Cycle) -> bool {
    let checker = RecoveryChecker::new(cfg.bmt, cfg.key);
    let image = PersistImage::at_time(&report.records, t, cfg.bmt, cfg.key);
    let expected = ObserverExpectation::at_time(&report.records, t);
    checker.check(&image, &expected).is_clean()
}

/// Every correct scheme recovers cleanly no matter when the crash
/// lands — Invariants 1 and 2 hold by construction of the 2SP WPQ and
/// the epoch seal.
#[test]
fn correct_schemes_recover_at_every_crash_point() {
    for scheme in [
        UpdateScheme::Sp,
        UpdateScheme::Pipeline,
        UpdateScheme::O3,
        UpdateScheme::Coalescing,
    ] {
        let (cfg, report) = recorded_run(scheme, "milc", 10_000);
        assert!(!report.records.is_empty(), "{scheme}: no persists recorded");
        let span = report.total_cycles.get();
        for k in 0..24u64 {
            let t = Cycle::new(span * k / 23);
            assert!(
                check_at(&cfg, &report, t),
                "{scheme}: recovery failed after crash at {t}"
            );
        }
    }
}

/// The unordered strawman has at least one torn crash window — the
/// paper's core negative result about prior work.
#[test]
fn unordered_scheme_has_torn_crash_windows() {
    let (cfg, report) = recorded_run(UpdateScheme::Unordered, "gcc", 10_000);
    let mut times: Vec<Cycle> = report
        .records
        .iter()
        .flat_map(|r| [r.times.data, r.times.root])
        .collect();
    times.sort();
    times.dedup();
    let torn = times.iter().any(|t| !check_at(&cfg, &report, *t));
    assert!(torn, "unordered persists never produced a torn state");
}

/// Table I: losing exactly one tuple component produces exactly the
/// paper's failure signature.
#[test]
fn table1_failure_taxonomy() {
    let (cfg, report) = recorded_run(UpdateScheme::Sp, "milc", 8_000);
    let victim = report.records.len() - 1; // last persist: never overwritten
    let crash_at = report.total_cycles + Cycle::new(1_000);
    let checker = RecoveryChecker::new(cfg.bmt, cfg.key);
    let expected = ObserverExpectation::at_time(&report.records, crash_at);

    for component in TupleComponent::ALL {
        let faulty = with_component_lost(&report.records, victim, component);
        let image = PersistImage::at_time(&faulty, crash_at, cfg.bmt, cfg.key);
        let rec = checker.check(&image, &expected);
        match component {
            TupleComponent::Root => {
                assert!(rec.bmt_failure, "lost R must fail BMT verification");
                assert!(rec.mac_failures.is_empty());
                assert!(rec.plaintext_failures.is_empty());
            }
            TupleComponent::Mac => {
                assert!(!rec.bmt_failure);
                assert!(!rec.mac_failures.is_empty(), "lost M must fail MAC");
                assert!(rec.plaintext_failures.is_empty());
            }
            TupleComponent::Counter => {
                assert!(rec.bmt_failure, "lost γ must fail BMT");
                assert!(!rec.mac_failures.is_empty(), "lost γ must fail MAC");
                assert!(
                    !rec.plaintext_failures.is_empty(),
                    "lost γ must garble the plaintext"
                );
            }
            TupleComponent::Ciphertext => {
                assert!(!rec.bmt_failure);
                assert!(!rec.mac_failures.is_empty(), "lost C must fail MAC");
                assert!(
                    !rec.plaintext_failures.is_empty(),
                    "lost C must lose the plaintext"
                );
            }
        }
    }
}

/// Table II: swapping two persists' component order and crashing
/// between them produces the paper's failure signatures.
#[test]
fn table2_ordering_violations() {
    let (cfg, report) = recorded_run(UpdateScheme::Sp, "milc", 8_000);
    let checker = RecoveryChecker::new(cfg.bmt, cfg.key);

    // Two *adjacent* persists to different pages, α1 before α2 — no
    // intervening persist may re-supply α1's page counter before the
    // crash point.
    let first = (report.records.len() / 2..report.records.len() - 1)
        .find(|&i| report.records[i].addr.page() != report.records[i + 1].addr.page())
        .expect("adjacent different-page persists");
    let second = first + 1;
    let t1 = report.records[first].completed_at();
    let t2 = report.records[second].completed_at();
    assert!(t1 < t2, "records must be ordered");
    let crash_at = Cycle::new((t1.get() + t2.get()) / 2);
    let expected = ObserverExpectation::at_time(&report.records, crash_at);

    // Counter order violated -> P1 not recoverable.
    let faulty = with_component_reordered(&report.records, first, second, TupleComponent::Counter);
    let rec = checker.check(
        &PersistImage::at_time(&faulty, crash_at, cfg.bmt, cfg.key),
        &expected,
    );
    assert!(!rec.plaintext_failures.is_empty());

    // MAC order violated -> MAC failure.
    let faulty = with_component_reordered(&report.records, first, second, TupleComponent::Mac);
    let rec = checker.check(
        &PersistImage::at_time(&faulty, crash_at, cfg.bmt, cfg.key),
        &expected,
    );
    assert!(!rec.mac_failures.is_empty());

    // Root order violated -> BMT failure.
    let faulty = with_component_reordered(&report.records, first, second, TupleComponent::Root);
    let rec = checker.check(
        &PersistImage::at_time(&faulty, crash_at, cfg.bmt, cfg.key),
        &expected,
    );
    assert!(rec.bmt_failure);
}

/// Recovery also covers epoch semantics: a crash mid-epoch exposes
/// only completed epochs to the observer, and that state verifies.
#[test]
fn epoch_crash_exposes_only_sealed_epochs() {
    let (cfg, report) = recorded_run(UpdateScheme::Coalescing, "gamess", 10_000);
    assert!(report.epochs > 2);
    // Every record of a sealed epoch carries the epoch's completion
    // time; pick a crash point right before one epoch's completion.
    let some_completion = report.records[report.records.len() / 2].completed_at();
    let crash_at = Cycle::new(some_completion.get().saturating_sub(1));
    assert!(check_at(&cfg, &report, crash_at));
    // The observer at that point expects only earlier epochs.
    let expected = ObserverExpectation::at_time(&report.records, crash_at);
    let all = ObserverExpectation::at_time(&report.records, Cycle::MAX);
    assert!(expected.plaintexts.len() < all.plaintexts.len());
}

/// Minor-counter overflow: hammering one page past 127 writes per
/// minor counter forces the split-counter page re-encryption path,
/// and recovery must still be clean everywhere — blocks encrypted
/// under the old major counter were re-encrypted with the overflow.
#[test]
fn counter_overflow_page_reencryption_recovers() {
    use plp::trace::WorkloadProfile;
    // A single-page workload: every store lands in the same 4 KiB
    // page, so minors overflow quickly.
    let profile = WorkloadProfile::builder("one-page")
        .base_ipc(1.0)
        .store_ppki(200.0, 200.0)
        .load_ppki(1.0)
        .locality(0.0, 1, 64.0)
        .build();
    let mut cfg = SystemConfig::for_scheme(UpdateScheme::Sp);
    cfg.record_persists = true;
    let trace = TraceGenerator::new(profile, 3).generate(60_000);
    let (report, _, _) = run_with_crash(&cfg, 1.0, &trace, None);
    assert!(
        report.page_overflows > 0,
        "the single-page hammer must overflow a minor counter \
         (persists: {})",
        report.persists
    );
    assert!(report.overflow_blocks > 0);

    // Recovery at many crash points, including ones straddling the
    // overflow, must be clean: the whole page was re-encrypted.
    let span = report.total_cycles.get();
    for k in 0..32u64 {
        let t = Cycle::new(span * k / 31);
        assert!(
            check_at(&cfg, &report, t),
            "overflow broke recovery at crash point {t}"
        );
    }
}

/// A *replay* — writing back a consistent old tuple (ciphertext +
/// MAC + counter block together) — passes the stateful MAC in
/// isolation but is caught by the BMT root. This is the §II argument
/// that the tree must cover counters.
#[test]
fn counter_replay_is_caught_by_the_tree() {
    let (cfg, report) = recorded_run(UpdateScheme::Sp, "milc", 8_000);
    let crash_at = report.total_cycles + Cycle::new(1_000);
    let mut image = PersistImage::at_time(&report.records, crash_at, cfg.bmt, cfg.key);
    let expected = ObserverExpectation::at_time(&report.records, crash_at);

    // A block persisted at least twice; roll its whole tuple back.
    let old = report
        .records
        .iter()
        .find(|early| {
            report
                .records
                .iter()
                .filter(|r| r.addr == early.addr)
                .count()
                >= 2
        })
        .expect("a twice-persisted block")
        .clone();
    image.data.insert(old.addr, old.ciphertext);
    image.macs.insert(old.addr, old.mac);
    image
        .counters
        .insert(old.addr.page().index(), old.counters_after.clone());

    let checker = RecoveryChecker::new(cfg.bmt, cfg.key);
    // The rolled-back tuple is internally consistent...
    let gamma = old.counters_after.value_for(old.addr);
    let mac_engine = plp::crypto::MacEngine::new(cfg.key);
    assert!(
        mac_engine.verify(&old.ciphertext, old.addr, gamma, old.mac),
        "the replayed tuple must verify in isolation"
    );
    // ...but the tree sees the rollback.
    let verdict = checker.check(&image, &expected);
    assert!(verdict.bmt_failure, "replay went undetected: {verdict}");
}

/// An active adversary tampering with persisted ciphertext is caught
/// by the stateful MAC during recovery.
#[test]
fn tampered_image_fails_recovery() {
    let (cfg, report) = recorded_run(UpdateScheme::Sp, "milc", 6_000);
    let crash_at = report.total_cycles + Cycle::new(1_000);
    let mut image = PersistImage::at_time(&report.records, crash_at, cfg.bmt, cfg.key);
    let expected = ObserverExpectation::at_time(&report.records, crash_at);

    // Flip one byte of one persisted ciphertext block.
    let victim = *image.data.keys().next().expect("some persisted block");
    let mut bytes = *image.data[&victim].as_bytes();
    bytes[13] ^= 0x80;
    image
        .data
        .insert(victim, plp::crypto::DataBlock::from_bytes(bytes));

    let rec = RecoveryChecker::new(cfg.bmt, cfg.key).check(&image, &expected);
    assert!(rec.mac_failures.contains(&victim));
}
