//! Property-based crash-recovery tests over the whole stack: random
//! workload shapes, random crash points — correct schemes always
//! recover; the functional security layer always detects tampering.

use plp::core::{
    run_with_crash, ObserverExpectation, PersistImage, RecoveryChecker, SystemConfig, UpdateScheme,
};
use plp::events::Cycle;
use plp::trace::{TraceGenerator, WorkloadProfile};
use proptest::prelude::*;

fn arb_profile() -> impl Strategy<Value = WorkloadProfile> {
    (
        1u64..=4,       // footprint scale
        20.0f64..120.0, // store ppki (full)
        0.0f64..0.9,    // repeat fraction
        1.0f64..32.0,   // run length
    )
        .prop_map(|(fp, stores, repeat, run)| {
            WorkloadProfile::builder("prop")
                .base_ipc(1.0)
                .store_ppki(stores, stores * 0.4)
                .load_ppki(60.0)
                .locality(repeat, fp * 128, run)
                .build()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Invariants 1+2, fuzzed: any workload, any crash point, every
    /// correct scheme recovers cleanly.
    #[test]
    fn correct_schemes_always_recover(
        profile in arb_profile(),
        seed in any::<u64>(),
        crash_frac in 0.0f64..1.0,
        scheme_pick in 0usize..4,
    ) {
        let scheme = [
            UpdateScheme::Sp,
            UpdateScheme::Pipeline,
            UpdateScheme::O3,
            UpdateScheme::Coalescing,
        ][scheme_pick];
        let mut cfg = SystemConfig::for_scheme(scheme);
        cfg.record_persists = true;
        let trace = TraceGenerator::new(profile, seed).generate(5_000);
        let (report, _, _) = run_with_crash(&cfg, 1.0, &trace, None);
        let t = Cycle::new((report.total_cycles.get() as f64 * crash_frac) as u64);
        let image = PersistImage::at_time(&report.records, t, cfg.bmt, cfg.key);
        let expected = ObserverExpectation::at_time(&report.records, t);
        let verdict = RecoveryChecker::new(cfg.bmt, cfg.key).check(&image, &expected);
        prop_assert!(verdict.is_clean(), "{scheme} at {t}: {verdict}");
    }

    /// Any single-bit corruption of any persisted component is caught
    /// by at least one verification step.
    #[test]
    fn any_corruption_is_detected(
        seed in any::<u64>(),
        victim_frac in 0.0f64..1.0,
        bit in 0usize..512,
        component in 0usize..3,
    ) {
        let mut cfg = SystemConfig::for_scheme(UpdateScheme::Sp);
        cfg.record_persists = true;
        let profile = WorkloadProfile::builder("fixed")
            .base_ipc(1.0)
            .store_ppki(50.0, 25.0)
            .load_ppki(50.0)
            .locality(0.3, 256, 8.0)
            .build();
        let trace = TraceGenerator::new(profile, seed).generate(4_000);
        let (report, mut image, expected) = run_with_crash(&cfg, 1.0, &trace, None);
        prop_assume!(!report.records.is_empty());

        // Corrupt one persisted item.
        let mut addrs: Vec<_> = image.data.keys().copied().collect();
        addrs.sort();
        prop_assume!(!addrs.is_empty());
        let victim = addrs[(victim_frac * (addrs.len() as f64 - 1.0)) as usize];
        match component {
            0 => {
                let mut bytes = *image.data[&victim].as_bytes();
                bytes[bit % 64] ^= 1 << (bit % 8);
                image.data.insert(victim, plp::crypto::DataBlock::from_bytes(bytes));
            }
            1 => {
                let tag = image.macs[&victim];
                image
                    .macs
                    .insert(victim, plp::crypto::MacTag::from_raw(tag.raw() ^ (1 << (bit % 64))));
            }
            _ => {
                // Bump a random persisted counter (replay-style attack).
                let page = victim.page().index();
                if let Some(cb) = image.counters.get_mut(&page) {
                    cb.bump(bit % 64);
                }
            }
        }

        let verdict = RecoveryChecker::new(cfg.bmt, cfg.key).check(&image, &expected);
        prop_assert!(
            !verdict.is_clean(),
            "corruption of component {component} on {victim} went undetected"
        );
    }

    /// Trace generation + simulation is a pure function of
    /// (profile, seed, config).
    #[test]
    fn stack_is_deterministic(profile in arb_profile(), seed in any::<u64>()) {
        let cfg = SystemConfig::for_scheme(UpdateScheme::Coalescing);
        let t1 = TraceGenerator::new(profile.clone(), seed).generate(3_000);
        let t2 = TraceGenerator::new(profile, seed).generate(3_000);
        prop_assert_eq!(&t1, &t2);
        let setup = plp::core::SimSetup::new(cfg).expect("valid configuration");
        let r1 = setup.run(&t1);
        let r2 = setup.run(&t2);
        prop_assert_eq!(r1.total_cycles, r2.total_cycles);
        prop_assert_eq!(r1.engine.node_updates, r2.engine.node_updates);
    }
}
