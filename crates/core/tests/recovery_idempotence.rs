//! Property: durable recovery is an idempotent, byte-identical
//! fixpoint — for any scheme, trace seed and torn-tail cut position,
//! `recover_image` commits a canonical recovered image whose second
//! recovery rewrites nothing and leaves the file byte-for-byte
//! unchanged, and replaying the recovered image is itself stable.
//!
//! The cut position models where a SIGKILL landed inside the final
//! append: every byte offset into the image is a legal crash instant,
//! so the property quantifies over it directly instead of enumerating
//! armed failpoints.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Mutex;

use plp_core::{
    recover_image, recovery_scratch_path, replay_image, DurableSink, ObserverExpectation,
    PersistRecord, RecoveryManager, SimSetup, SystemConfig, UpdateScheme,
};
use plp_trace::spec;
use proptest::prelude::*;

const INSTRUCTIONS: u64 = 4_000;

/// One fully-run durable image plus everything recovery needs.
#[derive(Clone)]
struct BaseImage {
    bytes: Vec<u8>,
    records: Vec<PersistRecord>,
    config: SystemConfig,
}

/// Simulating a full run per proptest case would dominate the budget;
/// each (scheme, seed) image is simulated once and truncation cases
/// share it.
fn base_image(scheme: UpdateScheme, seed: u64) -> BaseImage {
    static CACHE: Mutex<Option<HashMap<(&'static str, u64), BaseImage>>> = Mutex::new(None);
    let mut cache = CACHE.lock().unwrap();
    let cache = cache.get_or_insert_with(HashMap::new);
    if let Some(base) = cache.get(&(scheme.name(), seed)) {
        return base.clone();
    }

    let mut config = SystemConfig::for_scheme(scheme);
    config.record_persists = true;
    let profile = spec::benchmark("gcc").unwrap();
    let setup = SimSetup::for_profile(config, &profile, seed).unwrap();
    let trace = setup.generate_trace(INSTRUCTIONS);
    let path = temp_image(&format!("base-{}-{seed}", scheme.name()));
    let mut sim = setup.simulation();
    sim.attach_durable_sink(DurableSink::create(&path, setup.config(), seed).unwrap());
    let (report, finished) = sim.run_with_state(&trace);
    assert_eq!(finished.durable_error(), None);
    let base = BaseImage {
        bytes: std::fs::read(&path).unwrap(),
        records: report.records,
        config: setup.config().clone(),
    };
    std::fs::remove_file(&path).unwrap();
    cache.insert((scheme.name(), seed), base.clone());
    base
}

fn temp_image(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "plp-recovery-prop-{name}-{}.img",
        std::process::id()
    ))
}

const SCHEMES: [UpdateScheme; 6] = [
    UpdateScheme::Sp,
    UpdateScheme::Coalescing,
    UpdateScheme::O3,
    UpdateScheme::Unordered,
    UpdateScheme::TriadNvm,
    UpdateScheme::Phoenix,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// replay → recover → recover reaches a byte-identical fixpoint
    /// for every (scheme, seed, kill offset), and the recovered image
    /// never resurrects persists the cut discarded.
    #[test]
    fn recovery_is_idempotent_for_any_torn_tail(
        scheme_idx in 0usize..SCHEMES.len(),
        seed in 1u64..4,
        cut in 0.0f64..1.0,
    ) {
        let scheme = SCHEMES[scheme_idx];
        let base = base_image(scheme, seed);

        // Cut the image at an arbitrary byte offset, but keep the
        // 32-byte header — a kill cannot halve the header because the
        // sink writes it before the run starts.
        let header = 32.min(base.bytes.len());
        let len = header + ((base.bytes.len() - header) as f64 * cut) as usize;
        let path = temp_image(&format!("cut-{}-{seed}", scheme.name()));
        std::fs::write(&path, &base.bytes[..len]).unwrap();

        let key = base.config.key;
        let torn = replay_image(&path, key).unwrap();
        prop_assert!(!torn.recovered);
        let expected = ObserverExpectation::from_complete_ids(&base.records, &torn.complete_ids);
        let manager = RecoveryManager::for_config(&base.config);

        let wb = recover_image(&path, key, &manager, &base.records, &expected, None).unwrap();
        prop_assert!(wb.rewritten, "a raw image must be rewritten once");
        let bytes1 = std::fs::read(&path).unwrap();
        prop_assert!(!recovery_scratch_path(&path).exists(), "scratch must be renamed away");

        // The committed image is canonical: no torn tail, survivors
        // only, the adopted root durable, quarantine recorded.
        let recovered = replay_image(&path, key).unwrap();
        prop_assert!(recovered.recovered);
        prop_assert_eq!(recovered.torn_tail_bytes, 0);
        prop_assert_eq!(&recovered.complete_ids, &torn.complete_ids);
        prop_assert_eq!(recovered.image.root, wb.outcome.adopted_root);
        prop_assert_eq!(
            &recovered.quarantined,
            &wb.outcome.quarantined().into_iter().collect()
        );

        // Second recovery: detects the fixpoint, rewrites nothing,
        // file bytes identical. A first-pass `Repaired` softens to
        // `Clean` (the adopted root is durable now); every other
        // verdict re-derives unchanged — in particular a detected loss
        // stays detected, never silently "healed".
        let wb2 = recover_image(&path, key, &manager, &base.records, &expected, None).unwrap();
        prop_assert!(!wb2.rewritten, "recovering a recovered image must be a no-op");
        let softened = if wb.outcome.verdict() == plp_core::FaultVerdict::Repaired {
            plp_core::FaultVerdict::Clean
        } else {
            wb.outcome.verdict()
        };
        prop_assert_eq!(wb2.outcome.verdict(), softened);
        prop_assert_eq!(wb2.outcome.quarantined(), wb.outcome.quarantined());
        prop_assert_eq!(std::fs::read(&path).unwrap(), bytes1);

        // And replay of the fixpoint is stable too.
        let again = replay_image(&path, key).unwrap();
        prop_assert_eq!(again.image, recovered.image);
        prop_assert_eq!(again.complete_ids, recovered.complete_ids);
        std::fs::remove_file(&path).unwrap();
    }
}
