//! Failed-op accounting and sound denominators.

use std::path::PathBuf;

use perfbench::host::WorkDir;
use perfbench::metrics::{result_json, Ledger, END_TO_END};
use perfbench::replay::Layers;
use perfbench::run::{self, Measured, PassStat};
use perfbench::span::Tracer;
use perfbench::sweep::{self, Sweep};
use plp_bench::{cache, RunSettings};
use plp_core::{SimSetup, SystemConfig, UpdateScheme};
use plp_trace::spec;

fn work(name: &str) -> WorkDir {
    WorkDir::at(PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name)).expect("scratch directory")
}

/// A tiny `cache_replay`: one truncated entry is exactly one failed
/// lookup, and every end-to-end metric still prints.
#[test]
fn truncated_entry_is_one_failed_op() {
    let sweep = Sweep {
        only: Some(&["ablation"]),
        settings: RunSettings {
            instructions: 2_000,
            seed: 7,
        },
    };
    let requests = sweep.requests();
    let keys = sweep::unique(&requests);
    let mut work = work("accounting");
    let (fill, fill_failed) = sweep::fill(&sweep, &requests, &keys, &mut work).expect("fill");
    assert_eq!(fill_failed, 0);

    let clean = sweep::run_pass(&sweep, &requests, &fill.dir);
    assert_eq!(clean.cache_hits, keys.len());
    assert_eq!(sweep::replay_failures(&clean, &fill, &keys), 0);

    let path = cache::cache_path(&fill.dir, &keys[1].0);
    let bytes = std::fs::read(&path).expect("entry");
    std::fs::write(&path, &bytes[..bytes.len() / 2]).expect("truncate");
    let damaged = sweep::run_pass(&sweep, &requests, &fill.dir);
    assert_eq!(sweep::replay_failures(&damaged, &fill, &keys), 1);
    // The quarantined run was regenerated: the artefacts are intact.
    assert_eq!(damaged.rendered, fill.rendered);

    let stat = |pass: &sweep::Pass| PassStat {
        wall: pass.wall,
        attempted: keys.len() as u64,
        failed: sweep::replay_failures(pass, &fill, &keys),
        instructions: sweep::instructions(pass, &keys),
        fingerprint: sweep::fingerprint(&pass.rendered),
    };
    let m = Measured {
        setups: vec![0.25],
        passes: vec![stat(&damaged)],
        ..Measured::default()
    };
    let outcome = run::summarise(&m);
    assert_eq!((outcome.attempted, outcome.failed), (keys.len() as u64, 1));
    assert!(!outcome.correct);
    let line = result_json(&outcome, &END_TO_END);
    for (name, unit) in END_TO_END {
        assert!(
            line.contains(&format!("\"{name}\": {{\"value\": ")) && line.contains(unit),
            "{name} missing from {line}"
        );
    }
}

/// secure_WB on milc persists nothing and writes nothing back: its
/// replay has no blocks and no leaf updates, so no per-block or
/// per-update cost is reported (rather than a whole run divided by 1).
#[test]
fn zero_base_yields_no_per_unit_value() {
    let profile = spec::benchmark("milc").expect("milc");
    let setup = SimSetup::for_profile(
        SystemConfig::for_scheme(UpdateScheme::SecureWb),
        &profile,
        7,
    )
    .expect("valid");
    let trace = setup.generate_trace(100_000);
    let report = setup.simulation().run(&trace);
    assert_eq!((report.persists, report.writebacks), (0, 0));

    let mut layers = Layers::default();
    assert!(layers.replay(
        &mut Tracer::off(),
        0,
        &setup,
        &trace,
        &report,
        std::time::Duration::from_millis(1)
    ));
    let mut ledger = Ledger::default();
    layers.record(&mut ledger);
    assert_eq!(ledger.get("crypto.blocks"), Some(0.0));
    assert_eq!(ledger.get("bmt.leaf_updates"), Some(0.0));
    assert_eq!(ledger.get("crypto.ns_per_block"), None);
    assert_eq!(ledger.get("bmt.ns_per_leaf_update"), None);
    assert!(ledger.get("cache.ns_per_access").is_some());
}
