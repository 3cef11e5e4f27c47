//! Cross-crate performance-shape tests: the orderings and scalings the
//! paper's evaluation establishes must hold in the reproduction.

use plp::core::{run_benchmark, RunReport, SystemConfig, UpdateScheme};
use plp::events::stats::geometric_mean;
use plp::events::Cycle;
use plp::trace::spec;

const INSTRUCTIONS: u64 = 120_000;
const SEED: u64 = 13;

fn run(bench: &str, cfg: &SystemConfig) -> RunReport {
    let profile = spec::benchmark(bench).expect("known benchmark");
    run_benchmark(&profile, cfg, INSTRUCTIONS, SEED)
}

fn gmean_overhead(scheme: UpdateScheme) -> f64 {
    let values: Vec<f64> = spec::all_benchmarks()
        .iter()
        .map(|p| {
            let base = run_benchmark(
                p,
                &SystemConfig::for_scheme(UpdateScheme::SecureWb),
                INSTRUCTIONS,
                SEED,
            );
            run_benchmark(p, &SystemConfig::for_scheme(scheme), INSTRUCTIONS, SEED)
                .normalized_to(&base)
        })
        .collect();
    geometric_mean(&values).expect("positive times")
}

/// Fig. 8 + Fig. 10 ordering: sp ≫ pipeline > o3 ≈ coalescing ≥ 1.
#[test]
fn scheme_ordering_across_all_benchmarks() {
    let sp = gmean_overhead(UpdateScheme::Sp);
    let pipe = gmean_overhead(UpdateScheme::Pipeline);
    let o3 = gmean_overhead(UpdateScheme::O3);
    let co = gmean_overhead(UpdateScheme::Coalescing);
    assert!(sp > 4.0, "sp gmean {sp} nowhere near the paper's 7.2x");
    assert!(sp > 2.5 * pipe, "pipelining speedup too small: {sp}/{pipe}");
    assert!(
        pipe > o3,
        "o3 {o3} should beat the in-order pipeline {pipe}"
    );
    assert!(
        (co / o3 - 1.0).abs() < 0.15,
        "coalescing {co} should track o3 {o3}"
    );
    assert!(o3 < 2.5, "o3 gmean {o3} far above the paper's ~1.2x");
}

/// Fig. 9: sp overhead grows with MAC latency and collapses with ideal
/// metadata caches.
#[test]
fn sp_scales_with_mac_latency() {
    let base = run("gobmk", &SystemConfig::for_scheme(UpdateScheme::SecureWb));
    let mut previous = 0.0;
    for mac in [0u64, 20, 40, 80] {
        let mut cfg = SystemConfig::for_scheme(UpdateScheme::Sp);
        cfg.mac_latency = Cycle::new(mac);
        let norm = run("gobmk", &cfg).normalized_to(&base);
        assert!(
            norm > previous,
            "overhead must grow with MAC latency ({mac} cycles: {norm})"
        );
        previous = norm;
    }
    let mut ideal = SystemConfig::for_scheme(UpdateScheme::Sp);
    ideal.ideal_metadata = true;
    let norm = run("gobmk", &ideal).normalized_to(&base);
    assert!(
        norm < 1.1,
        "ideal metadata caches should erase the overhead, got {norm}"
    );
}

/// Fig. 11: PPKI decreases monotonically with epoch size.
#[test]
fn ppki_monotonic_in_epoch_size() {
    let mut previous = f64::INFINITY;
    for epoch in [4usize, 16, 64, 256] {
        let mut cfg = SystemConfig::for_scheme(UpdateScheme::O3);
        cfg.epoch_size = epoch;
        let ppki = run("gcc", &cfg).persist_ppki();
        assert!(
            ppki < previous,
            "PPKI must fall with epoch size (epoch {epoch}: {ppki})"
        );
        previous = ppki;
    }
}

/// §VII WPQ sweep: shrinking the WPQ can only hurt.
#[test]
fn wpq_size_monotonicity() {
    let mut previous = Cycle::MAX;
    for wpq in [4usize, 16, 64] {
        let mut cfg = SystemConfig::for_scheme(UpdateScheme::Coalescing);
        cfg.wpq_entries = wpq;
        let cycles = run("gcc", &cfg).total_cycles;
        assert!(
            cycles <= previous,
            "larger WPQ must not be slower (wpq {wpq}: {cycles})"
        );
        previous = cycles;
    }
}

/// The coalescing mechanism's raison d'être: strictly fewer BMT node
/// updates than o3 at identical persist counts.
#[test]
fn coalescing_reduces_updates_not_persists() {
    let o3 = run("gcc", &SystemConfig::for_scheme(UpdateScheme::O3));
    let co = run("gcc", &SystemConfig::for_scheme(UpdateScheme::Coalescing));
    assert_eq!(o3.persists, co.persists, "same persist stream");
    assert!(
        co.engine.node_updates < o3.engine.node_updates,
        "coalescing saved nothing"
    );
    assert!(
        co.coalesced_saved_updates > 0,
        "saved-update counter should be positive"
    );
}

/// Full-memory protection costs strictly more than non-stack (the
/// `_full` columns of Figs. 8 and 10).
#[test]
fn full_scope_costs_more() {
    for scheme in [UpdateScheme::Sp, UpdateScheme::Coalescing] {
        let nonstack = run("astar", &SystemConfig::for_scheme(scheme));
        let mut full_cfg = SystemConfig::for_scheme(scheme);
        full_cfg.scope = plp::core::ProtectionScope::Full;
        let full = run("astar", &full_cfg);
        assert!(
            full.total_cycles > nonstack.total_cycles,
            "{scheme}: full scope should cost more"
        );
        assert!(full.persists > nonstack.persists);
    }
}

/// The non-monotonic Fig. 12 effect exists somewhere in the sweep:
/// for at least one benchmark a larger epoch is slower than a smaller
/// one.
#[test]
fn epoch_size_runtime_is_not_monotonic_everywhere() {
    let mut found = false;
    'outer: for bench in ["gamess", "milc", "zeusmp", "tonto", "gcc"] {
        let mut previous = Cycle::MAX;
        for epoch in [16usize, 64, 256] {
            let mut cfg = SystemConfig::for_scheme(UpdateScheme::Coalescing);
            cfg.epoch_size = epoch;
            let cycles = run(bench, &cfg).total_cycles;
            if cycles > previous {
                found = true;
                break 'outer;
            }
            previous = cycles;
        }
    }
    assert!(
        found,
        "no benchmark showed the late-sweep epoch-size upturn"
    );
}

/// Determinism across the whole stack: same seed, same everything.
#[test]
fn end_to_end_determinism() {
    let a = run(
        "leslie3d",
        &SystemConfig::for_scheme(UpdateScheme::Coalescing),
    );
    let b = run(
        "leslie3d",
        &SystemConfig::for_scheme(UpdateScheme::Coalescing),
    );
    assert_eq!(a.total_cycles, b.total_cycles);
    assert_eq!(a.engine.node_updates, b.engine.node_updates);
    assert_eq!(a.persists, b.persists);
    assert_eq!(a.nvm, b.nvm);
}
