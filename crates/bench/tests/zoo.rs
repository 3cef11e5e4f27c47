//! Zoo-scheme end-to-end guarantees through the bench harness: the
//! `zoo` artefact (triad_nvm + phoenix vs the sp baseline) renders
//! byte-identically under the chaos supervisor, and every zoo run —
//! unsharded or fanned out over a 4x4 stream/shard topology — upholds
//! its sanitizer contract.

use std::path::PathBuf;
use std::time::Duration;

use plp_bench::{
    execute_supervised, specs, ChaosOptions, MatrixOptions, RunSettings, SupervisorOptions,
};
use plp_core::retry::RetryPolicy;
use plp_core::{ShardTopology, UpdateScheme};

fn tiny() -> RunSettings {
    RunSettings {
        instructions: 2_000,
        seed: 5,
    }
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("plp-zoo-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn test_sup(cache_dir: Option<PathBuf>, threads: usize) -> SupervisorOptions {
    let mut sup = SupervisorOptions::new(MatrixOptions { threads, cache_dir });
    sup.watchdog = Duration::from_secs(2);
    sup.retry = RetryPolicy::constant(3, 1.0e6);
    sup
}

#[test]
fn zoo_artefact_renders_identically_under_chaos() {
    let s = tiny();
    let spec = specs::find("zoo").expect("zoo is registered");
    let reqs = spec.runs_needed(s);
    assert!(
        reqs.iter()
            .any(|r| r.config.scheme == UpdateScheme::TriadNvm)
            && reqs
                .iter()
                .any(|r| r.config.scheme == UpdateScheme::Phoenix),
        "the zoo artefact must run both new schemes"
    );

    let clean = test_sup(None, 4);
    let (want, _, clean_report) = execute_supervised(&reqs, &clean);
    assert!(clean_report.is_event_free());

    let dir = temp_dir("chaos");
    let mut sup = test_sup(Some(dir.clone()), 4);
    sup.chaos = Some(ChaosOptions {
        seed: 0xC0FFEE,
        intensity: 1.0,
        unrecoverable: 0,
    });
    let (got, _, report) = execute_supervised(&reqs, &sup);
    assert!(
        report.fully_recovered(),
        "chaos faults must all recover: {}",
        report.render()
    );

    // Byte-identical artefact and identical per-run reports; every run
    // (chaos-recovered included) sanitizer-clean.
    assert_eq!(spec.output(&want, s), spec.output(&got, s));
    for req in &reqs {
        assert_eq!(want.get(req), got.get(req), "{}", req.key());
        let r = got.get(req);
        assert!(
            r.sanitizer.is_clean(),
            "{}: {:?}",
            req.key(),
            r.sanitizer.violations
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn zoo_schemes_stay_sanitizer_clean_under_sharded_topology() {
    let s = tiny();
    let spec = specs::find("zoo").expect("zoo is registered");
    let topology = ShardTopology::new(4, 4);
    let reqs: Vec<_> = spec
        .runs_needed(s)
        .into_iter()
        .map(|r| r.with_topology(topology))
        .collect();

    let (results, _, report) = execute_supervised(&reqs, &test_sup(None, 4));
    assert!(report.is_event_free());
    for req in &reqs {
        let r = results.get(req);
        assert!(
            r.sanitizer.is_clean(),
            "{} sharded 4x4: {:?}",
            req.key(),
            r.sanitizer.violations
        );
        // Four streams of work actually flowed through the shards.
        if req.config.scheme != UpdateScheme::SecureWb {
            assert!(r.persists > 0, "{}: no persists", req.key());
        }
        assert!(
            r.instructions > 3 * s.instructions,
            "{}: four streams must retire ~4x the work",
            req.key()
        );
    }
}
