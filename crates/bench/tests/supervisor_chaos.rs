//! End-to-end supervision and chaos tests (the PR's acceptance
//! criteria): a chaos sweep with 20+ injected retryable faults must
//! complete with zero harness aborts, a full result set and
//! byte-identical reports; the degradation report must be a pure
//! function of the chaos seed; an unrecoverable fault must degrade to
//! a partial result set instead of a panic; and a corrupted cache
//! entry must quarantine and regenerate transparently mid-matrix.

use std::path::PathBuf;
use std::time::Duration;

use plp_bench::supervisor::RunVerdict;
use plp_bench::{
    execute_supervised, ChaosOptions, MatrixOptions, RunRequest, RunSettings, SupervisorOptions,
};
use plp_core::retry::RetryPolicy;
use plp_core::{SystemConfig, UpdateScheme};

fn tiny() -> RunSettings {
    RunSettings {
        instructions: 2_000,
        seed: 5,
    }
}

/// 24 distinct runs: every update scheme × four benchmarks.
fn requests() -> Vec<RunRequest> {
    let mut reqs = Vec::new();
    for scheme in UpdateScheme::all() {
        for bench in ["gcc", "milc", "astar", "namd"] {
            reqs.push(RunRequest::new(
                bench,
                SystemConfig::for_scheme(scheme),
                tiny(),
            ));
        }
    }
    reqs
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("plp-supchaos-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Supervision options tuned for tests: a watchdog generous next to a
/// 2k-instruction run (~ms) but small enough that injected stalls
/// resolve quickly, and near-instant backoff.
fn test_sup(cache_dir: Option<PathBuf>, threads: usize) -> SupervisorOptions {
    let mut sup = SupervisorOptions::new(MatrixOptions { threads, cache_dir });
    sup.watchdog = Duration::from_secs(2);
    sup.retry = RetryPolicy::constant(3, 1.0e6); // 1 ms, three retries
    sup
}

#[test]
fn chaos_sweep_recovers_every_retryable_fault() {
    let dir = temp_dir("sweep");
    let reqs = requests();

    // Ground truth: the same matrix, unsupervised by faults.
    let clean = test_sup(None, 4);
    let (want, _, clean_report) = execute_supervised(&reqs, &clean);
    assert!(clean_report.is_event_free());

    // Full-intensity chaos: every one of the 24 runs gets a fault.
    let mut sup = test_sup(Some(dir.clone()), 4);
    sup.chaos = Some(ChaosOptions {
        seed: 0xC0FFEE,
        intensity: 1.0,
        unrecoverable: 0,
    });
    let (got, stats, report) = execute_supervised(&reqs, &sup);

    assert!(
        report.chaos_faults.len() >= 20,
        "acceptance asks for 20+ injected faults, planned {}",
        report.chaos_faults.len()
    );
    assert!(report.fully_recovered(), "all faults were retryable");
    assert_eq!(report.counts().lost(), 0);
    assert_eq!(got.len(), stats.unique, "no run may be missing");
    for req in &reqs {
        assert!(got.contains(req));
        assert_eq!(
            got.get(req),
            want.get(req),
            "recovered runs must render byte-identically: {}",
            req.key()
        );
    }
    // The eventful verdicts add up to the whole fault plan: every run
    // was afflicted, so none can be a plain first-attempt Ok.
    let c = report.counts();
    assert_eq!(c.ok, 0, "intensity 1.0 afflicts every run: {c:?}");
    assert_eq!(
        c.cache_quarantined + c.retried,
        stats.unique,
        "every fault recovers through quarantine or retry: {c:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn degradation_report_is_a_pure_function_of_the_chaos_seed() {
    let reqs = requests();
    let run = |name: &str, threads: usize| {
        let dir = temp_dir(name);
        let mut sup = test_sup(Some(dir.clone()), threads);
        sup.chaos = Some(ChaosOptions {
            seed: 0xDEAD_BEEF,
            intensity: 1.0,
            unrecoverable: 0,
        });
        let (_, _, report) = execute_supervised(&reqs, &sup);
        let _ = std::fs::remove_dir_all(&dir);
        report
    };
    let first = run("det-a", 4);
    let second = run("det-b", 2);
    assert_eq!(
        first, second,
        "same seed, different cache dirs and thread counts — the reports must be equal"
    );
}

#[test]
fn unrecoverable_faults_degrade_to_a_partial_result_set() {
    let reqs = requests();
    let mut sup = test_sup(None, 4);
    sup.retry = RetryPolicy::constant(1, 1.0e6); // sticky runs fail fast
    sup.chaos = Some(ChaosOptions {
        seed: 1,
        intensity: 0.0,
        unrecoverable: 2,
    });
    let (results, stats, report) = execute_supervised(&reqs, &sup);

    assert!(!report.fully_recovered());
    assert_eq!(report.counts().panicked, 2);
    assert_eq!(results.len(), stats.unique - 2, "partial, not empty");
    // The lost runs are exactly the sticky-panic entries, each having
    // burned the whole retry budget.
    let lost: Vec<_> = report
        .entries()
        .filter(|(_, log)| !log.verdict.recovered())
        .collect();
    assert_eq!(lost.len(), 2);
    for (key, log) in lost {
        assert_eq!(log.verdict, RunVerdict::Panicked { attempts: 2 });
        assert_eq!(log.failures.len(), 2);
        assert!(
            !results.iter().any(|(k, _)| k == key),
            "a lost run must not appear in the result set"
        );
    }
    // Every other run is untouched.
    assert_eq!(report.counts().ok, stats.unique - 2);
}

#[test]
fn corrupt_cache_entries_quarantine_and_regenerate_mid_matrix() {
    let dir = temp_dir("quarantine");
    let reqs = requests();

    // Warm the cache.
    let sup = test_sup(Some(dir.clone()), 4);
    let (want, _, warm_report) = execute_supervised(&reqs, &sup);
    assert!(warm_report.is_event_free());

    // Corrupt one entry: truncate the stored file mid-body.
    let victim = &reqs[5];
    let path = plp_bench::cache::cache_path(&dir, &victim.key());
    let bytes = std::fs::read(&path).expect("entry exists after warm run");
    std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();

    // Re-run: the corrupt entry is quarantined and regenerated; every
    // other run is a clean cache hit.
    let (got, stats, report) = execute_supervised(&reqs, &sup);
    assert!(report.fully_recovered());
    assert_eq!(report.counts().cache_quarantined, 1);
    assert_eq!(report.counts().ok, stats.unique - 1);
    assert_eq!(stats.cache_hits, stats.unique - 1);
    let (key, log) = report.entries().next().expect("one eventful run");
    assert_eq!(key, &victim.key());
    assert_eq!(log.verdict, RunVerdict::CacheQuarantined);
    assert_eq!(log.quarantine.as_deref(), Some("truncated entry"));
    assert_eq!(got.get(victim), want.get(victim));

    // The bad bytes moved into quarantine and the slot healed: a third
    // run is all cache hits.
    let quarantined = std::fs::read_dir(plp_bench::cache::quarantine_dir(&dir))
        .expect("quarantine dir exists")
        .count();
    assert_eq!(quarantined, 1);
    let (_, third_stats, third_report) = execute_supervised(&reqs, &sup);
    assert!(third_report.is_event_free());
    assert_eq!(third_stats.cache_hits, third_stats.unique);
    let _ = std::fs::remove_dir_all(&dir);
}
