//! The harness's central output guarantee: a run matrix produces the
//! same reports and the same rendered artefacts whether it executes
//! serially, on a worker pool, or out of a warm on-disk cache.

use plp_bench::{matrix, specs, MatrixOptions, RunSettings};

fn temp_cache_dir() -> std::path::PathBuf {
    std::env::temp_dir().join(format!("plp-determinism-{}", std::process::id()))
}

#[test]
fn serial_parallel_and_warm_cache_agree_exactly() {
    let s = RunSettings {
        instructions: 2_000,
        seed: 3,
    };
    // A small but representative matrix: two artefacts with heavily
    // overlapping baselines.
    let spec_ids = ["fig10", "fig11"];
    let mut requests = Vec::new();
    for id in spec_ids {
        requests.extend(specs::find(id).expect("registered").runs_needed(s));
    }

    let cache_dir = temp_cache_dir();
    std::fs::remove_dir_all(&cache_dir).ok();

    let (serial, serial_stats) = matrix::execute(&requests, &MatrixOptions::serial());
    let cached = MatrixOptions {
        threads: 4,
        cache_dir: Some(cache_dir.clone()),
    };
    let (parallel, parallel_stats) = matrix::execute(&requests, &cached);
    let (warm, warm_stats) = matrix::execute(&requests, &cached);

    // The cold parallel pass computed everything; the warm pass
    // computed nothing.
    assert_eq!(parallel_stats.cache_hits, 0);
    assert_eq!(warm_stats.cache_hits, serial_stats.unique);

    // Identical RunReports for every request, run however.
    for req in &requests {
        assert_eq!(serial.get(req), parallel.get(req), "{}", req.key());
        assert_eq!(serial.get(req), warm.get(req), "{}", req.key());
    }

    // Byte-identical rendered artefacts.
    for id in spec_ids {
        let spec = specs::find(id).expect("registered");
        let a = spec.output(&serial, s);
        let b = spec.output(&parallel, s);
        let c = spec.output(&warm, s);
        assert_eq!(a, b, "{id}: parallel render differs from serial");
        assert_eq!(a, c, "{id}: warm-cache render differs from serial");
        assert!(a.starts_with(&format!("== {}:", spec.title)));
    }

    std::fs::remove_dir_all(&cache_dir).ok();
}

#[test]
fn cache_keys_isolate_settings() {
    // Same spec at a different seed must share nothing with the run
    // above even through a shared cache directory.
    let spec = specs::find("fig11").expect("registered");
    let a = RunSettings {
        instructions: 1_000,
        seed: 1,
    };
    let mut b = a;
    b.seed = 2;
    let keys_a: std::collections::HashSet<String> =
        spec.runs_needed(a).iter().map(|r| r.key()).collect();
    assert!(spec
        .runs_needed(b)
        .iter()
        .all(|r| !keys_a.contains(&r.key())));
}
