//! The modelled recovery cycles of the `crash_recovery` pass, run at
//! `recovery_sweep`'s settings (gcc, 20 000 instructions, seed 7; the
//! workload's own length), must equal the committed
//! `results/BENCH_recovery_baseline.json`: worst cut per scheme at 11
//! levels.

use std::path::PathBuf;

use perfbench::crash;
use perfbench::host::WorkDir;
use perfbench::span::Tracer;

/// `"key": integer` pairs of the baseline's `recovery_cycles` section.
fn baseline_cycles(doc: &str) -> Vec<(String, u64)> {
    let section = &doc[doc
        .find("\"recovery_cycles\"")
        .expect("recovery_cycles section")..];
    let body = &section[section.find('{').expect("object") + 1..section.find('}').expect("end")];
    body.split(',')
        .map(|pair| {
            let (k, v) = pair.split_once(':').expect("key: value");
            (
                k.trim().trim_matches('"').to_string(),
                v.trim().parse().expect("integer"),
            )
        })
        .collect()
}

#[test]
fn worst_cut_cycles_match_the_recovery_baseline() {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let doc = std::fs::read_to_string(manifest.join("../results/BENCH_recovery_baseline.json"))
        .expect("committed recovery baseline");
    let expected = baseline_cycles(&doc);
    assert_eq!(expected.len(), crash::SCHEMES.len());

    let mut work = WorkDir::at(PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("reference"))
        .expect("scratch directory");
    assert_eq!(crash::INSTRUCTIONS, 20_000);
    let pass =
        crash::run_pass(7, &crash::trace(7), &mut work, &mut Tracer::off()).expect("pass runs");
    assert_eq!(pass.failed, 0);
    for (scheme, cycles) in expected {
        assert_eq!(
            pass.worst_cycles.get(&(scheme.clone(), 11)),
            Some(&cycles),
            "{scheme} at 11 levels"
        );
    }
}
