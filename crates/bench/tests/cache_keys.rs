//! Pins the run-cache key set: every registered spec's requests, keyed
//! by [`plp_bench::RunRequest::key`], deduplicated and sorted, joined
//! with `\n` and hashed with FNV-1a. A key is the content address of
//! a `results/cache/` entry, so a digest that moves means every warm
//! cache misses on its next run.

use std::collections::BTreeSet;

use plp_bench::{all_specs, RunSettings};
use plp_events::frame::fnv1a;

/// `(instructions, seed, unique keys, digest)`: the default smoke
/// length and the paper length.
const PINS: [(u64, u64, usize, u64); 2] = [
    (10_000, 7, 525, 0x0f35_4640_f783_b7c7),
    (400_000, 7, 525, 0xdac0_41dd_83eb_c5f6),
];

#[test]
fn registered_specs_keep_their_run_cache_keys() {
    for (instructions, seed, count, digest) in PINS {
        let raw = RunSettings { instructions, seed };
        let keys: BTreeSet<String> = all_specs()
            .iter()
            .flat_map(|spec| spec.runs_needed(raw))
            .map(|req| req.key())
            .collect();
        let joined = keys
            .iter()
            .map(String::as_str)
            .collect::<Vec<_>>()
            .join("\n");
        let got = (keys.len(), fnv1a(joined.as_bytes()));
        assert_eq!(
            got,
            (count, digest),
            "run-cache key set at ({instructions}, {seed}) moved (got {} keys, digest {:016x}): \
             every warm results/cache/ would miss on its next run. Re-pin only on purpose, \
             with the reason in CHANGES.md.",
            got.0,
            got.1
        );
    }
}
