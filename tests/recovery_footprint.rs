//! Recovery's host work scales with the populated tree, not with its
//! geometry.
//!
//! An 8-ary, 11-level BMT has a 9.8 GB node arena and a 153 MB
//! occupancy bitmap, all of it untouched address space until a node is
//! written. A recovery that walks the whole bitmap, or builds a
//! throwaway arena and clears it, pays one page fault per 4 KiB of it
//! (37 449 for the bitmap alone). A recovery whose every step is
//! proportional to the populated nodes touches a few pages per
//! persisted counter block.
//!
//! The minor-fault count in `/proc/self/stat` covers the whole
//! process, so this file holds a single test: its binary runs nothing
//! else that could fault.

#![cfg(target_os = "linux")]

use plp::bmt::{BmtGeometry, BonsaiTree};
use plp::core::fault::{FaultVerdict, RebuildStrategy, RecoveryManager};
use plp::core::{ObserverExpectation, PersistImage, SystemConfig, UpdateScheme};
use plp::crypto::CounterBlock;

/// This process's minor page faults so far: field 10 of
/// `/proc/self/stat`, counted past the parenthesised command name
/// (which may itself contain spaces).
fn minor_faults() -> u64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("procfs is mounted");
    let after_comm = &stat[stat.rfind(')').expect("stat has a command name") + 2..];
    // `after_comm` starts at field 3 (the process state).
    after_comm
        .split(' ')
        .nth(10 - 3)
        .and_then(|f| f.parse().ok())
        .expect("stat field 10 is the minor-fault count")
}

#[test]
fn tall_tree_recovery_faults_scale_with_populated_nodes() {
    let mut config = SystemConfig::for_scheme(UpdateScheme::TriadNvm);
    config.bmt = BmtGeometry::new(8, 11);
    let geometry = config.bmt;
    assert_eq!(
        RebuildStrategy::for_config(&config),
        RebuildStrategy::Suffix { floor: 9 }
    );

    // Eight counter blocks spread across the whole tree, so their
    // paths share only the root.
    let stride = geometry.leaf_count() / 8;
    let counters: Vec<(u64, CounterBlock)> = (0..8u64)
        .map(|i| {
            let mut cb = CounterBlock::new();
            cb.bump(i as usize);
            (i * stride, cb)
        })
        .collect();
    let root = BonsaiTree::from_counters(
        geometry,
        config.key,
        counters.iter().map(|(page, cb)| (*page, cb)),
    )
    .root();

    let before = minor_faults();
    let mut cycles = Vec::with_capacity(5);
    for _ in 0..5 {
        let mut image = PersistImage::fresh(geometry, config.key);
        image.counters.extend(counters.iter().cloned());
        image.root = root;
        let outcome = RecoveryManager::for_config(&config).recover(
            &image,
            &[],
            &ObserverExpectation::default(),
        );
        assert_eq!(outcome.verdict(), FaultVerdict::Clean, "{outcome}");
        cycles.push(outcome.recovery_cycles);
    }
    let faults = minor_faults() - before;

    assert!(cycles.windows(2).all(|w| w[0] == w[1]), "{cycles:?}");
    assert!(
        faults < 20_000,
        "five 11-level recoveries of eight counter blocks took {faults} minor faults"
    );
}
