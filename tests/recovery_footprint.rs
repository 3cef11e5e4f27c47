//! Recovery's host work scales with the populated tree, not with its
//! geometry.
//!
//! An 8-ary, 11-level BMT has a 9.8 GB node arena and a 153 MB
//! occupancy bitmap, all of it untouched address space until a node is
//! written. A rebuild that builds such an arena faults in a page for
//! every node it writes, about 205 faults for eight spread paths, and
//! one that walks the whole bitmap pays 37 449 faults for it alone.
//! Recovery rebuilds a packed tree over the persisted paths instead,
//! whose few kilobytes come from the heap.
//!
//! The minor-fault count in `/proc/self/stat` covers the whole
//! process, so this file holds a single test: its binary runs nothing
//! else that could fault.

#![cfg(target_os = "linux")]

use plp::bmt::{BmtGeometry, PathTree};
use plp::core::fault::{FaultVerdict, RebuildStrategy, RecoveryManager, RootStatus};
use plp::core::{
    EpochId, ObserverExpectation, PersistId, PersistImage, PersistRecord, RecoveryChecker,
    SystemConfig, TupleTimes, UpdateScheme,
};
use plp::crypto::{CounterBlock, DataBlock, MacTag};
use plp::events::addr::{BlockAddr, BLOCKS_PER_PAGE};
use plp::events::Cycle;

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

/// Minor faults of five calls of `site`, after one warm-up call that
/// faults in its code and grows the heap.
fn faults_of_five(mut site: impl FnMut()) -> u64 {
    site();
    let before = minor_faults();
    for _ in 0..5 {
        site();
    }
    minor_faults() - before
}

/// Five calls of a recovery rebuild site may take this many minor
/// faults: an arena rebuild takes about 205 per call.
const SITE_BUDGET: u64 = 100;

#[test]
fn tall_tree_recovery_faults_scale_with_populated_nodes() {
    let mut config = SystemConfig::for_scheme(UpdateScheme::TriadNvm);
    config.bmt = BmtGeometry::new(8, 11);
    let geometry = config.bmt;
    assert_eq!(
        RebuildStrategy::for_config(&config),
        RebuildStrategy::Suffix { floor: 9 }
    );

    // 64 persists to eight pages spread across the whole tree, so
    // their paths share only the root.
    let stride = geometry.leaf_count() / 8;
    let mut counters = vec![CounterBlock::new(); 8];
    let records: Vec<PersistRecord> = (0..64u64)
        .map(|i| {
            let page = i % 8;
            let slot = i / 8;
            counters[page as usize].bump(slot as usize);
            PersistRecord {
                id: PersistId(i),
                epoch: EpochId(0),
                addr: BlockAddr::new(page * stride * BLOCKS_PER_PAGE as u64 + slot),
                plaintext: DataBlock::from_u64(i),
                ciphertext: DataBlock::from_u64(!i),
                counters_after: counters[page as usize].clone(),
                mac: MacTag::from_raw(i),
                issued_at: Cycle::new(i * 100),
                times: TupleTimes::atomic(Cycle::new(i * 100 + 360)),
            }
        })
        .collect();
    let end = Cycle::new(1_000_000);
    let image = PersistImage::at_time(&records, end, geometry, config.key);
    let persisted: Vec<(u64, &CounterBlock)> = records
        .iter()
        .map(|r| (r.addr.page().index(), &r.counters_after))
        .collect();
    assert_eq!(
        image.root,
        PathTree::from_counters(geometry, config.key, persisted).root()
    );
    let mut suspect = image.clone();
    suspect.root ^= 1;
    let nothing = ObserverExpectation::default();

    // A fresh manager per call: a reused one would answer the suspect
    // root's prefix search from its memo.
    let recover = |image: &PersistImage, root: RootStatus, cycles: &mut Vec<u64>| {
        let outcome = RecoveryManager::for_config(&config).recover(image, &records, &nothing);
        assert_eq!(outcome.root, root, "{outcome}");
        cycles.push(outcome.recovery_cycles);
    };
    let (mut intact_cycles, mut suspect_cycles) = (Vec::new(), Vec::new());
    let intact = faults_of_five(|| recover(&image, RootStatus::Intact, &mut intact_cycles));
    let searched = faults_of_five(|| recover(&suspect, RootStatus::Suspect, &mut suspect_cycles));
    let checker = RecoveryChecker::new(geometry, config.key);
    let checked = faults_of_five(|| {
        assert!(checker.check(&image, &nothing).is_clean());
    });
    let replayed = faults_of_five(|| {
        let at = PersistImage::at_time(&records, end, geometry, config.key);
        assert_eq!(at.root, image.root);
    });

    for cycles in [&intact_cycles, &suspect_cycles] {
        assert!(cycles.windows(2).all(|w| w[0] == w[1]), "{cycles:?}");
    }
    let outcome = RecoveryManager::for_config(&config).recover(&image, &records, &nothing);
    assert_eq!(outcome.verdict(), FaultVerdict::Clean, "{outcome}");
    let sites = [
        ("recover, intact root", intact),
        ("recover, suspect root", searched),
        ("check", checked),
        ("at_time", replayed),
    ];
    for (site, faults) in sites {
        assert!(
            faults < SITE_BUDGET,
            "five 11-level calls of {site} took {faults} minor faults; all sites: {sites:?}"
        );
    }
}
