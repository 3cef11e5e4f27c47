//! Crash injection and the recovery checker: Invariants 1 and 2 as
//! executable checks, with the Table I / Table II failure taxonomy.

use std::collections::{BTreeSet, HashMap};

use plp_bmt::{BmtGeometry, BonsaiTree, NodeValue, PathTree};
use plp_crypto::{CounterBlock, CtrEngine, DataBlock, MacEngine, MacTag, SipKey};
use plp_events::addr::BlockAddr;
use plp_events::Cycle;

use crate::{PersistRecord, TupleTimes};

/// The durable state a crash leaves behind: NVMM contents plus the
/// persistently-stored on-chip BMT root.
#[derive(Debug, Clone, PartialEq)]
pub struct PersistImage {
    /// Ciphertexts by block address.
    pub data: HashMap<BlockAddr, DataBlock>,
    /// MAC tags by block address.
    pub macs: HashMap<BlockAddr, MacTag>,
    /// Split-counter blocks by page index.
    pub counters: HashMap<u64, CounterBlock>,
    /// The persisted BMT root register.
    pub root: NodeValue,
}

impl PersistImage {
    /// The image of a fresh system (nothing persisted, all-default
    /// tree). Costs one hash per tree level, not a tree.
    pub fn fresh(geometry: BmtGeometry, key: SipKey) -> Self {
        PersistImage {
            data: HashMap::new(),
            macs: HashMap::new(),
            counters: HashMap::new(),
            root: BonsaiTree::fresh_root(geometry, key),
        }
    }

    /// Reconstructs the durable image at crash time `t` by replaying
    /// persist records component-by-component: each tuple component
    /// lands at its own [`TupleTimes`] timestamp. Correct (2SP/epoch)
    /// engines stamp all four components identically, so their images
    /// are always tuple-atomic; the `unordered` engine's divergent
    /// stamps reproduce the torn states of Tables I and II.
    pub fn at_time(
        records: &[PersistRecord],
        t: Cycle,
        geometry: BmtGeometry,
        key: SipKey,
    ) -> Self {
        let mut image = PersistImage::fresh(geometry, key);
        // Data, MACs and counters: last writer (by component time) wins.
        image.apply_components(records, t);
        image.root = Self::root_at(records, t, geometry, key);
        image
    }

    fn apply_components(&mut self, records: &[PersistRecord], t: Cycle) {
        let mut sorted: Vec<&PersistRecord> = records.iter().collect();
        sorted.sort_by_key(|r| r.times.data);
        for r in sorted.iter().filter(|r| r.times.data <= t) {
            self.data.insert(r.addr, r.ciphertext);
        }
        sorted.sort_by_key(|r| r.times.mac);
        for r in sorted.iter().filter(|r| r.times.mac <= t) {
            self.macs.insert(r.addr, r.mac);
        }
        sorted.sort_by_key(|r| r.times.counter);
        for r in sorted.iter().filter(|r| r.times.counter <= t) {
            self.counters
                .insert(r.addr.page().index(), r.counters_after.clone());
        }
    }

    /// The BMT root register after applying the root updates (in
    /// root-update order) of every record whose root persisted by `t`:
    /// the last of them per page sets that page's leaf.
    fn root_at(
        records: &[PersistRecord],
        t: Cycle,
        geometry: BmtGeometry,
        key: SipKey,
    ) -> NodeValue {
        let mut sorted: Vec<&PersistRecord> =
            records.iter().filter(|r| r.times.root <= t).collect();
        sorted.sort_by_key(|r| r.times.root);
        let counters = sorted
            .into_iter()
            .map(|r| (r.addr.page().index(), &r.counters_after));
        PathTree::from_counters(geometry, key, counters).root()
    }
}

/// What the crash-recovery observer expects to read back: the latest
/// completed plaintext per address.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct ObserverExpectation {
    /// Expected plaintexts by block address.
    pub plaintexts: HashMap<BlockAddr, DataBlock>,
}

impl ObserverExpectation {
    /// The observer state at crash time `t`: every persist whose whole
    /// tuple completed by `t` is expected back, latest completion per
    /// address winning.
    pub fn at_time(records: &[PersistRecord], t: Cycle) -> Self {
        let mut sorted: Vec<&PersistRecord> = records.iter().collect();
        sorted.sort_by_key(|r| r.completed_at());
        let mut plaintexts = HashMap::new();
        for r in sorted.into_iter().filter(|r| r.completed_at() <= t) {
            plaintexts.insert(r.addr, r.plaintext);
        }
        ObserverExpectation { plaintexts }
    }

    /// The observer state after a crash that left exactly the persists
    /// in `complete` (by id) wholly durable — what a replayed device
    /// image reports as its complete ids. `records` are in program
    /// order and the latest persist per address wins. For tuple-atomic
    /// schemes completion order is program order, so this equals
    /// [`ObserverExpectation::at_time`] at any cut that completes the
    /// same ids.
    pub fn from_complete_ids(records: &[PersistRecord], complete: &BTreeSet<u64>) -> Self {
        let mut plaintexts = HashMap::new();
        for r in records.iter().filter(|r| complete.contains(&r.id.0)) {
            plaintexts.insert(r.addr, r.plaintext);
        }
        ObserverExpectation { plaintexts }
    }
}

/// The outcome of a recovery attempt, mirroring the failure categories
/// of Tables I and II.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// The rebuilt BMT root did not match the persisted root register
    /// ("BMT (verification) failure").
    pub bmt_failure: bool,
    /// Blocks whose stored MAC failed verification.
    pub mac_failures: Vec<BlockAddr>,
    /// Blocks that decrypted to the wrong plaintext.
    pub plaintext_failures: Vec<BlockAddr>,
}

impl RecoveryReport {
    /// Whether recovery succeeded completely.
    pub fn is_clean(&self) -> bool {
        !self.bmt_failure && self.mac_failures.is_empty() && self.plaintext_failures.is_empty()
    }
}

impl std::fmt::Display for RecoveryReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_clean() {
            return write!(f, "recovery clean");
        }
        write!(
            f,
            "recovery failed: bmt={} mac_failures={} plaintext_failures={}",
            self.bmt_failure,
            self.mac_failures.len(),
            self.plaintext_failures.len()
        )
    }
}

/// Verifies a crash image against the observer's expectations:
/// (1) recompute the BMT over the persisted counters and compare to the
/// persisted root; (2) verify each expected block's stateful MAC;
/// (3) decrypt and compare plaintexts.
#[derive(Debug, Clone)]
pub struct RecoveryChecker {
    geometry: BmtGeometry,
    key: SipKey,
    ctr: CtrEngine,
    mac: MacEngine,
}

impl RecoveryChecker {
    /// Creates a checker for the given tree shape and master key.
    pub fn new(geometry: BmtGeometry, key: SipKey) -> Self {
        RecoveryChecker {
            geometry,
            key,
            ctr: CtrEngine::new(key),
            mac: MacEngine::new(key),
        }
    }

    /// Runs full recovery verification.
    ///
    /// # Panics
    ///
    /// Panics if a counter block's page lies outside the checker's
    /// geometry. [`crate::replay_image`] refuses such a device image.
    pub fn check(&self, image: &PersistImage, expected: &ObserverExpectation) -> RecoveryReport {
        let mut report = RecoveryReport::default();

        // 1. Integrity-tree check: counters must hash to the root.
        let rebuilt = PathTree::from_counters(
            self.geometry,
            self.key,
            image.counters.iter().map(|(p, c)| (*p, c)),
        );
        report.bmt_failure = rebuilt.root() != image.root;

        // 2 & 3. Per-block MAC verification and plaintext recovery.
        let mut addrs: Vec<_> = expected.plaintexts.keys().copied().collect();
        addrs.sort();
        for addr in addrs {
            let expected_plain = expected.plaintexts[&addr];
            let cipher = image.data.get(&addr).copied().unwrap_or_default();
            let counter = image
                .counters
                .get(&addr.page().index())
                .cloned()
                .unwrap_or_default()
                .value_for(addr);
            let mac = image.macs.get(&addr).copied().unwrap_or_default();
            if !self.mac.verify(&cipher, addr, counter, mac) {
                report.mac_failures.push(addr);
            }
            if self.ctr.decrypt(cipher, addr, counter) != expected_plain {
                report.plaintext_failures.push(addr);
            }
        }
        report
    }
}

/// The work a post-crash recovery pass performs — the quantity that
/// recovery-time schemes (Anubis, Osiris; §II related work) optimize.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryCost {
    /// Persisted counter blocks that must be fetched and hashed.
    pub counter_blocks: u64,
    /// Tree hash computations to rebuild the root (leaves plus every
    /// touched interior node).
    pub hash_computations: u64,
    /// Data-block MAC verifications for the observer's expected set.
    pub mac_verifications: u64,
}

impl RecoveryCost {
    /// Estimated recovery cycles given a hash/MAC unit latency,
    /// assuming fully pipelined units (one result per cycle after the
    /// first) and counter fetches overlapped with hashing.
    pub fn estimated_cycles(&self, mac_latency: u64) -> u64 {
        let ops = self.hash_computations + self.mac_verifications;
        if ops == 0 {
            0
        } else {
            mac_latency + ops
        }
    }
}

/// Which memory-tuple component a fault scenario manipulates (the rows
/// of Tables I and II).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TupleComponent {
    /// The ciphertext `C`.
    Ciphertext,
    /// The counter `γ`.
    Counter,
    /// The MAC `M`.
    Mac,
    /// The BMT root `R`.
    Root,
}

impl TupleComponent {
    /// All four components.
    pub const ALL: [TupleComponent; 4] = [
        TupleComponent::Ciphertext,
        TupleComponent::Counter,
        TupleComponent::Mac,
        TupleComponent::Root,
    ];
}

/// Returns a copy of `records` in which record `idx`'s `component`
/// never persisted (its timestamp becomes `Cycle::MAX`) — the Table I
/// "persist failure" scenarios.
///
/// # Panics
///
/// Panics if `idx` is out of bounds.
pub fn with_component_lost(
    records: &[PersistRecord],
    idx: usize,
    component: TupleComponent,
) -> Vec<PersistRecord> {
    let mut out = records.to_vec();
    let times = &mut out[idx].times;
    match component {
        TupleComponent::Ciphertext => times.data = Cycle::MAX,
        TupleComponent::Counter => times.counter = Cycle::MAX,
        TupleComponent::Mac => times.mac = Cycle::MAX,
        TupleComponent::Root => times.root = Cycle::MAX,
    }
    out
}

/// Returns a copy of `records` in which the `component` persists of
/// records `first` and `second` are swapped in time — the Table II
/// "ordering violation" scenarios (α1 → α2 enforced for data, but the
/// chosen component persisted in the opposite order).
///
/// # Panics
///
/// Panics if either index is out of bounds.
pub fn with_component_reordered(
    records: &[PersistRecord],
    first: usize,
    second: usize,
    component: TupleComponent,
) -> Vec<PersistRecord> {
    let mut out = records.to_vec();
    let get = |t: &TupleTimes, c: TupleComponent| match c {
        TupleComponent::Ciphertext => t.data,
        TupleComponent::Counter => t.counter,
        TupleComponent::Mac => t.mac,
        TupleComponent::Root => t.root,
    };
    let set = |t: &mut TupleTimes, c: TupleComponent, v: Cycle| match c {
        TupleComponent::Ciphertext => t.data = v,
        TupleComponent::Counter => t.counter = v,
        TupleComponent::Mac => t.mac = v,
        TupleComponent::Root => t.root = v,
    };
    let a = get(&out[first].times, component);
    let b = get(&out[second].times, component);
    set(&mut out[first].times, component, b);
    set(&mut out[second].times, component, a);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EpochId, PersistId};

    fn key() -> SipKey {
        SipKey::new(1, 2)
    }

    fn geometry() -> BmtGeometry {
        BmtGeometry::new(8, 4)
    }

    /// Builds n correct, atomic persist records to distinct pages.
    fn make_records(n: u64) -> Vec<PersistRecord> {
        let ctr_engine = CtrEngine::new(key());
        let mac_engine = MacEngine::new(key());
        let mut counters: HashMap<u64, CounterBlock> = HashMap::new();
        let mut out = Vec::new();
        for i in 0..n {
            let addr = BlockAddr::new(i * 64); // one block per page
            let page = addr.page().index();
            let cb = counters.entry(page).or_default();
            let gamma = cb.bump(addr.slot_in_page()).value();
            let plaintext = DataBlock::from_u64(0x1000 + i);
            let ciphertext = ctr_engine.encrypt(plaintext, addr, gamma);
            let mac = mac_engine.compute(&ciphertext, addr, gamma);
            out.push(PersistRecord {
                id: PersistId(i),
                epoch: EpochId(0),
                addr,
                plaintext,
                ciphertext,
                counters_after: cb.clone(),
                mac,
                issued_at: Cycle::new(i * 100),
                times: TupleTimes::atomic(Cycle::new(i * 100 + 360)),
            });
        }
        out
    }

    fn check_at(records: &[PersistRecord], t: Cycle) -> RecoveryReport {
        check_against(records, records, t)
    }

    /// Builds the durable image from `faulty` records but holds it to
    /// the expectations the *program* formed (`original` records) —
    /// the Table I situation where a tuple component silently failed
    /// to persist.
    fn check_against(
        faulty: &[PersistRecord],
        original: &[PersistRecord],
        t: Cycle,
    ) -> RecoveryReport {
        let image = PersistImage::at_time(faulty, t, geometry(), key());
        let expected = ObserverExpectation::at_time(original, t);
        RecoveryChecker::new(geometry(), key()).check(&image, &expected)
    }

    #[test]
    fn atomic_records_recover_cleanly_at_any_point() {
        let records = make_records(5);
        for t in [0u64, 100, 360, 459, 460, 760, 10_000] {
            let report = check_at(&records, Cycle::new(t));
            assert!(report.is_clean(), "crash at {t}: {report}");
        }
    }

    #[test]
    fn table1_row1_lost_root_is_bmt_failure() {
        let original = make_records(3);
        let faulty = with_component_lost(&original, 2, TupleComponent::Root);
        let report = check_against(&faulty, &original, Cycle::new(10_000));
        assert!(report.bmt_failure);
        assert!(report.mac_failures.is_empty());
        assert!(report.plaintext_failures.is_empty());
    }

    #[test]
    fn table1_row2_lost_mac_is_mac_failure() {
        let original = make_records(3);
        let faulty = with_component_lost(&original, 2, TupleComponent::Mac);
        let report = check_against(&faulty, &original, Cycle::new(10_000));
        assert!(!report.bmt_failure);
        assert_eq!(report.mac_failures.len(), 1);
        assert!(report.plaintext_failures.is_empty());
    }

    #[test]
    fn table1_row3_lost_counter_is_wrong_plaintext_and_both_failures() {
        let original = make_records(3);
        let faulty = with_component_lost(&original, 2, TupleComponent::Counter);
        let report = check_against(&faulty, &original, Cycle::new(10_000));
        assert!(report.bmt_failure, "stale counter breaks the tree");
        assert_eq!(report.mac_failures.len(), 1);
        assert_eq!(report.plaintext_failures.len(), 1);
    }

    #[test]
    fn table1_row4_lost_ciphertext_is_wrong_plaintext_and_mac_failure() {
        let original = make_records(3);
        let faulty = with_component_lost(&original, 2, TupleComponent::Ciphertext);
        let report = check_against(&faulty, &original, Cycle::new(10_000));
        assert!(!report.bmt_failure);
        assert_eq!(report.mac_failures.len(), 1);
        assert_eq!(report.plaintext_failures.len(), 1);
    }

    #[test]
    fn table2_root_order_violation_fails_bmt_between_persists() {
        // α1 → α2 but R2 → R1: crash after R2 persisted, before R1.
        let records = make_records(2);
        let reordered = with_component_reordered(&records, 0, 1, TupleComponent::Root);
        // Crash between the two root persists: only α2's root applied.
        // α1's data/counter/mac persisted at 360; α2's root now at 360,
        // α1's root at 460. Crash at 400.
        let image = PersistImage::at_time(&reordered, Cycle::new(400), geometry(), key());
        // The observer legitimately expects α1 (its data tuple
        // completed first in program order).
        let expected = ObserverExpectation::at_time(&records, Cycle::new(400));
        let report = RecoveryChecker::new(geometry(), key()).check(&image, &expected);
        assert!(report.bmt_failure, "root ordering violation undetected");
    }

    #[test]
    fn table2_counter_order_violation_loses_plaintext() {
        // γ1 → γ2 violated: γ2 persisted early, γ1 late; crash between.
        let records = make_records(2);
        let reordered = with_component_reordered(&records, 0, 1, TupleComponent::Counter);
        let image = PersistImage::at_time(&reordered, Cycle::new(400), geometry(), key());
        let expected = ObserverExpectation::at_time(&records, Cycle::new(400));
        let report = RecoveryChecker::new(geometry(), key()).check(&image, &expected);
        assert!(
            !report.plaintext_failures.is_empty(),
            "P1 should not be recoverable"
        );
    }

    #[test]
    fn table2_mac_order_violation_fails_mac() {
        let records = make_records(2);
        let reordered = with_component_reordered(&records, 0, 1, TupleComponent::Mac);
        let image = PersistImage::at_time(&reordered, Cycle::new(400), geometry(), key());
        let expected = ObserverExpectation::at_time(&records, Cycle::new(400));
        let report = RecoveryChecker::new(geometry(), key()).check(&image, &expected);
        assert!(!report.mac_failures.is_empty());
    }

    #[test]
    fn observer_takes_latest_completion_per_address() {
        let mut records = make_records(1);
        // A second persist to the same address, later.
        let mut second = records[0].clone();
        second.id = PersistId(1);
        second.plaintext = DataBlock::from_u64(0xbeef);
        let ctr_engine = CtrEngine::new(key());
        let mac_engine = MacEngine::new(key());
        let mut cb = records[0].counters_after.clone();
        let gamma = cb.bump(second.addr.slot_in_page()).value();
        second.counters_after = cb;
        second.ciphertext = ctr_engine.encrypt(second.plaintext, second.addr, gamma);
        second.mac = mac_engine.compute(&second.ciphertext, second.addr, gamma);
        second.times = TupleTimes::atomic(Cycle::new(900));
        records.push(second);

        let expected = ObserverExpectation::at_time(&records, Cycle::new(10_000));
        assert_eq!(
            expected.plaintexts[&records[0].addr],
            DataBlock::from_u64(0xbeef)
        );
        let report = check_at(&records, Cycle::new(10_000));
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn estimated_cycles_pipeline_after_the_first_hash() {
        let cost = RecoveryCost {
            counter_blocks: 5,
            hash_computations: 12,
            mac_verifications: 5,
        };
        assert_eq!(cost.estimated_cycles(40), 40 + 17);
        assert_eq!(RecoveryCost::default().estimated_cycles(40), 0);
    }

    #[test]
    fn fresh_image_is_clean() {
        let image = PersistImage::fresh(geometry(), key());
        let report =
            RecoveryChecker::new(geometry(), key()).check(&image, &ObserverExpectation::default());
        assert!(report.is_clean());
        assert_eq!(report.to_string(), "recovery clean");
    }
}
