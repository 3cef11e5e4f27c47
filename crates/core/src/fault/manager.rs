//! Active recovery: repair what can be repaired, quarantine what
//! cannot, and say honestly which one happened.
//!
//! The passive [`RecoveryChecker`](crate::RecoveryChecker) only
//! *classifies* a crash image against Tables I and II. The
//! [`RecoveryManager`] goes further, the way a real secure-memory
//! controller must after power returns:
//!
//! 1. rebuild the BMT from the persisted counters;
//! 2. if the persisted root disagrees, search the recorded root-update
//!    sequence for a prefix the persisted root matches — a match means
//!    the root merely *lagged* the counters (or vice versa) and the
//!    rebuilt root can be adopted; no match marks the root itself
//!    suspect (e.g. a flipped root bit), and the rebuilt root is still
//!    adopted because the per-block MACs — which bind the counters, not
//!    the root — arbitrate safety block by block;
//! 3. re-verify every expected block's stateful MAC: verified blocks
//!    whose plaintext matches are salvaged, failed MACs are quarantined
//!    (detected loss), verified-but-unexpected plaintexts are split
//!    into authentic-but-stale versions and silent garbage.

use std::collections::HashMap;
use std::sync::Mutex;

use plp_bmt::{BmtGeometry, NodeValue, PathTree};
use plp_crypto::{CounterBlock, CtrEngine, DataBlock, MacEngine, SipKey};
use plp_events::addr::BlockAddr;
use plp_events::Cycle;

use crate::{
    ObserverExpectation, PersistImage, PersistRecord, RecoveryCost, SystemConfig, UpdateScheme,
};

use super::{BlockFate, FaultVerdict};

/// What the manager concluded about the persisted root register.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RootStatus {
    /// The persisted root matches the root rebuilt from the persisted
    /// counters — nothing to repair.
    Intact,
    /// The persisted root matches a prefix of the recorded root-update
    /// sequence: root and counters got out of step across the crash,
    /// but both are legitimate states. The rebuilt root is adopted.
    Lagged {
        /// How many recorded root updates the persisted root is behind
        /// the full sequence (0 means the root is current and the
        /// *counters* rolled back).
        updates_behind: usize,
    },
    /// The persisted root matches no legitimate prefix — the register
    /// itself is damaged. The rebuilt root is adopted and the per-block
    /// MACs decide what survives.
    Suspect,
}

impl RootStatus {
    /// Whether the root needed repair at all.
    pub fn needed_repair(self) -> bool {
        !matches!(self, RootStatus::Intact)
    }
}

/// A typed recovery failure, attached to the outcome when the root
/// could not be matched to any legitimate state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryError {
    /// The persisted root is neither the rebuilt root nor any recorded
    /// prefix root.
    RootMismatch {
        /// What the medium held.
        persisted: NodeValue,
        /// What the counters hash to (and what was adopted).
        rebuilt: NodeValue,
    },
}

impl std::fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoveryError::RootMismatch { persisted, rebuilt } => write!(
                f,
                "persisted root {persisted:#x} matches no recorded state; adopted rebuilt root {rebuilt:#x}"
            ),
        }
    }
}

impl std::error::Error for RecoveryError {}

/// Everything one recovery attempt produced.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryOutcome {
    /// What happened to the root register.
    pub root: RootStatus,
    /// The typed error when the root was unmatchable.
    pub root_error: Option<RecoveryError>,
    /// The root the recovered system continues with (always the one
    /// rebuilt from persisted counters).
    pub adopted_root: NodeValue,
    /// Per expected block, what recovery did with it (sorted by
    /// address).
    pub fates: Vec<(BlockAddr, BlockFate)>,
    /// Modeled recovery latency in cycles: counter fetch + the
    /// strategy's tree rebuild (which under [`RebuildStrategy::Full`]
    /// includes the root-prefix search) + MAC re-verification,
    /// pipelined.
    pub recovery_cycles: u64,
}

impl RecoveryOutcome {
    /// Blocks with the given fate.
    pub fn count(&self, fate: BlockFate) -> usize {
        self.fates.iter().filter(|(_, f)| *f == fate).count()
    }

    /// The addresses recovery fenced off as damaged.
    pub fn quarantined(&self) -> Vec<BlockAddr> {
        self.fates
            .iter()
            .filter(|(_, f)| *f == BlockFate::Quarantined)
            .map(|(a, _)| *a)
            .collect()
    }

    /// The single verdict for this attempt, worst evidence winning.
    pub fn verdict(&self) -> FaultVerdict {
        if self.count(BlockFate::SilentGarbage) > 0 {
            FaultVerdict::UndetectedCorruption
        } else if self.count(BlockFate::StaleAuthentic) > 0 {
            FaultVerdict::StaleRollback
        } else if self.count(BlockFate::Quarantined) > 0 {
            FaultVerdict::DetectedLoss
        } else if self.root.needed_repair() {
            FaultVerdict::Repaired
        } else {
            FaultVerdict::Clean
        }
    }
}

impl std::fmt::Display for RecoveryOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: {} salvaged, {} quarantined, {} stale, {} garbage (root {:?}, {} cycles)",
            self.verdict(),
            self.count(BlockFate::Salvaged),
            self.count(BlockFate::Quarantined),
            self.count(BlockFate::StaleAuthentic),
            self.count(BlockFate::SilentGarbage),
            self.root,
            self.recovery_cycles
        )
    }
}

/// How much of the BMT recovery must rebuild before service resumes —
/// the *recovery-time* axis of the runtime-vs-recovery Pareto
/// frontier. The functional repair (root triage + per-block MAC
/// arbitration) is identical under every strategy; what varies is the
/// modeled rebuild work, which is exactly what each scheme's extra
/// runtime persistence buys down.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RebuildStrategy {
    /// Rebuild every populated node from the persisted counters — the
    /// paper's volatile-tree schemes, where only the root register and
    /// the counters survive a crash.
    Full,
    /// `triad_nvm`: levels `floor..=levels` were strictly persisted,
    /// so recovery rebuilds only the relaxed slice above the floor.
    Suffix {
        /// Shallowest strictly-persisted level (1 = root).
        floor: u32,
    },
    /// `phoenix`: every node and a dual-copy root are durable;
    /// recovery just cross-checks the two root copies — constant tree
    /// work regardless of protected-memory size.
    Shadow,
}

impl RebuildStrategy {
    /// The strategy `config`'s scheme earns through its runtime
    /// persistence.
    pub fn for_config(config: &SystemConfig) -> Self {
        match config.scheme {
            UpdateScheme::TriadNvm => RebuildStrategy::Suffix {
                floor: config.triad_floor(),
            },
            UpdateScheme::Phoenix => RebuildStrategy::Shadow,
            UpdateScheme::SecureWb
            | UpdateScheme::Unordered
            | UpdateScheme::Sp
            | UpdateScheme::Pipeline
            | UpdateScheme::O3
            | UpdateScheme::Coalescing
            | UpdateScheme::SpCounterTree => RebuildStrategy::Full,
        }
    }

    /// Stable machine name (bench table rendering).
    pub fn name(self) -> &'static str {
        match self {
            RebuildStrategy::Full => "full",
            RebuildStrategy::Suffix { .. } => "suffix",
            RebuildStrategy::Shadow => "shadow",
        }
    }
}

/// The repairing recovery engine.
///
/// A run's prefix roots are a pure function of its root-ordered
/// `(page, counter block)` sequence, and one manager usually judges
/// many crash images of the same run. So the manager keeps the last
/// sequence it searched with that sequence's prefix roots, and reuses
/// them when the next sequence is equal element by element. The
/// modelled hardware keeps no such memo: `recovery_cycles` charges the
/// search on every recovery.
#[derive(Debug, Clone)]
pub struct RecoveryManager {
    geometry: BmtGeometry,
    key: SipKey,
    ctr: CtrEngine,
    mac: MacEngine,
    mac_latency: u64,
    strategy: RebuildStrategy,
    prefix_memo: PrefixMemo,
}

/// A root-ordered history: each root update's page and counter block.
type History<'a> = [(u64, &'a CounterBlock)];

/// The last history a manager searched and its prefix roots, the empty
/// prefix first.
struct MemoEntry {
    history: Vec<(u64, CounterBlock)>,
    roots: Vec<NodeValue>,
}

impl MemoEntry {
    /// Whether `history` is the memoized one, element by element.
    fn holds(&self, history: &History<'_>) -> bool {
        let memoized = self.history.iter().map(|(page, cb)| (*page, cb));
        memoized.eq(history.iter().copied())
    }
}

/// One [`MemoEntry`] behind a lock, so a shared `&RecoveryManager`
/// stays `Sync`. A clone starts empty; a poisoned lock is skipped and
/// the roots recomputed.
#[derive(Default)]
struct PrefixMemo(Mutex<Option<MemoEntry>>);

impl Clone for PrefixMemo {
    fn clone(&self) -> Self {
        PrefixMemo::default()
    }
}

impl std::fmt::Debug for PrefixMemo {
    /// Compact: the memoized history's length, not its blocks.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.0.try_lock() {
            Ok(entry) => {
                let updates = entry.as_ref().map(|e| e.history.len());
                write!(f, "PrefixMemo({updates:?})")
            }
            Err(_) => write!(f, "PrefixMemo(<locked>)"),
        }
    }
}

impl RecoveryManager {
    /// Creates a manager for the given tree shape, master key and
    /// MAC-unit latency (the latency only feeds the cycle model).
    /// Assumes the [`RebuildStrategy::Full`] volatile-tree rebuild;
    /// see [`RecoveryManager::with_strategy`].
    pub fn new(geometry: BmtGeometry, key: SipKey, mac_latency: Cycle) -> Self {
        RecoveryManager {
            geometry,
            key,
            ctr: CtrEngine::new(key),
            mac: MacEngine::new(key),
            mac_latency: mac_latency.get(),
            strategy: RebuildStrategy::Full,
            prefix_memo: PrefixMemo::default(),
        }
    }

    /// The tree shape recovery rebuilds.
    pub fn geometry(&self) -> BmtGeometry {
        self.geometry
    }

    /// Replaces the rebuild strategy (the recovery-time axis).
    pub fn with_strategy(mut self, strategy: RebuildStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// The rebuild strategy in force.
    pub fn strategy(&self) -> RebuildStrategy {
        self.strategy
    }

    /// A manager matching a system configuration, including the
    /// rebuild strategy its scheme earns.
    pub fn for_config(config: &SystemConfig) -> Self {
        RecoveryManager::new(config.bmt, config.key, config.mac_latency)
            .with_strategy(RebuildStrategy::for_config(config))
    }

    /// Attempts repair of a crash image.
    ///
    /// `records` is the run's persist history: it provides the
    /// legitimate root-update sequence for the prefix search and the
    /// set of plaintexts the program ever wrote (to tell an authentic
    /// stale version from silent garbage). `expected` is what the
    /// program believes is durable.
    ///
    /// # Panics
    ///
    /// Panics if a counter block's or a record's page lies outside the
    /// manager's geometry. [`crate::replay_image`] refuses such a
    /// device image, and [`crate::recover_image`] an image of another
    /// geometry.
    pub fn recover(
        &self,
        image: &PersistImage,
        records: &[PersistRecord],
        expected: &ObserverExpectation,
    ) -> RecoveryOutcome {
        // Step 1: rebuild the tree the counters imply.
        let rebuilt = PathTree::from_counters(
            self.geometry,
            self.key,
            image.counters.iter().map(|(p, c)| (*p, c)),
        );
        let adopted_root = rebuilt.root();

        // Step 2: root triage (and its share of the cycle model).
        let mut prefix_updates = 0u64;
        let (root, root_error) = if adopted_root == image.root {
            (RootStatus::Intact, None)
        } else {
            match self.match_root_prefix(image.root, records) {
                Some((behind, scanned)) => {
                    prefix_updates = scanned;
                    (
                        RootStatus::Lagged {
                            updates_behind: behind,
                        },
                        None,
                    )
                }
                None => {
                    prefix_updates = records.len() as u64;
                    (
                        RootStatus::Suspect,
                        Some(RecoveryError::RootMismatch {
                            persisted: image.root,
                            rebuilt: adopted_root,
                        }),
                    )
                }
            }
        };

        // Step 3: per-block triage. A verified MAC proves the
        // (ciphertext, address, counter) triple is one the engine
        // produced; the plaintext history then separates "the version
        // we wanted" from "an older authentic version". Only a block
        // that verifies but is not the expected plaintext reads the
        // history, so it is built on the first such block.
        let mut history = None;
        let blocks = expected.sorted();
        let mut fates = Vec::with_capacity(blocks.len());
        for (addr, expected_plain) in blocks {
            let (cipher, counter, mac) = image.stored(addr);
            let fate = if !self.mac.verify(&cipher, addr, counter, mac) {
                BlockFate::Quarantined
            } else {
                let plain = self.ctr.decrypt(cipher, addr, counter);
                if plain == *expected_plain {
                    BlockFate::Salvaged
                } else if history
                    .get_or_insert_with(|| plaintext_history(records))
                    .get(&addr)
                    .is_some_and(|versions| versions.contains(&plain))
                {
                    BlockFate::StaleAuthentic
                } else {
                    BlockFate::SilentGarbage
                }
            };
            fates.push((addr, fate));
        }

        // Cycle model: the strategy-dependent rebuild, plus — under
        // the volatile-tree strategy only — one tree-path recompute
        // per prefix-search step to authenticate a lagged root
        // register against the run history. The schemes that persist
        // tree state never consult the history for that: the suffix
        // strategy recomputes the root from its durable lower levels
        // and the shadow strategy cross-checks the dual copy, so their
        // root-lag window costs nothing beyond the rebuild term. The
        // counter fetches and per-block MAC arbitration are common to
        // every strategy. (The *functional* triage above still runs
        // the search for verdict classification in every case.)
        let rebuild_hashes = match self.strategy {
            RebuildStrategy::Full => {
                rebuilt.populated_nodes() as u64 + prefix_updates * self.geometry.levels() as u64
            }
            RebuildStrategy::Suffix { floor } => rebuilt.populated_nodes_above(floor) as u64,
            // One hash to cross-check the two root copies.
            RebuildStrategy::Shadow => 1,
        };
        let cost = RecoveryCost {
            counter_blocks: image.counters.len() as u64,
            hash_computations: rebuild_hashes,
            mac_verifications: expected.plaintexts.len() as u64,
        };
        RecoveryOutcome {
            root,
            root_error,
            adopted_root,
            fates,
            recovery_cycles: cost.estimated_cycles(self.mac_latency),
        }
    }

    /// Searches the recorded root-update sequence (in root-persist
    /// order) for a prefix whose root equals `persisted`, preferring
    /// the longest match. Returns `(updates_behind, updates_scanned)`.
    /// The prefix roots come from the memo when the sequence is the
    /// one searched last.
    fn match_root_prefix(
        &self,
        persisted: NodeValue,
        records: &[PersistRecord],
    ) -> Option<(usize, u64)> {
        let mut sorted: Vec<&PersistRecord> = records
            .iter()
            .filter(|r| r.times.root < Cycle::MAX)
            .collect();
        sorted.sort_by_key(|r| r.times.root);
        let history: Vec<(u64, &CounterBlock)> = sorted
            .iter()
            .map(|r| (r.addr.page().index(), &r.counters_after))
            .collect();
        let total = history.len();
        let search = |roots: &[NodeValue]| {
            roots
                .iter()
                .rposition(|root| *root == persisted)
                .map(|i| (total - i, total as u64))
        };
        if let Ok(memo) = self.prefix_memo.0.lock() {
            if let Some(entry) = memo.as_ref().filter(|e| e.holds(&history)) {
                return search(&entry.roots);
            }
        }
        let roots = self.prefix_roots(&history);
        let found = search(&roots);
        if let Ok(mut memo) = self.prefix_memo.0.lock() {
            *memo = Some(MemoEntry {
                history: history
                    .iter()
                    .map(|(page, cb)| (*page, (*cb).clone()))
                    .collect(),
                roots,
            });
        }
        found
    }

    /// The root after each prefix of `history`, the empty prefix
    /// first: one path rehash per update.
    fn prefix_roots(&self, history: &History<'_>) -> Vec<NodeValue> {
        let pages = history.iter().map(|(page, _)| *page);
        let mut tree = PathTree::new(self.geometry, self.key, pages);
        let mut roots = Vec::with_capacity(history.len() + 1);
        roots.push(tree.root());
        for (page, cb) in history {
            tree.set_leaf(*page, cb);
            roots.push(tree.root());
        }
        roots
    }
}

/// Every plaintext the program ever wrote to each address — the set of
/// "authentic versions" that distinguishes a rollback from garbage.
fn plaintext_history(records: &[PersistRecord]) -> HashMap<BlockAddr, Vec<DataBlock>> {
    let mut history: HashMap<BlockAddr, Vec<DataBlock>> = HashMap::new();
    for r in records {
        history.entry(r.addr).or_default().push(r.plaintext);
    }
    // The pre-write medium (all zeroes) is also an authentic state.
    for versions in history.values_mut() {
        versions.push(DataBlock::zeroed());
    }
    history
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultInjector;
    use crate::{
        with_component_lost, with_component_reordered, EpochId, PersistId, TupleComponent,
        TupleTimes,
    };
    use plp_crypto::CounterBlock;

    fn key() -> SipKey {
        SipKey::new(1, 2)
    }

    fn geometry() -> BmtGeometry {
        BmtGeometry::new(8, 4)
    }

    fn manager() -> RecoveryManager {
        RecoveryManager::new(geometry(), key(), Cycle::new(40))
    }

    fn make_records(n: u64) -> Vec<PersistRecord> {
        let ctr_engine = CtrEngine::new(key());
        let mac_engine = MacEngine::new(key());
        let mut counters: HashMap<u64, CounterBlock> = HashMap::new();
        let mut out = Vec::new();
        for i in 0..n {
            let addr = BlockAddr::new((i % 3) * 64); // revisit 3 pages
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

    fn recover_at(records: &[PersistRecord], t: Cycle) -> RecoveryOutcome {
        let image = PersistImage::at_time(records, t, geometry(), key());
        let expected = ObserverExpectation::at_time(records, t);
        manager().recover(&image, records, &expected)
    }

    #[test]
    fn rebuild_strategies_order_the_recovery_cost() {
        let records = make_records(12);
        let t = Cycle::new(1_000_000);
        let image = PersistImage::at_time(&records, t, geometry(), key());
        let expected = ObserverExpectation::at_time(&records, t);
        let full = manager().recover(&image, &records, &expected);
        let suffix = manager()
            .with_strategy(RebuildStrategy::Suffix { floor: 3 })
            .recover(&image, &records, &expected);
        let shadow = manager()
            .with_strategy(RebuildStrategy::Shadow)
            .recover(&image, &records, &expected);
        // Identical functional repair...
        for o in [&suffix, &shadow] {
            assert_eq!(o.verdict(), FaultVerdict::Clean);
            assert_eq!(o.adopted_root, full.adopted_root);
            assert_eq!(o.fates, full.fates);
        }
        // ...but strictly ordered rebuild work: the more the scheme
        // persisted at runtime, the less recovery recomputes.
        assert!(
            full.recovery_cycles > suffix.recovery_cycles,
            "full {} vs suffix {}",
            full.recovery_cycles,
            suffix.recovery_cycles
        );
        assert!(
            suffix.recovery_cycles > shadow.recovery_cycles,
            "suffix {} vs shadow {}",
            suffix.recovery_cycles,
            shadow.recovery_cycles
        );
    }

    #[test]
    fn strategy_follows_the_scheme() {
        let full = SystemConfig::for_scheme(UpdateScheme::Sp);
        assert_eq!(RebuildStrategy::for_config(&full), RebuildStrategy::Full);
        let triad = SystemConfig::for_scheme(UpdateScheme::TriadNvm);
        assert_eq!(
            RebuildStrategy::for_config(&triad),
            RebuildStrategy::Suffix {
                floor: triad.triad_floor()
            }
        );
        let phoenix = SystemConfig::for_scheme(UpdateScheme::Phoenix);
        assert_eq!(
            RebuildStrategy::for_config(&phoenix),
            RebuildStrategy::Shadow
        );
        assert_eq!(
            RecoveryManager::for_config(&phoenix).strategy(),
            RebuildStrategy::Shadow
        );
    }

    #[test]
    fn clean_crash_is_clean_at_every_point() {
        let records = make_records(6);
        for t in [0u64, 360, 400, 760, 1_000_000] {
            let outcome = recover_at(&records, Cycle::new(t));
            assert_eq!(outcome.verdict(), FaultVerdict::Clean, "at {t}: {outcome}");
            assert_eq!(outcome.root, RootStatus::Intact);
            assert_eq!(outcome.count(BlockFate::Quarantined), 0);
        }
    }

    #[test]
    fn lagged_root_is_repaired_not_failed() {
        // The last persist's root update never landed, but its counter,
        // data and MAC did: the passive checker reports bmt_failure,
        // the manager matches the persisted root to the shorter prefix
        // and adopts the rebuilt root.
        let records = make_records(4);
        let faulty = with_component_lost(&records, 3, TupleComponent::Root);
        let t = Cycle::new(1_000_000);
        let image = PersistImage::at_time(&faulty, t, geometry(), key());
        let expected = ObserverExpectation::at_time(&records, t);
        let outcome = manager().recover(&image, &records, &expected);
        assert_eq!(
            outcome.root,
            RootStatus::Lagged { updates_behind: 1 },
            "{outcome}"
        );
        assert_eq!(outcome.verdict(), FaultVerdict::Repaired);
        assert_eq!(
            outcome.count(BlockFate::Salvaged),
            expected.plaintexts.len()
        );
        assert!(outcome.root_error.is_none());
        // The adopted root reflects the full counter state.
        let full = PersistImage::at_time(&records, t, geometry(), key());
        assert_eq!(outcome.adopted_root, full.root);
    }

    #[test]
    fn flipped_root_bit_is_suspect_and_repaired() {
        let records = make_records(4);
        let t = Cycle::new(1_000_000);
        let mut image = PersistImage::at_time(&records, t, geometry(), key());
        image.root ^= 1 << 17;
        let expected = ObserverExpectation::at_time(&records, t);
        let outcome = manager().recover(&image, &records, &expected);
        assert_eq!(outcome.root, RootStatus::Suspect);
        assert!(matches!(
            outcome.root_error,
            Some(RecoveryError::RootMismatch { .. })
        ));
        assert_eq!(outcome.verdict(), FaultVerdict::Repaired, "{outcome}");
        let err = outcome.root_error.unwrap();
        assert!(err.to_string().contains("adopted"));
    }

    #[test]
    fn torn_data_write_is_quarantined() {
        let records = make_records(6);
        let t = Cycle::new(1_000_000);
        let mut image = PersistImage::at_time(&records, t, geometry(), key());
        let expected = ObserverExpectation::at_time(&records, t);
        let spec = FaultInjector::new(13)
            .torn_write_component(&mut image, &records, t, TupleComponent::Ciphertext)
            .expect("tearable data");
        let outcome = manager().recover(&image, &records, &expected);
        assert_eq!(
            outcome.verdict(),
            FaultVerdict::DetectedLoss,
            "{spec}: {outcome}"
        );
        assert_eq!(outcome.count(BlockFate::Quarantined), 1);
        assert_eq!(outcome.count(BlockFate::SilentGarbage), 0);
    }

    #[test]
    fn dropped_acknowledged_persist_is_stale_rollback() {
        // Drop the LAST persist entirely: the medium is a perfectly
        // consistent older state, so nothing can detect it — the
        // verdict must say so rather than pretend recovery succeeded.
        // The other two blocks are salvaged. After four persists the
        // stale block sorts first; after six it sorts last, behind
        // the salvaged blocks that never read the history.
        for n in [4, 6] {
            let records = make_records(n);
            let t = Cycle::new(1_000_000);
            let thinned = &records[..records.len() - 1];
            let image = PersistImage::at_time(thinned, t, geometry(), key());
            let expected = ObserverExpectation::at_time(&records, t);
            let outcome = manager().recover(&image, &records, &expected);
            assert_eq!(outcome.root, RootStatus::Intact, "old state is consistent");
            assert_eq!(outcome.verdict(), FaultVerdict::StaleRollback, "{outcome}");
            assert_eq!(outcome.count(BlockFate::StaleAuthentic), 1);
            assert_eq!(outcome.count(BlockFate::Salvaged), 2);
        }
    }

    #[test]
    fn forged_mac_over_unwritten_plaintext_is_silent_garbage() {
        // Whoever holds the key can forge a MAC that verifies over a
        // plaintext the program never wrote. No integrity check can
        // catch that block, and the verdict must say so.
        let records = make_records(6);
        let t = Cycle::new(1_000_000);
        let mut image = PersistImage::at_time(&records, t, geometry(), key());
        let expected = ObserverExpectation::at_time(&records, t);
        let addr = records[5].addr;
        let counter = image.counters[&addr.page().index()].value_for(addr);
        let forged = DataBlock::from_u64(0xBAD_F00D);
        let cipher = CtrEngine::new(key()).encrypt(forged, addr, counter);
        image.data.insert(addr, cipher);
        image
            .macs
            .insert(addr, MacEngine::new(key()).compute(&cipher, addr, counter));
        let outcome = manager().recover(&image, &records, &expected);
        assert_eq!(outcome.count(BlockFate::Salvaged), 2, "{outcome}");
        assert_eq!(
            outcome.fates.last(),
            Some(&(addr, BlockFate::SilentGarbage))
        );
        assert_eq!(outcome.verdict(), FaultVerdict::UndetectedCorruption);
    }

    #[test]
    fn recovery_cost_grows_with_populated_nodes_not_height() {
        // Every page lies below arity^(h-1), so the tree h + 2 levels
        // tall holds the h-level tree under the first child of its
        // first child: the two extra levels add exactly two populated
        // nodes, both on the root chain. The model charges populated
        // nodes, so the Full and Suffix rebuilds each cost two more
        // cycles, and a suspect root's prefix search (one path per
        // record) adds one more hash per record per level.
        let records = make_records(6);
        let t = Cycle::new(1_000_000);
        let recover = |levels: u32, strategy, flip_root: bool| {
            let g = BmtGeometry::new(8, levels);
            let mut image = PersistImage::at_time(&records, t, g, key());
            if flip_root {
                image.root ^= 1;
            }
            let expected = ObserverExpectation::at_time(&records, t);
            let populated =
                PathTree::from_counters(g, key(), image.counters.iter().map(|(p, c)| (*p, c)))
                    .populated_nodes();
            let outcome = RecoveryManager::new(g, key(), Cycle::new(40))
                .with_strategy(strategy)
                .recover(&image, &records, &expected);
            (populated, outcome)
        };
        let h = 4;
        let (populated_h, full_h) = recover(h, RebuildStrategy::Full, false);
        let (populated_h2, full_h2) = recover(h + 2, RebuildStrategy::Full, false);
        assert_eq!(full_h.root, RootStatus::Intact);
        assert_eq!(full_h2.root, RootStatus::Intact);
        assert_eq!(populated_h2, populated_h + 2);
        assert_eq!(full_h2.recovery_cycles, full_h.recovery_cycles + 2);

        // The floor keeps its depth above the leaves.
        let (_, suffix_h) = recover(h, RebuildStrategy::Suffix { floor: h - 1 }, false);
        let (_, suffix_h2) = recover(h + 2, RebuildStrategy::Suffix { floor: h + 1 }, false);
        assert_eq!(suffix_h2.recovery_cycles, suffix_h.recovery_cycles + 2);

        let (_, suspect_h) = recover(h, RebuildStrategy::Full, true);
        let (_, suspect_h2) = recover(h + 2, RebuildStrategy::Full, true);
        assert_eq!(suspect_h.root, RootStatus::Suspect);
        let per_level = 1 + records.len() as u64;
        assert_eq!(
            suspect_h2.recovery_cycles,
            suspect_h.recovery_cycles + 2 * per_level
        );
    }

    #[test]
    fn garbage_that_fails_mac_is_detected_loss_never_silent() {
        let records = make_records(6);
        let t = Cycle::new(1_000_000);
        let mut image = PersistImage::at_time(&records, t, geometry(), key());
        let expected = ObserverExpectation::at_time(&records, t);
        // Overwrite a ciphertext with junk the engine never produced.
        let addr = records[0].addr;
        image.data.insert(addr, DataBlock::from_u64(0xBAD_F00D));
        let outcome = manager().recover(&image, &records, &expected);
        assert_eq!(outcome.verdict(), FaultVerdict::DetectedLoss);
        assert_eq!(outcome.quarantined(), vec![addr]);
    }

    #[test]
    fn recovery_cycles_grow_with_prefix_search() {
        let records = make_records(6);
        let t = Cycle::new(1_000_000);
        let clean = recover_at(&records, t);
        let faulty = with_component_lost(&records, 5, TupleComponent::Root);
        let image = PersistImage::at_time(&faulty, t, geometry(), key());
        let expected = ObserverExpectation::at_time(&records, t);
        let lagged = manager().recover(&image, &records, &expected);
        assert!(
            lagged.recovery_cycles > clean.recovery_cycles,
            "prefix search must cost cycles: {} vs {}",
            lagged.recovery_cycles,
            clean.recovery_cycles
        );
    }

    /// Crash images of `records` that reach the prefix search: the
    /// last root update lost (lagged by one), the first one lost (a
    /// root that is no prefix), and a flipped root bit.
    fn searched_images(records: &[PersistRecord]) -> Vec<PersistImage> {
        let t = Cycle::new(1_000_000);
        let last = records.len() - 1;
        let mut images: Vec<PersistImage> = [last, 0]
            .into_iter()
            .map(|k| {
                let lost = with_component_lost(records, k, TupleComponent::Root);
                PersistImage::at_time(&lost, t, geometry(), key())
            })
            .collect();
        let mut flipped = PersistImage::at_time(records, t, geometry(), key());
        flipped.root ^= 1 << 9;
        images.push(flipped);
        images
    }

    /// One manager reused across interleaved histories returns exactly
    /// what a fresh manager returns. `b` differs from `a` in one
    /// counter block only and `c` in root order only, so a memo keyed
    /// on the length or the pages would reuse `a`'s prefix roots for
    /// them and misjudge the lagged image.
    #[test]
    fn reused_manager_matches_fresh_managers_across_histories() {
        let a = make_records(8);
        let mut b = a.clone();
        b[5].counters_after.bump(40);
        let c = with_component_reordered(&a, 2, 6, TupleComponent::Root);
        assert_eq!(a.len(), b.len());
        assert!(a.iter().zip(&b).all(|(x, y)| x.addr == y.addr));
        let t = Cycle::new(1_000_000);
        let shared = manager();
        for (name, records) in [("a", &a), ("b", &b), ("a", &a), ("c", &c), ("a", &a)] {
            let expected = ObserverExpectation::at_time(records, t);
            for (i, image) in searched_images(records).iter().enumerate() {
                let fresh = manager().recover(image, records, &expected);
                let reused = shared.recover(image, records, &expected);
                assert_eq!(reused, fresh, "history {name}, image {i}");
                if i == 0 {
                    assert_eq!(fresh.root, RootStatus::Lagged { updates_behind: 1 });
                }
            }
        }
    }

    #[test]
    fn prefix_memo_is_per_manager_compact_and_survives_poisoning() {
        fn shareable<T: Send + Sync>() {}
        shareable::<RecoveryManager>();

        let records = make_records(6);
        let t = Cycle::new(1_000_000);
        let expected = ObserverExpectation::at_time(&records, t);
        let image = &searched_images(&records)[0];
        let m = manager();
        assert!(format!("{m:?}").contains("PrefixMemo(None)"));
        let first = m.recover(image, &records, &expected);
        assert!(format!("{m:?}").contains("PrefixMemo(Some(6))"));
        assert!(format!("{:?}", m.clone()).contains("PrefixMemo(None)"));

        // A thread that panics holding the lock poisons it; recovery
        // then recomputes instead of failing.
        let poisoner = std::thread::scope(|s| {
            s.spawn(|| {
                let _held = m.prefix_memo.0.lock();
                panic!("poison the prefix memo");
            })
            .join()
        });
        assert!(poisoner.is_err());
        assert!(m.prefix_memo.0.is_poisoned());
        assert_eq!(m.recover(image, &records, &expected), first);
    }

    #[test]
    fn for_config_matches_explicit_construction() {
        let cfg = SystemConfig::default();
        let m = RecoveryManager::for_config(&cfg);
        assert_eq!(m.mac_latency, cfg.mac_latency.get());
        assert_eq!(m.geometry, cfg.bmt);
    }
}
