//! The sanitizer's state machine: per-event invariant checks.


use plp_bmt::BmtGeometry;
use plp_events::Cycle;

use super::{
    NodeUpdateEvent, PersistEvent, SanitizerSummary, SchemeContract, Violation, ViolationKind,
    NO_FIELD,
};
use crate::{EpochId, PersistId, UpdateScheme};

/// Detailed [`Violation`] records kept per run; the rest are counted in
/// [`SanitizerSummary::dropped_violations`]. A correct engine stores
/// zero, so the cap only bounds a *broken* engine's report.
const MAX_DETAILED_VIOLATIONS: usize = 64;

/// The shadow verifier for one simulation run.
///
/// Construct one per run ([`Sanitizer::new`]), feed it every engine
/// node update ([`Sanitizer::observe_walk`],
/// [`Sanitizer::observe_epoch_tail`]), persist retirement
/// ([`Sanitizer::observe_persist`]) and epoch seal
/// ([`Sanitizer::observe_seal`]), then collect the verdict with
/// [`Sanitizer::finish`]. Which checks run is decided by the scheme's
/// [`SchemeContract`]; all checks are pure observation and never alter
/// simulated time.
#[derive(Debug)]
pub struct Sanitizer {
    scheme: UpdateScheme,
    contract: SchemeContract,
    levels: u32,
    // --- strict-contract state ---
    /// Per-level completion of the latest update (index = level - 1).
    level_last: Vec<Cycle>,
    /// Completion of the latest retired tuple (persists retire in
    /// order under 2SP).
    last_tuple_completion: Cycle,
    /// Reusable per-walk level-coverage counter.
    walk_seen: Vec<u8>,
    /// Truncated contract: the persisted floor observed on the first
    /// walk — every later walk must persist exactly the same suffix.
    observed_floor: Option<u32>,
    // --- epoch-contract state ---
    /// Per-level max completion over all *sealed* epochs (the ETT
    /// authorization levels the sanitizer re-derives independently).
    sealed_level_last: Vec<Cycle>,
    /// Per-level max completion of the open epoch.
    cur_level_max: Vec<Cycle>,
    /// Max completion of any update in the open epoch (the epoch seal
    /// must cover it).
    cur_epoch_max_done: Cycle,
    /// Running max of sealed-epoch completions.
    last_seal: Option<Cycle>,
    /// Last write per BMT node: `(epoch, completion)` — the WAW-hazard
    /// tracker (same-epoch rewrites are WAW-safe, cross-epoch ones must
    /// not reorder).
    node_last: LabelMap,
    summary: SanitizerSummary,
}

impl Sanitizer {
    /// A fresh sanitizer holding `scheme` to its contract over a tree
    /// of `geometry`'s depth.
    pub fn new(scheme: UpdateScheme, geometry: BmtGeometry) -> Self {
        let levels = geometry.levels();
        let n = geometry.levels_usize();
        Sanitizer {
            scheme,
            contract: SchemeContract::for_scheme(scheme),
            levels,
            level_last: vec![Cycle::ZERO; n],
            last_tuple_completion: Cycle::ZERO,
            walk_seen: vec![0; n],
            observed_floor: None,
            sealed_level_last: vec![Cycle::ZERO; n],
            cur_level_max: vec![Cycle::ZERO; n],
            cur_epoch_max_done: Cycle::ZERO,
            last_seal: None,
            node_last: LabelMap::default(),
            summary: SanitizerSummary::default(),
        }
    }

    /// Whether the engine tap should record node updates at all (false
    /// for the contract-free `unordered` strawman).
    pub fn wants_node_events(&self) -> bool {
        self.contract.strict_walk || self.contract.epoch_order || self.contract.truncated_walk
    }

    fn report(&mut self, v: Violation) {
        if self.summary.violations.len() < MAX_DETAILED_VIOLATIONS {
            self.summary.violations.push(v);
        } else {
            self.summary.dropped_violations += 1;
        }
    }

    fn node_violation(
        &mut self,
        kind: ViolationKind,
        epoch: EpochId,
        persist: u64,
        ev: &NodeUpdateEvent,
    ) {
        let v = Violation {
            kind,
            scheme: self.scheme,
            cycle: ev.done,
            epoch,
            persist,
            level: ev.level,
            node: ev.label.raw(),
            addr: NO_FIELD,
        };
        self.report(v);
    }

    /// Checks the node updates one engine `persist` call scheduled.
    ///
    /// Strict contract: the walk must cover every level exactly once
    /// (Invariant 2's full leaf-to-root path), complete leaf-to-root
    /// monotonically, and never regress a level's completion across
    /// persists. Epoch contract: each update is checked against the
    /// sealed epochs' level frontier and the WAW tracker.
    pub fn observe_walk(&mut self, persist: PersistId, epoch: EpochId, events: &[NodeUpdateEvent]) {
        if self.contract.strict_walk {
            self.summary.checked_node_updates += events.len() as u64;
            self.strict_walk_checks(persist, epoch, events);
        } else if self.contract.truncated_walk {
            self.summary.checked_node_updates += events.len() as u64;
            self.truncated_walk_checks(persist, epoch, events);
        } else if self.contract.epoch_order {
            self.summary.checked_node_updates += events.len() as u64;
            for ev in events {
                self.epoch_event_checks(epoch, persist.0, ev);
            }
        }
    }

    /// Checks node updates scheduled *outside* any one persist — the
    /// seal-time walks a coalescing carrier performs. Epoch contract
    /// only; the events carry no persist attribution.
    pub fn observe_epoch_tail(&mut self, epoch: EpochId, events: &[NodeUpdateEvent]) {
        if self.contract.epoch_order {
            self.summary.checked_node_updates += events.len() as u64;
            for ev in events {
                self.epoch_event_checks(epoch, NO_FIELD, ev);
            }
        }
    }

    fn strict_walk_checks(&mut self, persist: PersistId, epoch: EpochId, events: &[NodeUpdateEvent]) {
        // Shape: every level 1..=levels updated exactly once.
        self.walk_seen.fill(0);
        let mut shape_ok = true;
        for ev in events {
            match level_index(ev.level, self.levels).and_then(|i| self.walk_seen.get_mut(i)) {
                Some(count) => *count = count.saturating_add(1),
                None => {
                    shape_ok = false;
                    self.node_violation(ViolationKind::SkippedLevel, epoch, persist.0, ev);
                }
            }
        }
        if let Some(i) = self.walk_seen.iter().position(|&c| c != 1) {
            shape_ok = false;
            let v = Violation {
                kind: ViolationKind::SkippedLevel,
                scheme: self.scheme,
                cycle: events.iter().map(|e| e.done).max().unwrap_or(Cycle::ZERO),
                epoch,
                persist: persist.0,
                level: u32::try_from(i + 1).unwrap_or(u32::MAX),
                node: NO_FIELD,
                addr: NO_FIELD,
            };
            self.report(v);
        }
        // Leaf-to-root monotonicity: within the walk, a deeper level
        // completes no later than a shallower one. Only meaningful when
        // the shape is right (each level present exactly once).
        if shape_ok {
            let mut prev_done = Cycle::ZERO;
            for level in (1..=self.levels).rev() {
                if let Some(ev) = events.iter().find(|e| e.level == level) {
                    if ev.done < prev_done {
                        self.node_violation(ViolationKind::LevelOrder, epoch, persist.0, ev);
                    }
                    prev_done = prev_done.max(ev.done);
                }
            }
        }
        // Cross-persist per-level order: a level's completions never
        // regress between persists.
        for ev in events {
            let Some(i) = level_index(ev.level, self.levels) else {
                continue;
            };
            if ev.done < self.level_last[i] {
                self.node_violation(ViolationKind::LevelOrder, epoch, persist.0, ev);
            }
            self.level_last[i] = self.level_last[i].max(ev.done);
        }
    }

    /// The truncated (`triad_nvm`) form of the walk checks: each walk
    /// must cover a contiguous suffix of levels ending at the leaf,
    /// exactly once per covered level ([`ViolationKind::SkippedLevel`]
    /// on gaps, duplicates or a floor that moves between persists), and
    /// both the within-walk deepest-first monotonicity and the
    /// cross-persist per-level order of the strict contract hold over
    /// the covered slice ([`ViolationKind::LevelOrder`]).
    fn truncated_walk_checks(
        &mut self,
        persist: PersistId,
        epoch: EpochId,
        events: &[NodeUpdateEvent],
    ) {
        // Shape: a contiguous suffix floor..=levels, each level once.
        self.walk_seen.fill(0);
        let mut shape_ok = true;
        let mut floor = self.levels + 1; // empty walk sentinel
        for ev in events {
            match level_index(ev.level, self.levels).and_then(|i| self.walk_seen.get_mut(i)) {
                Some(count) => {
                    *count = count.saturating_add(1);
                    floor = floor.min(ev.level);
                }
                None => {
                    shape_ok = false;
                    self.node_violation(ViolationKind::SkippedLevel, epoch, persist.0, ev);
                }
            }
        }
        let walk_max = events.iter().map(|e| e.done).max().unwrap_or(Cycle::ZERO);
        let shape_violation = |this: &mut Self, level: u32| {
            let v = Violation {
                kind: ViolationKind::SkippedLevel,
                scheme: this.scheme,
                cycle: walk_max,
                epoch,
                persist: persist.0,
                level,
                node: NO_FIELD,
                addr: NO_FIELD,
            };
            this.report(v);
        };
        // The leaf level anchors the suffix: a walk that never touches
        // the leaf (or touches nothing) skipped the one level no
        // relaxation may drop.
        if floor > self.levels || self.walk_seen[self.levels as usize - 1] == 0 {
            shape_violation(self, self.levels);
            return;
        }
        for level in floor..=self.levels {
            let Some(i) = level_index(level, self.levels) else {
                continue;
            };
            if self.walk_seen[i] != 1 {
                shape_ok = false;
                shape_violation(self, level);
            }
        }
        // The floor is a configuration constant, not a per-persist
        // choice: a walk persisting a different suffix than the first
        // walk's breaks the contract even if internally well-formed.
        match self.observed_floor {
            None => self.observed_floor = Some(floor),
            Some(expected) if expected != floor => {
                shape_ok = false;
                shape_violation(self, floor);
            }
            Some(_) => {}
        }
        // Deepest-first monotone completion over the covered slice.
        if shape_ok {
            let mut prev_done = Cycle::ZERO;
            for level in (floor..=self.levels).rev() {
                if let Some(ev) = events.iter().find(|e| e.level == level) {
                    if ev.done < prev_done {
                        self.node_violation(ViolationKind::LevelOrder, epoch, persist.0, ev);
                    }
                    prev_done = prev_done.max(ev.done);
                }
            }
        }
        // Cross-persist per-level order over the covered slice.
        for ev in events {
            let Some(i) = level_index(ev.level, self.levels) else {
                continue;
            };
            if ev.done < self.level_last[i] {
                self.node_violation(ViolationKind::LevelOrder, epoch, persist.0, ev);
            }
            self.level_last[i] = self.level_last[i].max(ev.done);
        }
    }

    fn epoch_event_checks(&mut self, epoch: EpochId, persist: u64, ev: &NodeUpdateEvent) {
        let Some(i) = level_index(ev.level, self.levels) else {
            self.node_violation(ViolationKind::SkippedLevel, epoch, persist, ev);
            return;
        };
        // The ETT handoff: no update of the open epoch may complete
        // before every sealed epoch's last update of that level.
        if ev.done < self.sealed_level_last[i] {
            self.node_violation(ViolationKind::EpochLevelOrder, epoch, persist, ev);
        }
        self.cur_level_max[i] = self.cur_level_max[i].max(ev.done);
        self.cur_epoch_max_done = self.cur_epoch_max_done.max(ev.done);
        // WAW tracking: same-epoch rewrites of a node are WAW-safe
        // (§IV-B1's lemma); a cross-epoch write must not complete
        // before the older epoch's last write of the same node.
        let mut hazard = false;
        match self.node_last.get_mut(&ev.label.raw()) {
            Some((last_epoch, last_done)) if *last_epoch == epoch => {
                *last_done = (*last_done).max(ev.done);
            }
            Some((last_epoch, last_done)) => {
                hazard = ev.done < *last_done;
                *last_epoch = epoch;
                *last_done = ev.done;
            }
            None => {
                self.node_last.insert(ev.label.raw(), (epoch, ev.done));
            }
        }
        if hazard {
            self.node_violation(ViolationKind::WawHazard, epoch, persist, ev);
        }
    }

    /// Checks one persist retirement: tuple completeness (Invariant 1)
    /// and, for strict schemes, whole-tuple persist order (Invariant 2
    /// at the root).
    pub fn observe_persist(&mut self, ev: &PersistEvent) {
        if !self.contract.atomic_tuple {
            return;
        }
        self.summary.checked_persists += 1;
        let t = ev.times;
        let complete = t.complete();
        if t.data != complete || t.counter != complete || t.mac != complete || t.root != complete {
            let v = Violation {
                kind: ViolationKind::TupleIncomplete,
                scheme: self.scheme,
                cycle: complete,
                epoch: ev.epoch,
                persist: ev.id.0,
                level: 0,
                node: NO_FIELD,
                addr: ev.addr.index(),
            };
            self.report(v);
        }
        if self.contract.strict_walk {
            if complete < self.last_tuple_completion {
                let v = Violation {
                    kind: ViolationKind::RootOrder,
                    scheme: self.scheme,
                    cycle: complete,
                    epoch: ev.epoch,
                    persist: ev.id.0,
                    level: 0,
                    node: NO_FIELD,
                    addr: ev.addr.index(),
                };
                self.report(v);
            }
            self.last_tuple_completion = self.last_tuple_completion.max(complete);
        }
    }

    /// Checks one epoch seal: the reported completion must cover every
    /// update the epoch scheduled (Invariant 1 at epoch granularity)
    /// and sealed epochs must complete in order (Invariant 2 across
    /// epochs). Folds the epoch's level maxima into the sealed
    /// frontier.
    pub fn observe_seal(&mut self, epoch: EpochId, completion: Cycle) {
        if !self.contract.epoch_order {
            return;
        }
        self.summary.checked_epochs += 1;
        if completion < self.cur_epoch_max_done {
            let v = Violation {
                kind: ViolationKind::TupleIncomplete,
                scheme: self.scheme,
                cycle: completion,
                epoch,
                persist: NO_FIELD,
                level: 0,
                node: NO_FIELD,
                addr: NO_FIELD,
            };
            self.report(v);
        }
        if let Some(last) = self.last_seal {
            if completion < last {
                let v = Violation {
                    kind: ViolationKind::EpochCompletionOrder,
                    scheme: self.scheme,
                    cycle: completion,
                    epoch,
                    persist: NO_FIELD,
                    level: 0,
                    node: NO_FIELD,
                    addr: NO_FIELD,
                };
                self.report(v);
            }
        }
        for (sealed, cur) in self.sealed_level_last.iter_mut().zip(&mut self.cur_level_max) {
            *sealed = (*sealed).max(*cur);
            *cur = Cycle::ZERO;
        }
        self.cur_epoch_max_done = Cycle::ZERO;
        self.last_seal = Some(self.last_seal.unwrap_or(Cycle::ZERO).max(completion));
    }

    /// Consumes the sanitizer and returns the run's verdict.
    pub fn finish(self) -> SanitizerSummary {
        self.summary
    }
}

/// The WAW tracker does one map operation per node update, which puts
/// the default SipHash hasher on the simulator's hot path; node labels
/// are already well-mixed `u64`s, so the shared Fibonacci-multiply
/// hasher suffices and keeps the sanitizer's overhead in budget.
type LabelMap = crate::fastmap::FastMap<u64, (EpochId, Cycle)>;

/// 1-based tree level → vector index, `None` when out of range.
fn level_index(level: u32, levels: u32) -> Option<usize> {
    if level >= 1 && level <= levels {
        Some(level as usize - 1)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TupleTimes;
    use plp_bmt::NodeLabel;
    use plp_events::addr::BlockAddr;

    fn geom() -> BmtGeometry {
        BmtGeometry::new(8, 4)
    }

    fn walk(geometry: BmtGeometry, page: u64, start: u64, step: u64) -> Vec<NodeUpdateEvent> {
        let mut t = start;
        geometry
            .update_path(geometry.leaf(page))
            .into_iter()
            .map(|label| {
                t += step;
                NodeUpdateEvent {
                    label,
                    level: geometry.level(label),
                    done: Cycle::new(t),
                }
            })
            .collect()
    }

    fn persist_event(id: u64, times: TupleTimes) -> PersistEvent {
        PersistEvent {
            id: PersistId(id),
            epoch: EpochId(0),
            addr: BlockAddr::new(id),
            ordered: true,
            times,
        }
    }

    #[test]
    fn clean_strict_run_has_no_violations() {
        let g = geom();
        let mut s = Sanitizer::new(UpdateScheme::Sp, g);
        assert!(s.wants_node_events());
        for i in 0..5 {
            let events = walk(g, i, i * 160, 40);
            s.observe_walk(PersistId(i), EpochId(0), &events);
            s.observe_persist(&persist_event(i, TupleTimes::atomic(Cycle::new((i + 1) * 160))));
        }
        let sum = s.finish();
        assert!(sum.is_clean(), "{:?}", sum.violations);
        assert_eq!(sum.checked_persists, 5);
        assert_eq!(sum.checked_node_updates, 20);
    }

    #[test]
    fn incomplete_tuple_is_flagged() {
        let g = geom();
        let mut s = Sanitizer::new(UpdateScheme::Sp, g);
        let times = TupleTimes {
            data: Cycle::new(100),
            counter: Cycle::new(100),
            mac: Cycle::new(90), // the corrupted component
            root: Cycle::new(100),
        };
        s.observe_persist(&persist_event(1, times));
        let sum = s.finish();
        assert_eq!(sum.count_of(ViolationKind::TupleIncomplete), 1);
        assert_eq!(sum.violations[0].addr, 1);
    }

    #[test]
    fn tuple_retiring_early_breaks_root_order() {
        let g = geom();
        let mut s = Sanitizer::new(UpdateScheme::Pipeline, g);
        s.observe_persist(&persist_event(1, TupleTimes::atomic(Cycle::new(200))));
        s.observe_persist(&persist_event(2, TupleTimes::atomic(Cycle::new(150))));
        let sum = s.finish();
        assert_eq!(sum.count_of(ViolationKind::RootOrder), 1);
    }

    #[test]
    fn skipped_level_is_flagged() {
        let g = geom();
        let mut s = Sanitizer::new(UpdateScheme::Sp, g);
        let mut events = walk(g, 0, 0, 40);
        events.remove(1); // drop the level-3 update
        s.observe_walk(PersistId(1), EpochId(0), &events);
        let sum = s.finish();
        assert_eq!(sum.count_of(ViolationKind::SkippedLevel), 1);
        assert_eq!(sum.violations[0].level, 3);
    }

    #[test]
    fn root_first_walk_breaks_level_order() {
        let g = geom();
        let mut s = Sanitizer::new(UpdateScheme::Sp, g);
        let mut events = walk(g, 0, 0, 40);
        events.reverse(); // same labels, but completions run root-first
        for (i, ev) in events.iter_mut().enumerate() {
            ev.done = Cycle::new((i as u64 + 1) * 40);
        }
        s.observe_walk(PersistId(1), EpochId(0), &events);
        let sum = s.finish();
        assert!(sum.count_of(ViolationKind::LevelOrder) >= 1, "{:?}", sum.violations);
    }

    #[test]
    fn per_level_regression_across_persists_is_flagged() {
        let g = geom();
        let mut s = Sanitizer::new(UpdateScheme::Pipeline, g);
        s.observe_walk(PersistId(1), EpochId(0), &walk(g, 0, 1_000, 40));
        // A later persist whose whole walk completed earlier.
        s.observe_walk(PersistId(2), EpochId(0), &walk(g, 9, 0, 40));
        let sum = s.finish();
        assert!(sum.count_of(ViolationKind::LevelOrder) >= 1);
    }

    #[test]
    fn epoch_level_handoff_violation_is_flagged() {
        let g = geom();
        let mut s = Sanitizer::new(UpdateScheme::O3, g);
        s.observe_walk(PersistId(1), EpochId(0), &walk(g, 0, 0, 100));
        s.observe_seal(EpochId(0), Cycle::new(400));
        // Epoch 1 touches the root (done 160) before epoch 0's root
        // update (done 400).
        s.observe_walk(PersistId(2), EpochId(1), &walk(g, 9, 0, 40));
        let sum = s.finish();
        assert!(sum.count_of(ViolationKind::EpochLevelOrder) >= 1);
        assert_eq!(sum.checked_epochs, 1);
    }

    #[test]
    fn cross_epoch_waw_on_same_node_is_flagged() {
        let g = geom();
        let mut s = Sanitizer::new(UpdateScheme::Coalescing, g);
        let root_write = |done: u64| NodeUpdateEvent {
            label: NodeLabel::ROOT,
            level: 1,
            done: Cycle::new(done),
        };
        // Same-epoch out-of-order rewrites are WAW-safe: no violation.
        s.observe_walk(PersistId(1), EpochId(0), &[root_write(300)]);
        s.observe_walk(PersistId(2), EpochId(0), &[root_write(200)]);
        assert_eq!(s.summary.count_of(ViolationKind::WawHazard), 0);
        s.observe_seal(EpochId(0), Cycle::new(300));
        // A cross-epoch write completing before epoch 0's last root
        // write is the hazard.
        s.observe_epoch_tail(EpochId(1), &[root_write(250)]);
        let sum = s.finish();
        assert_eq!(sum.count_of(ViolationKind::WawHazard), 1);
        // It also violates the level handoff, by construction.
        assert!(sum.count_of(ViolationKind::EpochLevelOrder) >= 1);
    }

    #[test]
    fn regressing_seal_completion_is_flagged() {
        let g = geom();
        let mut s = Sanitizer::new(UpdateScheme::O3, g);
        s.observe_seal(EpochId(0), Cycle::new(500));
        s.observe_seal(EpochId(1), Cycle::new(400));
        let sum = s.finish();
        assert_eq!(sum.count_of(ViolationKind::EpochCompletionOrder), 1);
    }

    #[test]
    fn seal_must_cover_epoch_updates() {
        let g = geom();
        let mut s = Sanitizer::new(UpdateScheme::O3, g);
        s.observe_walk(PersistId(1), EpochId(0), &walk(g, 0, 0, 100));
        // Last update done at 400; a seal claiming 300 under-reports.
        s.observe_seal(EpochId(0), Cycle::new(300));
        let sum = s.finish();
        assert_eq!(sum.count_of(ViolationKind::TupleIncomplete), 1);
    }

    /// A well-formed truncated walk: the suffix `floor..=levels`,
    /// deepest first, completing monotonically.
    fn truncated(g: BmtGeometry, page: u64, floor: u32, start: u64, step: u64) -> Vec<NodeUpdateEvent> {
        walk(g, page, start, step)
            .into_iter()
            .filter(|ev| ev.level >= floor)
            .collect()
    }

    #[test]
    fn clean_truncated_run_has_no_violations() {
        let g = geom();
        let mut s = Sanitizer::new(UpdateScheme::TriadNvm, g);
        assert!(s.wants_node_events());
        for i in 0..5 {
            let events = truncated(g, i, 3, i * 80, 40);
            assert_eq!(events.len(), 2, "suffix covers levels 3..=4");
            s.observe_walk(PersistId(i), EpochId(0), &events);
        }
        let sum = s.finish();
        assert!(sum.is_clean(), "{:?}", sum.violations);
        assert_eq!(sum.checked_node_updates, 10);
        // The non-atomic tuple is *not* checked: the lazy MAC/root lag
        // is the scheme's design, not a violation.
        assert_eq!(sum.checked_persists, 0);
    }

    #[test]
    fn truncated_walk_missing_the_leaf_is_flagged() {
        let g = geom();
        let mut s = Sanitizer::new(UpdateScheme::TriadNvm, g);
        // Levels 2..=3 only: a "suffix" that dropped the leaf.
        let events: Vec<_> = walk(g, 0, 0, 40)
            .into_iter()
            .filter(|ev| ev.level == 2 || ev.level == 3)
            .collect();
        s.observe_walk(PersistId(1), EpochId(0), &events);
        let sum = s.finish();
        assert_eq!(sum.count_of(ViolationKind::SkippedLevel), 1);
        assert_eq!(sum.violations[0].level, 4);
    }

    #[test]
    fn truncated_walk_with_a_gap_is_flagged() {
        let g = geom();
        let mut s = Sanitizer::new(UpdateScheme::TriadNvm, g);
        // Levels {2, 4}: touches the leaf but skips level 3 inside the
        // claimed suffix.
        let events: Vec<_> = walk(g, 0, 0, 40)
            .into_iter()
            .filter(|ev| ev.level == 2 || ev.level == 4)
            .collect();
        s.observe_walk(PersistId(1), EpochId(0), &events);
        let sum = s.finish();
        assert_eq!(sum.count_of(ViolationKind::SkippedLevel), 1);
        assert_eq!(sum.violations[0].level, 3);
    }

    #[test]
    fn truncated_floor_must_not_move_between_persists() {
        let g = geom();
        let mut s = Sanitizer::new(UpdateScheme::TriadNvm, g);
        s.observe_walk(PersistId(1), EpochId(0), &truncated(g, 0, 3, 0, 40));
        // The next persist suddenly persists three levels instead of
        // two — internally well-formed, but the floor moved.
        s.observe_walk(PersistId(2), EpochId(0), &truncated(g, 1, 2, 200, 40));
        let sum = s.finish();
        assert_eq!(sum.count_of(ViolationKind::SkippedLevel), 1);
        assert_eq!(sum.violations[0].level, 2);
    }

    #[test]
    fn truncated_slice_keeps_strict_order_checks() {
        let g = geom();
        let mut s = Sanitizer::new(UpdateScheme::TriadNvm, g);
        // Within-walk: shallower level completes before the deeper one.
        let mut events = truncated(g, 0, 3, 0, 40);
        events[0].done = Cycle::new(200); // leaf late
        events[1].done = Cycle::new(100); // level 3 early
        s.observe_walk(PersistId(1), EpochId(0), &events);
        assert_eq!(s.summary.count_of(ViolationKind::LevelOrder), 1);
        // Cross-persist: a later persist's slice regresses level 4.
        s.observe_walk(PersistId(2), EpochId(0), &truncated(g, 1, 3, 0, 40));
        let sum = s.finish();
        assert!(sum.count_of(ViolationKind::LevelOrder) >= 2, "{:?}", sum.violations);
    }

    #[test]
    fn unordered_contract_checks_nothing() {
        let g = geom();
        let mut s = Sanitizer::new(UpdateScheme::Unordered, g);
        assert!(!s.wants_node_events());
        let times = TupleTimes {
            data: Cycle::new(1),
            counter: Cycle::new(2),
            mac: Cycle::new(3),
            root: Cycle::new(4),
        };
        s.observe_persist(&persist_event(1, times));
        s.observe_walk(PersistId(2), EpochId(0), &walk(g, 0, 0, 40));
        let sum = s.finish();
        assert!(sum.is_clean());
        assert_eq!(sum.checked_persists, 0);
        assert_eq!(sum.checked_node_updates, 0);
    }

    #[test]
    fn violation_flood_is_capped_not_unbounded() {
        let g = geom();
        let mut s = Sanitizer::new(UpdateScheme::Pipeline, g);
        for i in 0..(MAX_DETAILED_VIOLATIONS as u64 + 10) {
            // Every tuple retires before its predecessor.
            s.observe_persist(&persist_event(i, TupleTimes::atomic(Cycle::new(1_000_000 - i))));
        }
        let sum = s.finish();
        assert_eq!(sum.violations.len(), MAX_DETAILED_VIOLATIONS);
        assert_eq!(sum.dropped_violations, 9);
        assert_eq!(sum.total_violations(), MAX_DETAILED_VIOLATIONS as u64 + 9);
    }
}
