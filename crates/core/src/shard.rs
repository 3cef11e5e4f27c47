//! The sharded multi-stream coordinator: N client streams over M
//! per-shard subtree engines with a cross-shard root-of-roots.
//!
//! The paper's PTT/ETT are per-memory-controller structures, so the
//! natural scaling axis is more controllers: partition the physical
//! address space across M *shards*, give each shard its own BMT,
//! engine, WPQ and metadata caches (a full [`Simulation`]), and stitch
//! the shard roots together with a *root-of-roots* tree. Client traffic
//! comes from N independent persist streams interleaved by a
//! deterministic arbiter.
//!
//! Three pieces live here:
//!
//! * [`ShardTopology`] — the `(streams, shards)` pair. The unit
//!   topology (1×1) routes through the classic unsharded path and is
//!   byte-identical to it, so every existing artefact, cache key and
//!   chaos gate carries over unchanged.
//! * [`ShardedSetup`] — owns one [`SimSetup`] template and mints M
//!   per-shard [`Simulation`]s per run. The arbiter replays each
//!   stream's trace against its own core clock (next event at
//!   `clock + (gap + 1) · CPI`), dispatches the earliest event first
//!   (ties break to the lowest stream id), routes it through
//!   [`ShardMap`] and writes stall feedback (WPQ back-pressure, epoch
//!   seals) back into that stream's clock only — exactly the unsharded
//!   core-clock rule, replicated per stream.
//! * The **root-of-roots epoch barrier**: when a shard seals epoch
//!   *k*, its shard root joins round *k* of the root-of-roots tree.
//!   A round's updates are folded only once *every* shard has sealed
//!   its *k*-th epoch, and each fold must land at or after the previous
//!   round's last fold — no shard's epoch *k+1* root update becomes
//!   durable before every shard has durably sealed *k*. A shadow
//!   [`BarrierModel`] inside the run recomputes the expected fold
//!   times independently; any root-of-roots update that lands earlier
//!   than the barrier permits (or never lands) is reported as a
//!   [`ViolationKind::CrossShardRootOrder`]. Per-stream ack ordering is
//!   checked as [`ViolationKind::StreamOrder`].
//!
//! Deliberately broken coordinators ([`ShardMutation`]) prove the new
//! checks fire; correct runs stay clean for every scheme.

use std::collections::VecDeque;

use plp_events::addr::{BlockAddr, ShardMap};
use plp_events::Cycle;
use plp_trace::{multi, Op, Trace};
use serde::{Deserialize, Serialize};

use crate::engine::level_slot;
use crate::sanitizer::{SanitizerMode, SanitizerSummary, Violation, ViolationKind, NO_FIELD};
use crate::system::{clock_cycle, SealEvent};
use crate::{EpochId, RunReport, SchemeContract, SimSetup, Simulation, UpdateScheme};

/// How a run is sharded: `streams` independent clients persisting into
/// `shards` memory controllers.
///
/// The unit topology (`1×1`) is the unsharded simulator, byte for
/// byte.
///
/// # Example
///
/// ```
/// use plp_core::ShardTopology;
///
/// assert!(ShardTopology::unit().is_unit());
/// let t = ShardTopology::new(4, 2);
/// assert_eq!(t.streams(), 4);
/// assert_eq!(t.shards(), 2);
/// assert!(!t.is_unit());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ShardTopology {
    streams: u32,
    shards: u32,
}

impl ShardTopology {
    /// One stream into one shard — the classic unsharded simulator.
    pub const fn unit() -> Self {
        ShardTopology {
            streams: 1,
            shards: 1,
        }
    }

    /// A topology of `streams` clients over `shards` controllers.
    ///
    /// # Panics
    ///
    /// Panics if either axis is zero.
    pub fn new(streams: u32, shards: u32) -> Self {
        assert!(streams >= 1, "topology needs at least one stream");
        assert!(shards >= 1, "topology needs at least one shard");
        ShardTopology { streams, shards }
    }

    /// Number of client streams.
    pub const fn streams(self) -> u32 {
        self.streams
    }

    /// Number of shards (memory controllers).
    pub const fn shards(self) -> u32 {
        self.shards
    }

    /// Whether this is the unsharded `1×1` topology.
    pub const fn is_unit(self) -> bool {
        self.streams == 1 && self.shards == 1
    }
}

impl Default for ShardTopology {
    fn default() -> Self {
        ShardTopology::unit()
    }
}

impl std::fmt::Display for ShardTopology {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}x{}", self.streams, self.shards)
    }
}

/// A deliberately broken sharded coordinator, for mutation-testing the
/// cross-shard sanitizer rules (the [`crate::engine::MutantEngine`]
/// idea one layer up).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardMutation {
    /// Shard roots never join the root-of-roots: every sealed epoch's
    /// expected fold goes missing. Expected verdict:
    /// `cross_shard_root_order`.
    SkipRootOfRoots,
    /// Root-of-roots folds ignore the cross-shard epoch barrier (each
    /// seal folds immediately at `seal + MAC`). Expected verdict:
    /// `cross_shard_root_order` on epoch-persistency schemes, whose
    /// shards drift apart in sealed-epoch count.
    SkipEpochBarrier,
    /// The interconnect delivers per-stream durability acks out of
    /// order (consecutive acks of a `(stream, shard)` pair swap).
    /// Expected verdict: `stream_order` on strict store-persisting
    /// schemes.
    ReorderAcks,
}

/// The deterministic root-of-roots timing model, shared by the live
/// coordinator and the shadow verifier.
///
/// Seals queue per shard; round *k* (every shard's *k*-th seal) folds
/// only when complete — or at end-of-run drain for shards that sealed
/// fewer epochs — and each fold lands at
/// `max(seal, barrier, own chain) + MAC`, where `barrier` is the
/// latest fold of the previous round across all shards.
#[derive(Debug)]
struct BarrierModel {
    mac: Cycle,
    shards: u32,
    barrier: Cycle,
    last: Vec<Cycle>,
    pending: Vec<VecDeque<(EpochId, Cycle)>>,
    frontier: Cycle,
}

impl BarrierModel {
    fn new(shards: u32, mac: Cycle) -> Self {
        BarrierModel {
            mac,
            shards,
            barrier: Cycle::ZERO,
            last: vec![Cycle::ZERO; level_slot(shards)],
            pending: vec![VecDeque::new(); level_slot(shards)],
            frontier: Cycle::ZERO,
        }
    }

    /// Queues shard `shard`'s next seal and folds every round that is
    /// now complete, appending `(shard, epoch, fold_time)` to `out` in
    /// fold order.
    fn push_seal(
        &mut self,
        shard: u32,
        epoch: EpochId,
        completion: Cycle,
        out: &mut Vec<(u32, EpochId, Cycle)>,
    ) {
        self.pending[level_slot(shard)].push_back((epoch, completion));
        while self.pending.iter().all(|q| !q.is_empty()) {
            self.fold_round(out);
        }
    }

    /// Folds one round: pops at most one pending seal per shard (shard
    /// order), advancing the barrier to the round's latest fold.
    fn fold_round(&mut self, out: &mut Vec<(u32, EpochId, Cycle)>) {
        let mut round_max = self.barrier;
        for shard in 0..self.shards {
            if let Some((epoch, completion)) = self.pending[level_slot(shard)].pop_front() {
                let done = completion
                    .max(self.barrier)
                    .max(self.last[level_slot(shard)])
                    + self.mac;
                self.last[level_slot(shard)] = done;
                round_max = round_max.max(done);
                self.frontier = self.frontier.max(done);
                out.push((shard, epoch, done));
            }
        }
        self.barrier = round_max;
    }

    /// Folds every remaining (possibly partial) round — the shards
    /// that sealed fewer epochs stop gating the rest.
    fn drain(&mut self, out: &mut Vec<(u32, EpochId, Cycle)>) {
        while self.pending.iter().any(|q| !q.is_empty()) {
            self.fold_round(out);
        }
    }
}

/// The coordinator-level shadow verifier: recomputes the expected
/// root-of-roots schedule from observed seals and holds the live
/// coordinator (and the ack interconnect) to it.
#[derive(Debug)]
struct ShardObserver {
    enabled: bool,
    stream_check: bool,
    scheme: UpdateScheme,
    shards: u32,
    /// Last delivered ack per `(stream, shard)`.
    last_ack: Vec<Cycle>,
    /// The shadow barrier model, fed by observed seals.
    shadow: BarrierModel,
    /// Expected folds per shard, in round order.
    expected: Vec<VecDeque<(EpochId, Cycle)>>,
    /// Claimed folds per shard, in emission order.
    claimed: Vec<VecDeque<(EpochId, Cycle)>>,
    fold_scratch: Vec<(u32, EpochId, Cycle)>,
    violations: Vec<Violation>,
    dropped: u64,
}

/// Stored-violation cap (matches the per-run sanitizer's spirit:
/// details bounded, counts exact).
const OBSERVER_DETAIL_CAP: usize = 64;

impl ShardObserver {
    fn new(scheme: UpdateScheme, streams: u32, shards: u32, mac: Cycle, enabled: bool) -> Self {
        let keys = level_slot(streams) * level_slot(shards);
        ShardObserver {
            enabled,
            // Per-stream ack order is an Invariant-2 claim: only the
            // strict-walk (store-persisting) family makes it.
            stream_check: SchemeContract::for_scheme(scheme).strict_walk,
            scheme,
            shards,
            last_ack: vec![Cycle::ZERO; keys],
            shadow: BarrierModel::new(shards, mac),
            expected: vec![VecDeque::new(); level_slot(shards)],
            claimed: vec![VecDeque::new(); level_slot(shards)],
            fold_scratch: Vec::new(),
            violations: Vec::new(),
            dropped: 0,
        }
    }

    fn push_violation(&mut self, kind: ViolationKind, cycle: Cycle, epoch: EpochId, addr: u64) {
        if self.violations.len() < OBSERVER_DETAIL_CAP {
            self.violations.push(Violation {
                kind,
                scheme: self.scheme,
                cycle,
                epoch,
                persist: NO_FIELD,
                level: 0,
                node: NO_FIELD,
                addr,
            });
        } else {
            self.dropped += 1;
        }
    }

    /// One durability ack delivered for `(stream, shard)`: within a
    /// stream, a shard's ordered persists must complete in program
    /// order.
    fn observe_ack(&mut self, stream: u32, shard: u32, addr: BlockAddr, done: Cycle) {
        if !self.enabled || !self.stream_check {
            return;
        }
        let key = level_slot(stream) * level_slot(self.shards) + level_slot(shard);
        if done < self.last_ack[key] {
            self.push_violation(ViolationKind::StreamOrder, done, EpochId(0), addr.index());
        }
        self.last_ack[key] = self.last_ack[key].max(done);
    }

    /// One observed epoch seal: feed the shadow barrier and reconcile
    /// any rounds it can now fold.
    fn observe_seal(&mut self, shard: u32, epoch: EpochId, completion: Cycle) {
        if !self.enabled {
            return;
        }
        let mut folds = std::mem::take(&mut self.fold_scratch);
        folds.clear();
        self.shadow.push_seal(shard, epoch, completion, &mut folds);
        for &(s, e, done) in &folds {
            self.expected[level_slot(s)].push_back((e, done));
        }
        self.fold_scratch = folds;
        self.reconcile();
    }

    /// One root-of-roots fold the live coordinator claims to have
    /// performed.
    fn observe_ror(&mut self, shard: u32, epoch: EpochId, done: Cycle) {
        if !self.enabled {
            return;
        }
        self.claimed[level_slot(shard)].push_back((epoch, done));
        self.reconcile();
    }

    /// Matches claimed folds against expected folds, shard by shard in
    /// round order: a fold earlier than the barrier permits breaks the
    /// cross-shard root ordering contract.
    fn reconcile(&mut self) {
        for s in 0..level_slot(self.shards) {
            while !self.expected[s].is_empty() && !self.claimed[s].is_empty() {
                let Some((e_epoch, e_done)) = self.expected[s].pop_front() else {
                    break;
                };
                let Some((_, c_done)) = self.claimed[s].pop_front() else {
                    break;
                };
                if c_done < e_done {
                    self.push_violation(
                        ViolationKind::CrossShardRootOrder,
                        c_done,
                        e_epoch,
                        NO_FIELD,
                    );
                }
            }
        }
    }

    /// End of run: the shadow drains its partial rounds, and every
    /// expected fold the coordinator never performed (or performed
    /// without a matching expectation) is a violation.
    fn finish(mut self) -> SanitizerSummary {
        if !self.enabled {
            return SanitizerSummary::off();
        }
        let mut folds = std::mem::take(&mut self.fold_scratch);
        folds.clear();
        self.shadow.drain(&mut folds);
        for &(s, e, done) in &folds {
            self.expected[level_slot(s)].push_back((e, done));
        }
        self.fold_scratch = folds;
        self.reconcile();
        for s in 0..level_slot(self.shards) {
            while let Some((epoch, done)) = self.expected[s].pop_front() {
                self.push_violation(ViolationKind::CrossShardRootOrder, done, epoch, NO_FIELD);
            }
            while let Some((epoch, done)) = self.claimed[s].pop_front() {
                self.push_violation(ViolationKind::CrossShardRootOrder, done, epoch, NO_FIELD);
            }
        }
        SanitizerSummary {
            mode: SanitizerMode::Check,
            violations: std::mem::take(&mut self.violations),
            dropped_violations: self.dropped,
            ..SanitizerSummary::default()
        }
    }
}

/// A sharded experiment: one [`SimSetup`] template fanned out over a
/// [`ShardTopology`].
///
/// # Example
///
/// ```
/// use plp_core::{ShardTopology, ShardedSetup, SimSetup, SystemConfig, UpdateScheme};
/// use plp_trace::spec;
///
/// let profile = spec::benchmark("milc").unwrap();
/// let setup = SimSetup::for_profile(
///     SystemConfig::for_scheme(UpdateScheme::O3),
///     &profile,
///     7,
/// )
/// .unwrap();
/// let sharded = ShardedSetup::new(setup, ShardTopology::new(2, 2));
/// let report = sharded.run_generated(20_000);
/// assert!(report.sanitizer.is_clean());
/// assert!(report.persists > 0);
/// ```
#[derive(Debug, Clone)]
pub struct ShardedSetup {
    setup: SimSetup,
    topology: ShardTopology,
}

impl ShardedSetup {
    /// Fans `setup` out over `topology`. Every shard gets an identical
    /// configuration (its own caches, engine, WPQ and BMT instance).
    pub fn new(setup: SimSetup, topology: ShardTopology) -> Self {
        ShardedSetup { setup, topology }
    }

    /// The per-shard setup template.
    pub fn setup(&self) -> &SimSetup {
        &self.setup
    }

    /// Runs one trace per stream and merges the shard reports.
    ///
    /// The unit topology takes the classic unsharded path — its output
    /// is byte-identical to [`SimSetup::run`] on the same trace.
    ///
    /// # Panics
    ///
    /// Panics unless `traces.len()` equals the topology's stream
    /// count.
    pub fn run(&self, traces: &[&Trace]) -> RunReport {
        assert_eq!(
            traces.len(),
            level_slot(self.topology.streams),
            "one trace per stream"
        );
        if self.topology.is_unit() {
            return self.setup.run(traces[0]);
        }
        self.run_coordinated(traces, None)
    }

    /// Like [`ShardedSetup::run`], but with a deliberately broken
    /// coordinator — the cross-shard mutation-test hook. Always takes
    /// the coordinated path, unit topology included.
    ///
    /// # Panics
    ///
    /// Panics unless `traces.len()` equals the topology's stream
    /// count.
    pub fn run_mutated(&self, traces: &[&Trace], mutation: ShardMutation) -> RunReport {
        assert_eq!(
            traces.len(),
            level_slot(self.topology.streams),
            "one trace per stream"
        );
        self.run_coordinated(traces, Some(mutation))
    }

    /// Generates each stream's trace (stream 0 uses the run seed
    /// verbatim; higher streams use [`multi::stream_seed`]) and runs
    /// the topology — the whole sharded experiment as a pure function
    /// of the setup.
    ///
    /// # Panics
    ///
    /// Panics if the setup was not built with
    /// [`SimSetup::for_profile`].
    pub fn run_generated(&self, instructions: u64) -> RunReport {
        let profile = match self.setup.profile() {
            Some(p) => p.clone(),
            #[expect(
                clippy::panic,
                reason = "documented panic contract for profile-less setups"
            )]
            None => panic!("ShardedSetup::run_generated needs a profile-bound setup"),
        };
        let traces: Vec<Trace> = (0..self.topology.streams)
            .map(|stream| {
                let seed = multi::stream_seed(self.setup.seed(), stream);
                plp_trace::TraceGenerator::new(profile.clone(), seed).generate(instructions)
            })
            .collect();
        let refs: Vec<&Trace> = traces.iter().collect();
        self.run(&refs)
    }

    /// The deterministic arbiter + shard loop. `run` routes the unit
    /// topology around this, but the path itself reproduces the
    /// unsharded simulator exactly at 1×1 (pinned by tests).
    fn run_coordinated(&self, traces: &[&Trace], mutation: Option<ShardMutation>) -> RunReport {
        let streams = self.topology.streams;
        let shards = self.topology.shards;
        let config = self.setup.config();
        let map = ShardMap::new(shards);
        let cpi = 1.0 / self.setup.base_ipc();
        let eff_mac = if config.ideal_metadata {
            Cycle::ZERO
        } else {
            config.mac_latency
        };
        let cross_shard = shards > 1;
        // Stream windows are strided to fit the topology's global
        // integrity coverage: M shards each carry a full per-shard BMT,
        // so `leaf_count * shards` pages are covered in total. Ablation
        // configs with shrunken trees shrink the stride with them;
        // stream 0 stays at offset zero either way.
        let stride = multi::fitted_stride(streams, config.bmt.leaf_count() * shards as u64);

        let mut sims: Vec<Simulation> = Vec::with_capacity(level_slot(shards));
        for _ in 0..shards {
            let mut sim = self.setup.simulation();
            if cross_shard {
                sim.enable_seal_log();
            }
            sims.push(sim);
        }

        let mut iters: Vec<_> = traces.iter().map(|t| t.iter().peekable()).collect();
        let mut clocks = vec![0.0f64; level_slot(streams)];
        let mut instr = vec![0u64; level_slot(shards)];
        let mut observer = ShardObserver::new(
            config.scheme,
            streams,
            shards,
            eff_mac,
            config.sanitizer.is_on(),
        );
        // The live root-of-roots: the same barrier model the shadow
        // uses, unless a mutation breaks it on purpose.
        let mut ror = BarrierModel::new(shards, eff_mac);
        let mut folds: Vec<(u32, EpochId, Cycle)> = Vec::new();
        let mut seal_buf: Vec<SealEvent> = Vec::new();
        let reorder_acks = mutation == Some(ShardMutation::ReorderAcks);
        let mut held_acks: Vec<Option<(BlockAddr, Cycle)>> =
            vec![None; level_slot(streams) * level_slot(shards)];

        loop {
            // Earliest next arrival wins; ties break to the lowest
            // stream id (ascending scan keeps the first minimum).
            let mut best: Option<(u32, f64)> = None;
            for s in 0..streams {
                if let Some(ev) = iters[level_slot(s)].peek() {
                    let arrival = clocks[level_slot(s)] + (ev.gap_instructions as f64 + 1.0) * cpi;
                    best = match best {
                        Some((bs, ba)) if ba <= arrival => Some((bs, ba)),
                        _ => Some((s, arrival)),
                    };
                }
            }
            let Some((s, arrival)) = best else { break };
            clocks[level_slot(s)] = arrival;
            let Some(ev) = iters[level_slot(s)].next() else {
                break;
            };
            let now = clock_cycle(arrival);
            match ev.op {
                Op::Load { addr } => {
                    let (shard, local) = map.localize(multi::rebase_with(addr, s, stride));
                    instr[level_slot(shard)] += ev.gap_instructions as u64 + 1;
                    sims[level_slot(shard)].step_load(local, now);
                }
                Op::Store { addr, stack } => {
                    let global = multi::rebase_with(addr, s, stride);
                    let (shard, local) = map.localize(global);
                    let sh = level_slot(shard);
                    instr[sh] += ev.gap_instructions as u64 + 1;
                    let out = sims[sh].step_store(local, stack, now, arrival);
                    clocks[level_slot(s)] = out.clock;
                    if let Some(done) = out.completion {
                        // The ack interconnect: direct delivery, or the
                        // pair-swapping mutant.
                        let key = level_slot(s) * level_slot(shards) + sh;
                        if reorder_acks {
                            if let Some((held_addr, held_done)) = held_acks[key].take() {
                                observer.observe_ack(s, shard, global, done);
                                observer.observe_ack(s, shard, held_addr, held_done);
                            } else {
                                held_acks[key] = Some((global, done));
                            }
                        } else {
                            observer.observe_ack(s, shard, global, done);
                        }
                    }
                    if cross_shard {
                        seal_buf.clear();
                        sims[sh].drain_seals_into(&mut seal_buf);
                        for &sev in &seal_buf {
                            let completion =
                                sev.completion.unwrap_or(sims[sh].last_completion_cycle());
                            self.fold_seal(
                                shard,
                                sev.epoch,
                                completion,
                                mutation,
                                &mut ror,
                                &mut folds,
                                &mut observer,
                            );
                        }
                    }
                }
            }
        }

        // Any leftover held ack flushes straight through.
        for (key, slot) in held_acks.iter_mut().enumerate() {
            if let Some((held_addr, held_done)) = slot.take() {
                let stream_slot = key / level_slot(shards);
                let shard_slot = key % level_slot(shards);
                let mut stream = 0u32;
                let mut shard = 0u32;
                while level_slot(stream) < stream_slot {
                    stream += 1;
                }
                while level_slot(shard) < shard_slot {
                    shard += 1;
                }
                observer.observe_ack(stream, shard, held_addr, held_done);
            }
        }

        // Drain: every stream has retired; shards seal partial epochs
        // against the global final clock, then fold their last roots.
        let mut final_clock = 0.0f64;
        for &c in &clocks {
            final_clock = final_clock.max(c);
        }
        let mut shard_clocks = vec![final_clock; level_slot(shards)];
        for shard in 0..shards {
            let sh = level_slot(shard);
            shard_clocks[sh] = sims[sh].drain_epoch(final_clock);
            if cross_shard {
                seal_buf.clear();
                sims[sh].drain_seals_into(&mut seal_buf);
                for &sev in &seal_buf {
                    let completion = sev.completion.unwrap_or(sims[sh].last_completion_cycle());
                    self.fold_seal(
                        shard,
                        sev.epoch,
                        completion,
                        mutation,
                        &mut ror,
                        &mut folds,
                        &mut observer,
                    );
                }
                if !config.scheme.is_epoch_based() {
                    // Strict (and unordered) schemes never seal: each
                    // shard's final durable frontier joins the
                    // root-of-roots once, as round 0.
                    let completion = sims[sh].last_completion_cycle();
                    self.fold_seal(
                        shard,
                        EpochId(0),
                        completion,
                        mutation,
                        &mut ror,
                        &mut folds,
                        &mut observer,
                    );
                }
            }
        }
        if cross_shard && mutation != Some(ShardMutation::SkipRootOfRoots) {
            folds.clear();
            ror.drain(&mut folds);
            for &(fs, fe, fd) in &folds {
                observer.observe_ror(fs, fe, fd);
            }
        }
        let frontier = ror.frontier;

        // Finish every shard and merge.
        let mut merged: Option<RunReport> = None;
        for (sh, sim) in sims.into_iter().enumerate() {
            let (report, _) = sim.finish(instr[sh], shard_clocks[sh]);
            merged = Some(match merged {
                None => report,
                Some(mut acc) => {
                    merge_into(&mut acc, report);
                    acc
                }
            });
        }
        let mut merged = merged.unwrap_or_default();
        merged.total_cycles = merged.total_cycles.max(frontier);
        merged.sanitizer.merge(&observer.finish());
        merged
    }

    /// Routes one observed seal through the live root-of-roots (or a
    /// mutation of it) and reports every resulting fold — and the seal
    /// itself — to the shadow observer.
    #[allow(clippy::too_many_arguments)]
    fn fold_seal(
        &self,
        shard: u32,
        epoch: EpochId,
        completion: Cycle,
        mutation: Option<ShardMutation>,
        ror: &mut BarrierModel,
        folds: &mut Vec<(u32, EpochId, Cycle)>,
        observer: &mut ShardObserver,
    ) {
        observer.observe_seal(shard, epoch, completion);
        match mutation {
            Some(ShardMutation::SkipRootOfRoots) => {}
            Some(ShardMutation::SkipEpochBarrier) => {
                // Fold immediately: no barrier, no chain, just the MAC.
                let done = completion + ror.mac;
                ror.last[level_slot(shard)] = done;
                ror.frontier = ror.frontier.max(done);
                observer.observe_ror(shard, epoch, done);
            }
            Some(ShardMutation::ReorderAcks) | None => {
                folds.clear();
                ror.push_seal(shard, epoch, completion, folds);
                for &(fs, fe, fd) in folds.iter() {
                    observer.observe_ror(fs, fe, fd);
                }
            }
        }
    }
}

/// Folds shard report `r` into `acc`: cycles and peaks max, event
/// counts and cache/NVM statistics sum field by field, sanitizer
/// summaries merge, records concatenate in shard order.
fn merge_into(acc: &mut RunReport, r: RunReport) {
    acc.total_cycles = acc.total_cycles.max(r.total_cycles);
    acc.instructions += r.instructions;
    acc.persists += r.persists;
    acc.writebacks += r.writebacks;
    acc.epochs += r.epochs;
    acc.engine.node_updates += r.engine.node_updates;
    acc.engine.bmt_fetches += r.engine.bmt_fetches;
    acc.engine.persists += r.engine.persists;
    acc.coalesced_saved_updates += r.coalesced_saved_updates;
    acc.page_overflows += r.page_overflows;
    acc.overflow_blocks += r.overflow_blocks;
    acc.wpq_stall_cycles += r.wpq_stall_cycles;
    acc.wpq_peak = acc.wpq_peak.max(r.wpq_peak);
    merge_cache(&mut acc.metadata.counter, &r.metadata.counter);
    merge_cache(&mut acc.metadata.mac, &r.metadata.mac);
    merge_cache(&mut acc.metadata.bmt, &r.metadata.bmt);
    for i in 0..acc.data_caches.len() {
        merge_cache(&mut acc.data_caches[i], &r.data_caches[i]);
    }
    acc.nvm.reads += r.nvm.reads;
    acc.nvm.writes += r.nvm.writes;
    acc.nvm.writes_combined += r.nvm.writes_combined;
    acc.nvm.row_hits += r.nvm.row_hits;
    acc.nvm.row_misses += r.nvm.row_misses;
    acc.nvm.queue_stall_cycles += r.nvm.queue_stall_cycles;
    acc.sanitizer.merge(&r.sanitizer);
    acc.records.extend(r.records);
}

fn merge_cache(acc: &mut plp_cache::CacheStats, r: &plp_cache::CacheStats) {
    acc.hits += r.hits;
    acc.misses += r.misses;
    acc.evictions += r.evictions;
    acc.dirty_evictions += r.dirty_evictions;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SystemConfig;
    use plp_trace::{spec, TraceGenerator};

    fn trace_for(name: &str, seed: u64, n: u64) -> Trace {
        TraceGenerator::new(spec::benchmark(name).unwrap(), seed).generate(n)
    }

    fn sharded(scheme: UpdateScheme, streams: u32, shards: u32) -> ShardedSetup {
        let profile = spec::benchmark("gcc").unwrap();
        let setup = SimSetup::for_profile(SystemConfig::for_scheme(scheme), &profile, 7).unwrap();
        ShardedSetup::new(setup, ShardTopology::new(streams, shards))
    }

    #[test]
    fn coordinated_unit_topology_reproduces_unsharded_run() {
        // The arbiter path itself — not just the fast path — must be
        // exactly the unsharded simulator at 1x1.
        for scheme in [UpdateScheme::Sp, UpdateScheme::O3, UpdateScheme::Coalescing] {
            let trace = trace_for("gcc", 7, 30_000);
            let s = sharded(scheme, 1, 1);
            let plain = s.setup().run(&trace);
            let coordinated = s.run_coordinated(&[&trace], None);
            assert_eq!(plain, coordinated, "{scheme}: 1x1 arbiter diverged");
        }
    }

    #[test]
    fn unit_fast_path_matches_coordinated() {
        let trace = trace_for("gcc", 7, 20_000);
        let s = sharded(UpdateScheme::Pipeline, 1, 1);
        assert_eq!(s.run(&[&trace]), s.run_coordinated(&[&trace], None));
    }

    #[test]
    fn shrunken_trees_fit_every_stream_window() {
        // The fig-11 ablation shrinks the BMT to 7 levels (262144
        // leaves). The stream stride contracts with the coverage, so
        // sharded runs of the ablation configs neither fall off the
        // tree nor trip the sanitizer.
        let profile = spec::benchmark("gcc").unwrap();
        let mut config = SystemConfig::for_scheme(UpdateScheme::Sp);
        config.bmt = plp_bmt::BmtGeometry::new(8, 7);
        let setup = SimSetup::for_profile(config, &profile, 7).unwrap();
        let s = ShardedSetup::new(setup, ShardTopology::new(2, 2));
        let traces: Vec<Trace> = (0..2)
            .map(|st| {
                let profile = spec::benchmark("gcc").unwrap();
                TraceGenerator::new(profile, multi::stream_seed(7, st)).generate(8_000)
            })
            .collect();
        let refs: Vec<&Trace> = traces.iter().collect();
        let report = s.run(&refs);
        assert!(report.sanitizer.is_clean());
        assert!(report.instructions >= 16_000);
    }

    #[test]
    fn sharded_runs_are_deterministic() {
        for (streams, shards) in [(2, 2), (4, 2), (1, 4), (3, 1)] {
            let s = sharded(UpdateScheme::O3, streams, shards);
            let a = s.run_generated(15_000);
            let b = s.run_generated(15_000);
            assert_eq!(a, b, "{streams}x{shards} not deterministic");
        }
    }

    #[test]
    fn sharded_runs_stay_clean_for_correct_schemes() {
        // The extended set pulls in the zoo: `triad_nvm`'s truncated
        // walk and `phoenix`'s dual-copy commit must stay sanitizer-
        // clean under cross-shard coordination too.
        for scheme in UpdateScheme::all_extended() {
            let s = sharded(scheme, 2, 2);
            let r = s.run_generated(15_000);
            assert!(
                r.sanitizer.is_clean(),
                "{scheme} 2x2: {:?}",
                r.sanitizer.violations
            );
            assert!(r.persists > 0 || scheme == UpdateScheme::SecureWb);
        }
    }

    #[test]
    fn streams_scale_total_work() {
        let one = sharded(UpdateScheme::O3, 1, 2).run_generated(20_000);
        let four = sharded(UpdateScheme::O3, 4, 2).run_generated(20_000);
        assert!(four.instructions > 3 * one.instructions);
        assert!(four.persists > 2 * one.persists);
    }

    #[test]
    fn skip_root_of_roots_is_caught() {
        let s = sharded(UpdateScheme::O3, 2, 2);
        let traces: Vec<Trace> = (0..2)
            .map(|i| trace_for("gcc", multi::stream_seed(7, i), 15_000))
            .collect();
        let refs: Vec<&Trace> = traces.iter().collect();
        let r = s.run_mutated(&refs, ShardMutation::SkipRootOfRoots);
        assert!(
            r.sanitizer.count_of(ViolationKind::CrossShardRootOrder) > 0,
            "skipped root-of-roots went unnoticed"
        );
    }

    #[test]
    fn skip_epoch_barrier_is_caught() {
        let s = sharded(UpdateScheme::O3, 2, 2);
        let traces: Vec<Trace> = (0..2)
            .map(|i| trace_for("gcc", multi::stream_seed(7, i), 40_000))
            .collect();
        let refs: Vec<&Trace> = traces.iter().collect();
        let r = s.run_mutated(&refs, ShardMutation::SkipEpochBarrier);
        assert!(
            r.sanitizer.count_of(ViolationKind::CrossShardRootOrder) > 0,
            "barrier-skipping folds went unnoticed"
        );
    }

    #[test]
    fn reordered_acks_are_caught() {
        let s = sharded(UpdateScheme::Sp, 2, 2);
        let traces: Vec<Trace> = (0..2)
            .map(|i| trace_for("gcc", multi::stream_seed(7, i), 15_000))
            .collect();
        let refs: Vec<&Trace> = traces.iter().collect();
        let r = s.run_mutated(&refs, ShardMutation::ReorderAcks);
        assert!(
            r.sanitizer.count_of(ViolationKind::StreamOrder) > 0,
            "reordered acks went unnoticed"
        );
    }

    #[test]
    fn barrier_model_orders_rounds() {
        let mut m = BarrierModel::new(2, Cycle::new(10));
        let mut out = Vec::new();
        // Shard 0 seals twice before shard 1 seals once: nothing folds
        // until round 0 completes.
        m.push_seal(0, EpochId(0), Cycle::new(100), &mut out);
        m.push_seal(0, EpochId(1), Cycle::new(200), &mut out);
        assert!(out.is_empty());
        m.push_seal(1, EpochId(0), Cycle::new(150), &mut out);
        // Round 0: folds at 110 and 160; barrier becomes 160.
        assert_eq!(
            out,
            vec![
                (0, EpochId(0), Cycle::new(110)),
                (1, EpochId(0), Cycle::new(160))
            ]
        );
        out.clear();
        m.drain(&mut out);
        // Round 1 (partial): shard 0's second seal waits for the
        // barrier: max(200, 160, 110) + 10.
        assert_eq!(out, vec![(0, EpochId(1), Cycle::new(210))]);
        assert_eq!(m.frontier, Cycle::new(210));
    }

    #[test]
    fn topology_accessors() {
        assert_eq!(ShardTopology::default(), ShardTopology::unit());
        assert_eq!(ShardTopology::new(4, 8).to_string(), "4x8");
        assert!(!ShardTopology::new(1, 2).is_unit());
        assert!(!ShardTopology::new(2, 1).is_unit());
    }
}
