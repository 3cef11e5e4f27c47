//! The full-system simulator: core model, cache hierarchy, security
//! engine, WPQ, NVM and the functional security state, driven by a
//! workload trace.
//!
//! The simulator is split into an immutable [`SimSetup`] (configuration
//! plus optional workload binding) and a per-run [`Simulation`] whose
//! [`Simulation::run`] consumes it. A setup can mint any number of
//! independent simulations — each starts from pristine caches, tree and
//! statistics, and is `Send`, so independent runs can execute on worker
//! threads.

use std::collections::BTreeSet;

use plp_bmt::{BonsaiTree, NodeLabel};
use plp_cache::{Hierarchy, HitLevel, WriteMode};
use plp_crypto::{CounterBlock, CtrEngine, DataBlock, MacEngine, MacTag};
use plp_events::addr::BlockAddr;
use plp_events::{Cycle, FastMap};
use plp_nvm::{NvmDevice, NvmError};
use plp_trace::{Op, Trace, WorkloadProfile};

use crate::crash::DurableSink;
use crate::engine::{EngineCtx, EngineStats, UpdateEngine, UpdateRequest};
use crate::failpoint::{Failpoint, FailpointRegistry, FiredFailpoint};
use crate::meta::{counter_block_addr, mac_block_addr, MetadataCaches};
use crate::recovery::{ObserverExpectation, PersistImage};
use crate::sanitizer::{NodeUpdateEvent, PersistEvent, Sanitizer, SanitizerSummary};
use crate::wpq::Wpq;
use crate::{
    EpochId, PersistId, PersistRecord, ProtectionScope, RunReport, SystemConfig, TupleTimes,
    UpdateScheme,
};

/// The immutable description of an experiment run: configuration, core
/// IPC and (optionally) the workload profile and trace seed. Validated
/// once at construction; every [`SimSetup::simulation`] call mints a
/// fresh, independent [`Simulation`].
///
/// # Example
///
/// ```
/// use plp_core::{SimSetup, SystemConfig, UpdateScheme};
/// use plp_trace::spec;
///
/// let profile = spec::benchmark("milc").unwrap();
/// let setup = SimSetup::for_profile(
///     SystemConfig::for_scheme(UpdateScheme::Pipeline),
///     &profile,
///     7,
/// )
/// .unwrap();
/// let report = setup.run_generated(50_000);
/// assert!(report.persists > 0);
/// ```
#[derive(Debug, Clone)]
pub struct SimSetup {
    config: SystemConfig,
    base_ipc: f64,
    profile: Option<WorkloadProfile>,
    seed: u64,
}

impl SimSetup {
    /// Builds a setup with a 1.0-IPC core.
    ///
    /// # Errors
    ///
    /// Returns the first constraint the configuration violates.
    pub fn new(config: SystemConfig) -> Result<Self, crate::ConfigError> {
        Self::with_base_ipc(config, 1.0)
    }

    /// Builds a setup whose core retires gap instructions at
    /// `base_ipc`.
    ///
    /// # Errors
    ///
    /// Returns the first constraint the configuration violates, or
    /// [`crate::ConfigError::NonPositiveBaseIpc`] for a degenerate core
    /// model.
    pub fn with_base_ipc(config: SystemConfig, base_ipc: f64) -> Result<Self, crate::ConfigError> {
        config.validate()?;
        if !base_ipc.is_finite() || base_ipc <= 0.0 {
            return Err(crate::ConfigError::NonPositiveBaseIpc { base_ipc });
        }
        Ok(SimSetup {
            config,
            base_ipc,
            profile: None,
            seed: 0,
        })
    }

    /// Binds the setup to a workload: the profile's calibrated baseline
    /// IPC drives the core model and `seed` fixes trace generation, so
    /// the setup alone determines a run via
    /// [`SimSetup::run_generated`].
    ///
    /// # Errors
    ///
    /// Returns the first constraint the configuration violates.
    pub fn for_profile(
        config: SystemConfig,
        profile: &WorkloadProfile,
        seed: u64,
    ) -> Result<Self, crate::ConfigError> {
        let mut setup = Self::with_base_ipc(config, profile.base_ipc)?;
        setup.profile = Some(profile.clone());
        setup.seed = seed;
        Ok(setup)
    }

    /// The configuration every simulation of this setup uses.
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// The bound workload profile, if any.
    pub fn profile(&self) -> Option<&WorkloadProfile> {
        self.profile.as_ref()
    }

    /// The trace-generation seed ([`SimSetup::for_profile`] binds it).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Generates the bound workload's trace for roughly `instructions`
    /// instructions.
    ///
    /// # Panics
    ///
    /// Panics if the setup was not built with
    /// [`SimSetup::for_profile`].
    #[expect(
        clippy::expect_used,
        reason = "documented panic contract for profile-less setups"
    )]
    pub fn generate_trace(&self, instructions: u64) -> Trace {
        let profile = self
            .profile
            .as_ref()
            .expect("SimSetup::generate_trace needs a profile-bound setup");
        plp_trace::TraceGenerator::new(profile.clone(), self.seed).generate(instructions)
    }

    /// Mints a fresh simulation: pristine caches, tree, WPQ and
    /// statistics.
    pub fn simulation(&self) -> Simulation {
        let config = self.config.clone();
        let engine = crate::engine::for_config(&config);
        let sanitizer = if config.sanitizer.is_on() {
            Some(Sanitizer::new(config.scheme, config.bmt))
        } else {
            None
        };
        Simulation {
            sanitizer,
            node_tap: Vec::new(),
            walk_scratch: Vec::with_capacity(config.bmt.levels_usize()),
            reencrypt_scratch: Vec::new(),
            flush_scratch: Vec::new(),
            hierarchy: Hierarchy::paper_default(config.llc_bytes),
            meta: MetadataCaches::new(config.metadata_cache_bytes, config.ideal_metadata),
            engine,
            engine_stats: EngineStats::default(),
            nvm: NvmDevice::new(config.nvm),
            wpq: Wpq::new(config.wpq_entries),
            ctr: CtrEngine::new(config.key),
            mac: MacEngine::new(config.key),
            tree: BonsaiTree::new(config.bmt, config.key),
            counters: FastMap::default(),
            epoch: EpochId(0),
            epoch_stores: 0,
            epoch_set: BTreeSet::new(),
            epoch_record_start: 0,
            persists: 0,
            writebacks: 0,
            epochs: 0,
            page_overflows: 0,
            overflow_blocks: 0,
            plaintexts: FastMap::default(),
            store_seq: 0,
            last_completion: Cycle::ZERO,
            last_ordered_release: Cycle::ZERO,
            records: Vec::new(),
            failpoints: None,
            durable: None,
            base_ipc: self.base_ipc,
            config,
        }
    }

    /// Runs a fresh simulation over `trace`.
    pub fn run(&self, trace: &Trace) -> RunReport {
        self.simulation().run(trace)
    }

    /// Generates the bound workload's trace and runs it — the whole
    /// experiment as a pure function of the setup.
    ///
    /// # Panics
    ///
    /// Panics if the setup was not built with
    /// [`SimSetup::for_profile`].
    pub fn run_generated(&self, instructions: u64) -> RunReport {
        self.run(&self.generate_trace(instructions))
    }
}

/// One run's worth of simulated state.
///
/// Minted by [`SimSetup::simulation`] and *consumed* by
/// [`Simulation::run`]: state can never leak between runs, and calling
/// `run` twice on the same simulation is a compile error. The simulator
/// is deterministic — identical configuration and trace produce
/// identical reports.
///
/// # Example
///
/// ```
/// use plp_core::{SimSetup, SystemConfig, UpdateScheme};
/// use plp_trace::{spec, TraceGenerator};
///
/// let profile = spec::benchmark("milc").unwrap();
/// let trace = TraceGenerator::new(profile.clone(), 7).generate(50_000);
/// let setup = SimSetup::new(SystemConfig::for_scheme(UpdateScheme::Pipeline)).unwrap();
/// let report = setup.simulation().run(&trace);
/// assert!(report.persists > 0);
/// ```
#[derive(Debug)]
pub struct Simulation {
    config: SystemConfig,
    base_ipc: f64,
    hierarchy: Hierarchy,
    meta: MetadataCaches,
    engine: Box<dyn UpdateEngine>,
    engine_stats: EngineStats,
    nvm: NvmDevice,
    wpq: Wpq,
    ctr: CtrEngine,
    mac: MacEngine,
    tree: BonsaiTree,
    counters: FastMap<u64, CounterBlock>,
    // Epoch persistency state.
    epoch: EpochId,
    epoch_stores: usize,
    epoch_set: BTreeSet<BlockAddr>,
    epoch_record_start: usize,
    // Counters.
    persists: u64,
    writebacks: u64,
    epochs: u64,
    /// Minor-counter overflows (whole-page re-encryptions).
    page_overflows: u64,
    /// Blocks re-encrypted by page overflows.
    overflow_blocks: u64,
    /// Architectural last plaintext per persisted block (needed to
    /// re-encrypt a page when its minor counters overflow).
    plaintexts: FastMap<BlockAddr, DataBlock>,
    store_seq: u64,
    last_completion: Cycle,
    /// Completion of the previous WPQ entry: 2SP releases entries in
    /// FIFO order (§V-A's head pointer), so completions never reorder
    /// under strict persistency.
    last_ordered_release: Cycle,
    records: Vec<PersistRecord>,
    /// The shadow verifier, when [`SystemConfig::sanitizer`] is on.
    sanitizer: Option<Sanitizer>,
    /// Scratch buffer the engine tap fills per engine call; drained
    /// into the sanitizer and reused to avoid per-persist allocation.
    node_tap: Vec<NodeUpdateEvent>,
    /// Label scratch lent to the engine via [`EngineCtx::walk`].
    walk_scratch: Vec<NodeLabel>,
    /// Reusable page-overflow re-encryption work list.
    reencrypt_scratch: Vec<(BlockAddr, DataBlock, plp_crypto::CounterValue)>,
    /// Reusable epoch-seal flush list (the epoch set snapshot).
    flush_scratch: Vec<BlockAddr>,
    /// The named-failpoint registry, when the crash harness armed one.
    failpoints: Option<FailpointRegistry>,
    /// The file-backed durable sink, when a crash-harness child
    /// attached one: every persisted tuple is mirrored write-through
    /// into a device image that survives this process being killed.
    durable: Option<DurableSink>,
}

/// The cycle a core clock reading falls in: the `f64` clock truncated
/// toward zero, as every dispatch and seal timestamp is taken.
#[inline]
#[expect(
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    reason = "core clocks are non-negative and below 2^64 cycles; truncating toward zero is intended"
)]
fn clock_cycle(clock: f64) -> Cycle {
    Cycle::new(clock as u64)
}

/// A consumed simulation, returned by [`Simulation::run_with_state`]:
/// read-only access to the post-run architectural state, with no way
/// to run it again.
#[derive(Debug)]
pub struct FinishedSim {
    sim: Simulation,
    /// The root after the run's last update, committed once when the
    /// run finished.
    root: plp_bmt::NodeValue,
}

impl FinishedSim {
    /// The architectural (pre-crash) BMT root — what the on-chip
    /// register holds after all issued updates.
    pub fn architectural_root(&self) -> plp_bmt::NodeValue {
        self.root
    }

    /// Where the armed failpoint fired, if a registry was armed (in
    /// observe mode a fired run still completes — this is how the
    /// golden model and the determinism tests learn the kill site).
    pub fn fired_failpoint(&self) -> Option<FiredFailpoint> {
        self.sim.failpoints.as_ref().and_then(|f| f.fired())
    }

    /// The first I/O error the durable sink swallowed, if a sink was
    /// attached and errored. Sink errors never disturb the simulation;
    /// callers that care (the crash-harness child) check here.
    pub fn durable_error(&self) -> Option<NvmError> {
        self.sim.durable.as_ref().and_then(|s| s.error())
    }
}

impl Simulation {
    /// Arms the named-failpoint registry for this run. In observe mode
    /// the run completes and [`FinishedSim::fired_failpoint`] reports
    /// where the plan fired; in park mode the run stops dead at the
    /// armed `(failpoint, hit)`, awaiting SIGKILL from the harness.
    pub fn arm_failpoints(&mut self, registry: FailpointRegistry) {
        self.failpoints = Some(registry);
    }

    /// Attaches a file-backed durable sink: from now on every
    /// persisted tuple is mirrored write-through into the sink's
    /// device image, so killing this process leaves a readable image
    /// of exactly the persisted prefix.
    pub fn attach_durable_sink(&mut self, sink: DurableSink) {
        self.durable = Some(sink);
    }

    /// Visits failpoint `point` if a registry is armed. Hit counts
    /// advance identically whether or not a durable sink is attached,
    /// so observed hit indices are valid kill addresses.
    fn fp_hit(&mut self, point: Failpoint) {
        if let Some(fp) = self.failpoints.as_mut() {
            fp.hit(point);
        }
    }

    fn effective_mac(&self) -> Cycle {
        if self.config.ideal_metadata {
            Cycle::ZERO
        } else {
            self.config.mac_latency
        }
    }

    fn is_persisting_store(&self, stack: bool) -> bool {
        match self.config.scope {
            ProtectionScope::Full => true,
            ProtectionScope::NonStack => !stack,
        }
    }

    /// Split-borrows the engine away from the scheduling context it
    /// needs — the single point where any engine plugs into the persist
    /// path.
    fn with_engine<R>(
        &mut self,
        f: impl FnOnce(&mut dyn UpdateEngine, &mut EngineCtx<'_>) -> R,
    ) -> R {
        let mac_latency = if self.config.ideal_metadata {
            Cycle::ZERO
        } else {
            self.config.mac_latency
        };
        let tap = match &self.sanitizer {
            Some(s) if s.wants_node_events() => Some(&mut self.node_tap),
            _ => None,
        };
        let mut ctx = EngineCtx {
            geometry: self.config.bmt,
            mac_latency,
            meta: &mut self.meta,
            nvm: &mut self.nvm,
            stats: &mut self.engine_stats,
            tap,
            walk: &mut self.walk_scratch,
            failpoints: self.failpoints.as_mut(),
        };
        f(self.engine.as_mut(), &mut ctx)
    }

    /// Replaces the scheme's engine with `engine` — the mutation-test
    /// hook. The sanitizer (and everything else) is oblivious to the
    /// swap, which is the point: a seeded ordering bug must be caught
    /// from observed events alone. The replacement must target the same
    /// tree depth as the configuration.
    pub fn override_engine(&mut self, engine: Box<dyn UpdateEngine>) {
        self.engine = engine;
    }

    /// The persist path: the full security transformation + BMT update
    /// for one block, returning its WPQ admission time (the core stalls
    /// until then; the completion only advances the drain frontier).
    /// Every durable block — write-through stores, epoch flushes and
    /// background evictions alike — goes through this one routine;
    /// `ordered` marks persists the crash-recovery observer may rely on
    /// (vs background eviction write-backs).
    fn persist_block(&mut self, addr: BlockAddr, now: Cycle, ordered: bool) -> Cycle {
        let eff_mac = self.effective_mac();
        let page = addr.page().index();

        // Step 1 of 2SP: allocate a WPQ entry (core stalls if full).
        let admit = self.wpq.admit(now);
        if let Some(fp) = self.failpoints.as_mut() {
            fp.begin_persist();
        }

        // Gather the tuple. The BMT walk depends only on the counter;
        // the 64-byte MAC block (which the new tag merges into) gathers
        // in parallel and joins at completion, so a MAC-cache miss
        // delays its own persist but never the root-ordering chain.
        let mut counter_ready = admit;
        if !self.meta.access_counter(page, true) {
            let fetched = self.nvm.read(admit, counter_block_addr(page));
            counter_ready = counter_ready.max(fetched + eff_mac); // verify fetched counters
        }
        let mut mac_block_ready = admit;
        if !self.meta.access_mac(addr, true) {
            mac_block_ready = mac_block_ready.max(self.nvm.read(admit, mac_block_addr(addr)));
        }
        // The data block's stateful MAC computes on its own unit in
        // parallel with the BMT walk (both need only the counter);
        // it joins the tuple at completion.
        let data_mac_done = counter_ready + eff_mac;

        // Functional transformation.
        self.store_seq += 1;
        let plaintext = DataBlock::from_u64(self.store_seq);
        self.plaintexts.insert(addr, plaintext);
        let counter_block = self.counters.entry(page).or_default();
        let bump = counter_block.bump(addr.slot_in_page());
        let gamma = bump.value();
        let ciphertext = self.ctr.encrypt(plaintext, addr, gamma);
        let mac = self.mac.compute(&ciphertext, addr, gamma);
        let counters_after = counter_block.clone();
        self.tree.update_leaf(page, &counters_after);

        // Minor-counter overflow: the major counter advanced and every
        // minor reset, so every previously persisted block of this
        // encryption page must be re-encrypted (and re-MACed) under its
        // new counter — the split-counter design's page cost (§II).
        // Overflows are rare, so the work list is a reused scratch
        // buffer, not a per-persist allocation.
        let mut reencrypt = std::mem::take(&mut self.reencrypt_scratch);
        reencrypt.clear();
        if bump.overflowed() {
            self.page_overflows += 1;
            let page_addr = addr.page();
            for slot in 0..plp_events::addr::BLOCKS_PER_PAGE {
                let other = page_addr.block(slot);
                if other == addr {
                    continue;
                }
                if let Some(&pt) = self.plaintexts.get(&other) {
                    reencrypt.push((other, pt, counters_after.value(slot)));
                }
            }
        }

        // Schedule the BMT update path through whichever engine the
        // scheme plugged in.
        let leaf = self.config.bmt.leaf(page);
        self.fp_hit(Failpoint::PreRootSeal);
        let root_done = self.with_engine(|engine, ctx| {
            ctx.stats.persists += 1;
            engine.persist(
                UpdateRequest {
                    leaf,
                    now: counter_ready,
                },
                ctx,
            )
        });
        self.fp_hit(Failpoint::PostRootSeal);
        self.append_durable_tuple(addr, page, &ciphertext, &counters_after, mac);
        // Shadow-verify the walk the engine just scheduled (Invariant 2
        // per level, or the epoch/WAW contract), then recycle the tap.
        if let Some(san) = self.sanitizer.as_mut() {
            san.observe_walk(PersistId(self.store_seq), self.epoch, &self.node_tap);
            self.node_tap.clear();
        }

        // Step 2 of 2SP: tuple complete; release to NVMM. Under strict
        // persistency the WPQ deallocates entries head-first, so a
        // younger tuple can never become durable before an older one —
        // completions are forced monotonic (Invariant 2 for C/γ/M).
        let mut completion = root_done.max(mac_block_ready).max(data_mac_done);
        // A minor-counter overflow extends the tuple: the page
        // re-encryption must persist atomically with the counter, or a
        // crash between them leaves other blocks of the page encrypted
        // under the old major counter. The pipelined crypto units chew
        // through the page in roughly one extra MAC latency.
        if !reencrypt.is_empty() {
            completion += self.effective_mac();
        }
        if !self.config.scheme.is_epoch_based() && self.config.scheme != UpdateScheme::Unordered {
            completion = completion.max(self.last_ordered_release);
            self.last_ordered_release = completion;
        }
        // Under strict persistency the 2SP mechanism locks the entry
        // until the whole tuple (root included) completes. Under epoch
        // persistency — and in the unordered strawman — blocks "drain
        // to persistent memory as they come" (§IV-B1): the slot frees
        // once the tuple components are gathered, and cross-epoch
        // ordering is enforced by the ETT instead.
        let slot_free = if self.config.scheme.is_epoch_based()
            || self.config.scheme == UpdateScheme::Unordered
        {
            counter_ready.max(mac_block_ready).max(data_mac_done)
        } else {
            completion
        };
        self.wpq.complete_at(slot_free);
        let _ = self.nvm.write(slot_free, addr);
        self.last_completion = self.last_completion.max(completion);

        // Page-overflow maintenance: re-encrypt the rest of the page
        // under the new major counter; each block is a posted NVM write
        // that persists atomically with this tuple (completion already
        // includes the re-encryption pass).
        if !reencrypt.is_empty() {
            let maintenance_done = completion;
            for (other, pt, new_gamma) in reencrypt.drain(..) {
                let new_cipher = self.ctr.encrypt(pt, other, new_gamma);
                let new_mac = self.mac.compute(&new_cipher, other, new_gamma);
                let _ = self.nvm.write(maintenance_done, other);
                self.overflow_blocks += 1;
                // Mirror the re-encryption into the durable image; it
                // persists atomically with its carrier tuple, so there
                // is no failpoint between the two appends.
                if let Some(sink) = self.durable.as_mut() {
                    sink.overflow(u64::MAX - self.overflow_blocks, other, &new_cipher, new_mac);
                }
                if self.config.record_persists {
                    self.records.push(PersistRecord {
                        id: PersistId(u64::MAX - self.overflow_blocks),
                        epoch: self.epoch,
                        addr: other,
                        plaintext: pt,
                        ciphertext: new_cipher,
                        counters_after: counters_after.clone(),
                        mac: new_mac,
                        issued_at: now,
                        times: TupleTimes::atomic(maintenance_done),
                    });
                }
            }
            self.last_completion = self.last_completion.max(maintenance_done);
        }
        self.reencrypt_scratch = reencrypt;

        if ordered {
            self.persists += 1;
        } else {
            self.writebacks += 1;
        }

        let times = match self.config.scheme {
            // Write-through without root ordering: components drain
            // as they arrive; the root lands whenever this persist's
            // own walk finishes — Invariant 2 is not enforced.
            UpdateScheme::Unordered => TupleTimes {
                data: counter_ready,
                counter: counter_ready,
                mac: data_mac_done.max(mac_block_ready),
                root: root_done,
            },
            // Relaxed tree levels: the data/counter pair retires with
            // the strict slice, but the MAC and root trail it through
            // the lazy flush window — one MAC latency per relaxed
            // level. A crash inside that window strands a fresh
            // data/counter pair under a stale MAC: the *detected* loss
            // the crash harness pins for this scheme.
            UpdateScheme::TriadNvm => {
                let relaxed = u64::from(self.config.triad_floor().saturating_sub(1));
                let lag = Cycle::new(self.effective_mac().get() * relaxed);
                TupleTimes {
                    data: completion,
                    counter: completion,
                    mac: completion + lag,
                    root: completion + lag,
                }
            }
            // 2SP: the whole tuple is released atomically.
            // (Epoch records are re-stamped at the epoch seal.
            // `phoenix` is stricter still: the dual-copy commit is
            // inside `completion`, so the tuple stays atomic.)
            UpdateScheme::SecureWb
            | UpdateScheme::Sp
            | UpdateScheme::Pipeline
            | UpdateScheme::O3
            | UpdateScheme::Coalescing
            | UpdateScheme::SpCounterTree
            | UpdateScheme::Phoenix => TupleTimes::atomic(completion),
        };
        if let Some(san) = self.sanitizer.as_mut() {
            san.observe_persist(&PersistEvent {
                id: PersistId(self.store_seq),
                epoch: self.epoch,
                addr,
                ordered,
                times,
            });
        }
        if self.config.record_persists {
            self.records.push(PersistRecord {
                id: PersistId(self.store_seq),
                epoch: self.epoch,
                addr,
                plaintext,
                ciphertext,
                counters_after,
                mac,
                issued_at: now,
                times,
            });
        }
        admit
    }

    /// Mirrors one persisted tuple into the durable image and visits
    /// the `mid-tuple` failpoint.
    ///
    /// Frame granularity is the persistency claim under test: tuple-
    /// atomic schemes append one frame — torn on purpose when the
    /// armed `mid-tuple` kill is about to land, so the reader discards
    /// it (an interrupted 2SP tuple leaves no partial state) — while
    /// the `unordered` baseline appends each component separately with
    /// the failpoint between them, leaving genuinely half-written
    /// tuples on disk. `triad_nvm` sits between the two: its strict
    /// slice makes the data/counter pair atomic (one `TAG_TRIAD`
    /// frame), but the MAC and root trail through the relaxed-level
    /// flush window — one `between-levels` stop per relaxed level — so
    /// a kill in that window durably strands the pair under a stale
    /// MAC.
    fn append_durable_tuple(
        &mut self,
        addr: BlockAddr,
        page: u64,
        ciphertext: &DataBlock,
        counters_after: &CounterBlock,
        mac: MacTag,
    ) {
        if self.durable.is_none() && self.failpoints.is_none() {
            return;
        }
        let id = self.store_seq;
        let root_after = self.tree.root();
        if self.config.scheme == UpdateScheme::Unordered {
            if let Some(sink) = self.durable.as_mut() {
                sink.data(id, addr, ciphertext);
            }
            self.fp_hit(Failpoint::MidTuple);
            if let Some(sink) = self.durable.as_mut() {
                sink.counter(id, page, counters_after);
            }
            self.fp_hit(Failpoint::MidTuple);
            if let Some(sink) = self.durable.as_mut() {
                sink.mac_tag(id, addr, mac);
            }
            self.fp_hit(Failpoint::MidTuple);
            if let Some(sink) = self.durable.as_mut() {
                sink.root(id, root_after);
            }
        } else if self.config.scheme == UpdateScheme::TriadNvm {
            // The strict slice: data and counter persist atomically
            // (a torn TAG_TRIAD frame vanishes on replay, exactly like
            // an interrupted 2SP tuple).
            let torn = self
                .failpoints
                .as_ref()
                .is_some_and(|fp| fp.would_fire(Failpoint::MidTuple));
            if let Some(sink) = self.durable.as_mut() {
                let frame = crate::crash::TriadFrame {
                    id,
                    addr,
                    page,
                    cipher: ciphertext,
                    counters: counters_after,
                };
                if torn {
                    sink.triad_torn(&frame);
                } else {
                    sink.triad(&frame);
                }
            }
            self.fp_hit(Failpoint::MidTuple);
            // The lazy flush window above the persisted floor: one
            // between-levels stop per relaxed level. A kill landing
            // here leaves the new pair durable while the MAC and root
            // are not — the detected loss the harness pins.
            for _ in 1..self.config.triad_floor() {
                self.fp_hit(Failpoint::BetweenLevels);
            }
            if let Some(sink) = self.durable.as_mut() {
                sink.mac_tag(id, addr, mac);
                sink.root(id, root_after);
            }
        } else {
            let torn = self
                .failpoints
                .as_ref()
                .is_some_and(|fp| fp.would_fire(Failpoint::MidTuple));
            if let Some(sink) = self.durable.as_mut() {
                let frame = crate::crash::TupleFrame {
                    id,
                    addr,
                    page,
                    cipher: ciphertext,
                    counters: counters_after,
                    mac,
                    root: root_after,
                };
                if torn {
                    sink.tuple_torn(&frame);
                } else {
                    sink.tuple(&frame);
                }
            }
            self.fp_hit(Failpoint::MidTuple);
        }
    }

    /// Seals the current epoch: flushes its write set as persists,
    /// rotates the ETT and re-stamps the epoch's records to its
    /// completion time. Returns the latest core-visible admission
    /// stall.
    fn seal_epoch(&mut self, now: Cycle) -> Cycle {
        // Snapshot the epoch set into the reused flush list (the set's
        // order is already deterministic); `persist_block` below needs
        // `&mut self`, hence the take/restore dance.
        let mut addrs = std::mem::take(&mut self.flush_scratch);
        addrs.clear();
        addrs.extend(self.epoch_set.iter().copied());
        self.epoch_set.clear();
        let mut stall = now;
        for &addr in &addrs {
            let admit = self.persist_block(addr, now, true);
            stall = stall.max(admit);
            self.hierarchy.mark_clean(addr);
            self.fp_hit(Failpoint::MidEpochFlush);
        }
        self.flush_scratch = addrs;
        let sealed = self.with_engine(|engine, ctx| engine.seal_epoch(ctx));
        if let Some(san) = self.sanitizer.as_mut() {
            // Seal-time walks (a coalescing carrier's suffix commit)
            // belong to the sealing epoch but to no single persist.
            san.observe_epoch_tail(self.epoch, &self.node_tap);
            self.node_tap.clear();
            if let Some(completion) = sealed {
                san.observe_seal(self.epoch, completion);
            }
        }
        if let Some(completion) = sealed {
            self.last_completion = self.last_completion.max(completion);
            if self.config.record_persists {
                for r in &mut self.records[self.epoch_record_start..] {
                    r.times = TupleTimes::atomic(completion);
                }
            }
        }
        // The seal itself is durable state: mirror it, then visit the
        // post-seal failpoint (a kill there must find the seal frame
        // already on disk).
        if self.durable.is_some() || self.failpoints.is_some() {
            let sealed_root = self.tree.root();
            let sealed_epoch = self.epoch.0;
            if let Some(sink) = self.durable.as_mut() {
                sink.seal(sealed_epoch, sealed_root);
            }
            self.fp_hit(Failpoint::PostEpochSeal);
        }
        self.epochs += 1;
        self.epoch = EpochId(self.epoch.0 + 1);
        self.epoch_stores = 0;
        self.epoch_record_start = self.records.len();
        stall
    }

    /// An LLC dirty eviction: needs the full security transformation
    /// but carries no crash-recovery ordering expectation.
    fn eviction_writeback(&mut self, addr: BlockAddr, now: Cycle) {
        let _ = self.persist_block(addr, now, false);
    }

    /// One store's worth of persist-path work; returns the core clock
    /// with its stalls folded in (stores stall the core only on WPQ
    /// back-pressure and epoch seals).
    fn step_store(&mut self, addr: BlockAddr, stack: bool, now: Cycle, clock: f64) -> f64 {
        let mut clock = clock;
        let persisting = self.is_persisting_store(stack);
        if persisting && self.config.scheme.is_store_persisting() {
            self.hierarchy.store(addr, WriteMode::WriteThrough);
            let admit = self.persist_block(addr, now, true);
            clock = clock.max(admit.get() as f64);
        } else if persisting && self.config.scheme.is_epoch_based() {
            let out = self.hierarchy.store(addr, WriteMode::WriteBack);
            self.epoch_set.insert(addr);
            for wb in out.memory_writebacks {
                if self.epoch_set.remove(&wb) {
                    // A block of the open epoch leaves the LLC early:
                    // it persists now, within the epoch.
                    let admit = self.persist_block(wb, now, true);
                    clock = clock.max(admit.get() as f64);
                } else {
                    self.eviction_writeback(wb, now);
                }
            }
            self.epoch_stores += 1;
            if self.epoch_stores >= self.config.epoch_size {
                let stall = self.seal_epoch(clock_cycle(clock));
                clock = clock.max(stall.get() as f64);
            }
        } else {
            let out = self.hierarchy.store(addr, WriteMode::WriteBack);
            for wb in out.memory_writebacks {
                self.eviction_writeback(wb, now);
            }
        }
        clock
    }

    /// One load's worth of cache/NVM traffic.
    fn step_load(&mut self, addr: BlockAddr, now: Cycle) {
        let out = self.hierarchy.load(addr);
        if out.level == HitLevel::Memory {
            let _ = self.nvm.read(now, addr);
        }
        for wb in out.memory_writebacks {
            self.eviction_writeback(wb, now);
        }
    }

    /// Runs the trace to completion, consuming the simulation, and
    /// reports.
    ///
    /// The core model retires every instruction — gaps and memory
    /// operations alike — at the calibrated baseline IPC, which (per
    /// the trace profiles, fitted to the paper's `secure_WB` runs)
    /// already folds in the benchmark's average cache and memory-stall
    /// behaviour. Loads and stores therefore contribute *traffic*
    /// (cache contents, evictions, NVM occupancy the persist path
    /// contends with) rather than per-access core stalls; the
    /// core-visible stalls are the persist-path ones the paper
    /// studies: WPQ back-pressure and epoch sealing.
    ///
    /// Consuming `self` makes run state single-use by construction:
    /// re-running a consumed simulation is a compile error, so caches,
    /// tree and statistics can never accumulate across runs. Mint a
    /// fresh [`Simulation`] from the [`SimSetup`] for the next run.
    pub fn run(self, trace: &Trace) -> RunReport {
        self.run_with_state(trace).0
    }

    /// Like [`Simulation::run`], but also returns the consumed
    /// simulation as a read-only [`FinishedSim`] for architectural
    /// inspection.
    pub fn run_with_state(mut self, trace: &Trace) -> (RunReport, FinishedSim) {
        let cpi = 1.0 / self.base_ipc;
        let mut clock: f64 = 0.0;

        for ev in trace {
            clock += (ev.gap_instructions as f64 + 1.0) * cpi;
            let now = clock_cycle(clock);
            match ev.op {
                Op::Load { addr } => self.step_load(addr, now),
                Op::Store { addr, stack } => clock = self.step_store(addr, stack, now, clock),
            }
        }

        // Drain: seal a partial final epoch, wait out the engine, then
        // snapshot every statistic.
        if self.config.scheme.is_epoch_based()
            && (!self.epoch_set.is_empty() || self.epoch_stores > 0)
        {
            let stall = self.seal_epoch(clock_cycle(clock));
            clock = clock.max(stall.get() as f64);
        }
        let total = clock_cycle(clock.ceil())
            .max(self.last_completion)
            .max(self.engine.drained_at());

        let caches = self.hierarchy.levels();
        let report = RunReport {
            total_cycles: total,
            instructions: trace.total_instructions(),
            persists: self.persists,
            writebacks: self.writebacks,
            epochs: self.epochs,
            engine: self.engine_stats,
            coalesced_saved_updates: self.engine.saved_updates(),
            page_overflows: self.page_overflows,
            overflow_blocks: self.overflow_blocks,
            wpq_stall_cycles: self.wpq.stall_cycles(),
            wpq_peak: self.wpq.peak_occupancy(),
            metadata: self.meta.stats(),
            data_caches: [caches[0].stats(), caches[1].stats(), caches[2].stats()],
            nvm: self.nvm.stats(),
            sanitizer: match self.sanitizer.take() {
                Some(san) => san.finish(),
                None => SanitizerSummary::off(),
            },
            records: std::mem::take(&mut self.records),
        };
        let root = self.tree.root();
        (report, FinishedSim { sim: self, root })
    }

    /// The architectural (pre-crash) BMT root — what the on-chip
    /// register holds before the run starts (see
    /// [`FinishedSim::architectural_root`] for the post-run value).
    ///
    /// # Panics
    ///
    /// Panics if tree updates await a commit. Only a run in progress
    /// leaves them, and outside this crate a `Simulation` is either
    /// fresh or consumed by its run.
    pub fn architectural_root(&self) -> plp_bmt::NodeValue {
        match self.tree.committed_root() {
            Some(root) => root,
            #[expect(
                clippy::panic,
                reason = "documented contract: a mid-run read would otherwise be a stale root"
            )]
            None => panic!("architectural_root read mid-run, with tree updates awaiting a commit"),
        }
    }
}

/// Runs `profile` under `config` for roughly `instructions`
/// instructions with a deterministic `seed`, wiring the profile's
/// baseline IPC into the core model.
///
/// # Example
///
/// ```
/// use plp_core::{run_benchmark, SystemConfig, UpdateScheme};
/// use plp_trace::spec;
///
/// let profile = spec::benchmark("astar").unwrap();
/// let report = run_benchmark(
///     &profile,
///     &SystemConfig::for_scheme(UpdateScheme::O3),
///     50_000,
///     1,
/// );
/// assert!(report.epochs > 0);
/// ```
///
/// # Panics
///
/// Panics if the configuration is invalid (see
/// [`SystemConfig::validate`]).
pub fn run_benchmark(
    profile: &WorkloadProfile,
    config: &SystemConfig,
    instructions: u64,
    seed: u64,
) -> RunReport {
    match SimSetup::for_profile(config.clone(), profile, seed) {
        Ok(setup) => setup.run_generated(instructions),
        #[expect(
            clippy::panic,
            reason = "documented panic contract for invalid configurations"
        )]
        Err(e) => panic!("invalid system configuration: {e}"),
    }
}

/// Runs `trace` under a prebuilt setup — [`run_benchmark`] for callers
/// that share one generated trace across many configurations.
pub fn run_trace(setup: &SimSetup, trace: &Trace) -> RunReport {
    setup.run(trace)
}

/// Runs a trace and returns the crash-analysis artefacts: the report,
/// the durable image and the observer expectation at time `t` (or at
/// the end of the run if `t` is `None`). Requires
/// [`SystemConfig::record_persists`].
///
/// # Panics
///
/// Panics if `config.record_persists` is false or the configuration is
/// invalid.
pub fn run_with_crash(
    config: &SystemConfig,
    base_ipc: f64,
    trace: &Trace,
    t: Option<Cycle>,
) -> (RunReport, PersistImage, ObserverExpectation) {
    assert!(
        config.record_persists,
        "crash analysis needs record_persists = true"
    );
    let setup = match SimSetup::with_base_ipc(config.clone(), base_ipc) {
        Ok(setup) => setup,
        #[expect(
            clippy::panic,
            reason = "documented panic contract for invalid configurations"
        )]
        Err(e) => panic!("invalid system configuration: {e}"),
    };
    let report = setup.run(trace);
    let crash_at = t.unwrap_or(Cycle::MAX);
    let image = PersistImage::at_time(&report.records, crash_at, config.bmt, config.key);
    let expected = ObserverExpectation::at_time(&report.records, crash_at);
    (report, image, expected)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RecoveryChecker;
    use plp_trace::spec;

    fn small_trace(name: &str, n: u64) -> Trace {
        plp_trace::TraceGenerator::new(spec::benchmark(name).unwrap(), 99).generate(n)
    }

    fn run_scheme(scheme: UpdateScheme, n: u64) -> RunReport {
        let trace = small_trace("gcc", n);
        let setup = SimSetup::new(SystemConfig::for_scheme(scheme)).unwrap();
        setup.run(&trace)
    }

    #[test]
    fn all_schemes_run_to_completion() {
        for scheme in UpdateScheme::all() {
            let r = run_scheme(scheme, 20_000);
            assert!(r.total_cycles > Cycle::ZERO, "{scheme}: empty run");
            assert!(r.instructions >= 20_000);
        }
    }

    #[test]
    fn setup_is_reusable_and_runs_are_independent() {
        let trace = small_trace("gcc", 30_000);
        let setup = SimSetup::new(SystemConfig::for_scheme(UpdateScheme::Coalescing)).unwrap();
        let a = setup.run(&trace);
        // A second run from the same setup starts from pristine state:
        // identical report, no accumulation.
        let b = setup.simulation().run(&trace);
        assert_eq!(a, b);
    }

    #[test]
    fn performance_ordering_matches_fig8_and_fig10() {
        // sp >> pipeline >> o3 ~ coalescing, all >= secure_WB.
        let n = 150_000;
        let base = run_scheme(UpdateScheme::SecureWb, n).total_cycles.get() as f64;
        let sp = run_scheme(UpdateScheme::Sp, n).total_cycles.get() as f64;
        let pipe = run_scheme(UpdateScheme::Pipeline, n).total_cycles.get() as f64;
        let o3 = run_scheme(UpdateScheme::O3, n).total_cycles.get() as f64;
        let co = run_scheme(UpdateScheme::Coalescing, n).total_cycles.get() as f64;
        assert!(sp > 2.0 * pipe, "sp {sp} should far exceed pipeline {pipe}");
        assert!(pipe > o3, "pipeline {pipe} should exceed o3 {o3}");
        assert!(
            o3 >= base * 0.9,
            "o3 {o3} implausibly below baseline {base}"
        );
        // §VII: coalescing's runtime stays close to o3 (its benefit is
        // fewer node updates, not latency) — the LCA handoff makes the
        // older update wait for the younger one.
        assert!(co <= o3 * 1.15, "coalescing {co} should track o3 {o3}");
    }

    #[test]
    fn epoch_schemes_reduce_persists() {
        let n = 100_000;
        let sp = run_scheme(UpdateScheme::Sp, n);
        let o3 = run_scheme(UpdateScheme::O3, n);
        assert!(
            (o3.persists as f64) < 0.75 * sp.persists as f64,
            "epoch coalescing in cache should cut persists: o3={} sp={}",
            o3.persists,
            sp.persists
        );
        assert!(o3.epochs > 0);
    }

    #[test]
    fn coalescing_reduces_node_updates() {
        let n = 100_000;
        let o3 = run_scheme(UpdateScheme::O3, n);
        let co = run_scheme(UpdateScheme::Coalescing, n);
        let reduction = co.node_update_reduction_vs(&o3);
        assert!(
            reduction > 0.05,
            "coalescing reduced node updates by only {:.1}%",
            reduction * 100.0
        );
    }

    #[test]
    fn full_scope_persists_more_than_nonstack() {
        let trace = small_trace("astar", 60_000);
        let mut cfg = SystemConfig::for_scheme(UpdateScheme::Sp);
        let nonstack = SimSetup::new(cfg.clone()).unwrap().run(&trace);
        cfg.scope = ProtectionScope::Full;
        let full = SimSetup::new(cfg).unwrap().run(&trace);
        assert!(full.persists > 2 * nonstack.persists);
        assert!(full.total_cycles > nonstack.total_cycles);
    }

    #[test]
    fn sp_crash_recovery_is_clean_at_any_point() {
        let mut cfg = SystemConfig::for_scheme(UpdateScheme::Sp);
        cfg.record_persists = true;
        let trace = small_trace("milc", 8_000);
        let (report, image, expected) = run_with_crash(&cfg, 1.0, &trace, Some(Cycle::new(50_000)));
        assert!(!report.records.is_empty());
        let checker = RecoveryChecker::new(cfg.bmt, cfg.key);
        let rep = checker.check(&image, &expected);
        assert!(rep.is_clean(), "{rep}");
    }

    #[test]
    fn epoch_crash_recovery_is_clean_at_epoch_granularity() {
        let mut cfg = SystemConfig::for_scheme(UpdateScheme::Coalescing);
        cfg.record_persists = true;
        let trace = small_trace("gamess", 8_000);
        let (report, image, expected) = run_with_crash(&cfg, 1.0, &trace, Some(Cycle::new(20_000)));
        assert!(report.epochs > 0);
        let checker = RecoveryChecker::new(cfg.bmt, cfg.key);
        let rep = checker.check(&image, &expected);
        assert!(rep.is_clean(), "{rep}");
    }

    #[test]
    fn unordered_crash_can_fail_verification() {
        // The headline negative result: the unordered strawman leaves
        // some crash window where recovery fails integrity checks.
        let mut cfg = SystemConfig::for_scheme(UpdateScheme::Unordered);
        cfg.record_persists = true;
        let trace = small_trace("gcc", 10_000);
        let report = SimSetup::new(cfg.clone()).unwrap().run(&trace);
        let checker = RecoveryChecker::new(cfg.bmt, cfg.key);
        let mut any_failure = false;
        // Scan crash points between component persists.
        let mut times: Vec<Cycle> = report
            .records
            .iter()
            .flat_map(|r| [r.times.data, r.times.root])
            .collect();
        times.sort();
        times.dedup();
        for t in times.iter().step_by(7) {
            let image = PersistImage::at_time(&report.records, *t, cfg.bmt, cfg.key);
            let expected = ObserverExpectation::at_time(&report.records, *t);
            if !checker.check(&image, &expected).is_clean() {
                any_failure = true;
                break;
            }
        }
        assert!(
            any_failure,
            "unordered persists never produced a torn crash state"
        );
    }

    #[test]
    fn wpq_size_back_pressure() {
        let trace = small_trace("gcc", 60_000);
        let mut tiny = SystemConfig::for_scheme(UpdateScheme::Coalescing);
        tiny.wpq_entries = 4;
        let mut big = tiny.clone();
        big.wpq_entries = 64;
        let r_tiny = SimSetup::new(tiny).unwrap().run(&trace);
        let r_big = SimSetup::new(big).unwrap().run(&trace);
        assert!(r_tiny.wpq_stall_cycles >= r_big.wpq_stall_cycles);
        assert!(r_tiny.total_cycles >= r_big.total_cycles);
    }

    #[test]
    fn simulations_are_send() {
        fn assert_send<T: Send>() {}
        assert_send::<Simulation>();
        assert_send::<SimSetup>();
    }

    #[test]
    fn deterministic_runs() {
        let a = run_scheme(UpdateScheme::Coalescing, 30_000);
        let b = run_scheme(UpdateScheme::Coalescing, 30_000);
        assert_eq!(a.total_cycles, b.total_cycles);
        assert_eq!(a.engine.node_updates, b.engine.node_updates);
    }
}
