//! BMT update engines: the timing models of §IV's four update schemes
//! (plus the `unordered` strawman).
//!
//! Every engine answers one question per persist: *when is this
//! persist's leaf-to-root BMT update path done, given the scheme's
//! ordering rules, the MAC unit's occupancy and the BMT cache's hit
//! behaviour?* Functional tree contents are maintained separately by
//! the system model; engines deal purely in time.
//!
//! | Engine | Scheme | Ordering rule |
//! |---|---|---|
//! | [`SequentialEngine`] | `sp`, `secure_WB` evictions | one persist at a time, one level at a time |
//! | [`PipelinedEngine`] | `pipeline` | PTT: persists stagger one tree level apart, in order |
//! | [`UnorderedEngine`] | `unordered` | none (violates Invariant 2) |
//! | [`OooEngine`] | `o3` | ETT: free within an epoch, levels pipelined across epochs |
//! | [`CoalescingEngine`] | `coalescing` | `o3` plus LCA handoff chains |
//! | [`CounterTreeEngine`] | `sp_ctree` | sequential, whole path persists (§V-D extension) |
//! | [`TriadNvmEngine`] | `triad_nvm` | strict over the deepest N levels, relaxed above |
//! | [`PhoenixEngine`] | `phoenix` | whole path persists plus a dual-copy root commit |

mod coalesce;
mod ctree;
mod mutant;
mod ooo;
mod phoenix;
mod pipeline;
mod sequential;
mod triad;
mod unordered;

pub use coalesce::CoalescingEngine;
pub use ctree::CounterTreeEngine;
pub use mutant::{MutantEngine, Mutation};
pub use ooo::OooEngine;
pub use phoenix::PhoenixEngine;
pub use pipeline::PipelinedEngine;
pub use sequential::SequentialEngine;
pub use triad::TriadNvmEngine;
pub use unordered::UnorderedEngine;

use plp_bmt::{BmtGeometry, NodeLabel};
use plp_events::Cycle;
use plp_nvm::NvmDevice;

use crate::meta::{bmt_node_block_addr, MetadataCaches};
use crate::sanitizer::NodeUpdateEvent;
use crate::{SystemConfig, UpdateScheme};

/// Counters reported by the engines.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct EngineStats {
    /// BMT node updates performed (each is one MAC computation).
    pub node_updates: u64,
    /// BMT node blocks fetched from NVM on BMT-cache misses.
    pub bmt_fetches: u64,
    /// Persists scheduled.
    pub persists: u64,
}

/// A u32 level count/number as a container index — the engines size
/// and index their per-level tables with tree levels.
pub(crate) fn level_slot(v: u32) -> usize {
    v as usize
}

/// Mutable context an engine needs while scheduling: the BMT cache,
/// the NVM device (for miss fetches), statistics and (when the
/// invariant sanitizer is on) the node-update event tap.
pub struct EngineCtx<'a> {
    /// Tree shape.
    pub geometry: BmtGeometry,
    /// Effective MAC latency (zero under ideal metadata).
    pub mac_latency: Cycle,
    /// The metadata caches (BMT cache lookups).
    pub meta: &'a mut MetadataCaches,
    /// The NVM device for miss fetches.
    pub nvm: &'a mut NvmDevice,
    /// Engine statistics.
    pub stats: &'a mut EngineStats,
    /// Sanitizer event tap: when present, every node update the engine
    /// schedules is recorded for shadow verification (see
    /// [`crate::sanitizer`]). `None` when the sanitizer is off — the
    /// tap then costs one branch per update.
    pub tap: Option<&'a mut Vec<NodeUpdateEvent>>,
    /// Reusable label scratch, owned by the simulation so engines that
    /// need a materialized update path (the mutant's reverse walk)
    /// borrow it instead of allocating one per persist.
    pub walk: &'a mut Vec<NodeLabel>,
    /// The named-failpoint registry, when the crash harness armed one:
    /// `note_update` visits the `between-levels` failpoint through it.
    /// `None` on ordinary runs — one branch per node update, like the
    /// tap.
    pub failpoints: Option<&'a mut crate::failpoint::FailpointRegistry>,
}

impl EngineCtx<'_> {
    /// Records one scheduled BMT node update completing at `done`:
    /// bumps the statistics counter and, when the sanitizer is
    /// listening, pushes the event onto the tap. Every engine reports
    /// each node update through this single point, passing the level
    /// it already tracks for its own scheduling — recomputing it here
    /// per update would put label arithmetic back on the hot path.
    pub fn note_update(&mut self, label: NodeLabel, level: u32, done: Cycle) {
        debug_assert_eq!(level, self.geometry.level(label));
        self.stats.node_updates += 1;
        if let Some(tap) = self.tap.as_deref_mut() {
            tap.push(NodeUpdateEvent { label, level, done });
        }
        if let Some(fp) = self.failpoints.as_deref_mut() {
            fp.hit(crate::failpoint::Failpoint::BetweenLevels);
        }
    }

    /// When node `label` is available on chip for an update requested
    /// at `at`: immediately for the root (an on-chip register) and BMT
    /// cache hits; after an NVM fetch plus integrity verification on a
    /// miss. Sibling values share the fetched 64-byte node block
    /// (eight 8-byte nodes per block), so one fetch covers the MAC
    /// inputs of the level.
    pub fn node_ready(&mut self, label: NodeLabel, at: Cycle) -> Cycle {
        if label.is_root() {
            return at;
        }
        if self.meta.access_bmt(label, true) {
            at
        } else {
            self.stats.bmt_fetches += 1;
            let fetched = self.nvm.read(at, bmt_node_block_addr(label));
            fetched + self.mac_latency // verify the fetched node
        }
    }
}

/// A persist request handed to an engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UpdateRequest {
    /// The BMT leaf whose counter block changed.
    pub leaf: NodeLabel,
    /// Earliest cycle the update may begin (tuple gathered in WPQ).
    pub now: Cycle,
}

/// The scheme-specific half of the persist path: the system model owns
/// tuple gathering, crypto and WPQ slotting, and every engine plugs
/// into it through this interface. Engines are `Send` so a
/// [`crate::Simulation`] can run on a worker thread.
pub trait UpdateEngine: std::fmt::Debug + Send {
    /// Schedules a persist's BMT update path; returns the cycle this
    /// persist's scheduled work completes (for 2SP engines, the root
    /// update; for coalescing, the persist's own committed nodes — the
    /// delegated suffix completes at [`UpdateEngine::seal_epoch`]).
    fn persist(&mut self, req: UpdateRequest, ctx: &mut EngineCtx<'_>) -> Cycle;

    /// Seals the current epoch at an `sfence`: finalizes any pending
    /// coalescing chain, records per-level completion constraints for
    /// the next epoch and returns the sealed epoch's completion time.
    /// Non-epoch engines return `None`.
    fn seal_epoch(&mut self, ctx: &mut EngineCtx<'_>) -> Option<Cycle> {
        let _ = ctx;
        None
    }

    /// The time the engine's last scheduled work completes.
    fn drained_at(&self) -> Cycle;

    /// Node updates eliminated by coalescing (zero for every
    /// non-coalescing engine).
    fn saved_updates(&self) -> u64 {
        0
    }
}

impl UpdateEngine for SequentialEngine {
    fn persist(&mut self, req: UpdateRequest, ctx: &mut EngineCtx<'_>) -> Cycle {
        SequentialEngine::persist(self, req, ctx)
    }

    fn drained_at(&self) -> Cycle {
        SequentialEngine::drained_at(self)
    }
}

impl UpdateEngine for PipelinedEngine {
    fn persist(&mut self, req: UpdateRequest, ctx: &mut EngineCtx<'_>) -> Cycle {
        PipelinedEngine::persist(self, req, ctx)
    }

    fn drained_at(&self) -> Cycle {
        PipelinedEngine::drained_at(self)
    }
}

impl UpdateEngine for UnorderedEngine {
    fn persist(&mut self, req: UpdateRequest, ctx: &mut EngineCtx<'_>) -> Cycle {
        UnorderedEngine::persist(self, req, ctx)
    }

    fn drained_at(&self) -> Cycle {
        UnorderedEngine::drained_at(self)
    }
}

impl UpdateEngine for OooEngine {
    fn persist(&mut self, req: UpdateRequest, ctx: &mut EngineCtx<'_>) -> Cycle {
        OooEngine::persist(self, req, ctx)
    }

    fn seal_epoch(&mut self, _ctx: &mut EngineCtx<'_>) -> Option<Cycle> {
        Some(OooEngine::seal_epoch(self))
    }

    fn drained_at(&self) -> Cycle {
        OooEngine::drained_at(self)
    }
}

impl UpdateEngine for CoalescingEngine {
    fn persist(&mut self, req: UpdateRequest, ctx: &mut EngineCtx<'_>) -> Cycle {
        CoalescingEngine::persist(self, req, ctx)
    }

    fn seal_epoch(&mut self, ctx: &mut EngineCtx<'_>) -> Option<Cycle> {
        Some(CoalescingEngine::seal_epoch(self, ctx))
    }

    fn drained_at(&self) -> Cycle {
        CoalescingEngine::drained_at(self)
    }

    fn saved_updates(&self) -> u64 {
        CoalescingEngine::saved_updates(self)
    }
}

impl UpdateEngine for CounterTreeEngine {
    fn persist(&mut self, req: UpdateRequest, ctx: &mut EngineCtx<'_>) -> Cycle {
        CounterTreeEngine::persist(self, req, ctx)
    }

    fn drained_at(&self) -> Cycle {
        CounterTreeEngine::drained_at(self)
    }
}

impl UpdateEngine for TriadNvmEngine {
    fn persist(&mut self, req: UpdateRequest, ctx: &mut EngineCtx<'_>) -> Cycle {
        TriadNvmEngine::persist(self, req, ctx)
    }

    fn drained_at(&self) -> Cycle {
        TriadNvmEngine::drained_at(self)
    }
}

impl UpdateEngine for PhoenixEngine {
    fn persist(&mut self, req: UpdateRequest, ctx: &mut EngineCtx<'_>) -> Cycle {
        PhoenixEngine::persist(self, req, ctx)
    }

    fn drained_at(&self) -> Cycle {
        PhoenixEngine::drained_at(self)
    }
}

/// Builds the engine for `config`'s scheme. The `secure_WB` baseline
/// routes its eviction write-backs through a sequential engine (§VII:
/// evicted dirty blocks update the BMT sequentially).
pub fn for_config(config: &SystemConfig) -> Box<dyn UpdateEngine> {
    let mac = if config.ideal_metadata {
        Cycle::ZERO
    } else {
        config.mac_latency
    };
    let levels = config.bmt.levels();
    match config.scheme {
        UpdateScheme::SecureWb | UpdateScheme::Sp => Box::new(SequentialEngine::new(mac)),
        UpdateScheme::Pipeline => Box::new(PipelinedEngine::new(mac, levels, config.ptt_entries)),
        UpdateScheme::Unordered => Box::new(UnorderedEngine::new(mac)),
        UpdateScheme::O3 => Box::new(OooEngine::new(mac, levels, config.ett_entries)),
        UpdateScheme::Coalescing => {
            Box::new(CoalescingEngine::new(mac, levels, config.ett_entries))
        }
        UpdateScheme::SpCounterTree => Box::new(CounterTreeEngine::new(mac)),
        UpdateScheme::TriadNvm => Box::new(TriadNvmEngine::new(mac, config.triad_floor())),
        UpdateScheme::Phoenix => Box::new(PhoenixEngine::new(mac)),
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    use super::*;
    use plp_nvm::NvmConfig;

    /// A self-contained harness owning everything an `EngineCtx`
    /// borrows.
    pub struct CtxHarness {
        pub geometry: BmtGeometry,
        pub mac: Cycle,
        pub meta: MetadataCaches,
        pub nvm: NvmDevice,
        pub stats: EngineStats,
        pub tap: Vec<NodeUpdateEvent>,
        pub walk: Vec<NodeLabel>,
    }

    impl CtxHarness {
        /// 8-ary 4-level tree, 40-cycle MAC, ideal metadata by default
        /// so engine scheduling is exact.
        pub fn ideal() -> Self {
            CtxHarness {
                geometry: BmtGeometry::new(8, 4),
                mac: Cycle::new(40),
                meta: MetadataCaches::new(32 << 10, true),
                nvm: NvmDevice::new(NvmConfig::paper_default()),
                stats: EngineStats::default(),
                tap: Vec::new(),
                walk: Vec::new(),
            }
        }

        /// Same shape but with real (cold) metadata caches.
        pub fn cold() -> Self {
            let mut h = Self::ideal();
            h.meta = MetadataCaches::new(32 << 10, false);
            h
        }

        pub fn ctx(&mut self) -> EngineCtx<'_> {
            EngineCtx {
                geometry: self.geometry,
                mac_latency: self.mac,
                meta: &mut self.meta,
                nvm: &mut self.nvm,
                stats: &mut self.stats,
                tap: None,
                walk: &mut self.walk,
                failpoints: None,
            }
        }

        /// Like [`CtxHarness::ctx`] but with the sanitizer tap
        /// attached, recording every node update into `self.tap`.
        pub fn tapped_ctx(&mut self) -> EngineCtx<'_> {
            EngineCtx {
                geometry: self.geometry,
                mac_latency: self.mac,
                meta: &mut self.meta,
                nvm: &mut self.nvm,
                stats: &mut self.stats,
                tap: Some(&mut self.tap),
                walk: &mut self.walk,
                failpoints: None,
            }
        }

        pub fn req(&self, page: u64, now: u64) -> UpdateRequest {
            UpdateRequest {
                leaf: self.geometry.leaf(page),
                now: Cycle::new(now),
            }
        }
    }

    #[test]
    fn note_update_feeds_stats_and_tap() {
        let mut h = CtxHarness::ideal();
        let mut e = SequentialEngine::new(h.mac);
        let req = h.req(0, 0);
        let _ = e.persist(req, &mut h.tapped_ctx());
        assert_eq!(h.stats.node_updates, 4);
        assert_eq!(h.tap.len(), 4);
        // Events arrive leaf-first with monotone completions.
        assert_eq!(h.tap[0].level, 4);
        assert_eq!(h.tap[3].level, 1);
        assert!(h.tap.windows(2).all(|w| w[0].done <= w[1].done));
        // Without the tap, only the counter moves.
        let req = h.req(1, 0);
        let _ = e.persist(req, &mut h.ctx());
        assert_eq!(h.stats.node_updates, 8);
        assert_eq!(h.tap.len(), 4);
    }
}
