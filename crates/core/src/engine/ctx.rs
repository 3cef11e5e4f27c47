//! The scheduling context every engine runs in, and the one place a
//! BMT node update is timed and reported.
//!
//! An update has two halves: when the node is on chip (a BMT-cache
//! hit, or an NVM fetch plus verification on a miss) and the report of
//! its completion (statistics, the sanitizer tap, the `between-levels`
//! failpoint). Both halves are private to this module, so the only way
//! an engine can schedule an update is [`EngineCtx::update`], which
//! does both: an update that is prepared but never reported cannot be
//! written, and the completion it returns is `#[must_use]`.

use plp_bmt::{BmtGeometry, NodeLabel};
use plp_events::Cycle;
use plp_nvm::NvmDevice;

use super::EngineStats;
use crate::failpoint::{self, Failpoint, FailpointRegistry};
use crate::meta::{bmt_node_block_addr, MetadataCaches};
use crate::sanitizer::NodeUpdateEvent;

/// Mutable context an engine needs while scheduling: the BMT cache,
/// the NVM device (for miss fetches), statistics and (when the
/// invariant sanitizer is on) the node-update event tap.
///
/// An engine outside this crate schedules node updates through
/// [`EngineCtx::update`] alone:
///
/// ```
/// use plp_core::engine::{EngineCtx, UpdateEngine, UpdateRequest};
/// use plp_events::Cycle;
///
/// #[derive(Debug)]
/// struct Walker;
///
/// impl UpdateEngine for Walker {
///     fn persist(&mut self, req: UpdateRequest, ctx: &mut EngineCtx<'_>) -> Cycle {
///         let mut t = req.now;
///         for (label, level) in ctx.geometry.walk_up(req.leaf) {
///             t = ctx.update(label, level, t);
///         }
///         t
///     }
///
///     fn drained_at(&self) -> Cycle {
///         Cycle::ZERO
///     }
/// }
/// ```
///
/// Preparing a node without reporting it does not compile:
///
/// ```compile_fail
/// use plp_core::engine::{EngineCtx, UpdateEngine, UpdateRequest};
/// use plp_events::Cycle;
///
/// #[derive(Debug)]
/// struct Walker;
///
/// impl UpdateEngine for Walker {
///     fn persist(&mut self, req: UpdateRequest, ctx: &mut EngineCtx<'_>) -> Cycle {
///         let mut t = req.now;
///         for (label, level) in ctx.geometry.walk_up(req.leaf) {
///             t = ctx.node_ready(label, t);
///         }
///         t
///     }
///
///     fn drained_at(&self) -> Cycle {
///         Cycle::ZERO
///     }
/// }
/// ```
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
    /// every update visits the `between-levels` failpoint through it.
    /// `None` on ordinary runs — one branch per node update, like the
    /// tap.
    pub failpoints: Option<&'a mut FailpointRegistry>,
}

impl EngineCtx<'_> {
    /// Schedules one BMT node update of `label` (at `level`, which the
    /// engine already tracks for its walk) that may start no earlier
    /// than `gate`, and reports it. Returns the cycle the update
    /// completes: when the node is on chip, plus one MAC latency.
    ///
    /// Dropping the completion is a warning, and under `-D warnings`
    /// an error:
    ///
    /// ```
    /// #![deny(unused_must_use)]
    /// use plp_core::engine::{EngineCtx, UpdateEngine, UpdateRequest};
    /// use plp_events::Cycle;
    ///
    /// #[derive(Debug)]
    /// struct Walker;
    ///
    /// impl UpdateEngine for Walker {
    ///     fn persist(&mut self, req: UpdateRequest, ctx: &mut EngineCtx<'_>) -> Cycle {
    ///         let t = req.now;
    ///         for (label, level) in ctx.geometry.walk_up(req.leaf) {
    ///             let _done = ctx.update(label, level, t);
    ///         }
    ///         t
    ///     }
    ///
    ///     fn drained_at(&self) -> Cycle {
    ///         Cycle::ZERO
    ///     }
    /// }
    /// ```
    ///
    /// ```compile_fail
    /// #![deny(unused_must_use)]
    /// use plp_core::engine::{EngineCtx, UpdateEngine, UpdateRequest};
    /// use plp_events::Cycle;
    ///
    /// #[derive(Debug)]
    /// struct Walker;
    ///
    /// impl UpdateEngine for Walker {
    ///     fn persist(&mut self, req: UpdateRequest, ctx: &mut EngineCtx<'_>) -> Cycle {
    ///         let t = req.now;
    ///         for (label, level) in ctx.geometry.walk_up(req.leaf) {
    ///             ctx.update(label, level, t);
    ///         }
    ///         t
    ///     }
    ///
    ///     fn drained_at(&self) -> Cycle {
    ///         Cycle::ZERO
    ///     }
    /// }
    /// ```
    #[must_use = "the update's completion time orders the rest of the walk"]
    #[inline]
    pub fn update(&mut self, label: NodeLabel, level: u32, gate: Cycle) -> Cycle {
        let done = self.node_ready(label, gate) + self.mac_latency;
        self.note_update(label, level, done);
        done
    }

    /// Records one scheduled BMT node update completing at `done`:
    /// bumps the statistics counter, pushes the event onto the tap
    /// when the sanitizer is listening, and visits the
    /// `between-levels` failpoint.
    fn note_update(&mut self, label: NodeLabel, level: u32, done: Cycle) {
        debug_assert_eq!(level, self.geometry.level(label));
        self.stats.node_updates += 1;
        if let Some(tap) = self.tap.as_deref_mut() {
            tap.push(NodeUpdateEvent { label, level, done });
        }
        failpoint::visit(self.failpoints.as_deref_mut(), Failpoint::BetweenLevels);
    }

    /// When node `label` is available on chip for an update requested
    /// at `at`: immediately for the root (an on-chip register) and BMT
    /// cache hits; after an NVM fetch plus integrity verification on a
    /// miss. Sibling values share the fetched 64-byte node block
    /// (eight 8-byte nodes per block), so one fetch covers the MAC
    /// inputs of the level.
    fn node_ready(&mut self, label: NodeLabel, at: Cycle) -> Cycle {
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
