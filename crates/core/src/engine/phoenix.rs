//! Persistently secure counter tree with a dual-copy root commit: the
//! `phoenix` scheme from the related literature.
//!
//! Where the paper's BMT schemes persist only the root (recovery
//! rebuilds interior nodes from counters), `phoenix` writes *every*
//! node of the update path through to NVM and then commits the root
//! twice — a working copy and a shadow copy in a distinct device
//! block, so one of the two is always intact whatever instant a crash
//! lands on. The persist is complete only when the whole path and
//! both root copies are durable.
//!
//! That buys the other end of the runtime-vs-recovery frontier from
//! `triad_nvm`: the highest per-persist cost in the zoo (a serialized
//! walk, per-node NVM writes, plus the double root commit) in exchange
//! for recovery that rebuilds nothing — the `RecoveryManager`'s
//! shadow-root strategy just cross-checks the two root copies.

use plp_events::Cycle;

use super::{EngineCtx, UpdateEngine, UpdateRequest};
use crate::meta::{bmt_node_block_addr, shadow_root_block_addr};

/// Strict persistency where the whole update path and a dual-copy
/// root persist on every store.
#[derive(Debug, Clone, Default)]
pub struct PhoenixEngine {
    busy_until: Cycle,
    drained: Cycle,
}

impl PhoenixEngine {
    /// Creates an idle engine.
    pub fn new() -> Self {
        Self::default()
    }
}

impl UpdateEngine for PhoenixEngine {
    /// Schedules the sequential walk, the per-level NVM persists and
    /// the dual-copy root commit; returns the time everything is
    /// durable.
    fn persist(&mut self, req: UpdateRequest, ctx: &mut EngineCtx<'_>) -> Cycle {
        let mut t = req.now.max(self.busy_until);
        let mut path_durable = t;
        for (label, level) in ctx.geometry.walk_up(req.leaf) {
            t = ctx.update(label, level, t);
            let written = ctx.nvm.write(t, bmt_node_block_addr(label));
            path_durable = path_durable.max(written);
        }
        // Dual-copy commit: the shadow root is written only after the
        // working path is fully durable, so a crash can tear at most
        // one of the two copies.
        let shadow = ctx.nvm.write(t.max(path_durable), shadow_root_block_addr());
        self.busy_until = t;
        let done = t.max(path_durable).max(shadow);
        self.drained = self.drained.max(done);
        done
    }

    /// When the engine's last scheduled persist completes.
    fn drained_at(&self) -> Cycle {
        self.drained
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::testutil::CtxHarness;

    #[test]
    fn persist_waits_for_path_and_shadow_commit() {
        let mut h = CtxHarness::ideal();
        let mut e = PhoenixEngine::new();
        let done = e.persist(h.req(0, 0), &mut h.ctx());
        // The MAC walk alone is 160 cycles; four path writes plus the
        // shadow commit put completion far later.
        assert!(done > Cycle::new(160), "durability ignored: {done}");
        assert_eq!(h.stats.node_updates, 4);
        // Four path blocks plus the shadow root block.
        assert_eq!(h.nvm.stats().writes + h.nvm.stats().writes_combined, 5);
    }

    #[test]
    fn costs_more_than_the_counter_tree() {
        use crate::engine::CounterTreeEngine;
        let mut h1 = CtxHarness::ideal();
        let mut phoenix = PhoenixEngine::new();
        let mut last_phoenix = Cycle::ZERO;
        for i in 0..20 {
            last_phoenix = phoenix.persist(h1.req(i % 8, 0), &mut h1.ctx());
        }
        let mut h2 = CtxHarness::ideal();
        let mut ctree = CounterTreeEngine::new();
        let mut last_ctree = Cycle::ZERO;
        for i in 0..20 {
            last_ctree = ctree.persist(h2.req(i % 8, 0), &mut h2.ctx());
        }
        assert!(
            last_phoenix >= last_ctree,
            "the dual-copy commit {last_phoenix} cannot be cheaper than sp_ctree {last_ctree}"
        );
    }

    #[test]
    fn shadow_commit_serializes_after_the_path() {
        let mut h = CtxHarness::ideal();
        let mut e = PhoenixEngine::new();
        let d1 = e.persist(h.req(0, 0), &mut h.ctx());
        let d2 = e.persist(h.req(100, 0), &mut h.ctx());
        // The MAC walks serialize through the engine; the dual-copy
        // shadow writes may *write-combine* in the device queue, so
        // completions are monotone but not necessarily distinct.
        assert!(d2 >= d1, "persists must not reorder: {d1} then {d2}");
        assert_eq!(e.drained_at(), d2);
        // Both persists walked the full path.
        assert_eq!(h.stats.node_updates, 8);
    }
}
