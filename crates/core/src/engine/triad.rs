//! Relaxed tree-level persistence from the related literature: the
//! `triad_nvm` scheme.
//!
//! Each persist strictly updates the leaf plus the configured number
//! of deepest BMT levels — serialized, like `sp`, because the strict
//! slice carries the crash-consistency claim — and stops there. The
//! levels above the persisted floor (the root included) live in the
//! metadata cache and are flushed lazily off the critical path, so
//! they cost the persist nothing and are *not* reported as node
//! updates: per persist this engine performs strictly fewer updates
//! than `sp`'s full walk, which is exactly the runtime saving the
//! design buys.
//!
//! What the relaxation costs is visible elsewhere: recovery must
//! rebuild the un-persisted upper slice (see
//! `RecoveryManager`'s suffix-rebuild strategy), and a crash inside
//! the lazy-flush window strands a data/counter pair whose MAC never
//! became durable — a *detected* loss, pinned by the crash harness.

use plp_events::Cycle;

use super::{EngineCtx, UpdateEngine, UpdateRequest};

/// Strictly persists the deepest `persisted_levels` of the tree per
/// persist; relaxes everything above into the metadata cache.
#[derive(Debug, Clone)]
pub struct TriadNvmEngine {
    /// Shallowest strictly-persisted level (level 1 = root). The walk
    /// covers levels `floor..=levels` and stops.
    floor: u32,
    busy_until: Cycle,
}

impl TriadNvmEngine {
    /// Creates an idle engine persisting levels `floor..=levels`.
    pub fn new(floor: u32) -> Self {
        TriadNvmEngine {
            floor,
            busy_until: Cycle::ZERO,
        }
    }
}

impl UpdateEngine for TriadNvmEngine {
    /// Schedules the truncated leaf-up walk; returns the time the
    /// strict slice (the triad persist point) is done. Relaxed levels
    /// are neither walked nor counted.
    fn persist(&mut self, req: UpdateRequest, ctx: &mut EngineCtx<'_>) -> Cycle {
        let mut t = req.now.max(self.busy_until);
        for (label, level) in ctx.geometry.walk_up(req.leaf) {
            if level < self.floor {
                break;
            }
            t = ctx.update(label, level, t);
        }
        self.busy_until = t;
        t
    }

    /// When the engine's last scheduled persist completes.
    fn drained_at(&self) -> Cycle {
        self.busy_until
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::testutil::CtxHarness;

    #[test]
    fn truncated_walk_costs_persisted_levels_only() {
        let mut h = CtxHarness::ideal();
        // 4-level tree, persist the 2 deepest levels: floor = 3.
        let mut e = TriadNvmEngine::new(3);
        let done = e.persist(h.req(0, 0), &mut h.tapped_ctx());
        // 2 levels x 40 cycles, not sp's 4 x 40.
        assert_eq!(done, Cycle::new(80));
        assert_eq!(h.stats.node_updates, 2);
        // The tap sees only the strict slice, deepest levels first.
        assert_eq!(h.tap.len(), 2);
        assert_eq!(h.tap[0].level, 4);
        assert_eq!(h.tap[1].level, 3);
    }

    #[test]
    fn persists_serialize_like_sp_over_the_slice() {
        let mut h = CtxHarness::ideal();
        let mut e = TriadNvmEngine::new(3);
        let d1 = e.persist(h.req(0, 0), &mut h.ctx());
        let d2 = e.persist(h.req(100, 0), &mut h.ctx());
        assert_eq!(d1, Cycle::new(80));
        assert_eq!(d2, Cycle::new(160), "second persist must wait");
        assert_eq!(e.drained_at(), d2);
    }

    #[test]
    fn node_updates_stay_below_sequential() {
        use crate::engine::SequentialEngine;
        let mut h1 = CtxHarness::ideal();
        let mut triad = TriadNvmEngine::new(3);
        for i in 0..20 {
            let _ = triad.persist(h1.req(i % 8, 0), &mut h1.ctx());
        }
        let mut h2 = CtxHarness::ideal();
        let mut sp = SequentialEngine::new();
        for i in 0..20 {
            let _ = sp.persist(h2.req(i % 8, 0), &mut h2.ctx());
        }
        assert!(
            h1.stats.node_updates < h2.stats.node_updates,
            "triad {} must update fewer nodes than sp {}",
            h1.stats.node_updates,
            h2.stats.node_updates
        );
    }

    #[test]
    fn floor_one_degenerates_to_the_full_walk() {
        let mut h = CtxHarness::ideal();
        let mut e = TriadNvmEngine::new(1);
        let done = e.persist(h.req(0, 0), &mut h.ctx());
        assert_eq!(done, Cycle::new(160));
        assert_eq!(h.stats.node_updates, 4);
    }
}
