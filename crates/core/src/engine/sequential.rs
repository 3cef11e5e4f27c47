//! The sequential (baseline) update engine.

use plp_events::Cycle;

use super::{EngineCtx, UpdateEngine, UpdateRequest};

/// Fully sequential leaf-to-root updates: one persist at a time, one
/// level at a time (§IV-A1's baseline atomic persist, and the path
/// `secure_WB` evictions take).
///
/// At the paper's defaults (9 levels × 40-cycle MAC) each persist
/// occupies the engine for at least 360 cycles, which is exactly the
/// bottleneck §VII's gamess arithmetic demonstrates.
#[derive(Debug, Clone, Default)]
pub struct SequentialEngine {
    busy_until: Cycle,
}

impl SequentialEngine {
    /// Creates an idle engine.
    pub fn new() -> Self {
        Self::default()
    }
}

impl UpdateEngine for SequentialEngine {
    /// Schedules the full leaf-to-root walk; returns the root-done
    /// time.
    fn persist(&mut self, req: UpdateRequest, ctx: &mut EngineCtx<'_>) -> Cycle {
        let mut t = req.now.max(self.busy_until);
        for (label, level) in ctx.geometry.walk_up(req.leaf) {
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
    fn full_walk_costs_levels_times_mac() {
        let mut h = CtxHarness::ideal();
        let mut e = SequentialEngine::new();
        let req = h.req(0, 0);
        let done = e.persist(req, &mut h.ctx());
        // 4 levels x 40 cycles.
        assert_eq!(done, Cycle::new(160));
        assert_eq!(h.stats.node_updates, 4);
    }

    #[test]
    fn persists_serialize() {
        let mut h = CtxHarness::ideal();
        let mut e = SequentialEngine::new();
        let r1 = h.req(0, 0);
        let r2 = h.req(100, 0);
        let d1 = e.persist(r1, &mut h.ctx());
        let d2 = e.persist(r2, &mut h.ctx());
        assert_eq!(d1, Cycle::new(160));
        assert_eq!(d2, Cycle::new(320), "second persist must wait");
        assert_eq!(e.drained_at(), d2);
    }

    #[test]
    fn idle_gap_resets_start() {
        let mut h = CtxHarness::ideal();
        let mut e = SequentialEngine::new();
        e.persist(h.req(0, 0), &mut h.ctx());
        let late = h.req(1, 10_000);
        let done = e.persist(late, &mut h.ctx());
        assert_eq!(done, Cycle::new(10_160));
    }

    #[test]
    fn cold_bmt_cache_adds_fetches() {
        let mut h = CtxHarness::cold();
        let mut e = SequentialEngine::new();
        let done_cold = e.persist(h.req(0, 0), &mut h.ctx());
        assert!(done_cold > Cycle::new(160), "misses must add latency");
        assert!(h.stats.bmt_fetches > 0);
        // A second persist on the same path hits the now-warm cache.
        let start = done_cold;
        let fetches_before = h.stats.bmt_fetches;
        let done_warm = e.persist(h.req(0, start.get()), &mut h.ctx());
        assert_eq!(done_warm, start + Cycle::new(160));
        assert_eq!(h.stats.bmt_fetches, fetches_before);
    }
}
