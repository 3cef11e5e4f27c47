//! The `unordered` strawman: write-through persists without root
//! ordering.

use plp_events::Cycle;

use super::{EngineCtx, UpdateEngine, UpdateRequest};

/// Unordered BMT updates (Table IV's strawman): every persist walks
/// leaf-to-root with no cross-persist ordering at all — not even at
/// the root. MAC computations are fully pipelined; with a
/// one-per-cycle initiation interval the unit's throughput never binds
/// at realistic persist rates, so updates are modelled as pure latency.
///
/// It is fast, but it violates Invariant 2: two persists' root updates
/// can complete out of persist order, so a crash between them can
/// leave a BMT that fails verification on recovery. The recovery tests
/// demonstrate exactly that failure; this engine exists to quantify
/// how much an ordering-free design under-estimates the cost of
/// correctness. (The relaxed-tree design from the related literature,
/// which Table IV's prose loosely gestures at, is modelled faithfully
/// by [`crate::engine::TriadNvmEngine`] instead: it persists a strict
/// lower slice of the tree rather than abandoning ordering wholesale.)
#[derive(Debug, Clone, Default)]
pub struct UnorderedEngine {
    drained: Cycle,
}

impl UnorderedEngine {
    /// Creates an idle engine.
    pub fn new() -> Self {
        Self::default()
    }
}

impl UpdateEngine for UnorderedEngine {
    /// Schedules the unordered walk; returns this persist's own
    /// root-update time (no ordering with other persists).
    fn persist(&mut self, req: UpdateRequest, ctx: &mut EngineCtx<'_>) -> Cycle {
        let mut t = req.now;
        for (label, level) in ctx.geometry.walk_up(req.leaf) {
            t = ctx.update(label, level, t);
        }
        self.drained = self.drained.max(t);
        t
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
    fn single_walk_latency() {
        let mut h = CtxHarness::ideal();
        let mut e = UnorderedEngine::new();
        let done = e.persist(h.req(0, 0), &mut h.ctx());
        // 4 levels serial along the persist's own path.
        assert_eq!(done, Cycle::new(160));
    }

    #[test]
    fn bursts_overlap_completely() {
        let mut h = CtxHarness::ideal();
        let mut e = UnorderedEngine::new();
        let mut last = Cycle::ZERO;
        for i in 0..10 {
            last = last.max(e.persist(h.req((i * 64) % 512, 0), &mut h.ctx()));
        }
        // All ten walks overlap: 160, not 1600.
        assert_eq!(last, Cycle::new(160));
        assert_eq!(e.drained_at(), last);
    }

    #[test]
    fn roots_can_complete_out_of_order() {
        // An older persist stalling on a cold fetch finishes *after* a
        // younger one on a warm path — the Invariant 2 violation.
        let mut h = CtxHarness::cold();
        let mut e = UnorderedEngine::new();
        let older = e.persist(h.req(0, 0), &mut h.ctx()); // cold fetches
        let younger = e.persist(h.req(0, 1), &mut h.ctx()); // warm path
        assert!(
            younger < older,
            "younger {younger} should beat the stalled older {older}"
        );
    }

    #[test]
    fn zero_latency_mac_is_free() {
        let mut h = CtxHarness::ideal();
        h.mac = Cycle::ZERO;
        let mut e = UnorderedEngine::new();
        let done = e.persist(h.req(0, 123), &mut h.ctx());
        assert_eq!(done, Cycle::new(123));
    }
}
