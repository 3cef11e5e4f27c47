//! PLP mechanism 2: out-of-order BMT updates within an epoch (epoch
//! persistency).

use plp_events::Cycle;

use super::{level_slot, EngineCtx, UpdateEngine, UpdateRequest};

/// The ETT/PTT engine of §V-B: persists of the *same* epoch update the
/// tree out of order through fully pipelined MAC units (§IV-B1 proves
/// common-ancestor updates are WAW-safe); *across* epochs, each tree
/// level is handed from epoch to epoch in order, so cross-epoch
/// Invariant 2 holds.
///
/// Two throughput effects distinguish this from the in-order pipeline:
/// a BMT-cache miss delays only its own persist (Fig. 4b), and MAC
/// computations issue one per cycle instead of one per level-beat — at
/// realistic persist rates that initiation interval never binds, so
/// updates are modelled as pure latency after their gates.
#[derive(Debug, Clone)]
pub struct OooEngine {
    /// Per-level completion of the *previous* epoch: the ETT's level
    /// authorization (index = level - 1).
    prev_epoch_level_done: Vec<Cycle>,
    /// Per-level max completion of the current epoch.
    cur_epoch_level_max: Vec<Cycle>,
    /// Completion time of each sealed epoch, in order.
    epoch_completions: Vec<Cycle>,
    /// ETT admission floor for the current epoch.
    epoch_floor: Cycle,
    ett_entries: usize,
}

impl OooEngine {
    /// Creates an idle engine for a `levels`-deep tree allowing
    /// `ett_entries` concurrent epochs.
    ///
    /// # Panics
    ///
    /// Panics if `ett_entries` is zero.
    pub fn new(levels: u32, ett_entries: usize) -> Self {
        assert!(ett_entries > 0, "ETT needs at least one entry");
        OooEngine {
            prev_epoch_level_done: vec![Cycle::ZERO; level_slot(levels)],
            cur_epoch_level_max: vec![Cycle::ZERO; level_slot(levels)],
            epoch_completions: Vec::new(),
            epoch_floor: Cycle::ZERO,
            ett_entries,
        }
    }

    /// Schedules one node update at `at` under the epoch's constraints;
    /// shared with the coalescing engine. Callers pass the level they
    /// already track for the walk.
    pub(super) fn update_node(
        &mut self,
        label: plp_bmt::NodeLabel,
        level: u32,
        at: Cycle,
        ctx: &mut EngineCtx<'_>,
    ) -> Cycle {
        let slot = level_slot(level - 1);
        let done = ctx.update(label, level, at.max(self.prev_epoch_level_done[slot]));
        self.cur_epoch_level_max[slot] = self.cur_epoch_level_max[slot].max(done);
        done
    }

    /// Floor applied to the current epoch's persists (exposed to the
    /// coalescing engine).
    pub(super) fn floor(&self) -> Cycle {
        self.epoch_floor
    }

    /// Seals the current epoch: per-level completions become the next
    /// epoch's authorization levels, and the ETT capacity sets the next
    /// epoch's admission floor. Returns the sealed epoch's completion.
    pub fn seal_epoch(&mut self) -> Cycle {
        // Epoch completion: all its updates done; monotonic so the
        // crash-recovery observer sees epochs complete in order.
        let mut completion = self
            .cur_epoch_level_max
            .iter()
            .copied()
            .fold(Cycle::ZERO, Cycle::max);
        if let Some(&last) = self.epoch_completions.last() {
            completion = completion.max(last);
        }
        for (prev, cur) in self
            .prev_epoch_level_done
            .iter_mut()
            .zip(&mut self.cur_epoch_level_max)
        {
            *prev = (*prev).max(*cur);
            *cur = Cycle::ZERO;
        }
        self.epoch_completions.push(completion);
        let n = self.epoch_completions.len();
        self.epoch_floor = if n >= self.ett_entries {
            self.epoch_completions[n - self.ett_entries]
        } else {
            Cycle::ZERO
        };
        completion
    }
}

impl UpdateEngine for OooEngine {
    /// Schedules one persist's walk; returns its own root-done time
    /// (persists of the same epoch complete in any order).
    fn persist(&mut self, req: UpdateRequest, ctx: &mut EngineCtx<'_>) -> Cycle {
        let mut t = req.now.max(self.epoch_floor);
        for (label, level) in ctx.geometry.walk_up(req.leaf) {
            t = self.update_node(label, level, t, ctx);
        }
        t
    }

    fn seal_epoch(&mut self, _ctx: &mut EngineCtx<'_>) -> Option<Cycle> {
        Some(OooEngine::seal_epoch(self))
    }

    /// When the engine's last scheduled work completes.
    fn drained_at(&self) -> Cycle {
        let cur = self
            .cur_epoch_level_max
            .iter()
            .copied()
            .fold(Cycle::ZERO, Cycle::max);
        let sealed = self
            .epoch_completions
            .last()
            .copied()
            .unwrap_or(Cycle::ZERO);
        cur.max(sealed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::testutil::CtxHarness;

    #[test]
    fn intra_epoch_updates_overlap() {
        let mut h = CtxHarness::ideal();
        let mut e = OooEngine::new(4, 2);
        let mut last = Cycle::ZERO;
        for i in 0..8 {
            last = last.max(e.persist(h.req(i * 64, 0), &mut h.ctx()));
        }
        // 32 node updates through a 1/cycle unit, 4 serial per persist:
        // far below the in-order pipeline's 160 + 7*40 = 440.
        assert!(last < Cycle::new(240), "got {last}");
    }

    #[test]
    fn cross_epoch_levels_are_ordered() {
        let mut h = CtxHarness::ideal();
        let mut e = OooEngine::new(4, 2);
        let d1 = e.persist(h.req(0, 0), &mut h.ctx());
        let c1 = e.seal_epoch();
        assert_eq!(c1, d1);
        // Epoch 2's persist to a disjoint subtree still cannot touch
        // any level before epoch 1 finished that level.
        let d2 = e.persist(h.req(511, 0), &mut h.ctx());
        // Epoch 1 finished the leaf level at t=40, so epoch 2's leaf
        // update starts at 40; its root waits for epoch 1's root (160).
        assert!(d2 >= c1 + Cycle::new(40), "root handoff violated: {d2}");
    }

    #[test]
    fn ett_capacity_limits_concurrent_epochs() {
        let mut h = CtxHarness::ideal();
        let mut e = OooEngine::new(4, 2);
        let mut completions = Vec::new();
        for epoch in 0..5 {
            let _ = e.persist(h.req(epoch * 8, 0), &mut h.ctx());
            completions.push(e.seal_epoch());
        }
        // With a 2-entry ETT, epoch k's work cannot begin before epoch
        // k-2 completed: completions strictly increase.
        for w in completions.windows(2) {
            assert!(w[1] > w[0]);
        }
        // Epoch 3 (index 2) must start at or after epoch 1's
        // completion; its own work adds at least one MAC latency.
        assert!(completions[2] >= completions[0] + Cycle::new(40));
    }

    #[test]
    fn epoch_completions_monotonic_even_when_empty() {
        let mut h = CtxHarness::ideal();
        let mut e = OooEngine::new(4, 2);
        let _ = e.persist(h.req(0, 0), &mut h.ctx());
        let c1 = e.seal_epoch();
        // An empty epoch still completes no earlier than its
        // predecessor.
        let c2 = e.seal_epoch();
        assert!(c2 >= c1);
        assert_eq!(e.drained_at(), c2);
    }

    #[test]
    fn miss_delays_only_its_own_persist() {
        // Fig. 4b: persist A misses in the BMT cache; persist B to a
        // different subtree is not delayed behind A's fetch.
        let mut h = CtxHarness::cold();
        let mut e = OooEngine::new(4, 2);
        let a = e.persist(h.req(0, 0), &mut h.ctx());
        let b = e.persist(h.req(8, 0), &mut h.ctx());
        // B also misses (cold), but in an *in-order* pipeline B's leaf
        // could not even start until A's leaf stage completed post-
        // fetch. Here both proceed concurrently: B completes within a
        // fetch+walk of its own, not 2x.
        assert!(
            b < a + a.saturating_sub(Cycle::ZERO),
            "B serialized behind A"
        );
    }
}
