//! Deliberately broken update engines that seed known ordering bugs.
//!
//! The invariant sanitizer (see [`crate::sanitizer`]) is only
//! trustworthy if it demonstrably *fires*: each [`Mutation`] here plants
//! one ordering bug from a real failure class — the kind of silent
//! persist-order violation Triad-NVM-style schemes shipped with — and
//! the mutation tests in `crates/core/tests/sanitizer_mutations.rs`
//! assert the sanitizer reports the matching
//! [`crate::sanitizer::ViolationKind`]. A mutant is swapped into a run
//! via [`crate::Simulation::override_engine`]; the production
//! [`super::for_config`] path can never build one.

use plp_events::Cycle;

use super::{level_slot, EngineCtx, UpdateEngine, UpdateRequest};

/// Which ordering bug the mutant plants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutation {
    /// Strict-family bug: the leaf-to-root walk silently omits tree
    /// level `.0` (1 = root), breaking Invariant 2's full-path
    /// coverage. Expected verdict: `SkippedLevel`.
    SkipLevel(u32),
    /// Strict-family bug: the walk runs root-first, so shallow levels
    /// complete before deep ones. Expected verdict: `LevelOrder`.
    ReverseWalk,
    /// Epoch-family bug: updates ignore the ETT's per-level
    /// authorization, so a young epoch's update can complete before a
    /// sealed epoch's last update of the same level (and rewrite the
    /// same node out of order across epochs). Expected verdicts:
    /// `EpochLevelOrder` and `WawHazard`.
    IgnoreEpochGate,
    /// Epoch-family bug: every seal after the first reports a
    /// completion one cycle *before* its predecessor's, breaking
    /// monotone epoch retirement (and under-reporting the epoch's own
    /// updates). Expected verdict: `EpochCompletionOrder`.
    RegressSeal,
}

/// An engine wrapping one seeded [`Mutation`]. Strict mutations model
/// an unpipelined sequential walker with the bug applied; epoch
/// mutations model an `o3`-style engine with the bug applied.
#[derive(Debug)]
pub struct MutantEngine {
    mutation: Mutation,
    /// Per-level completion of sealed epochs (the gate
    /// [`Mutation::IgnoreEpochGate`] ignores).
    prev_epoch_level_done: Vec<Cycle>,
    /// Per-level max completion of the open epoch.
    cur_epoch_level_max: Vec<Cycle>,
    last_reported_seal: Option<Cycle>,
    drained: Cycle,
}

impl MutantEngine {
    /// Creates a mutant for a `levels`-deep tree.
    pub fn new(mutation: Mutation, levels: u32) -> Self {
        MutantEngine {
            mutation,
            prev_epoch_level_done: vec![Cycle::ZERO; level_slot(levels)],
            cur_epoch_level_max: vec![Cycle::ZERO; level_slot(levels)],
            last_reported_seal: None,
            drained: Cycle::ZERO,
        }
    }

    fn update_node(
        &mut self,
        label: plp_bmt::NodeLabel,
        level: u32,
        at: Cycle,
        ctx: &mut EngineCtx<'_>,
    ) -> Cycle {
        let slot = level_slot(level - 1);
        let gate = match self.mutation {
            // The planted bug: skip the cross-epoch authorization.
            Mutation::IgnoreEpochGate => at,
            Mutation::SkipLevel(_) | Mutation::ReverseWalk | Mutation::RegressSeal => {
                at.max(self.prev_epoch_level_done[slot])
            }
        };
        let done = ctx.update(label, level, gate);
        self.cur_epoch_level_max[slot] = self.cur_epoch_level_max[slot].max(done);
        done
    }
}

impl UpdateEngine for MutantEngine {
    fn persist(&mut self, req: UpdateRequest, ctx: &mut EngineCtx<'_>) -> Cycle {
        let mut t = req.now;
        match self.mutation {
            Mutation::SkipLevel(skip) => {
                for (label, level) in ctx.geometry.walk_up(req.leaf) {
                    if level == skip {
                        continue; // the planted bug
                    }
                    t = self.update_node(label, level, t, ctx);
                }
            }
            Mutation::ReverseWalk => {
                // The planted bug: root first. The only walk that needs
                // a materialized path — borrowed from the simulation's
                // shared scratch, not allocated.
                let mut path = std::mem::take(ctx.walk);
                ctx.geometry.update_path_into(req.leaf, &mut path);
                let levels = ctx.geometry.levels();
                for level in 1..=levels {
                    let label = path[level_slot(levels - level)];
                    t = self.update_node(label, level, t, ctx);
                }
                *ctx.walk = path;
            }
            Mutation::IgnoreEpochGate | Mutation::RegressSeal => {
                for (label, level) in ctx.geometry.walk_up(req.leaf) {
                    t = self.update_node(label, level, t, ctx);
                }
            }
        }
        self.drained = self.drained.max(t);
        t
    }

    fn seal_epoch(&mut self, _ctx: &mut EngineCtx<'_>) -> Option<Cycle> {
        let cur_max = self
            .cur_epoch_level_max
            .iter()
            .copied()
            .fold(Cycle::ZERO, Cycle::max);
        for (prev, cur) in self
            .prev_epoch_level_done
            .iter_mut()
            .zip(&mut self.cur_epoch_level_max)
        {
            *prev = (*prev).max(*cur);
            *cur = Cycle::ZERO;
        }
        let completion = match (self.mutation, self.last_reported_seal) {
            // The planted bug: claim this epoch retired just before its
            // predecessor.
            (Mutation::RegressSeal, Some(last)) => last.saturating_sub(Cycle::new(1)),
            _ => self.last_reported_seal.unwrap_or(Cycle::ZERO).max(cur_max),
        };
        self.last_reported_seal = Some(completion);
        self.drained = self.drained.max(cur_max);
        Some(completion)
    }

    fn drained_at(&self) -> Cycle {
        self.drained
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::testutil::CtxHarness;

    #[test]
    fn skip_level_walks_one_short() {
        let mut h = CtxHarness::ideal();
        let mut e = MutantEngine::new(Mutation::SkipLevel(2), 4);
        let req = h.req(0, 0);
        let _ = UpdateEngine::persist(&mut e, req, &mut h.tapped_ctx());
        assert_eq!(h.stats.node_updates, 3);
        assert!(h.tap.iter().all(|ev| ev.level != 2));
    }

    #[test]
    fn reverse_walk_completes_root_before_leaf() {
        let mut h = CtxHarness::ideal();
        let mut e = MutantEngine::new(Mutation::ReverseWalk, 4);
        let req = h.req(0, 0);
        let _ = UpdateEngine::persist(&mut e, req, &mut h.tapped_ctx());
        let root = h.tap.iter().find(|ev| ev.level == 1).copied();
        let leaf = h.tap.iter().find(|ev| ev.level == 4).copied();
        let (root, leaf) = (root.expect("root updated"), leaf.expect("leaf updated"));
        assert!(root.done < leaf.done, "mutant must finish the root first");
    }

    #[test]
    fn regress_seal_reports_backwards_completions() {
        let mut h = CtxHarness::ideal();
        let mut e = MutantEngine::new(Mutation::RegressSeal, 4);
        let req = h.req(0, 0);
        let _ = UpdateEngine::persist(&mut e, req, &mut h.ctx());
        let c1 = e.seal_epoch(&mut h.ctx()).expect("epoch engine seals");
        let req = h.req(1, 1_000);
        let _ = UpdateEngine::persist(&mut e, req, &mut h.ctx());
        let c2 = e.seal_epoch(&mut h.ctx()).expect("epoch engine seals");
        assert!(c2 < c1, "seal completions must regress: {c1} -> {c2}");
    }

    #[test]
    fn ignore_epoch_gate_lets_updates_jump_the_handoff() {
        let mut h = CtxHarness::cold();
        let mut e = MutantEngine::new(Mutation::IgnoreEpochGate, 4);
        // Epoch 0: a cold walk with late completions.
        let req = h.req(0, 0);
        let _ = UpdateEngine::persist(&mut e, req, &mut h.ctx());
        let _ = e.seal_epoch(&mut h.ctx());
        // Epoch 1 revisits the same (now warm) path at time zero: with
        // the gate ignored, its updates complete before epoch 0's.
        h.tap.clear();
        let req = h.req(0, 0);
        let _ = UpdateEngine::persist(&mut e, req, &mut h.tapped_ctx());
        assert!(
            h.tap
                .iter()
                .any(|ev| ev.done < e.prev_epoch_level_done[(ev.level - 1) as usize]),
            "gate-free updates should land before the sealed frontier"
        );
    }
}
