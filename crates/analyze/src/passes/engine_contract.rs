//! The persist-order contract over `UpdateEngine` methods (PLP-E00x).
//!
//! Scope: functions in engine files (`crates/core/src/engine/`) that
//! take an `EngineCtx` parameter — the persist/seal entry points. The
//! mutant factory is exempt (its seeded violations are the sanitizer's
//! test corpus), as is test code.
//!
//! Three obligations, all proved on the CFG under the optimistic loop
//! stance (a real walk visits at least one tree level):
//!
//! * **PLP-E001** — an update prepared via `node_ready` must be
//!   reported through `note_update` on *every* onward path before the
//!   function exits. A path that fetches/verifies a node but never
//!   notes it hides work from the sanitizer tap.
//! * **PLP-E002** — no exit may leave noted updates unsealed: once a
//!   path notes an update, it must write engine state (`self` field
//!   assignment or a mutating collection call — the seal/ack) before
//!   returning. An early `return` between note and seal fires here.
//! * **PLP-E003** — per-iteration form of E001: a `continue` that
//!   jumps back to the loop header before the iteration's note leaves
//!   that level unreported even though the walk moved on.

use crate::cfg::{self, Atom, AtomKind, EdgeKind};
use crate::dataflow;
use crate::lint::rules::{Finding, ENGINE_CONTRACT};
use crate::passes::{emit, takes_engine_ctx, Universe};

/// Runs the engine-contract pass over one file.
pub fn run(u: &Universe, file: usize, out: &mut Vec<Finding>) {
    let unit = &u.files[file];
    if !unit.scope.engine || unit.scope.mutant_factory {
        return;
    }
    for f in &unit.parsed.functions {
        if !takes_engine_ctx(f) || u.in_test(file, f.line) {
            continue;
        }
        let Some(cfg) = cfg::build(f) else { continue };
        let owner = f.owner.as_deref();
        let notes = |a: &Atom<'_>| {
            a.expr
                .is_some_and(|e| e.calls.iter().any(|c| u.call_notes(c, owner)))
        };
        let seals = |a: &Atom<'_>| {
            a.expr.is_some_and(|e| {
                e.assign
                    .as_ref()
                    .is_some_and(|w| w.root == "self" && w.field.is_some())
                    || e.calls.iter().any(|c| u.call_writes_self(c, owner))
            })
        };

        // E001: every node_ready is followed by a note on all paths.
        let note_table = dataflow::must_hit_from(&cfg, &notes, true);
        for (b, i, a) in cfg.atoms() {
            let prepares = a
                .expr
                .is_some_and(|e| e.calls.iter().any(|c| c.name == "node_ready"));
            if prepares && !dataflow::must_hit_after(&cfg, &note_table, &notes, true, b, i) {
                emit(
                    u,
                    file,
                    ENGINE_CONTRACT,
                    "PLP-E001",
                    a.line,
                    0,
                    "node_ready result can reach the exit without note_update",
                    out,
                );
            }
        }

        // E002: needs-seal bit — set by a note, cleared by a seal. Any
        // exit predecessor still carrying the bit returns unsealed
        // state. An atom that both notes and seals evaluates its
        // right-hand side first, so the seal wins.
        let (_, outs) = dataflow::forward_state(&cfg, true, |a: &Atom<'_>, s| {
            if seals(a) {
                false
            } else if notes(a) {
                true
            } else {
                s
            }
        });
        let mut flagged = Vec::new();
        for &(p, k) in &cfg.blocks[cfg.exit].preds {
            if k == EdgeKind::ZeroTrip || !outs[p] {
                continue;
            }
            let line = cfg.blocks[p].atoms.last().map(|a| a.line).unwrap_or(f.line);
            if !flagged.contains(&line) {
                flagged.push(line);
                emit(
                    u,
                    file,
                    ENGINE_CONTRACT,
                    "PLP-E002",
                    line,
                    0,
                    "exit path leaves noted updates unsealed",
                    out,
                );
            }
        }

        // E003: a continue that skips the iteration's note.
        for lp in &cfg.loops {
            let mut body = Vec::new();
            let mut stack = vec![lp.body_entry];
            let mut seen = vec![false; cfg.blocks.len()];
            while let Some(b) = stack.pop() {
                if b == lp.header || b == lp.after || b == cfg.exit {
                    continue;
                }
                if std::mem::replace(&mut seen[b], true) {
                    continue;
                }
                body.push(b);
                for &(t, _) in &cfg.blocks[b].succs {
                    stack.push(t);
                }
            }
            let obligated = body.iter().any(|&b| cfg.blocks[b].atoms.iter().any(&notes));
            if !obligated {
                continue;
            }
            // Walk forward from the body entry, stopping any path at
            // its first note; a continue reached first is a skip.
            let mut stack = vec![lp.body_entry];
            let mut seen = vec![false; cfg.blocks.len()];
            while let Some(b) = stack.pop() {
                if b == lp.header || b == lp.after || b == cfg.exit {
                    continue;
                }
                if std::mem::replace(&mut seen[b], true) {
                    continue;
                }
                let mut noted = false;
                for a in &cfg.blocks[b].atoms {
                    if notes(a) {
                        noted = true;
                        break;
                    }
                    if a.kind == AtomKind::Continue
                        && cfg.blocks[b]
                            .succs
                            .iter()
                            .any(|&(t, k)| t == lp.header && k == EdgeKind::Back)
                    {
                        emit(
                            u,
                            file,
                            ENGINE_CONTRACT,
                            "PLP-E003",
                            a.line,
                            0,
                            "continue skips this iteration's note_update",
                            out,
                        );
                        noted = true; // stop exploring past the continue
                        break;
                    }
                }
                if !noted {
                    for &(t, _) in &cfg.blocks[b].succs {
                        stack.push(t);
                    }
                }
            }
        }
    }
}
