//! Dataflow analyses over [`crate::cfg`] graphs.
//!
//! Two engines cover everything the semantic passes need:
//!
//! * [`must_hit_from`] — backward all-paths analysis: from a block's
//!   start, does every path to the function exit pass a generating
//!   atom first? Diverging paths (infinite loops, `let … else` panic
//!   arms) are vacuously true — they never reach the exit.
//! * [`forward_state`] — a single-bit forward analysis with a caller
//!   supplied transfer function and may-meet (`OR`), used for the
//!   needs-seal obligation.
//!
//! Both directional engines take the loop stance (`optimistic`)
//! described in the cfg module docs.

use crate::cfg::{Atom, BlockId, Cfg};

/// Backward all-paths analysis: `result[b]` is true iff every path
/// from the *start* of block `b` to the exit passes an atom for which
/// `is_gen` holds. Blocks that cannot reach the exit (diverging) are
/// vacuously true.
pub fn must_hit_from<'a>(
    cfg: &Cfg<'a>,
    is_gen: &dyn Fn(&Atom<'a>) -> bool,
    optimistic: bool,
) -> Vec<bool> {
    let n = cfg.blocks.len();
    // Greatest fixpoint: start true everywhere except the exit and
    // intersect over successors. Cycles that never reach the exit
    // stay true (diverging = vacuous).
    let mut hit = vec![true; n];
    hit[cfg.exit] = false;
    let mut changed = true;
    let mut rounds = 0usize;
    while changed && rounds < 4 * n + 16 {
        changed = false;
        rounds += 1;
        for b in 0..n {
            if b == cfg.exit {
                continue;
            }
            let v = block_hits(cfg, b, is_gen, optimistic, &hit);
            if v != hit[b] {
                hit[b] = v;
                changed = true;
            }
        }
    }
    hit
}

/// One block's value for [`must_hit_from`]: true if the block contains
/// a gen atom, else the AND over its (stance-filtered) successors;
/// no successors means diverging, vacuously true.
fn block_hits<'a>(
    cfg: &Cfg<'a>,
    b: BlockId,
    is_gen: &dyn Fn(&Atom<'a>) -> bool,
    optimistic: bool,
    hit: &[bool],
) -> bool {
    if cfg.blocks[b].atoms.iter().any(is_gen) {
        return true;
    }
    let mut any = false;
    for s in cfg.succs(b, optimistic) {
        any = true;
        if !hit[s] {
            return false;
        }
    }
    // No successors: diverging block (or a dead tail after
    // return/break); no path reaches the exit from here.
    let _ = any;
    true
}

/// Like [`must_hit_from`], but asks the question *after* the atom at
/// `(block, atom_idx)`: must every onward path hit a gen atom before
/// the exit?
pub fn must_hit_after<'a>(
    cfg: &Cfg<'a>,
    table: &[bool],
    is_gen: &dyn Fn(&Atom<'a>) -> bool,
    optimistic: bool,
    block: BlockId,
    atom_idx: usize,
) -> bool {
    if cfg.blocks[block].atoms[atom_idx + 1..].iter().any(is_gen) {
        return true;
    }
    let mut any = false;
    for s in cfg.succs(block, optimistic) {
        any = true;
        if s == cfg.exit || !table[s] {
            return false;
        }
    }
    let _ = any;
    true
}

/// Forward single-bit analysis with OR-meet. `transfer` folds one
/// atom into the state. Returns per-block `(in, out)` states; the
/// state arriving at [`Cfg::exit`]'s IN is the function-exit state.
pub fn forward_state<'a, F>(cfg: &Cfg<'a>, optimistic: bool, transfer: F) -> (Vec<bool>, Vec<bool>)
where
    F: Fn(&Atom<'a>, bool) -> bool,
{
    let n = cfg.blocks.len();
    let mut ins = vec![false; n];
    let mut outs = vec![false; n];
    let mut changed = true;
    let mut rounds = 0usize;
    while changed && rounds < 4 * n + 16 {
        changed = false;
        rounds += 1;
        for b in 0..n {
            let mut input = false;
            for &(p, k) in &cfg.blocks[b].preds {
                let dropped = if optimistic {
                    k == crate::cfg::EdgeKind::ZeroTrip
                } else {
                    k == crate::cfg::EdgeKind::LoopBypass
                };
                if !dropped {
                    input |= outs[p];
                }
            }
            if b == cfg.entry {
                // Entry keeps its initial false unless something loops
                // back into it (it never does; entry has no preds).
            }
            let mut state = input;
            for a in &cfg.blocks[b].atoms {
                state = transfer(a, state);
            }
            if input != ins[b] || state != outs[b] {
                ins[b] = input;
                outs[b] = state;
                changed = true;
            }
        }
    }
    (ins, outs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfg::{build, Cfg};
    use crate::syntax::{lex, parse};

    fn cfg_of(src: &'static str) -> Cfg<'static> {
        let ts = Box::leak(Box::new(lex(src)));
        let parsed = Box::leak(Box::new(parse(src, ts)));
        build(&parsed.functions[0]).expect("body")
    }

    fn has_call<'a>(a: &Atom<'a>, name: &str) -> bool {
        a.expr
            .is_some_and(|e| e.calls.iter().any(|c| c.name == name))
    }

    #[test]
    fn must_hit_sees_all_paths() {
        let src = "fn f(c: bool) { if c { seal(); } other(); }";
        let cfg = cfg_of(src);
        let gen = |a: &Atom<'_>| has_call(a, "seal");
        let table = must_hit_from(&cfg, &gen, true);
        assert!(!table[cfg.entry], "else path skips seal");
        let src2 = "fn g(c: bool) { if c { seal(); } else { seal(); } other(); }";
        let cfg2 = cfg_of(src2);
        let table2 = must_hit_from(&cfg2, &gen, true);
        assert!(table2[cfg2.entry]);
    }

    #[test]
    fn optimistic_loops_assume_one_iteration() {
        let src = "fn f(n: u32) { for i in 0..n { seal(i); } }";
        let cfg = cfg_of(src);
        let gen = |a: &Atom<'_>| has_call(a, "seal");
        assert!(must_hit_from(&cfg, &gen, true)[cfg.entry]);
        assert!(!must_hit_from(&cfg, &gen, false)[cfg.entry]);
    }

    #[test]
    fn diverging_paths_are_vacuous() {
        let src = "fn f(c: bool) { if c { panic_like_halt(); loop { } } seal(); }";
        let cfg = cfg_of(src);
        let gen = |a: &Atom<'_>| has_call(a, "seal");
        // The infinite loop never reaches the exit, so the only path
        // that matters crosses seal().
        assert!(must_hit_from(&cfg, &gen, true)[cfg.entry]);
    }

    #[test]
    fn must_hit_after_scans_rest_of_block() {
        let src = "fn f() { ready(); note(); }";
        let cfg = cfg_of(src);
        let gen = |a: &Atom<'_>| has_call(a, "note");
        let table = must_hit_from(&cfg, &gen, true);
        let (b, i, _) = cfg
            .atoms()
            .find(|(_, _, a)| has_call(a, "ready"))
            .expect("ready");
        assert!(must_hit_after(&cfg, &table, &gen, true, b, i));
        let src2 = "fn f() { note(); ready(); }";
        let cfg2 = cfg_of(src2);
        let table2 = must_hit_from(&cfg2, &gen, true);
        let (b2, i2, _) = cfg2
            .atoms()
            .find(|(_, _, a)| has_call(a, "ready"))
            .expect("ready");
        assert!(!must_hit_after(&cfg2, &table2, &gen, true, b2, i2));
    }

    #[test]
    fn forward_state_tracks_set_then_clear() {
        let src = "fn f(c: bool) { note(); if c { seal(); } }";
        let cfg = cfg_of(src);
        let (ins, _) = forward_state(&cfg, true, |a: &Atom<'_>, s| {
            if has_call(a, "note") {
                true
            } else if has_call(a, "seal") {
                false
            } else {
                s
            }
        });
        // One path (c false) arrives at exit still needing the seal.
        assert!(ins[cfg.exit]);
        let src2 = "fn f() { note(); seal(); }";
        let cfg2 = cfg_of(src2);
        let (ins2, _) = forward_state(&cfg2, true, |a: &Atom<'_>, s| {
            if has_call(a, "note") {
                true
            } else if has_call(a, "seal") {
                false
            } else {
                s
            }
        });
        assert!(!ins2[cfg2.exit]);
    }
}
