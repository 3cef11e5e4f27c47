//! Per-function control-flow graphs over the parsed statement AST.
//!
//! Each function body becomes a graph of basic blocks holding *atoms*
//! — statement-level units carrying the extracted expression facts
//! (calls, assignments, closures, `?`). Edges are typed:
//!
//! * [`EdgeKind::Normal`] — ordinary fallthrough/branch.
//! * [`EdgeKind::Back`] — loop body end back to the loop header.
//! * [`EdgeKind::ZeroTrip`] — conditional-loop header straight to the
//!   code after the loop (the body ran zero times).
//! * [`EdgeKind::LoopBypass`] — loop body end to the code after the
//!   loop, carrying body-end state.
//!
//! The split lets analyses choose a loop stance: *optimistic* passes
//! (the persist-order obligations, where every real walk visits at
//! least one level) drop `ZeroTrip` edges and keep `LoopBypass`, so a
//! loop body is assumed to execute at least once; a *pessimistic*
//! stance keeps every edge, so a zero-trip loop is a real path.
//!
//! Every token of the function body is owned by exactly one block
//! (atoms record their token ranges; purely structural tokens —
//! braces, semicolons, `unsafe` — are the only permitted leftovers),
//! which the repo-wide token-partition test enforces.

use crate::syntax::{Block as AstBlock, ExprInfo, Function, LoopKind, Stmt, StmtKind};

/// Index into [`Cfg::blocks`].
pub type BlockId = usize;

/// Edge classification; see the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeKind {
    /// Ordinary control transfer.
    Normal,
    /// Loop body back to its header.
    Back,
    /// Conditional-loop header past the body (zero iterations).
    ZeroTrip,
    /// Loop body end past the loop (final iteration exits).
    LoopBypass,
}

/// What an atom is, for analyses that care about statement roles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AtomKind {
    /// Plain statement (let, expression, opaque).
    Plain,
    /// `if`/`match` condition or scrutinee.
    Cond,
    /// Loop header (cond/iterator; also the empty `loop` header).
    LoopHeader,
    /// `return` statement.
    Return,
    /// `break` statement.
    Break,
    /// `continue` statement.
    Continue,
}

/// A statement-level unit inside a basic block.
#[derive(Debug, Clone)]
pub struct Atom<'a> {
    /// Role.
    pub kind: AtomKind,
    /// Primary expression (init/cond/value/expression), if any.
    pub expr: Option<&'a ExprInfo>,
    /// 1-based source line.
    pub line: u32,
    /// Token ranges this atom owns (statement span minus child
    /// blocks), half-open.
    pub own: Vec<(usize, usize)>,
}

/// A basic block: atoms plus typed edges.
#[derive(Debug, Clone, Default)]
pub struct BasicBlock<'a> {
    /// Atoms in execution order.
    pub atoms: Vec<Atom<'a>>,
    /// Outgoing edges.
    pub succs: Vec<(BlockId, EdgeKind)>,
    /// Incoming edges.
    pub preds: Vec<(BlockId, EdgeKind)>,
}

/// One lowered loop, for passes that reason per-iteration.
#[derive(Debug, Clone, Copy)]
pub struct LoopInfo {
    /// Header block (continue target).
    pub header: BlockId,
    /// First body block.
    pub body_entry: BlockId,
    /// Block after the loop (break target).
    pub after: BlockId,
}

/// A function's control-flow graph.
#[derive(Debug, Clone)]
pub struct Cfg<'a> {
    /// All blocks; `entry` and `exit` are always present.
    pub blocks: Vec<BasicBlock<'a>>,
    /// Entry block (id 0).
    pub entry: BlockId,
    /// Exit block — every `return`, `?` and the tail fall into it.
    pub exit: BlockId,
    /// Every loop, outermost first in source order.
    pub loops: Vec<LoopInfo>,
}

impl<'a> Cfg<'a> {
    /// Successors of `b` under a loop stance: optimistic drops
    /// `ZeroTrip`, pessimistic drops `LoopBypass`.
    pub fn succs(&self, b: BlockId, optimistic: bool) -> impl Iterator<Item = BlockId> + '_ {
        self.blocks[b]
            .succs
            .iter()
            .filter(move |(_, k)| {
                if optimistic {
                    *k != EdgeKind::ZeroTrip
                } else {
                    *k != EdgeKind::LoopBypass
                }
            })
            .map(|&(t, _)| t)
    }

    /// All atoms with their addresses, in block order.
    pub fn atoms(&self) -> impl Iterator<Item = (BlockId, usize, &Atom<'a>)> {
        self.blocks
            .iter()
            .enumerate()
            .flat_map(|(b, blk)| blk.atoms.iter().enumerate().map(move |(i, a)| (b, i, a)))
    }
}

/// Builds the CFG for a function; `None` when it has no body.
pub fn build<'a>(f: &'a Function) -> Option<Cfg<'a>> {
    let body = f.body.as_ref()?;
    let mut b = Builder {
        blocks: vec![BasicBlock::default(), BasicBlock::default()],
        exit: 1,
        loops: Vec::new(),
        loop_infos: Vec::new(),
    };
    let end = b.block(body, 0);
    b.edge(end, b.exit, EdgeKind::Normal);
    Some(Cfg {
        blocks: b.blocks,
        entry: 0,
        exit: 1,
        loops: b.loop_infos,
    })
}

struct Builder<'a> {
    blocks: Vec<BasicBlock<'a>>,
    exit: BlockId,
    /// `(continue target, break target)` stack.
    loops: Vec<(BlockId, BlockId)>,
    loop_infos: Vec<LoopInfo>,
}

impl<'a> Builder<'a> {
    fn new_block(&mut self) -> BlockId {
        self.blocks.push(BasicBlock::default());
        self.blocks.len() - 1
    }

    fn edge(&mut self, from: BlockId, to: BlockId, kind: EdgeKind) {
        self.blocks[from].succs.push((to, kind));
        self.blocks[to].preds.push((from, kind));
    }

    fn push(&mut self, block: BlockId, atom: Atom<'a>) {
        self.blocks[block].atoms.push(atom);
    }

    /// Lowers an AST block starting in `cur`; returns the block where
    /// control continues afterwards.
    fn block(&mut self, b: &'a AstBlock, mut cur: BlockId) -> BlockId {
        for s in &b.stmts {
            cur = self.stmt(s, cur);
        }
        cur
    }

    /// Splits after an atom whose expression contains `?`: control
    /// either continues or diverges to exit.
    fn question_split(&mut self, cur: BlockId) -> BlockId {
        let next = self.new_block();
        self.edge(cur, self.exit, EdgeKind::Normal);
        self.edge(cur, next, EdgeKind::Normal);
        next
    }

    fn stmt(&mut self, s: &'a Stmt, cur: BlockId) -> BlockId {
        match &s.kind {
            StmtKind::Let { init, else_block } => {
                let children: Vec<(usize, usize)> = else_block.iter().map(|b| b.span).collect();
                self.push(
                    cur,
                    Atom {
                        kind: AtomKind::Plain,
                        expr: init.as_ref(),
                        line: s.line,
                        own: subtract(s.span, &children),
                    },
                );
                let mut cur = cur;
                if let Some(eb) = else_block {
                    // Divergent branch: built, but its end never joins
                    // the happy path (`let … else` must diverge).
                    let ee = self.new_block();
                    self.edge(cur, ee, EdgeKind::Normal);
                    let _ = self.block(eb, ee);
                    let cont = self.new_block();
                    self.edge(cur, cont, EdgeKind::Normal);
                    cur = cont;
                }
                if init.as_ref().is_some_and(|e| e.has_question) {
                    cur = self.question_split(cur);
                }
                cur
            }
            StmtKind::Expr { expr } => {
                self.push(
                    cur,
                    Atom {
                        kind: AtomKind::Plain,
                        expr: Some(expr),
                        line: s.line,
                        own: vec![s.span],
                    },
                );
                if expr.has_question {
                    self.question_split(cur)
                } else {
                    cur
                }
            }
            StmtKind::If {
                cond,
                then_b,
                else_b,
            } => {
                let mut children = vec![then_b.span];
                children.extend(else_b.iter().map(|b| b.span));
                self.push(
                    cur,
                    Atom {
                        kind: AtomKind::Cond,
                        expr: Some(cond),
                        line: s.line,
                        own: subtract(s.span, &children),
                    },
                );
                if cond.has_question {
                    self.edge(cur, self.exit, EdgeKind::Normal);
                }
                let join = self.new_block();
                let te = self.new_block();
                self.edge(cur, te, EdgeKind::Normal);
                let tend = self.block(then_b, te);
                self.edge(tend, join, EdgeKind::Normal);
                if let Some(eb) = else_b {
                    let ee = self.new_block();
                    self.edge(cur, ee, EdgeKind::Normal);
                    let eend = self.block(eb, ee);
                    self.edge(eend, join, EdgeKind::Normal);
                } else {
                    self.edge(cur, join, EdgeKind::Normal);
                }
                join
            }
            StmtKind::Match { scrut, arms } => {
                let children: Vec<(usize, usize)> = arms.iter().map(|a| a.body.span).collect();
                self.push(
                    cur,
                    Atom {
                        kind: AtomKind::Cond,
                        expr: Some(scrut),
                        line: s.line,
                        own: subtract(s.span, &children),
                    },
                );
                if scrut.has_question {
                    self.edge(cur, self.exit, EdgeKind::Normal);
                }
                let join = self.new_block();
                if arms.is_empty() {
                    self.edge(cur, join, EdgeKind::Normal);
                }
                for arm in arms {
                    let ae = self.new_block();
                    self.edge(cur, ae, EdgeKind::Normal);
                    let aend = self.block(&arm.body, ae);
                    self.edge(aend, join, EdgeKind::Normal);
                }
                join
            }
            StmtKind::Loop { kind, header, body } => {
                let hdr = self.new_block();
                self.edge(cur, hdr, EdgeKind::Normal);
                self.push(
                    hdr,
                    Atom {
                        kind: AtomKind::LoopHeader,
                        expr: header.as_ref(),
                        line: s.line,
                        own: subtract(s.span, &[body.span]),
                    },
                );
                if header.as_ref().is_some_and(|e| e.has_question) {
                    self.edge(hdr, self.exit, EdgeKind::Normal);
                }
                let after = self.new_block();
                let be = self.new_block();
                self.edge(hdr, be, EdgeKind::Normal);
                self.loop_infos.push(LoopInfo {
                    header: hdr,
                    body_entry: be,
                    after,
                });
                self.loops.push((hdr, after));
                let bend = self.block(body, be);
                self.loops.pop();
                self.edge(bend, hdr, EdgeKind::Back);
                if *kind != LoopKind::Infinite {
                    self.edge(hdr, after, EdgeKind::ZeroTrip);
                    self.edge(bend, after, EdgeKind::LoopBypass);
                }
                after
            }
            StmtKind::Return { value } => {
                self.push(
                    cur,
                    Atom {
                        kind: AtomKind::Return,
                        expr: value.as_ref(),
                        line: s.line,
                        own: vec![s.span],
                    },
                );
                self.edge(cur, self.exit, EdgeKind::Normal);
                self.new_block()
            }
            StmtKind::Break => {
                self.push(
                    cur,
                    Atom {
                        kind: AtomKind::Break,
                        expr: None,
                        line: s.line,
                        own: vec![s.span],
                    },
                );
                let target = self.loops.last().map(|&(_, b)| b).unwrap_or(self.exit);
                self.edge(cur, target, EdgeKind::Normal);
                self.new_block()
            }
            StmtKind::Continue => {
                self.push(
                    cur,
                    Atom {
                        kind: AtomKind::Continue,
                        expr: None,
                        line: s.line,
                        own: vec![s.span],
                    },
                );
                let target = self.loops.last().map(|&(h, _)| h).unwrap_or(self.exit);
                self.edge(cur, target, EdgeKind::Back);
                self.new_block()
            }
            StmtKind::BareBlock { block } => self.block(block, cur),
            StmtKind::Opaque => {
                self.push(
                    cur,
                    Atom {
                        kind: AtomKind::Plain,
                        expr: None,
                        line: s.line,
                        own: vec![s.span],
                    },
                );
                cur
            }
        }
    }
}

/// Subtracts sorted, non-overlapping child ranges from `span`.
fn subtract(span: (usize, usize), children: &[(usize, usize)]) -> Vec<(usize, usize)> {
    let mut sorted: Vec<(usize, usize)> = children.to_vec();
    sorted.sort_unstable();
    let mut out = Vec::new();
    let mut lo = span.0;
    for &(a, b) in &sorted {
        if a > lo {
            out.push((lo, a.min(span.1)));
        }
        lo = lo.max(b);
    }
    if lo < span.1 {
        out.push((lo, span.1));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::syntax::{lex, parse};

    fn cfg_of(src: &str) -> Cfg<'_> {
        // Leak for test simplicity: tie the AST's lifetime to 'static.
        let ts = Box::leak(Box::new(lex(src)));
        let parsed = Box::leak(Box::new(parse(src, ts)));
        build(&parsed.functions[0]).expect("body")
    }

    #[test]
    fn straight_line_is_three_blocks() {
        let cfg = cfg_of("fn f() { a(); b(); }");
        // entry (with both atoms) + exit, plus nothing else.
        assert_eq!(cfg.blocks[cfg.entry].atoms.len(), 2);
        assert_eq!(
            cfg.blocks[cfg.entry].succs,
            vec![(cfg.exit, EdgeKind::Normal)]
        );
    }

    #[test]
    fn early_return_edges_to_exit() {
        let cfg = cfg_of("fn f(x: u32) { if x > 0 { return; } a(); }");
        let returns: Vec<_> = cfg
            .atoms()
            .filter(|(_, _, a)| a.kind == AtomKind::Return)
            .collect();
        assert_eq!(returns.len(), 1);
        let (b, _, _) = returns[0];
        assert!(cfg.blocks[b].succs.contains(&(cfg.exit, EdgeKind::Normal)));
    }

    #[test]
    fn conditional_loop_has_all_edge_kinds() {
        let cfg = cfg_of("fn f(n: u32) { for i in 0..n { body(i); } after(); }");
        let kinds: Vec<EdgeKind> = cfg
            .blocks
            .iter()
            .flat_map(|b| b.succs.iter().map(|&(_, k)| k))
            .collect();
        assert!(kinds.contains(&EdgeKind::Back));
        assert!(kinds.contains(&EdgeKind::ZeroTrip));
        assert!(kinds.contains(&EdgeKind::LoopBypass));
    }

    #[test]
    fn infinite_loop_reaches_after_only_via_break() {
        let cfg = cfg_of("fn f() { loop { if done() { break; } step(); } after(); }");
        assert!(!cfg
            .blocks
            .iter()
            .flat_map(|b| b.succs.iter())
            .any(|&(_, k)| k == EdgeKind::ZeroTrip || k == EdgeKind::LoopBypass));
        // `after()` is still reachable from entry.
        let after = cfg
            .atoms()
            .find(|(_, _, a)| {
                a.expr
                    .is_some_and(|e| e.calls.iter().any(|c| c.name == "after"))
            })
            .map(|(b, _, _)| b)
            .expect("after block");
        let mut seen = vec![false; cfg.blocks.len()];
        let mut stack = vec![cfg.entry];
        while let Some(b) = stack.pop() {
            if std::mem::replace(&mut seen[b], true) {
                continue;
            }
            stack.extend(cfg.succs(b, false));
        }
        assert!(seen[after]);
    }

    #[test]
    fn question_mark_splits_to_exit() {
        let cfg = cfg_of("fn f() -> Result<(), E> { step()?; after(); Ok(()) }");
        let q = cfg
            .atoms()
            .find(|(_, _, a)| a.expr.is_some_and(|e| e.has_question))
            .map(|(b, _, _)| b)
            .expect("question atom");
        assert!(cfg.blocks[q].succs.contains(&(cfg.exit, EdgeKind::Normal)));
        assert_eq!(cfg.blocks[q].succs.len(), 2);
    }

    #[test]
    fn match_arms_fan_out_and_join() {
        let cfg = cfg_of("fn f(x: u32) { match x { 0 => a(), 1 => { b(); } _ => c(), } d(); }");
        let scrut = cfg
            .atoms()
            .find(|(_, _, a)| a.kind == AtomKind::Cond)
            .map(|(b, _, _)| b)
            .expect("scrutinee");
        assert_eq!(cfg.blocks[scrut].succs.len(), 3);
    }

    #[test]
    fn continue_edges_back_to_header() {
        let cfg = cfg_of("fn f(n: u32) { while n > 0 { if skip() { continue; } work(); } }");
        let header = cfg
            .atoms()
            .find(|(_, _, a)| a.kind == AtomKind::LoopHeader)
            .map(|(b, _, _)| b)
            .expect("header");
        let cont = cfg
            .atoms()
            .find(|(_, _, a)| a.kind == AtomKind::Continue)
            .map(|(b, _, _)| b)
            .expect("continue");
        assert!(cfg.blocks[cont].succs.contains(&(header, EdgeKind::Back)));
    }

    #[test]
    fn atom_token_ranges_are_disjoint() {
        let cfg = cfg_of(
            "fn f(x: u32) { let y = x + 1; if y > 2 { early(); } else { other(); } \
             for i in 0..y { step(i); } match y { 0 => a(), _ => b(), } tail() }",
        );
        let mut ranges: Vec<(usize, usize)> = cfg
            .atoms()
            .flat_map(|(_, _, a)| a.own.iter().copied())
            .collect();
        ranges.sort_unstable();
        for w in ranges.windows(2) {
            assert!(w[0].1 <= w[1].0, "overlap: {:?} vs {:?}", w[0], w[1]);
        }
    }
}
