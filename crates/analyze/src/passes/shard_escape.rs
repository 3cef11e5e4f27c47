//! Shard-handle escape analysis (PLP-S00x, rule `no-cross-shard-state`).
//!
//! The lexical rule catches *textual* uses of the per-shard stepping
//! API outside the coordinator. This pass catches the indirect leaks a
//! file allowlist cannot see: code handing the *capability* out —
//!
//! * **PLP-S002** — a function returning a mutable reference to a
//!   shard handle type (any impl owner of the stepping API, derived
//!   from the definitions, not hard-coded).
//! * **PLP-S003** — a struct field storing a mutable shard-handle
//!   reference, parking the capability where any holder can step
//!   shards later.
//! * **PLP-S004** — coordinator code letting a closure that performs
//!   stepping calls escape (returned, produced as the tail value, or
//!   stored into `self`); the closure *is* the stepping capability.
//!
//! S002/S003 apply to every library file — the coordinator included:
//! its privilege is to step shards, not to re-export that right.
//! S004 is scoped to coordinator files; elsewhere the stepping call
//! inside the closure already trips the lexical rule.

use crate::lint::rules::{Finding, NO_CROSS_SHARD_STATE};
use crate::passes::{emit, Universe};
use crate::syntax::{ExprInfo, StmtKind};

/// The per-shard stepping/seal API names (mirrors the lexical rule).
const STEP_API: [&str; 5] = [
    "step_store",
    "step_load",
    "enable_seal_log",
    "drain_seals_into",
    "last_completion_cycle",
];

/// Whether `ty` mentions a mutable reference to `handle` (as a whole
/// word: `&mut Simulation`, `&'a mut Simulation`, …).
fn mentions_mut_handle(ty: &str, handle: &str) -> bool {
    let needle = format!("mut {handle}");
    let mut rest = ty;
    while let Some(at) = rest.find(&needle) {
        let after = &rest[at + needle.len()..];
        let word_end = !after
            .chars()
            .next()
            .is_some_and(|c| c.is_alphanumeric() || c == '_');
        if word_end {
            return true;
        }
        rest = &rest[at + needle.len()..];
    }
    false
}

/// Whether `e` contains a stepping call made from inside a closure.
fn closure_steps(e: &ExprInfo) -> bool {
    !e.closures.is_empty()
        && e.calls
            .iter()
            .any(|c| c.in_closure && STEP_API.contains(&c.name.as_str()))
}

/// Runs the shard-escape pass over one file.
pub fn run(u: &Universe, file: usize, out: &mut Vec<Finding>) {
    let unit = &u.files[file];
    if !unit.scope.library {
        return;
    }
    let handles = u.owners_of(&STEP_API);
    if handles.is_empty() {
        return;
    }

    for f in &unit.parsed.functions {
        if u.in_test(file, f.line) {
            continue;
        }
        if let Some(rt) = &f.ret_ty {
            if let Some(h) = handles.iter().find(|h| mentions_mut_handle(rt, h)) {
                emit(
                    u,
                    file,
                    NO_CROSS_SHARD_STATE,
                    "PLP-S002",
                    f.line,
                    0,
                    &format!("fn {} returns mutable access to shard handle {h}", f.name),
                    out,
                );
            }
        }
    }

    for s in &unit.parsed.structs {
        if u.in_test(file, s.line) {
            continue;
        }
        for (fname, fty) in &s.fields {
            if let Some(h) = handles.iter().find(|h| mentions_mut_handle(fty, h)) {
                emit(
                    u,
                    file,
                    NO_CROSS_SHARD_STATE,
                    "PLP-S003",
                    s.line,
                    0,
                    &format!("field {fname} stores mutable access to shard handle {h}"),
                    out,
                );
            }
        }
    }

    if !unit.scope.coordinator {
        return;
    }
    for f in &unit.parsed.functions {
        if u.in_test(file, f.line) {
            continue;
        }
        let Some(body) = &f.body else { continue };
        let last = body.stmts.len().saturating_sub(1);
        for (i, st) in body.stmts.iter().enumerate() {
            let escaping: Option<&ExprInfo> = match &st.kind {
                StmtKind::Return { value } => value.as_ref(),
                // Tail value of the function body.
                StmtKind::Expr { expr } if i == last => Some(expr),
                // Stored into engine/coordinator state.
                StmtKind::Expr { expr }
                    if expr.assign.as_ref().is_some_and(|a| a.root == "self") =>
                {
                    Some(expr)
                }
                _ => None,
            };
            if let Some(e) = escaping {
                if closure_steps(e) {
                    emit(
                        u,
                        file,
                        NO_CROSS_SHARD_STATE,
                        "PLP-S004",
                        e.line,
                        0,
                        "a closure performing shard stepping escapes the coordinator",
                        out,
                    );
                }
            }
        }
    }
}
