//! Stale and malformed allow directives (PLP-A002, PLP-A003).
//!
//! The allow machinery only works if directives stay honest: a
//! `// lint: allow(<rule>)` that no longer suppresses any finding is
//! dead weight that silently licenses a *future* violation on that
//! line, and a directive naming an unknown rule never suppressed
//! anything (usually a typo that left the original finding live).
//!
//! This pass runs *after* the lexical rules and semantic passes, over
//! their merged findings: a directive at (0-based) line `d` is used if
//! some finding of its rule sits on line `d` or `d + 1` (the same
//! coverage [`SourceModel::allows`] grants). Unused → PLP-A002;
//! unknown rule → PLP-A003.
//!
//! [`SourceModel::allows`]: crate::lint::scan::SourceModel::allows

use crate::lint::rules::{Finding, ALLOW_REASON, RULES, UNUSED_ALLOW};
use crate::lint::scan::parse_allows;
use crate::passes::{emit, Universe};

/// Runs the unused-allow pass over one file, given every finding the
/// other layers produced for it.
pub fn run(u: &Universe, file: usize, findings: &[Finding], out: &mut Vec<Finding>) {
    let unit = &u.files[file];
    for (d, line) in unit.model.lines.iter().enumerate() {
        for dir in parse_allows(&line.comment) {
            if dir.rule == ALLOW_REASON {
                // Suppressing the meta rule would hide reasonless
                // directives; treat as unknown.
                emit(
                    u,
                    file,
                    UNUSED_ALLOW,
                    "PLP-A003",
                    (d + 1) as u32,
                    0,
                    &format!("allow({}) targets the meta rule", dir.rule),
                    out,
                );
                continue;
            }
            if !RULES.contains(&dir.rule.as_str()) {
                emit(
                    u,
                    file,
                    UNUSED_ALLOW,
                    "PLP-A003",
                    (d + 1) as u32,
                    0,
                    &format!("allow({}) names an unknown rule", dir.rule),
                    out,
                );
                continue;
            }
            let used = findings
                .iter()
                .any(|f| f.rule == dir.rule && (f.line == d + 1 || f.line == d + 2));
            if !used {
                emit(
                    u,
                    file,
                    UNUSED_ALLOW,
                    "PLP-A002",
                    (d + 1) as u32,
                    0,
                    &format!("allow({}) suppresses nothing; delete it", dir.rule),
                    out,
                );
            }
        }
    }
}
