//! The lint pass: file discovery, the two-phase analysis pipeline
//! (lexical rules, then the CFG/dataflow semantic passes, then the
//! stale-allow audit over their merged findings), and the aggregate
//! report the `plp-lint` binary prints and serializes.

pub mod rules;
pub mod scan;
pub mod selftest;

use crate::passes::{self, Universe};
use rules::Finding;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// One linted file's results.
#[derive(Debug, Clone)]
pub struct FileReport {
    /// Repo-relative path with `/` separators.
    pub path: String,
    /// Every rule hit, allowed ones included.
    pub findings: Vec<Finding>,
    /// Allow directives present in the file.
    pub allow_directives: usize,
    /// Functions the parser recovered.
    pub functions: usize,
    /// Basic blocks across those functions' CFGs.
    pub cfg_blocks: usize,
}

/// Runs the full pipeline over a set of `(path, text)` units. The
/// whole set is one analysis universe: cross-file call resolution sees
/// every unit, so passing single files weakens (but never breaks) the
/// interprocedural summaries.
pub fn lint_units(inputs: Vec<(String, String)>) -> Vec<FileReport> {
    let u = Universe::build(inputs);
    let mut reports = Vec::new();
    for fi in 0..u.files.len() {
        let unit = &u.files[fi];
        let mut findings = rules::run(&unit.path, &unit.model, unit.scope);
        findings.extend(passes::run_semantic(&u, fi));
        let mut stale = Vec::new();
        passes::unused_allow::run(&u, fi, &findings, &mut stale);
        findings.extend(stale);
        findings.sort_by(|a, b| (a.line, a.col, a.code).cmp(&(b.line, b.col, b.code)));
        let cfg_blocks = unit
            .parsed
            .functions
            .iter()
            .filter_map(crate::cfg::build)
            .map(|g| g.blocks.len())
            .sum();
        reports.push(FileReport {
            path: unit.path.clone(),
            findings,
            allow_directives: unit.model.allow_directives,
            functions: unit.parsed.functions.len(),
            cfg_blocks,
        });
    }
    reports
}

/// Lints one file's text as `path` (repo-relative) — a single-file
/// universe; see [`lint_units`].
pub fn lint_file(path: &str, text: &str) -> FileReport {
    let mut reports = lint_units(vec![(path.to_string(), text.to_string())]);
    reports.remove(0)
}

/// All `.rs` files under `root/crates`, repo-relative, sorted — the
/// deterministic lint universe. `vendor/` (offline dependency stubs),
/// build output, and the lint's own fixture corpus (deliberately
/// violating sources under `tests/fixtures/`) are out of scope by
/// construction.
pub fn workspace_sources(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let mut stack = vec![root.join("crates")];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir)? {
            let path = entry?.path();
            if path.is_dir() {
                let skip = path.file_name().is_some_and(|n| n == "target")
                    || path.to_string_lossy().replace('\\', "/").ends_with("tests/fixtures");
                if skip {
                    continue;
                }
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    Ok(out)
}

/// The whole pass over a workspace root.
pub fn lint_workspace(root: &Path) -> std::io::Result<Vec<FileReport>> {
    let mut inputs = Vec::new();
    for path in workspace_sources(root)? {
        let text = std::fs::read_to_string(&path)?;
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        inputs.push((rel, text));
    }
    Ok(lint_units(inputs))
}

/// Aggregate numbers for the summary line and `analysis.json`.
#[derive(Debug, Clone, Default)]
pub struct Totals {
    /// Files linted.
    pub files: usize,
    /// Functions analyzed (parser-recovered).
    pub functions: usize,
    /// CFG basic blocks built.
    pub cfg_blocks: usize,
    /// Allow directives across the workspace.
    pub allow_directives: usize,
    /// Per-rule `(total hits, allowed hits)`.
    pub per_rule: BTreeMap<&'static str, (usize, usize)>,
    /// Hits not covered by a reasoned allow — the pass fails if any.
    pub violations: Vec<Finding>,
}

/// Folds file reports into [`Totals`].
pub fn totals(reports: &[FileReport]) -> Totals {
    let mut t = Totals::default();
    for rule in rules::RULES {
        t.per_rule.insert(rule, (0, 0));
    }
    for r in reports {
        t.files += 1;
        t.functions += r.functions;
        t.cfg_blocks += r.cfg_blocks;
        t.allow_directives += r.allow_directives;
        for f in &r.findings {
            let e = t.per_rule.entry(f.rule).or_insert((0, 0));
            e.0 += 1;
            if f.allowed {
                e.1 += 1;
            } else {
                t.violations.push(f.clone());
            }
        }
    }
    t
}

/// Renders `analysis.json` (schema 2): analysis depth counters, rule
/// hit counts, allow-list size, and any violations with their stable
/// diagnostic codes, all deterministically ordered. Hand-rolled writer
/// — the vendored serde stubs have no serializer, and the schema is
/// tiny.
pub fn analysis_json(t: &Totals) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"schema\": 2,\n");
    out.push_str(&format!("  \"files_scanned\": {},\n", t.files));
    out.push_str(&format!("  \"functions_analyzed\": {},\n", t.functions));
    out.push_str(&format!("  \"cfg_blocks\": {},\n", t.cfg_blocks));
    out.push_str(&format!(
        "  \"allow_directives\": {},\n",
        t.allow_directives
    ));
    out.push_str("  \"rules\": {\n");
    let rules: Vec<String> = t
        .per_rule
        .iter()
        .map(|(rule, (hits, allowed))| {
            format!(
                "    {}: {{\"hits\": {hits}, \"allowed\": {allowed}, \"violations\": {}}}",
                json_string(rule),
                hits - allowed
            )
        })
        .collect();
    out.push_str(&rules.join(",\n"));
    out.push_str("\n  },\n");
    out.push_str("  \"violations\": [\n");
    let violations: Vec<String> = t
        .violations
        .iter()
        .map(|f| {
            format!(
                "    {{\"rule\": {}, \"code\": {}, \"path\": {}, \"line\": {}, \"col\": {}, \"snippet\": {}}}",
                json_string(f.rule),
                json_string(f.code),
                json_string(&f.path),
                f.line,
                f.col,
                json_string(&f.snippet)
            )
        })
        .collect();
    out.push_str(&violations.join(",\n"));
    if !violations.is_empty() {
        out.push('\n');
    }
    out.push_str("  ]\n}\n");
    out
}

fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_split_allowed_from_violations() {
        let report = lint_file(
            "crates/core/src/x.rs",
            concat!(
                "// lint: allow(no-node-hashmap) demo\n",
                "fn f(a: HashMap<NodeLabel, u64>) {}\n",
                "fn g(b: HashMap<NodeLabel, u64>) {}\n",
            ),
        );
        let t = totals(&[report]);
        assert_eq!(t.per_rule[rules::NO_NODE_HASHMAP], (2, 1));
        assert_eq!(t.violations.len(), 1);
        assert_eq!(t.allow_directives, 1);
    }

    #[test]
    fn analysis_json_is_well_formed_and_stable() {
        let t = totals(&[lint_file(
            "crates/core/src/x.rs",
            "fn f(a: HashMap<NodeLabel, u64>) {}\n",
        )]);
        let a = analysis_json(&t);
        let b = analysis_json(&t);
        assert_eq!(a, b);
        assert!(a.contains("\"schema\": 2"));
        assert!(a.contains("\"files_scanned\": 1"));
        assert!(a.contains("\"functions_analyzed\": 1"));
        assert!(a.contains("\"no-node-hashmap\": {\"hits\": 1, \"allowed\": 0, \"violations\": 1}"));
        assert!(a.contains("\"code\": \"PLP-L005\""));
        assert!(a.contains("\"snippet\": \"Map<NodeLabel\""));
        // Balanced braces/brackets — a cheap well-formedness check
        // given there is no JSON parser in the dependency set.
        assert_eq!(a.matches('{').count(), a.matches('}').count());
        assert_eq!(a.matches('[').count(), a.matches(']').count());
    }

    #[test]
    fn clean_file_produces_no_violations() {
        let t = totals(&[lint_file(
            "crates/core/src/x.rs",
            "fn f() -> Result<u8, E> { value.try_into().map_err(E::from) }\n",
        )]);
        assert!(t.violations.is_empty());
    }

    #[test]
    fn report_counts_functions_and_blocks() {
        let r = lint_file(
            "crates/trace/src/x.rs",
            "fn f(c: bool) { if c { a(); } }\nfn g() {}\n",
        );
        assert_eq!(r.functions, 2);
        assert!(r.cfg_blocks >= 6, "if-statement fans out: {}", r.cfg_blocks);
    }

    #[test]
    fn stale_allow_is_a_violation_used_allow_is_not() {
        let r = lint_file(
            "crates/core/src/x.rs",
            concat!(
                "// lint: allow(no-node-hashmap) real suppression\n",
                "fn f(a: HashMap<NodeLabel, u64>) {}\n",
                "// lint: allow(no-node-hashmap) nothing here anymore\n",
                "fn g() { clean(); }\n",
                "// lint: allow(no-panic-lib) a retired rule, clippy's now\n",
                "fn h() {}\n",
            ),
        );
        let stale: Vec<_> = r
            .findings
            .iter()
            .filter(|f| f.rule == rules::UNUSED_ALLOW)
            .collect();
        assert_eq!(stale.len(), 2, "{stale:?}");
        assert_eq!(stale[0].code, "PLP-A002");
        assert_eq!(stale[0].line, 3);
        assert_eq!(stale[1].code, "PLP-A003");
        assert_eq!(stale[1].line, 5);
    }
}
