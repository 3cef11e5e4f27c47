//! Fixture-corpus self-test: proves the passes fire on seeded mutants
//! and stay silent on clean code.
//!
//! A fixture is a `.rs` file under the corpus directory carrying
//! directives in comments:
//!
//! * `//@ path: crates/core/src/engine/fake.rs` — the synthetic
//!   repo-relative path the file is analyzed as (drives scope
//!   classification). Mandatory, first directive.
//! * `//~ ERROR <rule> [<code>]` — an unallowed finding of `<rule>`
//!   (and, if given, that diagnostic code) is expected on this line.
//!
//! Each fixture is checked *strictly in both directions*: every
//! expectation must be matched by a finding, and every unallowed
//! finding must be matched by an expectation. `fire/` fixtures carry
//! markers; `clean/` fixtures carry none and must lint silent.

use std::path::{Path, PathBuf};

use super::lint_file;

/// One mismatch between a fixture's expectations and the findings.
#[derive(Debug, Clone)]
pub struct Mismatch {
    /// Fixture file (corpus-relative).
    pub fixture: String,
    /// Human-readable description.
    pub detail: String,
}

/// Corpus run summary.
#[derive(Debug, Clone, Default)]
pub struct SelfTest {
    /// Fixtures checked.
    pub fixtures: usize,
    /// Expectations matched.
    pub expected: usize,
    /// Every divergence; empty means the corpus passes.
    pub mismatches: Vec<Mismatch>,
}

/// An expectation parsed from a `//~ ERROR` marker.
struct Expect {
    line: usize,
    rule: String,
    code: Option<String>,
}

fn parse_directive<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let at = line.find(key)?;
    Some(line[at + key.len()..].trim())
}

fn parse_expectations(text: &str) -> Vec<Expect> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let mut rest = line;
        while let Some(at) = rest.find("//~ ERROR ") {
            rest = &rest[at + "//~ ERROR ".len()..];
            let mut words = rest.split_whitespace();
            let Some(rule) = words.next() else { break };
            let code = words
                .next()
                .filter(|w| w.starts_with("PLP-"))
                .map(str::to_string);
            out.push(Expect {
                line: i + 1,
                rule: rule.to_string(),
                code,
            });
        }
    }
    out
}

/// `.rs` files under `dir`, recursively, sorted.
fn fixture_files(dir: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for entry in std::fs::read_dir(&d)? {
            let path = entry?.path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Runs the corpus under `dir`.
pub fn run_corpus(dir: &Path) -> std::io::Result<SelfTest> {
    let mut st = SelfTest::default();
    let files = fixture_files(dir)?;
    for file in files {
        let rel = file
            .strip_prefix(dir)
            .unwrap_or(&file)
            .to_string_lossy()
            .replace('\\', "/");
        let text = std::fs::read_to_string(&file)?;
        st.fixtures += 1;
        let mut local: Vec<String> = Vec::new();
        let miss = |v: &mut Vec<String>, detail: String| v.push(detail);

        let Some(declared) = text.lines().find_map(|l| parse_directive(l, "//@ path:")) else {
            miss(&mut local, "missing `//@ path:` directive".to_string());
            finish(&mut st, &rel, local);
            continue;
        };
        let report = lint_file(declared, &text);
        let mut expects = parse_expectations(&text);
        st.expected += expects.len();
        for f in report.findings.iter().filter(|f| !f.allowed) {
            let hit = expects.iter().position(|e| {
                e.line == f.line
                    && e.rule == f.rule
                    && e.code.as_deref().is_none_or(|c| c == f.code)
            });
            match hit {
                Some(i) => {
                    expects.remove(i);
                }
                None => miss(
                    &mut local,
                    format!(
                        "unexpected finding at line {}: [{}/{}] {}",
                        f.line, f.rule, f.code, f.snippet
                    ),
                ),
            }
        }
        for e in expects {
            miss(
                &mut local,
                format!(
                    "expected [{}{}] at line {} did not fire",
                    e.rule,
                    e.code.map(|c| format!("/{c}")).unwrap_or_default(),
                    e.line
                ),
            );
        }
        finish(&mut st, &rel, local);
    }
    Ok(st)
}

/// Folds one fixture's mismatch descriptions into the summary.
fn finish(st: &mut SelfTest, fixture: &str, details: Vec<String>) {
    for detail in details {
        st.mismatches.push(Mismatch {
            fixture: fixture.to_string(),
            detail,
        });
    }
}
