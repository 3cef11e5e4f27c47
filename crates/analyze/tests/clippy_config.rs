//! Pins the clippy half of the workspace lint gate.
//!
//! The generic source rules are clippy's, not `plp-lint`'s: the panic
//! family and `exit` in every library, the narrowing-cast lints in
//! plp-core and plp-bmt, and the wall-clock and `Child::kill` bans of
//! the root `clippy.toml`. An `#[expect(clippy::…)]` switches its lint
//! on locally, so a crate root that stopped enabling a lint would keep
//! every existing expectation fulfilled and silently stop checking new
//! code. These tests fail instead.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// Enabled in every library crate root.
const LIBRARY_LINTS: [&str; 6] = [
    "unwrap_used",
    "expect_used",
    "panic",
    "unimplemented",
    "todo",
    "exit",
];

/// Also enabled in the address-math crates.
const CAST_LINTS: [&str; 3] = [
    "cast_possible_truncation",
    "cast_sign_loss",
    "cast_possible_wrap",
];

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Source lines with whole-line comments dropped, so a lint named in
/// a doc comment does not count.
fn code_lines(src: &str) -> String {
    src.lines()
        .filter(|l| !l.trim_start().starts_with("//"))
        .collect::<Vec<_>>()
        .join("\n")
}

/// Every `clippy::name` inside the crate-level attributes opening with
/// one of `heads`.
fn crate_lints(src: &str, heads: &[&str]) -> BTreeSet<String> {
    let code = code_lines(src);
    let mut out = BTreeSet::new();
    for head in heads {
        let mut rest = code.as_str();
        while let Some(at) = rest.find(head) {
            rest = &rest[at + head.len()..];
            let body = &rest[..rest.find(")]").unwrap_or(rest.len())];
            for item in body.split(',') {
                if let Some(name) = item.trim().strip_prefix("clippy::") {
                    out.insert(name.to_string());
                }
            }
        }
    }
    out
}

/// Every workspace crate with a library target, by directory name.
fn library_crates() -> Vec<String> {
    let crates = repo_root().join("crates");
    let mut out: Vec<String> = std::fs::read_dir(&crates)
        .expect("crates/ is readable")
        .map(|e| e.expect("crates/ entry").file_name())
        .filter(|name| crates.join(name).join("src/lib.rs").is_file())
        .map(|name| name.to_string_lossy().into_owned())
        .collect();
    out.sort();
    out
}

#[test]
fn every_library_root_enables_its_lints() {
    let crates = library_crates();
    assert_eq!(
        crates,
        ["analyze", "bench", "bmt", "cache", "core", "crypto", "events", "nvm", "trace"],
        "a library crate appeared or vanished: give it the crate-root lints"
    );
    for name in &crates {
        let path = repo_root().join("crates").join(name).join("src/lib.rs");
        let src = std::fs::read_to_string(&path).expect("crate root is readable");
        let on = crate_lints(&src, &["#![warn(", "#![deny(", "#![forbid("]);
        let off = crate_lints(&src, &["#![allow(", "#![expect("]);
        let mut want: Vec<&str> = LIBRARY_LINTS.to_vec();
        if name == "core" || name == "bmt" {
            want.extend(CAST_LINTS);
        }
        for lint in want {
            assert!(
                on.contains(lint) && !off.contains(lint),
                "crates/{name}/src/lib.rs must enable clippy::{lint}"
            );
        }
    }
}

/// The `path = "…"` entries of a top-level `clippy.toml` array.
fn disallowed(toml: &str, key: &str) -> BTreeSet<String> {
    let code: String = toml
        .lines()
        .filter(|l| !l.trim_start().starts_with('#'))
        .collect::<Vec<_>>()
        .join("\n");
    let Some(at) = code.find(&format!("{key} = [")) else {
        return BTreeSet::new();
    };
    let rest = &code[at..];
    let array = &rest[..rest.find("\n]").unwrap_or(rest.len())];
    array
        .split("path = \"")
        .skip(1)
        .filter_map(|s| s.split('"').next())
        .map(str::to_string)
        .collect()
}

#[test]
fn clippy_toml_bans_wall_clocks_and_raw_kills() {
    let toml = std::fs::read_to_string(repo_root().join("clippy.toml")).expect("clippy.toml");
    let methods = disallowed(&toml, "disallowed-methods");
    for path in [
        "std::time::Instant::now",
        "std::time::SystemTime::now",
        "std::process::Child::kill",
    ] {
        assert!(methods.contains(path), "clippy.toml must disallow {path}");
    }
    let types = disallowed(&toml, "disallowed-types");
    assert!(
        types.contains("std::time::SystemTime"),
        "clippy.toml must disallow std::time::SystemTime"
    );
}

#[test]
fn lint_parsers_see_what_they_should() {
    let root = "//! `#![warn(clippy::todo)]` in a doc comment\n\
                #![warn(missing_docs)]\n\
                #![warn(\n    clippy::panic,\n    clippy::exit\n)]\n\
                #![allow(clippy::exit)]\n";
    let on = crate_lints(root, &["#![warn("]);
    assert_eq!(on.into_iter().collect::<Vec<_>>(), ["exit", "panic"]);
    assert!(crate_lints(root, &["#![allow("]).contains("exit"));

    let toml = "# disallowed-methods = [ { path = \"a::commented\" } ]\n\
                disallowed-methods = [\n    { path = \"a::b\", reason = \"r\" },\n]\n\
                disallowed-types = [\n    { path = \"c::D\" },\n]\n";
    let methods = disallowed(toml, "disallowed-methods");
    assert_eq!(methods.into_iter().collect::<Vec<_>>(), ["a::b"]);
    let types = disallowed(toml, "disallowed-types");
    assert_eq!(types.into_iter().collect::<Vec<_>>(), ["c::D"]);
}
