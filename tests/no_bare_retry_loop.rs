//! Library retry loops take their schedule from
//! `plp_core::retry::RetryPolicy`: a loop header in library code that
//! mentions retrying, attempts or backoff, and no policy, fails here.

use std::path::Path;

/// Whether a code line is a loop header that counts retries or backs
/// off by hand. "olicy" covers both `policy.max_retries` and
/// `RetryPolicy`.
fn is_bare_retry_loop(code: &str) -> bool {
    let header = code.contains("while ")
        || (code.contains("for ") && code.contains(" in "))
        || code.trim_start().starts_with("loop");
    let lowered = code.to_lowercase();
    let retries = ["retry", "retries", "attempt", "backoff"];
    header && retries.iter().any(|w| lowered.contains(w)) && !lowered.contains("olicy")
}

/// Scans every `.rs` file under `dir` (`bin/` directories excluded) up
/// to its first `#[cfg(test)]`; returns how many files it read.
fn scan(dir: &Path, bare: &mut Vec<String>) -> usize {
    let mut files = 0;
    for entry in std::fs::read_dir(dir).expect("source directory is readable") {
        let path = entry.expect("directory entry").path();
        if path.is_dir() && !path.ends_with("bin") {
            files += scan(&path, bare);
        } else if path.extension().is_some_and(|e| e == "rs") {
            files += 1;
            let text = std::fs::read_to_string(&path).expect("source is readable");
            let library = text
                .lines()
                .take_while(|l| !l.trim_start().starts_with("#[cfg(test)]"));
            for (n, line) in library.enumerate() {
                if is_bare_retry_loop(line.split("//").next().unwrap_or("")) {
                    bare.push(format!("{}:{}: {}", path.display(), n + 1, line.trim()));
                }
            }
        }
    }
    files
}

#[test]
fn library_retry_loops_take_a_policy() {
    assert!(is_bare_retry_loop(
        "    while !dev.flush() && attempt < 3 {"
    ));
    assert!(!is_bare_retry_loop(
        "    for attempt in 0..=policy.max_retries {"
    ));
    let (mut bare, mut files) = (Vec::new(), 0);
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
    for krate in std::fs::read_dir(crates).expect("crates/ is readable") {
        let src = krate.expect("crates/ entry").path().join("src");
        if src.is_dir() {
            files += scan(&src, &mut bare);
        }
    }
    assert!(files > 50, "found only {files} library sources");
    assert!(bare.is_empty(), "bare retry loops:\n{}", bare.join("\n"));
}
