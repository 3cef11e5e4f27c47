//! The fixture corpus is the lint's proof obligation: `fire/`
//! mutants must produce exactly their `//~ ERROR` markers, `clean/`
//! fixtures must be silent, strictly in both directions.

use std::collections::BTreeSet;
use std::path::Path;

fn corpus_dir() -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

#[test]
fn corpus_matches_exactly() {
    let st = plp_analyze::lint::selftest::run_corpus(&corpus_dir()).expect("corpus readable");
    assert!(st.fixtures >= 17, "corpus shrank: {} fixtures", st.fixtures);
    assert!(st.expected >= 12, "markers shrank: {}", st.expected);
    let msgs: Vec<String> = st
        .mismatches
        .iter()
        .map(|m| format!("{}: {}", m.fixture, m.detail))
        .collect();
    assert!(msgs.is_empty(), "fixture mismatches:\n{}", msgs.join("\n"));
}

#[test]
fn every_semantic_code_has_a_fire_fixture() {
    let dir = corpus_dir().join("fire");
    let mut codes = BTreeSet::new();
    for entry in std::fs::read_dir(&dir).unwrap() {
        let text = std::fs::read_to_string(entry.unwrap().path()).unwrap();
        for line in text.lines() {
            if let Some(at) = line.find("//~ ERROR ") {
                if let Some(code) = line[at..].split_whitespace().nth(3) {
                    codes.insert(code.to_string());
                }
            }
        }
    }
    for want in [
        "PLP-E001", "PLP-E002", "PLP-E003", "PLP-F001", "PLP-A002", "PLP-A003", "PLP-L002",
        "PLP-L004", "PLP-L005",
    ] {
        assert!(codes.contains(want), "no fire fixture exercises {want}");
    }
}

#[test]
fn clean_fixtures_carry_no_markers() {
    let dir = corpus_dir().join("clean");
    for entry in std::fs::read_dir(&dir).unwrap() {
        let path = entry.unwrap().path();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(
            !text.contains("//~ ERROR"),
            "{}: clean fixtures must expect nothing",
            path.display()
        );
    }
}
