//@ path: crates/bmt/src/fx_lexer_ok.rs
//! Clean lexer fixture: violation-shaped text appears only inside
//! literals and comments, so nothing may fire — multi-hash and
//! multi-line raw strings, byte strings, char escapes, nested block
//! comments.

pub fn literals() -> usize {
    let a = "HashMap<NodeLabel, u64> is only text here";
    let b = r##"step_store("not real") and "# partial close"##;
    let c = b"BTreeMap<NodeLabel, Cycle> bytes";
    let d = '\'';
    let e = "escaped \" quote then drain_seals_into( text";
    let f = r#"match config.scheme {
        _ => fallback(),
    }"#;
    let g = "while retries < 3 { retries += 1; }";
    /* a block comment mentioning step_store( and FastMap<NodeLabel, u8> */
    // line comment: enable_seal_log( and `_ =>` are only words here
    let _ = d;
    a.len() + b.len() + c.len() + e.len() + f.len() + g.len()
}
