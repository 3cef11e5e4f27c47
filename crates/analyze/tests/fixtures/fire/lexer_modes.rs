//@ path: crates/core/src/fx_lexer.rs
//! Lexer-mode mutant: a real violation after a gauntlet of tricky
//! literals still fires — proving the one token lexer resynchronizes
//! after raw strings, byte strings, escapes, and nested block comments.

pub fn tricky(label: NodeLabel) -> u64 {
    let s = "/* not a comment */ \" // also not";
    let r = r#"raw "quoted" text"#;
    let b = b"byte \"string\"";
    let c = '\"';
    let n = '\n';
    /* block /* nested */ still closed here */
    let _ = (s, r, b, c, n);
    let nodes: HashMap<NodeLabel, u64> = HashMap::new(); //~ ERROR no-node-hashmap PLP-L005
    nodes.get(&label).copied().unwrap_or(0)
}
