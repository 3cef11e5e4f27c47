//! Golden CFG shapes and the token-partition property.
//!
//! The golden tests pin the exact block/edge/loop structure the
//! builder produces for the control shapes the semantic passes lean
//! on (early return, conditional loop, `continue`, `match`, `?`).
//! The partition test proves a structural invariant over arbitrary
//! code: inside a function body, every token is owned by *at most
//! one* atom, and the tokens no atom owns are pure structure
//! (braces, arrows, keywords) — so no expression text is ever lost
//! or double-counted by the dataflow layer.

use plp_analyze::cfg;
use plp_analyze::syntax::{self, TokenKind};

/// Renders the first function's CFG as a deterministic text form.
fn render(src: &str) -> String {
    let tokens = syntax::lex(src);
    let parsed = syntax::parse(src, &tokens);
    assert!(!parsed.functions.is_empty(), "no function parsed");
    let f = &parsed.functions[0];
    let g = cfg::build(f).expect("cfg builds");
    let mut out = String::new();
    for (i, b) in g.blocks.iter().enumerate() {
        let atoms: Vec<String> = b
            .atoms
            .iter()
            .map(|a| format!("{:?}@{}", a.kind, a.line))
            .collect();
        let succs: Vec<String> = b.succs.iter().map(|(t, k)| format!("b{t}:{k:?}")).collect();
        out.push_str(&format!(
            "b{i}[{}] -> {}\n",
            atoms.join(","),
            succs.join(",")
        ));
    }
    for lp in &g.loops {
        out.push_str(&format!(
            "loop header=b{} body=b{} after=b{}\n",
            lp.header, lp.body_entry, lp.after
        ));
    }
    out
}

#[test]
fn golden_early_return() {
    let got = render(concat!(
        "fn f(x: u64) -> u64 {\n", // 1
        "    if x == 0 {\n",       // 2
        "        return 1;\n",     // 3
        "    }\n",                 // 4
        "    x + 1\n",             // 5
        "}\n",
    ));
    println!("GOLDEN early_return:\n{got}");
    insta_like(&got, "early_return");
}

#[test]
fn golden_conditional_loop_with_continue() {
    let got = render(concat!(
        "fn f(n: u64) -> u64 {\n", // 1
        "    let mut acc = 0;\n",  // 2
        "    for i in 0..n {\n",   // 3
        "        if i == 3 {\n",   // 4
        "            continue;\n", // 5
        "        }\n",             // 6
        "        acc += i;\n",     // 7
        "    }\n",                 // 8
        "    acc\n",               // 9
        "}\n",
    ));
    println!("GOLDEN loop_continue:\n{got}");
    insta_like(&got, "loop_continue");
}

#[test]
fn golden_match_arms() {
    let got = render(concat!(
        "fn f(x: u64) -> u64 {\n", // 1
        "    match x {\n",         // 2
        "        0 => 1,\n",       // 3
        "        1 => 2,\n",       // 4
        "        _ => 3,\n",       // 5
        "    }\n",                 // 6
        "}\n",
    ));
    println!("GOLDEN match_arms:\n{got}");
    insta_like(&got, "match_arms");
}

#[test]
fn golden_question_mark() {
    let got = render(concat!(
        "fn f(x: Option<u64>) -> Option<u64> {\n", // 1
        "    let v = probe(x)?;\n",                // 2
        "    Some(v + 1)\n",                       // 3
        "}\n",
    ));
    println!("GOLDEN question:\n{got}");
    insta_like(&got, "question");
}

/// Golden store, captured from the builder and reviewed by hand:
/// b1 is always the exit; `Back`/`ZeroTrip`/`LoopBypass` edges carry
/// the loop stances the dataflow layer filters on.
fn insta_like(got: &str, name: &str) {
    let want = match name {
        "early_return" => concat!(
            "b0[Cond@2] -> b3:Normal,b2:Normal\n",
            "b1[] -> \n",
            "b2[Plain@5] -> b1:Normal\n",
            "b3[Return@3] -> b1:Normal\n",
            "b4[] -> b2:Normal\n",
        ),
        "loop_continue" => concat!(
            "b0[Plain@2] -> b2:Normal\n",
            "b1[] -> \n",
            "b2[LoopHeader@3] -> b4:Normal,b3:ZeroTrip\n",
            "b3[Plain@9] -> b1:Normal\n",
            "b4[Cond@4] -> b6:Normal,b5:Normal\n",
            "b5[Plain@7] -> b2:Back,b3:LoopBypass\n",
            "b6[Continue@5] -> b2:Back\n",
            "b7[] -> b5:Normal\n",
            "loop header=b2 body=b4 after=b3\n",
        ),
        "match_arms" => concat!(
            "b0[Cond@2] -> b3:Normal,b4:Normal,b5:Normal\n",
            "b1[] -> \n",
            "b2[] -> b1:Normal\n",
            "b3[Plain@3] -> b2:Normal\n",
            "b4[Plain@4] -> b2:Normal\n",
            "b5[Plain@5] -> b2:Normal\n",
        ),
        "question" => concat!(
            "b0[Plain@2] -> b1:Normal,b2:Normal\n",
            "b1[] -> \n",
            "b2[Plain@3] -> b1:Normal\n",
        ),
        other => panic!("unknown golden {other}"),
    };
    assert_eq!(got, want, "golden CFG {name} drifted");
}

/// Structural tokens an atom never owns: block delimiters, arm
/// arrows, and the control keywords the builder models as edges.
fn structural(text: &str) -> bool {
    matches!(text, "{" | "}" | "=>" | "," | "else" | "unsafe" | ";")
}

#[test]
fn token_partition_over_own_sources() {
    // Run the invariant over this crate's own source files — real
    // code with every statement shape the parser supports.
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
    let mut files = Vec::new();
    let mut stack = vec![dir];
    while let Some(d) = stack.pop() {
        for entry in std::fs::read_dir(&d).unwrap() {
            let p = entry.unwrap().path();
            if p.is_dir() {
                stack.push(p);
            } else if p.extension().is_some_and(|e| e == "rs") {
                files.push(p);
            }
        }
    }
    files.sort();
    assert!(files.len() >= 10, "expected the crate's sources");
    let mut fns = 0usize;
    for path in files {
        let src = std::fs::read_to_string(&path).unwrap();
        let ts = syntax::lex(&src);
        let parsed = syntax::parse(&src, &ts);
        for f in &parsed.functions {
            let Some(g) = cfg::build(f) else { continue };
            fns += 1;
            let body = f.body.as_ref().unwrap();
            let mut owner = vec![0u32; ts.tokens.len()];
            for (_, _, a) in g.atoms() {
                for &(s, e) in &a.own {
                    for slot in owner.iter_mut().take(e).skip(s) {
                        *slot += 1;
                    }
                }
            }
            for (i, n) in owner.iter().enumerate() {
                let tok = &ts.tokens[i];
                if i < body.span.0 || i >= body.span.1 {
                    continue;
                }
                let text = &src[tok.start..tok.end];
                assert!(
                    *n <= 1,
                    "{}: token {i} `{text}` owned by {n} atoms in fn {} (line {})",
                    path.display(),
                    f.name,
                    tok.line,
                );
                if *n == 0 && tok.kind == TokenKind::Ident {
                    assert!(
                        structural(text) || keywordish(text),
                        "{}: unowned non-structural token `{text}` in fn {} (line {})",
                        path.display(),
                        f.name,
                        tok.line,
                    );
                }
            }
        }
    }
    assert!(fns >= 100, "partition checked only {fns} functions");
}

/// Keywords the statement grammar consumes without assigning to an
/// atom's expression (headers, binders, arms).
fn keywordish(text: &str) -> bool {
    matches!(
        text,
        "if" | "else"
            | "match"
            | "for"
            | "while"
            | "loop"
            | "let"
            | "mut"
            | "in"
            | "return"
            | "break"
            | "continue"
            | "unsafe"
    )
}

/// Deterministic xorshift64* PRNG — the property test must produce
/// the same programs on every run.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Emits a random statement sequence; `depth` bounds nesting and
/// `in_loop` legalizes `continue`/`break`.
fn gen_block(rng: &mut Rng, depth: u32, in_loop: bool, out: &mut String, indent: usize) {
    let pad = "    ".repeat(indent);
    let n = 1 + rng.below(3);
    for _ in 0..n {
        let pick = rng.below(if depth == 0 { 3 } else { 8 });
        match pick {
            0 => out.push_str(&format!(
                "{pad}let v{} = x + {};\n",
                rng.below(9),
                rng.below(99)
            )),
            1 => out.push_str(&format!("{pad}acc += {};\n", rng.below(99))),
            2 => {
                if in_loop && rng.below(2) == 0 {
                    out.push_str(&format!(
                        "{pad}{};\n",
                        ["continue", "break"][rng.below(2) as usize]
                    ));
                } else {
                    out.push_str(&format!("{pad}return acc + {};\n", rng.below(9)));
                }
            }
            3 => {
                out.push_str(&format!("{pad}if x == {} {{\n", rng.below(9)));
                gen_block(rng, depth - 1, in_loop, out, indent + 1);
                if rng.below(2) == 0 {
                    out.push_str(&format!("{pad}}} else {{\n"));
                    gen_block(rng, depth - 1, in_loop, out, indent + 1);
                }
                out.push_str(&format!("{pad}}}\n"));
            }
            4 => {
                out.push_str(&format!("{pad}for i in 0..{} {{\n", 1 + rng.below(9)));
                gen_block(rng, depth - 1, true, out, indent + 1);
                out.push_str(&format!("{pad}}}\n"));
            }
            5 => {
                out.push_str(&format!("{pad}while acc < {} {{\n", rng.below(99)));
                gen_block(rng, depth - 1, true, out, indent + 1);
                out.push_str(&format!("{pad}}}\n"));
            }
            6 => {
                out.push_str(&format!("{pad}match x % 3 {{\n"));
                out.push_str(&format!("{pad}    0 => {{\n"));
                gen_block(rng, depth - 1, in_loop, out, indent + 2);
                out.push_str(&format!("{pad}    }}\n"));
                out.push_str(&format!("{pad}    _ => {{\n"));
                gen_block(rng, depth - 1, in_loop, out, indent + 2);
                out.push_str(&format!("{pad}    }}\n"));
                out.push_str(&format!("{pad}}}\n"));
            }
            _ => out.push_str(&format!("{pad}acc = helper(acc, {});\n", rng.below(9))),
        }
    }
}

#[test]
fn generated_programs_build_sound_cfgs() {
    let mut rng = Rng(0x5eed_1234_5678_9abc);
    for case in 0..60 {
        let mut src = String::from("fn f(x: u64) -> u64 {\n    let mut acc = x;\n");
        gen_block(&mut rng, 3, false, &mut src, 1);
        src.push_str("    acc\n}\n");
        let ts = syntax::lex(&src);
        let parsed = syntax::parse(&src, &ts);
        assert_eq!(parsed.functions.len(), 1, "case {case}:\n{src}");
        let f = &parsed.functions[0];
        let g = cfg::build(f).unwrap_or_else(|| panic!("case {case}: no cfg\n{src}"));
        // Edges stay in range, and the atom partition holds.
        for b in &g.blocks {
            for &(t, _) in &b.succs {
                assert!(t < g.blocks.len(), "case {case}: edge out of range");
            }
        }
        let mut owner = vec![0u32; ts.tokens.len()];
        for (_, _, a) in g.atoms() {
            for &(s, e) in &a.own {
                for slot in owner.iter_mut().take(e).skip(s) {
                    *slot += 1;
                }
            }
        }
        assert!(
            owner.iter().all(|&n| n <= 1),
            "case {case}: token owned twice\n{src}"
        );
        // The dataflow engines terminate and agree on basic sanity:
        // nothing must-hits when no atom generates.
        let never = |_: &cfg::Atom<'_>| false;
        let table = plp_analyze::dataflow::must_hit_from(&g, &never, true);
        assert!(!table[g.entry], "case {case}: vacuous must-hit");
        let always = |_: &cfg::Atom<'_>| true;
        if !g.blocks[g.entry].atoms.is_empty() {
            let t2 = plp_analyze::dataflow::must_hit_from(&g, &always, true);
            assert!(
                t2[g.entry],
                "case {case}: must-hit missed a generating entry"
            );
        }
    }
}
