//! Line-oriented source model the lexical rules run over.
//!
//! Raw text is too little for the rules: `step_store(` inside a string
//! literal or a doc comment is not a call. The model is built from the
//! one token lexer ([`crate::syntax::lex`]): each line's code is its
//! tokens re-placed at their columns with every literal left blank,
//! comment text rides alongside for `// lint: allow(...)` directives,
//! and brace depth over that code marks the lines inside
//! `#[cfg(test)]` / `#[test]` regions, where the rules do not apply.

use crate::syntax::{lex, TokenKind, TokenStream};

/// One source line, post-lex.
#[derive(Debug, Clone, Default)]
pub struct Line {
    /// The line with comments and literals replaced by spaces — what
    /// the rules pattern-match against.
    pub code: String,
    /// Concatenated comment text on the line (no `//` markers).
    pub comment: String,
    /// Whether the line starts inside a test region.
    pub in_test: bool,
}

/// A lexed file.
#[derive(Debug, Clone, Default)]
pub struct SourceModel {
    /// Lines in file order.
    pub lines: Vec<Line>,
    /// Total `lint: allow(...)` directives found (well- or ill-formed).
    pub allow_directives: usize,
}

/// A parsed `// lint: allow(<rule>) <reason>` directive.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowDirective {
    /// The rule identifier inside the parentheses.
    pub rule: String,
    /// Whether a non-empty reason followed the parentheses.
    pub has_reason: bool,
}

/// Extracts every allow directive from one line's comment text.
pub fn parse_allows(comment: &str) -> Vec<AllowDirective> {
    let mut out = Vec::new();
    let mut rest = comment;
    while let Some(at) = rest.find("lint: allow(") {
        rest = &rest[at + "lint: allow(".len()..];
        let Some(close) = rest.find(')') else { break };
        let rule = rest[..close].trim().to_string();
        rest = &rest[close + 1..];
        // Rule ids are kebab-case; anything else (e.g. the `<rule>`
        // placeholder in docs describing the syntax) is a mention,
        // not a directive.
        if rule.is_empty() || !rule.chars().all(|c| c.is_ascii_lowercase() || c == '-') {
            continue;
        }
        // The reason runs to the next directive (or end of comment).
        let reason_end = rest.find("lint: allow(").unwrap_or(rest.len());
        let has_reason = !rest[..reason_end].trim().is_empty();
        out.push(AllowDirective { rule, has_reason });
    }
    out
}

impl SourceModel {
    /// Whether `rule` is allowed on `line` (0-based): a directive on
    /// the line itself or on the line directly above, reason present.
    pub fn allows(&self, line: usize, rule: &str) -> bool {
        let mut candidates = vec![line];
        if line > 0 {
            candidates.push(line - 1);
        }
        candidates.into_iter().any(|l| {
            parse_allows(&self.lines[l].comment)
                .iter()
                .any(|d| d.rule == rule && d.has_reason)
        })
    }

    /// Lexes a file and builds its line model.
    pub fn parse(text: &str) -> Self {
        Self::from_tokens(text, &lex(text))
    }

    /// Builds the line model of `text` from its token stream.
    pub fn from_tokens(text: &str, ts: &TokenStream) -> Self {
        use TokenKind::{Byte, ByteStr, Char, RawStr, Str};
        let mut code: Vec<Vec<char>> = text.lines().map(|l| vec![' '; l.chars().count()]).collect();
        for t in &ts.tokens {
            // Literals stay blank; every other token sits on one line.
            let literal = matches!(t.kind, Str | RawStr | ByteStr | Char | Byte);
            let Some(row) = code.get_mut(t.line as usize - 1).filter(|_| !literal) else {
                continue;
            };
            let cells = row.iter_mut().skip(t.col as usize - 1);
            for (cell, c) in cells.zip(t.text(text).chars()) {
                *cell = c;
            }
        }
        let mut comments = vec![String::new(); code.len()];
        for c in &ts.comments {
            // A block comment keeps its line breaks: piece k sits on
            // the comment's k-th line.
            let slots = comments.iter_mut().skip(c.line as usize - 1);
            for (slot, piece) in slots.zip(c.text.split('\n')) {
                slot.push_str(piece.trim());
                slot.push(' ');
            }
        }

        let mut model = SourceModel::default();
        let mut depth = 0u32;
        // Depths at which a test region opened; non-empty = in test code.
        let mut test_stack: Vec<u32> = Vec::new();
        // A `#[cfg(test)]` / `#[test]` was seen and its item's `{` is
        // still ahead.
        let mut pending_test = false;
        for (cells, comment) in code.into_iter().zip(comments) {
            let code: String = cells.into_iter().collect();
            let in_test = !test_stack.is_empty();
            for c in code.chars() {
                match c {
                    '{' => {
                        if pending_test {
                            test_stack.push(depth);
                            pending_test = false;
                        }
                        depth += 1;
                    }
                    '}' => {
                        depth = depth.saturating_sub(1);
                        if test_stack.last() == Some(&depth) {
                            test_stack.pop();
                        }
                    }
                    // `#[cfg(test)] use …;` — attribute consumed by a
                    // braceless item.
                    ';' => pending_test = false,
                    _ => {}
                }
            }
            if code.contains("#[cfg(test)]") || code.contains("#[test]") {
                pending_test = true;
            }
            model.allow_directives += parse_allows(&comment).len();
            model.lines.push(Line {
                code,
                comment,
                in_test,
            });
        }
        model
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_and_comments_are_blanked() {
        let m = SourceModel::parse(concat!(
            "let x = \"call .unwrap() here\"; // .unwrap() in comment\n",
            "let y = a.unwrap();\n",
        ));
        assert!(!m.lines[0].code.contains("unwrap"));
        assert!(m.lines[0].comment.contains(".unwrap() in comment"));
        assert!(m.lines[1].code.contains(".unwrap()"));
    }

    #[test]
    fn raw_strings_and_chars_are_blanked() {
        let m = SourceModel::parse(concat!(
            "let s = r#\"panic!(\"no\")\"#;\n",
            "let c = '\"'; let d = '\\''; let e = x.unwrap();\n",
        ));
        assert!(!m.lines[0].code.contains("panic"));
        assert!(m.lines[1].code.contains(".unwrap()"));
    }

    #[test]
    fn block_comments_nest_and_span_lines() {
        let m = SourceModel::parse("/* a /* b */ still.unwrap() */\nx.unwrap();\n");
        assert!(!m.lines[0].code.contains("unwrap"));
        assert!(m.lines[1].code.contains("unwrap"));
    }

    #[test]
    fn test_regions_cover_cfg_test_mods() {
        let src = concat!(
            "fn lib() { x.unwrap(); }\n",
            "#[cfg(test)]\n",
            "mod tests {\n",
            "    fn t() { y.unwrap(); }\n",
            "}\n",
            "fn lib2() {}\n",
        );
        let m = SourceModel::parse(src);
        assert!(!m.lines[0].in_test);
        assert!(m.lines[3].in_test, "inside cfg(test) mod");
        assert!(!m.lines[5].in_test, "after the mod closes");
    }

    #[test]
    fn braceless_cfg_test_items_do_not_leak() {
        let src = concat!(
            "#[cfg(test)]\n",
            "use foo::bar;\n",
            "fn lib() { x.unwrap(); }\n",
        );
        let m = SourceModel::parse(src);
        assert!(!m.lines[2].in_test);
    }

    #[test]
    fn allow_directives_parse_and_require_reasons() {
        let ds = parse_allows("lint: allow(no-panic-lib) poisoned lock is fatal");
        assert_eq!(ds.len(), 1);
        assert_eq!(ds[0].rule, "no-panic-lib");
        assert!(ds[0].has_reason);
        let bare = parse_allows("lint: allow(no-panic-lib)");
        assert!(!bare[0].has_reason);

        let m = SourceModel::parse(concat!(
            "// lint: allow(no-panic-lib) startup-only\n",
            "x.unwrap();\n",
            "y.unwrap();\n",
        ));
        assert_eq!(m.allow_directives, 1);
        assert!(m.allows(1, "no-panic-lib"), "line under the directive");
        assert!(!m.allows(2, "no-panic-lib"), "two lines down is not covered");
    }
}
