//! Span-carrying token lexer: the one lexer of the analysis pipeline.
//!
//! The parser, the CFG builder and the dataflow passes consume its
//! token stream, and the line model the lexical rules match against
//! ([`crate::lint::scan`]) is rebuilt from it. Every token carries its
//! byte span, line and column; literals are classified (including raw
//! strings with any number of hashes, byte and byte-raw strings,
//! char/byte literals with escapes), comments are captured separately,
//! and common multi-character operators are fused so `->`, `=>`, `::`
//! and the compound assignments are single tokens.
//!
//! The lexer never fails: unknown bytes become one-character punct
//! tokens and unterminated literals run to end of input, so the parser
//! downstream can stay recovery-tolerant.

/// What a token is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword (`fn`, `match`, `as`, names).
    Ident,
    /// `'a`-style lifetime (not a char literal).
    Lifetime,
    /// Integer literal (radix prefixes and type suffixes included).
    Int,
    /// Float literal.
    Float,
    /// `"…"` string literal.
    Str,
    /// `r"…"` / `r#"…"#` raw string (any hash count).
    RawStr,
    /// `b"…"` byte string or `br#"…"#` byte-raw string.
    ByteStr,
    /// `'x'` char literal (escapes included).
    Char,
    /// `b'x'` byte literal.
    Byte,
    /// Punctuation; multi-char operators in [`FUSED`] are one token.
    Punct,
}

/// One token: kind plus byte span and 1-based line/column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Token {
    /// Classification.
    pub kind: TokenKind,
    /// Byte offset of the first byte.
    pub start: usize,
    /// Byte offset one past the last byte.
    pub end: usize,
    /// 1-based line of the first byte.
    pub line: u32,
    /// 1-based column (in characters) of the first byte.
    pub col: u32,
}

impl Token {
    /// The token's text inside the source it was lexed from.
    pub fn text<'a>(&self, src: &'a str) -> &'a str {
        src.get(self.start..self.end).unwrap_or("")
    }
}

/// A comment, captured out of band (tokens skip comments entirely).
#[derive(Debug, Clone)]
pub struct Comment {
    /// Comment text without the `//` / `/* */` markers. A block
    /// comment keeps its line breaks, so its text line `k` sits on
    /// source line `line + k`.
    pub text: String,
    /// 1-based line the comment starts on.
    pub line: u32,
    /// Whether this was a block comment.
    pub block: bool,
}

/// A lexed file: tokens plus the comment side channel.
#[derive(Debug, Clone, Default)]
pub struct TokenStream {
    /// All non-trivia tokens, in source order.
    pub tokens: Vec<Token>,
    /// All comments, in source order.
    pub comments: Vec<Comment>,
}

/// Multi-character operators fused into single punct tokens, longest
/// first so maximal munch works by scanning in order. Shift operators
/// (`<<`, `>>`) are deliberately not fused: `Vec<Vec<u8>>` would
/// mis-lex. The shift-assignments are safe to fuse because a `>>=`
/// byte sequence cannot occur in rustfmt'd type position.
const FUSED: [&str; 21] = [
    "..=", "<<=", ">>=", "::", "->", "=>", "==", "!=", "<=", ">=", "&&", "||", "..", "+=", "-=",
    "*=", "/=", "%=", "^=", "&=", "|=",
];

/// Lexes `src` into tokens and comments. Total function: malformed
/// input degrades to punct tokens rather than failing.
pub fn lex(src: &str) -> TokenStream {
    Lexer {
        src,
        bytes: src.as_bytes(),
        pos: 0,
        line: 1,
        col: 1,
        out: TokenStream::default(),
    }
    .run()
}

struct Lexer<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
    line: u32,
    col: u32,
    out: TokenStream,
}

impl Lexer<'_> {
    fn peek(&self, ahead: usize) -> Option<u8> {
        self.bytes.get(self.pos + ahead).copied()
    }

    /// Advances one char, maintaining line/col. Multi-byte UTF-8 moves
    /// the cursor past the whole character.
    fn bump(&mut self) {
        let Some(&b) = self.bytes.get(self.pos) else {
            return;
        };
        if b == b'\n' {
            self.line += 1;
            self.col = 1;
            self.pos += 1;
        } else {
            let width = utf8_width(b);
            self.pos += width;
            self.col += 1;
        }
    }

    fn run(mut self) -> TokenStream {
        while self.pos < self.bytes.len() {
            let start = self.pos;
            let (line, col) = (self.line, self.col);
            let Some(b) = self.peek(0) else { break };
            match b {
                b' ' | b'\t' | b'\r' | b'\n' => self.bump(),
                b'/' if self.peek(1) == Some(b'/') => self.line_comment(),
                b'/' if self.peek(1) == Some(b'*') => self.block_comment(),
                b'"' => self.string_literal(start, line, col, TokenKind::Str),
                b'\'' => self.quote(start, line, col),
                b'r' | b'b' => self.maybe_prefixed(start, line, col),
                b'0'..=b'9' => self.number(start, line, col),
                b if is_ident_start(b) => self.ident(start, line, col),
                _ => self.punct(start, line, col),
            }
        }
        self.out
    }

    fn push(&mut self, kind: TokenKind, start: usize, line: u32, col: u32) {
        self.out.tokens.push(Token {
            kind,
            start,
            end: self.pos,
            line,
            col,
        });
    }

    fn line_comment(&mut self) {
        let line = self.line;
        let start = self.pos + 2;
        while self.peek(0).is_some_and(|b| b != b'\n') {
            self.bump();
        }
        let text = self
            .src
            .get(start..self.pos)
            .unwrap_or("")
            .trim_start_matches(['/', '!'])
            .trim()
            .to_string();
        self.out.comments.push(Comment {
            text,
            line,
            block: false,
        });
    }

    /// Block comments nest (`/* /* */ */`), and string-like text inside
    /// them is plain comment text.
    fn block_comment(&mut self) {
        let line = self.line;
        let start = self.pos + 2;
        self.bump();
        self.bump();
        let mut depth = 1u32;
        let mut end = self.pos;
        while depth > 0 {
            match (self.peek(0), self.peek(1)) {
                (Some(b'*'), Some(b'/')) => {
                    depth -= 1;
                    end = self.pos;
                    self.bump();
                    self.bump();
                }
                (Some(b'/'), Some(b'*')) => {
                    depth += 1;
                    self.bump();
                    self.bump();
                }
                (Some(_), _) => self.bump(),
                (None, _) => {
                    end = self.pos;
                    break;
                }
            }
        }
        let text = self
            .src
            .get(start..end)
            .unwrap_or("")
            .trim_start_matches(['*', '!'])
            .trim_matches([' ', '\t'])
            .to_string();
        self.out.comments.push(Comment {
            text,
            line,
            block: true,
        });
    }

    /// `"…"` with escapes; `\X` always consumes the escaped char, so an
    /// escaped quote (or a `/*` inside the literal) never ends it.
    fn string_literal(&mut self, start: usize, line: u32, col: u32, kind: TokenKind) {
        self.bump(); // opening quote
        loop {
            match self.peek(0) {
                Some(b'\\') => {
                    self.bump();
                    self.bump();
                }
                Some(b'"') => {
                    self.bump();
                    break;
                }
                Some(_) => self.bump(),
                None => break,
            }
        }
        self.push(kind, start, line, col);
    }

    /// `'` starts either a char literal or a lifetime. A lifetime is
    /// `'ident` not followed by a closing quote; everything else —
    /// `'a'`, `'\n'`, `'\u{1F600}'`, `'\''` — is a char literal.
    fn quote(&mut self, start: usize, line: u32, col: u32) {
        self.bump(); // '
        match self.peek(0) {
            Some(b'\\') => {
                // Escaped char literal: consume escape body to the
                // closing quote.
                self.bump();
                self.bump();
                while self.peek(0).is_some_and(|b| b != b'\'' && b != b'\n') {
                    self.bump();
                }
                self.bump(); // closing quote (or newline recovery)
                self.push(TokenKind::Char, start, line, col);
            }
            Some(b) if is_ident_start(b) => {
                // Could be 'a' (char) or 'a (lifetime): look past the
                // ident run for a quote.
                let mut ahead = 1;
                while self.peek(ahead).is_some_and(is_ident_continue) {
                    ahead += 1;
                }
                let is_char = self.peek(ahead) == Some(b'\'');
                for _ in 0..ahead {
                    self.bump();
                }
                if is_char {
                    self.bump(); // closing quote
                    self.push(TokenKind::Char, start, line, col);
                } else {
                    self.push(TokenKind::Lifetime, start, line, col);
                }
            }
            Some(b'\'') => {
                // `''` — malformed; treat as empty char for recovery.
                self.bump();
                self.push(TokenKind::Char, start, line, col);
            }
            Some(_) => {
                // Non-alphanumeric char literal: '{', '"', '→', …
                self.bump();
                if self.peek(0) == Some(b'\'') {
                    self.bump();
                }
                self.push(TokenKind::Char, start, line, col);
            }
            None => self.push(TokenKind::Punct, start, line, col),
        }
    }

    /// `r`/`b` heads: raw strings `r"…"`/`r##"…"##`, byte strings
    /// `b"…"`, byte-raw `br#"…"#`, byte chars `b'x'` — or just an
    /// identifier starting with r/b.
    fn maybe_prefixed(&mut self, start: usize, line: u32, col: u32) {
        let b0 = self.peek(0);
        let mut ahead = 1;
        let mut byte = b0 == Some(b'b');
        if byte && self.peek(ahead) == Some(b'r') {
            ahead += 1;
        }
        let raw = self.peek(ahead.saturating_sub(1)) == Some(b'r') || b0 == Some(b'r');
        // `rb"…"` is not Rust; only `br` combines.
        if b0 == Some(b'r') {
            byte = false;
            ahead = 1;
        }
        let mut hashes = 0usize;
        while raw && self.peek(ahead) == Some(b'#') {
            hashes += 1;
            ahead += 1;
        }
        if raw && self.peek(ahead) == Some(b'"') {
            for _ in 0..=ahead {
                self.bump(); // prefix, hashes and opening quote
            }
            self.raw_string_body(hashes);
            let kind = if byte {
                TokenKind::ByteStr
            } else {
                TokenKind::RawStr
            };
            self.push(kind, start, line, col);
            return;
        }
        if byte && ahead == 1 {
            match self.peek(1) {
                Some(b'"') => {
                    self.bump(); // b
                    self.string_literal(self.pos, line, col, TokenKind::ByteStr);
                    // string_literal pushed with its own start; fix up.
                    if let Some(t) = self.out.tokens.last_mut() {
                        t.start = start;
                        t.col = col;
                    }
                    return;
                }
                Some(b'\'') => {
                    self.bump(); // b
                    self.quote(self.pos, line, col);
                    if let Some(t) = self.out.tokens.last_mut() {
                        t.kind = TokenKind::Byte;
                        t.start = start;
                        t.col = col;
                    }
                    return;
                }
                _ => {}
            }
        }
        self.ident(start, line, col);
    }

    /// Body of a raw string opened with `hashes` hashes: runs to the
    /// first `"` followed by that many `#`s. No escapes.
    fn raw_string_body(&mut self, hashes: usize) {
        loop {
            match self.peek(0) {
                Some(b'"') => {
                    let closes = (1..=hashes).all(|k| self.peek(k) == Some(b'#'));
                    self.bump();
                    if closes {
                        for _ in 0..hashes {
                            self.bump();
                        }
                        return;
                    }
                }
                Some(_) => self.bump(),
                None => return,
            }
        }
    }

    fn number(&mut self, start: usize, line: u32, col: u32) {
        let radix_prefix = self.peek(0) == Some(b'0')
            && matches!(self.peek(1), Some(b'x' | b'o' | b'b' | b'X' | b'O' | b'B'));
        if radix_prefix {
            self.bump();
            self.bump();
        }
        let mut float = false;
        while let Some(b) = self.peek(0) {
            match b {
                b'0'..=b'9' | b'_' | b'a'..=b'f' | b'A'..=b'F' if radix_prefix => self.bump(),
                b'0'..=b'9' | b'_' => self.bump(),
                // `1.5` is a float; `1.method()` and `1..2` are not.
                b'.' if !radix_prefix
                    && !float
                    && self.peek(1).is_some_and(|c| c.is_ascii_digit()) =>
                {
                    float = true;
                    self.bump();
                }
                b'e' | b'E'
                    if !radix_prefix
                        && float
                        && self
                            .peek(1)
                            .is_some_and(|c| c.is_ascii_digit() || c == b'+' || c == b'-') =>
                {
                    self.bump();
                    self.bump();
                }
                // Type suffix (u32, f64, usize …) glues to the number.
                b if is_ident_start(b) => {
                    if (b == b'f' || b == b'F') && !radix_prefix {
                        // f32/f64 suffix means float.
                        let rest: &[u8] = &self.bytes[self.pos..];
                        if rest.starts_with(b"f32") || rest.starts_with(b"f64") {
                            float = true;
                        }
                    }
                    while self.peek(0).is_some_and(is_ident_continue) {
                        self.bump();
                    }
                    break;
                }
                _ => break,
            }
        }
        let kind = if float {
            TokenKind::Float
        } else {
            TokenKind::Int
        };
        self.push(kind, start, line, col);
    }

    fn ident(&mut self, start: usize, line: u32, col: u32) {
        // Raw identifiers: `r#match`.
        if self.peek(0) == Some(b'r')
            && self.peek(1) == Some(b'#')
            && self.peek(2).is_some_and(is_ident_start)
        {
            self.bump();
            self.bump();
        }
        while self.peek(0).is_some_and(is_ident_continue) {
            self.bump();
        }
        self.push(TokenKind::Ident, start, line, col);
    }

    fn punct(&mut self, start: usize, line: u32, col: u32) {
        let rest = &self.src[self.pos.min(self.src.len())..];
        for op in FUSED {
            if rest.starts_with(op) {
                for _ in 0..op.len() {
                    self.bump();
                }
                self.push(TokenKind::Punct, start, line, col);
                return;
            }
        }
        self.bump();
        self.push(TokenKind::Punct, start, line, col);
    }
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_' || b >= 0x80
}

fn is_ident_continue(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_' || b >= 0x80
}

fn utf8_width(b: u8) -> usize {
    match b {
        0x00..=0x7F => 1,
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        _ => 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokenKind, String)> {
        lex(src)
            .tokens
            .iter()
            .map(|t| (t.kind, t.text(src).to_string()))
            .collect()
    }

    #[test]
    fn raw_strings_with_multiple_hashes() {
        let src = r####"let s = r##"inner "# quote"##; x.y()"####;
        let toks = kinds(src);
        let raw = toks.iter().find(|(k, _)| *k == TokenKind::RawStr);
        assert_eq!(
            raw.map(|(_, t)| t.as_str()),
            Some(r###"r##"inner "# quote"##"###)
        );
        // Lexing resumes correctly after the raw string.
        assert!(toks.iter().any(|(_, t)| t == "y"));
    }

    #[test]
    fn byte_and_byte_raw_strings() {
        let src = "let a = b\"bytes\"; let c = br#\"raw \" bytes\"#; let d = b'x'; e()";
        let toks = kinds(src);
        assert_eq!(
            toks.iter()
                .filter(|(k, _)| *k == TokenKind::ByteStr)
                .count(),
            2
        );
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokenKind::Byte && t == "b'x'"));
        assert!(toks.iter().any(|(_, t)| t == "e"));
    }

    #[test]
    fn char_literals_with_escapes_and_lifetimes() {
        let src = r"let a = '\''; let b = '\u{1F600}'; let c: &'static str = s; let d = 'x';";
        let toks = kinds(src);
        let chars: Vec<_> = toks
            .iter()
            .filter(|(k, _)| *k == TokenKind::Char)
            .map(|(_, t)| t.as_str())
            .collect();
        assert_eq!(chars, [r"'\''", r"'\u{1F600}'", "'x'"]);
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokenKind::Lifetime && t == "'static"));
    }

    #[test]
    fn block_comment_markers_inside_strings_do_not_comment() {
        let src = "let s = \"/* not a comment */\"; real()";
        let out = lex(src);
        assert!(out.comments.is_empty());
        assert!(out.tokens.iter().any(|t| t.text(src) == "real"));
    }

    #[test]
    fn strings_inside_block_comments_do_not_unbalance() {
        let src = "/* \"unclosed in comment /* nested */ still comment */ code()";
        let out = lex(src);
        assert_eq!(out.comments.len(), 1);
        assert!(out.tokens.iter().any(|t| t.text(src) == "code"));
    }

    #[test]
    fn fused_operators_and_numbers() {
        let src = "a -> b => c :: d ..= e .. f == g; x += 0xFF_u32; y = 1.5e3; z = 0b1010;";
        let toks = kinds(src);
        for op in ["->", "=>", "::", "..=", "..", "==", "+="] {
            assert!(toks.iter().any(|(_, t)| t == op), "missing {op}");
        }
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokenKind::Int && t == "0xFF_u32"));
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokenKind::Float && t == "1.5e3"));
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokenKind::Int && t == "0b1010"));
    }

    #[test]
    fn shift_in_generics_does_not_fuse() {
        let src = "let v: Vec<Vec<u8>> = make(); let w = x >>= 2;";
        let toks = kinds(src);
        // The generic close lexes as two single `>`s.
        assert!(toks.iter().filter(|(_, t)| t == ">").count() >= 2);
        assert!(toks.iter().any(|(_, t)| t == ">>="));
    }

    #[test]
    fn line_and_column_tracking() {
        let src = "ab cd\n  ef\n";
        let out = lex(src);
        let ef = out.tokens.iter().find(|t| t.text(src) == "ef");
        let ef = ef.copied().unwrap_or_default();
        assert_eq!((ef.line, ef.col), (2, 3));
    }

    impl Default for Token {
        fn default() -> Self {
            Token {
                kind: TokenKind::Punct,
                start: 0,
                end: 0,
                line: 0,
                col: 0,
            }
        }
    }

    #[test]
    fn doc_comments_are_captured() {
        let src = "/// doc text\n//! inner\n/* block /* nested */ body */ x";
        let out = lex(src);
        assert_eq!(out.comments.len(), 3);
        assert_eq!(out.comments[0].text, "doc text");
        assert_eq!(out.comments[1].text, "inner");
        assert!(out.comments[2].text.contains("body"));
    }
}
