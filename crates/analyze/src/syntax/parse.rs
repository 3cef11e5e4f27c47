//! Recovery-tolerant item and statement parser over the token lexer.
//!
//! Produces just enough structure for control-flow graphs and the
//! semantic passes: functions (with impl/trait owner, typed params,
//! return type, and a statement-level body), struct definitions with
//! field types, and per-expression extraction of calls, assignments,
//! closures and `?`. Anything the grammar subset does not
//! cover becomes an opaque statement — the parser never fails.
//!
//! Token spans are threaded through everything: each statement records
//! the half-open token index range it owns, nested blocks record
//! theirs, and the CFG builder relies on those ranges nesting exactly
//! (the token-partition property test enforces it repo-wide).

use super::lexer::{Token, TokenKind, TokenStream};

/// A parsed file: every `fn` (free, impl, or trait) plus struct defs.
#[derive(Debug, Clone, Default)]
pub struct ParsedFile {
    /// Functions in source order, nested impls/mods flattened.
    pub functions: Vec<Function>,
    /// Struct definitions with named fields.
    pub structs: Vec<StructDef>,
}

/// A struct definition (named-field structs only; tuple structs and
/// enums carry no field-type information the passes need).
#[derive(Debug, Clone)]
pub struct StructDef {
    /// Type name.
    pub name: String,
    /// `(field, type-text)` pairs, normalized.
    pub fields: Vec<(String, String)>,
    /// 1-based line of the `struct` keyword.
    pub line: u32,
}

/// One function item.
#[derive(Debug, Clone)]
pub struct Function {
    /// Bare name.
    pub name: String,
    /// Impl target or trait name when declared inside one.
    pub owner: Option<String>,
    /// Parameters in order; `self` receivers have name `self`.
    pub params: Vec<Param>,
    /// Normalized return type text, if any.
    pub ret_ty: Option<String>,
    /// Statement body; `None` for trait method declarations.
    pub body: Option<Block>,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
}

/// A parameter: pattern name (when it is a simple binding) and type.
#[derive(Debug, Clone)]
pub struct Param {
    /// Binding name; `None` for destructuring patterns.
    pub name: Option<String>,
    /// Normalized type text (e.g. `&mut EngineCtx`, `u32`).
    pub ty: String,
}

/// A `{ … }` statement block. `span` covers both braces.
#[derive(Debug, Clone, Default)]
pub struct Block {
    /// Statements in order.
    pub stmts: Vec<Stmt>,
    /// Half-open token range including the braces.
    pub span: (usize, usize),
}

/// A statement with its source position and owned token range.
#[derive(Debug, Clone)]
pub struct Stmt {
    /// What kind of statement.
    pub kind: StmtKind,
    /// 1-based line of the first token.
    pub line: u32,
    /// Half-open token range this statement owns (children included).
    pub span: (usize, usize),
}

/// Loop flavor; the CFG builder treats `loop` differently (no
/// zero-trip edge) from conditional loops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoopKind {
    /// `loop { … }` — body always entered.
    Infinite,
    /// `while cond { … }` / `while let … { … }`.
    While,
    /// `for pat in iter { … }`.
    For,
}

/// Statement kinds the CFG builder understands.
#[derive(Debug, Clone)]
pub enum StmtKind {
    /// `let pat[: ty] [= init] [else { … }];`
    Let {
        /// Initializer expression.
        init: Option<ExprInfo>,
        /// `let … else` divergent block.
        else_block: Option<Block>,
    },
    /// Expression statement (with or without `;`).
    Expr {
        /// The expression.
        expr: ExprInfo,
    },
    /// `if cond { … } [else …]`; `else if` chains nest via `else_b`.
    If {
        /// Condition (includes `let` patterns for `if let`).
        cond: ExprInfo,
        /// Then branch.
        then_b: Block,
        /// Else branch, if any.
        else_b: Option<Block>,
    },
    /// `match scrut { arms }`.
    Match {
        /// Scrutinee.
        scrut: ExprInfo,
        /// Arms in order.
        arms: Vec<Arm>,
    },
    /// `loop`/`while`/`for`.
    Loop {
        /// Flavor.
        kind: LoopKind,
        /// Loop header expression (`while` cond, `for` iterator).
        header: Option<ExprInfo>,
        /// Body.
        body: Block,
    },
    /// `return [expr];`
    Return {
        /// Returned value.
        value: Option<ExprInfo>,
    },
    /// `break [label] [expr];`
    Break,
    /// `continue [label];`
    Continue,
    /// Bare or `unsafe` block.
    BareBlock {
        /// The block.
        block: Block,
    },
    /// Nested item or unrecognized construct, skipped opaquely.
    Opaque,
}

/// One `match` arm; expression bodies are wrapped in a synthetic
/// single-statement [`Block`].
#[derive(Debug, Clone)]
pub struct Arm {
    /// Normalized pattern text (guards included).
    pub pat: String,
    /// Arm body.
    pub body: Block,
    /// 1-based line of the pattern.
    pub line: u32,
}

/// An opaque expression plus everything the passes extract from it.
#[derive(Debug, Clone, Default)]
pub struct ExprInfo {
    /// Half-open token range.
    pub span: (usize, usize),
    /// 1-based line of the first token.
    pub line: u32,
    /// Function/method calls, in order.
    pub calls: Vec<Call>,
    /// Top-level assignment target, if this expression is one.
    pub assign: Option<Assign>,
    /// Whether a `?` operator occurs outside any closure.
    pub has_question: bool,
    /// Token spans of closure literals inside this expression.
    pub closures: Vec<(usize, usize)>,
}

/// A call site.
#[derive(Debug, Clone)]
pub struct Call {
    /// Callee name (method or function).
    pub name: String,
    /// Receiver chain for method calls, outermost first
    /// (`self.inner.f()` → `["self", "inner"]`; indexing is
    /// normalized to `base[]`; call results to `()`).
    pub recv: Vec<String>,
    /// Last path segment before `::` for qualified calls
    /// (`Failpoint::parse` → `Failpoint`).
    pub qual: Option<String>,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Whether the call site is inside a closure literal.
    pub in_closure: bool,
}

/// A top-level assignment inside an expression statement.
#[derive(Debug, Clone)]
pub struct Assign {
    /// Root of the target (`self`, or a local name).
    pub root: String,
    /// First field segment for `self.field…` targets.
    pub field: Option<String>,
    /// Whether the operator was compound (`+=`, …).
    pub compound: bool,
}

/// Keywords that look like `ident (` but are not calls.
const FLOW_KEYWORDS: [&str; 12] = [
    "if", "while", "match", "for", "return", "in", "loop", "else", "move", "let", "break",
    "continue",
];

/// Parses a lexed file. Total: malformed input degrades to opaque
/// statements, never an error.
pub fn parse(src: &str, ts: &TokenStream) -> ParsedFile {
    let mut p = Parser {
        src,
        toks: &ts.tokens,
        out: ParsedFile::default(),
    };
    p.items(0, ts.tokens.len(), None);
    p.out
}

struct Parser<'a> {
    src: &'a str,
    toks: &'a [Token],
    out: ParsedFile,
}

impl Parser<'_> {
    fn text(&self, i: usize) -> &str {
        match self.toks.get(i) {
            Some(t) => t.text(self.src),
            None => "",
        }
    }

    fn kind(&self, i: usize) -> Option<TokenKind> {
        self.toks.get(i).map(|t| t.kind)
    }

    fn line(&self, i: usize) -> u32 {
        self.toks.get(i).map(|t| t.line).unwrap_or(0)
    }

    /// Index of the token matching the opener at `i`, or `limit - 1`
    /// if unbalanced (recovery).
    fn matching(&self, i: usize, limit: usize) -> usize {
        let (open, close) = match self.text(i) {
            "(" => ("(", ")"),
            "[" => ("[", "]"),
            "{" => ("{", "}"),
            _ => return i,
        };
        let mut depth = 0usize;
        let mut j = i;
        while j < limit {
            let t = self.text(j);
            if t == open {
                depth += 1;
            } else if t == close {
                depth -= 1;
                if depth == 0 {
                    return j;
                }
            }
            j += 1;
        }
        limit.saturating_sub(1)
    }

    /// First index in `[i, limit)` holding punct `needle` at combined
    /// paren/bracket/brace depth zero.
    fn find_at_depth0(&self, i: usize, limit: usize, needle: &str) -> Option<usize> {
        let mut depth = 0i32;
        let mut j = i;
        while j < limit {
            let t = self.text(j);
            if depth == 0 && t == needle {
                return Some(j);
            }
            match t {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => depth -= 1,
                _ => {}
            }
            j += 1;
        }
        None
    }

    /// Joins token texts into normalized type/pattern text: single
    /// spaces only where two ident-ish tokens would otherwise fuse.
    fn normalize(&self, lo: usize, hi: usize) -> String {
        let mut out = String::new();
        for j in lo..hi.min(self.toks.len()) {
            let t = self.text(j);
            if t.is_empty() {
                continue;
            }
            let needs_space = out
                .chars()
                .next_back()
                .is_some_and(|c| c.is_alphanumeric() || c == '_')
                && t.chars()
                    .next()
                    .is_some_and(|c| c.is_alphanumeric() || c == '_');
            if needs_space {
                out.push(' ');
            }
            out.push_str(t);
        }
        out
    }

    /// Skips attributes (`#[…]`, `#![…]`) starting at `i`.
    fn skip_attrs(&self, mut i: usize, limit: usize) -> usize {
        while self.text(i) == "#" {
            let mut j = i + 1;
            if self.text(j) == "!" {
                j += 1;
            }
            if self.text(j) == "[" {
                i = self.matching(j, limit) + 1;
            } else {
                break;
            }
        }
        i
    }

    /// Skips to just past the item terminator: `;` at depth 0 or a
    /// matched depth-0 brace group, whichever comes first.
    fn skip_item(&self, i: usize, limit: usize) -> usize {
        let mut depth = 0i32;
        let mut j = i;
        while j < limit {
            match self.text(j) {
                "(" | "[" => depth += 1,
                ")" | "]" => depth -= 1,
                "{" if depth == 0 => return self.matching(j, limit) + 1,
                "{" => depth += 1,
                "}" => depth -= 1,
                ";" if depth == 0 => return j + 1,
                _ => {}
            }
            j += 1;
        }
        limit
    }

    /// Item-level loop: functions, impls, traits, mods, structs.
    fn items(&mut self, mut i: usize, limit: usize, owner: Option<&str>) {
        while i < limit {
            i = self.skip_attrs(i, limit);
            if i >= limit {
                break;
            }
            match self.text(i) {
                "pub" => {
                    i += 1;
                    if self.text(i) == "(" {
                        i = self.matching(i, limit) + 1;
                    }
                }
                "unsafe" | "async" | "default" => i += 1,
                "extern" => {
                    i += 1;
                    if self.kind(i) == Some(TokenKind::Str) {
                        i += 1;
                    }
                }
                "const" | "static" if self.text(i + 1) != "fn" => {
                    i = self.skip_item(i, limit);
                }
                "const" | "static" => i += 1,
                "fn" => i = self.function(i, limit, owner),
                "impl" => i = self.impl_block(i, limit),
                "trait" => {
                    let name = self.text(i + 1).to_string();
                    let mut j = i + 2;
                    while j < limit && self.text(j) != "{" && self.text(j) != ";" {
                        j += 1;
                    }
                    if self.text(j) == "{" {
                        let end = self.matching(j, limit);
                        self.items(j + 1, end, Some(&name));
                        i = end + 1;
                    } else {
                        i = j + 1;
                    }
                }
                "mod" => {
                    let mut j = i + 2;
                    while j < limit && self.text(j) != "{" && self.text(j) != ";" {
                        j += 1;
                    }
                    if self.text(j) == "{" {
                        let end = self.matching(j, limit);
                        self.items(j + 1, end, owner);
                        i = end + 1;
                    } else {
                        i = j + 1;
                    }
                }
                "struct" => i = self.struct_def(i, limit),
                "enum" | "union" | "use" | "type" | "macro_rules" => {
                    i = self.skip_item(i, limit);
                }
                _ => i += 1,
            }
        }
    }

    /// `impl [<…>] Type { … }` / `impl Trait for Type { … }`.
    fn impl_block(&mut self, i: usize, limit: usize) -> usize {
        let Some(body_open) = self.find_at_depth0(i, limit, "{") else {
            return limit;
        };
        // Type segment: after `for` if present, else after the
        // optional generics that immediately follow `impl`.
        let mut ty_start = i + 1;
        if self.text(ty_start) == "<" {
            let mut depth = 0i32;
            let mut j = ty_start;
            while j < body_open {
                match self.text(j) {
                    "<" => depth += 1,
                    ">" => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
            ty_start = j + 1;
        }
        let mut seg = ty_start;
        for j in ty_start..body_open {
            if self.text(j) == "for" {
                seg = j + 1;
            }
            if self.text(j) == "where" {
                break;
            }
        }
        // Base name: last plain ident before generics/where/body.
        let mut name = String::new();
        let mut j = seg;
        while j < body_open {
            let t = self.text(j);
            if t == "<" || t == "where" {
                break;
            }
            if self.kind(j) == Some(TokenKind::Ident) && t != "dyn" && t != "mut" {
                name = t.to_string();
            }
            j += 1;
        }
        let end = self.matching(body_open, limit);
        let owner = (!name.is_empty()).then_some(name);
        self.items(body_open + 1, end, owner.as_deref());
        end + 1
    }

    /// `struct Name { field: Ty, … }` — tuple/unit structs skipped.
    fn struct_def(&mut self, i: usize, limit: usize) -> usize {
        let line = self.line(i);
        let name = self.text(i + 1).to_string();
        let mut j = i + 2;
        let mut angle = 0i32;
        while j < limit {
            match self.text(j) {
                "<" => angle += 1,
                ">" => angle -= 1,
                ";" if angle <= 0 => return j + 1,
                "(" => {
                    // Tuple struct: skip to the trailing `;`.
                    j = self.matching(j, limit);
                }
                "{" if angle <= 0 => break,
                _ => {}
            }
            j += 1;
        }
        if self.text(j) != "{" {
            return j + 1;
        }
        let end = self.matching(j, limit);
        let mut fields = Vec::new();
        let mut k = j + 1;
        while k < end {
            k = self.skip_attrs(k, end);
            if self.text(k) == "pub" {
                k += 1;
                if self.text(k) == "(" {
                    k = self.matching(k, end) + 1;
                }
            }
            if self.kind(k) != Some(TokenKind::Ident) {
                k += 1;
                continue;
            }
            let fname = self.text(k).to_string();
            if self.text(k + 1) != ":" {
                k += 1;
                continue;
            }
            // Type runs to the field-separating comma at depth 0
            // (angle-aware so `BTreeMap<u64, u64>` stays whole).
            let ty_lo = k + 2;
            let mut depth = 0i32;
            let mut angle = 0i32;
            let mut m = ty_lo;
            while m < end {
                match self.text(m) {
                    "(" | "[" | "{" => depth += 1,
                    ")" | "]" | "}" => depth -= 1,
                    "<" => angle += 1,
                    ">" if angle > 0 => angle -= 1,
                    "," if depth == 0 && angle == 0 => break,
                    _ => {}
                }
                m += 1;
            }
            fields.push((fname, self.normalize(ty_lo, m)));
            k = m + 1;
        }
        self.out.structs.push(StructDef { name, fields, line });
        end + 1
    }

    /// `fn name[<…>](params) [-> ret] [where …] ({ body } | ;)`.
    fn function(&mut self, i: usize, limit: usize, owner: Option<&str>) -> usize {
        let line = self.line(i);
        let name = self.text(i + 1).to_string();
        let mut j = i + 2;
        if self.text(j) == "<" {
            let mut depth = 0i32;
            while j < limit {
                match self.text(j) {
                    "<" => depth += 1,
                    ">" => {
                        depth -= 1;
                        if depth == 0 {
                            j += 1;
                            break;
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
        }
        let mut params = Vec::new();
        if self.text(j) == "(" {
            let close = self.matching(j, limit);
            params = self.params(j + 1, close);
            j = close + 1;
        }
        let mut ret_ty = None;
        if self.text(j) == "->" {
            let lo = j + 1;
            let mut depth = 0i32;
            let mut m = lo;
            while m < limit {
                match self.text(m) {
                    "(" | "[" => depth += 1,
                    ")" | "]" => depth -= 1,
                    "{" | ";" if depth == 0 => break,
                    "where" if depth == 0 => break,
                    _ => {}
                }
                m += 1;
            }
            ret_ty = Some(self.normalize(lo, m));
            j = m;
        }
        while j < limit && self.text(j) != "{" && self.text(j) != ";" {
            j += 1;
        }
        let body = if self.text(j) == "{" {
            let end = self.matching(j, limit);
            let b = self.block(j, end);
            j = end + 1;
            Some(b)
        } else {
            j += 1;
            None
        };
        self.out.functions.push(Function {
            name,
            owner: owner.map(str::to_string),
            params,
            ret_ty,
            body,
            line,
        });
        j
    }

    /// Parses a parameter list between `(`+1 and `)`.
    fn params(&self, lo: usize, hi: usize) -> Vec<Param> {
        let mut out = Vec::new();
        let mut start = lo;
        let mut depth = 0i32;
        let mut angle = 0i32;
        let mut j = lo;
        loop {
            let at_end = j >= hi;
            let t = if at_end { "," } else { self.text(j) };
            match t {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => depth -= 1,
                "<" => angle += 1,
                ">" if angle > 0 => angle -= 1,
                "," if depth == 0 && angle == 0 => {
                    if start < j.min(hi) {
                        out.push(self.param(start, j.min(hi)));
                    }
                    start = j + 1;
                }
                _ => {}
            }
            if at_end {
                break;
            }
            j += 1;
        }
        out
    }

    /// One parameter: `self` receivers, `[mut] name: Ty`, or a
    /// destructuring pattern (name `None`).
    fn param(&self, lo: usize, hi: usize) -> Param {
        // Receiver forms: self | &self | &mut self | &'a mut self.
        for j in lo..hi {
            let t = self.text(j);
            if t == "self" {
                return Param {
                    name: Some("self".to_string()),
                    ty: self.normalize(lo, hi),
                };
            }
            if t != "&" && t != "mut" && self.kind(j) != Some(TokenKind::Lifetime) {
                break;
            }
        }
        let Some(colon) = self.find_at_depth0(lo, hi, ":") else {
            return Param {
                name: None,
                ty: self.normalize(lo, hi),
            };
        };
        let mut p = lo;
        if self.text(p) == "mut" {
            p += 1;
        }
        let name = (self.kind(p) == Some(TokenKind::Ident) && p + 1 == colon)
            .then(|| self.text(p).to_string());
        Param {
            name,
            ty: self.normalize(colon + 1, hi),
        }
    }

    /// Parses the block whose braces sit at `open` and `close`.
    fn block(&mut self, open: usize, close: usize) -> Block {
        let mut stmts = Vec::new();
        let mut i = open + 1;
        while i < close {
            let next = self.stmt(i, close, &mut stmts);
            if next <= i {
                i += 1; // recovery: always make progress
            } else {
                i = next;
            }
        }
        Block {
            stmts,
            span: (open, close + 1),
        }
    }

    /// Parses one statement starting at `i`; pushes it and returns the
    /// index just past it. `limit` is the enclosing block close.
    fn stmt(&mut self, start_raw: usize, limit: usize, out: &mut Vec<Stmt>) -> usize {
        let i = self.skip_attrs(start_raw, limit);
        if i >= limit {
            return limit;
        }
        let line = self.line(i);
        match self.text(i) {
            ";" => i + 1, // stray semicolon owns no statement
            "let" => self.let_stmt(start_raw, i, limit, out),
            "if" => self.if_stmt(start_raw, i, limit, out),
            "match" => self.match_stmt(start_raw, i, limit, out),
            "loop" | "while" | "for" => self.loop_stmt(start_raw, i, limit, out),
            "return" => {
                let semi = self.find_at_depth0(i + 1, limit, ";").unwrap_or(limit);
                let value = (semi > i + 1).then(|| self.expr(i + 1, semi));
                let end = (semi + 1).min(limit);
                out.push(Stmt {
                    kind: StmtKind::Return { value },
                    line,
                    span: (start_raw, end),
                });
                end
            }
            "break" | "continue" => {
                let is_break = self.text(i) == "break";
                let semi = self.find_at_depth0(i + 1, limit, ";").unwrap_or(limit);
                let end = (semi + 1).min(limit);
                out.push(Stmt {
                    kind: if is_break {
                        StmtKind::Break
                    } else {
                        StmtKind::Continue
                    },
                    line,
                    span: (start_raw, end),
                });
                end
            }
            "unsafe" if self.text(i + 1) == "{" => {
                let close = self.matching(i + 1, limit);
                let block = self.block(i + 1, close);
                out.push(Stmt {
                    kind: StmtKind::BareBlock { block },
                    line,
                    span: (start_raw, close + 1),
                });
                close + 1
            }
            "{" => {
                let close = self.matching(i, limit);
                let block = self.block(i, close);
                out.push(Stmt {
                    kind: StmtKind::BareBlock { block },
                    line,
                    span: (start_raw, close + 1),
                });
                close + 1
            }
            "fn" | "struct" | "impl" | "mod" | "use" | "static" | "type" | "macro_rules"
            | "trait" | "enum" => {
                let end = self.skip_item(i, limit);
                out.push(Stmt {
                    kind: StmtKind::Opaque,
                    line,
                    span: (start_raw, end),
                });
                end
            }
            "const" if self.kind(i + 1) == Some(TokenKind::Ident) && self.text(i + 1) != "fn" => {
                let end = self.skip_item(i, limit);
                out.push(Stmt {
                    kind: StmtKind::Opaque,
                    line,
                    span: (start_raw, end),
                });
                end
            }
            _ => {
                // Expression statement: run to `;` at depth 0 or the
                // block end (tail expression). Brace groups inside are
                // skipped whole so `x = if c { a } else { b };` works.
                let mut depth = 0i32;
                let mut j = i;
                let mut semi = limit;
                while j < limit {
                    match self.text(j) {
                        "(" | "[" => depth += 1,
                        ")" | "]" => depth -= 1,
                        "{" if depth == 0 => {
                            j = self.matching(j, limit);
                        }
                        "{" => depth += 1,
                        "}" => depth -= 1,
                        ";" if depth == 0 => {
                            semi = j;
                            break;
                        }
                        _ => {}
                    }
                    j += 1;
                }
                let end = if semi < limit { semi + 1 } else { limit };
                let expr = self.expr(i, semi.min(limit));
                out.push(Stmt {
                    kind: StmtKind::Expr { expr },
                    line,
                    span: (start_raw, end),
                });
                end
            }
        }
    }

    /// `let` statement with optional annotation, initializer and
    /// `else` block.
    fn let_stmt(&mut self, start_raw: usize, i: usize, limit: usize, out: &mut Vec<Stmt>) -> usize {
        let line = self.line(i);
        // Find the top-level `=` (angle-aware so `let x: Vec<u8> =`
        // does not trip on generics) and the statement-ending `;`.
        let mut depth = 0i32;
        let mut angle = 0i32;
        let mut eq = None;
        let mut semi = limit;
        let mut else_open = None;
        let mut j = i + 1;
        while j < limit {
            let t = self.text(j);
            match t {
                "(" | "[" => depth += 1,
                ")" | "]" => depth -= 1,
                "<" if eq.is_none() => {
                    let prev = self.text(j.saturating_sub(1));
                    if self.kind(j.saturating_sub(1)) == Some(TokenKind::Ident)
                        || prev == ">"
                        || prev == "::"
                    {
                        angle += 1;
                    }
                }
                ">" if eq.is_none() && angle > 0 => angle -= 1,
                "=" if depth == 0 && angle == 0 && eq.is_none() => eq = Some(j),
                "else" if depth == 0 && eq.is_some() && self.text(j + 1) == "{" => {
                    else_open = Some(j + 1);
                    let close = self.matching(j + 1, limit);
                    j = close;
                }
                "{" if depth == 0 => j = self.matching(j, limit),
                "{" => depth += 1,
                "}" => depth -= 1,
                ";" if depth == 0 => {
                    semi = j;
                    break;
                }
                _ => {}
            }
            j += 1;
        }
        let init_end = else_open.map(|o| o - 1).unwrap_or(semi);
        let init = eq
            .filter(|&e| e + 1 < init_end)
            .map(|e| self.expr(e + 1, init_end));
        let else_block = else_open.map(|o| {
            let close = self.matching(o, limit);
            self.block(o, close)
        });
        let end = (semi + 1).min(limit);
        out.push(Stmt {
            kind: StmtKind::Let { init, else_block },
            line,
            span: (start_raw, end),
        });
        end
    }

    /// `if cond { … } [else if … | else { … }]`.
    fn if_stmt(&mut self, start_raw: usize, i: usize, limit: usize, out: &mut Vec<Stmt>) -> usize {
        let line = self.line(i);
        let Some(open) = self.find_at_depth0(i + 1, limit, "{") else {
            out.push(Stmt {
                kind: StmtKind::Opaque,
                line,
                span: (start_raw, limit),
            });
            return limit;
        };
        let cond = self.expr(i + 1, open);
        let close = self.matching(open, limit);
        let then_b = self.block(open, close);
        let mut end = close + 1;
        let mut else_b = None;
        if self.text(end) == "else" {
            if self.text(end + 1) == "if" {
                let mut nested = Vec::new();
                let after = self.if_stmt(end + 1, end + 1, limit, &mut nested);
                else_b = Some(Block {
                    stmts: nested,
                    span: (end + 1, after),
                });
                end = after;
            } else if self.text(end + 1) == "{" {
                let eclose = self.matching(end + 1, limit);
                else_b = Some(self.block(end + 1, eclose));
                end = eclose + 1;
            }
        }
        out.push(Stmt {
            kind: StmtKind::If {
                cond,
                then_b,
                else_b,
            },
            line,
            span: (start_raw, end),
        });
        end
    }

    /// `match scrut { pat [guard] => body, … }`.
    fn match_stmt(
        &mut self,
        start_raw: usize,
        i: usize,
        limit: usize,
        out: &mut Vec<Stmt>,
    ) -> usize {
        let line = self.line(i);
        let Some(open) = self.find_at_depth0(i + 1, limit, "{") else {
            out.push(Stmt {
                kind: StmtKind::Opaque,
                line,
                span: (start_raw, limit),
            });
            return limit;
        };
        let scrut = self.expr(i + 1, open);
        let close = self.matching(open, limit);
        let mut arms = Vec::new();
        let mut j = open + 1;
        while j < close {
            j = self.skip_attrs(j, close);
            if j >= close {
                break;
            }
            let Some(arrow) = self.find_at_depth0(j, close, "=>") else {
                break;
            };
            let pat = self.normalize(j, arrow);
            let arm_line = self.line(j);
            let body_start = arrow + 1;
            let body = if self.text(body_start) == "{" {
                let bclose = self.matching(body_start, close);
                let b = self.block(body_start, bclose);
                j = bclose + 1;
                if self.text(j) == "," {
                    j += 1;
                }
                b
            } else {
                // Expression arm: parse as one statement terminated at
                // the arm-separating comma, so `return`/`continue`
                // arms still shape the CFG.
                let arm_end = self.find_at_depth0(body_start, close, ",").unwrap_or(close);
                let mut stmts = Vec::new();
                let mut k = body_start;
                while k < arm_end {
                    let next = self.stmt(k, arm_end, &mut stmts);
                    k = if next <= k { k + 1 } else { next };
                }
                j = (arm_end + 1).min(close);
                Block {
                    stmts,
                    span: (body_start, arm_end),
                }
            };
            arms.push(Arm {
                pat,
                body,
                line: arm_line,
            });
        }
        out.push(Stmt {
            kind: StmtKind::Match { scrut, arms },
            line,
            span: (start_raw, close + 1),
        });
        close + 1
    }

    /// `loop`/`while [let]`/`for … in …` with body.
    fn loop_stmt(
        &mut self,
        start_raw: usize,
        i: usize,
        limit: usize,
        out: &mut Vec<Stmt>,
    ) -> usize {
        let line = self.line(i);
        let kind = match self.text(i) {
            "loop" => LoopKind::Infinite,
            "while" => LoopKind::While,
            _ => LoopKind::For,
        };
        let Some(open) = self.find_at_depth0(i + 1, limit, "{") else {
            out.push(Stmt {
                kind: StmtKind::Opaque,
                line,
                span: (start_raw, limit),
            });
            return limit;
        };
        let header = match kind {
            LoopKind::Infinite => None,
            LoopKind::While => (open > i + 1).then(|| self.expr(i + 1, open)),
            LoopKind::For => {
                // Header expression is the iterator after `in`.
                let mut lo = i + 1;
                for j in i + 1..open {
                    if self.text(j) == "in" {
                        lo = j + 1;
                        break;
                    }
                }
                (open > lo).then(|| self.expr(lo, open))
            }
        };
        let close = self.matching(open, limit);
        let body = self.block(open, close);
        out.push(Stmt {
            kind: StmtKind::Loop { kind, header, body },
            line,
            span: (start_raw, close + 1),
        });
        close + 1
    }

    /// Scans `[lo, hi)` as an opaque expression, extracting calls, the
    /// top-level assignment, closures and `?`.
    fn expr(&mut self, lo: usize, hi: usize) -> ExprInfo {
        let hi = hi.min(self.toks.len());
        let mut info = ExprInfo {
            span: (lo, hi),
            line: self.line(lo),
            ..ExprInfo::default()
        };
        if lo >= hi {
            return info;
        }
        self.find_closures(lo, hi, &mut info.closures);
        let in_closure =
            |j: usize, closures: &[(usize, usize)]| closures.iter().any(|&(a, b)| j >= a && j < b);

        let mut depth = 0i32;
        for j in lo..hi {
            let t = self.text(j);
            match t {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => depth -= 1,
                "=" | "+=" | "-=" | "*=" | "/=" | "%=" | "^=" | "&=" | "|=" | "<<=" | ">>="
                    if depth == 0 && info.assign.is_none() && !in_closure(j, &info.closures) =>
                {
                    let root = self.text(lo).to_string();
                    let field = (root == "self" && self.text(lo + 1) == ".")
                        .then(|| self.text(lo + 2).to_string());
                    info.assign = Some(Assign {
                        root,
                        field,
                        compound: t != "=",
                    });
                }
                "?" if !in_closure(j, &info.closures) => info.has_question = true,
                _ => {
                    if self.kind(j) == Some(TokenKind::Ident)
                        && self.text(j + 1) == "("
                        && j + 1 < hi
                        && !FLOW_KEYWORDS.contains(&t)
                    {
                        let (recv, qual) = self.call_context(lo, j);
                        info.calls.push(Call {
                            name: t.to_string(),
                            recv,
                            qual,
                            line: self.line(j),
                            col: self.toks.get(j).map(|t| t.col).unwrap_or(1),
                            in_closure: in_closure(j, &info.closures),
                        });
                    }
                }
            }
        }
        info
    }

    /// Records closure literal spans in `[lo, hi)`. A `|` opens a
    /// closure when the previous token cannot end an operand (so
    /// bitwise-or, which is binary, is excluded); the span runs to the
    /// end of the closure body (brace block or one expression).
    fn find_closures(&self, lo: usize, hi: usize, out: &mut Vec<(usize, usize)>) {
        let mut j = lo;
        while j < hi {
            let t = self.text(j);
            let opens = (t == "|"
                && (j == lo || {
                    let p = self.text(j - 1);
                    matches!(
                        p,
                        "(" | "," | "=" | "=>" | "{" | ";" | "return" | "&&" | "||"
                    ) || p == "move"
                }))
                || (t == "move" && self.text(j + 1) == "|");
            if !opens {
                j += 1;
                continue;
            }
            let start = j;
            let bar = if t == "move" { j + 1 } else { j };
            // Matching param-list `|` (params contain no `|`).
            let mut k = bar + 1;
            while k < hi && self.text(k) != "|" {
                k += 1;
            }
            let body_start = k + 1;
            let end = if self.text(body_start) == "{" {
                self.matching(body_start, hi) + 1
            } else {
                // One expression: to `,` or `)` at relative depth 0.
                let mut depth = 0i32;
                let mut m = body_start;
                while m < hi {
                    match self.text(m) {
                        "(" | "[" | "{" => depth += 1,
                        ")" | "]" | "}" if depth == 0 => break,
                        ")" | "]" | "}" => depth -= 1,
                        "," | ";" if depth == 0 => break,
                        _ => {}
                    }
                    m += 1;
                }
                m
            };
            out.push((start, end.min(hi)));
            j = end.max(j + 1);
        }
    }

    /// Receiver chain and `::` qualifier for a call whose name token
    /// is at `name_idx`.
    fn call_context(&self, lo: usize, name_idx: usize) -> (Vec<String>, Option<String>) {
        if name_idx > lo && self.text(name_idx - 1) == "::" {
            let qual = (name_idx >= 2 && self.kind(name_idx - 2) == Some(TokenKind::Ident))
                .then(|| self.text(name_idx - 2).to_string());
            return (Vec::new(), qual);
        }
        let mut recv = Vec::new();
        let mut j = name_idx;
        while j > lo && self.text(j - 1) == "." {
            let p = j - 2;
            if j < 2 {
                break;
            }
            let t = self.text(p);
            match self.kind(p) {
                Some(TokenKind::Ident) => {
                    recv.push(t.to_string());
                    j = p;
                }
                _ if t == ")" => {
                    recv.push("()".to_string());
                    break;
                }
                _ if t == "]" => {
                    // `base[idx].call()` → normalize to `base[]`.
                    let mut depth = 0i32;
                    let mut m = p;
                    loop {
                        let mt = self.text(m);
                        if mt == "]" {
                            depth += 1;
                        } else if mt == "[" {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        if m == lo || m == 0 {
                            break;
                        }
                        m -= 1;
                    }
                    if m > lo && self.kind(m - 1) == Some(TokenKind::Ident) {
                        recv.push(format!("{}[]", self.text(m - 1)));
                    } else {
                        recv.push("[]".to_string());
                    }
                    break;
                }
                _ => break,
            }
        }
        recv.reverse();
        (recv, None)
    }
}

#[cfg(test)]
mod tests {
    use super::super::lexer::lex;
    use super::*;

    fn parse_src(src: &str) -> ParsedFile {
        parse(src, &lex(src))
    }

    #[test]
    fn function_signature_and_owner() {
        let src = "impl Engine { pub(crate) fn persist(&mut self, ctx: &mut EngineCtx, t: f64) -> f64 { t } }";
        let p = parse_src(src);
        assert_eq!(p.functions.len(), 1);
        let f = &p.functions[0];
        assert_eq!(f.name, "persist");
        assert_eq!(f.owner.as_deref(), Some("Engine"));
        assert_eq!(f.params.len(), 3);
        assert_eq!(f.params[1].name.as_deref(), Some("ctx"));
        assert_eq!(f.params[1].ty, "&mut EngineCtx");
        assert_eq!(f.ret_ty.as_deref(), Some("f64"));
        assert!(f.body.is_some());
    }

    #[test]
    fn impl_trait_for_type_owner() {
        let src = "impl UpdateEngine for SequentialEngine { fn persist(&mut self) {} }";
        let p = parse_src(src);
        assert_eq!(p.functions[0].owner.as_deref(), Some("SequentialEngine"));
    }

    #[test]
    fn struct_fields_with_generics() {
        let src =
            "pub struct OooEngine { pub inner: Box<OooCore>, map: BTreeMap<u64, u64>, level: u32 }";
        let p = parse_src(src);
        assert_eq!(p.structs.len(), 1);
        let s = &p.structs[0];
        assert_eq!(s.fields.len(), 3);
        assert_eq!(s.fields[0], ("inner".into(), "Box<OooCore>".into()));
        assert_eq!(s.fields[1], ("map".into(), "BTreeMap<u64,u64>".into()));
        assert_eq!(s.fields[2], ("level".into(), "u32".into()));
    }

    #[test]
    fn let_with_generic_annotation_and_call_extraction() {
        let src = "fn f() { let v: Vec<u8> = make_vec(seed); self.inner.update_node(ctx, n); }";
        let p = parse_src(src);
        let body = p.functions[0].body.as_ref().unwrap();
        assert_eq!(body.stmts.len(), 2);
        let StmtKind::Let { init, .. } = &body.stmts[0].kind else {
            panic!("expected let");
        };
        assert_eq!(init.as_ref().unwrap().calls[0].name, "make_vec");
        let StmtKind::Expr { expr } = &body.stmts[1].kind else {
            panic!("expected expr");
        };
        assert_eq!(expr.calls[0].name, "update_node");
        assert_eq!(expr.calls[0].recv, ["self", "inner"]);
    }

    #[test]
    fn control_flow_statements() {
        let src = r#"
            fn f(x: u32) -> u32 {
                if x > 1 { return 0; } else if x == 1 { noted(); } else { other(); }
                for t in 0..x { step(t); }
                while x > 0 { if done() { break; } continue; }
                match x { 0 => return 1, 1 => { two() } _ => fallback(), }
                loop { body(); }
            }
        "#;
        let p = parse_src(src);
        let body = p.functions[0].body.as_ref().unwrap();
        assert_eq!(body.stmts.len(), 5);
        let StmtKind::If { else_b, .. } = &body.stmts[0].kind else {
            panic!("expected if");
        };
        let else_b = else_b.as_ref().unwrap();
        assert!(matches!(else_b.stmts[0].kind, StmtKind::If { .. }));
        let StmtKind::Match { arms, .. } = &body.stmts[3].kind else {
            panic!("expected match");
        };
        assert_eq!(arms.len(), 3);
        assert!(matches!(
            arms[0].body.stmts[0].kind,
            StmtKind::Return { .. }
        ));
        assert_eq!(arms[2].pat, "_");
    }

    #[test]
    fn question_mark_and_let_else() {
        let src = "fn f() -> Result<(), E> { let Some(x) = get() else { return Err(E); }; use_it(x)?; Ok(()) }";
        let p = parse_src(src);
        let body = p.functions[0].body.as_ref().unwrap();
        let StmtKind::Let { else_block, .. } = &body.stmts[0].kind else {
            panic!("expected let");
        };
        let eb = else_block.as_ref().unwrap();
        assert!(matches!(eb.stmts[0].kind, StmtKind::Return { .. }));
        let StmtKind::Expr { expr } = &body.stmts[1].kind else {
            panic!("expected expr");
        };
        assert!(expr.has_question);
    }

    #[test]
    fn assignment_targets() {
        let src = "fn f() { self.busy_until = t; total += 1; self.drained = self.drained.max(t); }";
        let p = parse_src(src);
        let body = p.functions[0].body.as_ref().unwrap();
        let get = |k: usize| -> &Assign {
            let StmtKind::Expr { expr } = &body.stmts[k].kind else {
                panic!()
            };
            expr.assign.as_ref().unwrap()
        };
        assert_eq!(get(0).root, "self");
        assert_eq!(get(0).field.as_deref(), Some("busy_until"));
        assert_eq!(get(1).root, "total");
        assert!(get(1).compound);
        assert_eq!(get(2).field.as_deref(), Some("drained"));
    }

    #[test]
    fn closures_and_in_closure_calls() {
        let src = "fn f() { items.iter().for_each(|x| sink.push(x)); let g = move |y| self.step_store(y); }";
        let p = parse_src(src);
        let body = p.functions[0].body.as_ref().unwrap();
        let StmtKind::Expr { expr } = &body.stmts[0].kind else {
            panic!()
        };
        let push = expr.calls.iter().find(|c| c.name == "push").unwrap();
        assert!(push.in_closure);
        let for_each = expr.calls.iter().find(|c| c.name == "for_each").unwrap();
        assert!(!for_each.in_closure);
        let StmtKind::Let { init, .. } = &body.stmts[1].kind else {
            panic!()
        };
        let init = init.as_ref().unwrap();
        assert_eq!(init.closures.len(), 1);
        assert!(init
            .calls
            .iter()
            .any(|c| c.name == "step_store" && c.in_closure));
    }

    #[test]
    fn qualified_calls() {
        let src = "fn f() { let x = Failpoint::parse(name); }";
        let p = parse_src(src);
        let body = p.functions[0].body.as_ref().unwrap();
        let StmtKind::Let { init, .. } = &body.stmts[0].kind else {
            panic!()
        };
        let call = &init.as_ref().unwrap().calls[0];
        assert_eq!(call.name, "parse");
        assert_eq!(call.qual.as_deref(), Some("Failpoint"));
    }

    #[test]
    fn spans_nest_and_cover() {
        let src = "fn f(x: u32) { if x > 0 { a(); } else { b(); } c(); }";
        let p = parse_src(src);
        let body = p.functions[0].body.as_ref().unwrap();
        let (lo, hi) = body.span;
        assert!(lo < hi);
        for s in &body.stmts {
            assert!(s.span.0 >= lo && s.span.1 <= hi);
        }
        // Statements are ordered and disjoint.
        for w in body.stmts.windows(2) {
            assert!(w[0].span.1 <= w[1].span.0);
        }
    }

    #[test]
    fn trait_method_declarations_have_no_body() {
        let src = "trait UpdateEngine { fn persist(&mut self) -> f64; fn seal_epoch(&mut self) -> Option<f64> { None } }";
        let p = parse_src(src);
        assert_eq!(p.functions.len(), 2);
        assert!(p.functions[0].body.is_none());
        assert!(p.functions[1].body.is_some());
        assert_eq!(p.functions[0].owner.as_deref(), Some("UpdateEngine"));
    }

    #[test]
    fn recovery_on_unknown_constructs() {
        let src =
            "macro_rules! m { () => {} } fn f() { weird! { tokens }; ok(); } union U { a: u8 }";
        let p = parse_src(src);
        assert_eq!(p.functions.len(), 1);
        let body = p.functions[0].body.as_ref().unwrap();
        assert!(body
            .stmts
            .iter()
            .any(|s| matches!(&s.kind, StmtKind::Expr { expr } if expr.calls.iter().any(|c| c.name == "ok"))));
    }
}
