//! Syntax layer of the analysis pipeline: token lexer ([`lexer`]) and
//! the recovery-tolerant item parser ([`parse`]) that the CFG builder
//! and the semantic passes consume.
//!
//! The parser is deliberately *not* a full Rust grammar: it recognizes
//! the items and statements the semantic passes reason about
//! (functions with their impl owner, parameter and return types,
//! struct field types, `let`/`if`/`match`/loops/`return`/`break`/
//! `continue`/`?`) and treats everything else as opaque expression
//! text from which it still extracts calls and assignments.
//! Unknown constructs degrade to opaque statements instead of errors,
//! so a parse always succeeds and the passes stay conservative.

pub mod lexer;
pub mod parse;

pub use lexer::{lex, Comment, Token, TokenKind, TokenStream};
pub use parse::{
    parse, Arm, Assign, Block, Call, ExprInfo, Function, LoopKind, Param, ParsedFile, Stmt, StmtKind,
    StructDef,
};
