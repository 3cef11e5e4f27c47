//! Custom static analysis for the PLP workspace: the rules clippy
//! cannot express.
//!
//! The simulator's correctness argument rests on the paper's tuple
//! atomicity and persist order, and on source conventions that uphold
//! them: every engine persist path notes its BMT updates before it
//! seals, every path through the persist and recovery drivers crosses
//! a crash-harness failpoint, BMT nodes stay arena-backed, every
//! `match` over the update scheme is revisited when a scheme is added,
//! and retry loops take their schedule from the shared policy. The
//! generic rules (no panics or `exit` in libraries, no lossy casts in
//! the address math, no wall clocks, no stray process kills) are clippy
//! lints configured by the root `clippy.toml` and each crate root.
//!
//! This crate is the domain enforcement: a dependency-free pipeline of
//! token lexer, item parser, CFGs and dataflow ([`lint`], [`passes`])
//! and the `plp-lint` binary that `scripts/verify.sh` gates on.
//! Deliberate exceptions are annotated in the source as
//!
//! ```text
//! // lint: allow(<rule>) <reason>
//! ```
//!
//! on the offending line or the line above; the reason is mandatory,
//! so every exception documents itself. Rule identifiers and their
//! definitions live in [`lint::rules`].

#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![warn(clippy::unimplemented, clippy::todo, clippy::exit)]

pub mod cfg;
pub mod dataflow;
pub mod lint;
pub mod passes;
pub mod syntax;

pub use lint::rules::{Finding, RuleId, RULES};
pub use lint::scan::SourceModel;
pub use lint::{lint_file, FileReport};
