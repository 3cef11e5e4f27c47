//! End-to-end and per-layer host-time benchmark of the PLP simulator
//! and its experiment harness.
//!
//! Four workloads drive the public API of `plp-bench` and `plp-core`
//! from one process (see `README.md` for why each exists):
//! `paper_sweep`, `ci_sweep`, `cache_replay` and `crash_recovery`. An
//! untraced run measures the end-to-end metrics; a separate traced run
//! records spans around every call the benchmark makes into a layer
//! and derives the per-layer ledger. Simulated statistics are outputs
//! the benchmark checks and fingerprints, never metrics.

pub mod crash;
pub mod host;
pub mod metrics;
pub mod replay;
pub mod run;
pub mod span;
pub mod stats;
pub mod sweep;
