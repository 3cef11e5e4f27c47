//! # PLP — Persist-Level Parallelism for Secure Persistent Memory
//!
//! A full-system reproduction of *"Persist Level Parallelism:
//! Streamlining Integrity Tree Updates for Secure Persistent Memory"*
//! (Freij, Yuan, Zhou, Solihin — MICRO 2020).
//!
//! This facade crate re-exports the whole stack:
//!
//! * [`events`] — time, addresses, the seeded retry policy and
//!   `splitmix64`, throughput and geometric-mean statistics;
//! * [`crypto`] — counter-mode encryption, split counters, stateful MACs;
//! * [`bmt`] — Bonsai Merkle Tree geometry, labelling, LCA and the
//!   functional integrity tree;
//! * [`cache`] — set-associative caches and the metadata caches;
//! * [`nvm`] — the PCM-style NVM device model;
//! * [`trace`] — workload synthesis calibrated to the paper's Table V;
//! * [`core`] — the paper's contribution: memory tuples, the 2-step
//!   persist WPQ, the PTT/ETT schedulers, the six BMT update engines,
//!   persistency models, crash injection and the recovery checker.
//!
//! # Quickstart
//!
//! ```
//! use plp::core::{SimSetup, SystemConfig, UpdateScheme};
//! use plp::trace::{spec::benchmark, TraceGenerator};
//!
//! // Simulate the paper's `coalescing` scheme on a short gcc-like trace.
//! let profile = benchmark("gcc").expect("known benchmark");
//! let trace = TraceGenerator::new(profile.clone(), 42).generate(20_000);
//!
//! let mut config = SystemConfig::default();
//! config.scheme = UpdateScheme::Coalescing;
//! let setup = SimSetup::new(config).expect("valid configuration");
//! let report = setup.simulation().run(&trace);
//! assert!(report.total_cycles.get() > 0);
//! ```

pub use plp_bmt as bmt;
pub use plp_cache as cache;
pub use plp_core as core;
pub use plp_crypto as crypto;
pub use plp_events as events;
pub use plp_nvm as nvm;
pub use plp_trace as trace;
