//! Persist-level parallelism for secure persistent memory.
//!
//! This crate is the paper's contribution: given the substrates
//! (crypto, BMT, caches, NVM, traces), it implements
//!
//! * the **memory tuple** `(C, γ, M, R)` and its per-component persist
//!   timing ([`PersistRecord`], [`TupleTimes`]) — Invariant 1;
//! * the **2-step persist WPQ** ([`Wpq`]) that gathers and locks
//!   tuples in the ADR domain (§IV-A1);
//! * the **six update schemes** of Table IV ([`UpdateScheme`]) with
//!   their engines: sequential, PTT-pipelined (PLP 1), unordered,
//!   ETT out-of-order (PLP 2) and LCA-coalescing (PLP 3);
//! * **persistency models**: strict (per-store) and epoch (sfence
//!   boundaries every [`SystemConfig::epoch_size`] stores);
//! * the **full-system simulator** (an immutable [`SimSetup`] minting
//!   single-use [`Simulation`]s) driven by `plp-trace` workloads;
//! * **crash injection and recovery checking** ([`PersistImage`],
//!   [`RecoveryChecker`]) implementing the Table I / Table II failure
//!   taxonomy — Invariant 2 as an executable check;
//! * the **SGX counter-tree cost model** of §V-D ([`sgx`]).
//!
//! # Example
//!
//! ```
//! use plp_core::{run_benchmark, SystemConfig, UpdateScheme};
//! use plp_trace::spec;
//!
//! let profile = spec::benchmark("gcc").unwrap();
//! let base = run_benchmark(
//!     &profile, &SystemConfig::for_scheme(UpdateScheme::SecureWb), 30_000, 1);
//! let sp = run_benchmark(
//!     &profile, &SystemConfig::for_scheme(UpdateScheme::Sp), 30_000, 1);
//! // Strict persistency with sequential updates is dramatically
//! // slower than the no-persistency baseline (Fig. 8).
//! assert!(sp.normalized_to(&base) > 2.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![warn(clippy::unimplemented, clippy::todo, clippy::exit)]
#![warn(
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    clippy::cast_possible_wrap
)]

mod config;
pub mod crash;
pub mod engine;
mod error;
pub mod failpoint;
pub mod fault;
pub mod meta;
mod recovery;
mod report;
pub mod retry;
pub mod sanitizer;
pub mod sgx;
mod system;
mod tuple;
mod wpq;

pub use config::{ProtectionScope, SystemConfig, UpdateScheme};
pub use crash::{
    recover_image, recovery_scratch_path, replay_image, DurableSink, RecoveryWriteback,
    ReplayedImage,
};
pub use error::ConfigError;
pub use failpoint::{Failpoint, FailpointPlan, FailpointRegistry, FiredFailpoint};
pub use fault::{
    BlockFate, FaultClass, FaultConfig, FaultInjector, FaultOutcome, FaultSpec, FaultSweep,
    FaultVerdict, RebuildStrategy, RecoveryError, RecoveryManager, RecoveryOutcome, RootStatus,
    SchemeRobustness,
};
pub use recovery::{
    with_component_lost, with_component_reordered, ObserverExpectation, PersistImage,
    RecoveryChecker, RecoveryCost, RecoveryReport, TupleComponent,
};
pub use report::RunReport;
pub use sanitizer::{
    Sanitizer, SanitizerMode, SanitizerSummary, SchemeContract, Violation, ViolationKind,
};
pub use system::{run_benchmark, run_trace, run_with_crash, FinishedSim, SimSetup, Simulation};
pub use tuple::{EpochId, PersistId, PersistRecord, TupleTimes};
pub use wpq::Wpq;
