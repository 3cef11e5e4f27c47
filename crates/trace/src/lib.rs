//! Workload synthesis for the PLP experiments.
//!
//! The paper evaluates on 15 SPEC CPU2006 benchmarks run under Gem5.
//! SPEC binaries and SimPoints are not reproducible here, but every
//! figure in the paper is a function of the *persist stream* — its
//! rate, stack/heap split, spatial locality and epoch structure — and
//! the paper publishes exactly those statistics in Table V. This crate
//! synthesizes address traces with those statistics:
//!
//! * [`Trace`] / [`TraceEvent`] / [`Op`] — the trace record model:
//!   instruction gaps, loads and (stack or heap) stores;
//! * [`WorkloadProfile`] — the statistical shape of a benchmark, with a
//!   builder for custom workloads;
//! * [`TraceGenerator`] — deterministic, seeded generation;
//! * [`spec`] — the 15 calibrated benchmark profiles.
//!
//! # Example
//!
//! ```
//! use plp_trace::{spec, TraceGenerator};
//!
//! let profile = spec::benchmark("gamess").unwrap();
//! let trace = TraceGenerator::new(profile.clone(), 1).generate(500_000);
//! // The generated stream reproduces Table V's store rate.
//! let ppki = trace.store_ppki(false);
//! assert!((ppki - profile.store_ppki_nonstack).abs() / ppki < 0.15);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![warn(clippy::unimplemented, clippy::todo, clippy::exit)]

pub mod codec;
mod event;
mod generator;
mod profile;
pub mod spec;
mod store;

pub use event::{Op, Trace, TraceEvent};
pub use generator::{TraceGenerator, HEAP_BASE_PAGE, STACK_BASE_PAGE, STACK_PAGES};
pub use profile::{WorkloadProfile, WorkloadProfileBuilder};
pub use store::TraceStore;
