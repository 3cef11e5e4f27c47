//! Base types shared by every crate of the PLP simulator.
//!
//! * [`Cycle`] and [`Freq`] — the simulated clock, a strongly-typed
//!   `u64` cycle count, and the nanosecond-to-cycle conversion the NVM
//!   timing model uses;
//! * [`addr`] — 64-byte block and 4 KiB page addresses;
//! * [`retry`] — the workspace's one seeded retry/backoff policy, and
//!   [`splitmix64`], the deterministic stream behind it and behind
//!   every fault draw;
//! * [`stats`] — harness throughput accumulators and the geometric
//!   mean every figure summarises with;
//! * [`FastMap`] — a `HashMap` with a one-multiply Fibonacci hasher,
//!   the one hasher for the integer-keyed maps on the persist path;
//! * [`frame`] — the one checksummed byte envelope (FNV-1a 64) that
//!   device images, run-cache entries and trace files are made of, and
//!   the bounds-checked payload [`frame::Reader`] every decoder uses.
//!
//! Timing itself lives with the component it models: the WPQ in
//! `plp-core`, banked PCM timing in `plp-nvm`. Everything here is
//! deterministic — identical seeds give bit-identical results.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![warn(clippy::unimplemented, clippy::todo, clippy::exit)]

pub mod addr;
mod fastmap;
pub mod frame;
pub mod retry;
pub mod stats;
mod time;

pub use fastmap::FastMap;
pub use retry::splitmix64;
pub use time::{Cycle, Freq};
