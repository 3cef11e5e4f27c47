//! Cache models for the PLP simulator.
//!
//! Provides the set-associative [`Cache`] used both for the data
//! hierarchy and for the three discrete security-metadata caches the
//! paper assumes (§V: a counter cache, a MAC cache and a BMT cache),
//! plus the three-level [`Hierarchy`] with cascading evictions and
//! write-back / write-through store handling.
//!
//! Caches here track *presence and dirtiness* — the timing-relevant
//! state. Functional contents (ciphertexts, counters, tree nodes) live
//! in the backing stores of `plp-core`, which keeps each model simple
//! and independently testable.
//!
//! # Example
//!
//! ```
//! use plp_cache::{Cache, CacheConfig};
//! use plp_events::addr::BlockAddr;
//!
//! // The paper's default BMT cache: 128 KB, 8-way.
//! let mut mtcache = Cache::new(CacheConfig::new(128 << 10, 8));
//! let node_block = BlockAddr::new(42);
//! assert!(!mtcache.lookup(node_block, false).is_hit());
//! mtcache.fill(node_block, false);
//! assert!(mtcache.lookup(node_block, false).is_hit());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![warn(clippy::unimplemented, clippy::todo, clippy::exit)]

#[allow(clippy::module_inception)]
mod cache;
mod config;
mod hierarchy;

pub use cache::{Cache, CacheStats, Evicted, Lookup};
pub use config::CacheConfig;
pub use hierarchy::{HierOutcome, Hierarchy, HitLevel, WriteMode};
