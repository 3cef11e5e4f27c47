//! A thread-safe store of generated traces.
//!
//! Trace generation is a pure function of `(profile, seed,
//! instructions)`, so every configuration that simulates the same
//! workload at the same length can share one generated [`Trace`]. The
//! experiment harness runs hundreds of configurations over fifteen
//! profiles; the store makes each trace exist exactly once, behind an
//! [`Arc`] that worker threads clone freely.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use crate::{Trace, TraceGenerator, WorkloadProfile};

/// A memoized trace generator, shareable across worker threads.
///
/// # Example
///
/// ```
/// use plp_trace::{spec, TraceStore};
///
/// let store = TraceStore::new();
/// let profile = spec::benchmark("gcc").unwrap();
/// let a = store.get(&profile, 10_000, 7);
/// let b = store.get(&profile, 10_000, 7);
/// // Same workload, same length, same seed: one shared trace.
/// assert!(std::sync::Arc::ptr_eq(&a, &b));
/// assert_eq!(store.len(), 1);
/// ```
#[derive(Debug, Default)]
pub struct TraceStore {
    traces: Mutex<HashMap<(String, u64, u64), Arc<Trace>>>,
}

impl TraceStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the trace for `(profile, instructions, seed)`,
    /// generating it on first request. Generation happens outside the
    /// store lock so concurrent requests for *different* traces never
    /// serialize; a racing duplicate generation is discarded (the
    /// generator is deterministic, so both race entrants produce the
    /// same trace).
    pub fn get(&self, profile: &WorkloadProfile, instructions: u64, seed: u64) -> Arc<Trace> {
        let key = (profile.name.clone(), instructions, seed);
        #[expect(
            clippy::unwrap_used,
            reason = "a poisoned lock means another thread already panicked"
        )]
        if let Some(t) = self.traces.lock().unwrap().get(&key) {
            return Arc::clone(t);
        }
        let generated = Arc::new(TraceGenerator::new(profile.clone(), seed).generate(instructions));
        #[expect(
            clippy::unwrap_used,
            reason = "a poisoned lock means another thread already panicked"
        )]
        Arc::clone(self.traces.lock().unwrap().entry(key).or_insert(generated))
    }

    /// How many distinct traces the store holds.
    pub fn len(&self) -> usize {
        #[expect(
            clippy::unwrap_used,
            reason = "a poisoned lock means another thread already panicked"
        )]
        self.traces.lock().unwrap().len()
    }

    /// Whether the store holds no traces yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec;

    #[test]
    fn distinct_keys_get_distinct_traces() {
        let store = TraceStore::new();
        let gcc = spec::benchmark("gcc").unwrap();
        let milc = spec::benchmark("milc").unwrap();
        let a = store.get(&gcc, 5_000, 1);
        let b = store.get(&milc, 5_000, 1);
        let c = store.get(&gcc, 5_000, 2);
        let d = store.get(&gcc, 6_000, 1);
        assert!(!Arc::ptr_eq(&a, &b));
        assert!(!Arc::ptr_eq(&a, &c));
        assert!(!Arc::ptr_eq(&a, &d));
        assert_eq!(store.len(), 4);
    }

    #[test]
    fn stored_trace_matches_direct_generation() {
        let store = TraceStore::new();
        let profile = spec::benchmark("astar").unwrap();
        let shared = store.get(&profile, 4_000, 9);
        let direct = TraceGenerator::new(profile, 9).generate(4_000);
        assert_eq!(*shared, direct);
    }

    #[test]
    fn store_is_shareable_across_threads() {
        let store = TraceStore::new();
        let profile = spec::benchmark("gcc").unwrap();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    let t = store.get(&profile, 3_000, 5);
                    assert!(t.total_instructions() >= 3_000);
                });
            }
        });
        assert_eq!(store.len(), 1);
    }
}
