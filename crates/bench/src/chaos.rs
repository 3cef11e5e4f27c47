//! Harness-level chaos injection: a deterministic fault plan that
//! exercises the supervisor (`crate::supervisor`) end to end.
//!
//! Chaos faults attack the *harness*, not the simulated machine
//! (`plp_core::fault` owns that layer): worker panics and artificial
//! stalls fire inside a supervised attempt — the retry driver alone
//! decides, through [`ChaosFault::fires`], which fault fires on which
//! attempt, and the attempt injects it through [`inject`] — and cache
//! faults corrupt on-disk entries before execution so the quarantine
//! path has something real to recover from.
//!
//! Determinism is the load-bearing property. Which fault (if any) a run
//! receives is a pure function of `(chaos seed, run key)` — thread
//! scheduling, worker count and cache temperature cannot change the
//! plan — so two sweeps with the same seed inject the same faults and
//! produce equal [`crate::supervisor::DegradationReport`]s.

use std::collections::BTreeMap;
use std::path::Path;

use plp_core::retry::RetryToken;
use plp_core::RunReport;

use crate::cache;

/// The kinds of harness fault the chaos planner can inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosClass {
    /// The attempt closure panics (exercises `catch_unwind` isolation).
    WorkerPanic,
    /// The attempt sleeps past the watchdog (exercises the timeout
    /// path). The attempt thread is abandoned and finishes in the
    /// background, but only the retry driver touches the cache and the
    /// counters, so it changes nothing.
    WorkerStall,
    /// The run's cache entry is cut short on disk (exercises the
    /// truncation quarantine).
    CacheTruncate,
    /// One byte of the run's cache entry is flipped (exercises the
    /// checksum quarantine).
    CacheBitFlip,
    /// The run's cache entry is replaced by a directory so reads fail
    /// with a genuine IO error (exercises the unreadable-entry
    /// quarantine).
    CacheIoError,
}

impl ChaosClass {
    /// Stable name for report enumeration.
    pub fn name(&self) -> &'static str {
        match self {
            ChaosClass::WorkerPanic => "worker-panic",
            ChaosClass::WorkerStall => "worker-stall",
            ChaosClass::CacheTruncate => "cache-truncate",
            ChaosClass::CacheBitFlip => "cache-bit-flip",
            ChaosClass::CacheIoError => "cache-io-error",
        }
    }

    /// Whether the fault is planted on disk before execution (as
    /// opposed to fired inside the attempt closure).
    pub fn is_cache_fault(&self) -> bool {
        matches!(
            self,
            ChaosClass::CacheTruncate | ChaosClass::CacheBitFlip | ChaosClass::CacheIoError
        )
    }
}

/// One planned fault against one run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosFault {
    /// What goes wrong.
    pub class: ChaosClass,
    /// Which attempt a worker fault fires on (cache faults ignore it).
    pub attempt: u32,
    /// A sticky worker fault fires on *every* attempt from `attempt`
    /// on — unrecoverable by design, for testing graceful degradation.
    pub sticky: bool,
}

impl ChaosFault {
    /// Whether this fault fires on `attempt`: a sticky worker fault on
    /// every attempt from its own on, any other worker fault on its own
    /// attempt only. Cache faults never fire on an attempt — they are
    /// planted on disk before execution.
    pub fn fires(&self, attempt: u32) -> bool {
        !self.class.is_cache_fault()
            && if self.sticky {
                attempt >= self.attempt
            } else {
                attempt == self.attempt
            }
    }
}

impl std::fmt::Display for ChaosFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.class.is_cache_fault() {
            write!(f, "{}", self.class.name())
        } else {
            write!(
                f,
                "{}@{}{}",
                self.class.name(),
                self.attempt,
                if self.sticky { "+" } else { "" }
            )
        }
    }
}

/// How much chaos to plan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosOptions {
    /// Seed of the fault plan.
    pub seed: u64,
    /// Probability in `[0, 1]` that a given run receives a (retryable)
    /// fault.
    pub intensity: f64,
    /// How many runs (the first N in key order) get an unrecoverable
    /// sticky panic instead — zero for a fully recoverable sweep.
    pub unrecoverable: usize,
}

impl ChaosOptions {
    /// A fully recoverable plan at the default intensity.
    pub fn new(seed: u64) -> Self {
        ChaosOptions {
            seed,
            intensity: 0.25,
            unrecoverable: 0,
        }
    }
}

/// The materialized fault plan for one run-key set.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosPlan {
    options: ChaosOptions,
    faults: BTreeMap<String, Vec<ChaosFault>>,
}

impl ChaosPlan {
    /// Plans faults for `keys`: a pure function of the options and the
    /// key set (duplicates collapse; order is irrelevant).
    pub fn generate(options: ChaosOptions, keys: &[String]) -> ChaosPlan {
        let mut sorted: Vec<&String> = keys.iter().collect();
        sorted.sort();
        sorted.dedup();
        let mut faults = BTreeMap::new();
        for key in &sorted {
            if let Some(fault) = Self::fault_for(&options, key) {
                faults.insert((*key).clone(), vec![fault]);
            }
        }
        for key in sorted.iter().take(options.unrecoverable) {
            faults.insert(
                (*key).clone(),
                vec![ChaosFault {
                    class: ChaosClass::WorkerPanic,
                    attempt: 0,
                    sticky: true,
                }],
            );
        }
        ChaosPlan { options, faults }
    }

    /// The per-key fault decision: one splitmix draw seeded by
    /// `seed ^ hash(key)`, high bits deciding *whether*, low bits
    /// deciding *which*.
    fn fault_for(options: &ChaosOptions, key: &str) -> Option<ChaosFault> {
        let draw = RetryToken::new(options.seed).mix_str(key).value();
        let unit = (draw >> 11) as f64 / (1u64 << 53) as f64;
        if unit >= options.intensity {
            return None;
        }
        let class = match draw % 5 {
            0 => ChaosClass::WorkerPanic,
            1 => ChaosClass::WorkerStall,
            2 => ChaosClass::CacheTruncate,
            3 => ChaosClass::CacheBitFlip,
            _ => ChaosClass::CacheIoError,
        };
        Some(ChaosFault {
            class,
            attempt: 0,
            sticky: false,
        })
    }

    /// The faults planned against `key` (empty for unafflicted runs).
    pub fn for_key(&self, key: &str) -> &[ChaosFault] {
        self.faults.get(key).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Total planned faults, counting only those that will actually be
    /// injected (`cache_enabled` gates the plant-time cache classes).
    pub fn injected_count(&self, cache_enabled: bool) -> usize {
        self.descriptions(cache_enabled).len()
    }

    /// Deterministic `"{fault} {key}"` descriptions of every fault
    /// that will be injected, in key order, for the degradation
    /// report's enumeration.
    pub fn descriptions(&self, cache_enabled: bool) -> Vec<String> {
        let mut out = Vec::new();
        for (key, faults) in &self.faults {
            for fault in faults {
                if fault.class.is_cache_fault() && !cache_enabled {
                    continue;
                }
                out.push(format!("{fault} {key}"));
            }
        }
        out
    }

    /// Whether any planned fault is sticky (the sweep cannot fully
    /// recover).
    pub fn has_sticky(&self) -> bool {
        self.faults
            .values()
            .any(|faults| faults.iter().any(|f| f.sticky))
    }

    /// Plants the cache-class faults on disk under `dir`. A truncated
    /// or bit-flipped entry is synthesized from a default report when
    /// the cache is cold, so the fault is injected either way.
    pub fn plant(&self, dir: &Path) {
        let _ = std::fs::create_dir_all(dir);
        for (key, faults) in &self.faults {
            for fault in faults {
                let path = cache::cache_path(dir, key);
                match fault.class {
                    ChaosClass::CacheTruncate => {
                        let bytes = entry_bytes(&path, key);
                        let _ = std::fs::write(&path, &bytes[..bytes.len() / 2]);
                    }
                    ChaosClass::CacheBitFlip => {
                        let mut bytes = entry_bytes(&path, key);
                        let mid = bytes.len() / 2;
                        bytes[mid] ^= 0x01;
                        let _ = std::fs::write(&path, &bytes);
                    }
                    ChaosClass::CacheIoError => {
                        let _ = std::fs::remove_file(&path);
                        let _ = std::fs::create_dir_all(&path);
                    }
                    ChaosClass::WorkerPanic | ChaosClass::WorkerStall => {}
                }
            }
        }
    }
}

/// The run's current cache entry, or a synthesized well-formed one if
/// the cache is cold (or unreadable).
fn entry_bytes(path: &Path, key: &str) -> Vec<u8> {
    match std::fs::read(path) {
        Ok(bytes) if !bytes.is_empty() => bytes,
        _ => cache::encode(key, &RunReport::default()),
    }
}

/// Injects the worker faults firing on an attempt, on the attempt
/// thread. Stalls sleep `stall` (sized past the watchdog by the
/// caller); panics unwind into the attempt thread's `catch_unwind`.
pub fn inject(fire: &[ChaosClass], stall: std::time::Duration) {
    for class in fire {
        match class {
            #[expect(
                clippy::panic,
                reason = "the whole point: an injected panic the supervisor must contain"
            )]
            ChaosClass::WorkerPanic => panic!("chaos: injected worker panic"),
            ChaosClass::WorkerStall => std::thread::sleep(stall),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("bench=b{i}|seed=7")).collect()
    }

    #[test]
    fn plan_is_a_pure_function_of_seed_and_keys() {
        let opts = ChaosOptions {
            seed: 0xC0FFEE,
            intensity: 0.5,
            unrecoverable: 1,
        };
        let mut shuffled = keys(30);
        shuffled.reverse();
        let a = ChaosPlan::generate(opts, &keys(30));
        let b = ChaosPlan::generate(opts, &shuffled);
        assert_eq!(a, b, "key order must not change the plan");
        let c = ChaosPlan::generate(ChaosOptions { seed: 1, ..opts }, &keys(30));
        assert_ne!(a, c, "a different seed should plan different faults");
    }

    #[test]
    fn full_intensity_afflicts_every_run_with_every_class() {
        let opts = ChaosOptions {
            seed: 99,
            intensity: 1.0,
            unrecoverable: 0,
        };
        let ks = keys(40);
        let plan = ChaosPlan::generate(opts, &ks);
        assert_eq!(plan.injected_count(true), 40);
        for class in [
            ChaosClass::WorkerPanic,
            ChaosClass::WorkerStall,
            ChaosClass::CacheTruncate,
            ChaosClass::CacheBitFlip,
            ChaosClass::CacheIoError,
        ] {
            assert!(
                ks.iter()
                    .any(|k| plan.for_key(k).iter().any(|f| f.class == class)),
                "40 draws should cover class {}",
                class.name()
            );
        }
        assert!(!plan.has_sticky());
        // Without a cache, plant-time faults are not injected and the
        // enumeration says so.
        assert!(plan.injected_count(false) < plan.injected_count(true));
    }

    #[test]
    fn faults_fire_on_their_attempt_and_sticky_ones_after() {
        let fault = |class, sticky| ChaosFault {
            class,
            attempt: 1,
            sticky,
        };
        let once = fault(ChaosClass::WorkerStall, false);
        assert_eq!(
            (0..4).map(|a| once.fires(a)).collect::<Vec<_>>(),
            [false, true, false, false]
        );
        let sticky = fault(ChaosClass::WorkerPanic, true);
        assert_eq!(
            (0..4).map(|a| sticky.fires(a)).collect::<Vec<_>>(),
            [false, true, true, true]
        );
        // Cache faults are planted before execution, never fired.
        let planted = fault(ChaosClass::CacheBitFlip, true);
        assert!((0..4).all(|a| !planted.fires(a)));
    }

    #[test]
    fn unrecoverable_runs_get_sticky_panics() {
        let opts = ChaosOptions {
            seed: 5,
            intensity: 0.0,
            unrecoverable: 2,
        };
        let ks = keys(10);
        let plan = ChaosPlan::generate(opts, &ks);
        assert!(plan.has_sticky());
        assert_eq!(plan.injected_count(true), 2);
        let mut sorted = ks.clone();
        sorted.sort();
        for key in &sorted[..2] {
            assert_eq!(
                plan.for_key(key),
                &[ChaosFault {
                    class: ChaosClass::WorkerPanic,
                    attempt: 0,
                    sticky: true
                }]
            );
        }
    }

    #[test]
    fn planted_cache_faults_are_quarantined_on_load() {
        let dir = std::env::temp_dir().join(format!("plp-chaos-plant-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let ks = vec![
            "truncate-me".to_string(),
            "flip-me".to_string(),
            "eisdir-me".to_string(),
        ];
        // Hand-build a plan hitting each cache class deterministically.
        let mut faults = BTreeMap::new();
        for (key, class) in ks.iter().zip([
            ChaosClass::CacheTruncate,
            ChaosClass::CacheBitFlip,
            ChaosClass::CacheIoError,
        ]) {
            faults.insert(
                key.clone(),
                vec![ChaosFault {
                    class,
                    attempt: 0,
                    sticky: false,
                }],
            );
        }
        let plan = ChaosPlan {
            options: ChaosOptions::new(0),
            faults,
        };
        // Warm the cache for one key so planting corrupts a real entry.
        cache::store(&dir, &ks[1], &RunReport::default());
        plan.plant(&dir);
        for key in &ks {
            match cache::load_checked(&dir, key) {
                cache::CacheOutcome::Quarantined { .. } => {}
                other => panic!("planted fault for '{key}' should quarantine, got {other:?}"),
            }
            // The slot is clean again: a re-probe misses, a store works.
            assert!(matches!(
                cache::load_checked(&dir, key),
                cache::CacheOutcome::Miss
            ));
            cache::store(&dir, key, &RunReport::default());
            assert!(matches!(
                cache::load_checked(&dir, key),
                cache::CacheOutcome::Hit(_)
            ));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
