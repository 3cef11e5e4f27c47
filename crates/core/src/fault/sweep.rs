//! Crash-point enumeration and the per-scheme robustness sweep.
//!
//! In the spirit of CrashMonkey and ALICE, crash points are not random:
//! the recorded [`TupleTimes`](crate::TupleTimes) partition time into
//! intervals within which the durable state is constant, so sweeping
//! one point per distinct component-persist timestamp covers *every*
//! reachable durable state. A deterministic sampler bounds the work
//! when a run has more distinct timestamps than the budget.

use plp_events::{splitmix64, Cycle};

use crate::{ObserverExpectation, PersistImage, PersistRecord, SystemConfig, UpdateScheme};

use super::{
    splitmix_below, FaultClass, FaultConfig, FaultInjector, FaultSpec, FaultVerdict,
    RecoveryManager,
};

/// Every distinct durable state's representative crash time: cycle 0
/// plus each recorded component-persist timestamp (deduplicated,
/// sorted). When more than `budget` points exist, a seeded sampler
/// keeps the first and last and an even deterministic spread between
/// them.
pub fn enumerate_crash_points(records: &[PersistRecord], budget: usize, seed: u64) -> Vec<Cycle> {
    let mut points: Vec<Cycle> = Vec::with_capacity(records.len() * 4 + 1);
    points.push(Cycle::ZERO);
    for r in records {
        for t in [r.times.data, r.times.counter, r.times.mac, r.times.root] {
            if t < Cycle::MAX {
                points.push(t);
            }
        }
    }
    points.sort_unstable();
    points.dedup();
    if points.len() <= budget || budget == 0 {
        return points;
    }
    // Deterministic stratified sample: one point per equal-width
    // stratum, jittered by the seed, endpoints always kept.
    let mut rng = seed ^ 0x4357_5054_5F53_414D;
    let n = points.len();
    let mut sampled = Vec::with_capacity(budget);
    sampled.push(points[0]);
    for k in 1..budget.saturating_sub(1) {
        let lo = k * n / budget;
        let hi = ((k + 1) * n / budget).max(lo + 1).min(n);
        let pick = splitmix_below(&mut rng, (hi - lo) as u64);
        let idx = lo + usize::try_from(pick).unwrap_or(0);
        sampled.push(points[idx]);
    }
    sampled.push(points[n - 1]);
    sampled.dedup();
    sampled
}

/// One recovery attempt inside a sweep: where the crash hit, what was
/// injected (if anything) and what came out.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultOutcome {
    /// The crash time.
    pub crash_at: Cycle,
    /// The injected fault; `None` for the pure-crash baseline.
    pub spec: Option<FaultSpec>,
    /// The recovery verdict.
    pub verdict: FaultVerdict,
    /// Modeled recovery latency.
    pub recovery_cycles: u64,
}

/// Verdict counts for one fault class across all crash points.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ClassTally {
    /// Attempts where a fault was actually injected (or, for the
    /// baseline, recovery attempts).
    pub attempts: u64,
    /// Injection found no candidate state (e.g. a crash before the
    /// first persist) — nothing to measure.
    pub skipped: u64,
    /// [`FaultVerdict::Clean`] outcomes.
    pub clean: u64,
    /// [`FaultVerdict::Repaired`] outcomes.
    pub repaired: u64,
    /// [`FaultVerdict::DetectedLoss`] outcomes.
    pub detected_loss: u64,
    /// [`FaultVerdict::StaleRollback`] outcomes.
    pub stale_rollback: u64,
    /// [`FaultVerdict::UndetectedCorruption`] outcomes.
    pub undetected_corruption: u64,
    /// Sum of modeled recovery cycles over attempts.
    pub total_recovery_cycles: u64,
}

impl ClassTally {
    fn record(&mut self, verdict: FaultVerdict, cycles: u64) {
        self.attempts += 1;
        self.total_recovery_cycles += cycles;
        match verdict {
            FaultVerdict::Clean => self.clean += 1,
            FaultVerdict::Repaired => self.repaired += 1,
            FaultVerdict::DetectedLoss => self.detected_loss += 1,
            FaultVerdict::StaleRollback => self.stale_rollback += 1,
            FaultVerdict::UndetectedCorruption => self.undetected_corruption += 1,
        }
    }

    /// Attempts whose bad state went unflagged (the contract breach).
    pub fn undetected(&self) -> u64 {
        self.stale_rollback + self.undetected_corruption
    }

    /// Mean modeled recovery cycles per attempt.
    pub fn mean_recovery_cycles(&self) -> u64 {
        self.total_recovery_cycles
            .checked_div(self.attempts)
            .unwrap_or(0)
    }

    /// The worst verdict observed.
    pub fn worst(&self) -> FaultVerdict {
        if self.undetected_corruption > 0 {
            FaultVerdict::UndetectedCorruption
        } else if self.stale_rollback > 0 {
            FaultVerdict::StaleRollback
        } else if self.detected_loss > 0 {
            FaultVerdict::DetectedLoss
        } else if self.repaired > 0 {
            FaultVerdict::Repaired
        } else {
            FaultVerdict::Clean
        }
    }
}

/// The robustness matrix row for one scheme: pure-crash baseline plus
/// one tally per injected fault class.
#[derive(Debug, Clone, PartialEq)]
pub struct SchemeRobustness {
    /// The scheme swept.
    pub scheme: UpdateScheme,
    /// How many crash points were actually swept.
    pub crash_points: usize,
    /// Pure-crash recovery outcomes (no injected fault).
    pub baseline: ClassTally,
    /// Outcomes per injected fault class.
    pub classes: Vec<(FaultClass, ClassTally)>,
    /// Up to eight worst non-clean examples, for reporting.
    pub examples: Vec<FaultOutcome>,
}

impl SchemeRobustness {
    /// The tally for one class, if it was swept.
    pub fn class(&self, class: FaultClass) -> Option<&ClassTally> {
        self.classes
            .iter()
            .find(|(c, _)| *c == class)
            .map(|(_, t)| t)
    }

    /// The detect-or-recover contract: across the pure-crash baseline
    /// and the torn-write and bit-flip classes, no outcome may be
    /// stale-rollback or undetected-corruption. (Dropped-persist
    /// outcomes are excluded: silently resurrecting an older authentic
    /// tuple when the ADR promise itself breaks is undetectable by
    /// construction for *any* integrity scheme.)
    pub fn detect_or_recover_holds(&self) -> bool {
        self.baseline.undetected() == 0
            && [FaultClass::TornWrite, FaultClass::BitFlip]
                .iter()
                .all(|c| self.class(*c).is_none_or(|t| t.undetected() == 0))
    }
}

/// Sweeps recovery across enumerated crash points, injecting each
/// enabled fault class at every point.
#[derive(Debug, Clone)]
pub struct FaultSweep {
    manager: RecoveryManager,
    geometry: plp_bmt::BmtGeometry,
    key: plp_crypto::SipKey,
    fault: FaultConfig,
}

impl FaultSweep {
    /// A sweep using the system's tree shape, key and MAC latency.
    pub fn new(config: &SystemConfig, fault: FaultConfig) -> Self {
        FaultSweep {
            manager: RecoveryManager::for_config(config),
            geometry: config.bmt,
            key: config.key,
            fault,
        }
    }

    /// Runs the full sweep for one scheme's recorded persists.
    pub fn run(&self, scheme: UpdateScheme, records: &[PersistRecord]) -> SchemeRobustness {
        let points =
            enumerate_crash_points(records, self.fault.crash_point_budget, self.fault.seed);
        let classes = self.fault.enabled_classes();
        let mut baseline = ClassTally::default();
        let mut tallies: Vec<(FaultClass, ClassTally)> = classes
            .iter()
            .map(|c| (*c, ClassTally::default()))
            .collect();
        let mut examples: Vec<FaultOutcome> = Vec::new();

        for (pi, &t) in points.iter().enumerate() {
            let image = PersistImage::at_time(records, t, self.geometry, self.key);
            let expected = ObserverExpectation::at_time(records, t);

            // Pure-crash baseline: the scheme's own ordering behaviour.
            let outcome = self.manager.recover(&image, records, &expected);
            record_outcome(
                &mut baseline,
                &mut examples,
                FaultOutcome {
                    crash_at: t,
                    spec: None,
                    verdict: outcome.verdict(),
                    recovery_cycles: outcome.recovery_cycles,
                },
            );

            for (ci, class) in classes.iter().enumerate() {
                let tally = &mut tallies[ci].1;
                for fi in 0..self.fault.faults_per_point {
                    let seed = mix_seed(self.fault.seed, scheme, pi, ci, fi);
                    let mut injector = FaultInjector::new(seed);
                    let (recovered, spec) = match class {
                        FaultClass::TornWrite => {
                            let mut img = image.clone();
                            match injector.torn_write(&mut img, records, t) {
                                Some(spec) => {
                                    (self.manager.recover(&img, records, &expected), spec)
                                }
                                None => {
                                    tally.skipped += 1;
                                    continue;
                                }
                            }
                        }
                        FaultClass::BitFlip => {
                            let mut img = image.clone();
                            match injector.bit_flip(&mut img) {
                                Some(spec) => {
                                    (self.manager.recover(&img, records, &expected), spec)
                                }
                                None => {
                                    tally.skipped += 1;
                                    continue;
                                }
                            }
                        }
                        FaultClass::DroppedPersist => {
                            match injector.drop_persist(records, t) {
                                Some((thinned, spec)) => {
                                    let img =
                                        PersistImage::at_time(&thinned, t, self.geometry, self.key);
                                    // History and expectations stay the
                                    // original run's: the program saw
                                    // the ack.
                                    (self.manager.recover(&img, records, &expected), spec)
                                }
                                None => {
                                    tally.skipped += 1;
                                    continue;
                                }
                            }
                        }
                    };
                    record_outcome(
                        tally,
                        &mut examples,
                        FaultOutcome {
                            crash_at: t,
                            spec: Some(spec),
                            verdict: recovered.verdict(),
                            recovery_cycles: recovered.recovery_cycles,
                        },
                    );
                }
            }
        }

        SchemeRobustness {
            scheme,
            crash_points: points.len(),
            baseline,
            classes: tallies,
            examples,
        }
    }
}

fn record_outcome(tally: &mut ClassTally, examples: &mut Vec<FaultOutcome>, outcome: FaultOutcome) {
    tally.record(outcome.verdict, outcome.recovery_cycles);
    if outcome.verdict > FaultVerdict::Repaired && examples.len() < 8 {
        examples.push(outcome);
    }
}

/// Folds (seed, scheme, crash point, class, fault index) into one
/// per-injection seed, so every injection replays independently.
fn mix_seed(seed: u64, scheme: UpdateScheme, point: usize, class: usize, fault: usize) -> u64 {
    let mut s = seed;
    for byte in scheme.name().bytes() {
        s = s.wrapping_mul(0x100_0000_01B3) ^ byte as u64;
    }
    let mut state =
        s ^ (point as u64).wrapping_mul(0x9E37_79B9) ^ (class as u64) << 48 ^ (fault as u64) << 56;
    splitmix64(&mut state)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_with_crash, SystemConfig};
    use plp_trace::{TraceGenerator, WorkloadProfile};

    fn profile() -> WorkloadProfile {
        WorkloadProfile::builder("sweep")
            .base_ipc(1.0)
            .store_ppki(50.0, 20.0)
            .load_ppki(60.0)
            .locality(0.7, 128, 16.0)
            .build()
    }

    fn records_for(scheme: UpdateScheme, instructions: u64) -> Vec<crate::PersistRecord> {
        let mut cfg = SystemConfig::for_scheme(scheme);
        cfg.record_persists = true;
        let trace = TraceGenerator::new(profile(), 7).generate(instructions);
        let (report, _, _) = run_with_crash(&cfg, 1.0, &trace, None);
        report.records
    }

    #[test]
    fn enumeration_covers_every_distinct_timestamp_when_unbudgeted() {
        let records = records_for(UpdateScheme::Sp, 2_000);
        assert!(!records.is_empty());
        let points = enumerate_crash_points(&records, usize::MAX, 1);
        assert_eq!(points[0], Cycle::ZERO);
        assert!(points.windows(2).all(|w| w[0] < w[1]), "sorted, deduped");
        // Every component timestamp is present.
        for r in &records {
            for t in [r.times.data, r.times.counter, r.times.mac, r.times.root] {
                assert!(points.binary_search(&t).is_ok(), "missing point {t:?}");
            }
        }
    }

    #[test]
    fn budgeted_enumeration_is_deterministic_and_keeps_endpoints() {
        let records = records_for(UpdateScheme::Sp, 12_000);
        let all = enumerate_crash_points(&records, usize::MAX, 1);
        assert!(all.len() > 100, "workload too small: {}", all.len());
        let a = enumerate_crash_points(&records, 100, 42);
        let b = enumerate_crash_points(&records, 100, 42);
        assert_eq!(a, b);
        assert!(a.len() <= 100 && a.len() >= 90);
        assert_eq!(a[0], all[0]);
        assert_eq!(*a.last().unwrap(), *all.last().unwrap());
        let c = enumerate_crash_points(&records, 100, 43);
        assert_ne!(a, c, "different seeds sample different interiors");
    }

    #[test]
    fn correct_scheme_sweep_has_zero_undetected() {
        let records = records_for(UpdateScheme::Pipeline, 3_000);
        let cfg = SystemConfig::for_scheme(UpdateScheme::Pipeline);
        let sweep = FaultSweep::new(&cfg, FaultConfig::acceptance(7));
        let result = sweep.run(UpdateScheme::Pipeline, &records);
        assert!(result.detect_or_recover_holds(), "{:?}", result.examples);
        assert_eq!(result.baseline.worst(), FaultVerdict::Clean);
        // Real faults were actually injected and detected.
        let torn = result.class(FaultClass::TornWrite).unwrap();
        let flip = result.class(FaultClass::BitFlip).unwrap();
        assert!(torn.attempts > 0 && flip.attempts > 0);
        assert!(
            torn.detected_loss > 0,
            "torn writes must surface as detected loss: {torn:?}"
        );
        assert!(flip.detected_loss + flip.repaired > 0, "{flip:?}");
    }

    #[test]
    fn sweep_replays_identically_from_the_seed() {
        let records = records_for(UpdateScheme::O3, 1_500);
        let cfg = SystemConfig::for_scheme(UpdateScheme::O3);
        let sweep = FaultSweep::new(&cfg, FaultConfig::all_classes(11));
        let a = sweep.run(UpdateScheme::O3, &records);
        let b = sweep.run(UpdateScheme::O3, &records);
        assert_eq!(a, b);
    }

    #[test]
    fn dropped_persists_surface_as_stale_rollback_not_silent_garbage() {
        let records = records_for(UpdateScheme::Sp, 2_000);
        let cfg = SystemConfig::for_scheme(UpdateScheme::Sp);
        let sweep = FaultSweep::new(&cfg, FaultConfig::all_classes(3));
        let result = sweep.run(UpdateScheme::Sp, &records);
        let drop = result.class(FaultClass::DroppedPersist).unwrap();
        assert!(drop.attempts > 0);
        assert_eq!(
            drop.undetected_corruption, 0,
            "a dropped persist must never decay into silent garbage"
        );
        assert!(
            drop.stale_rollback > 0,
            "dropping the newest tuple should roll back undetectably: {drop:?}"
        );
        // The torn/bit-flip contract still holds even with drops on.
        assert!(result.detect_or_recover_holds());
    }

    #[test]
    fn unordered_baseline_shows_failures_but_never_silent_garbage() {
        let records = records_for(UpdateScheme::Unordered, 3_000);
        let cfg = SystemConfig::for_scheme(UpdateScheme::Unordered);
        let sweep = FaultSweep::new(&cfg, FaultConfig::acceptance(7));
        let result = sweep.run(UpdateScheme::Unordered, &records);
        assert!(
            result.baseline.worst() > FaultVerdict::Clean,
            "unordered must fail somewhere: {:?}",
            result.baseline
        );
        assert_eq!(
            result.baseline.undetected_corruption
                + result
                    .classes
                    .iter()
                    .map(|(_, t)| t.undetected_corruption)
                    .sum::<u64>(),
            0,
            "MAC + BMT must still catch every non-authentic state"
        );
    }
}
