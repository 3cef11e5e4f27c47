//! Fault injection and active recovery.
//!
//! Three layers on top of the passive crash machinery in
//! [`crate::recovery`]:
//!
//! * [`FaultInjector`] — a deterministic fault model at the NVM-medium
//!   boundary: torn 64-byte line writes (per-8-byte-word granularity),
//!   targeted bit flips in the data/MAC/counter/root regions and
//!   dropped already-acknowledged WPQ entries. Every fault is a pure
//!   function of the seed, so failing states replay exactly.
//! * [`enumerate_crash_points`] / [`FaultSweep`] — a
//!   CrashMonkey/ALICE-style crash-point enumerator that derives the
//!   distinct durable states from recorded
//!   [`TupleTimes`](crate::TupleTimes) and sweeps recovery across all
//!   of them (budgeted, deterministically sampled), aggregating a
//!   Table I / Table II failure taxonomy per scheme.
//! * [`RecoveryManager`] — upgrades the
//!   [`RecoveryChecker`](crate::RecoveryChecker) from *classify* to
//!   *repair*: recompute the BMT from persisted counters, adopt the
//!   rebuilt root when the persisted root matches a recoverable
//!   prefix, quarantine blocks whose MAC cannot re-verify, and report
//!   salvaged-versus-lost counts plus a modeled recovery time.
//!
//! The verdict vocabulary is deliberately honest about what secure
//! recovery can and cannot promise: torn writes and bit flips are
//! always *detected* by a correct (atomic-tuple) engine because the
//! stateful MAC binds `(C, A, γ)` and the BMT binds the counters — but
//! a dropped, previously-acknowledged persist can silently resurrect
//! an older *authentic* tuple, which no integrity check can
//! distinguish from the truth ([`FaultVerdict::StaleRollback`]). The
//! ADR flush domain is the trust anchor; the sweep quantifies exactly
//! that boundary.

mod inject;
mod manager;
mod sweep;

use plp_events::addr::BlockAddr;
use plp_events::splitmix64;

use crate::{PersistId, TupleComponent};

pub use inject::FaultInjector;
pub use manager::{RebuildStrategy, RecoveryError, RecoveryManager, RecoveryOutcome, RootStatus};
pub use sweep::{enumerate_crash_points, ClassTally, FaultOutcome, FaultSweep, SchemeRobustness};

/// Draws a value in `0..bound` from a [`splitmix64`] stream — the
/// deterministic randomness source of the whole fault subsystem.
pub(crate) fn splitmix_below(state: &mut u64, bound: u64) -> u64 {
    debug_assert!(bound > 0);
    splitmix64(state) % bound
}

/// The fault classes the injector models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultClass {
    /// A 64-byte line write applied partially: some 8-byte words carry
    /// the new content, the rest still hold the previous content.
    TornWrite,
    /// A single bit flipped in a persisted data block, MAC tag,
    /// counter block or the root register.
    BitFlip,
    /// An already-completed (acknowledged) WPQ entry that never
    /// reached the medium — the ADR promise broken.
    DroppedPersist,
}

impl FaultClass {
    /// A short, stable name for tables.
    pub fn name(self) -> &'static str {
        match self {
            FaultClass::TornWrite => "torn",
            FaultClass::BitFlip => "bitflip",
            FaultClass::DroppedPersist => "drop",
        }
    }
}

impl std::fmt::Display for FaultClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// What the injector actually did — enough detail to reproduce the
/// fault by hand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSpec {
    /// A torn line write against one tuple component.
    TornWrite {
        /// Which component's line was torn.
        component: TupleComponent,
        /// The victim block (for data/MAC tears) or the first block of
        /// the victim page (for counter tears).
        addr: BlockAddr,
        /// Bitmask of 8-byte words that kept the *old* content.
        kept_old_words: u16,
    },
    /// A single-bit flip against one tuple component.
    BitFlip {
        /// Which component was hit.
        component: TupleComponent,
        /// The victim block (data/MAC flips) or first block of the
        /// victim page (counter flips); the root register for root
        /// flips.
        addr: BlockAddr,
        /// Which bit flipped, within the component's encoding.
        bit: u32,
    },
    /// A completed persist whose tuple never reached the medium.
    DroppedPersist {
        /// The dropped persist.
        id: PersistId,
        /// Its data block.
        addr: BlockAddr,
    },
}

impl std::fmt::Display for FaultSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultSpec::TornWrite {
                component,
                addr,
                kept_old_words,
            } => write!(
                f,
                "torn {component:?} line at {addr} (old-word mask {kept_old_words:#x})"
            ),
            FaultSpec::BitFlip {
                component,
                addr,
                bit,
            } => write!(f, "bit {bit} flipped in {component:?} at {addr}"),
            FaultSpec::DroppedPersist { id, addr } => {
                write!(f, "acknowledged persist {id} to {addr} dropped")
            }
        }
    }
}

/// Which fault classes a sweep injects, and how hard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultConfig {
    /// Inject torn line writes.
    pub torn_writes: bool,
    /// Inject single-bit flips.
    pub bit_flips: bool,
    /// Drop acknowledged persists.
    pub dropped_persists: bool,
    /// Faults injected per crash point per enabled class.
    pub faults_per_point: usize,
    /// Maximum number of crash points per scheme (the enumerator
    /// samples deterministically above this).
    pub crash_point_budget: usize,
    /// Seed of every random choice the sweep makes.
    pub seed: u64,
}

impl FaultConfig {
    /// The acceptance configuration: torn writes and bit flips — the
    /// classes a correct engine must always *detect* — over at least
    /// 100 crash points.
    pub fn acceptance(seed: u64) -> Self {
        FaultConfig {
            torn_writes: true,
            bit_flips: true,
            dropped_persists: false,
            faults_per_point: 2,
            crash_point_budget: 128,
            seed,
        }
    }

    /// Every fault class, including the dropped-persist class whose
    /// stale-rollback outcomes are fundamental (reported separately).
    pub fn all_classes(seed: u64) -> Self {
        FaultConfig {
            dropped_persists: true,
            ..FaultConfig::acceptance(seed)
        }
    }

    /// The enabled classes, in reporting order.
    pub fn enabled_classes(&self) -> Vec<FaultClass> {
        let mut out = Vec::new();
        if self.torn_writes {
            out.push(FaultClass::TornWrite);
        }
        if self.bit_flips {
            out.push(FaultClass::BitFlip);
        }
        if self.dropped_persists {
            out.push(FaultClass::DroppedPersist);
        }
        out
    }
}

/// The per-block outcome of a recovery pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BlockFate {
    /// MAC verified and the plaintext matches the observer's
    /// expectation.
    Salvaged,
    /// The MAC could not re-verify: the block is detected as damaged
    /// and fenced off.
    Quarantined,
    /// The MAC verified but the plaintext is an *older* legitimate
    /// version — an authentic rollback the integrity machinery cannot
    /// flag.
    StaleAuthentic,
    /// The MAC verified yet the plaintext matches no version the
    /// program ever wrote — undetected corruption, the worst case.
    SilentGarbage,
}

/// The overall verdict of one recovery attempt, ordered from best to
/// worst.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FaultVerdict {
    /// Everything verified and matched; no repair needed.
    Clean,
    /// Repair actions ran (root re-adopted) and every block was
    /// salvaged.
    Repaired,
    /// Some blocks were quarantined: data was lost but the loss is
    /// *known* — the secure-recovery contract held.
    DetectedLoss,
    /// Recovery silently accepted an older authentic state
    /// (fundamental under dropped-acknowledgement faults).
    StaleRollback,
    /// Recovery accepted data the program never wrote — an integrity
    /// failure.
    UndetectedCorruption,
}

impl FaultVerdict {
    /// Whether the outcome violates the detect-or-recover contract
    /// (the state is wrong and nothing flagged it).
    pub fn is_undetected(self) -> bool {
        matches!(
            self,
            FaultVerdict::StaleRollback | FaultVerdict::UndetectedCorruption
        )
    }

    /// A short, stable name for tables.
    pub fn name(self) -> &'static str {
        match self {
            FaultVerdict::Clean => "clean",
            FaultVerdict::Repaired => "repaired",
            FaultVerdict::DetectedLoss => "detected-loss",
            FaultVerdict::StaleRollback => "stale-rollback",
            FaultVerdict::UndetectedCorruption => "undetected",
        }
    }
}

impl std::fmt::Display for FaultVerdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_below_stays_below() {
        let mut a = 7u64;
        for _ in 0..100 {
            assert!(splitmix_below(&mut a, 10) < 10);
        }
    }

    #[test]
    fn config_presets() {
        let acc = FaultConfig::acceptance(1);
        assert_eq!(
            acc.enabled_classes(),
            vec![FaultClass::TornWrite, FaultClass::BitFlip]
        );
        assert!(acc.crash_point_budget >= 100);
        let all = FaultConfig::all_classes(1);
        assert_eq!(all.enabled_classes().len(), 3);
    }

    #[test]
    fn verdict_taxonomy() {
        assert!(!FaultVerdict::Clean.is_undetected());
        assert!(!FaultVerdict::DetectedLoss.is_undetected());
        assert!(FaultVerdict::StaleRollback.is_undetected());
        assert!(FaultVerdict::UndetectedCorruption.is_undetected());
        assert!(FaultVerdict::Clean < FaultVerdict::UndetectedCorruption);
        assert_eq!(FaultVerdict::DetectedLoss.to_string(), "detected-loss");
    }

    #[test]
    fn spec_and_class_display() {
        let spec = FaultSpec::DroppedPersist {
            id: PersistId(3),
            addr: BlockAddr::new(8),
        };
        assert!(spec.to_string().contains("δ3"));
        assert_eq!(FaultClass::TornWrite.to_string(), "torn");
    }
}
