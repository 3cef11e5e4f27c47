//! The persist-order invariant sanitizer: a shadow verifier for the
//! paper's two correctness invariants.
//!
//! The simulator's timing engines *claim* ordering guarantees — the
//! crash-recovery tuple of Invariant 1 and the per-level persist-order
//! preservation of Invariant 2 — but until now those claims were only
//! exercised indirectly, through crash sweeps at sampled points. The
//! sanitizer checks them **on every persist event of every run**: it
//! subscribes to the single persist path
//! ([`crate::Simulation`]'s `persist_block`) and to every BMT node
//! update each engine schedules (via
//! [`crate::engine::EngineCtx::update`]), and validates the
//! scheme's contract event by event:
//!
//! * **Invariant 1** — at persist retirement the memory tuple
//!   `(C, γ, M, R)` is complete: every component carries the same
//!   durable timestamp (the 2SP atomicity guarantee). Checked for every
//!   scheme that promises tuple atomicity
//!   ([`SchemeContract::atomic_tuple`]).
//! * **Invariant 2, strict family** — each persist's BMT walk covers
//!   every tree level exactly once, leaf to root, with monotonically
//!   non-decreasing completion times; per level, successive persists
//!   complete in order; and whole tuples retire in persist order
//!   ([`SchemeContract::strict_walk`]).
//! * **Invariant 2, epoch family** — per tree level, no update of
//!   epoch *k+1* completes before the last update a sealed epoch ≤ *k*
//!   made to that level (the ETT handoff), and sealed epochs complete
//!   in order ([`SchemeContract::epoch_order`]).
//! * **WAW safety** — §IV-B1's lemma makes same-epoch writes to a
//!   common BMT ancestor reorderable; *cross-epoch* writes to the same
//!   node are not. Any cross-epoch out-of-order write to the same node
//!   is flagged as a WAW hazard.
//!
//! The `unordered` strawman promises nothing, so its contract disables
//! every check — by design it produces zero violations *and* zero
//! guarantees; the crash sweeps remain the tool that demonstrates its
//! failures.
//!
//! Violations are reported as structured [`Violation`] records (cycle,
//! scheme, address, level, node) collected into a
//! [`SanitizerSummary`] on the [`crate::RunReport`]. The checks are
//! pure observation: enabling the sanitizer never changes a simulated
//! timestamp, so stdout artefacts stay byte-identical (pinned by
//! `crates/bench/tests/sanitizer_determinism.rs`). A deliberately
//! broken [`crate::engine::MutantEngine`] proves every check fires
//! (`crates/core/tests/sanitizer_mutations.rs`).

mod checks;

pub use checks::Sanitizer;

use plp_bmt::NodeLabel;
use plp_events::addr::BlockAddr;
use plp_events::Cycle;

use crate::{EpochId, PersistId, TupleTimes, UpdateScheme};

/// Whether (and how) the invariant sanitizer runs alongside a
/// simulation.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SanitizerMode {
    /// No shadow verification (the pre-sanitizer behaviour).
    Off,
    /// Verify every persist event and collect violations into the run
    /// report. The default: tier-1 tests and the `all` matrix run with
    /// the sanitizer on.
    #[default]
    Check,
}

impl SanitizerMode {
    /// Whether the sanitizer observes the run.
    pub fn is_on(self) -> bool {
        self != SanitizerMode::Off
    }

    /// Stable machine name (the run-cache codec's rendering).
    pub fn name(self) -> &'static str {
        match self {
            SanitizerMode::Off => "off",
            SanitizerMode::Check => "check",
        }
    }

    /// Parses a [`SanitizerMode::name`] rendering.
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "off" => Some(SanitizerMode::Off),
            "check" => Some(SanitizerMode::Check),
            _ => None,
        }
    }
}

/// The ordering guarantees a scheme claims — what the sanitizer holds
/// it to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchemeContract {
    /// Invariant 1: the whole memory tuple retires atomically (2SP).
    pub atomic_tuple: bool,
    /// Invariant 2, strict form: full in-order leaf-to-root walks,
    /// per-level and whole-tuple persist order.
    pub strict_walk: bool,
    /// Invariant 2, epoch form: per-level cross-epoch handoff, ordered
    /// epoch completions and cross-epoch WAW safety.
    pub epoch_order: bool,
    /// Invariant 2, truncated form (`triad_nvm`): each persist's walk
    /// covers a *contiguous suffix* of levels ending at the leaf level
    /// — exactly once per covered level, deepest first, monotone — and
    /// the suffix's shallowest level (the persisted floor) is the same
    /// for every persist of the run. Levels above the floor are
    /// legitimately absent; the strict per-level cross-persist order
    /// still holds over the covered slice.
    pub truncated_walk: bool,
}

impl SchemeContract {
    /// The contract `scheme` claims.
    pub fn for_scheme(scheme: UpdateScheme) -> Self {
        match scheme {
            UpdateScheme::SecureWb
            | UpdateScheme::Sp
            | UpdateScheme::Pipeline
            | UpdateScheme::SpCounterTree
            // The dual-copy commit adds durability on top of a fully
            // strict serialized walk, so `phoenix` is held to the same
            // contract as the `sp` family.
            | UpdateScheme::Phoenix => SchemeContract {
                atomic_tuple: true,
                strict_walk: true,
                epoch_order: false,
                truncated_walk: false,
            },
            UpdateScheme::O3 | UpdateScheme::Coalescing => SchemeContract {
                atomic_tuple: true,
                strict_walk: false,
                epoch_order: true,
                truncated_walk: false,
            },
            // Relaxed upper levels: the tuple is *not* atomic (the MAC
            // and root trail the data/counter pair through the lazy
            // window), but the strict slice must still walk in order.
            UpdateScheme::TriadNvm => SchemeContract {
                atomic_tuple: false,
                strict_walk: false,
                epoch_order: false,
                truncated_walk: true,
            },
            // The strawman promises nothing: no checks, no guarantees.
            UpdateScheme::Unordered => SchemeContract {
                atomic_tuple: false,
                strict_walk: false,
                epoch_order: false,
                truncated_walk: false,
            },
        }
    }

    /// Whether any check is active.
    pub fn checks_anything(&self) -> bool {
        self.atomic_tuple || self.strict_walk || self.epoch_order || self.truncated_walk
    }
}

/// Which invariant a [`Violation`] breaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ViolationKind {
    /// Invariant 1: a tuple component retired at a different time than
    /// the rest of its persist's tuple.
    TupleIncomplete,
    /// Invariant 2 (strict): a whole tuple retired before an older
    /// persist's tuple.
    RootOrder,
    /// Invariant 2 (strict): a BMT level was updated out of order —
    /// within a walk (a shallower node completed before a deeper one)
    /// or across persists (a level's completions regressed).
    LevelOrder,
    /// Invariant 2 (strict): a persist's walk skipped (or duplicated)
    /// a tree level.
    SkippedLevel,
    /// Invariant 2 (epoch): a level update of a younger epoch completed
    /// before a sealed older epoch's last update of that level.
    EpochLevelOrder,
    /// Invariant 2 (epoch): a sealed epoch completed before its
    /// predecessor.
    EpochCompletionOrder,
    /// WAW safety: a cross-epoch out-of-order write to the same BMT
    /// node.
    WawHazard,
}

impl ViolationKind {
    /// Every kind, in a stable order (codec + reporting).
    pub const ALL: [ViolationKind; 7] = [
        ViolationKind::TupleIncomplete,
        ViolationKind::RootOrder,
        ViolationKind::LevelOrder,
        ViolationKind::SkippedLevel,
        ViolationKind::EpochLevelOrder,
        ViolationKind::EpochCompletionOrder,
        ViolationKind::WawHazard,
    ];

    /// Stable machine name.
    pub fn name(self) -> &'static str {
        match self {
            ViolationKind::TupleIncomplete => "tuple_incomplete",
            ViolationKind::RootOrder => "root_order",
            ViolationKind::LevelOrder => "level_order",
            ViolationKind::SkippedLevel => "skipped_level",
            ViolationKind::EpochLevelOrder => "epoch_level_order",
            ViolationKind::EpochCompletionOrder => "epoch_completion_order",
            ViolationKind::WawHazard => "waw_hazard",
        }
    }

    /// Parses a [`ViolationKind::name`] rendering.
    pub fn parse(name: &str) -> Option<Self> {
        ViolationKind::ALL.into_iter().find(|k| k.name() == name)
    }
}

impl std::fmt::Display for ViolationKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Sentinel for "no node / no address" in a [`Violation`].
pub const NO_FIELD: u64 = u64::MAX;

/// One observed invariant violation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Violation {
    /// Which invariant broke.
    pub kind: ViolationKind,
    /// Scheme whose contract was violated.
    pub scheme: UpdateScheme,
    /// Simulated cycle of the offending event.
    pub cycle: Cycle,
    /// Epoch the event belonged to.
    pub epoch: EpochId,
    /// Persist the event belonged to ([`NO_FIELD`] when the event is
    /// not attributable to a single persist, e.g. a coalesced seal
    /// walk).
    pub persist: u64,
    /// 1-based tree level (0 when not level-specific).
    pub level: u32,
    /// Raw BMT node label ([`NO_FIELD`] when not node-specific).
    pub node: u64,
    /// Data block index ([`NO_FIELD`] when not address-specific).
    pub addr: u64,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} [{}] at cycle {} ({}",
            self.kind, self.scheme, self.cycle, self.epoch
        )?;
        if self.persist != NO_FIELD {
            write!(f, ", {}", PersistId(self.persist))?;
        }
        if self.level != 0 {
            write!(f, ", level {}", self.level)?;
        }
        if self.node != NO_FIELD {
            write!(f, ", node n{}", self.node)?;
        }
        if self.addr != NO_FIELD {
            write!(f, ", block {}", self.addr)?;
        }
        write!(f, ")")
    }
}

/// One BMT node update an engine scheduled, as seen by the sanitizer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeUpdateEvent {
    /// The updated node.
    pub label: NodeLabel,
    /// Its 1-based tree level (1 = root).
    pub level: u32,
    /// When the update's MAC completes.
    pub done: Cycle,
}

/// One persist retirement, as seen by the sanitizer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PersistEvent {
    /// Program-order persist id.
    pub id: PersistId,
    /// Epoch the persist belongs to.
    pub epoch: EpochId,
    /// Data block address.
    pub addr: BlockAddr,
    /// Whether the crash-recovery observer may rely on this persist
    /// (vs. a background eviction write-back).
    pub ordered: bool,
    /// When each tuple component became durable.
    pub times: TupleTimes,
}

/// What the sanitizer checked and found over one run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SanitizerSummary {
    /// The mode the run used.
    pub mode: SanitizerMode,
    /// Persist retirements checked.
    pub checked_persists: u64,
    /// BMT node updates checked.
    pub checked_node_updates: u64,
    /// Epoch seals checked.
    pub checked_epochs: u64,
    /// Violations beyond the detail cap (counted, not stored).
    pub dropped_violations: u64,
    /// Detailed violation records (capped; see
    /// [`SanitizerSummary::total_violations`] for the full count).
    pub violations: Vec<Violation>,
}

impl SanitizerSummary {
    /// A summary for a run with the sanitizer off.
    pub fn off() -> Self {
        SanitizerSummary {
            mode: SanitizerMode::Off,
            ..SanitizerSummary::default()
        }
    }

    /// Total violations observed, stored or dropped.
    pub fn total_violations(&self) -> u64 {
        self.violations.len() as u64 + self.dropped_violations
    }

    /// Stored violations of `kind` (capped at the detail limit).
    pub fn count_of(&self, kind: ViolationKind) -> u64 {
        self.violations.iter().filter(|v| v.kind == kind).count() as u64
    }

    /// Whether the run upheld its scheme's whole contract.
    pub fn is_clean(&self) -> bool {
        self.total_violations() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contracts_partition_schemes() {
        for scheme in UpdateScheme::all_extended() {
            let c = SchemeContract::for_scheme(scheme);
            // The walk contracts are mutually exclusive.
            assert!(
                [c.strict_walk, c.epoch_order, c.truncated_walk]
                    .into_iter()
                    .filter(|&b| b)
                    .count()
                    <= 1,
                "{scheme}"
            );
            if scheme == UpdateScheme::Unordered {
                assert!(!c.checks_anything());
            } else {
                assert!(c.checks_anything(), "{scheme} must claim something");
            }
        }
        assert!(SchemeContract::for_scheme(UpdateScheme::O3).epoch_order);
        assert!(SchemeContract::for_scheme(UpdateScheme::Pipeline).strict_walk);
        // The zoo: phoenix is strict like sp; triad_nvm claims only the
        // truncated walk (its tuple is deliberately non-atomic).
        let phoenix = SchemeContract::for_scheme(UpdateScheme::Phoenix);
        assert!(phoenix.strict_walk && phoenix.atomic_tuple);
        let triad = SchemeContract::for_scheme(UpdateScheme::TriadNvm);
        assert!(triad.truncated_walk);
        assert!(!triad.atomic_tuple && !triad.strict_walk && !triad.epoch_order);
    }

    #[test]
    fn kind_names_roundtrip() {
        for kind in ViolationKind::ALL {
            assert_eq!(ViolationKind::parse(kind.name()), Some(kind));
        }
        assert_eq!(ViolationKind::parse("nonsense"), None);
    }

    #[test]
    fn summary_accounting() {
        let mut s = SanitizerSummary::default();
        assert!(s.is_clean());
        assert_eq!(s.mode, SanitizerMode::Check);
        s.violations.push(Violation {
            kind: ViolationKind::WawHazard,
            scheme: UpdateScheme::O3,
            cycle: Cycle::new(10),
            epoch: EpochId(1),
            persist: 3,
            level: 2,
            node: 7,
            addr: NO_FIELD,
        });
        s.dropped_violations = 2;
        assert_eq!(s.total_violations(), 3);
        assert_eq!(s.count_of(ViolationKind::WawHazard), 1);
        assert_eq!(s.count_of(ViolationKind::RootOrder), 0);
        assert!(!s.is_clean());
        assert!(SanitizerSummary::off().mode == SanitizerMode::Off);
    }

    #[test]
    fn violation_display_names_the_invariant() {
        let v = Violation {
            kind: ViolationKind::EpochLevelOrder,
            scheme: UpdateScheme::Coalescing,
            cycle: Cycle::new(99),
            epoch: EpochId(4),
            persist: NO_FIELD,
            level: 3,
            node: 12,
            addr: NO_FIELD,
        };
        let s = v.to_string();
        assert!(s.contains("epoch_level_order"));
        assert!(s.contains("coalescing"));
        assert!(s.contains("level 3"));
        assert!(s.contains("n12"));
    }
}
