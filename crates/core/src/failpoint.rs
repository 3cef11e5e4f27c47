//! Named failpoints on the persist path.
//!
//! The real-process crash harness needs to stop a simulation at
//! *semantically meaningful* points — mid-tuple, between tree levels,
//! around the root seal, inside an epoch handoff — and it needs the
//! stop to land at exactly the same place on every run so a verdict,
//! once observed, stays reproducible. Failpoints are therefore
//! compiled in and keyed by `(failpoint, hit_count)`, the same
//! deterministic addressing PR 4's chaos plan uses for fault
//! injection: no environment variables, no timers, no randomness.
//!
//! A [`FailpointRegistry`] is armed with one [`FailpointPlan`] and
//! threaded through the persist path via `EngineCtx` and the
//! simulation loop. Each site calls [`visit`], which counts a
//! [`FailpointRegistry::hit`] when a registry is armed; when
//! the armed point reaches its target hit count the registry either
//! records the fact (observe mode — used by golden runs and the
//! determinism tests) or prints a marker line and parks the thread
//! forever (park mode — the child half of the SIGKILL protocol, which
//! leaves the process alive but inert until the parent kills it with
//! an uncatchable signal).

/// Marker prefix printed (and flushed) to stdout immediately before a
/// park-mode registry parks. The harness parent treats this line as
/// "the child has reached its failpoint; everything written so far is
/// in the kernel page cache" and responds with SIGKILL.
pub const PARK_MARKER: &str = "crash-harness: parked";

/// The catalog of named stop points on the persist path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Failpoint {
    /// Between the component writes of one memory tuple (data,
    /// counter, MAC, root). Only component-granular schemes (the
    /// unordered baseline) persist anything at this boundary; tuple-
    /// atomic schemes instead tear the in-flight tuple frame here.
    MidTuple,
    /// Between consecutive integrity-tree node updates inside one
    /// persist (fires at every `EngineCtx::update`).
    BetweenLevels,
    /// Immediately before the engine is asked to seal the root for
    /// the current persist.
    PreRootSeal,
    /// Immediately after the engine has sealed the root.
    PostRootSeal,
    /// Between block flushes while an epoch is draining (epoch-based
    /// schemes only).
    MidEpochFlush,
    /// After the epoch seal has been made durable.
    PostEpochSeal,
    /// At the top of durable recovery, after the image has been
    /// replayed but before any repair decision is made. A kill here
    /// must leave the on-device image byte-identical.
    RecoveryPreRepair,
    /// Before each frame while recovery encodes the canonical recovered
    /// image in memory. The scratch file is written only after the last
    /// frame, so a kill here leaves the original untouched and writes
    /// no scratch.
    RecoveryMidWriteback,
    /// After the scratch image is complete but before the atomic
    /// rename that commits it over the original.
    RecoveryPreRootCommit,
    /// After the rename: the recovered image is the image.
    RecoveryPostRootCommit,
}

impl Failpoint {
    /// Every failpoint, in catalog order.
    pub const ALL: [Failpoint; 10] = [
        Failpoint::MidTuple,
        Failpoint::BetweenLevels,
        Failpoint::PreRootSeal,
        Failpoint::PostRootSeal,
        Failpoint::MidEpochFlush,
        Failpoint::PostEpochSeal,
        Failpoint::RecoveryPreRepair,
        Failpoint::RecoveryMidWriteback,
        Failpoint::RecoveryPreRootCommit,
        Failpoint::RecoveryPostRootCommit,
    ];

    /// The run-path points a live simulation can stop at — the sweep
    /// catalog of the single-kill harness.
    pub const RUN: [Failpoint; 6] = [
        Failpoint::MidTuple,
        Failpoint::BetweenLevels,
        Failpoint::PreRootSeal,
        Failpoint::PostRootSeal,
        Failpoint::MidEpochFlush,
        Failpoint::PostEpochSeal,
    ];

    /// The recovery-path points — the second-kill catalog of the
    /// double-kill harness.
    pub const RECOVERY: [Failpoint; 4] = [
        Failpoint::RecoveryPreRepair,
        Failpoint::RecoveryMidWriteback,
        Failpoint::RecoveryPreRootCommit,
        Failpoint::RecoveryPostRootCommit,
    ];

    /// Whether this point sits on the recovery path rather than the
    /// live persist path.
    pub fn is_recovery(self) -> bool {
        Failpoint::RECOVERY.contains(&self)
    }

    /// Stable kebab-case name (CLI flags, image filenames, reports).
    pub fn name(self) -> &'static str {
        match self {
            Failpoint::MidTuple => "mid-tuple",
            Failpoint::BetweenLevels => "between-levels",
            Failpoint::PreRootSeal => "pre-root-seal",
            Failpoint::PostRootSeal => "post-root-seal",
            Failpoint::MidEpochFlush => "mid-epoch-flush",
            Failpoint::PostEpochSeal => "post-epoch-seal",
            Failpoint::RecoveryPreRepair => "pre-repair",
            Failpoint::RecoveryMidWriteback => "mid-repair-writeback",
            Failpoint::RecoveryPreRootCommit => "pre-root-commit",
            Failpoint::RecoveryPostRootCommit => "post-root-commit",
        }
    }

    /// Parses a stable name back into the catalog.
    pub fn parse(name: &str) -> Option<Failpoint> {
        Failpoint::ALL.into_iter().find(|p| p.name() == name)
    }

    fn slot(self) -> usize {
        match self {
            Failpoint::MidTuple => 0,
            Failpoint::BetweenLevels => 1,
            Failpoint::PreRootSeal => 2,
            Failpoint::PostRootSeal => 3,
            Failpoint::MidEpochFlush => 4,
            Failpoint::PostEpochSeal => 5,
            Failpoint::RecoveryPreRepair => 6,
            Failpoint::RecoveryMidWriteback => 7,
            Failpoint::RecoveryPreRootCommit => 8,
            Failpoint::RecoveryPostRootCommit => 9,
        }
    }
}

/// Which `(failpoint, hit_count)` a registry is armed for — hit
/// counts are zero-based, so `hit: 0` fires on the first visit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FailpointPlan {
    /// The stop point.
    pub point: Failpoint,
    /// Which visit to that point fires (zero-based).
    pub hit: u64,
}

/// What happens when the armed hit is reached.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FailpointMode {
    /// Record the firing and keep running (golden runs, tests).
    Observe,
    /// Print [`PARK_MARKER`] and park the thread awaiting SIGKILL.
    Park,
}

/// Where an armed plan actually fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FiredFailpoint {
    /// The point that fired.
    pub point: Failpoint,
    /// The hit count it fired at (equals the plan's).
    pub hit: u64,
    /// One-based index of the persist in flight when it fired (0 if
    /// it fired outside any persist).
    pub persist: u64,
}

/// Deterministic hit counter for the failpoint catalog, optionally
/// armed to stop the run at one `(failpoint, hit)`.
///
/// Counting is active at every site whether or not a plan matches, so
/// hit indices observed in one mode are valid addresses in the other.
#[derive(Debug)]
pub struct FailpointRegistry {
    plan: FailpointPlan,
    mode: FailpointMode,
    hits: [u64; 10],
    persist: u64,
    fired: Option<FiredFailpoint>,
}

impl FailpointRegistry {
    /// A registry that records the armed firing but never stops the
    /// run — for golden runs and determinism tests.
    pub fn observe(plan: FailpointPlan) -> Self {
        FailpointRegistry {
            plan,
            mode: FailpointMode::Observe,
            hits: [0; 10],
            persist: 0,
            fired: None,
        }
    }

    /// A registry that parks the thread at the armed firing, awaiting
    /// SIGKILL from the harness parent.
    pub fn park(plan: FailpointPlan) -> Self {
        FailpointRegistry {
            mode: FailpointMode::Park,
            ..FailpointRegistry::observe(plan)
        }
    }

    /// Notes that a new persist is beginning (stamps firings with a
    /// persist index).
    pub fn begin_persist(&mut self) {
        self.persist += 1;
    }

    /// Would a [`hit`](Self::hit) at `point` fire right now? Lets the
    /// durable sink substitute a torn frame for the write the kill is
    /// about to land on.
    pub fn would_fire(&self, point: Failpoint) -> bool {
        self.fired.is_none() && self.plan.point == point && self.hits[point.slot()] == self.plan.hit
    }

    /// Visits `point`: counts the hit and, if the armed `(point, hit)`
    /// was just reached, fires — recording in observe mode, parking
    /// forever in park mode.
    pub fn hit(&mut self, point: Failpoint) {
        let fire = self.would_fire(point);
        self.hits[point.slot()] += 1;
        if fire {
            let fired = FiredFailpoint {
                point,
                hit: self.plan.hit,
                persist: self.persist,
            };
            self.fired = Some(fired);
            if self.mode == FailpointMode::Park {
                park_forever(&fired);
            }
        }
    }

    /// Where the armed plan fired, if it has.
    pub fn fired(&self) -> Option<FiredFailpoint> {
        self.fired
    }

    /// Total visits to `point` so far.
    pub fn hit_count(&self, point: Failpoint) -> u64 {
        self.hits[point.slot()]
    }
}

/// Proof that a path crossed a named failpoint. The persist drivers
/// (`persist_block`, `seal_epoch`) and the durable recovery driver
/// ([`crate::recover_image`]) each hand one back, and the only way to
/// make one is [`visit`], so a driver path that no crash sweep can
/// interrupt does not compile.
///
/// ```
/// use plp_core::failpoint::{visit, Crossed, Failpoint};
///
/// let crossed: Crossed = visit(None, Failpoint::PreRootSeal);
/// # let _ = crossed;
/// ```
///
/// ```compile_fail
/// use plp_core::failpoint::{visit, Crossed, Failpoint};
///
/// let crossed: Crossed = Crossed(());
/// # let _ = crossed;
/// ```
#[derive(Debug)]
pub struct Crossed(());

/// Visits failpoint `point`: counts the hit on `registry` if one is
/// armed (firing it if the armed `(point, hit)` is reached), and
/// returns the proof that this path crossed a failpoint. Without a
/// registry the visit costs one branch.
#[inline]
pub fn visit(registry: Option<&mut FailpointRegistry>, point: Failpoint) -> Crossed {
    if let Some(reg) = registry {
        reg.hit(point);
    }
    Crossed(())
}

/// Prints the park marker, flushes stdout, and sleeps forever. The
/// process stays alive — holding its file-backed image exactly as the
/// failpoint left it — until the harness parent SIGKILLs it.
fn park_forever(fired: &FiredFailpoint) -> ! {
    use std::io::Write;
    let mut out = std::io::stdout();
    let _ = writeln!(
        out,
        "{PARK_MARKER} point={} hit={} persist={}",
        fired.point.name(),
        fired.hit,
        fired.persist
    );
    let _ = out.flush();
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for p in Failpoint::ALL {
            assert_eq!(Failpoint::parse(p.name()), Some(p));
        }
        assert_eq!(Failpoint::parse("nope"), None);
    }

    #[test]
    fn catalog_splits_into_run_and_recovery() {
        assert_eq!(
            Failpoint::RUN.len() + Failpoint::RECOVERY.len(),
            Failpoint::ALL.len()
        );
        for p in Failpoint::RUN {
            assert!(!p.is_recovery());
        }
        for p in Failpoint::RECOVERY {
            assert!(p.is_recovery());
        }
        // Slots are dense and unique across the whole catalog.
        let mut slots: Vec<usize> = Failpoint::ALL.iter().map(|p| p.slot()).collect();
        slots.sort_unstable();
        assert_eq!(slots, (0..Failpoint::ALL.len()).collect::<Vec<_>>());
    }

    #[test]
    fn observe_fires_once_at_the_armed_hit() {
        let mut reg = FailpointRegistry::observe(FailpointPlan {
            point: Failpoint::PreRootSeal,
            hit: 2,
        });
        reg.begin_persist();
        reg.hit(Failpoint::PreRootSeal); // hit 0
        assert_eq!(reg.fired(), None);
        reg.hit(Failpoint::MidTuple); // other point, ignored
        reg.begin_persist();
        reg.hit(Failpoint::PreRootSeal); // hit 1
        reg.begin_persist();
        assert!(reg.would_fire(Failpoint::PreRootSeal));
        reg.hit(Failpoint::PreRootSeal); // hit 2 — fires
        assert_eq!(
            reg.fired(),
            Some(FiredFailpoint {
                point: Failpoint::PreRootSeal,
                hit: 2,
                persist: 3,
            })
        );
        reg.hit(Failpoint::PreRootSeal); // later hits don't re-fire
        assert_eq!(reg.fired().map(|f| f.persist), Some(3));
        assert_eq!(reg.hit_count(Failpoint::PreRootSeal), 4);
        assert!(!reg.would_fire(Failpoint::PreRootSeal));
    }
}
