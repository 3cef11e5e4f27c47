//! The crash-recovery memory tuple and per-persist records.

use plp_crypto::{CounterBlock, DataBlock, MacTag};
use plp_events::addr::BlockAddr;
use plp_events::Cycle;

/// Identifier of a persist, in program order.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PersistId(pub u64);

impl std::fmt::Display for PersistId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "δ{}", self.0)
    }
}

/// Identifier of an epoch, in program order.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EpochId(pub u64);

impl std::fmt::Display for EpochId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "E{}", self.0)
    }
}

/// When each component of a persist's memory tuple became durable.
///
/// Invariant 1 says correct recovery needs the whole tuple
/// `(C, γ, M, R)`; crash-recovery analysis replays these timestamps to
/// decide which components a crash at time `T` captured. Correct (2SP)
/// engines set all four equal to the persist completion; the
/// `unordered` strawman lets them diverge — which is exactly how it
/// violates the invariants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TupleTimes {
    /// Ciphertext durable.
    pub data: Cycle,
    /// Counter durable.
    pub counter: Cycle,
    /// MAC durable.
    pub mac: Cycle,
    /// BMT root updated with this persist's effect.
    pub root: Cycle,
}

impl TupleTimes {
    /// All four components persist atomically at `t` (the 2SP
    /// guarantee).
    pub fn atomic(t: Cycle) -> Self {
        TupleTimes {
            data: t,
            counter: t,
            mac: t,
            root: t,
        }
    }

    /// The time the full tuple is durable.
    pub fn complete(&self) -> Cycle {
        self.data.max(self.counter).max(self.mac).max(self.root)
    }
}

/// The complete record of one persist: its memory tuple plus timing.
///
/// Records are kept when [`crate::SystemConfig::record_persists`] is
/// set; the crash-recovery machinery replays them to build the durable
/// image at an arbitrary crash point.
#[derive(Debug, Clone, PartialEq)]
pub struct PersistRecord {
    /// Program-order persist id.
    pub id: PersistId,
    /// Epoch the persist belongs to (all-zero under strict
    /// persistency).
    pub epoch: EpochId,
    /// Data block address.
    pub addr: BlockAddr,
    /// Plaintext the crash-recovery observer expects back.
    pub plaintext: DataBlock,
    /// Ciphertext written to memory.
    pub ciphertext: DataBlock,
    /// The page's counter block *after* this persist's bump.
    pub counters_after: CounterBlock,
    /// Stateful MAC over `(ciphertext, addr, counter)`.
    pub mac: MacTag,
    /// When the persist was issued to the engine.
    pub issued_at: Cycle,
    /// When each tuple component became durable.
    pub times: TupleTimes,
}

impl PersistRecord {
    /// When the whole tuple is durable (recovery-safe point).
    pub fn completed_at(&self) -> Cycle {
        self.times.complete()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn atomic_times_are_equal() {
        let t = TupleTimes::atomic(Cycle::new(100));
        assert_eq!(t.data, t.root);
        assert_eq!(t.complete(), Cycle::new(100));
    }

    #[test]
    fn complete_is_max_component() {
        let t = TupleTimes {
            data: Cycle::new(10),
            counter: Cycle::new(50),
            mac: Cycle::new(20),
            root: Cycle::new(40),
        };
        assert_eq!(t.complete(), Cycle::new(50));
    }

    #[test]
    fn ids_display() {
        assert_eq!(PersistId(3).to_string(), "δ3");
        assert_eq!(EpochId(2).to_string(), "E2");
    }
}
