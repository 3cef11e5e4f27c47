//! Simulation run reports.

use plp_cache::CacheStats;
use plp_events::Cycle;
use plp_nvm::NvmStats;

use crate::engine::EngineStats;
use crate::meta::MetadataStats;
use crate::sanitizer::SanitizerSummary;
use crate::PersistRecord;

/// Everything a simulation run measured.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunReport {
    /// Total execution time in cycles (instruction stream retired and
    /// all persists drained).
    pub total_cycles: Cycle,
    /// Instructions retired.
    pub instructions: u64,
    /// Ordered persists issued (stores under SP; epoch-flush blocks
    /// under EP).
    pub persists: u64,
    /// Background security write-backs (LLC dirty evictions).
    pub writebacks: u64,
    /// Epochs sealed (epoch-persistency schemes only).
    pub epochs: u64,
    /// Engine counters (node updates, BMT fetches).
    pub engine: EngineStats,
    /// Node updates eliminated by coalescing.
    pub coalesced_saved_updates: u64,
    /// Minor-counter overflows (each re-encrypts its whole page).
    pub page_overflows: u64,
    /// Blocks re-encrypted by page overflows.
    pub overflow_blocks: u64,
    /// Cycles stores stalled on a full WPQ.
    pub wpq_stall_cycles: u64,
    /// Peak WPQ occupancy.
    pub wpq_peak: usize,
    /// Metadata cache statistics.
    pub metadata: MetadataStats,
    /// Data hierarchy statistics (L1/L2/L3).
    pub data_caches: [CacheStats; 3],
    /// NVM device statistics.
    pub nvm: NvmStats,
    /// Invariant sanitizer verdict (mode, checked-event counts and any
    /// violations; see [`crate::sanitizer`]).
    pub sanitizer: SanitizerSummary,
    /// Per-persist records (only when
    /// [`crate::SystemConfig::record_persists`] is set).
    pub records: Vec<PersistRecord>,
}

impl RunReport {
    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.total_cycles == Cycle::ZERO {
            0.0
        } else {
            self.instructions as f64 / self.total_cycles.get() as f64
        }
    }

    /// Ordered persists per kilo-instruction (the paper's PPKI).
    pub fn persist_ppki(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.persists as f64 * 1000.0 / self.instructions as f64
        }
    }

    /// Execution time normalized to a baseline run of the same trace
    /// (the y-axis of Figs. 8–10 and 12).
    pub fn normalized_to(&self, baseline: &RunReport) -> f64 {
        if baseline.total_cycles == Cycle::ZERO {
            return 0.0;
        }
        self.total_cycles.get() as f64 / baseline.total_cycles.get() as f64
    }

    /// Fractional reduction in BMT node updates relative to `other`
    /// (the coalescing-vs-o3 statistic; §VII reports 26.1%).
    pub fn node_update_reduction_vs(&self, other: &RunReport) -> f64 {
        if other.engine.node_updates == 0 {
            return 0.0;
        }
        1.0 - self.engine.node_updates as f64 / other.engine.node_updates as f64
    }
}

impl std::fmt::Display for RunReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "cycles={} instr={} ipc={:.3} persists={} ppki={:.2} epochs={} node_updates={}",
            self.total_cycles,
            self.instructions,
            self.ipc(),
            self.persists,
            self.persist_ppki(),
            self.epochs,
            self.engine.node_updates,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_metrics() {
        let mut r = RunReport::default();
        assert_eq!(r.ipc(), 0.0);
        assert_eq!(r.persist_ppki(), 0.0);
        r.total_cycles = Cycle::new(2000);
        r.instructions = 1000;
        r.persists = 50;
        assert!((r.ipc() - 0.5).abs() < 1e-12);
        assert!((r.persist_ppki() - 50.0).abs() < 1e-12);
    }

    #[test]
    fn normalization() {
        let base = RunReport {
            total_cycles: Cycle::new(1000),
            ..RunReport::default()
        };
        let slow = RunReport {
            total_cycles: Cycle::new(7200),
            ..RunReport::default()
        };
        assert!((slow.normalized_to(&base) - 7.2).abs() < 1e-12);
        assert_eq!(slow.normalized_to(&RunReport::default()), 0.0);
    }

    #[test]
    fn node_update_reduction() {
        let mut o3 = RunReport::default();
        o3.engine.node_updates = 1000;
        let mut co = RunReport::default();
        co.engine.node_updates = 739;
        assert!((co.node_update_reduction_vs(&o3) - 0.261).abs() < 1e-9);
        assert_eq!(co.node_update_reduction_vs(&RunReport::default()), 0.0);
    }

    #[test]
    fn display_contains_key_fields() {
        let r = RunReport::default();
        let s = r.to_string();
        assert!(s.contains("cycles=") && s.contains("ppki="));
    }
}
