//! Workload profiles: the statistical shape of a benchmark's memory
//! behaviour.

/// The statistical profile a synthetic trace is generated from.
///
/// The persist-relevant rates come straight from the paper's Table V;
/// the locality knobs (`store_repeat_fraction`, `footprint_pages`,
/// `page_run_len`) are fitted so that the *derived* statistics the
/// paper reports — epoch-store PPKI and write-back PPKI — come out near
/// the published columns. `base_ipc` is the benchmark's baseline
/// (`secure_WB`) instruction throughput; only gamess's 2.45 is quoted
/// in the paper (§VII), the rest are synthesized from typical SPEC2006
/// behaviour and documented in `spec.rs`.
///
/// # Example
///
/// ```
/// use plp_trace::WorkloadProfile;
///
/// let p = WorkloadProfile::builder("custom")
///     .base_ipc(1.0)
///     .store_ppki(100.0, 30.0)
///     .load_ppki(150.0)
///     .locality(0.5, 1024, 8.0)
///     .build();
/// assert_eq!(p.name, "custom");
/// assert!((p.store_ppki_full - 100.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadProfile {
    /// Benchmark name.
    pub name: String,
    /// Baseline (`secure_WB`) IPC of the core.
    pub base_ipc: f64,
    /// Stores per kilo-instruction, stack included (Table V `sp_full`).
    pub store_ppki_full: f64,
    /// Non-stack stores per kilo-instruction (Table V `sp`).
    pub store_ppki_nonstack: f64,
    /// Loads per kilo-instruction.
    pub load_ppki: f64,
    /// Probability that a non-stack store re-targets a recently stored
    /// block (drives intra-epoch coalescing in the cache).
    pub store_repeat_fraction: f64,
    /// Heap footprint in 4 KiB pages (drives LLC write-back rate).
    pub footprint_pages: u64,
    /// Mean consecutive blocks touched in a page before jumping
    /// (spatial locality; drives LCA depth for coalescing).
    pub page_run_len: f64,
    /// Paper-reported epoch-store PPKI at epoch size 32 (Table V `o3`),
    /// kept for calibration reporting; `None` for custom workloads.
    pub paper_epoch_ppki: Option<f64>,
    /// Paper-reported write-back PPKI (Table V `secure_WB full`); kept
    /// for calibration reporting.
    pub paper_writeback_ppki: Option<f64>,
}

impl WorkloadProfile {
    /// Starts building a custom profile.
    pub fn builder(name: &str) -> WorkloadProfileBuilder {
        WorkloadProfileBuilder::new(name)
    }

    /// Fraction of stores that target the stack segment.
    pub fn stack_store_fraction(&self) -> f64 {
        if self.store_ppki_full <= 0.0 {
            return 0.0;
        }
        1.0 - self.store_ppki_nonstack / self.store_ppki_full
    }
}

/// Builder for [`WorkloadProfile`] (see
/// [`WorkloadProfile::builder`]).
#[derive(Debug, Clone)]
pub struct WorkloadProfileBuilder {
    profile: WorkloadProfile,
}

impl WorkloadProfileBuilder {
    fn new(name: &str) -> Self {
        WorkloadProfileBuilder {
            profile: WorkloadProfile {
                name: name.to_string(),
                base_ipc: 1.0,
                store_ppki_full: 100.0,
                store_ppki_nonstack: 30.0,
                load_ppki: 150.0,
                store_repeat_fraction: 0.6,
                footprint_pages: 1024,
                page_run_len: 8.0,
                paper_epoch_ppki: None,
                paper_writeback_ppki: None,
            },
        }
    }

    /// Sets the baseline IPC.
    ///
    /// # Panics
    ///
    /// Panics unless `ipc` is positive and finite.
    pub fn base_ipc(mut self, ipc: f64) -> Self {
        assert!(ipc.is_finite() && ipc > 0.0, "IPC must be positive");
        self.profile.base_ipc = ipc;
        self
    }

    /// Sets total and non-stack store rates (per kilo-instruction).
    ///
    /// # Panics
    ///
    /// Panics if `nonstack > full` or either is negative.
    pub fn store_ppki(mut self, full: f64, nonstack: f64) -> Self {
        assert!(
            (0.0..=1000.0).contains(&full) && (0.0..=full).contains(&nonstack),
            "store rates must satisfy 0 <= nonstack <= full <= 1000"
        );
        self.profile.store_ppki_full = full;
        self.profile.store_ppki_nonstack = nonstack;
        self
    }

    /// Sets the load rate (per kilo-instruction).
    ///
    /// # Panics
    ///
    /// Panics if negative or over 1000.
    pub fn load_ppki(mut self, loads: f64) -> Self {
        assert!((0.0..=1000.0).contains(&loads), "load rate out of range");
        self.profile.load_ppki = loads;
        self
    }

    /// Sets the locality knobs: store repeat fraction, heap footprint
    /// in pages and mean page run length.
    ///
    /// # Panics
    ///
    /// Panics if `repeat` is outside `[0, 1]`, footprint is zero, or
    /// `run_len < 1`.
    pub fn locality(mut self, repeat: f64, footprint_pages: u64, run_len: f64) -> Self {
        assert!((0.0..=1.0).contains(&repeat), "repeat fraction in [0,1]");
        assert!(footprint_pages > 0, "footprint must be positive");
        assert!(run_len >= 1.0, "run length must be at least 1");
        self.profile.store_repeat_fraction = repeat;
        self.profile.footprint_pages = footprint_pages;
        self.profile.page_run_len = run_len;
        self
    }

    /// Records the paper's reference statistics for calibration output.
    pub fn paper_reference(mut self, epoch_ppki: f64, writeback_ppki: f64) -> Self {
        self.profile.paper_epoch_ppki = Some(epoch_ppki);
        self.profile.paper_writeback_ppki = Some(writeback_ppki);
        self
    }

    /// Finishes the profile.
    pub fn build(self) -> WorkloadProfile {
        self.profile
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults_and_overrides() {
        let p = WorkloadProfile::builder("x").build();
        assert_eq!(p.name, "x");
        assert!(p.paper_epoch_ppki.is_none());

        let q = WorkloadProfile::builder("y")
            .base_ipc(2.0)
            .store_ppki(80.0, 20.0)
            .load_ppki(10.0)
            .locality(0.3, 64, 4.0)
            .paper_reference(5.0, 1.0)
            .build();
        assert_eq!(q.base_ipc, 2.0);
        assert_eq!(q.paper_epoch_ppki, Some(5.0));
        assert!((q.stack_store_fraction() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn stack_fraction_handles_zero_rate() {
        let mut p = WorkloadProfile::builder("z").build();
        p.store_ppki_full = 0.0;
        assert_eq!(p.stack_store_fraction(), 0.0);
    }

    #[test]
    #[should_panic(expected = "nonstack <= full")]
    fn builder_validates_store_rates() {
        let _ = WorkloadProfile::builder("bad").store_ppki(10.0, 20.0);
    }

    #[test]
    #[should_panic(expected = "IPC")]
    fn builder_validates_ipc() {
        let _ = WorkloadProfile::builder("bad").base_ipc(0.0);
    }
}
