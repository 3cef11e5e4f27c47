//! Summary statistics for the experiment harness: the
//! [`geometric_mean`] every figure normalises with, and the
//! [`Throughput`] accumulator that reports simulation speed.

/// Geometric mean of a slice of strictly positive values, the standard
/// summary for normalized execution times (used by every figure in the
/// paper's evaluation).
///
/// Returns `None` if the slice is empty or any value is non-positive.
///
/// # Example
///
/// ```
/// use plp_events::stats::geometric_mean;
///
/// let gm = geometric_mean(&[1.0, 4.0]).unwrap();
/// assert!((gm - 2.0).abs() < 1e-12);
/// ```
pub fn geometric_mean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|&v| v <= 0.0) {
        return None;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    Some((log_sum / values.len() as f64).exp())
}

/// An accumulator for simulation throughput: how much simulated work
/// (runs, simulated cycles) got done in how much host wall-clock time.
///
/// The experiment harness merges one of these per worker thread to
/// report runs/sec and simulated cycles/sec for a whole matrix.
///
/// # Example
///
/// ```
/// use plp_events::stats::Throughput;
/// use std::time::Duration;
///
/// let mut t = Throughput::new();
/// t.record(1_000_000, Duration::from_millis(250));
/// t.record(3_000_000, Duration::from_millis(750));
/// assert_eq!(t.runs(), 2);
/// assert!((t.cycles_per_sec() - 4.0e6).abs() < 1.0);
/// assert!((t.runs_per_sec() - 2.0).abs() < 1e-9);
/// ```
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Throughput {
    runs: u64,
    sim_cycles: u64,
    wall_nanos: u64,
}

impl Throughput {
    /// Creates a zeroed accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one completed run: its simulated length in cycles and
    /// the host wall-clock it took.
    pub fn record(&mut self, sim_cycles: u64, wall: std::time::Duration) {
        self.runs += 1;
        self.sim_cycles += sim_cycles;
        self.wall_nanos += wall.as_nanos() as u64;
    }

    /// Folds another accumulator in (e.g. one per worker thread).
    pub fn merge(&mut self, other: Throughput) {
        self.runs += other.runs;
        self.sim_cycles += other.sim_cycles;
        self.wall_nanos += other.wall_nanos;
    }

    /// Runs recorded.
    pub fn runs(&self) -> u64 {
        self.runs
    }

    /// Simulated cycles per host second (0.0 before any time accrues).
    pub fn cycles_per_sec(&self) -> f64 {
        if self.wall_nanos == 0 {
            0.0
        } else {
            self.sim_cycles as f64 * 1e9 / self.wall_nanos as f64
        }
    }

    /// Runs per host second (0.0 before any time accrues).
    pub fn runs_per_sec(&self) -> f64 {
        if self.wall_nanos == 0 {
            0.0
        } else {
            self.runs as f64 * 1e9 / self.wall_nanos as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometric_mean_edge_cases() {
        assert_eq!(geometric_mean(&[]), None);
        assert_eq!(geometric_mean(&[1.0, 0.0]), None);
        assert_eq!(geometric_mean(&[1.0, -3.0]), None);
        let gm = geometric_mean(&[2.0, 2.0, 2.0]).unwrap();
        assert!((gm - 2.0).abs() < 1e-12);
    }

    #[test]
    fn throughput_merges_workers() {
        use std::time::Duration;
        let mut a = Throughput::new();
        a.record(500, Duration::from_secs(1));
        let mut b = Throughput::new();
        b.record(1500, Duration::from_secs(1));
        b.record(0, Duration::from_secs(2));
        a.merge(b);
        assert_eq!(a.runs(), 3);
        assert!((a.cycles_per_sec() - 500.0).abs() < 1e-9);
        assert!((a.runs_per_sec() - 0.75).abs() < 1e-12);
        assert_eq!(Throughput::new().cycles_per_sec(), 0.0);
    }
}
