//! Shared support for the experiment harness.
//!
//! Every table and figure of the paper (see `DESIGN.md` §4 for the
//! experiment index) is an [`ExperimentSpec`] in the declarative
//! registry ([`specs`]). The `all` binary is the one entry point that
//! produces them: it executes the requests of every spec, or of the
//! ones named by `--only`, through one deduplicated, parallel,
//! disk-cached run [`matrix`]. This library holds the common
//! machinery: run settings, the matrix and cache, table formatting and
//! geometric means.

#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![warn(clippy::unimplemented, clippy::todo, clippy::exit)]

pub mod cache;
pub mod chaos;
pub mod crash;
pub mod isolate;
pub mod matrix;
pub mod specs;
pub mod supervisor;

use plp_events::stats::geometric_mean;

pub use chaos::{ChaosOptions, ChaosPlan};
pub use crash::{ChildSpec, HarnessOptions, HarnessReport};
pub use isolate::{IsolateOptions, ResourceLimits};
pub use matrix::{
    default_cache_dir, execute, execute_supervised, time_sweep, MatrixOptions, MatrixStats,
    ResultSet, RunRequest, SweepTiming,
};
pub use specs::{all_specs, shard_spec, ExperimentSpec};
pub use supervisor::{DegradationReport, RunError, RunVerdict, SupervisorOptions};

/// Harness-wide run settings: `all`'s `[instructions] [seed]`
/// positional arguments. The defaults (400k instructions, seed 7)
/// regenerate the numbers quoted in `EXPERIMENTS.md`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunSettings {
    /// Instructions per benchmark run.
    pub instructions: u64,
    /// Trace-generation seed.
    pub seed: u64,
}

impl Default for RunSettings {
    fn default() -> Self {
        RunSettings {
            instructions: 400_000,
            seed: 7,
        }
    }
}

/// A results table: one row per benchmark, one column per series,
/// with an automatic geometric-mean footer — the shape of every figure
/// in the paper's evaluation.
#[derive(Debug, Clone)]
pub struct SeriesTable {
    row_header: String,
    columns: Vec<String>,
    rows: Vec<(String, Vec<f64>)>,
    precision: usize,
}

impl SeriesTable {
    /// Creates a table with the given row-header label and column
    /// names.
    pub fn new(row_header: &str, columns: &[&str]) -> Self {
        SeriesTable {
            row_header: row_header.to_string(),
            columns: columns.iter().map(|c| c.to_string()).collect(),
            rows: Vec::new(),
            precision: 2,
        }
    }

    /// Sets how many decimals values print with.
    pub fn precision(mut self, digits: usize) -> Self {
        self.precision = digits;
        self
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the value count does not match the column count.
    pub fn push(&mut self, name: &str, values: Vec<f64>) {
        assert_eq!(
            values.len(),
            self.columns.len(),
            "row width must match columns"
        );
        self.rows.push((name.to_string(), values));
    }

    /// Geometric mean of one column across all rows, if well defined.
    pub fn column_gmean(&self, col: usize) -> Option<f64> {
        let values: Vec<f64> = self.rows.iter().map(|(_, v)| v[col]).collect();
        geometric_mean(&values)
    }

    /// Renders the table, gmean footer included.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("{:<11}", self.row_header));
        for c in &self.columns {
            out.push_str(&format!(" {:>9}", c));
        }
        out.push('\n');
        for (name, values) in &self.rows {
            out.push_str(&format!("{:<11}", name));
            for v in values {
                out.push_str(&format!(" {:>9.*}", self.precision, v));
            }
            out.push('\n');
        }
        out.push_str(&format!("{:<11}", "gmean"));
        for col in 0..self.columns.len() {
            match self.column_gmean(col) {
                Some(g) => out.push_str(&format!(" {:>9.*}", self.precision, g)),
                None => out.push_str(&format!(" {:>9}", "-")),
            }
        }
        out.push('\n');
        out
    }
}

/// The standard experiment banner as a string.
pub fn banner_string(id: &str, what: &str, settings: RunSettings) -> String {
    format!(
        "== {id}: {what}\n   ({} instructions per benchmark, seed {})\n\n",
        settings.instructions, settings.seed
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn settings_defaults() {
        let s = RunSettings::default();
        assert_eq!(s.instructions, 400_000);
        assert_eq!(s.seed, 7);
    }

    #[test]
    fn table_renders_with_gmean() {
        let mut t = SeriesTable::new("bench", &["a", "b"]);
        t.push("x", vec![1.0, 4.0]);
        t.push("y", vec![4.0, 1.0]);
        let s = t.render();
        assert!(s.contains("bench"));
        assert!(s.contains("gmean"));
        assert!((t.column_gmean(0).unwrap() - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn table_rejects_ragged_rows() {
        let mut t = SeriesTable::new("bench", &["a", "b"]);
        t.push("x", vec![1.0]);
    }
}
