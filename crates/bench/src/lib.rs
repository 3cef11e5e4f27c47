//! Shared support for the experiment harness.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the
//! paper (see `DESIGN.md` §4 for the experiment index) by looking its
//! [`ExperimentSpec`] up in the declarative registry ([`specs`]) and
//! handing it to [`run_spec`]. The `all` binary executes every spec's
//! requests through one deduplicated, parallel, disk-cached run
//! [`matrix`]. This library holds the common machinery: run settings,
//! the matrix and cache, table formatting and geometric means.

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
    execute, execute_supervised, default_cache_dir, time_sweep, MatrixOptions, MatrixStats,
    ResultSet, RunRequest, SweepTiming,
};
pub use specs::{all_specs, shard_spec, ExperimentSpec};
pub use supervisor::{DegradationReport, RunError, RunVerdict, SupervisorOptions};

/// Harness-wide run settings, parsed from the command line.
///
/// Every experiment binary accepts `[instructions] [seed]` positional
/// arguments; the defaults (400k instructions, seed 7) regenerate the
/// numbers quoted in `EXPERIMENTS.md` in a couple of minutes.
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

impl RunSettings {
    /// Parses `[instructions] [seed]` from `std::env::args`.
    pub fn from_args() -> Self {
        let mut s = RunSettings::default();
        let mut args = std::env::args().skip(1);
        if let Some(n) = args.next().and_then(|a| a.parse().ok()) {
            s.instructions = n;
        }
        if let Some(n) = args.next().and_then(|a| a.parse().ok()) {
            s.seed = n;
        }
        s
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

/// The whole standalone-binary behaviour of one experiment: parse
/// `[instructions] [seed]` from the command line, execute the spec's
/// run matrix serially and uncached (exactly what the hand-rolled
/// binaries did), and print the artefact to stdout. Execution
/// statistics go to stderr so stdout stays byte-identical to the
/// pre-registry binaries.
pub fn run_spec(spec: &ExperimentSpec) {
    let raw = RunSettings::from_args();
    let requests = spec.runs_needed(raw);
    let (results, stats) = matrix::execute(&requests, &MatrixOptions::serial());
    print!("{}", spec.output(&results, raw));
    eprintln!("[plp-bench] {}: {}", spec.id, stats.summary());
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
