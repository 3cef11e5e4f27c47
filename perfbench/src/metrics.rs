//! Metric names, the per-layer ledger and the result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use plp_core::RunReport;

/// End-to-end metrics (untraced runs), every one on every workload.
pub const END_TO_END: [(&str, &str); 3] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("host_ns_per_instr", "ns"),
];

/// Per-layer metrics the traced run reports on every workload. A layer
/// a workload never calls reads 0 there ([`MATRIX_ONLY`],
/// [`CRASH_ONLY`]); per-op means of those layers print as `ledger`
/// lines only, because their base is 0 on the other workloads.
pub const PER_LAYER: [(&str, &str); 48] = [
    ("trace.gen_ns_per_instr", "ns"),
    ("trace.traces", "count"),
    ("system.build_us_per_run", "us"),
    ("system.run_ns_per_instr_p50", "ns"),
    ("system.run_ns_per_instr_p98", "ns"),
    ("system.unattributed_frac", "ratio"),
    ("cache.ns_per_access", "ns"),
    ("cache.accesses", "count"),
    ("cache.l1_hit", "count"),
    ("cache.l2_hit", "count"),
    ("cache.l3_hit", "count"),
    ("crypto.ns_per_block", "ns"),
    ("crypto.blocks", "count"),
    ("bmt.ns_per_leaf_update", "ns"),
    ("bmt.leaf_updates", "count"),
    ("engine.node_updates", "count"),
    ("engine.bmt_fetches", "count"),
    ("engine.saved_updates", "count"),
    ("engine.epochs", "count"),
    ("meta.ctr_hit", "count"),
    ("meta.mac_hit", "count"),
    ("meta.bmt_hit", "count"),
    ("wpq.stall_cycles", "cycles"),
    ("wpq.peak", "count"),
    ("nvm.reads", "count"),
    ("nvm.writes", "count"),
    ("nvm.writes_combined", "count"),
    ("nvm.queue_stall_cycles", "cycles"),
    ("nvm.row_hit", "count"),
    ("sanitizer.overhead_frac", "ratio"),
    ("sanitizer.events", "count"),
    ("bench.matrix.attempts", "count"),
    ("bench.matrix.overhead_ms", "ms"),
    ("bench.cache.bytes", "bytes"),
    ("bench.cache.store_ms", "ms"),
    ("bench.cache.load_ms", "ms"),
    ("bench.specs.render_ms", "ms"),
    ("crash.frames", "count"),
    ("crash.image_bytes", "bytes"),
    ("crash.replay_ms", "ms"),
    ("crash.recover_image_ms", "ms"),
    ("crash.fixpoint_ms", "ms"),
    ("fault.sweep_s", "s"),
    ("fault.points", "count"),
    ("fault.recover_ms", "ms"),
    ("fault.prefix_updates", "count"),
    ("recovery.check_ms", "ms"),
    ("bmt.rebuild_ms", "ms"),
];

/// [`PER_LAYER`] metrics of the layers only the matrix workloads call:
/// totals over the traced pass, 0 on `crash_recovery`.
pub const MATRIX_ONLY: [(&str, &str); 6] = [
    ("bench.matrix.attempts", "count"),
    ("bench.matrix.overhead_ms", "ms"),
    ("bench.cache.bytes", "bytes"),
    ("bench.cache.store_ms", "ms"),
    ("bench.cache.load_ms", "ms"),
    ("bench.specs.render_ms", "ms"),
];

/// [`PER_LAYER`] metrics of the layers only `crash_recovery` calls:
/// totals over the traced pass, 0 on the matrix workloads.
pub const CRASH_ONLY: [(&str, &str); 11] = [
    ("crash.frames", "count"),
    ("crash.image_bytes", "bytes"),
    ("crash.replay_ms", "ms"),
    ("crash.recover_image_ms", "ms"),
    ("crash.fixpoint_ms", "ms"),
    ("fault.sweep_s", "s"),
    ("fault.points", "count"),
    ("fault.recover_ms", "ms"),
    ("fault.prefix_updates", "count"),
    ("recovery.check_ms", "ms"),
    ("bmt.rebuild_ms", "ms"),
];

/// Whether `name` is a legal metric name: starts with a letter or
/// digit, at most 64 characters of letters, digits, `_`, `.`, `-`.
pub fn valid_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok_char)
}

/// Whether `unit` is a legal unit: 1-16 letters, digits, `_ / % . -`.
pub fn valid_unit(unit: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
    !unit.is_empty() && unit.len() <= 16 && unit.chars().all(ok_char)
}

/// Named values with units. Ratios whose base is zero are left out,
/// never divided by a clamped base.
#[derive(Debug, Default, Clone)]
pub struct Ledger {
    entries: BTreeMap<String, (f64, String)>,
}

impl Ledger {
    /// Records `name = value unit`.
    ///
    /// # Panics
    ///
    /// Panics on an illegal name or unit, or a non-finite value — both
    /// are bugs in this benchmark.
    pub fn set(&mut self, name: &str, value: f64, unit: &str) {
        assert!(valid_name(name), "illegal metric name {name:?}");
        assert!(valid_unit(unit), "illegal unit {unit:?}");
        assert!(value.is_finite(), "{name} is not finite: {value}");
        self.entries
            .insert(name.to_string(), (value, unit.to_string()));
    }

    /// Records a count.
    pub fn count(&mut self, name: &str, value: u64) {
        self.set(name, value as f64, "count");
    }

    /// Records 0 for each of `metrics`: the layers a workload never
    /// calls.
    pub fn zero(&mut self, metrics: &[(&str, &str)]) {
        for (name, unit) in metrics {
            self.set(name, 0.0, unit);
        }
    }

    /// Records `numerator / base` (already scaled by the caller), or
    /// nothing when `base` is zero.
    pub fn ratio(&mut self, name: &str, numerator: f64, base: f64, unit: &str) {
        if base != 0.0 {
            self.set(name, numerator / base, unit);
        }
    }

    /// The value recorded for `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.entries.get(name).map(|(v, _)| *v)
    }

    /// Adds up the `RunReport` counters of `reports`: simulated counts
    /// that must stay identical under a host-only change.
    pub fn add_report_counts<'a>(&mut self, reports: impl Iterator<Item = &'a RunReport>) {
        let mut c: BTreeMap<&str, u64> = BTreeMap::new();
        for r in reports {
            let mut add = |k, v| *c.entry(k).or_insert(0) += v;
            add("cache.l1_hit", r.data_caches[0].hits);
            add("cache.l2_hit", r.data_caches[1].hits);
            add("cache.l3_hit", r.data_caches[2].hits);
            add("engine.node_updates", r.engine.node_updates);
            add("engine.bmt_fetches", r.engine.bmt_fetches);
            add("engine.saved_updates", r.coalesced_saved_updates);
            add("engine.epochs", r.epochs);
            add("meta.ctr_hit", r.metadata.counter.hits);
            add("meta.mac_hit", r.metadata.mac.hits);
            add("meta.bmt_hit", r.metadata.bmt.hits);
            add("wpq.stall_cycles", r.wpq_stall_cycles);
            add("wpq.peak", r.wpq_peak as u64);
            add("nvm.reads", r.nvm.reads);
            add("nvm.writes", r.nvm.writes);
            add("nvm.writes_combined", r.nvm.writes_combined);
            add("nvm.queue_stall_cycles", r.nvm.queue_stall_cycles);
            add("nvm.row_hit", r.nvm.row_hits);
            add(
                "sanitizer.events",
                r.sanitizer.checked_persists
                    + r.sanitizer.checked_node_updates
                    + r.sanitizer.checked_epochs,
            );
        }
        for (name, value) in c {
            let unit = if name.ends_with("_cycles") {
                "cycles"
            } else {
                "count"
            };
            self.set(name, value as f64, unit);
        }
    }

    /// The human-readable `ledger NAME VALUE UNIT` lines.
    pub fn render(&self, prefix: &str) -> String {
        let mut out = String::new();
        for (name, (value, unit)) in &self.entries {
            let _ = writeln!(out, "{prefix} {name} {value} {unit}");
        }
        out
    }
}

/// What one benchmark invocation measured.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Operations attempted over every measured pass.
    pub attempted: u64,
    /// Operations that failed a correctness check.
    pub failed: u64,
    /// Whether every output check held.
    pub correct: bool,
    /// The reported metrics.
    pub metrics: Ledger,
}

/// The result line: one JSON object with `correct`, `attempted`,
/// `failed` and the `wanted` metrics that were measured.
pub fn result_json(outcome: &Outcome, wanted: &[(&str, &str)]) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.correct, outcome.attempted, outcome.failed
    );
    let mut first = true;
    for (name, unit) in wanted {
        let Some(value) = outcome.metrics.get(name) else {
            continue;
        };
        if !first {
            out.push_str(", ");
        }
        first = false;
        let _ = write!(
            out,
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_follow_the_charset() {
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(valid_name(name), "{name}");
            assert!(valid_unit(unit), "{unit}");
        }
        assert!(valid_name("system.run_s.secure_WB"));
        assert!(valid_name("bench.specs.render_ms.sgx_compare"));
        assert!(valid_name("9lives"));
        assert!(!valid_name(""));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("_x"));
        assert!(!valid_name("has space"));
        assert!(!valid_name("slash/ed"));
        assert!(!valid_name(&"x".repeat(65)));
        assert!(valid_name(&"x".repeat(64)));
        assert!(valid_unit("1/s") && valid_unit("%") && valid_unit("MiB"));
        assert!(!valid_unit("") && !valid_unit("m s") && !valid_unit(&"u".repeat(17)));
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|m| m.0)
            .collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(before, names.len());
    }

    #[test]
    fn single_workload_layers_are_per_layer_metrics() {
        for m in MATRIX_ONLY.iter().chain(CRASH_ONLY.iter()) {
            assert!(PER_LAYER.contains(m), "{m:?}");
        }
        assert!(MATRIX_ONLY.iter().all(|m| !CRASH_ONLY.contains(m)));
    }

    #[test]
    fn zero_base_ratio_is_omitted() {
        let mut l = Ledger::default();
        l.ratio("crypto.ns_per_block", 10.0, 0.0, "ns");
        assert_eq!(l.get("crypto.ns_per_block"), None);
        l.ratio("crypto.ns_per_block", 10.0, 4.0, "ns");
        assert_eq!(l.get("crypto.ns_per_block"), Some(2.5));
    }

    #[test]
    fn result_line_is_one_json_object() {
        let mut metrics = Ledger::default();
        metrics.set("wall_s", 1.25, "s");
        metrics.set("setup_s", 0.5, "s");
        let outcome = Outcome {
            attempted: 3,
            failed: 1,
            correct: false,
            metrics,
        };
        let line = result_json(&outcome, &END_TO_END[..2]);
        assert_eq!(
            line,
            "{\"correct\": false, \"attempted\": 3, \"failed\": 1, \"metrics\": \
             {\"wall_s\": {\"value\": 1.25, \"unit\": \"s\"}, \
             \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }
}
