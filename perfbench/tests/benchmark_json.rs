//! `BENCHMARK.json` at the repository root lists the same metrics,
//! with the same units and in the same order, as [`END_TO_END`] and
//! [`PER_LAYER`], and only workloads this benchmark runs.

use perfbench::metrics::{END_TO_END, PER_LAYER};
use perfbench::run::WORKLOADS;

fn benchmark_json() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root")
}

/// The body of the top-level array `key` (it holds no nested array).
fn array<'a>(doc: &'a str, key: &str) -> &'a str {
    let at = doc
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("no {key}"));
    let body = &doc[at..];
    &body[body.find('[').expect("array")..=body.find(']').expect("array end")]
}

/// Every string value of `field` in `text`, in order.
fn strings(text: &str, field: &str) -> Vec<String> {
    let tag = format!("\"{field}\":");
    text.match_indices(&tag)
        .map(|(at, _)| {
            let rest = text[at + tag.len()..].trim_start();
            let rest = rest.strip_prefix('"').expect("a string value");
            rest[..rest.find('"').expect("closing quote")].to_string()
        })
        .collect()
}

fn metrics(doc: &str, key: &str) -> Vec<(String, String)> {
    let section = array(doc, key);
    let names = strings(section, "name");
    let units = strings(section, "unit");
    assert_eq!(names.len(), units.len(), "{key}: a metric without a unit");
    names.into_iter().zip(units).collect()
}

fn owned(list: &[(&str, &str)]) -> Vec<(String, String)> {
    list.iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

#[test]
fn end_to_end_metrics_match() {
    assert_eq!(metrics(&benchmark_json(), "end_to_end"), owned(&END_TO_END));
}

#[test]
fn per_layer_metrics_match() {
    assert_eq!(metrics(&benchmark_json(), "per_layer"), owned(&PER_LAYER));
}

#[test]
fn gated_workloads_exist() {
    let doc = benchmark_json();
    let gated = strings(array(&doc, "workloads"), "name");
    assert!(!gated.is_empty());
    for w in &gated {
        assert!(WORKLOADS.contains(&w.as_str()), "unknown workload {w}");
    }
}
