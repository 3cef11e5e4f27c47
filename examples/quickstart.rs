//! Quickstart: simulate one benchmark under the paper's best scheme
//! and print what happened.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use plp::core::{run_benchmark, SystemConfig, UpdateScheme};
use plp::trace::spec;

fn main() {
    // Pick a workload calibrated to the paper's Table V.
    let profile = spec::benchmark("gcc").expect("gcc is a known benchmark");

    // Baseline: a secure processor with write-back caches and no
    // persistency support (the paper's normalization point).
    let baseline = run_benchmark(
        &profile,
        &SystemConfig::for_scheme(UpdateScheme::SecureWb),
        200_000,
        42,
    );

    // The paper's best scheme: epoch persistency with out-of-order BMT
    // updates and LCA coalescing.
    let coalescing = run_benchmark(
        &profile,
        &SystemConfig::for_scheme(UpdateScheme::Coalescing),
        200_000,
        42,
    );

    println!(
        "workload: {} (baseline IPC {:.2})",
        profile.name, profile.base_ipc
    );
    println!();
    println!("secure_WB : {baseline}");
    println!("coalescing: {coalescing}");
    println!();
    println!(
        "crash-recoverable persistency overhead: {:.1}%",
        (coalescing.normalized_to(&baseline) - 1.0) * 100.0
    );
    println!(
        "persists: {} across {} epochs ({:.2} per kilo-instruction)",
        coalescing.persists,
        coalescing.epochs,
        coalescing.persist_ppki()
    );
    println!(
        "BMT node updates: {} ({} saved by coalescing)",
        coalescing.engine.node_updates, coalescing.coalesced_saved_updates
    );
}
