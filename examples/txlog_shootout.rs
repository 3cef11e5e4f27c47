//! Scheme shoot-out on a custom workload: a durable transaction log.
//!
//! The paper's introduction motivates secure persistent memory with
//! applications that keep crash-recoverable data structures directly
//! in memory. This example models one: an append-mostly transaction
//! log (highly sequential persists, small hot index that is re-written
//! constantly) built with [`plp::trace::WorkloadProfile::builder`],
//! then compares all six update schemes on it.
//!
//! ```text
//! cargo run --release --example txlog_shootout
//! ```

use plp::core::{run_benchmark, SystemConfig, UpdateScheme};
use plp::trace::WorkloadProfile;

fn main() {
    // A transaction-log engine: ~40 persisted stores per kilo-
    // instruction (log records + index updates), very high spatial
    // locality (appends), a small stack share, and a log window of
    // ~2000 pages (8 MB).
    let txlog = WorkloadProfile::builder("txlog")
        .base_ipc(1.2)
        .store_ppki(70.0, 40.0)
        .load_ppki(120.0)
        .locality(0.45, 2048, 24.0)
        .build();

    let instructions = 300_000;
    let baseline = run_benchmark(
        &txlog,
        &SystemConfig::for_scheme(UpdateScheme::SecureWb),
        instructions,
        3,
    );

    println!(
        "workload: durable transaction log ({} instructions)",
        instructions
    );
    println!();
    println!(
        "{:<12} {:>10} {:>8} {:>9} {:>12} {:>10}",
        "scheme", "cycles", "norm", "persists", "node-updates", "wpq-stall"
    );
    println!(
        "{:<12} {:>10} {:>8} {:>9} {:>12} {:>10}",
        "secure_WB",
        baseline.total_cycles.get(),
        "1.00",
        baseline.persists,
        baseline.engine.node_updates,
        baseline.wpq_stall_cycles
    );
    for scheme in [
        UpdateScheme::Unordered,
        UpdateScheme::Sp,
        UpdateScheme::Pipeline,
        UpdateScheme::O3,
        UpdateScheme::Coalescing,
    ] {
        let r = run_benchmark(&txlog, &SystemConfig::for_scheme(scheme), instructions, 3);
        println!(
            "{:<12} {:>10} {:>8.2} {:>9} {:>12} {:>10}",
            scheme.name(),
            r.total_cycles.get(),
            r.normalized_to(&baseline),
            r.persists,
            r.engine.node_updates,
            r.wpq_stall_cycles
        );
    }
    println!();
    println!(
        "appends coalesce beautifully: within an epoch the log tail's pages\n\
         share low LCAs, so the coalescing engine strips most interior BMT\n\
         updates while keeping strict epoch ordering for the recovery observer."
    );
}
