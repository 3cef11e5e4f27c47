//! End-to-end gate for the `recovery_sweep` binary on a run far
//! shorter than its default budget.
//!
//! A one-instruction run leaves device images only a little longer
//! than their header. Every enumerated cut must still keep the whole
//! header — the sink writes it before the run starts, so no kill lands
//! inside it — and the sweep must replay each cut and exit 0.

use std::process::Command;

#[test]
fn tiny_run_never_cuts_into_the_image_header() {
    let dir = std::env::temp_dir().join(format!("plp-recovery-sweep-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let output = Command::new(env!("CARGO_BIN_EXE_recovery_sweep"))
        .args(["1", "7", "--table"])
        .arg(dir.join("pareto.txt"))
        .arg("--out")
        .arg(dir.join("recovery.json"))
        .current_dir(&dir)
        .output()
        .expect("recovery_sweep runs");
    assert!(
        output.status.success(),
        "recovery_sweep 1 7 failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    assert!(dir.join("pareto.txt").exists());
    std::fs::remove_dir_all(&dir).ok();
}
