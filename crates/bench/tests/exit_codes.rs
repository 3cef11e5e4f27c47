//! The usage-error exit code of the bench binaries, driven through the
//! real executables: a run that cannot produce its output (no
//! instructions to simulate, too few crash points to sweep) exits 2 and
//! prints nothing on stdout, rather than panicking or reporting a
//! metric of a run that did nothing.

use std::process::Command;

#[test]
fn unusable_runs_are_usage_errors() {
    let rows: [(&str, &str, &[&str]); 4] = [
        (
            "fault_sweep",
            env!("CARGO_BIN_EXE_fault_sweep"),
            &["10000", "7"],
        ),
        (
            "plp_sim",
            env!("CARGO_BIN_EXE_plp_sim"),
            &["--instructions", "0"],
        ),
        ("all", env!("CARGO_BIN_EXE_all"), &["0", "7"]),
        (
            "recovery_sweep",
            env!("CARGO_BIN_EXE_recovery_sweep"),
            &["0", "7"],
        ),
    ];
    for (name, exe, args) in rows {
        let output = Command::new(exe)
            .args(args)
            .output()
            .unwrap_or_else(|e| panic!("{name} runs: {e}"));
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(
            output.status.code(),
            Some(2),
            "{name} {args:?} must be a usage error:\n{stderr}"
        );
        assert!(
            output.stdout.is_empty(),
            "{name} {args:?} printed on stdout:\n{}",
            String::from_utf8_lossy(&output.stdout)
        );
    }
}
