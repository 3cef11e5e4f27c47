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
        assert_usage_error(name, exe, args);
    }
}

/// A `--check` baseline that cannot be read fails before any work:
/// exit 2, nothing on stdout and no output file written.
#[test]
fn unreadable_baselines_fail_before_the_run() {
    let dir = std::env::temp_dir().join(format!("plp-exit-codes-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let table = dir.join("pareto.txt");
    let out = dir.join("out.json");
    let (table_arg, out_arg) = (table.to_str().unwrap(), out.to_str().unwrap());
    let missing = "/nonexistent/baseline.json";
    let rows: [(&str, &str, &[&str]); 2] = [
        (
            "recovery_sweep",
            env!("CARGO_BIN_EXE_recovery_sweep"),
            &[
                "20000", "7", "--table", table_arg, "--out", out_arg, "--check", missing,
            ],
        ),
        (
            "hotpath",
            env!("CARGO_BIN_EXE_hotpath"),
            &["--out", out_arg, "--check", missing],
        ),
    ];
    for (name, exe, args) in rows {
        assert_usage_error(name, exe, args);
        for file in [&table, &out] {
            assert!(!file.exists(), "{name} wrote {}", file.display());
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

fn assert_usage_error(name: &str, exe: &str, args: &[&str]) {
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
