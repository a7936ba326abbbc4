//! `repro all --smoke` prints exactly `tests/data/repro_all_smoke.txt`, byte for byte.
//!
//! The file is the report of record at smoke scale. A change that is meant to move
//! results regenerates it (`repro all --smoke > crates/experiments/tests/data/
//! repro_all_smoke.txt`, with `REPRO_LOG=off`) and commits it, so the diff shows which
//! rows moved; any other change must leave it as it is.

use std::process::Command;

#[test]
fn repro_all_smoke_matches_the_golden_report() {
    let output = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["all", "--smoke"])
        .env("REPRO_LOG", "off")
        .output()
        .expect("repro must run");
    assert!(
        output.status.success(),
        "{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8(output.stdout).expect("the report is UTF-8");
    let golden = include_str!("data/repro_all_smoke.txt");
    if stdout != golden {
        let line = stdout
            .lines()
            .zip(golden.lines())
            .position(|(a, b)| a != b)
            .unwrap_or(stdout.lines().count().min(golden.lines().count()));
        panic!(
            "repro all --smoke differs from the golden report from line {}:\n  got:      {:?}\n  expected: {:?}",
            line + 1,
            stdout.lines().nth(line),
            golden.lines().nth(line)
        );
    }
}
