//! `sweepd` takes one replay flag, `--arena-bytes N`: the retired prefetch/spill flags are
//! rejected like any unknown flag, and a malformed budget is a parse error.

use std::process::Command;

#[test]
fn removed_and_malformed_replay_flags_are_rejected() {
    let cases = [
        ("--prefetch", "on", "unknown flag"),
        ("--spill-dir", "x", "unknown flag"),
        ("--spill-accesses", "1", "unknown flag"),
        ("--arena-bytes", "256M", "invalid digit"),
    ];
    for (flag, value, diagnostic) in cases {
        let output = Command::new(env!("CARGO_BIN_EXE_sweepd"))
            .args(["--corpus", "c=d"])
            .args([flag, value])
            .output()
            .expect("sweepd must run");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(!output.status.success(), "{flag} {value} was accepted");
        assert!(
            stderr.contains(flag) && stderr.contains(diagnostic),
            "{flag} {value}: {stderr}"
        );
        if diagnostic == "unknown flag" {
            assert!(stderr.contains("usage: sweepd"), "{flag}: {stderr}");
        }
    }
}
