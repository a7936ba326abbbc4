//! `tracectl` argument handling, driven through the built binary.

use std::path::Path;
use std::process::{Command, Output};

/// Run `tracectl <args> <file>`.
fn tracectl(args: &str, file: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_tracectl"))
        .args(args.split(' '))
        .arg(file)
        .output()
        .expect("tracectl must run")
}

/// `capture --study` accepts every core count `StudyKind` knows — the many-core studies
/// (32 and up) included, which `repro` and `import` already took — and names the valid
/// counts when it refuses one.
#[test]
fn capture_study_accepts_many_core_studies_and_names_the_valid_counts() {
    let path = std::env::temp_dir().join("trace_io_tracectl_cli_study32.atrc");
    let captured = tracectl("capture --study 32 --accesses 64 --out", &path);
    assert!(
        captured.status.success(),
        "--study 32 must capture: {}",
        String::from_utf8_lossy(&captured.stderr)
    );
    let inspected = tracectl("inspect --json", &path);
    assert!(inspected.status.success());
    let json = String::from_utf8_lossy(&inspected.stdout);
    assert_eq!(json.matches("\"core\": ").count(), 32, "{json}");
    std::fs::remove_file(&path).ok();

    let refused = tracectl("capture --study 7 --accesses 64 --out", &path);
    assert!(!refused.status.success(), "--study 7 is not a study");
    let stderr = String::from_utf8_lossy(&refused.stderr);
    assert!(
        stderr.contains("4|8|16|20|24|32|48|64|128|256"),
        "the refusal must list the valid core counts: {stderr}"
    );
}
