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

/// Every capture and import is written as checksummed `.atrc` v3: the flags that used to
/// choose the bytes (with opposite defaults on the two subcommands) are gone, and are
/// refused like any unknown flag rather than silently ignored.
#[test]
fn retired_format_flags_are_rejected() {
    let path = std::env::temp_dir().join("trace_io_tracectl_cli_retired.atrc");
    let cases = [
        (
            "capture --study 4 --accesses 64 --compress --out",
            "--compress",
        ),
        (
            "capture --study 4 --accesses 64 --no-checksums --out",
            "--no-checksums",
        ),
        (
            "import --format csv --no-compress in.csv --out",
            "--no-compress",
        ),
        (
            "import --format csv --no-checksums in.csv --out",
            "--no-checksums",
        ),
    ];
    for (args, flag) in cases {
        let refused = tracectl(args, &path);
        let stderr = String::from_utf8_lossy(&refused.stderr);
        assert!(!refused.status.success(), "{flag} was accepted");
        let diagnostic = format!("unknown {} flag", args.split(' ').next().unwrap());
        assert!(
            stderr.contains(flag) && stderr.contains(&diagnostic),
            "{flag}: {stderr}"
        );
        assert!(!path.exists(), "{flag}: a refused command wrote a file");
    }

    // The global `--log-level` refuses an unknown level and a missing one.
    let missing_level = Command::new(env!("CARGO_BIN_EXE_tracectl"))
        .args(["capture", "--log-level"])
        .output()
        .expect("tracectl must run");
    let refusals = [
        (
            tracectl(
                "capture --study 4 --accesses 64 --log-level loud --out",
                &path,
            ),
            "--log-level: unknown level \"loud\"",
        ),
        (missing_level, "--log-level needs a value"),
    ];
    for (refused, diagnostic) in refusals {
        let stderr = String::from_utf8_lossy(&refused.stderr);
        assert!(!refused.status.success(), "{diagnostic}: accepted");
        assert!(stderr.contains(diagnostic), "{diagnostic}: {stderr}");
        assert!(
            !path.exists(),
            "{diagnostic}: a refused command wrote a file"
        );
    }
}

/// One command decodes a whole file: `inspect` decodes nothing and refuses the retired
/// `--timings` with the usage, and `stats` reports where each core's verifying pass
/// spent its time.
#[test]
fn stats_splits_the_verifying_pass_and_inspect_decodes_nothing() {
    let path = std::env::temp_dir().join("trace_io_tracectl_cli_stats.atrc");
    let captured = tracectl("capture --study 4 --accesses 4096 --out", &path);
    assert!(captured.status.success());

    let refused = tracectl("inspect --timings", &path);
    let stderr = String::from_utf8_lossy(&refused.stderr);
    assert!(!refused.status.success(), "inspect --timings was accepted");
    assert!(
        stderr.contains("unknown inspect flag \"--timings\"") && stderr.contains("usage:"),
        "{stderr}"
    );

    let stats = tracectl("stats --json", &path);
    assert!(stats.status.success());
    let json = String::from_utf8_lossy(&stats.stdout);
    for field in ["checksum_ms", "decompress_ms", "decode_ms"] {
        assert_eq!(json.matches(&format!("\"{field}\": ")).count(), 4, "{json}");
    }
    std::fs::remove_file(&path).ok();
}
