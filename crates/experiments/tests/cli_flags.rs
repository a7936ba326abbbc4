//! `repro` takes one replay flag, `--arena-bytes N`, and no format flag: the retired
//! prefetch/spill/compress flags are rejected like any unknown flag, and a malformed
//! budget is a parse error. Whatever the budget, a corrupt block under `repro sweep` is
//! an error message and exit code 1, not an abort.

use std::process::Command;

use cache_sim::trace::TraceSource;

#[test]
fn removed_and_malformed_replay_flags_are_rejected() {
    let cases: [(&[&str], &str); 6] = [
        (&["--prefetch", "on"], "unknown flag"),
        (&["--spill-dir", "x"], "unknown flag"),
        (&["--spill-accesses", "1"], "unknown flag"),
        (&["--arena-bytes", "256M"], "invalid digit"),
        (&["--log-level", "loud"], "unknown level \"loud\""),
        (&["--log-level"], "needs a value"),
    ];
    for (flag_and_value, diagnostic) in cases {
        let output = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(["sweep", "--dir", "d"])
            .args(flag_and_value)
            .env("REPRO_LOG", "off")
            .output()
            .expect("repro must run");
        let stderr = String::from_utf8_lossy(&output.stderr);
        let flag = flag_and_value[0];
        assert!(!output.status.success(), "{flag_and_value:?} was accepted");
        assert!(
            stderr.contains(flag) && stderr.contains(diagnostic),
            "{flag_and_value:?}: {stderr}"
        );
        if diagnostic == "unknown flag" || diagnostic == "needs a value" {
            assert!(stderr.contains("usage: repro"), "{flag}: {stderr}");
        }
    }
}

/// `repro corpus` has no format to choose: the retired `--compress` is an unknown flag,
/// and what it writes without it is checksummed `.atrc` v3 holding the live generators'
/// records — the `experiments` leg of trace-io's "every door writes v3" wall.
#[test]
fn corpus_takes_no_format_flag_and_writes_checksummed_v3() {
    let dir = std::env::temp_dir().join("experiments_cli_flags_corpus");
    std::fs::remove_dir_all(&dir).ok();
    let repro = |extra: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(["corpus", "--study", "4", "--mixes", "2", "--smoke", "--dir"])
            .arg(&dir)
            .args(extra)
            .env("REPRO_LOG", "off")
            .output()
            .expect("repro must run")
    };

    let refused = repro(&["--compress"]);
    let stderr = String::from_utf8_lossy(&refused.stderr);
    assert!(!refused.status.success(), "--compress was accepted");
    assert!(
        stderr.contains("--compress")
            && stderr.contains("unknown flag")
            && stderr.contains("usage: repro"),
        "{stderr}"
    );
    assert!(!dir.exists(), "a refused command wrote a corpus");

    let written = repro(&[]);
    assert!(
        written.status.success(),
        "{}",
        String::from_utf8_lossy(&written.stderr)
    );
    let stdout = String::from_utf8_lossy(&written.stdout);
    assert!(
        stdout.contains("bytes on disk") && stdout.contains("bytes/record"),
        "the command that paid for the capture must print its cost: {stdout}"
    );

    let scale = experiments::ExperimentScale::Smoke;
    let study = workloads::StudyKind::Cores4;
    let llc_sets = scale.system_config(study).llc.geometry.num_sets();
    let mixes = workloads::generate_mixes(study, 2, scale.seed());
    let corpus = trace_io::Corpus::load(&dir).unwrap();
    assert_eq!(corpus.entries().len(), 2);
    let mut bytes = 0;
    for (entry, mix) in corpus.entries().iter().zip(&mixes) {
        let path = corpus.path_for(entry);
        let header = trace_io::read_header(&path).unwrap();
        assert!(
            header.version == 3 && header.checksums && header.chunked && header.compressed,
            "repro corpus wrote {header:?}"
        );
        bytes += std::fs::metadata(&path).unwrap().len();
        let decoded = trace_io::decode_all(&path).unwrap();
        for (stream, mut live) in decoded
            .iter()
            .zip(mix.trace_sources(llc_sets, scale.seed()))
        {
            assert_eq!(stream.len() as u64, corpus.meta().accesses_per_core);
            assert!(stream.iter().all(|record| *record == live.next_access()));
        }
    }
    assert!(
        stdout.contains(&format!("{bytes} bytes on disk")),
        "printed cost is not the directory's: {stdout}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A flipped payload byte in a block the sweep reads: `repro sweep` says which file,
/// core and offset on one `ERROR` line and exits 1 — at the default budget and at one
/// that leaves the event memos nothing, where every cell decodes for itself on the
/// worker pool. No panic message, no opaque `Box<dyn Any>` payload, no exit code 101.
#[test]
fn sweep_reports_a_corrupt_block_as_one_typed_error_at_every_budget() {
    let dir = std::env::temp_dir().join("experiments_cli_flags_corrupt");
    std::fs::remove_dir_all(&dir).ok();
    let repro = |args: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(args)
            .args(["--smoke", "--dir"])
            .arg(&dir)
            .env_remove("REPRO_LOG")
            .output()
            .expect("repro must run")
    };
    let written = repro(&["corpus", "--study", "4", "--mixes", "1"]);
    assert!(written.status.success());

    let corpus = trace_io::Corpus::load(&dir).unwrap();
    let path = corpus.path_for(&corpus.entries()[0]);
    let mut bytes = std::fs::read(&path).unwrap();
    // Past the preamble and the first chunk's 16-byte frame: core 0's first payload.
    let payload = trace_io::read_header(&path).unwrap().preamble_len() as usize + 16;
    bytes[payload + 3] ^= 0xff;
    std::fs::write(&path, bytes).unwrap();

    for budget in [&[][..], &["--arena-bytes", "256"]] {
        let output = repro(&[&["sweep"], budget].concat());
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(1), "{budget:?}: {stderr}");
        let errors: Vec<&str> = stderr
            .lines()
            .filter(|line| line.contains("ERROR repro] corpus sweep:"))
            .collect();
        assert_eq!(errors.len(), 1, "{budget:?}: {stderr}");
        assert!(
            errors[0].contains("checksum mismatch in core 0's stream at offset 0")
                && errors[0].contains("mix0000.atrc"),
            "{budget:?}: {stderr}"
        );
        assert!(
            !stderr.contains("Box<dyn Any>") && !stderr.contains("panicked"),
            "{budget:?}: {stderr}"
        );
        assert!(output.stdout.is_empty(), "a failed sweep printed a report");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Every usage form names the three scales, the default `--scaled` included, and the
/// budget's help says how a mix is streamed.
#[test]
fn the_usage_names_every_scale_in_every_form() {
    let output = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("--help")
        .output()
        .expect("repro must run");
    assert!(output.status.success());
    let stdout = String::from_utf8_lossy(&output.stdout);
    let forms: Vec<&str> = stdout
        .lines()
        .filter(|l| l.starts_with("usage: repro") || l.trim_start().starts_with("repro "))
        .collect();
    assert_eq!(forms.len(), 4, "{stdout}");
    for form in forms {
        assert!(form.contains("[--scaled|--paper-scale|--smoke]"), "{form}");
    }
    assert!(stdout.contains("one block at a time"), "{stdout}");
}

/// `--mixes N` reaches every registry experiment, not only the scaling study: Figure 3
/// at smoke scale evaluates exactly the two mixes asked for.
#[test]
fn mixes_reaches_every_registry_experiment() {
    let output = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["fig3", "--smoke", "--mixes", "2"])
        .env("REPRO_LOG", "off")
        .output()
        .expect("repro must run");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "{}",
        String::from_utf8_lossy(&output.stderr)
    );
    assert!(stdout.contains("2 workloads"), "{stdout}");
}

/// A study flag given to a command that does not read it is refused, not ignored.
#[test]
fn study_flags_are_refused_where_they_are_not_read() {
    let cases: [&[&str]; 5] = [
        &["fig3", "--flat"],
        &["fig3", "--study", "4"],
        &["sweep", "--dir", "d", "--cores", "32"],
        &["diag", "--mixes", "2"],
        &["table2", "--mixes", "2"],
    ];
    for args in cases {
        let output = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(args)
            .arg("--smoke")
            .env("REPRO_LOG", "off")
            .output()
            .expect("repro must run");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(
            stderr.contains("does not take") && stderr.contains("usage: repro"),
            "{args:?}: {stderr}"
        );
        assert!(output.stdout.is_empty(), "{args:?} ran anyway");
    }
}
