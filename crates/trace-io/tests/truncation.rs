//! Truncated / interrupted-capture regression tests for v2 AND v3.
//!
//! An interrupted capture (no footer) and a torn tail (partial final block) must both
//! surface as *detectably incomplete* — a typed error from `read_header`/`MappedTrace`
//! and a non-zero exit from `tracectl inspect` — never as a silently shorter stream.
//! Every cut scenario runs against both chunked versions: v3 from the writer, v2 — which
//! old corpora still hold — from the test-side assembler.

use std::path::PathBuf;
use std::process::Command;

use cache_sim::trace::MemAccess;
use trace_io::{decode_all, read_header, MappedTrace, TraceCaptureOptions, TraceWriter};

#[path = "../../../tests/atrc_assembler/mod.rs"]
mod atrc_assembler;

/// One core, `records` records, 16 to a block, checksummed, at format `version`.
fn write_trace(path: &PathBuf, version: u16, records: u64) {
    let layout = atrc_assembler::Layout {
        version,
        checksums: true,
        records_per_block: 16,
        llc_sets: 64,
    };
    let pushes = (0..records).map(|i| MemAccess {
        addr: 0x8000 + i * 64,
        pc: 0x400,
        is_write: i % 3 == 0,
        non_mem_instrs: (i % 7) as u32,
    });
    atrc_assembler::write_file(path, layout, "trunc", &["core0"], pushes.map(|r| (0, r)));
    assert_eq!(read_header(path).unwrap().version, version);
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("trace_io_truncation_{name}.atrc"))
}

/// `tracectl inspect` must report the file as unreadable (non-zero exit, diagnostic on
/// stderr) — the CLI face of "detectably incomplete".
fn assert_inspect_rejects(path: &PathBuf) {
    let output = Command::new(env!("CARGO_BIN_EXE_tracectl"))
        .arg("inspect")
        .arg(path)
        .output()
        .expect("tracectl must run");
    assert!(
        !output.status.success(),
        "tracectl inspect accepted a truncated file: {}",
        String::from_utf8_lossy(&output.stdout)
    );
    assert!(
        !output.stderr.is_empty(),
        "tracectl inspect must say why it rejected the file"
    );
}

#[test]
fn missing_footer_is_detected_in_both_versions() {
    for version in [2, 3] {
        let path = tmp(&format!("nofooter_v{version}"));
        write_trace(&path, version, 100);
        let header = read_header(&path).unwrap();
        // Cut the file at the end of the data region: chunks intact, footer gone —
        // exactly what an interrupted capture leaves behind.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..header.data_end as usize]).unwrap();
        assert!(
            read_header(&path).is_err(),
            "v{version}: a footer-less capture must not parse"
        );
        assert!(MappedTrace::open(&path).is_err());
        assert_inspect_rejects(&path);
        std::fs::remove_file(path).ok();
    }
}

#[test]
fn partial_final_block_is_detected_in_both_versions() {
    for version in [2, 3] {
        let path = tmp(&format!("torn_v{version}"));
        write_trace(&path, version, 100);
        let header = read_header(&path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        // Splice out the tail of the last chunk but keep the (now stale) footer: the
        // directory's byte accounting no longer partitions the data region, which the
        // header validator must catch before any decode is attempted.
        let footer = &bytes[header.data_end as usize..];
        let torn_data = &bytes[..header.data_end as usize - 5];
        let mut torn = torn_data.to_vec();
        torn.extend_from_slice(footer);
        std::fs::write(&path, &torn).unwrap();
        assert!(
            read_header(&path).is_err(),
            "v{version}: a torn final block must not parse as complete"
        );
        assert_inspect_rejects(&path);
        std::fs::remove_file(path).ok();
    }
}

#[test]
fn arbitrary_tail_truncations_never_yield_a_short_stream() {
    // Sweep cut points across the file tail (footer, directory, trailing offset): each
    // truncated file must either fail to open or fail a full decode — a reader must
    // never hand back fewer records than the capture claimed.
    for version in [2, 3] {
        let path = tmp(&format!("tailsweep_v{version}"));
        write_trace(&path, version, 64);
        let bytes = std::fs::read(&path).unwrap();
        for cut in 1..70 {
            let truncated = &bytes[..bytes.len() - cut];
            std::fs::write(&path, truncated).unwrap();
            let decoded = MappedTrace::open(&path).and_then(|trace| trace.decode_core(0));
            assert!(
                decoded.is_err(),
                "v{version}: cutting {cut} tail bytes still decoded {:?} records",
                decoded.map(|records| records.len())
            );
        }
        std::fs::remove_file(path).ok();
    }
}

#[test]
fn mapped_reader_detects_missing_footer_and_torn_final_block() {
    // An interrupted capture (footer gone) and a torn final block (stale footer kept)
    // both error cleanly from a mapped file — a typed error, no panic, no records.
    for version in [2, 3] {
        let path = tmp(&format!("mmap_nofooter_v{version}"));
        write_trace(&path, version, 100);
        let header = read_header(&path).unwrap();
        let bytes = std::fs::read(&path).unwrap();

        // Footer cut off entirely.
        std::fs::write(&path, &bytes[..header.data_end as usize]).unwrap();
        assert!(
            MappedTrace::open(&path).is_err(),
            "v{version}: the mapped reader must reject a footer-less capture"
        );

        // Tail of the last chunk spliced out, stale footer kept.
        let footer = &bytes[header.data_end as usize..];
        let mut torn = bytes[..header.data_end as usize - 5].to_vec();
        torn.extend_from_slice(footer);
        std::fs::write(&path, &torn).unwrap();
        assert!(
            MappedTrace::open(&path).is_err(),
            "v{version}: the mapped reader must reject a torn final block"
        );
        std::fs::remove_file(path).ok();
    }
}

#[test]
fn mapped_reader_survives_arbitrary_tail_cuts_without_partial_records() {
    // Tail-cut sweep on the mapped path, including cuts that land mid-block inside the
    // data region: every truncated file must fail at open or decode with a typed error.
    // `decode_all` returning Ok would mean partial records were surfaced.
    for version in [2, 3] {
        let path = tmp(&format!("mmap_tailsweep_v{version}"));
        write_trace(&path, version, 64);
        let bytes = std::fs::read(&path).unwrap();
        // Sweep deep enough to cut past the footer into the final chunks.
        for cut in 1..(bytes.len() - bytes.len() / 3) {
            let truncated = &bytes[..bytes.len() - cut];
            std::fs::write(&path, truncated).unwrap();
            assert!(
                decode_all(&path).is_err(),
                "v{version}: cutting {cut} tail bytes still decoded from the mapping"
            );
        }
        std::fs::remove_file(path).ok();
    }
}

#[test]
fn interrupted_writer_leaves_a_detectably_incomplete_file() {
    // Belt-and-braces against the real interruption path (not a post-hoc cut): drop
    // the writer mid-capture and confirm it leaves no readable file.
    let path = tmp("interrupted");
    let opts = TraceCaptureOptions {
        records_per_block: 8,
        ..Default::default()
    };
    let mut w = TraceWriter::with_options(&path, 1, "t", opts).unwrap();
    for i in 0..40u64 {
        w.push(
            0,
            MemAccess {
                addr: 0x100 + i * 64,
                pc: 0,
                is_write: false,
                non_mem_instrs: 0,
            },
        )
        .unwrap();
    }
    drop(w); // no finish(): chunks may be on disk, the footer is not
    assert!(
        read_header(&path).is_err(),
        "an unfinished capture must not parse"
    );
    assert_inspect_rejects(&path);
    std::fs::remove_file(path).ok();
}
