//! Capture→write→read round-trip guarantees of the `trace-io` subsystem, plus its
//! corruption/truncation error paths.

use std::path::PathBuf;

use proptest::prelude::*;

use adapt_llc::sim::trace::{MemAccess, TraceSource};
use adapt_llc::traces::{
    capture_mix, decode_all, open_all, read_header, MappedTrace, TraceCaptureOptions, TraceError,
    TraceWriter,
};
use adapt_llc::workloads::{all_benchmarks, generate_mixes, StudyKind};

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("adapt_roundtrip_{name}.atrc"))
}

/// Every Table 4 synthetic pattern round-trips: capture N accesses, write, read back,
/// compare against a freshly constructed generator.
#[test]
fn every_synthetic_pattern_roundtrips_exactly() {
    const N: u64 = 600;
    let path = tmp("all_patterns");
    for (i, bench) in all_benchmarks().iter().enumerate() {
        let mut writer = TraceWriter::create(&path, 1, bench.name).unwrap();
        let mut source = bench.trace(0, 128, 7 + i as u64);
        writer.capture_source(0, &mut source, N).unwrap();
        writer.finish().unwrap();

        let mut replay = open_all(&path).unwrap().remove(0);
        assert_eq!(replay.label(), bench.name);
        let mut fresh = bench.trace(0, 128, 7 + i as u64);
        for k in 0..N {
            assert_eq!(
                replay.next_access(),
                fresh.next_access(),
                "{}: record {k} differs after round-trip",
                bench.name
            );
        }
    }
    std::fs::remove_file(path).ok();
}

/// Whole-mix capture via `capture_mix` round-trips stream-for-stream.
#[test]
fn captured_mix_decodes_to_the_live_streams() {
    let path = tmp("mix");
    let mix = generate_mixes(StudyKind::Cores4, 1, 5).remove(0);
    capture_mix(
        &path,
        &mix,
        5,
        400,
        None,
        TraceCaptureOptions::for_llc_sets(64),
    )
    .unwrap();

    let header = read_header(&path).unwrap();
    assert_eq!(header.cores.len(), 4);
    assert!(header.checksums);
    let labels: Vec<String> = header.cores.iter().map(|c| c.label.clone()).collect();
    assert_eq!(labels, mix.benchmarks);

    let streams = decode_all(&path).unwrap();
    let mut live = mix.trace_sources(64, 5);
    for (core, src) in live.iter_mut().enumerate() {
        let expect: Vec<MemAccess> = (0..400).map(|_| src.next_access()).collect();
        assert_eq!(streams[core], expect, "core {core} stream differs");
        assert_eq!(header.cores[core].records, 400);
        assert_eq!(
            header.cores[core].instructions,
            expect.iter().map(|a| a.instructions()).sum::<u64>()
        );
    }
    std::fs::remove_file(path).ok();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Arbitrary access sequences (including addresses above 2^40 and non-monotone
    /// deltas) survive the delta+varint encoding bit-for-bit, at any block size, with or
    /// without checksums.
    #[test]
    fn arbitrary_records_roundtrip(
        raw in proptest::collection::vec(
            (0u64..(1u64 << 45), 0u64..(1u64 << 32), any::<bool>(), 0u32..10_000),
            1..300,
        ),
        block_records in 1usize..64,
    ) {
        let records: Vec<MemAccess> = raw
            .iter()
            .map(|&(addr, pc, is_write, non_mem_instrs)| MemAccess {
                addr,
                pc,
                is_write,
                non_mem_instrs,
            })
            .collect();
        let path = std::env::temp_dir().join(format!(
            "adapt_roundtrip_prop_{block_records}_{}.atrc",
            records.len()
        ));
        let opts = TraceCaptureOptions {
            records_per_block: block_records,
            ..Default::default()
        };
        let mut writer = TraceWriter::with_options(&path, 1, "prop", opts).unwrap();
        for r in &records {
            writer.push(0, *r).unwrap();
        }
        let summary = writer.finish().unwrap();
        prop_assert_eq!(summary.total_records, records.len() as u64);

        let decoded = decode_all(&path).unwrap().remove(0);
        prop_assert_eq!(decoded, records);
        std::fs::remove_file(path).ok();
    }
}

#[test]
fn header_error_paths_are_reported() {
    let path = tmp("errors");
    let mix = generate_mixes(StudyKind::Cores4, 1, 2).remove(0);
    capture_mix(
        &path,
        &mix,
        2,
        100,
        None,
        TraceCaptureOptions::for_llc_sets(64),
    )
    .unwrap();
    let good = std::fs::read(&path).unwrap();

    // Bad magic.
    let mut bad = good.clone();
    bad[0] = b'Z';
    std::fs::write(&path, &bad).unwrap();
    assert!(matches!(read_header(&path), Err(TraceError::BadMagic(_))));

    // Unsupported (future) version.
    let mut bad = good.clone();
    bad[4] = 0x7f;
    std::fs::write(&path, &bad).unwrap();
    assert!(matches!(
        read_header(&path),
        Err(TraceError::UnsupportedVersion(_))
    ));

    // Truncation anywhere in the header is detected.
    for cut in [1usize, 5, 9, 13, 40] {
        std::fs::write(&path, &good[..cut.min(good.len())]).unwrap();
        assert!(
            matches!(read_header(&path), Err(TraceError::Truncated(_))),
            "cut at {cut} must report truncation"
        );
    }

    // A flipped stream byte is caught by the per-block checksum on the first decode of
    // its block. The data region ends at the footer; the bytes just before it are the
    // last chunk's payload.
    std::fs::write(&path, &good).unwrap();
    let data_end = read_header(&path).unwrap().data_end as usize;
    let mut bad = good.clone();
    bad[data_end - 3] ^= 0x55;
    std::fs::write(&path, &bad).unwrap();
    let tampered = MappedTrace::open(&path).unwrap();
    let failures: Vec<TraceError> = (0..tampered.header().cores.len())
        .filter_map(|core| tampered.decode_core(core).err())
        .collect();
    assert!(
        matches!(failures[..], [TraceError::ChecksumMismatch { .. }]),
        "exactly the tampered core must fail, on its checksum: {failures:?}"
    );

    // Clobbering the trailing footer pointer (the last 8 bytes of a v2 file) is caught
    // at header-parse time.
    let mut bad = good.clone();
    let last = bad.len() - 1;
    bad[last] ^= 0x55;
    std::fs::write(&path, &bad).unwrap();
    assert!(matches!(
        read_header(&path),
        Err(TraceError::Corrupt(_)) | Err(TraceError::Truncated(_))
    ));

    std::fs::remove_file(path).ok();
}

#[test]
fn replay_survives_many_wraps_without_drift() {
    let path = tmp("wraps");
    let bench = adapt_llc::workloads::benchmark_by_name("gcc").unwrap();
    let mut writer = TraceWriter::create(&path, 1, "gcc").unwrap();
    writer
        .capture_source(0, &mut bench.trace(0, 64, 3), 257)
        .unwrap();
    writer.finish().unwrap();

    let mut replay = open_all(&path).unwrap().remove(0);
    let first: Vec<MemAccess> = (0..257).map(|_| replay.next_access()).collect();
    for wrap in 1..=4u64 {
        // Wraps count eagerly: serving a pass's last record completes the wrap.
        assert_eq!(replay.wraps(), wrap);
        let again: Vec<MemAccess> = (0..257).map(|_| replay.next_access()).collect();
        assert_eq!(again, first, "wrap {wrap} drifted");
    }
    std::fs::remove_file(path).ok();
}
