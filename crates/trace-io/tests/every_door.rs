//! "Every door writes v3": each entry point that can put an `.atrc` on disk is driven
//! once and held to the one format the product writes — version 3, chunked, every chunk
//! checksummed, compressed flag set — and to the records that went in.
//!
//! The doors: `TraceWriter::create`, `TraceWriter::with_options`, `capture_mix`,
//! `capture_benchmarks`, `Corpus::materialize`, `import_to_file`, `import_into_corpus`
//! and the built `tracectl capture`. (`repro corpus` is the ninth; its binary belongs to
//! `experiments`, so `crates/experiments/tests/cli_flags.rs` holds that leg.)

use std::path::{Path, PathBuf};
use std::process::Command;

use cache_sim::trace::{MemAccess, TraceSource};
use trace_io::import::{import_into_corpus, import_to_file, ImportFormat, ImportOptions};
use trace_io::{
    capture_benchmarks, capture_mix, decode_all, read_header, Corpus, TraceCaptureOptions,
    TraceSummary, TraceWriter,
};
use workloads::{benchmark_by_name, generate_mixes, StudyKind, WorkloadMix};

const LLC_SETS: u32 = 64;
const SEED: u64 = 3;
const ACCESSES: u64 = 50;

/// The file at `path` is in the written format; returns what it decodes to.
#[track_caller]
fn assert_written_format(door: &str, path: &Path) -> Vec<Vec<MemAccess>> {
    let header = read_header(path).unwrap_or_else(|e| panic!("{door}: {e}"));
    assert!(
        header.version == 3 && header.checksums && header.chunked && header.compressed,
        "{door} wrote v{} checksums={} chunked={} compressed={}",
        header.version,
        header.checksums,
        header.chunked,
        header.compressed
    );
    decode_all(path).unwrap_or_else(|e| panic!("{door}: {e}"))
}

#[track_caller]
fn assert_summary_matches_disk(door: &str, summary: &TraceSummary) {
    assert_eq!(
        summary.file_bytes,
        std::fs::metadata(&summary.path).unwrap().len(),
        "{door}: the summary's size is not the file's"
    );
}

fn drain(mut source: impl TraceSource, records: u64) -> Vec<MemAccess> {
    source.reset();
    (0..records).map(|_| source.next_access()).collect()
}

fn live_mix(mix: &WorkloadMix) -> Vec<Vec<MemAccess>> {
    mix.trace_sources(LLC_SETS as usize, SEED)
        .into_iter()
        .map(|source| drain(source, ACCESSES))
        .collect()
}

fn hand_made(cores: usize) -> Vec<Vec<MemAccess>> {
    (0..cores as u64)
        .map(|core| {
            (0..ACCESSES)
                .map(|i| MemAccess {
                    addr: 0x1000_0000 * (core + 1) + i * 64,
                    pc: 0x400 + (i % 5) * 4,
                    is_write: i % 3 == 0,
                    non_mem_instrs: (i % 4) as u32,
                })
                .collect()
        })
        .collect()
}

fn push_all(mut writer: TraceWriter, streams: &[Vec<MemAccess>]) {
    for (core, stream) in streams.iter().enumerate() {
        for record in stream {
            writer.push(core, *record).unwrap();
        }
    }
    writer.finish().unwrap();
}

fn csv_of(streams: &[Vec<MemAccess>]) -> String {
    let mut csv = String::from("core,addr,pc,rw,non_mem\n");
    for (core, stream) in streams.iter().enumerate() {
        for r in stream {
            let rw = if r.is_write { 'W' } else { 'R' };
            csv += &format!(
                "{core},0x{:x},0x{:x},{rw},{}\n",
                r.addr, r.pc, r.non_mem_instrs
            );
        }
    }
    csv
}

#[test]
fn every_write_door_emits_checksummed_v3() {
    let dir = std::env::temp_dir().join("trace_io_every_door");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let opts = TraceCaptureOptions {
        llc_sets: LLC_SETS,
        ..Default::default()
    };
    let mixes = generate_mixes(StudyKind::Cores4, 2, SEED);
    let streams = hand_made(4);

    let path = dir.join("create.atrc");
    push_all(TraceWriter::create(&path, 4, "door").unwrap(), &streams);
    assert_eq!(assert_written_format("TraceWriter::create", &path), streams);

    let path = dir.join("with_options.atrc");
    let small_blocks = TraceCaptureOptions {
        records_per_block: 7,
        ..opts
    };
    push_all(
        TraceWriter::with_options(&path, 4, "door", small_blocks).unwrap(),
        &streams,
    );
    assert_eq!(
        assert_written_format("TraceWriter::with_options", &path),
        streams
    );

    let path = dir.join("capture_mix.atrc");
    let summary = capture_mix(&path, &mixes[0], SEED, ACCESSES, None, opts).unwrap();
    assert_summary_matches_disk("capture_mix", &summary);
    assert_eq!(
        assert_written_format("capture_mix", &path),
        live_mix(&mixes[0])
    );

    let path = dir.join("capture_benchmarks.atrc");
    let names = ["gcc", "lbm"];
    let summary = capture_benchmarks(&path, &names, SEED, ACCESSES, None, opts).unwrap();
    assert_summary_matches_disk("capture_benchmarks", &summary);
    let live: Vec<Vec<MemAccess>> = names
        .iter()
        .enumerate()
        .map(|(core, name)| {
            let spec = benchmark_by_name(name).unwrap();
            drain(spec.trace(core, LLC_SETS as usize, SEED), ACCESSES)
        })
        .collect();
    assert_eq!(assert_written_format("capture_benchmarks", &path), live);

    let (corpus, summaries) = Corpus::materialize(
        dir.join("corpus"),
        "door",
        &mixes,
        LLC_SETS as usize,
        SEED,
        ACCESSES,
    )
    .unwrap();
    for ((entry, summary), mix) in corpus.entries().iter().zip(&summaries).zip(&mixes) {
        assert_summary_matches_disk("Corpus::materialize", summary);
        assert_eq!(
            assert_written_format("Corpus::materialize", &corpus.path_for(entry)),
            live_mix(mix)
        );
    }

    let csv = dir.join("in.csv");
    std::fs::write(&csv, csv_of(&streams)).unwrap();
    let import = ImportOptions {
        capture: opts,
        core_labels: ["gcc", "lbm", "mcf", "calc"].map(String::from).to_vec(),
        ..Default::default()
    };
    let path = dir.join("import_to_file.atrc");
    import_to_file(
        std::slice::from_ref(&csv),
        ImportFormat::Csv,
        &path,
        &import,
    )
    .unwrap();
    assert_eq!(assert_written_format("import_to_file", &path), streams);

    let outcome = import_into_corpus(
        &dir.join("imported"),
        0,
        std::slice::from_ref(&csv),
        ImportFormat::Csv,
        &import,
        SEED,
    )
    .unwrap();
    assert_eq!(
        assert_written_format("import_into_corpus", &outcome.path),
        streams
    );

    let path: PathBuf = dir.join("tracectl.atrc");
    let output = Command::new(env!("CARGO_BIN_EXE_tracectl"))
        .args(["capture", "--study", "4", "--mix-id", "1"])
        .args(["--accesses", &ACCESSES.to_string()])
        .args(["--llc-sets", &LLC_SETS.to_string()])
        .args(["--seed", &SEED.to_string(), "--out"])
        .arg(&path)
        .output()
        .expect("tracectl must run");
    assert!(
        output.status.success(),
        "tracectl capture: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    assert_eq!(
        assert_written_format("tracectl capture", &path),
        live_mix(&mixes[1])
    );
    // The CLI labels its files as the library does, not by a convention of its own.
    assert_eq!(
        read_header(&path).unwrap().label,
        read_header(corpus.path_for(&corpus.entries()[1]))
            .unwrap()
            .label
    );
    std::fs::remove_dir_all(&dir).ok();
}
