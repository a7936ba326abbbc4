//! Capture to file: the file around `workloads`' drain-into-a-sink.
//!
//! `WorkloadMix::capture` and `BenchmarkSpec::capture` drain generators into any
//! [`cache_sim::trace::TraceSink`]; these two functions create the [`TraceWriter`], label
//! it, drain, finish, and return what the capture cost. [`crate::Corpus::materialize`]
//! and `tracectl capture` are loops over them. The generators are parameterized with
//! `opts.llc_sets`, the value the header records, so a file cannot claim a geometry other
//! than the one it was drawn for.

use std::io;
use std::path::Path;

use workloads::{benchmark_by_name, BenchmarkSpec, WorkloadMix};

use crate::writer::{TraceCaptureOptions, TraceSummary, TraceWriter};

/// Capture a whole workload mix (one stream per core, `accesses_per_core` records each)
/// to a new trace file at `path`, labeled `mix{id}:{n}cores:sets{llc_sets}:seed{seed}`
/// unless `label` overrides it.
pub fn capture_mix(
    path: &Path,
    mix: &WorkloadMix,
    seed: u64,
    accesses_per_core: u64,
    label: Option<&str>,
    opts: TraceCaptureOptions,
) -> io::Result<TraceSummary> {
    let (cores, sets) = (mix.benchmarks.len(), opts.llc_sets);
    let default = format!("mix{}:{cores}cores:sets{sets}:seed{seed}", mix.id);
    let mut writer = TraceWriter::with_options(path, cores, label.unwrap_or(&default), opts)?;
    mix.capture(&mut writer, sets as usize, seed, accesses_per_core)?;
    writer.finish()
}

/// Capture a list of named Table 4 benchmarks (one per core, in order) to a new trace
/// file at `path`, labeled `bench:{a+b+..}:sets{llc_sets}:seed{seed}` unless `label`
/// overrides it. Every name is resolved before the file is created, so a typo is an
/// [`io::ErrorKind::InvalidInput`] error that leaves nothing behind.
pub fn capture_benchmarks(
    path: &Path,
    names: &[&str],
    seed: u64,
    accesses_per_core: u64,
    label: Option<&str>,
    opts: TraceCaptureOptions,
) -> io::Result<TraceSummary> {
    let specs: Vec<&BenchmarkSpec> = names
        .iter()
        .map(|n| {
            benchmark_by_name(n).ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!("unknown benchmark {n:?}"),
                )
            })
        })
        .collect::<io::Result<_>>()?;
    let sets = opts.llc_sets;
    let default = format!("bench:{}:sets{sets}:seed{seed}", names.join("+"));
    let mut writer = TraceWriter::with_options(path, specs.len(), label.unwrap_or(&default), opts)?;
    for (core, spec) in specs.iter().enumerate() {
        spec.capture(&mut writer, core, sets as usize, seed, accesses_per_core)?;
    }
    writer.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reader::{decode_all, read_header};
    use workloads::{generate_mixes, StudyKind};

    fn sets(llc_sets: u32) -> TraceCaptureOptions {
        TraceCaptureOptions {
            llc_sets,
            ..Default::default()
        }
    }

    #[test]
    fn unknown_benchmark_name_is_rejected() {
        let path = std::env::temp_dir().join("trace_io_capture_unknown.atrc");
        std::fs::remove_file(&path).ok();
        let err = capture_benchmarks(&path, &["gcc", "nope"], 1, 10, None, sets(64)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(!path.exists(), "a typo must not leave a file behind");
    }

    #[test]
    fn labels_name_the_capture_unless_overridden() {
        let dir = std::env::temp_dir();
        let mix = generate_mixes(StudyKind::Cores4, 1, 3).remove(0);
        let path = dir.join("trace_io_capture_labels.atrc");

        capture_mix(&path, &mix, 3, 10, None, sets(64)).unwrap();
        let header = read_header(&path).unwrap();
        assert_eq!(header.label, "mix0:4cores:sets64:seed3");
        assert_eq!(header.llc_sets, 64);
        let labels: Vec<&str> = header.cores.iter().map(|c| c.label.as_str()).collect();
        assert_eq!(labels, mix.benchmarks);

        capture_benchmarks(&path, &["gcc", "lbm"], 5, 10, None, sets(128)).unwrap();
        assert_eq!(
            read_header(&path).unwrap().label,
            "bench:gcc+lbm:sets128:seed5"
        );

        let small_blocks = TraceCaptureOptions {
            records_per_block: 4,
            llc_sets: 64,
        };
        let summary = capture_mix(&path, &mix, 3, 10, Some("mine"), small_blocks).unwrap();
        assert_eq!(read_header(&path).unwrap().label, "mine");
        assert_eq!(summary.total_records, 40);
        let trace = crate::MappedTrace::open(&path).unwrap();
        assert_eq!(trace.chunk_count(0), 3, "10 records in blocks of 4");
        assert_eq!(decode_all(&path).unwrap().len(), 4);
        std::fs::remove_file(path).ok();
    }
}
