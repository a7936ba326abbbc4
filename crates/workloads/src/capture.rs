//! Trace capture: turn any synthetic generator into a persistent corpus.
//!
//! The paper's evaluation replays fixed 300M-instruction traces; this module is the bridge
//! from the in-process generators of [`crate::patterns`] / [`crate::table4`] to a durable
//! corpus. Capture is generic over [`cache_sim::trace::TraceSink`] so this crate stays
//! independent of any on-disk format — `trace_io::TraceWriter` is the production sink, and
//! implements [`CaptureTarget`] so [`capture_to_file`] can create and finalize files in one
//! call:
//!
//! ```ignore
//! workloads::capture_to_file::<trace_io::TraceWriter>(
//!     Path::new("mix0.atrc"), &mix, llc_sets, seed, 1_000_000)?;
//! ```
//!
//! Because [`cache_sim::trace::capture_into`] resets every source before draining it, a
//! captured file replayed through `trace_io::MappedTrace` yields byte-for-byte the same
//! access stream as a freshly constructed generator — the property the round-trip tests
//! and the runner's capture↔replay equivalence test assert.

use std::io;
use std::path::Path;

use cache_sim::trace::{capture_into, TraceSink};

use crate::mix::WorkloadMix;
use crate::table4::{benchmark_by_name, BenchmarkSpec};

/// A [`TraceSink`] that owns a file-backed resource: it can be created at a path and must
/// be finalized to durably persist the capture.
pub trait CaptureTarget: TraceSink + Sized {
    /// Create a sink persisting to `path`, sized for `num_cores` streams whose sources
    /// were parameterized for `llc_sets` LLC sets (recorded so replay can refuse a
    /// geometry-mismatched system; pass 0 when not applicable).
    fn create(path: &Path, num_cores: usize, label: &str, llc_sets: usize) -> io::Result<Self>;

    /// Finalize and persist everything recorded so far.
    fn finish(self) -> io::Result<()>;
}

impl BenchmarkSpec {
    /// Capture `accesses` accesses of this benchmark's synthetic trace into `sink` under
    /// core index `core_slot`.
    pub fn capture<S: TraceSink>(
        &self,
        sink: &mut S,
        core_slot: usize,
        llc_sets: usize,
        seed: u64,
        accesses: u64,
    ) -> io::Result<()> {
        let mut source = self.trace(core_slot, llc_sets, seed);
        capture_into(&mut source, sink, core_slot, accesses)
    }
}

impl WorkloadMix {
    /// Capture every application of this mix (one stream per core) into `sink`, using the
    /// same per-core generator construction as [`WorkloadMix::trace_sources`] so a replay
    /// reproduces the live mix exactly.
    pub fn capture<S: TraceSink>(
        &self,
        sink: &mut S,
        llc_sets: usize,
        seed: u64,
        accesses_per_core: u64,
    ) -> io::Result<()> {
        let mut sources = self.trace_sources(llc_sets, seed);
        for (core, source) in sources.iter_mut().enumerate() {
            capture_into(source.as_mut(), sink, core, accesses_per_core)?;
        }
        Ok(())
    }
}

/// Capture a whole workload mix to a new trace file at `path`.
///
/// `S` is the concrete file format — pass `trace_io::TraceWriter` for the binary `.atrc`
/// format. The file's label records the mix identity for later inspection.
pub fn capture_to_file<S: CaptureTarget>(
    path: &Path,
    mix: &WorkloadMix,
    llc_sets: usize,
    seed: u64,
    accesses_per_core: u64,
) -> io::Result<()> {
    let label = format!(
        "mix{}:{}cores:sets{}:seed{}",
        mix.id,
        mix.benchmarks.len(),
        llc_sets,
        seed
    );
    let mut sink = S::create(path, mix.benchmarks.len(), &label, llc_sets)?;
    mix.capture(&mut sink, llc_sets, seed, accesses_per_core)?;
    sink.finish()
}

/// Outcome of materializing one mix of a corpus: where the capture landed and what it
/// contains. `trace_io::Corpus` turns a list of these into a manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MaterializedMix {
    /// The mix's id (sweeps preserve it into their result ordering).
    pub mix_id: usize,
    /// File name relative to the corpus directory (`mix{id:04}.atrc`).
    pub file_name: String,
    /// Benchmark names, one per core, in core order.
    pub benchmarks: Vec<String>,
}

/// File-name convention for a mix's trace inside a corpus directory.
pub fn corpus_file_name(mix_id: usize) -> String {
    format!("mix{mix_id:04}.atrc")
}

/// Capture every mix exactly once into `dir` (created if needed), one trace file per
/// mix named by [`corpus_file_name`].
///
/// This is the capture step of the corpus-backed sweep engine: a sweep over P policies
/// used to regenerate every mix P times, while a materialized corpus is captured once
/// and replayed from a shared decode. `S` is the on-disk format — pass
/// `trace_io::TraceWriter`. Existing files are overwritten so the directory always
/// reflects the requested parameters.
pub fn materialize_corpus<S: CaptureTarget>(
    dir: &Path,
    mixes: &[WorkloadMix],
    llc_sets: usize,
    seed: u64,
    accesses_per_core: u64,
) -> io::Result<Vec<MaterializedMix>> {
    if mixes.is_empty() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "a corpus needs at least one mix",
        ));
    }
    std::fs::create_dir_all(dir)?;
    mixes
        .iter()
        .map(|mix| {
            let file_name = corpus_file_name(mix.id);
            capture_to_file::<S>(
                &dir.join(&file_name),
                mix,
                llc_sets,
                seed,
                accesses_per_core,
            )?;
            Ok(MaterializedMix {
                mix_id: mix.id,
                file_name,
                benchmarks: mix.benchmarks.clone(),
            })
        })
        .collect()
}

/// Capture a list of named Table 4 benchmarks (one per core, in order) to a new trace file.
///
/// Returns an [`io::ErrorKind::InvalidInput`] error when a name is not in the roster.
pub fn capture_benchmarks_to_file<S: CaptureTarget>(
    path: &Path,
    names: &[&str],
    llc_sets: usize,
    seed: u64,
    accesses_per_core: u64,
) -> io::Result<()> {
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
    let label = format!("bench:{}:sets{}:seed{}", names.join("+"), llc_sets, seed);
    let mut sink = S::create(path, specs.len(), &label, llc_sets)?;
    for (core, spec) in specs.iter().enumerate() {
        spec.capture(&mut sink, core, llc_sets, seed, accesses_per_core)?;
    }
    sink.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mix::{generate_mixes, StudyKind};
    use cache_sim::trace::MemAccess;

    #[derive(Default)]
    struct MemorySink {
        labels: Vec<String>,
        streams: Vec<Vec<MemAccess>>,
        finished: bool,
    }

    impl TraceSink for MemorySink {
        fn begin_core(&mut self, core: usize, label: &str) -> io::Result<()> {
            if self.labels.len() <= core {
                self.labels.resize(core + 1, String::new());
                self.streams.resize(core + 1, Vec::new());
            }
            self.labels[core] = label.to_string();
            Ok(())
        }

        fn record(&mut self, core: usize, access: MemAccess) -> io::Result<()> {
            self.streams[core].push(access);
            Ok(())
        }
    }

    impl CaptureTarget for MemorySink {
        fn create(
            _path: &Path,
            _num_cores: usize,
            _label: &str,
            _llc_sets: usize,
        ) -> io::Result<Self> {
            Ok(MemorySink::default())
        }

        fn finish(mut self) -> io::Result<()> {
            self.finished = true;
            Ok(())
        }
    }

    #[test]
    fn mix_capture_reproduces_live_trace_sources() {
        let mix = generate_mixes(StudyKind::Cores4, 1, 9).remove(0);
        let mut sink = MemorySink::default();
        mix.capture(&mut sink, 64, 9, 200).unwrap();
        assert_eq!(sink.streams.len(), 4);
        assert_eq!(sink.labels, mix.benchmarks);
        let mut live = mix.trace_sources(64, 9);
        for (core, src) in live.iter_mut().enumerate() {
            let expect: Vec<MemAccess> = (0..200).map(|_| src.next_access()).collect();
            assert_eq!(
                sink.streams[core], expect,
                "core {core} capture differs from live"
            );
        }
    }

    #[test]
    fn capture_to_file_drives_the_target_lifecycle() {
        let mix = generate_mixes(StudyKind::Cores4, 1, 3).remove(0);
        capture_to_file::<MemorySink>(Path::new("/tmp/x.atrc"), &mix, 64, 3, 10).unwrap();
    }

    #[test]
    fn materialize_corpus_captures_each_mix_once() {
        let dir = std::env::temp_dir().join("workloads_materialize_corpus");
        std::fs::remove_dir_all(&dir).ok();
        let mixes = generate_mixes(StudyKind::Cores4, 3, 5);
        let captured = materialize_corpus::<MemorySink>(&dir, &mixes, 64, 5, 50).unwrap();
        assert_eq!(captured.len(), 3);
        for (m, mix) in captured.iter().zip(&mixes) {
            assert_eq!(m.mix_id, mix.id);
            assert_eq!(m.file_name, corpus_file_name(mix.id));
            assert_eq!(m.benchmarks, mix.benchmarks);
        }
        assert!(dir.is_dir(), "materialize must create the directory");
        assert!(
            materialize_corpus::<MemorySink>(&dir, &[], 64, 5, 50).is_err(),
            "an empty corpus is rejected"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unknown_benchmark_name_is_rejected() {
        let err = capture_benchmarks_to_file::<MemorySink>(
            Path::new("/tmp/x.atrc"),
            &["gcc", "nope"],
            64,
            1,
            10,
        )
        .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }
}
