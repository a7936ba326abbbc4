//! Trace capture: drain any synthetic generator into a [`TraceSink`].
//!
//! The paper's evaluation replays fixed 300M-instruction traces; this module is the bridge
//! from the in-process generators of [`crate::patterns`] / [`crate::table4`] to a durable
//! corpus. It stops at the sink: [`WorkloadMix::capture`] and [`BenchmarkSpec::capture`]
//! are generic over [`cache_sim::trace::TraceSink`], so this crate stays independent of
//! any on-disk format. Putting a file around them — create, label, drain, finish — is
//! `trace_io::capture_mix` / `trace_io::capture_benchmarks`, which write `.atrc`.
//!
//! Because [`cache_sim::trace::capture_into`] resets every source before draining it, a
//! capture yields byte-for-byte the same access stream as a freshly constructed
//! generator.

use std::io;

use cache_sim::trace::{capture_into, TraceSink};

use crate::mix::WorkloadMix;
use crate::table4::BenchmarkSpec;

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

/// File-name convention for a mix's trace inside a corpus directory.
pub fn corpus_file_name(mix_id: usize) -> String {
    format!("mix{mix_id:04}.atrc")
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
}
