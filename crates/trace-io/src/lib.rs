//! # trace-io
//!
//! Binary trace capture and replay for the ADAPT reproduction.
//!
//! The paper's evaluation is trace-driven: fixed 300M-instruction slices are replayed per
//! core, and an application that finishes early is re-executed from the beginning until
//! every co-runner reaches its target. The rest of this workspace generates those streams
//! *in process* (the synthetic models in `workloads`); this crate makes them durable, so a
//! workload becomes a reproducible corpus instead of something regenerated on every run:
//!
//! * [`TraceWriter`] captures any [`cache_sim::trace::TraceSource`] into a compact `.atrc`
//!   file — per-core record streams, delta + varint encoded, chunked so captures stream to
//!   disk with bounded memory, with optional per-block FNV-1a checksums. The byte-level
//!   layout is specified in `docs/atrc-format.md`; [`mod@format`] and [`header`]
//!   implement it.
//! * [`TraceReader`] replays one core's stream as a [`cache_sim::trace::TraceSource`],
//!   buffered block-at-a-time, rewinding on EOF exactly like the paper's re-execution
//!   methodology. Checksums are validated once per block and skipped on later passes, so
//!   repeated replays pay for integrity exactly once. [`open_all`] opens one per core.
//!   It is the small, independent decoder the fuzz, round-trip and conformance suites
//!   check the format against — not the experiment runner's replay path.
//! * [`MappedTrace`] memory-maps a file once and decodes from the mapping
//!   ([`MappedTrace::decode_core`] up front, [`MappedStreamDecoder`] in bounded
//!   batches). This is the one replay entry point of `experiments::runner`
//!   (`MixSource::materialize_with`), so no file I/O runs inside the simulator loop.
//! * [`Corpus`] groups one `.atrc` per workload mix under a manifest recording the capture
//!   geometry and seed — the unit `experiments::runner::sweep_policies_on_corpus_with`
//!   sweeps, decoding each file once and fanning the (policy × mix) grid out in parallel.
//! * The `tracectl` binary captures, inspects, and sanity-checks corpus files from the
//!   command line.
//!
//! Capture entry points live in `workloads` (`workloads::capture_to_file`,
//! `workloads::materialize_corpus` and friends) and are generic over
//! [`cache_sim::trace::TraceSink`]; `experiments::runner` accepts replayed mixes through
//! its `MixSource` enum. Round-trips are lossless, so replaying a captured mix through the
//! runner reproduces the live generators' per-app IPC/MPKI bit-for-bit.
//!
//! ```
//! use cache_sim::trace::{StridedTrace, TraceSource};
//! use trace_io::{open_all, TraceWriter};
//!
//! let path = std::env::temp_dir().join("trace_io_doc.atrc");
//! let mut writer = TraceWriter::create(&path, 1, "doc").unwrap();
//! let mut source = StridedTrace::new(0x1000, 64, 4096, 3);
//! writer.capture_source(0, &mut source, 1000).unwrap();
//! writer.finish().unwrap();
//!
//! let mut replay = open_all(&path).unwrap().remove(0);
//! source.reset();
//! for _ in 0..1000 {
//!     assert_eq!(replay.next_access(), source.next_access());
//! }
//! std::fs::remove_file(path).unwrap();
//! ```

#![warn(missing_docs)]

pub mod corpus;
pub mod error;
pub mod format;
pub mod header;
pub mod import;
pub mod mmap;
pub mod reader;
pub mod writer;

pub use corpus::{Corpus, CorpusEntry, CorpusMeta};
pub use error::TraceError;
pub use header::{CoreStreamInfo, TraceHeader};
pub use import::{import_into_corpus, import_to_file, ImportFormat, ImportOptions, ImportStats};
pub use mmap::{
    decode_all_mapped, MappedStreamDecoder, MappedTrace, PrefetchingSource, DEFAULT_BATCH_RECORDS,
};
pub use reader::{
    compression_stats, decode_all, open_all, read_header, CompressionInfo, DecodeTimings,
    TraceReader,
};
pub use writer::{CompressedTraceWriter, TraceCaptureOptions, TraceSummary, TraceWriter};
