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
//!   disk with bounded memory, every block FNV-1a checksummed and LZ4-compressed when
//!   that shrinks it: one written format (version 3), nothing to choose. The byte-level
//!   layout is specified in `docs/atrc-format.md`; [`mod@format`] and [`header`]
//!   implement it.
//! * [`capture_mix`] and [`capture_benchmarks`] put a file around the `workloads`
//!   generators and return the [`TraceSummary`] of what the capture cost. They share one
//!   capture path, which generates and encodes every core's stream on its own hardware
//!   thread and writes the chunks in a fixed round-robin order, so a file's bytes do not
//!   depend on the thread count ([`mod@capture`]).
//! * [`MappedTrace`] is the one reader: it memory-maps a file once (plain read where
//!   mapping is unavailable), rejects structural damage at `open`, and decodes from the
//!   mapping ([`MappedStreamDecoder`] one block at a time — the way every replay reads,
//!   so a replayed core holds one decoded block — or [`MappedTrace::decode_core`] for a
//!   whole stream at once). Checksums are validated once per block *per file* and
//!   skipped on later passes and cursors, so repeated replays pay for integrity exactly
//!   once.
//!   `experiments::runner` (`MixSource::materialize_with`), `sweepd` and `tracectl` all
//!   read through it, so no file I/O runs inside the simulator loop.
//! * [`open_all`] yields one [`cache_sim::trace::TraceSource`] per core over a shared
//!   mapping, restarting each stream at its end exactly like the paper's re-execution
//!   methodology; [`decode_all`] and [`read_header`] are the other file-level conveniences,
//!   and [`compression_stats`] folds a mapping's chunk index.
//! * [`Corpus`] groups one `.atrc` per workload mix under a manifest recording the capture
//!   geometry and seed — the unit `repro sweep` sweeps through
//!   `experiments::runner::corpus_sources`, mapping each file once and fanning the
//!   (policy × mix) grid out in parallel.
//! * The `tracectl` binary captures, inspects, and sanity-checks corpus files from the
//!   command line.
//!
//! `workloads` only builds the generators (`WorkloadMix::trace_sources`) and knows no
//! file format; `experiments::runner` accepts replayed mixes through its `MixSource` enum. Round-trips
//! are lossless, so replaying a captured mix through the runner reproduces the live
//! generators' per-app IPC/MPKI bit-for-bit.
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

// `tests/atrc_assembler` names this crate from outside; `testutil` includes it too.
#[cfg(test)]
extern crate self as trace_io;

pub mod capture;
pub mod corpus;
pub mod error;
pub mod format;
pub mod header;
pub mod import;
pub mod mmap;
pub mod reader;
#[cfg(test)]
mod testutil;
pub mod writer;

pub use capture::{capture_benchmarks, capture_mix};
pub use corpus::{Corpus, CorpusEntry, CorpusMeta};
pub use error::TraceError;
pub use header::{CoreStreamInfo, TraceHeader};
pub use import::{import_into_corpus, import_to_file, ImportFormat, ImportOptions, ImportStats};
pub use mmap::{DecodeTimings, MappedStreamDecoder, MappedTrace};
pub use reader::{compression_stats, decode_all, open_all, read_header, CompressionInfo};
pub use writer::{TraceCaptureOptions, TraceSummary, TraceWriter};
