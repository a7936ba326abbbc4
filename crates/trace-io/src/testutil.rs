//! Fixtures shared by the reader-side unit tests.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use cache_sim::trace::{ArenaReplayTrace, MemAccess};

use crate::mmap::{MappedStreamDecoder, MappedTrace};

pub(crate) fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("trace_io_unit_{name}.atrc"))
}

/// The test-side assembler for the layouts the writer no longer emits (v2,
/// checksum-less), shared with the workspace-level format tests.
#[path = "../../../tests/atrc_assembler/mod.rs"]
pub(crate) mod atrc_assembler;

/// Write `records` strided (so compressible) records per core — 16 to a block, pushed
/// round-robin so the cores' chunks interleave on disk — in the given layout: through
/// the writer for checksummed v3, assembled for the layouts only old files have. Returns
/// the streams pushed: the reference every decode is held to.
pub(crate) fn write_layout(
    path: &Path,
    cores: usize,
    records: u64,
    version: u16,
    checksums: bool,
) -> Vec<Vec<MemAccess>> {
    let stream = |core: usize| {
        (0..records).map(move |i| MemAccess {
            addr: (core as u64) << 40 | (i * 64),
            pc: 0x400 + (i % 13) * 4,
            is_write: i % 4 == 0,
            non_mem_instrs: (i % 7) as u32,
        })
    };
    let streams: Vec<Vec<MemAccess>> = (0..cores).map(|c| stream(c).collect()).collect();
    let labels: Vec<String> = (0..cores).map(|c| format!("core{c}")).collect();
    let labels: Vec<&str> = labels.iter().map(String::as_str).collect();
    let layout = atrc_assembler::Layout {
        version,
        checksums,
        records_per_block: 16,
        llc_sets: 0,
    };
    let pushes =
        (0..records as usize).flat_map(|i| streams.iter().enumerate().map(move |(c, s)| (c, s[i])));
    atrc_assembler::write_file(path, layout, "t", &labels, pushes);
    streams
}

/// [`write_layout`] in the format the product writes.
pub(crate) fn write_trace(path: &Path, cores: usize, records: u64) -> Vec<Vec<MemAccess>> {
    write_layout(path, cores, records, 3, true)
}

/// A wrapping replay cursor over `core`, decoding one block at a time.
pub(crate) fn cursor(trace: &Arc<MappedTrace>, core: usize) -> ArenaReplayTrace {
    let decoder = MappedStreamDecoder::new(trace.clone(), core).unwrap();
    ArenaReplayTrace::new(Box::new(decoder), Arc::default())
}

/// [`cursor`] standing at record `at` of the endless stream: its decoder seeks to the
/// block that holds it, and the arena cursor resumes inside that block.
pub(crate) fn seeked(trace: &Arc<MappedTrace>, core: usize, at: u64) -> ArenaReplayTrace {
    let mut decoder = MappedStreamDecoder::new(trace.clone(), core).unwrap();
    let (passes, skip) = decoder.seek(at);
    ArenaReplayTrace::resume(Box::new(decoder), Arc::default(), passes, skip)
}
