//! Fixtures shared by the reader-side unit tests.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use cache_sim::trace::{ArenaReplayTrace, MemAccess};

use crate::mmap::{MappedStreamDecoder, MappedTrace};
use crate::writer::{TraceCaptureOptions, TraceWriter};

pub(crate) fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("trace_io_unit_{name}.atrc"))
}

/// Write `records` records per core — 16 to a block, pushed round-robin so the cores'
/// chunks interleave on disk — and return the streams pushed: the reference every
/// decode is held to.
pub(crate) fn write_trace(
    path: &Path,
    cores: usize,
    records: u64,
    compress: bool,
) -> Vec<Vec<MemAccess>> {
    let opts = TraceCaptureOptions {
        compress,
        ..Default::default()
    };
    write_trace_with(path, cores, records, opts)
}

/// [`write_trace`] with explicit capture options (the block size stays 16).
pub(crate) fn write_trace_with(
    path: &Path,
    cores: usize,
    records: u64,
    opts: TraceCaptureOptions,
) -> Vec<Vec<MemAccess>> {
    let opts = TraceCaptureOptions {
        records_per_block: 16,
        ..opts
    };
    let mut w = TraceWriter::with_options(path, cores, "t", opts).unwrap();
    let mut streams = vec![Vec::new(); cores];
    for i in 0..records {
        for (core, stream) in streams.iter_mut().enumerate() {
            let access = MemAccess {
                addr: (core as u64) << 40 | (i * 64),
                pc: 0x400 + (i % 13) * 4,
                is_write: i % 4 == 0,
                non_mem_instrs: (i % 7) as u32,
            };
            w.push(core, access).unwrap();
            stream.push(access);
        }
    }
    w.finish().unwrap();
    streams
}

/// A wrapping replay cursor over `core`, decoding `batch_records` at a time.
pub(crate) fn cursor(
    trace: &Arc<MappedTrace>,
    core: usize,
    batch_records: usize,
) -> ArenaReplayTrace {
    let decoder = MappedStreamDecoder::new(trace.clone(), core, batch_records).unwrap();
    ArenaReplayTrace::new(Box::new(decoder), Arc::default())
}
