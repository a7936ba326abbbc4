//! [`TraceWriter`]: capture per-core access streams into a binary trace file.
//!
//! This module owns "which bytes does a capture write", and there is nothing to set:
//! every file is `.atrc` version 3 — chunked, every chunk checksummed, each block
//! LZ4-compressed when that shrinks it and stored raw otherwise. Older layouts stay
//! readable (`docs/atrc-format.md` § Versioning); nothing in the product writes them.
//!
//! The writer is *streaming*: a block is framed as a chunk (`core_id`, length, record
//! count, checksum) and written to disk the moment it fills, so resident memory stays
//! bounded by `records_per_block × num_cores` regardless of capture length — captures
//! larger than RAM work. The parallel capture behind [`crate::capture_mix`]
//! ([`mod@crate::capture`]) encodes blocks on worker threads and hands them to the writer
//! through one bounded channel per core, so there the bound is `channel depth (32) ×
//! records_per_block × num_cores`, still independent of capture length. Either way every
//! chunk reaches the file through one method on the thread that owns the writer, which
//! is also where the `atrc.write` fault site fires. The per-core directory is written as
//! a footer by [`finish`](TraceWriter::finish); a file without its footer is invalid by
//! construction, which makes interrupted captures detectable.

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};

use cache_sim::trace::{MemAccess, TraceSource};

use crate::format::{
    compress_payload, encode_block_payload, fnv1a32, put_u32, BLOCK_COMPRESSED_BIT,
    DEFAULT_BLOCK_RECORDS, FORMAT_VERSION_V3, MAX_BLOCK_RECORDS,
};
use crate::header::{CoreStreamInfo, TraceHeader, MAX_CORES};

/// Knobs for a capture session.
#[derive(Debug, Clone, Copy)]
pub struct TraceCaptureOptions {
    /// Records buffered into one chunk before it is framed, encoded and written out.
    pub records_per_block: usize,
    /// LLC set count the captured sources were parameterized with, recorded in the
    /// header so replay can refuse a geometry-mismatched system (0 = unknown).
    pub llc_sets: u32,
}

impl Default for TraceCaptureOptions {
    fn default() -> Self {
        TraceCaptureOptions {
            records_per_block: DEFAULT_BLOCK_RECORDS,
            llc_sets: 0,
        }
    }
}

impl TraceCaptureOptions {
    /// The default block size, for sources parameterized with `llc_sets` LLC sets.
    pub fn for_llc_sets(llc_sets: usize) -> Self {
        TraceCaptureOptions {
            llc_sets: llc_sets.try_into().unwrap_or(u32::MAX),
            ..Default::default()
        }
    }
}

/// One block framed as a chunk, ready to write: the frame (`core_id`, payload length,
/// record-count field, checksum) followed by the payload as stored.
pub(crate) struct Chunk {
    core: usize,
    bytes: Vec<u8>,
    records: u64,
    instructions: u64,
}

/// Length of a chunk's frame: four `u32` words.
const FRAME_BYTES: usize = 16;

/// Encode `records` as `core`'s next chunk, using `raw` as scratch. The raw payload is
/// swapped for `raw_len || LZ4(payload)` when that is smaller, signaled by
/// [`BLOCK_COMPRESSED_BIT`] in the record-count field; the checksum covers the bytes as
/// stored, so integrity is checked *before* decompression. Pure: the one encoder both
/// [`TraceWriter::push`] and the parallel capture workers use.
pub(crate) fn encode_chunk(core: usize, records: &[MemAccess], raw: &mut Vec<u8>) -> Chunk {
    raw.clear();
    encode_block_payload(records, raw);
    let mut record_field = records.len() as u32;
    let compressed = compress_payload(raw);
    if compressed.is_some() {
        record_field |= BLOCK_COMPRESSED_BIT;
    }
    let payload = compressed.as_deref().unwrap_or(raw);
    let mut bytes = Vec::with_capacity(FRAME_BYTES + payload.len());
    put_u32(&mut bytes, core as u32);
    put_u32(&mut bytes, payload.len() as u32);
    put_u32(&mut bytes, record_field);
    put_u32(&mut bytes, fnv1a32(payload));
    bytes.extend_from_slice(payload);
    Chunk {
        core,
        bytes,
        records: records.len() as u64,
        instructions: records.iter().map(MemAccess::instructions).sum(),
    }
}

/// Per-core capture state: the records of the chunk currently being filled plus running
/// directory totals. Encoded bytes go straight to disk, not here.
struct CoreEncoder {
    label: String,
    pending: Vec<MemAccess>,
    first_chunk_offset: Option<u64>,
    bytes: u64,
    records: u64,
    instructions: u64,
}

/// Summary returned by [`TraceWriter::finish`].
#[derive(Debug, Clone)]
pub struct TraceSummary {
    /// Path of the finished file.
    pub path: PathBuf,
    /// Total size of the file, footer included.
    pub file_bytes: u64,
    /// Records captured across all cores.
    pub total_records: u64,
    /// (label, records) per core, in core order.
    pub per_core: Vec<(String, u64)>,
}

impl TraceSummary {
    /// Mean encoded bytes per record, header included.
    pub fn bytes_per_record(&self) -> f64 {
        if self.total_records == 0 {
            0.0
        } else {
            self.file_bytes as f64 / self.total_records as f64
        }
    }
}

/// Captures any [`TraceSource`]s into the binary `.atrc` format (version 3: chunked,
/// checksummed, blocks LZ4-compressed when that shrinks them).
///
/// Chunks stream to disk as they fill, so memory use is O(`records_per_block` ×
/// `num_cores`) — independent of how many records are captured.
pub struct TraceWriter {
    path: PathBuf,
    out: BufWriter<File>,
    label: String,
    opts: TraceCaptureOptions,
    cores: Vec<CoreEncoder>,
    /// Absolute offset the next write lands on.
    offset: u64,
    scratch: Vec<u8>,
}

impl TraceWriter {
    /// Create a writer for `num_cores` streams persisting to `path`.
    ///
    /// The file is created (and truncated) eagerly so path problems surface before an
    /// expensive capture runs; the format preamble is written immediately.
    pub fn create(path: impl AsRef<Path>, num_cores: usize, label: &str) -> io::Result<Self> {
        Self::with_options(path, num_cores, label, TraceCaptureOptions::default())
    }

    /// [`create`](TraceWriter::create) with explicit [`TraceCaptureOptions`].
    pub fn with_options(
        path: impl AsRef<Path>,
        num_cores: usize,
        label: &str,
        opts: TraceCaptureOptions,
    ) -> io::Result<Self> {
        if num_cores == 0 || num_cores > MAX_CORES as usize {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("core count {num_cores} out of range 1..={MAX_CORES}"),
            ));
        }
        if opts.records_per_block == 0 || opts.records_per_block > MAX_BLOCK_RECORDS {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "records_per_block {} out of range 1..={MAX_BLOCK_RECORDS}",
                    opts.records_per_block
                ),
            ));
        }
        validate_label(label)?;
        let path = path.as_ref().to_path_buf();
        let file = File::create(&path)?;
        let cores: Vec<CoreEncoder> = (0..num_cores)
            .map(|i| CoreEncoder {
                label: format!("core{i}"),
                pending: Vec::new(),
                first_chunk_offset: None,
                bytes: 0,
                records: 0,
                instructions: 0,
            })
            .collect();
        let mut writer = TraceWriter {
            path,
            out: BufWriter::new(file),
            label: label.to_string(),
            opts,
            cores,
            offset: 0,
            scratch: Vec::new(),
        };
        let preamble = writer.header().encode_preamble();
        writer.out.write_all(&preamble)?;
        writer.offset = preamble.len() as u64;
        Ok(writer)
    }

    /// Number of per-core streams.
    pub fn num_cores(&self) -> usize {
        self.cores.len()
    }

    /// The in-memory header reflecting everything captured so far.
    fn header(&self) -> TraceHeader {
        TraceHeader {
            version: FORMAT_VERSION_V3,
            checksums: true,
            chunked: true,
            compressed: true,
            llc_sets: self.opts.llc_sets,
            label: self.label.clone(),
            cores: self
                .cores
                .iter()
                .map(|c| CoreStreamInfo {
                    label: c.label.clone(),
                    offset: c.first_chunk_offset.unwrap_or(0),
                    bytes: c.bytes,
                    records: c.records,
                    instructions: c.instructions,
                })
                .collect(),
            data_end: self.offset,
        }
    }

    fn core_mut(&mut self, core: usize) -> io::Result<&mut CoreEncoder> {
        let n = self.cores.len();
        self.cores
            .get_mut(core)
            .ok_or_else(|| core_out_of_range(core, n))
    }

    /// Records per chunk this writer frames.
    pub(crate) fn records_per_block(&self) -> usize {
        self.opts.records_per_block
    }

    /// Encode and write `core`'s pending records as one chunk.
    fn flush_chunk(&mut self, core: usize) -> io::Result<()> {
        if self.cores[core].pending.is_empty() {
            return Ok(());
        }
        let chunk = encode_chunk(core, &self.cores[core].pending, &mut self.scratch);
        self.cores[core].pending.clear();
        self.write_chunk(&chunk)
    }

    /// Append an encoded chunk at the end of the data region and account for it in its
    /// core's directory entry. The `atrc.write` fault site fires here, once per chunk in
    /// file order, on whichever thread owns the writer.
    pub(crate) fn write_chunk(&mut self, chunk: &Chunk) -> io::Result<()> {
        match sim_fault::fire("atrc.write") {
            Some(sim_fault::FaultKind::TornWrite) => {
                // A torn write reaches disk as a prefix of the chunk: the frame lands
                // but the payload is cut short, then the device errors.
                let payload = chunk.bytes.len() - FRAME_BYTES;
                self.out
                    .write_all(&chunk.bytes[..FRAME_BYTES + payload / 2])?;
                let _ = self.out.flush();
                return Err(sim_fault::injected_io_error(
                    sim_fault::FaultKind::TornWrite,
                    "atrc.write",
                ));
            }
            Some(kind) => sim_fault::apply_io(kind, "atrc.write")?,
            None => {}
        }
        self.out.write_all(&chunk.bytes)?;
        let total = chunk.bytes.len() as u64;
        let enc = &mut self.cores[chunk.core];
        enc.first_chunk_offset.get_or_insert(self.offset);
        enc.bytes += total;
        enc.records += chunk.records;
        enc.instructions += chunk.instructions;
        self.offset += total;
        Ok(())
    }

    /// Announce (or rename) the application captured on `core`.
    pub fn begin_core(&mut self, core: usize, label: &str) -> io::Result<()> {
        validate_label(label)?;
        self.core_mut(core)?.label = label.to_string();
        Ok(())
    }

    /// Append one access to `core`'s stream, spilling a full chunk to disk.
    pub fn push(&mut self, core: usize, access: MemAccess) -> io::Result<()> {
        let records_per_block = self.opts.records_per_block;
        let enc = self.core_mut(core)?;
        enc.pending.push(access);
        if enc.pending.len() >= records_per_block {
            self.flush_chunk(core)?;
        }
        Ok(())
    }

    /// Capture `accesses` accesses from `source` into `core`'s stream, labeled with the
    /// source's label. The source is reset first, so a capture always starts from the
    /// initial stream and a captured corpus equals a freshly constructed generator.
    pub fn capture_source(
        &mut self,
        core: usize,
        source: &mut dyn TraceSource,
        accesses: u64,
    ) -> io::Result<()> {
        source.reset();
        self.begin_core(core, &source.label())?;
        for _ in 0..accesses {
            self.push(core, source.next_access())?;
        }
        Ok(())
    }

    /// Flush pending chunks, write the directory footer, and return a capture summary.
    pub fn finish(mut self) -> io::Result<TraceSummary> {
        for core in 0..self.cores.len() {
            self.flush_chunk(core)?;
        }
        let header = self.header();
        let footer = header.encode_footer(self.offset);
        self.out.write_all(&footer)?;
        self.out.flush()?;
        sim_fault::fail_io("atrc.sync")?;
        self.out.get_ref().sync_all()?;
        Ok(TraceSummary {
            path: self.path.clone(),
            file_bytes: self.offset + footer.len() as u64,
            total_records: header.total_records(),
            per_core: self
                .cores
                .iter()
                .map(|c| (c.label.clone(), c.records))
                .collect(),
        })
    }
}

fn core_out_of_range(core: usize, num_cores: usize) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidInput,
        format!("core {core} out of range for {num_cores}-core writer"),
    )
}

fn validate_label(label: &str) -> io::Result<()> {
    if label.len() > crate::header::MAX_LABEL_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!(
                "label of {} bytes exceeds the format's {}-byte bound",
                label.len(),
                crate::header::MAX_LABEL_BYTES
            ),
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_rejects_zero_cores_and_zero_block() {
        let dir = std::env::temp_dir();
        assert!(TraceWriter::create(dir.join("z.atrc"), 0, "x").is_err());
        let opts = TraceCaptureOptions {
            records_per_block: 0,
            ..Default::default()
        };
        assert!(TraceWriter::with_options(dir.join("z.atrc"), 1, "x", opts).is_err());
    }

    #[test]
    fn create_rejects_oversized_labels() {
        let dir = std::env::temp_dir();
        let long = "x".repeat(crate::header::MAX_LABEL_BYTES + 1);
        assert!(TraceWriter::create(dir.join("z.atrc"), 1, &long).is_err());
        let path = dir.join("trace_io_writer_longcore.atrc");
        let mut w = TraceWriter::create(&path, 1, "ok").unwrap();
        assert!(w.begin_core(0, &long).is_err());
        assert!(w.begin_core(0, "fine").is_ok());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn push_rejects_out_of_range_core() {
        let path = std::env::temp_dir().join("trace_io_writer_oob.atrc");
        let mut w = TraceWriter::create(&path, 2, "t").unwrap();
        let a = MemAccess {
            addr: 0,
            pc: 0,
            is_write: false,
            non_mem_instrs: 0,
        };
        assert!(w.push(2, a).is_err());
        assert!(w.push(1, a).is_ok());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn summary_counts_records_and_instructions() {
        let path = std::env::temp_dir().join("trace_io_writer_summary.atrc");
        let mut w = TraceWriter::create(&path, 1, "t").unwrap();
        for i in 0..10u64 {
            w.push(
                0,
                MemAccess {
                    addr: i * 64,
                    pc: 4,
                    is_write: false,
                    non_mem_instrs: 3,
                },
            )
            .unwrap();
        }
        let summary = w.finish().unwrap();
        assert_eq!(summary.total_records, 10);
        assert_eq!(summary.per_core, vec![("core0".to_string(), 10)]);
        assert!(summary.bytes_per_record() > 0.0);
        let on_disk = std::fs::metadata(&path).unwrap().len();
        assert_eq!(on_disk, summary.file_bytes);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn capture_source_resets_then_drains_the_source() {
        use cache_sim::trace::SharedReplayTrace;
        let records: Vec<MemAccess> = (1..=3)
            .map(|addr| MemAccess {
                addr,
                pc: 4,
                is_write: false,
                non_mem_instrs: 2,
            })
            .collect();
        let mut source = SharedReplayTrace::new("app", std::sync::Arc::new(records));
        source.next_access(); // a capture must not start mid-stream
        let path = std::env::temp_dir().join("trace_io_writer_capture_source.atrc");
        let mut w = TraceWriter::create(&path, 1, "t").unwrap();
        w.capture_source(0, &mut source, 5).unwrap();
        let summary = w.finish().unwrap();
        assert_eq!(summary.per_core, vec![("app".to_string(), 5)]);
        let decoded = crate::reader::decode_all(&path).unwrap();
        let addrs: Vec<u64> = decoded[0].iter().map(|a| a.addr).collect();
        assert_eq!(addrs, vec![1, 2, 3, 1, 2]);
        assert_eq!(decoded[0][0].instructions(), 3);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn chunks_stream_to_disk_before_finish() {
        // The point of chunked framing: the file grows while the capture is still
        // running, so resident memory does not scale with capture length.
        let path = std::env::temp_dir().join("trace_io_writer_streaming.atrc");
        let opts = TraceCaptureOptions {
            records_per_block: 8,
            ..Default::default()
        };
        let mut w = TraceWriter::with_options(&path, 1, "t", opts).unwrap();
        for i in 0..1000u64 {
            w.push(
                0,
                MemAccess {
                    addr: i * 64,
                    pc: 0,
                    is_write: false,
                    non_mem_instrs: 0,
                },
            )
            .unwrap();
        }
        // Force buffered chunks out so the on-disk size is observable mid-capture.
        w.out.flush().unwrap();
        let mid_capture = std::fs::metadata(&path).unwrap().len();
        assert!(
            mid_capture > 500,
            "chunks must reach the file before finish, got {mid_capture} bytes"
        );
        let summary = w.finish().unwrap();
        assert!(summary.file_bytes > mid_capture);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn interrupted_capture_leaves_an_unreadable_file() {
        // Dropping the writer without finish() leaves no footer; readers must reject the
        // file instead of replaying a silently truncated stream.
        let path = std::env::temp_dir().join("trace_io_writer_interrupted.atrc");
        let opts = TraceCaptureOptions {
            records_per_block: 4,
            ..Default::default()
        };
        let mut w = TraceWriter::with_options(&path, 1, "t", opts).unwrap();
        for i in 0..64u64 {
            w.push(
                0,
                MemAccess {
                    addr: i,
                    pc: 0,
                    is_write: false,
                    non_mem_instrs: 0,
                },
            )
            .unwrap();
        }
        w.out.flush().unwrap();
        drop(w);
        assert!(crate::read_header(&path).is_err());
        std::fs::remove_file(path).ok();
    }
}
