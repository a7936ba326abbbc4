//! [`MappedTrace`]: the one reader of `.atrc` files.
//!
//! [`MappedTrace::open`] memory-maps a `.atrc` file (via the `memmap2` stand-in, which
//! falls back to a plain read where mapping is unavailable), parses the header straight
//! from the mapped bytes, and eagerly scans every core's chunk frames into an in-memory
//! chunk index. The scan applies every structural check of `docs/atrc-format.md` —
//! implausible framing, payload overruns, directory byte and record accounting — so torn
//! or truncated files are rejected at `open` before any records are surfaced. It is the
//! only code that parses a chunk frame; everything else (decode, compression accounting,
//! `tracectl`) reads its index.
//!
//! Decoding then never copies payload bytes into an intermediate buffer:
//! [`MappedStreamDecoder`] decodes one block at a time, the file's unit of framing,
//! directly from the mapping into a reusable caller-owned arena
//! ([`cache_sim::trace::BatchSource`]), using the word-at-a-time appending decoder in
//! [`crate::format`]. The runner puts it straight under
//! [`cache_sim::trace::ArenaReplayTrace`], so a block decodes on whichever thread reads
//! the stream — a shared private stage's read-ahead thread, or the sweep worker that
//! drives it — into the one buffer the cursor reuses, with no allocation in steady state.
//! A replayed core holds one decoded block and one decompression scratch, whatever the
//! stream's length and whatever the memory budget.
//!
//! # Integrity
//!
//! Checksums are FNV-1a over the *stored* bytes, so a corrupted compressed block is
//! rejected before the decompressor runs, and each block is validated exactly once per
//! file — the high-water mark is shared across every cursor of a [`MappedTrace`], so a
//! policy sweep with P cursors validates each block once, not P times. A fresh `open` is
//! the explicit re-validation (`tracectl stats`). The accept/reject line is held by the
//! golden fixtures, the round-trip and bit-flip fuzz wall in `tests/atrc_fuzz.rs` and the
//! truncation suite.

use std::fs::File;
use std::io::Cursor;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use cache_sim::trace::{raise_replay_fault, ArenaTracker, BatchSource, MemAccess};

use crate::error::TraceError;
use crate::format::{
    decode_block_payload_append, decompress_payload_into, fnv1a32, BLOCK_COMPRESSED_BIT,
    MAX_BLOCK_PAYLOAD, MAX_BLOCK_RECORDS,
};
use crate::header::TraceHeader;

/// One block of one core's stream, as located by the open-time scan.
#[derive(Debug, Clone, Copy)]
struct ChunkRef {
    /// Absolute offset of the payload in the mapped file.
    payload_off: usize,
    /// Stored payload length (compressed length for compressed blocks).
    payload_len: u32,
    /// Decoded record count (compressed bit stripped).
    records: u32,
    /// Index of the block's first record in the core's stream: the prefix sum of
    /// `records` over the blocks before it.
    first_record: u64,
    /// Payload is `raw_len u32 || LZ4 block` rather than raw block encoding.
    compressed: bool,
    /// Stored FNV-1a of the payload, when the file carries checksums.
    checksum: Option<u32>,
    /// Stream-relative offset of the frame (checksum-mismatch reporting).
    stream_offset: u64,
    /// Stream-relative end of frame+payload (validate-once high-water coordinate).
    stream_end: u64,
}

/// Where one core's block-decode time went, accumulated across every cursor and pass of
/// a [`MappedTrace`] — but only while `sim-obs` recording is enabled (`tracectl stats`'
/// verifying pass, profiled sweeps). All fields are zero otherwise: the decode hot path never
/// pays for the clock reads.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DecodeTimings {
    /// Blocks of this core's stream decoded.
    pub blocks: u64,
    /// Payload bytes processed (as stored on disk).
    pub payload_bytes: u64,
    /// Nanoseconds spent verifying FNV-1a checksums.
    pub checksum_ns: u64,
    /// Nanoseconds spent LZ4-decompressing v3 block payloads.
    pub decompress_ns: u64,
    /// Nanoseconds spent in delta+varint record decoding.
    pub decode_ns: u64,
}

impl DecodeTimings {
    /// Total accounted nanoseconds (checksum + decompress + decode).
    pub fn total_ns(&self) -> u64 {
        self.checksum_ns + self.decompress_ns + self.decode_ns
    }

    fn fields(&self) -> [u64; 5] {
        [
            self.blocks,
            self.payload_bytes,
            self.checksum_ns,
            self.decompress_ns,
            self.decode_ns,
        ]
    }

    fn from_fields(fields: [u64; 5]) -> DecodeTimings {
        let [blocks, payload_bytes, checksum_ns, decompress_ns, decode_ns] = fields;
        DecodeTimings {
            blocks,
            payload_bytes,
            checksum_ns,
            decompress_ns,
            decode_ns,
        }
    }
}

/// A fully indexed, memory-mapped trace file shared by any number of decode cursors.
pub struct MappedTrace {
    path: PathBuf,
    bytes: memmap2::Mmap,
    header: TraceHeader,
    /// Per-core chunk index in stream order.
    chunks: Vec<Vec<ChunkRef>>,
    /// Per-core high-water mark of stream bytes whose checksums have been verified —
    /// shared by all cursors, so each block is validated once per *file*.
    validated: Vec<AtomicU64>,
    /// Total FNV validations performed (telemetry; tests of validate-once).
    validations: AtomicU64,
    /// Per-core [`DecodeTimings`] fields beside `validated` (statistics only, so
    /// `Relaxed` throughout).
    timings: Vec<[AtomicU64; 5]>,
}

impl std::fmt::Debug for MappedTrace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MappedTrace")
            .field("path", &self.path)
            .field("bytes", &self.bytes.len())
            .field("cores", &self.chunks.len())
            .finish()
    }
}

impl MappedTrace {
    /// Map and index the trace file at `path`.
    ///
    /// Structural corruption — torn final block, missing footer, truncated payloads,
    /// chunk/directory disagreement — is rejected here with a typed [`TraceError`].
    /// Checksums are *not* verified here; they are verified once, lazily, as blocks are
    /// first decoded.
    pub fn open(path: impl AsRef<Path>) -> Result<MappedTrace, TraceError> {
        let path = path.as_ref().to_path_buf();
        sim_fault::fail_io("mmap.open").map_err(TraceError::Io)?;
        let file = File::open(&path).map_err(TraceError::Io)?;
        // SAFETY: trace corpora are immutable once written (`TraceWriter::finish` is the
        // last write); the repo-wide contract is that files are not mutated during
        // replay.
        let bytes = unsafe { memmap2::Mmap::map(&file) }.map_err(TraceError::Io)?;
        drop(file);
        let header = TraceHeader::read(&mut Cursor::new(&bytes[..]))?;
        if header.data_end > bytes.len() as u64 {
            return Err(TraceError::Truncated("file"));
        }
        let chunks = (0..header.cores.len())
            .map(|core| scan_core(&bytes, &header, core))
            .collect::<Result<Vec<_>, _>>()?;
        let validated = (0..header.cores.len()).map(|_| AtomicU64::new(0)).collect();
        let timings = (0..header.cores.len())
            .map(|_| Default::default())
            .collect();
        Ok(MappedTrace {
            path,
            bytes,
            header,
            chunks,
            validated,
            validations: AtomicU64::new(0),
            timings,
        })
    }

    /// The parsed file header (directory, flags, geometry).
    pub fn header(&self) -> &TraceHeader {
        &self.header
    }

    /// Path of the backing file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Blocks in `core`'s stream.
    pub fn chunk_count(&self, core: usize) -> usize {
        self.chunks.get(core).map_or(0, Vec::len)
    }

    /// Records in the largest block of `core`'s stream (0 for an out-of-range `core`):
    /// the most a [`MappedStreamDecoder`] over it holds decoded at once.
    pub fn largest_block_records(&self, core: usize) -> usize {
        let chunks = self.chunks.get(core).into_iter().flatten();
        chunks
            .map(|chunk| chunk.records as usize)
            .max()
            .unwrap_or(0)
    }

    /// Total FNV validations performed across all cursors of this mapping. Stops
    /// growing once every block has been seen once — the validate-once guarantee.
    pub fn checksum_validations(&self) -> u64 {
        self.validations.load(Ordering::Relaxed)
    }

    /// Where `core`'s decode time went so far, summed over every cursor of this mapping.
    /// Only populated while `sim-obs` recording was enabled during the decodes; all-zero
    /// otherwise (and for an out-of-range `core`).
    pub fn decode_timings(&self, core: usize) -> DecodeTimings {
        self.timings
            .get(core)
            .map_or_else(DecodeTimings::default, |cells| {
                DecodeTimings::from_fields(std::array::from_fn(|i| {
                    cells[i].load(Ordering::Relaxed)
                }))
            })
    }

    /// Every block of the file as `(stored payload, compressed?)`, core by core — the
    /// view of the chunk index [`crate::compression_stats`] folds over.
    pub(crate) fn stored_blocks(&self) -> impl Iterator<Item = (&[u8], bool)> + '_ {
        self.chunks
            .iter()
            .flatten()
            .map(|chunk| (self.payload(chunk), chunk.compressed))
    }

    /// `core`'s record count, or why its stream cannot be replayed: no such core, or
    /// nothing in it.
    fn replayable_records(&self, core: usize) -> Result<u64, TraceError> {
        let info = self.header.cores.get(core).ok_or_else(|| {
            TraceError::Corrupt(format!(
                "core {core} out of range: file has {} streams",
                self.header.cores.len()
            ))
        })?;
        if info.records == 0 {
            return Err(TraceError::Corrupt(format!(
                "core {core} stream is empty; a TraceSource must never terminate"
            )));
        }
        Ok(info.records)
    }

    fn payload(&self, chunk: &ChunkRef) -> &[u8] {
        &self.bytes[chunk.payload_off..chunk.payload_off + chunk.payload_len as usize]
    }

    /// Decode one chunk, appending its records to `arena`: validate-once FNV over the
    /// stored bytes (so corruption is rejected *before* decompression), then decompress
    /// if the block is compressed, then varint decode.
    fn decode_chunk(
        &self,
        core: usize,
        chunk: &ChunkRef,
        arena: &mut Vec<MemAccess>,
        scratch: &mut Vec<u8>,
    ) -> Result<(), TraceError> {
        // Injected before checksum validation so the validated high-water mark does
        // not advance: any fault here reads as corruption of this chunk.
        if sim_fault::fire("replay.decode").is_some() {
            return Err(TraceError::Corrupt(format!(
                "injected decode fault (core {core}, stream offset {})",
                chunk.stream_offset
            )));
        }
        let payload = self.payload(chunk);
        // Latched once per chunk: while profiling is on, attribute this chunk's time to
        // checksum / decompress / decode. Off, that is one relaxed load per chunk and
        // never a clock read.
        let timed = sim_obs::enabled();
        let now = || if timed { sim_obs::now_ns() } else { 0 };
        let mut spent = DecodeTimings {
            blocks: 1,
            payload_bytes: u64::from(chunk.payload_len),
            ..DecodeTimings::default()
        };
        if let Some(stored) = chunk.checksum {
            if chunk.stream_end > self.validated[core].load(Ordering::Acquire) {
                self.validations.fetch_add(1, Ordering::Relaxed);
                let start = now();
                let ok = fnv1a32(payload) == stored;
                spent.checksum_ns = now().saturating_sub(start);
                if !ok {
                    return Err(TraceError::ChecksumMismatch {
                        core,
                        stream_offset: chunk.stream_offset,
                    });
                }
                // The mark covers a contiguous prefix: only a block that starts inside it
                // extends it. A block a seeking cursor reads past unvalidated ones is
                // checked again when it is next decoded, until the prefix reaches it.
                let _ = self.validated[core].fetch_update(
                    Ordering::Release,
                    Ordering::Acquire,
                    |mark| {
                        (chunk.stream_offset <= mark && mark < chunk.stream_end)
                            .then_some(chunk.stream_end)
                    },
                );
            }
        }
        let mut start = now();
        let raw = if chunk.compressed {
            decompress_payload_into(payload, scratch)?;
            let decompressed = now();
            spent.decompress_ns = decompressed.saturating_sub(start);
            start = decompressed;
            &scratch[..]
        } else {
            payload
        };
        decode_block_payload_append(raw, chunk.records as usize, arena)?;
        if timed {
            spent.decode_ns = now().saturating_sub(start);
            for (cell, value) in self.timings[core].iter().zip(spent.fields()) {
                cell.fetch_add(value, Ordering::Relaxed);
            }
        }
        Ok(())
    }

    /// What decoding this file has cost so far — [`decode_timings`](Self::decode_timings)
    /// summed over cores, every cursor and pass included — as the five `trace-io`
    /// `decode.*` sim-obs counters under the current observation context. Nothing unless
    /// `sim-obs` was recording while the blocks were decoded.
    pub fn emit_decode_counters(&self) {
        let over_cores = |field: usize| {
            let cells = self.timings.iter();
            cells.map(|core| core[field].load(Ordering::Relaxed)).sum()
        };
        let total = DecodeTimings::from_fields(std::array::from_fn(over_cores));
        if total.blocks == 0 {
            return;
        }
        for (name, value) in [
            ("decode.blocks", total.blocks as f64),
            ("decode.payload_bytes", total.payload_bytes as f64),
            ("decode.checksum_ms", total.checksum_ns as f64 / 1e6),
            ("decode.decompress_ms", total.decompress_ns as f64 / 1e6),
            ("decode.decode_ms", total.decode_ns as f64 / 1e6),
        ] {
            sim_obs::counter("trace-io", name, value);
        }
    }

    /// Decode `core`'s complete stream once, verifying every block's checksum on the
    /// way: the whole-stream integrity check (`tracectl stats`) and the reference the
    /// tests hold block-streamed replay against.
    pub fn decode_core(&self, core: usize) -> Result<Vec<MemAccess>, TraceError> {
        let _span = sim_obs::span("trace-io", "decode_core");
        let mut records = Vec::new();
        records.reserve_exact(self.replayable_records(core)? as usize);
        let mut scratch = Vec::new();
        for chunk in &self.chunks[core] {
            self.decode_chunk(core, chunk, &mut records, &mut scratch)?;
        }
        Ok(records)
    }
}

/// Locate every chunk of `core`'s stream — the one place a chunk frame is parsed.
/// Rejects implausible framing, payloads overrunning the data region or the core's
/// directory byte count, and a framed record total that disagrees with the directory.
fn scan_core(bytes: &[u8], header: &TraceHeader, core: usize) -> Result<Vec<ChunkRef>, TraceError> {
    let info = &header.cores[core];
    let frame_len: u64 =
        if header.chunked { 4 } else { 0 } + 8 + if header.checksums { 4 } else { 0 };
    let mut file_pos = info.offset;
    let mut consumed = 0u64;
    let mut chunks = Vec::new();
    let mut records_total = 0u64;
    while consumed < info.bytes {
        if header.data_end.saturating_sub(file_pos) < frame_len {
            return Err(TraceError::Truncated("block header"));
        }
        let mut pos = file_pos as usize;
        let chunk_core = if header.chunked {
            let v = read_u32_at(bytes, &mut pos)?;
            v as usize
        } else {
            core
        };
        let payload_len = read_u32_at(bytes, &mut pos)? as usize;
        let record_field = read_u32_at(bytes, &mut pos)?;
        // v3 marks compressed payloads with bit 31 of the record count; in earlier
        // versions a set high bit fails the implausibility check below.
        let block_compressed = header.compressed && record_field & BLOCK_COMPRESSED_BIT != 0;
        let record_count = if block_compressed {
            (record_field & !BLOCK_COMPRESSED_BIT) as usize
        } else {
            record_field as usize
        };
        let checksum = if header.checksums {
            Some(read_u32_at(bytes, &mut pos)?)
        } else {
            None
        };
        if payload_len > MAX_BLOCK_PAYLOAD || record_count == 0 || record_count > MAX_BLOCK_RECORDS
        {
            return Err(TraceError::Corrupt(format!(
                "implausible block framing: {payload_len} payload bytes, \
                 {record_count} records"
            )));
        }
        if header.data_end - file_pos - frame_len < payload_len as u64 {
            return Err(TraceError::Truncated("block payload"));
        }
        if chunk_core != core {
            // Another core's chunk: hop over it without touching the payload.
            file_pos += frame_len + payload_len as u64;
            continue;
        }
        if info.bytes - consumed < frame_len + payload_len as u64 {
            return Err(TraceError::Corrupt(format!(
                "core {core} chunk overruns its directory byte count"
            )));
        }
        chunks.push(ChunkRef {
            payload_off: pos,
            payload_len: payload_len as u32,
            records: record_count as u32,
            first_record: records_total,
            compressed: block_compressed,
            checksum,
            stream_offset: consumed,
            stream_end: consumed + frame_len + payload_len as u64,
        });
        records_total += record_count as u64;
        consumed += frame_len + payload_len as u64;
        file_pos += frame_len + payload_len as u64;
    }
    if records_total != info.records {
        return Err(TraceError::Corrupt(format!(
            "core {core} stream frames {records_total} records but directory claims {}",
            info.records
        )));
    }
    Ok(chunks)
}

fn read_u32_at(bytes: &[u8], pos: &mut usize) -> Result<u32, TraceError> {
    let window = bytes
        .get(*pos..*pos + 4)
        .ok_or(TraceError::Truncated("block framing"))?;
    *pos += 4;
    Ok(u32::from_le_bytes(
        window.try_into().expect("4-byte window"),
    ))
}

/// A block-at-a-time decode cursor over one core of a [`MappedTrace`].
///
/// Implements [`BatchSource`]: each [`fill`](BatchSource::fill) decodes exactly the next
/// block from the mapping into the caller's arena, wrapping to the first block after the
/// last (the paper's re-execution methodology). A stream of one block therefore fills
/// with the whole stream, which [`cache_sim::trace::ArenaReplayTrace`] then loops in
/// place.
pub struct MappedStreamDecoder {
    trace: Arc<MappedTrace>,
    core: usize,
    next_chunk: usize,
    /// Reused decompression buffer for v3 blocks (registered with arena accounting).
    scratch: Vec<u8>,
    scratch_tracker: ArenaTracker,
}

impl MappedStreamDecoder {
    /// A cursor at the start of `core`'s stream.
    pub fn new(trace: Arc<MappedTrace>, core: usize) -> Result<MappedStreamDecoder, TraceError> {
        trace.replayable_records(core)?;
        Ok(MappedStreamDecoder {
            trace,
            core,
            next_chunk: 0,
            scratch: Vec::new(),
            scratch_tracker: ArenaTracker::new(),
        })
    }

    /// Fallible fill: replace `arena`'s contents with the next block, reporting whether
    /// it is the stream's last (the block ends a full pass). Errors are decode-time
    /// corruption (checksum mismatch, bad varints) — structural problems were already
    /// rejected at [`MappedTrace::open`] — and leave the cursor on the failed block.
    pub fn try_fill(&mut self, arena: &mut Vec<MemAccess>) -> Result<bool, TraceError> {
        arena.clear();
        let chunks = &self.trace.chunks[self.core];
        self.trace.decode_chunk(
            self.core,
            &chunks[self.next_chunk],
            arena,
            &mut self.scratch,
        )?;
        self.scratch_tracker
            .set_bytes(self.scratch.capacity() as u64);
        self.next_chunk += 1;
        let ended_pass = self.next_chunk == chunks.len();
        if ended_pass {
            self.next_chunk = 0;
        }
        Ok(ended_pass)
    }

    /// Position the cursor for record `at` of the endless stream: the next fill decodes
    /// the block that holds record `at % len`, found in the chunk index. Returns the
    /// passes a cursor that has served `at` records has completed, and how many of that
    /// block's leading records come before record `at` — what
    /// [`cache_sim::trace::ArenaReplayTrace::resume`] takes.
    pub fn seek(&mut self, at: u64) -> (u64, usize) {
        let chunks = &self.trace.chunks[self.core];
        let len = self.trace.header.cores[self.core].records;
        let offset = at % len;
        self.next_chunk = chunks.partition_point(|chunk| chunk.first_record <= offset) - 1;
        let skip = offset - chunks[self.next_chunk].first_record;
        (at / len, skip as usize)
    }
}

impl BatchSource for MappedStreamDecoder {
    /// Infallible by trait contract, like `TraceSource::next_access`: an error here
    /// means the file changed or was corrupted after `open` succeeded, and unwinds
    /// with a typed [`cache_sim::trace::ReplayFault`] payload. The unwind boundaries
    /// above downcast it — the sweep engine to hand `repro sweep` a [`TraceError`], the
    /// serving layer to quarantine the corpus instead of crashing a worker repeatedly.
    fn fill(&mut self, arena: &mut Vec<MemAccess>) -> bool {
        let _span = sim_obs::span("trace-io", "zero_copy_batch");
        let e = match self.try_fill(arena) {
            Ok(ended_pass) => return ended_pass,
            Err(e) => e,
        };
        let message = format!(
            "zero-copy replay failed for core {} of {}: {e}",
            self.core,
            self.trace.path.display()
        );
        sim_obs::obs_error!("trace-io", "{message}");
        raise_replay_fault(&self.label(), message)
    }

    /// Restart the stream (the next fill decodes the first block again).
    fn rewind(&mut self) {
        self.next_chunk = 0;
    }

    fn label(&self) -> String {
        self.trace.header.cores[self.core].label.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reader::decode_all;
    use crate::testutil::{cursor, seeked, tmp, write_layout, write_trace};
    use crate::writer::TraceWriter;
    use cache_sim::trace::{ArenaReplayTrace, TraceSource};

    #[test]
    fn mapped_decode_matches_buffered_decode() {
        for version in [2, 3] {
            let path = tmp(&format!("match_v{version}"));
            let written = write_layout(&path, 3, 100, version, true);
            assert_eq!(decode_all(&path).unwrap(), written);
            std::fs::remove_file(path).ok();
        }
    }

    #[test]
    fn mapped_cursor_wraps_like_the_buffered_reader() {
        let path = tmp("wrap");
        let written = write_trace(&path, 2, 40);
        let trace = Arc::new(MappedTrace::open(&path).unwrap());
        for (core, pushed) in written.iter().enumerate() {
            let mut cursor = cursor(&trace, core);
            assert_eq!(cursor.label(), trace.header().cores[core].label);
            for pass in 0..3 {
                for (i, want) in pushed.iter().enumerate() {
                    assert_eq!(
                        cursor.next_access(),
                        *want,
                        "core {core} pass {pass} record {i}"
                    );
                }
                assert_eq!(cursor.wraps(), pass + 1, "eager wrap counting");
            }
            cursor.reset();
            assert_eq!(cursor.wraps(), 0);
            assert_eq!(cursor.next_access(), pushed[0]);
        }
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn checksums_validate_once_across_cursors_and_passes() {
        let path = tmp("validate_once");
        write_trace(&path, 1, 64); // 4 blocks of 16
        let trace = Arc::new(MappedTrace::open(&path).unwrap());
        assert_eq!(
            trace.checksum_validations(),
            0,
            "open must not validate checksums (validation is lazy)"
        );
        let mut a = cursor(&trace, 0);
        for _ in 0..64 {
            a.next_access();
        }
        assert_eq!(trace.checksum_validations(), 4, "first pass validates");
        for _ in 0..128 {
            a.next_access();
        }
        assert_eq!(
            trace.checksum_validations(),
            4,
            "wraps must not re-validate"
        );
        a.reset();
        for _ in 0..64 {
            a.next_access();
        }
        assert_eq!(
            trace.checksum_validations(),
            4,
            "reset must not re-validate"
        );
        // A second cursor over the same mapping inherits the validated state.
        let mut b = cursor(&trace, 0);
        for _ in 0..64 {
            b.next_access();
        }
        assert_eq!(
            trace.checksum_validations(),
            4,
            "validation is once per file, not once per cursor"
        );
        // A fresh open is the explicit integrity check and re-validates everything.
        let fresh = MappedTrace::open(&path).unwrap();
        fresh.decode_core(0).unwrap();
        assert_eq!(fresh.checksum_validations(), 4);
        std::fs::remove_file(path).ok();
    }

    /// Records around block edges and the stream's end, for a 40-record stream of
    /// 16-record blocks.
    const EDGES: [u64; 9] = [0, 1, 15, 16, 17, 39, 40, 41, 3 * 40 - 1];

    /// Each fill decodes exactly the next block of the chunk index — its records, no
    /// more — and says it ended a pass on the last block only; the fill after that
    /// decodes block 0 again. A decoder that seeks to record `at` decodes the block that
    /// holds it next.
    #[test]
    fn each_fill_decodes_exactly_the_next_block_and_wraps_after_the_last() {
        let path = tmp("one_block_per_fill");
        let written = write_trace(&path, 2, 40); // 16 + 16 + 8 records a core
        let trace = Arc::new(MappedTrace::open(&path).unwrap());
        for (core, pushed) in written.iter().enumerate() {
            let chunks = &trace.chunks[core];
            assert_eq!(chunks.len(), 3);
            assert_eq!(trace.largest_block_records(core), 16);
            let block_of = |chunk: &ChunkRef| {
                let first = chunk.first_record as usize;
                &pushed[first..first + chunk.records as usize]
            };
            let mut decoder = MappedStreamDecoder::new(trace.clone(), core).unwrap();
            let mut arena = Vec::new();
            for pass in 0..3 {
                for (i, chunk) in chunks.iter().enumerate() {
                    let ended_pass = decoder.try_fill(&mut arena).unwrap();
                    let what = format!("core {core}, pass {pass}, block {i}");
                    assert_eq!(arena, block_of(chunk), "{what}");
                    assert_eq!(ended_pass, i == chunks.len() - 1, "{what}");
                }
            }
            for at in EDGES {
                let (passes, skip) = decoder.seek(at);
                decoder.try_fill(&mut arena).unwrap();
                let offset = (at % 40) as usize;
                let first = offset - skip;
                assert_eq!(passes, at / 40, "at {at}");
                assert_eq!(first % 16, 0, "at {at}: a block starts at {first}");
                assert_eq!(arena[skip], pushed[offset], "at {at}");
                assert_eq!(arena, pushed[first..(first + 16).min(40)], "at {at}");
            }
        }
        assert_eq!(trace.largest_block_records(2), 0, "no such core");
        std::fs::remove_file(path).ok();
    }

    /// A cursor that seeks to record `at` serves the stream from `at % len` on, looped,
    /// and counts passes and wraps as a cursor driven `at` records does — around block
    /// edges and the stream's end.
    #[test]
    fn seeked_cursors_continue_like_cursors_driven_there() {
        let path = tmp("seek_wall");
        write_trace(&path, 2, 40); // 16 + 16 + 8 records a core
        let trace = Arc::new(MappedTrace::open(&path).unwrap());
        let len = 40u64;
        for core in 0..2 {
            let stream = trace.decode_core(core).unwrap();
            for at in EDGES {
                let mut driven = cursor(&trace, core);
                for _ in 0..at {
                    driven.next_access();
                }
                let mut seeked = seeked(&trace, core, at);
                let what = format!("core {core}, at {at}");
                assert_eq!(seeked.passes(), driven.passes(), "{what}");
                for i in 0..2 * len + 7 {
                    let want = stream[((at + i) % len) as usize];
                    assert_eq!(seeked.next_access(), want, "{what}, record {i}");
                    assert_eq!(driven.next_access(), want, "{what}, record {i}");
                    assert_eq!(seeked.wraps(), driven.wraps(), "{what}, record {i}");
                }
            }
        }
        std::fs::remove_file(path).ok();
    }

    /// Seeking does not weaken validate-once: a cursor that starts past a block nobody
    /// has read validates what it reads, but the validated mark stays a contiguous
    /// prefix, so the skipped block is still checked — and rejected — when a rewind
    /// reaches it.
    #[test]
    fn a_block_a_seek_skipped_is_still_validated() {
        let path = tmp("seek_validate");
        write_trace(&path, 1, 64); // 4 blocks of 16
        let flipped = {
            let clean = MappedTrace::open(&path).unwrap();
            clean.chunks[0][1]
        };
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[flipped.payload_off + 3] ^= 0xff;
        std::fs::write(&path, bytes).unwrap();

        let trace = Arc::new(MappedTrace::open(&path).unwrap());
        let mut decoder = MappedStreamDecoder::new(trace.clone(), 0).unwrap();
        assert_eq!(decoder.seek(32), (0, 0));
        let mut arena = Vec::new();
        // Blocks 2 and 3, to the end of the stream.
        assert!(!decoder.try_fill(&mut arena).unwrap());
        assert!(decoder.try_fill(&mut arena).unwrap());
        assert_eq!(trace.checksum_validations(), 2);
        decoder.rewind();
        decoder.try_fill(&mut arena).unwrap();
        let err = decoder.try_fill(&mut arena).unwrap_err();
        assert!(
            matches!(
                err,
                TraceError::ChecksumMismatch { core: 0, stream_offset }
                    if stream_offset == flipped.stream_offset
            ),
            "the flipped block must fail its checksum, got {err:?}"
        );
        std::fs::remove_file(path).ok();
    }

    /// Counts the fills — one block each — a consumer takes from the source it wraps:
    /// what the `zero_copy_batch` spans count in a profile.
    struct CountedFills(MappedStreamDecoder, Arc<AtomicU64>);

    impl BatchSource for CountedFills {
        fn fill(&mut self, arena: &mut Vec<MemAccess>) -> bool {
            self.1.fetch_add(1, Ordering::Relaxed);
            self.0.fill(arena)
        }
        fn rewind(&mut self) {
            self.0.rewind()
        }
        fn label(&self) -> String {
            self.0.label()
        }
    }

    /// `decoder` behind a fill counter, and the count of the fills taken through it.
    fn counted(decoder: MappedStreamDecoder) -> (Box<CountedFills>, Arc<AtomicU64>) {
        let fills = Arc::new(AtomicU64::new(0));
        (Box::new(CountedFills(decoder, fills.clone())), fills)
    }

    #[test]
    fn a_mapped_stream_that_fits_one_batch_is_decoded_once_and_loops_in_place() {
        // The hand-imported corpus shape: 8 records, one block. Through the product's
        // stack (the decoder under the arena cursor) the first pass takes the one block
        // and validates the one checksum; fifty more take nothing. `reset` takes the
        // block again.
        let path = tmp("resident");
        let written = write_trace(&path, 1, 8);
        let trace = Arc::new(MappedTrace::open(&path).unwrap());
        let decoder = MappedStreamDecoder::new(trace.clone(), 0).unwrap();
        let (source, fills) = counted(decoder);
        let mut cursor = ArenaReplayTrace::new(source, Arc::default());
        for pass in 0..51 {
            for want in &written[0] {
                assert_eq!(cursor.next_access(), *want, "pass {pass}");
            }
            assert_eq!(cursor.wraps(), pass + 1, "eager wrap counting");
            assert_eq!(fills.load(Ordering::Relaxed), 1, "pass {pass}");
            assert_eq!(trace.checksum_validations(), 1, "pass {pass}");
        }
        cursor.reset();
        assert_eq!(cursor.next_access(), written[0][0]);
        assert_eq!(fills.load(Ordering::Relaxed), 2, "reset refills once");
        assert_eq!(trace.checksum_validations(), 1);

        // Resumed mid-pass, its first fill did not start the pass: the next one is taken
        // too, and that one loops in place.
        let mut decoder = MappedStreamDecoder::new(trace.clone(), 0).unwrap();
        let (passes, skip) = decoder.seek(3);
        let (source, fills) = counted(decoder);
        let mut resumed = ArenaReplayTrace::resume(source, Arc::default(), passes, skip);
        for want in written[0].iter().cycle().skip(3).take(51 * 8) {
            assert_eq!(resumed.next_access(), *want);
        }
        assert_eq!((resumed.wraps(), fills.load(Ordering::Relaxed)), (51, 2));
        // Decoding happens on the caller's thread: dropping the cursors releases every
        // hold on the mapping at once.
        drop((cursor, resumed));
        assert_eq!(Arc::strong_count(&trace), 1);

        // A stream of two blocks of 16 keeps refilling, one block a fill.
        let written = write_trace(&path, 1, 32);
        let trace = Arc::new(MappedTrace::open(&path).unwrap());
        let (source, fills) = counted(MappedStreamDecoder::new(trace.clone(), 0).unwrap());
        let mut cursor = ArenaReplayTrace::new(source, Arc::default());
        for want in written[0].iter().cycle().take(3 * 32) {
            assert_eq!(cursor.next_access(), *want);
        }
        assert_eq!((cursor.wraps(), fills.load(Ordering::Relaxed)), (3, 6));
        assert_eq!(trace.checksum_validations(), 2);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn open_rejects_corrupt_framing_and_decode_rejects_payload_flips() {
        for version in [2, 3] {
            let path = tmp(&format!("corrupt_v{version}"));
            let written = write_layout(&path, 1, 64, version, true);
            let clean = std::fs::read(&path).unwrap();
            let header = crate::read_header(&path).unwrap();
            assert_eq!(decode_all(&path).unwrap(), written);

            // Flip a bit in a frame's record-count field: the eager scan must reject at
            // open (directory cross-check).
            let frame_records_at = header.preamble_len() as usize + 8;
            let mut bytes = clean.clone();
            bytes[frame_records_at] ^= 0x01;
            std::fs::write(&path, &bytes).unwrap();
            assert!(MappedTrace::open(&path).is_err());

            // Flip a payload byte: open succeeds (checksums are lazy) and the first
            // decode of that block reports a checksum mismatch — over the stored bytes,
            // so a compressed block is rejected before the decompressor ever runs.
            let mut bytes = clean.clone();
            let payload_at = header.data_end as usize - 3;
            bytes[payload_at] ^= 0xff;
            std::fs::write(&path, &bytes).unwrap();
            let trace = MappedTrace::open(&path).unwrap();
            let err = trace.decode_core(0).unwrap_err();
            assert!(
                matches!(err, TraceError::ChecksumMismatch { core: 0, .. }),
                "payload flip must be caught by FNV, got {err:?}"
            );
            std::fs::remove_file(path).ok();
        }
    }

    #[test]
    fn empty_streams_are_rejected_like_the_buffered_reader() {
        let path = tmp("empty");
        let w = TraceWriter::create(&path, 1, "empty").unwrap();
        w.finish().unwrap();
        assert!(matches!(decode_all(&path), Err(TraceError::Corrupt(_))));
        let trace = Arc::new(MappedTrace::open(&path).unwrap());
        assert!(MappedStreamDecoder::new(trace, 0).is_err());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn fallback_backing_decodes_identically() {
        // MEMMAP2_FORCE_FALLBACK makes the stand-in read the file instead of mapping
        // it; every decode above it must be oblivious. Setting an env var is process
        // global, but the only effect on concurrent tests is that they too use the
        // fallback — which this very test asserts is equivalent.
        let path = tmp("fallback");
        let written = write_trace(&path, 2, 50);
        assert_eq!(decode_all(&path).unwrap(), written);
        std::env::set_var("MEMMAP2_FORCE_FALLBACK", "1");
        let fallback = decode_all(&path);
        std::env::remove_var("MEMMAP2_FORCE_FALLBACK");
        assert_eq!(fallback.unwrap(), written);
        std::fs::remove_file(path).ok();
    }
}
