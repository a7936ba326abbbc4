//! File-level conveniences over [`MappedTrace`], the one `.atrc` reader: header-only
//! parse, decode-everything, one wrapping [`TraceSource`](cache_sim::trace::TraceSource)
//! per core, and compression accounting. None of them parses a chunk frame — that is
//! `MappedTrace::open`'s scan, and everything here reads the index it builds.

use std::fs::File;
use std::io::BufReader;
use std::path::Path;
use std::sync::Arc;

use cache_sim::trace::{ArenaReplayTrace, MemAccess};

use crate::error::TraceError;
use crate::header::TraceHeader;
use crate::mmap::{MappedStreamDecoder, MappedTrace};

/// Parse the header of the trace file at `path` (any format version) without touching
/// the chunk region.
pub fn read_header(path: impl AsRef<Path>) -> Result<TraceHeader, TraceError> {
    let mut file = BufReader::new(File::open(path.as_ref()).map_err(TraceError::Io)?);
    TraceHeader::read(&mut file)
}

/// Decode every core's complete stream into memory (small corpora and tests; the sweep
/// engine and `tracectl` hold a [`MappedTrace`] themselves).
pub fn decode_all(path: impl AsRef<Path>) -> Result<Vec<Vec<MemAccess>>, TraceError> {
    let trace = MappedTrace::open(path)?;
    (0..trace.header().cores.len())
        .map(|core| trace.decode_core(core))
        .collect()
}

/// One wrapping replay cursor per core of the file — the replay-side counterpart of
/// `WorkloadMix::trace_sources`. The cursors share one mapping (and its validate-once
/// checksum state) and decode one block at a time; when a stream
/// is exhausted it restarts from its first block, mirroring the paper's re-execution of
/// an application that finishes before its co-runners, and
/// [`wraps`](ArenaReplayTrace::wraps) counts how often that happened.
pub fn open_all(path: impl AsRef<Path>) -> Result<Vec<ArenaReplayTrace>, TraceError> {
    let trace = Arc::new(MappedTrace::open(path)?);
    (0..trace.header().cores.len())
        .map(|core| {
            let decoder = MappedStreamDecoder::new(trace.clone(), core)?;
            Ok(ArenaReplayTrace::new(Box::new(decoder), Arc::default()))
        })
        .collect()
}

/// Per-file compression accounting, gathered by [`compression_stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompressionInfo {
    /// Total blocks in the file (all cores).
    pub blocks: u64,
    /// Blocks stored compressed (0 for v1/v2 files and incompressible v3 captures).
    pub compressed_blocks: u64,
    /// Payload bytes as stored on disk (compressed blocks count their compressed size,
    /// including the 4-byte raw-length prefix).
    pub disk_payload_bytes: u64,
    /// Payload bytes after expansion (what a v2 file holding the same records would
    /// store). Equal to `disk_payload_bytes` when nothing is compressed.
    pub raw_payload_bytes: u64,
}

impl CompressionInfo {
    /// Raw-to-disk payload ratio (1.0 = uncompressed; higher is better).
    pub fn ratio(&self) -> f64 {
        if self.disk_payload_bytes == 0 {
            1.0
        } else {
            self.raw_payload_bytes as f64 / self.disk_payload_bytes as f64
        }
    }

    /// Payload bytes saved by compression.
    pub fn saved_bytes(&self) -> u64 {
        self.raw_payload_bytes
            .saturating_sub(self.disk_payload_bytes)
    }
}

/// Report a mapped trace's compression accounting without decoding any records: a fold
/// over the chunk index, compressed blocks contributing their declared raw length from
/// the payload prefix. Validates no checksum. Works on every format version; v1/v2
/// files report a 1.0 ratio.
pub fn compression_stats(trace: &MappedTrace) -> Result<CompressionInfo, TraceError> {
    let mut info = CompressionInfo::default();
    for (payload, compressed) in trace.stored_blocks() {
        info.blocks += 1;
        info.disk_payload_bytes += payload.len() as u64;
        info.raw_payload_bytes += if compressed {
            info.compressed_blocks += 1;
            let prefix = payload
                .first_chunk::<4>()
                .ok_or(TraceError::Truncated("compressed block length prefix"))?;
            u64::from(u32::from_le_bytes(*prefix))
        } else {
            payload.len() as u64
        };
    }
    Ok(info)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mmap::DecodeTimings;
    use crate::testutil::{cursor, tmp, write_layout, write_trace};
    use crate::writer::{TraceCaptureOptions, TraceWriter};
    use cache_sim::trace::TraceSource;

    #[test]
    fn legacy_v1_files_still_replay() {
        // The current writer only emits v2+, so the compatibility guarantee is exercised
        // against the golden v1 file, which `tests/atrc_conformance.rs` hand-assembles
        // from the spec and locks byte for byte.
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../tests/data/v1-legacy.atrc"
        );
        let header = read_header(path).unwrap();
        assert_eq!(header.version, 1);
        assert!(!header.chunked);
        assert_eq!(header.cores[0].label, "legacy");
        let expected: Vec<u64> = (0..24).map(|i| 0x4000_0000 + i * 64).collect();
        let decoded = decode_all(path).unwrap().remove(0);
        assert_eq!(decoded.iter().map(|a| a.addr).collect::<Vec<_>>(), expected);
        let mut r = open_all(path).unwrap().remove(0);
        let addrs: Vec<u64> = (0..24).map(|_| r.next_access().addr).collect();
        assert_eq!(addrs, expected);
        // Wrap works on v1 streams too.
        assert_eq!(r.wraps(), 1);
        assert_eq!(r.next_access().addr, expected[0]);
    }

    #[test]
    fn partial_first_pass_still_validates_unseen_blocks() {
        let path = tmp("reader_partial_validate");
        write_trace(&path, 1, 64); // 4 blocks of 16
        let trace = Arc::new(MappedTrace::open(&path).unwrap());
        let mut a = cursor(&trace, 0);
        for _ in 0..20 {
            a.next_access(); // blocks 0 and 1 seen
        }
        assert_eq!(trace.checksum_validations(), 2);
        // The mark is per file: a reset cursor and a second one both pick it up.
        a.reset();
        let mut b = cursor(&trace, 0);
        for _ in 0..64 {
            a.next_access();
            b.next_access();
        }
        assert_eq!(
            trace.checksum_validations(),
            4,
            "blocks 2 and 3 must be validated on their first decode, 0 and 1 only once"
        );
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn reset_restores_the_initial_stream() {
        let path = tmp("reader_reset");
        write_trace(&path, 1, 50);
        let mut r = open_all(&path).unwrap().remove(0);
        let first: Vec<MemAccess> = (0..33).map(|_| r.next_access()).collect();
        r.reset();
        let second: Vec<MemAccess> = (0..33).map(|_| r.next_access()).collect();
        assert_eq!(first, second);
        assert_eq!(r.wraps(), 0);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn corruption_is_not_detected_without_checksums_unless_structural() {
        // Without checksums a flipped payload byte may decode to different records; only a
        // broken varint structure catches it. This test documents why the writer always
        // checksums: nothing is validated on a checksum-less file, which old captures of
        // either chunked version may be.
        for version in [2, 3] {
            let path = tmp(&format!("reader_nochecksum_v{version}"));
            let written = write_layout(&path, 1, 100, version, false);
            let trace = MappedTrace::open(&path).unwrap();
            assert!(!trace.header().checksums);
            assert_eq!(trace.decode_core(0).unwrap(), written[0]);
            assert_eq!(trace.checksum_validations(), 0);
            std::fs::remove_file(path).ok();
        }
    }

    #[test]
    fn open_rejects_missing_core_and_empty_stream() {
        let path = tmp("reader_oob");
        write_trace(&path, 1, 10);
        let trace = Arc::new(MappedTrace::open(&path).unwrap());
        assert!(matches!(trace.decode_core(1), Err(TraceError::Corrupt(_))));
        assert!(matches!(
            MappedStreamDecoder::new(trace, 1),
            Err(TraceError::Corrupt(_))
        ));
        std::fs::remove_file(&path).ok();

        let w = TraceWriter::create(&path, 1, "empty").unwrap();
        w.finish().unwrap();
        assert!(matches!(open_all(&path), Err(TraceError::Corrupt(_))));
        assert!(matches!(decode_all(&path), Err(TraceError::Corrupt(_))));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn truncated_stream_is_reported() {
        let path = tmp("reader_trunc");
        write_trace(&path, 1, 100);
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 7]).unwrap();
        // The footer is now gone or misaligned: never a silent short stream.
        assert!(decode_all(&path).is_err());
        assert!(open_all(&path).is_err());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn decode_all_and_open_all_cover_every_core() {
        let path = tmp("reader_all");
        let written = write_trace(&path, 3, 20);
        assert_eq!(decode_all(&path).unwrap(), written);
        let labels: Vec<String> = open_all(&path).unwrap().iter().map(|r| r.label()).collect();
        let header = read_header(&path).unwrap();
        assert_eq!(labels.len(), 3);
        assert!(labels.iter().eq(header.cores.iter().map(|c| &c.label)));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn compressed_v3_replays_bit_identical_to_v2() {
        // The golden v2 file (2 cores × 40 records, 16 to a block) against the writer's
        // v3 of the same records.
        let plain = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../tests/data/v2-chunked.atrc"
        );
        let packed = tmp("reader_v3_packed");
        let golden = read_header(plain).unwrap();
        assert_eq!(golden.version, 2);
        let written = decode_all(plain).unwrap();
        let opts = TraceCaptureOptions {
            records_per_block: 16,
            llc_sets: golden.llc_sets,
        };
        let mut w = TraceWriter::with_options(&packed, 2, "t", opts).unwrap();
        for (core, stream) in written.iter().enumerate() {
            for record in stream {
                w.push(core, *record).unwrap();
            }
        }
        w.finish().unwrap();

        let header = read_header(&packed).unwrap();
        assert_eq!(header.version, 3);
        assert!(header.compressed);
        let plain_bytes = std::fs::metadata(plain).unwrap().len();
        let packed_bytes = std::fs::metadata(&packed).unwrap().len();
        assert!(
            packed_bytes < plain_bytes,
            "strided records must compress: v3 {packed_bytes} vs v2 {plain_bytes} bytes"
        );
        let info = compression_stats(&MappedTrace::open(&packed).unwrap()).unwrap();
        assert!(info.compressed_blocks > 0);
        assert!(info.ratio() > 1.0);
        assert_eq!(
            compression_stats(&MappedTrace::open(plain).unwrap())
                .unwrap()
                .compressed_blocks,
            0,
            "v2 files report no compressed blocks"
        );

        assert_eq!(decode_all(&packed).unwrap(), written);
        for (mut a, mut b) in open_all(plain)
            .unwrap()
            .into_iter()
            .zip(open_all(&packed).unwrap())
        {
            for _ in 0..100 {
                // across wraps
                assert_eq!(a.next_access(), b.next_access());
            }
            assert_eq!((a.wraps(), b.wraps()), (2, 2));
        }
        std::fs::remove_file(packed).ok();
    }

    #[test]
    fn decode_timings_populate_only_while_observing() {
        let path = tmp("reader_timings");
        write_trace(&path, 1, 128);

        let cold = MappedTrace::open(&path).unwrap();
        let cold_records = cold.decode_core(0).unwrap();
        assert_eq!(
            cold.decode_timings(0),
            DecodeTimings::default(),
            "no timing accumulation while recording is disabled"
        );

        sim_obs::enable();
        let hot = MappedTrace::open(&path).unwrap();
        let hot_records = hot.decode_core(0).unwrap();
        let timings = hot.decode_timings(0);
        sim_obs::disable();
        assert_eq!(
            cold_records, hot_records,
            "timing must not perturb decoding"
        );
        assert_eq!(timings.blocks, 8);
        assert!(timings.payload_bytes > 0);
        assert!(
            timings.total_ns() > 0,
            "some stage must have accumulated time: {timings:?}"
        );
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn interleaved_chunks_replay_per_core() {
        // Round-robin pushes interleave the cores' chunks on disk; each cursor must see
        // only its own records.
        let path = tmp("reader_interleaved");
        let written = write_trace(&path, 2, 40);
        let trace = MappedTrace::open(&path).unwrap();
        assert_eq!((trace.chunk_count(0), trace.chunk_count(1)), (3, 3));
        for (mut r, pushed) in open_all(&path).unwrap().into_iter().zip(&written) {
            for want in pushed {
                assert_eq!(r.next_access(), *want);
            }
            assert_eq!(r.wraps(), 1, "exactly the 40 records pushed for this core");
            assert_eq!(r.next_access(), pushed[0], "wraps to start");
        }
        std::fs::remove_file(path).ok();
    }
}
