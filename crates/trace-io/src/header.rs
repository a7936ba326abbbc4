//! Versioned file header and per-core stream directory.
//!
//! Two layouts exist (`docs/atrc-format.md` is the normative spec); the writer emits the
//! chunked one at version 3, and the readers below parse every version:
//!
//! # Version 1 (legacy, read-only)
//!
//! Everything up front, streams contiguous per core (all little-endian):
//!
//! ```text
//! magic        4 B   "ATRC"
//! version      2 B   1
//! flags        2 B   bit 0: blocks carry FNV-1a payload checksums
//! core_count   4 B
//! llc_sets     4 B   LLC set count the sources were parameterized with (0 = unknown)
//! label        2 B length + UTF-8 bytes    (whole-file label, e.g. mix identity)
//! per core:    2 B length + UTF-8 bytes    (application label, e.g. benchmark name)
//! directory    core_count × 32 B:
//!     stream_offset      8 B   absolute file offset of the core's first block
//!     stream_bytes       8 B   total bytes of the core's blocks
//!     record_count       8 B   memory accesses in the stream
//!     instruction_count  8 B   Σ (1 + non_mem_instrs) over the stream
//! streams      core 0's blocks, then core 1's, ...
//! ```
//!
//! # Versions 2 (legacy, read-only) and 3 (written): chunked framing
//!
//! Writers stream chunks to disk as they fill, so a capture larger than RAM works; the
//! directory moves to a footer because the counts are only known at the end. Version 3
//! adds per-block LZ4 compression (`format::BLOCK_COMPRESSED_BIT`) to the same framing:
//!
//! ```text
//! preamble:
//!     magic        4 B   "ATRC"
//!     version      2 B   2 or 3
//!     flags        2 B   bit 0: checksums, bit 1: chunked (mandatory from v2),
//!                        bit 2: compressed (mandatory in v3, invalid below)
//!     core_count   4 B
//!     llc_sets     4 B
//!     label        2 B length + UTF-8 bytes
//! chunks       each: core_id u32, payload_len u32, record_count u32,
//!              [checksum u32 when flag bit 0], payload
//! footer:
//!     magic        4 B   "ATRF"
//!     per core:    2 B length + UTF-8 label bytes
//!     directory    core_count × 32 B (offset of the core's FIRST chunk; stream_bytes
//!                  counts the core's chunk frames + payloads; record/instruction counts
//!                  as in v1)
//! footer_offset    8 B   absolute offset of the footer magic (last 8 bytes of the file)
//! ```
//!
//! [`TraceHeader::read`] parses every version into the same in-memory struct; for chunked
//! files it seeks to the footer via the trailing offset, which is why it requires [`Seek`].

use std::io::{Read, Seek, SeekFrom};

use crate::error::TraceError;
use crate::format::{
    get_u16, get_u32, get_u64, put_u16, put_u32, put_u64, read_exact, FLAG_CHECKSUMS, FLAG_CHUNKED,
    FLAG_COMPRESSED, FOOTER_MAGIC, MAGIC, MAX_FORMAT_VERSION,
};

/// Maximum label length accepted on both the write and read side.
pub const MAX_LABEL_BYTES: usize = 4096;
/// Sanity bound on the number of per-core streams in one file.
pub const MAX_CORES: u32 = 4096;

/// Directory entry for one core's stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoreStreamInfo {
    /// Application label (benchmark name for corpus files).
    pub label: String,
    /// Absolute file offset of the stream's first block (v1) or first chunk (v2). Zero
    /// when the core captured no records (v2 only; such streams are rejected on open).
    pub offset: u64,
    /// Total encoded bytes of the stream: block payloads + framing (v1), or this core's
    /// chunk frames + payloads (v2).
    pub bytes: u64,
    /// Number of records (memory accesses).
    pub records: u64,
    /// Instructions the stream represents: Σ (1 + non_mem_instrs).
    pub instructions: u64,
}

/// Parsed trace-file header, independent of which on-disk layout it came from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceHeader {
    /// On-disk format version (1, 2, or 3).
    pub version: u16,
    /// Whether blocks carry per-block payload checksums.
    pub checksums: bool,
    /// Whether the file uses chunked framing (true for every version >= 2 file).
    pub chunked: bool,
    /// Whether block payloads may be LZ4-compressed, signaled per block (true for every
    /// version >= 3 file; see `format::BLOCK_COMPRESSED_BIT`).
    pub compressed: bool,
    /// LLC set count the captured sources were parameterized with (0 = unknown). Replay
    /// validates this against the consuming system so a corpus sized for one geometry is
    /// never silently evaluated under another.
    pub llc_sets: u32,
    /// Whole-file label (capture provenance).
    pub label: String,
    /// One entry per core, in core order.
    pub cores: Vec<CoreStreamInfo>,
    /// Absolute file offset one past the last stream byte: the footer offset for v2
    /// files, or header + streams for v1. Chunk scans must stop here.
    pub data_end: u64,
}

impl TraceHeader {
    /// Bytes of the v2 preamble (fixed once the file label is chosen).
    pub fn preamble_len(&self) -> u64 {
        (4 + 2 + 2 + 4 + 4 + 2 + self.label.len()) as u64
    }

    /// Bytes the serialized v1 header occupies (streams start right after).
    pub fn v1_encoded_len(&self) -> u64 {
        let labels: usize = self.cores.iter().map(|c| 2 + c.label.len()).sum();
        self.preamble_len() + (labels + self.cores.len() * 32) as u64
    }

    /// Serialize the v2 preamble (written eagerly when a capture starts).
    pub fn encode_preamble(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.preamble_len() as usize);
        out.extend_from_slice(&MAGIC);
        put_u16(&mut out, self.version);
        let mut flags = FLAG_CHUNKED;
        if self.checksums {
            flags |= FLAG_CHECKSUMS;
        }
        if self.compressed {
            flags |= FLAG_COMPRESSED;
        }
        put_u16(&mut out, flags);
        put_u32(&mut out, self.cores.len() as u32);
        put_u32(&mut out, self.llc_sets);
        put_u16(&mut out, self.label.len() as u16);
        out.extend_from_slice(self.label.as_bytes());
        out
    }

    /// Serialize the v2 footer, including the trailing `footer_offset` pointer.
    /// `footer_offset` is the absolute file offset the footer magic will land on (equal
    /// to [`TraceHeader::data_end`]).
    pub fn encode_footer(&self, footer_offset: u64) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&FOOTER_MAGIC);
        for core in &self.cores {
            put_u16(&mut out, core.label.len() as u16);
            out.extend_from_slice(core.label.as_bytes());
        }
        for core in &self.cores {
            put_u64(&mut out, core.offset);
            put_u64(&mut out, core.bytes);
            put_u64(&mut out, core.records);
            put_u64(&mut out, core.instructions);
        }
        put_u64(&mut out, footer_offset);
        out
    }

    /// Parse a header of either format version from `r` (positioned at the start of the
    /// file). Version 2 footers are located via the trailing offset, hence [`Seek`].
    pub fn read(r: &mut (impl Read + Seek)) -> Result<TraceHeader, TraceError> {
        let magic = read_exact::<4>(r, "magic")?;
        if magic != MAGIC {
            return Err(TraceError::BadMagic(magic));
        }
        let version = get_u16(r, "version")?;
        if version == 0 || version > MAX_FORMAT_VERSION {
            return Err(TraceError::UnsupportedVersion(version));
        }
        let flags = get_u16(r, "flags")?;
        // Flag bits are only assigned together with a version bump, so within a known
        // version an unknown bit is corruption, not a feature to ignore.
        if flags & !(FLAG_CHECKSUMS | FLAG_CHUNKED | FLAG_COMPRESSED) != 0 {
            return Err(TraceError::Corrupt(format!(
                "unknown flag bits {flags:#06x}"
            )));
        }
        let core_count = get_u32(r, "core count")?;
        if core_count == 0 || core_count > MAX_CORES {
            return Err(TraceError::Corrupt(format!(
                "implausible core count {core_count}"
            )));
        }
        let llc_sets = get_u32(r, "llc set count")?;
        let label = read_label(r, "file label")?;
        let chunked = flags & FLAG_CHUNKED != 0;
        if (version >= 2) != chunked {
            return Err(TraceError::Corrupt(format!(
                "version {version} file with chunked flag {chunked}: v1 must be \
                 contiguous and v2+ must be chunked"
            )));
        }
        let compressed = flags & FLAG_COMPRESSED != 0;
        if (version >= 3) != compressed {
            return Err(TraceError::Corrupt(format!(
                "version {version} file with compressed flag {compressed}: the flag is \
                 mandatory in v3+ and unassigned below"
            )));
        }
        let mut header = TraceHeader {
            version,
            checksums: flags & FLAG_CHECKSUMS != 0,
            chunked,
            compressed,
            llc_sets,
            label,
            cores: Vec::new(),
            data_end: 0,
        };
        if chunked {
            read_v2_footer(r, core_count, &mut header)?;
        } else {
            read_v1_directory(r, core_count, &mut header)?;
        }
        header.validate()?;
        Ok(header)
    }

    /// Structural consistency of the directory.
    ///
    /// v1: streams must be contiguous, in order, and start right after the header. v2:
    /// first-chunk offsets must lie inside the data region and the per-core byte counts
    /// must partition it exactly.
    fn validate(&self) -> Result<(), TraceError> {
        if self.chunked {
            let data_start = self.preamble_len();
            let mut total = 0u64;
            for (i, core) in self.cores.iter().enumerate() {
                if core.bytes == 0 {
                    if core.records != 0 || core.offset != 0 {
                        return Err(TraceError::Corrupt(format!(
                            "core {i} claims records or an offset but zero stream bytes"
                        )));
                    }
                    continue;
                }
                if core.offset < data_start || core.offset >= self.data_end {
                    return Err(TraceError::Corrupt(format!(
                        "core {i} first chunk offset {} outside data region {}..{}",
                        core.offset, data_start, self.data_end
                    )));
                }
                check_record_density(i, core, self.compressed)?;
                total = total
                    .checked_add(core.bytes)
                    .ok_or_else(|| TraceError::Corrupt("stream bytes overflow".into()))?;
            }
            if total != self.data_end - data_start {
                return Err(TraceError::Corrupt(format!(
                    "per-core stream bytes sum to {total} but the data region holds {}",
                    self.data_end - data_start
                )));
            }
        } else {
            let mut expected = self.v1_encoded_len();
            for (i, core) in self.cores.iter().enumerate() {
                if core.offset != expected {
                    return Err(TraceError::Corrupt(format!(
                        "core {i} stream offset {} does not match expected {expected}",
                        core.offset
                    )));
                }
                check_record_density(i, core, self.compressed)?;
                expected += core.bytes;
            }
        }
        Ok(())
    }

    /// Total instructions across all cores.
    pub fn total_instructions(&self) -> u64 {
        self.cores.iter().map(|c| c.instructions).sum()
    }

    /// Total records across all cores.
    pub fn total_records(&self) -> u64 {
        self.cores.iter().map(|c| c.records).sum()
    }
}

/// A record is at least three 1-byte varints, so an uncompressed stream can never hold
/// more than bytes/3 records; a directory claiming otherwise is corrupt (and would
/// otherwise let readers pre-allocate from an untrusted count). Compressed (v3) streams
/// get the same bound scaled by LZ4's maximum expansion ratio of 255:1 — raw bytes per
/// on-disk byte — so the guard stays sound for maximally compressible blocks.
fn check_record_density(
    i: usize,
    core: &CoreStreamInfo,
    compressed: bool,
) -> Result<(), TraceError> {
    let max_raw_per_disk_byte: u128 = if compressed { 255 } else { 1 };
    if u128::from(core.records) * 3 > u128::from(core.bytes) * max_raw_per_disk_byte {
        return Err(TraceError::Corrupt(format!(
            "core {i} claims {} records in {} bytes (impossible)",
            core.records, core.bytes
        )));
    }
    Ok(())
}

fn read_v1_directory(
    r: &mut impl Read,
    core_count: u32,
    header: &mut TraceHeader,
) -> Result<(), TraceError> {
    let mut labels = Vec::with_capacity(core_count as usize);
    for _ in 0..core_count {
        labels.push(read_label(r, "core label")?);
    }
    for label in labels {
        header.cores.push(CoreStreamInfo {
            label,
            offset: get_u64(r, "stream offset")?,
            bytes: get_u64(r, "stream bytes")?,
            records: get_u64(r, "record count")?,
            instructions: get_u64(r, "instruction count")?,
        });
    }
    header.data_end = header.v1_encoded_len()
        + header
            .cores
            .iter()
            .map(|c| c.bytes)
            .try_fold(0u64, u64::checked_add)
            .ok_or_else(|| TraceError::Corrupt("stream bytes overflow".into()))?;
    Ok(())
}

fn read_v2_footer(
    r: &mut (impl Read + Seek),
    core_count: u32,
    header: &mut TraceHeader,
) -> Result<(), TraceError> {
    let preamble_end = header.preamble_len();
    let file_len = r.seek(SeekFrom::End(0)).map_err(TraceError::Io)?;
    if file_len < preamble_end + 4 + 8 {
        return Err(TraceError::Truncated("chunked footer"));
    }
    r.seek(SeekFrom::End(-8)).map_err(TraceError::Io)?;
    let footer_offset = get_u64(r, "footer offset")?;
    if footer_offset < preamble_end || footer_offset + 4 + 8 > file_len {
        return Err(TraceError::Corrupt(format!(
            "footer offset {footer_offset} outside file of {file_len} bytes"
        )));
    }
    r.seek(SeekFrom::Start(footer_offset))
        .map_err(TraceError::Io)?;
    let magic = read_exact::<4>(r, "footer magic")?;
    if magic != FOOTER_MAGIC {
        return Err(TraceError::Corrupt(format!(
            "bad footer magic {magic:02x?} (expected \"ATRF\")"
        )));
    }
    let mut labels = Vec::with_capacity(core_count as usize);
    for _ in 0..core_count {
        labels.push(read_label(r, "core label")?);
    }
    for label in labels {
        header.cores.push(CoreStreamInfo {
            label,
            offset: get_u64(r, "stream offset")?,
            bytes: get_u64(r, "stream bytes")?,
            records: get_u64(r, "record count")?,
            instructions: get_u64(r, "instruction count")?,
        });
    }
    header.data_end = footer_offset;
    Ok(())
}

fn read_label(r: &mut impl Read, what: &'static str) -> Result<String, TraceError> {
    let len = get_u16(r, what)? as usize;
    if len > MAX_LABEL_BYTES {
        return Err(TraceError::Corrupt(format!(
            "{what} length {len} too large"
        )));
    }
    let mut buf = vec![0u8; len];
    r.read_exact(&mut buf).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            TraceError::Truncated("label bytes")
        } else {
            TraceError::Io(e)
        }
    })?;
    String::from_utf8(buf).map_err(|_| TraceError::Corrupt(format!("{what} is not UTF-8")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::{FORMAT_VERSION_V1, FORMAT_VERSION_V2};
    use std::io::Cursor;

    /// Serialize `h` as a v1 header (each core's `offset`/`bytes`/counts final). The
    /// product writes one version; v1 bytes exist only to test that they still parse.
    fn encode_v1(h: &TraceHeader) -> Vec<u8> {
        assert!(!h.chunked, "v1 layout cannot carry chunked streams");
        assert!(!h.compressed, "v1 layout cannot carry compressed blocks");
        let mut out = Vec::with_capacity(h.v1_encoded_len() as usize);
        out.extend_from_slice(&MAGIC);
        put_u16(&mut out, FORMAT_VERSION_V1);
        put_u16(&mut out, if h.checksums { FLAG_CHECKSUMS } else { 0 });
        put_u32(&mut out, h.cores.len() as u32);
        put_u32(&mut out, h.llc_sets);
        put_u16(&mut out, h.label.len() as u16);
        out.extend_from_slice(h.label.as_bytes());
        for core in &h.cores {
            put_u16(&mut out, core.label.len() as u16);
            out.extend_from_slice(core.label.as_bytes());
        }
        for core in &h.cores {
            put_u64(&mut out, core.offset);
            put_u64(&mut out, core.bytes);
            put_u64(&mut out, core.records);
            put_u64(&mut out, core.instructions);
        }
        out
    }

    fn sample_v1_header() -> TraceHeader {
        let mut h = TraceHeader {
            version: FORMAT_VERSION_V1,
            checksums: true,
            chunked: false,
            compressed: false,
            llc_sets: 1024,
            label: "mix0:2cores".into(),
            cores: vec![
                CoreStreamInfo {
                    label: "gcc".into(),
                    offset: 0,
                    bytes: 100,
                    records: 10,
                    instructions: 50,
                },
                CoreStreamInfo {
                    label: "lbm".into(),
                    offset: 0,
                    bytes: 200,
                    records: 20,
                    instructions: 90,
                },
            ],
            data_end: 0,
        };
        let base = h.v1_encoded_len();
        h.cores[0].offset = base;
        h.cores[1].offset = base + 100;
        h.data_end = base + 300;
        h
    }

    fn sample_v2_file() -> (TraceHeader, Vec<u8>) {
        let mut h = TraceHeader {
            version: FORMAT_VERSION_V2,
            checksums: false,
            chunked: true,
            compressed: false,
            llc_sets: 512,
            label: "chunked".into(),
            cores: vec![
                CoreStreamInfo {
                    label: "gcc".into(),
                    offset: 0,
                    bytes: 40,
                    records: 4,
                    instructions: 12,
                },
                CoreStreamInfo {
                    label: "lbm".into(),
                    offset: 0,
                    bytes: 60,
                    records: 6,
                    instructions: 20,
                },
            ],
            data_end: 0,
        };
        let start = h.preamble_len();
        h.cores[0].offset = start;
        h.cores[1].offset = start + 40;
        h.data_end = start + 100;
        let mut bytes = h.encode_preamble();
        bytes.resize(h.data_end as usize, 0xaa); // stand-in chunk bytes
        bytes.extend_from_slice(&h.encode_footer(h.data_end));
        (h, bytes)
    }

    #[test]
    fn v1_header_roundtrips() {
        let h = sample_v1_header();
        let mut bytes = encode_v1(&h);
        assert_eq!(bytes.len() as u64, h.v1_encoded_len());
        // The streams need not exist to parse the header, but data_end accounting does.
        bytes.resize(h.data_end as usize, 0);
        let parsed = TraceHeader::read(&mut Cursor::new(&bytes)).unwrap();
        assert_eq!(parsed, h);
        assert_eq!(parsed.total_records(), 30);
        assert_eq!(parsed.total_instructions(), 140);
        assert!(!parsed.chunked);
    }

    #[test]
    fn v2_footer_roundtrips() {
        let (h, bytes) = sample_v2_file();
        let parsed = TraceHeader::read(&mut Cursor::new(&bytes)).unwrap();
        assert_eq!(parsed, h);
        assert!(parsed.chunked);
        assert_eq!(parsed.data_end, h.data_end);
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut bytes = encode_v1(&sample_v1_header());
        bytes[0] = b'X';
        assert!(matches!(
            TraceHeader::read(&mut Cursor::new(&bytes)),
            Err(TraceError::BadMagic(_))
        ));
    }

    #[test]
    fn future_version_is_rejected() {
        let mut bytes = encode_v1(&sample_v1_header());
        bytes[4] = 0xff;
        bytes[5] = 0xff;
        assert!(matches!(
            TraceHeader::read(&mut Cursor::new(&bytes)),
            Err(TraceError::UnsupportedVersion(_))
        ));
    }

    #[test]
    fn version_and_chunked_flag_must_agree() {
        // A v2 file without the chunked flag (or a v1 file with it) is malformed.
        let (_, mut bytes) = sample_v2_file();
        bytes[6] &= !(FLAG_CHUNKED as u8);
        assert!(matches!(
            TraceHeader::read(&mut Cursor::new(&bytes)),
            Err(TraceError::Corrupt(_))
        ));
        let mut v1 = encode_v1(&sample_v1_header());
        v1[6] |= FLAG_CHUNKED as u8;
        assert!(matches!(
            TraceHeader::read(&mut Cursor::new(&v1)),
            Err(TraceError::Corrupt(_))
        ));
    }

    #[test]
    fn unknown_flag_bits_are_rejected() {
        let mut bytes = encode_v1(&sample_v1_header());
        bytes[6] |= 0x08; // bit 3 is unassigned in every known version
        assert!(matches!(
            TraceHeader::read(&mut Cursor::new(&bytes)),
            Err(TraceError::Corrupt(_))
        ));
    }

    #[test]
    fn version_and_compressed_flag_must_agree() {
        // The compressed flag is mandatory in v3 and unassigned below: a v2 file with it
        // (or a v3 file without it) is malformed.
        let (h, mut bytes) = sample_v2_file();
        bytes[6] |= FLAG_COMPRESSED as u8;
        assert!(matches!(
            TraceHeader::read(&mut Cursor::new(&bytes)),
            Err(TraceError::Corrupt(_))
        ));
        let mut v3 = h.clone();
        v3.version = crate::format::FORMAT_VERSION_V3;
        let mut bytes = v3.encode_preamble(); // compressed=false: flag stays clear
        bytes.resize(v3.data_end as usize, 0xaa);
        bytes.extend_from_slice(&v3.encode_footer(v3.data_end));
        assert!(matches!(
            TraceHeader::read(&mut Cursor::new(&bytes)),
            Err(TraceError::Corrupt(_))
        ));
    }

    #[test]
    fn v3_header_roundtrips_and_relaxes_record_density() {
        let (mut h, _) = sample_v2_file();
        h.version = crate::format::FORMAT_VERSION_V3;
        h.compressed = true;
        // 40 stream bytes could never hold 200 raw records, but compressed streams may:
        // the v2 density guard would reject this directory, the v3 one must not.
        h.cores[0].records = 200;
        h.cores[0].instructions = 200;
        let mut bytes = h.encode_preamble();
        bytes.resize(h.data_end as usize, 0xaa);
        bytes.extend_from_slice(&h.encode_footer(h.data_end));
        let parsed = TraceHeader::read(&mut Cursor::new(&bytes)).unwrap();
        assert_eq!(parsed, h);
        assert!(parsed.compressed);
        // The scaled bound still exists: 255 raw bytes per disk byte at 3 bytes/record.
        let mut bomb = h.clone();
        bomb.cores[0].records = bomb.cores[0].bytes * 86;
        let mut bytes = bomb.encode_preamble();
        bytes.resize(bomb.data_end as usize, 0xaa);
        bytes.extend_from_slice(&bomb.encode_footer(bomb.data_end));
        assert!(matches!(
            TraceHeader::read(&mut Cursor::new(&bytes)),
            Err(TraceError::Corrupt(_))
        ));
    }

    #[test]
    fn truncated_header_is_rejected() {
        let bytes = encode_v1(&sample_v1_header());
        for cut in [2, 7, 11, 14, bytes.len() - 1] {
            let err = TraceHeader::read(&mut Cursor::new(&bytes[..cut])).unwrap_err();
            assert!(
                matches!(err, TraceError::Truncated(_) | TraceError::Corrupt(_)),
                "cut at {cut} gave {err:?}"
            );
        }
    }

    #[test]
    fn v2_truncated_footer_is_rejected() {
        let (_, bytes) = sample_v2_file();
        for cut in [bytes.len() - 1, bytes.len() - 9, bytes.len() - 40] {
            assert!(
                TraceHeader::read(&mut Cursor::new(&bytes[..cut])).is_err(),
                "cut at {cut} must not parse"
            );
        }
    }

    #[test]
    fn v2_byte_accounting_must_partition_the_data_region() {
        let (mut h, _) = sample_v2_file();
        h.cores[1].bytes -= 1; // directory no longer covers the data region
        let mut bytes = h.encode_preamble();
        bytes.resize(h.data_end as usize, 0xaa);
        bytes.extend_from_slice(&h.encode_footer(h.data_end));
        assert!(matches!(
            TraceHeader::read(&mut Cursor::new(&bytes)),
            Err(TraceError::Corrupt(_))
        ));
    }

    #[test]
    fn inconsistent_v1_directory_is_rejected() {
        let mut h = sample_v1_header();
        h.cores[1].offset += 1;
        let bytes = encode_v1(&h);
        assert!(matches!(
            TraceHeader::read(&mut Cursor::new(&bytes)),
            Err(TraceError::Corrupt(_))
        ));
    }

    #[test]
    fn implausible_record_count_is_rejected() {
        // A directory claiming more records than bytes/3 cannot be real (each record is
        // at least three varint bytes) and must not reach readers' pre-allocations.
        let mut h = sample_v1_header();
        h.cores[0].records = 1 << 60;
        let bytes = encode_v1(&h);
        assert!(matches!(
            TraceHeader::read(&mut Cursor::new(&bytes)),
            Err(TraceError::Corrupt(_))
        ));
    }
}
