//! On-disk primitives: varints, zigzag, FNV-1a checksums, and block (de)coding.
//!
//! # Record encoding
//!
//! Records are grouped into blocks of at most [`MAX_BLOCK_RECORDS`] records. Within a
//! block each [`MemAccess`] is three LEB128 varints:
//!
//! ```text
//! varint(zigzag(addr - prev_addr))    // byte-address delta to the previous record
//! varint(zigzag(pc   - prev_pc))      // PC delta to the previous record
//! varint(non_mem_instrs << 1 | is_write)
//! ```
//!
//! `prev_addr` / `prev_pc` start at 0 at the *top of every block*, so blocks decode
//! independently — corruption never cascades past a block boundary, and a reader can
//! rewind a stream by seeking to its first block. Delta+zigzag makes strided and looping
//! patterns (the common case for cache traces) encode in 3-5 bytes per record instead of
//! the 21 a fixed layout would need.

use cache_sim::trace::MemAccess;

use crate::error::TraceError;

/// File magic: "ATRC" (Adapt TRaCe).
pub const MAGIC: [u8; 4] = *b"ATRC";
/// Footer magic of chunked (version >= 2) files: "ATRF" (Adapt TRace Footer).
pub const FOOTER_MAGIC: [u8; 4] = *b"ATRF";
/// The original, non-chunked format: header + directory up front, one contiguous stream
/// per core. Still fully readable; see `docs/atrc-format.md` for the compatibility policy.
pub const FORMAT_VERSION_V1: u16 = 1;
/// Chunked framing (streaming writes, footer-resident directory), raw block payloads.
/// Legacy like v1: readable forever, written by nothing in the product.
pub const FORMAT_VERSION_V2: u16 = 2;
/// Chunked framing plus LZ4-compressed block payloads, signaled per block (a block that
/// would not shrink is stored raw). The one version [`crate::TraceWriter`] emits.
pub const FORMAT_VERSION_V3: u16 = 3;
/// Newest format version this build can read; the strict reader gate.
pub const MAX_FORMAT_VERSION: u16 = FORMAT_VERSION_V3;
/// Header flag bit: every block carries an FNV-1a checksum of its payload.
pub const FLAG_CHECKSUMS: u16 = 1 << 0;
/// Header flag bit: the file uses chunked framing — blocks carry a core id and are written
/// in capture order, and the per-core directory lives in a footer at the end of the file.
/// Mandatory in version 2+ files.
pub const FLAG_CHUNKED: u16 = 1 << 1;
/// Header flag bit: block payloads *may* be LZ4-compressed, signaled per block by
/// [`BLOCK_COMPRESSED_BIT`] in the chunk's `record_count` field. Mandatory in version 3
/// files (a v3 writer that compresses nothing still sets it) and invalid below v3.
pub const FLAG_COMPRESSED: u16 = 1 << 2;
/// Bit 31 of a v3 chunk's `record_count` field: set when the chunk's payload is stored
/// compressed (`raw_len u32 || LZ4 block data`) rather than as raw block-encoded records.
/// Real record counts are capped at [`MAX_BLOCK_RECORDS`] (2^20), so the bit never
/// collides with a count.
pub const BLOCK_COMPRESSED_BIT: u32 = 1 << 31;
/// Default number of records per block.
pub const DEFAULT_BLOCK_RECORDS: usize = 4096;
/// Hard upper bound on records per block (sanity check while decoding).
pub const MAX_BLOCK_RECORDS: usize = 1 << 20;
/// Hard upper bound on a block payload (sanity check while decoding).
pub const MAX_BLOCK_PAYLOAD: usize = 1 << 26;

/// 32-bit FNV-1a over `bytes`.
pub fn fnv1a32(bytes: &[u8]) -> u32 {
    let mut hash = 0x811c_9dc5u32;
    for &b in bytes {
        hash ^= u32::from(b);
        hash = hash.wrapping_mul(0x0100_0193);
    }
    hash
}

/// Map a signed delta onto an unsigned integer with small magnitudes staying small.
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
pub fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Append `v` as an LEB128 varint.
pub fn write_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Read an LEB128 varint from `buf` starting at `*pos`, advancing `*pos`.
pub fn read_varint(buf: &[u8], pos: &mut usize) -> Result<u64, TraceError> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let byte = *buf.get(*pos).ok_or(TraceError::Truncated("varint"))?;
        *pos += 1;
        if shift == 63 && byte > 1 {
            return Err(TraceError::Corrupt("varint overflows u64".into()));
        }
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
        if shift > 63 {
            return Err(TraceError::Corrupt("varint longer than 10 bytes".into()));
        }
    }
}

/// Encode `records` as one block payload (no block header).
pub fn encode_block_payload(records: &[MemAccess], out: &mut Vec<u8>) {
    let mut prev_addr = 0i64;
    let mut prev_pc = 0i64;
    for r in records {
        write_varint(out, zigzag((r.addr as i64).wrapping_sub(prev_addr)));
        write_varint(out, zigzag((r.pc as i64).wrapping_sub(prev_pc)));
        write_varint(
            out,
            (u64::from(r.non_mem_instrs) << 1) | u64::from(r.is_write),
        );
        prev_addr = r.addr as i64;
        prev_pc = r.pc as i64;
    }
}

/// Decode a block payload holding exactly `record_count` records, replacing `out`'s
/// contents: the bounds-checked, one-record-at-a-time *reference* decoder. Files are read
/// through [`decode_block_payload_append`]; this one stays as the small independent
/// implementation the `unsafe` fast path is held to (unit tests below, and the
/// arbitrary-payload proptest in `tests/atrc_fuzz.rs`).
pub fn decode_block_payload(
    payload: &[u8],
    record_count: usize,
    out: &mut Vec<MemAccess>,
) -> Result<(), TraceError> {
    let mut pos = 0usize;
    let mut prev_addr = 0i64;
    let mut prev_pc = 0i64;
    out.clear();
    out.reserve(record_count);
    for _ in 0..record_count {
        let addr = prev_addr.wrapping_add(unzigzag(read_varint(payload, &mut pos)?));
        let pc = prev_pc.wrapping_add(unzigzag(read_varint(payload, &mut pos)?));
        let packed = read_varint(payload, &mut pos)?;
        let non_mem = packed >> 1;
        if non_mem > u64::from(u32::MAX) {
            return Err(TraceError::Corrupt("non_mem_instrs exceeds u32".into()));
        }
        out.push(MemAccess {
            addr: addr as u64,
            pc: pc as u64,
            is_write: packed & 1 == 1,
            non_mem_instrs: non_mem as u32,
        });
        prev_addr = addr;
        prev_pc = pc;
    }
    if pos != payload.len() {
        return Err(TraceError::Corrupt(format!(
            "block payload has {} trailing bytes",
            payload.len() - pos
        )));
    }
    Ok(())
}

/// Decode a block payload holding exactly `record_count` records, *appending* to `out`.
///
/// This is the reader's decoder: unlike [`decode_block_payload`] it does not clear `out`
/// (a whole-stream decode accumulates every block into one vector), reserves exactly (so
/// a reused replay arena's capacity tracks the stream's largest block instead of
/// doubling), and reads varints a word at a time. It accepts exactly the payloads
/// [`decode_block_payload`] accepts and produces identical records — the fuzz wall in
/// `tests/atrc_fuzz.rs` and the unit tests below hold the two decoders bit-identical, on
/// corrupt payloads too.
pub fn decode_block_payload_append(
    payload: &[u8],
    record_count: usize,
    out: &mut Vec<MemAccess>,
) -> Result<(), TraceError> {
    let mut pos = 0usize;
    let mut prev_addr = 0i64;
    let mut prev_pc = 0i64;
    out.reserve_exact(record_count);
    let len = payload.len();
    let base = out.len();
    let mut produced = 0usize;
    // Bulk loop: away from the payload tail every varint read can load a full 8-byte
    // word and every record can be written straight into the reserved spare capacity,
    // so the per-record cost is three unchecked loads and one unchecked store. The
    // window arithmetic: reads happen at `pos`, `pos + ≤10` and `pos + ≤20` (a varint
    // spans at most 10 bytes), each needing 8 readable bytes, so `pos + 28 <= len`
    // keeps every load in bounds.
    //
    // SAFETY: `reserve_exact` above guarantees capacity for `record_count` writes and
    // `produced` never exceeds it; the loop condition bounds every 8-byte load as
    // argued above; `set_len` only covers records actually written (early `?` returns
    // leave the length untouched, abandoning writes in spare capacity).
    unsafe {
        let mut dst = out.as_mut_ptr().add(base);
        while produced < record_count && pos + 28 <= len {
            let addr = prev_addr.wrapping_add(unzigzag(read_varint_unchecked(payload, &mut pos)?));
            let pc = prev_pc.wrapping_add(unzigzag(read_varint_unchecked(payload, &mut pos)?));
            let packed = read_varint_unchecked(payload, &mut pos)?;
            let non_mem = packed >> 1;
            if non_mem > u64::from(u32::MAX) {
                return Err(TraceError::Corrupt("non_mem_instrs exceeds u32".into()));
            }
            std::ptr::write(
                dst,
                MemAccess {
                    addr: addr as u64,
                    pc: pc as u64,
                    is_write: packed & 1 == 1,
                    non_mem_instrs: non_mem as u32,
                },
            );
            dst = dst.add(1);
            produced += 1;
            prev_addr = addr;
            prev_pc = pc;
        }
        out.set_len(base + produced);
    }
    // Tail: the last few records, whose varints may touch the final payload bytes, go
    // through the bounds-checked byte-loop reader (which also supplies truncation errors).
    for _ in produced..record_count {
        let addr = prev_addr.wrapping_add(unzigzag(read_varint(payload, &mut pos)?));
        let pc = prev_pc.wrapping_add(unzigzag(read_varint(payload, &mut pos)?));
        let packed = read_varint(payload, &mut pos)?;
        let non_mem = packed >> 1;
        if non_mem > u64::from(u32::MAX) {
            return Err(TraceError::Corrupt("non_mem_instrs exceeds u32".into()));
        }
        out.push(MemAccess {
            addr: addr as u64,
            pc: pc as u64,
            is_write: packed & 1 == 1,
            non_mem_instrs: non_mem as u32,
        });
        prev_addr = addr;
        prev_pc = pc;
    }
    if pos != payload.len() {
        return Err(TraceError::Corrupt(format!(
            "block payload has {} trailing bytes",
            payload.len() - pos
        )));
    }
    Ok(())
}

/// Word-at-a-time LEB128 read for the bulk decode loop: one unchecked 8-byte load covers
/// varints up to 8 bytes (56 bits — every delta a real trace produces).
///
/// Accept/reject behavior is identical to [`read_varint`]: varints of 3–8 bytes are
/// extracted branchlessly from the loaded word, and 9–10-byte encodings (which only
/// corrupt or adversarial payloads produce) fall back to the byte loop for its
/// overflow/length errors.
///
/// # Safety
///
/// `buf[*pos..*pos + 8]` must be in bounds.
#[inline(always)]
unsafe fn read_varint_unchecked(buf: &[u8], pos: &mut usize) -> Result<u64, TraceError> {
    let p = *pos;
    debug_assert!(p + 8 <= buf.len());
    let word = u64::from_le_bytes(std::ptr::read_unaligned(
        buf.as_ptr().add(p) as *const [u8; 8]
    ));
    if word & 0x80 == 0 {
        *pos = p + 1;
        return Ok(word & 0x7f);
    }
    if word & 0x8000 == 0 {
        *pos = p + 2;
        return Ok((word & 0x7f) | ((word >> 1) & 0x3f80));
    }
    let stops = !word & 0x8080_8080_8080_8080;
    if stops != 0 {
        let vlen = stops.trailing_zeros() as usize / 8 + 1;
        // Mask to the varint's bytes, then squeeze out every continuation bit in one
        // parallel pass (each 7-bit group shifts down by its byte index).
        let x = word & (u64::MAX >> (64 - 8 * vlen));
        let v = (x & 0x7f)
            | ((x & 0x7f00) >> 1)
            | ((x & 0x7f_0000) >> 2)
            | ((x & 0x7f00_0000) >> 3)
            | ((x & 0x7f_0000_0000) >> 4)
            | ((x & 0x7f00_0000_0000) >> 5)
            | ((x & 0x7f_0000_0000_0000) >> 6)
            | ((x & 0x7f00_0000_0000_0000) >> 7);
        *pos = p + vlen;
        return Ok(v);
    }
    read_varint(buf, pos)
}

/// Compress a raw block payload for v3 storage.
///
/// Returns the on-disk payload — `raw_len u32 LE` followed by the LZ4 block — but only
/// when that is strictly smaller than storing `raw` directly; `None` means the writer
/// should store the block uncompressed (clear [`BLOCK_COMPRESSED_BIT`]). Incompressible
/// payloads therefore never grow a file beyond its v2 size.
pub fn compress_payload(raw: &[u8]) -> Option<Vec<u8>> {
    let compressed = lz4_flex::compress(raw);
    if 4 + compressed.len() >= raw.len() {
        return None;
    }
    let mut disk = Vec::with_capacity(4 + compressed.len());
    put_u32(&mut disk, raw.len() as u32);
    disk.extend_from_slice(&compressed);
    Some(disk)
}

/// Inverse of [`compress_payload`]: expand a compressed on-disk payload back to the raw
/// block-encoded bytes, into a reusable scratch buffer (cleared and resized to the
/// declared raw length, so decoding v3 blocks allocates nothing per block).
///
/// The `raw_len` prefix is untrusted input, so it is bounded by [`MAX_BLOCK_PAYLOAD`]
/// before any allocation, and the LZ4 decoder is required to produce exactly `raw_len`
/// bytes — a block that under- or over-runs its declaration is corrupt.
pub fn decompress_payload_into(disk: &[u8], scratch: &mut Vec<u8>) -> Result<(), TraceError> {
    if disk.len() < 4 {
        return Err(TraceError::Truncated("compressed block length prefix"));
    }
    let raw_len = u32::from_le_bytes([disk[0], disk[1], disk[2], disk[3]]) as usize;
    if raw_len > MAX_BLOCK_PAYLOAD {
        return Err(TraceError::Corrupt(format!(
            "compressed block declares {raw_len} raw bytes (over the {MAX_BLOCK_PAYLOAD} bound)"
        )));
    }
    scratch.clear();
    scratch.resize(raw_len, 0);
    let written = lz4_flex::decompress_into(&disk[4..], scratch)
        .map_err(|e| TraceError::Corrupt(format!("block decompression failed: {e}")))?;
    if written != raw_len {
        return Err(TraceError::Corrupt(format!(
            "block decompression failed: LZ4 block decoded to {written} bytes but {raw_len} were declared"
        )));
    }
    Ok(())
}

// ---- little-endian scalar helpers shared by header and block framing ----

/// Append `v` little-endian.
pub fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append `v` little-endian.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append `v` little-endian.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Read exactly `N` bytes, mapping EOF to [`TraceError::Truncated`] tagged `what`.
pub fn read_exact<const N: usize>(
    r: &mut impl std::io::Read,
    what: &'static str,
) -> Result<[u8; N], TraceError> {
    let mut buf = [0u8; N];
    r.read_exact(&mut buf).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            TraceError::Truncated(what)
        } else {
            TraceError::Io(e)
        }
    })?;
    Ok(buf)
}

/// Read a little-endian `u16`, mapping EOF to [`TraceError::Truncated`] tagged `what`.
pub fn get_u16(r: &mut impl std::io::Read, what: &'static str) -> Result<u16, TraceError> {
    Ok(u16::from_le_bytes(read_exact::<2>(r, what)?))
}

/// Read a little-endian `u32`, mapping EOF to [`TraceError::Truncated`] tagged `what`.
pub fn get_u32(r: &mut impl std::io::Read, what: &'static str) -> Result<u32, TraceError> {
    Ok(u32::from_le_bytes(read_exact::<4>(r, what)?))
}

/// Read a little-endian `u64`, mapping EOF to [`TraceError::Truncated`] tagged `what`.
pub fn get_u64(r: &mut impl std::io::Read, what: &'static str) -> Result<u64, TraceError> {
    Ok(u64::from_le_bytes(read_exact::<8>(r, what)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_roundtrips_boundary_values() {
        for v in [
            0u64,
            1,
            0x7f,
            0x80,
            0x3fff,
            0x4000,
            u32::MAX as u64,
            u64::MAX - 1,
            u64::MAX,
        ] {
            let mut buf = Vec::new();
            write_varint(&mut buf, v);
            let mut pos = 0;
            assert_eq!(read_varint(&buf, &mut pos).unwrap(), v);
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn varint_rejects_truncation_and_overflow() {
        let mut buf = Vec::new();
        write_varint(&mut buf, u64::MAX);
        let mut pos = 0;
        assert!(matches!(
            read_varint(&buf[..buf.len() - 1], &mut pos),
            Err(TraceError::Truncated(_))
        ));
        // 10 continuation bytes followed by a value that pushes past 64 bits.
        let bad = [0xffu8, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f];
        let mut pos = 0;
        assert!(matches!(
            read_varint(&bad, &mut pos),
            Err(TraceError::Corrupt(_))
        ));
    }

    #[test]
    fn zigzag_roundtrips() {
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
        // Small magnitudes encode small.
        assert!(zigzag(-3) < 8);
        assert!(zigzag(3) < 8);
    }

    #[test]
    fn block_payload_roundtrips() {
        let records: Vec<MemAccess> = (0..500)
            .map(|i| MemAccess {
                addr: 0x1_0000_0000 + i * 64,
                pc: 0x40_0000 + (i % 13) * 4,
                is_write: i % 4 == 0,
                non_mem_instrs: (i % 7) as u32,
            })
            .collect();
        let mut payload = Vec::new();
        encode_block_payload(&records, &mut payload);
        // Delta coding should beat the naive 20-byte fixed layout comfortably.
        assert!(
            payload.len() < records.len() * 8,
            "payload {} bytes",
            payload.len()
        );
        let mut decoded = Vec::new();
        decode_block_payload(&payload, records.len(), &mut decoded).unwrap();
        assert_eq!(decoded, records);
    }

    #[test]
    fn trailing_garbage_in_payload_is_detected() {
        let records = vec![MemAccess {
            addr: 64,
            pc: 4,
            is_write: false,
            non_mem_instrs: 1,
        }];
        let mut payload = Vec::new();
        encode_block_payload(&records, &mut payload);
        payload.push(0x00);
        let mut decoded = Vec::new();
        let err = decode_block_payload(&payload, 1, &mut decoded).unwrap_err();
        assert!(matches!(err, TraceError::Corrupt(_)));
    }

    /// Adversarial varint mix for the fast decoder: every encoded length from 1 to 10
    /// bytes appears, plus values straddling each 7-bit boundary.
    fn varint_stress_records() -> Vec<MemAccess> {
        let mut deltas: Vec<i64> = vec![0, 1, -1, 63, -64, 64, -65, 8191, -8192];
        for shift in [13u32, 20, 27, 34, 41, 48, 55, 62] {
            deltas.push(1i64 << shift);
            deltas.push(-(1i64 << shift));
            deltas.push((1i64 << shift) - 1);
        }
        deltas.push(i64::MAX);
        deltas.push(i64::MIN);
        let mut addr = 0i64;
        let mut pc = 0i64;
        let mut records = Vec::new();
        for (i, &d) in deltas.iter().cycle().take(600).enumerate() {
            addr = addr.wrapping_add(d);
            pc = pc.wrapping_add(d.rotate_left(3));
            records.push(MemAccess {
                addr: addr as u64,
                pc: pc as u64,
                is_write: i % 3 == 0,
                non_mem_instrs: (i as u32).wrapping_mul(2654435761) % (u32::MAX / 2),
            });
        }
        records
    }

    #[test]
    fn append_decoder_matches_reference_decoder_on_stress_payload() {
        let records = varint_stress_records();
        let mut payload = Vec::new();
        encode_block_payload(&records, &mut payload);
        let mut reference = Vec::new();
        decode_block_payload(&payload, records.len(), &mut reference).unwrap();
        let mut fast = Vec::new();
        decode_block_payload_append(&payload, records.len(), &mut fast).unwrap();
        assert_eq!(fast, reference);
        assert_eq!(fast, records);
        // Appending: a second decode grows the arena rather than clearing it.
        decode_block_payload_append(&payload, records.len(), &mut fast).unwrap();
        assert_eq!(fast.len(), 2 * records.len());
        assert_eq!(&fast[records.len()..], &records[..]);
    }

    #[test]
    fn append_decoder_rejects_what_the_reference_rejects() {
        let records = varint_stress_records();
        let mut payload = Vec::new();
        encode_block_payload(&records, &mut payload);
        // Truncation at every point near the tail, plus trailing garbage and a
        // record-count mismatch: both decoders must agree on accept/reject.
        let mut cases: Vec<(Vec<u8>, usize)> = (1..payload.len().min(40))
            .map(|cut| (payload[..payload.len() - cut].to_vec(), records.len()))
            .collect();
        let mut garbage = payload.clone();
        garbage.push(0);
        cases.push((garbage, records.len()));
        cases.push((payload.clone(), records.len() - 1));
        // Overlong varint: 10 continuation bytes overflowing 64 bits.
        cases.push((
            vec![0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f],
            1,
        ));
        for (bad, count) in cases {
            let mut a = Vec::new();
            let mut b = Vec::new();
            let reference = decode_block_payload(&bad, count, &mut a);
            let fast = decode_block_payload_append(&bad, count, &mut b);
            assert!(
                reference.is_err() && fast.is_err(),
                "decoders disagree on a corrupt payload (reference {reference:?}, fast {fast:?})"
            );
        }
    }

    #[test]
    fn fnv_is_stable_and_input_sensitive() {
        assert_eq!(fnv1a32(b""), 0x811c_9dc5);
        assert_ne!(fnv1a32(b"abc"), fnv1a32(b"abd"));
    }

    #[test]
    fn payload_compression_roundtrips_and_declines_incompressible_blocks() {
        // A strided stream delta-encodes to a repeating byte pattern: must compress.
        let records: Vec<MemAccess> = (0..2000)
            .map(|i| MemAccess {
                addr: 0x10_0000 + i * 64,
                pc: 0x400,
                is_write: false,
                non_mem_instrs: 3,
            })
            .collect();
        let mut raw = Vec::new();
        encode_block_payload(&records, &mut raw);
        let disk = compress_payload(&raw).expect("strided payload must compress");
        assert!(disk.len() < raw.len());
        let mut scratch = vec![0u8; 3]; // deliberately wrong size: must be resized
        decompress_payload_into(&disk, &mut scratch).unwrap();
        assert_eq!(scratch, raw);

        // A near-random payload must be declined rather than stored bigger.
        let mut state = 7u64;
        let noise: Vec<u8> = (0..512)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                (state >> 33) as u8
            })
            .collect();
        assert!(compress_payload(&noise).is_none());
    }

    #[test]
    fn decompress_payload_rejects_bad_prefixes() {
        let mut scratch = Vec::new();
        assert!(matches!(
            decompress_payload_into(&[1, 2, 3], &mut scratch),
            Err(TraceError::Truncated(_))
        ));
        let mut oversized = Vec::new();
        put_u32(&mut oversized, (MAX_BLOCK_PAYLOAD + 1) as u32);
        oversized.extend_from_slice(&[0u8; 8]);
        assert!(matches!(
            decompress_payload_into(&oversized, &mut scratch),
            Err(TraceError::Corrupt(_))
        ));
        // Declared length mismatching the actual expansion is corruption.
        let raw = b"abcdabcdabcdabcdabcdabcdabcdabcd".to_vec();
        let mut disk = compress_payload(&raw).expect("repetitive payload compresses");
        let wrong = (raw.len() as u32 - 1).to_le_bytes();
        disk[..4].copy_from_slice(&wrong);
        assert!(matches!(
            decompress_payload_into(&disk, &mut scratch),
            Err(TraceError::Corrupt(_))
        ));
    }
}
