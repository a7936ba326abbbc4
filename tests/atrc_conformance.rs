//! `.atrc` format-conformance suite: golden fixtures locked against the byte-level spec.
//!
//! `tests/data/` holds one tiny canonical trace file per format version. Every test
//! here asserts *byte offsets* against `docs/atrc-format.md` — a format regression
//! fails with a spec citation ("§Version 2 preamble: version field at offset 4") rather
//! than a downstream decode error — and then decodes the fixture against the expected
//! records, so the compatibility promise ("v1/v2 fixtures decode identically forever")
//! is enforced against checked-in bytes, not against bytes the current writer happens
//! to produce.
//!
//! Every fixture is additionally compared against a fresh re-encode of the same fixed
//! input. For v3 that is the current writer, which must stay byte-stable because corpora
//! are content-addressed by their bytes in CI artifacts and benchmarks. v1 and v2 are
//! written by nothing in the product, so their bytes are assembled from the spec — v1
//! below, v2 by `tests/atrc_assembler` — and the checked-in files must match that. To
//! regenerate after an *intentional* format change, run:
//!
//! ```text
//! ATRC_REGEN_FIXTURES=1 cargo test --test atrc_conformance
//! ```
//!
//! and update `docs/atrc-format.md` in the same commit.

use std::path::PathBuf;

use adapt_llc::sim::trace::{MemAccess, TraceSource};
use adapt_llc::traces::format::{
    encode_block_payload, fnv1a32, put_u16, put_u32, put_u64, BLOCK_COMPRESSED_BIT, FLAG_CHECKSUMS,
    FLAG_CHUNKED, FLAG_COMPRESSED,
};
use adapt_llc::traces::{
    compression_stats, decode_all, open_all, read_header, MappedTrace, TraceCaptureOptions,
};

mod atrc_assembler;

const SPEC: &str = "docs/atrc-format.md";

fn data_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/data")
}

fn fixture_path(name: &str) -> PathBuf {
    data_dir().join(name)
}

/// Assert `bytes[offset..]` starts with `expected`, citing the spec section on failure.
#[track_caller]
fn expect_bytes(bytes: &[u8], offset: usize, expected: &[u8], field: &str, section: &str) {
    let got = bytes
        .get(offset..offset + expected.len())
        .unwrap_or_else(|| panic!("{SPEC} {section}: file too short for {field} at {offset}"));
    assert_eq!(
        got, expected,
        "{SPEC} {section}: {field} at offset {offset} must be {expected:02x?}, got {got:02x?}"
    );
}

fn le16(v: u16) -> [u8; 2] {
    v.to_le_bytes()
}

fn le32(v: u32) -> [u8; 4] {
    v.to_le_bytes()
}

// ---- fixture content (deterministic, no RNG) -------------------------------------

/// Strided, highly compressible stream (the common trace shape).
fn strided_records(n: u64) -> Vec<MemAccess> {
    (0..n)
        .map(|i| MemAccess {
            addr: 0x4000_0000 + i * 64,
            pc: 0x40_0000 + (i % 4) * 4,
            is_write: i % 4 == 0,
            non_mem_instrs: (i % 3) as u32,
        })
        .collect()
}

/// SplitMix64-derived stream: effectively random addresses, incompressible, so v3
/// stores its blocks raw (covers the per-block fallback path in the fixture).
fn noise_records(n: u64) -> Vec<MemAccess> {
    let mut state = 0x5eed_0f7e_bee5_ca11u64;
    let mut next = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    (0..n)
        .map(|_| {
            let a = next();
            let b = next();
            MemAccess {
                addr: a & 0x0000_ffff_ffff_ffc0,
                pc: 0x40_0000 + (b & 0xfffc),
                is_write: b & 0x10000 != 0,
                non_mem_instrs: ((b >> 17) & 0xff) as u32,
            }
        })
        .collect()
}

// ---- fixture construction ---------------------------------------------------------

/// Hand-assemble the v1 fixture from the spec (the current writer cannot emit v1, so
/// the legacy layout is built from its normative description).
fn build_v1_fixture() -> Vec<u8> {
    let records = strided_records(24);
    let label = "v1-fixture";
    let core_label = "legacy";
    let mut streams = Vec::new();
    let mut stream_bytes = 0u64;
    for block in records.chunks(16) {
        let mut payload = Vec::new();
        encode_block_payload(block, &mut payload);
        put_u32(&mut streams, payload.len() as u32);
        put_u32(&mut streams, block.len() as u32);
        put_u32(&mut streams, fnv1a32(&payload));
        streams.extend_from_slice(&payload);
        stream_bytes += 12 + payload.len() as u64;
    }
    let header_len = (4 + 2 + 2 + 4 + 4) + (2 + label.len()) + (2 + core_label.len()) + 32;
    let mut out = Vec::new();
    out.extend_from_slice(b"ATRC");
    put_u16(&mut out, 1);
    put_u16(&mut out, FLAG_CHECKSUMS);
    put_u32(&mut out, 1);
    put_u32(&mut out, 64);
    put_u16(&mut out, label.len() as u16);
    out.extend_from_slice(label.as_bytes());
    put_u16(&mut out, core_label.len() as u16);
    out.extend_from_slice(core_label.as_bytes());
    put_u64(&mut out, header_len as u64);
    put_u64(&mut out, stream_bytes);
    put_u64(&mut out, records.len() as u64);
    put_u64(
        &mut out,
        records.iter().map(|r| r.instructions()).sum::<u64>(),
    );
    assert_eq!(out.len(), header_len);
    out.extend_from_slice(&streams);
    out
}

/// The two-core capture both chunked fixtures hold, in push order: core 0's strided
/// records, then core 1's noise.
fn chunked_fixture_pushes() -> impl Iterator<Item = (usize, MemAccess)> {
    let gcc = strided_records(40).into_iter().map(|r| (0, r));
    let lbm = noise_records(40).into_iter().map(|r| (1, r));
    gcc.chain(lbm)
}

/// Layout of the chunked fixtures: 16 records to a block, checksummed, 64 LLC sets.
fn chunked_layout(version: u16) -> atrc_assembler::Layout {
    atrc_assembler::Layout {
        version,
        checksums: true,
        records_per_block: 16,
        llc_sets: 64,
    }
}

/// Assemble the v2 fixture from the spec (the current writer cannot emit v2 either).
fn build_v2_fixture() -> Vec<u8> {
    let pushes = chunked_fixture_pushes();
    atrc_assembler::assemble(chunked_layout(2), "v2-fixture", &["gcc", "lbm"], pushes)
}

/// Write the v3 fixture through the current writer and return the file's bytes.
fn build_v3_fixture() -> Vec<u8> {
    let path = std::env::temp_dir().join("atrc_conformance_build_v3-fixture.atrc");
    let pushes = chunked_fixture_pushes();
    atrc_assembler::write_file(
        &path,
        chunked_layout(3),
        "v3-fixture",
        &["gcc", "lbm"],
        pushes,
    );
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_file(path).ok();
    bytes
}

fn fixture_specs() -> Vec<(&'static str, Vec<u8>)> {
    vec![
        ("v1-legacy.atrc", build_v1_fixture()),
        ("v2-chunked.atrc", build_v2_fixture()),
        ("v3-compressed.atrc", build_v3_fixture()),
    ]
}

/// With `ATRC_REGEN_FIXTURES=1`, (re)write the golden files; otherwise assert they
/// exist and match what the current code produces for the same fixed input — the
/// writer byte-stability lock for v3, the spec-assembly lock for v1 and v2.
#[test]
fn fixtures_match_current_writer_byte_for_byte() {
    let regen = std::env::var("ATRC_REGEN_FIXTURES").is_ok();
    for (name, bytes) in fixture_specs() {
        let path = fixture_path(name);
        if regen {
            std::fs::create_dir_all(data_dir()).unwrap();
            std::fs::write(&path, &bytes).unwrap();
            continue;
        }
        let on_disk = std::fs::read(&path)
            .unwrap_or_else(|e| panic!("{name} missing ({e}); run with ATRC_REGEN_FIXTURES=1"));
        assert_eq!(
            on_disk, bytes,
            "{name}: the checked-in fixture no longer matches what the code produces \
             for the same records — either the writer drifted (a format regression; fix \
             the code) or the format intentionally changed (regenerate the fixture AND \
             update {SPEC} in the same commit)"
        );
    }
}

#[test]
fn v1_fixture_layout_matches_the_spec() {
    let bytes = std::fs::read(fixture_path("v1-legacy.atrc")).unwrap();
    let s = "§Version 1 (legacy, read-only)";
    expect_bytes(&bytes, 0, b"ATRC", "magic", s);
    expect_bytes(&bytes, 4, &le16(1), "version", s);
    expect_bytes(
        &bytes,
        6,
        &le16(FLAG_CHECKSUMS),
        "flags (checksums only; chunked/compressed bits MUST be clear in v1)",
        s,
    );
    expect_bytes(&bytes, 8, &le32(1), "core_count", s);
    expect_bytes(&bytes, 12, &le32(64), "llc_sets", s);
    expect_bytes(&bytes, 16, &le16(10), "file label length", s);
    expect_bytes(&bytes, 18, b"v1-fixture", "file label bytes", s);
    expect_bytes(&bytes, 28, &le16(6), "core label length", s);
    expect_bytes(&bytes, 30, b"legacy", "core label bytes", s);
    // Directory: stream_offset must equal the header length (36 + 32 = 68).
    let header_len = 68u64;
    expect_bytes(&bytes, 36, &header_len.to_le_bytes(), "stream_offset", s);
    expect_bytes(&bytes, 52, &24u64.to_le_bytes(), "record_count", s);
    // v1 block frame: payload_len, record_count, checksum — no core_id field.
    let payload_len = u32::from_le_bytes(bytes[68..72].try_into().unwrap()) as usize;
    expect_bytes(&bytes, 72, &le32(16), "first block record_count", s);
    let payload = &bytes[80..80 + payload_len];
    expect_bytes(
        &bytes,
        76,
        &le32(fnv1a32(payload)),
        "first block FNV-1a checksum",
        s,
    );

    let header = read_header(fixture_path("v1-legacy.atrc")).unwrap();
    assert_eq!(header.version, 1);
    assert!(!header.chunked && !header.compressed);
    assert_eq!(
        decode_all(fixture_path("v1-legacy.atrc")).unwrap(),
        vec![strided_records(24)],
        "{SPEC} §Versioning and compatibility policy: v1 fixtures must decode \
         identically forever"
    );
}

#[test]
fn v2_fixture_layout_matches_the_spec() {
    let bytes = std::fs::read(fixture_path("v2-chunked.atrc")).unwrap();
    let s = "§Version 2 (legacy, read-only): chunked layout";
    expect_bytes(&bytes, 0, b"ATRC", "magic", s);
    expect_bytes(&bytes, 4, &le16(2), "version", s);
    expect_bytes(
        &bytes,
        6,
        &le16(FLAG_CHECKSUMS | FLAG_CHUNKED),
        "flags (chunked MUST be set in v2; compressed MUST NOT)",
        s,
    );
    expect_bytes(&bytes, 8, &le32(2), "core_count", s);
    expect_bytes(&bytes, 12, &le32(64), "llc_sets", s);
    expect_bytes(&bytes, 16, &le16(10), "file label length", s);
    expect_bytes(&bytes, 18, b"v2-fixture", "file label bytes", s);
    // First chunk frame right after the 28-byte preamble: core_id 0, then lengths.
    let preamble = 28usize;
    expect_bytes(&bytes, preamble, &le32(0), "first chunk core_id", s);
    let payload_len =
        u32::from_le_bytes(bytes[preamble + 4..preamble + 8].try_into().unwrap()) as usize;
    expect_bytes(
        &bytes,
        preamble + 8,
        &le32(16),
        "first chunk record_count",
        s,
    );
    let payload = &bytes[preamble + 16..preamble + 16 + payload_len];
    expect_bytes(
        &bytes,
        preamble + 12,
        &le32(fnv1a32(payload)),
        "first chunk FNV-1a checksum",
        s,
    );
    // The last 8 bytes point at the footer magic.
    let footer_offset = u64::from_le_bytes(bytes[bytes.len() - 8..].try_into().unwrap()) as usize;
    expect_bytes(
        &bytes,
        footer_offset,
        b"ATRF",
        "footer magic at footer_offset (trailing 8 bytes)",
        s,
    );
    expect_bytes(
        &bytes,
        footer_offset + 4,
        &le16(3),
        "first core label length in footer",
        s,
    );
    expect_bytes(&bytes, footer_offset + 6, b"gcc", "first core label", s);

    let header = read_header(fixture_path("v2-chunked.atrc")).unwrap();
    assert_eq!(header.version, 2);
    assert!(header.chunked && !header.compressed);
    assert_eq!(header.data_end as usize, footer_offset);
    let expected = vec![strided_records(40), noise_records(40)];
    assert_eq!(
        decode_all(fixture_path("v2-chunked.atrc")).unwrap(),
        expected,
        "{SPEC} §Versioning and compatibility policy: v2 fixtures must decode \
         identically forever"
    );
}

#[test]
fn v3_fixture_layout_matches_the_spec() {
    let bytes = std::fs::read(fixture_path("v3-compressed.atrc")).unwrap();
    let s = "§Version 3 (current): compressed blocks";
    expect_bytes(&bytes, 0, b"ATRC", "magic", s);
    expect_bytes(&bytes, 4, &le16(3), "version", s);
    expect_bytes(
        &bytes,
        6,
        &le16(FLAG_CHECKSUMS | FLAG_CHUNKED | FLAG_COMPRESSED),
        "flags (chunked AND compressed MUST be set in v3)",
        s,
    );
    expect_bytes(&bytes, 8, &le32(2), "core_count", s);
    expect_bytes(&bytes, 16, &le16(10), "file label length", s);
    expect_bytes(&bytes, 18, b"v3-fixture", "file label bytes", s);

    // First chunk: core 0's strided records compress, so the record-count field must
    // carry BLOCK_COMPRESSED_BIT and the payload must start with the raw length.
    let preamble = 28usize;
    expect_bytes(&bytes, preamble, &le32(0), "first chunk core_id", s);
    let payload_len =
        u32::from_le_bytes(bytes[preamble + 4..preamble + 8].try_into().unwrap()) as usize;
    expect_bytes(
        &bytes,
        preamble + 8,
        &le32(16 | BLOCK_COMPRESSED_BIT),
        "first chunk record_count with bit 31 (payload compressed)",
        s,
    );
    let payload = &bytes[preamble + 16..preamble + 16 + payload_len];
    expect_bytes(
        &bytes,
        preamble + 12,
        &le32(fnv1a32(payload)),
        "chunk checksum covers the STORED (compressed) payload bytes",
        s,
    );
    // raw_len prefix: 16 strided records delta-encode to some raw size; re-derive it.
    let mut raw = Vec::new();
    encode_block_payload(&strided_records(40)[..16], &mut raw);
    expect_bytes(
        &bytes,
        preamble + 16,
        &le32(raw.len() as u32),
        "compressed payload raw_len prefix",
        s,
    );
    assert!(
        payload_len < 4 + raw.len(),
        "{SPEC} {s}: a block is stored compressed only when strictly smaller \
         ({payload_len} vs {} raw)",
        4 + raw.len()
    );

    // Core 1's noise blocks must be stored raw: same framing as v2, bit 31 clear.
    let info =
        compression_stats(&MappedTrace::open(fixture_path("v3-compressed.atrc")).unwrap()).unwrap();
    assert!(
        info.compressed_blocks > 0 && info.compressed_blocks < info.blocks,
        "{SPEC} {s}: fixture must exercise both block forms, got {}/{} compressed",
        info.compressed_blocks,
        info.blocks
    );
    assert!(info.ratio() > 1.0, "compressed fixture must be smaller");

    let header = read_header(fixture_path("v3-compressed.atrc")).unwrap();
    assert_eq!(header.version, 3);
    assert!(header.chunked && header.compressed);
    let expected = vec![strided_records(40), noise_records(40)];
    assert_eq!(
        decode_all(fixture_path("v3-compressed.atrc")).unwrap(),
        expected,
        "{SPEC} {s}: v3 fixture must decode to the same records as its v2 twin"
    );
}

#[test]
fn v2_and_v3_fixtures_hold_identical_records() {
    // The compression bump changes bytes, never meaning: both chunked fixtures carry
    // the same streams, and wrapping replay cursors agree record-for-record.
    let v2 = decode_all(fixture_path("v2-chunked.atrc")).unwrap();
    let v3 = decode_all(fixture_path("v3-compressed.atrc")).unwrap();
    assert_eq!(v2, v3);
    let v2_cursors = open_all(fixture_path("v2-chunked.atrc")).unwrap();
    let v3_cursors = open_all(fixture_path("v3-compressed.atrc")).unwrap();
    for (mut a, mut b) in v2_cursors.into_iter().zip(v3_cursors) {
        for _ in 0..100 {
            // across wraps
            assert_eq!(a.next_access(), b.next_access());
        }
        assert_eq!((a.wraps(), b.wraps()), (2, 2), "40-record streams");
    }
    let v2_len = std::fs::metadata(fixture_path("v2-chunked.atrc"))
        .unwrap()
        .len();
    let v3_len = std::fs::metadata(fixture_path("v3-compressed.atrc"))
        .unwrap()
        .len();
    assert!(
        v3_len < v2_len,
        "v3 fixture must be measurably smaller ({v3_len} vs {v2_len} bytes)"
    );
}

#[test]
fn shipped_import_sample_transcodes_into_a_sweepable_corpus() {
    // The checked-in CSV sample is what CI imports into its artifact corpus; lock its
    // parseability and corpus-joinability here so a format or roster change cannot
    // break the CI step silently.
    use adapt_llc::traces::import::{import_into_corpus, ImportFormat, ImportOptions};
    let dir = std::env::temp_dir().join("atrc_conformance_sample_import");
    std::fs::remove_dir_all(&dir).ok();
    let opts = ImportOptions {
        capture: TraceCaptureOptions::for_llc_sets(64),
        core_labels: ["gcc", "lbm", "mcf", "calc"]
            .iter()
            .map(|s| s.to_string())
            .collect(),
        ..Default::default()
    };
    let outcome = import_into_corpus(
        &dir,
        0,
        &[fixture_path("import-sample.csv")],
        ImportFormat::Csv,
        &opts,
        1,
    )
    .unwrap();
    assert_eq!(outcome.stats.records(), 32);
    assert_eq!(outcome.stats.per_core.len(), 4);
    let corpus = adapt_llc::traces::Corpus::load(&dir).unwrap();
    assert_eq!(
        corpus.entries()[0].benchmarks,
        ["gcc", "lbm", "mcf", "calc"]
    );
    assert!(corpus.validate_geometry(64).is_ok());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn fixtures_verify_clean() {
    // A fresh mapping validates every block's checksum on its first full decode, and
    // the open-time scan has already held the frames to the directory.
    for (name, blocks) in [
        ("v1-legacy.atrc", 2),
        ("v2-chunked.atrc", 6),
        ("v3-compressed.atrc", 6),
    ] {
        let trace = MappedTrace::open(fixture_path(name)).unwrap();
        for (core, info) in trace.header().cores.iter().enumerate() {
            assert_eq!(
                trace.decode_core(core).unwrap().len() as u64,
                info.records,
                "{name} core {core}"
            );
        }
        assert_eq!(trace.checksum_validations(), blocks, "{name}");
        assert_eq!(compression_stats(&trace).unwrap().blocks, blocks);
    }
}
