//! Property/fuzz pass for the `.atrc` codec and its one reader (`MappedTrace`). The
//! oracles are the records pushed, the format spec, and the checked reference decoder —
//! never a second file reader.
//!
//! Three families:
//!
//! * **Round-trip bit-identity** — random record streams × random block/chunk
//!   boundaries × every layout the readers accept (v2 and v3, with and without
//!   checksums: the writer's own v3 for the checksummed v3 leg, `atrc_assembler` for the
//!   three it cannot write) must decode back to exactly the pushed
//!   records, both decoded up front and streamed one block at a time (where wrapped
//!   replay must repeat the identical stream). Runs under the default proptest
//!   case count, which CI bumps via `PROPTEST_CASES`.
//! * **Single-bit-flip corruption** — for small v2 and v3 files, every bit of every
//!   byte (preamble, chunk frames, payloads, footer directory, trailing offset) is
//!   flipped in turn; no flip may be silently absorbed. A flip must either be rejected
//!   (checksum/flag/framing error) or change the decoded interpretation — a flipped
//!   file that reads back bit-identically to the original would mean some byte region
//!   carries no meaning and no protection. Corrupted compressed blocks must be rejected
//!   on the stored-byte checksum *before* decompression.
//! * **Decoder agreement on arbitrary payloads** — checksummed files never let a damaged
//!   payload reach a record decoder, so the `unsafe` word-at-a-time
//!   `decode_block_payload_append` is fed raw bytes directly (arbitrary, and valid
//!   encodings that were truncated, extended or bit-flipped) and held to the
//!   bounds-checked `decode_block_payload` on accept/reject and on every record.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use proptest::prelude::*;

use adapt_llc::sim::trace::{ArenaReplayTrace, MemAccess, TraceSource};
use adapt_llc::traces::format::{
    decode_block_payload, decode_block_payload_append, encode_block_payload,
};
use adapt_llc::traces::{
    decode_all, read_header, MappedStreamDecoder, MappedTrace, TraceError, TraceHeader,
};

mod atrc_assembler;

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("adapt_atrc_fuzz_{name}.atrc"))
}

/// Put `streams` on disk at format `version`, with or without checksums: through the
/// writer where it can produce that layout (v3, checksummed), assembled otherwise.
fn write_file(
    path: &Path,
    streams: &[Vec<MemAccess>],
    records_per_block: usize,
    version: u16,
    checksums: bool,
) {
    let layout = atrc_assembler::Layout {
        version,
        checksums,
        records_per_block,
        llc_sets: 64,
    };
    let labels: Vec<String> = (0..streams.len()).map(|c| format!("core{c}")).collect();
    let labels: Vec<&str> = labels.iter().map(String::as_str).collect();
    // Interleave pushes round-robin so chunk boundaries of different cores mix.
    let longest = streams.iter().map(Vec::len).max().unwrap_or(0);
    let pushes = (0..longest).flat_map(|i| {
        streams
            .iter()
            .enumerate()
            .filter_map(move |(core, records)| records.get(i).map(|r| (core, *r)))
    });
    atrc_assembler::write_file(path, layout, "fuzz", &labels, pushes);
}

/// Full interpretation of a trace file: everything a consumer can observe.
fn interpret(path: &PathBuf) -> Result<(TraceHeader, Vec<Vec<MemAccess>>), String> {
    let header = read_header(path).map_err(|e| e.to_string())?;
    let streams = decode_all(path).map_err(|e| e.to_string())?;
    Ok((header, streams))
}

/// Hold the fast appending decoder to the checked reference on one payload: same
/// accept/reject decision, and on accept the same records appended after whatever the
/// arena already held.
fn assert_decoders_agree(payload: &[u8], record_count: usize) {
    let mut reference = Vec::new();
    let checked = decode_block_payload(payload, record_count, &mut reference);
    let sentinel = MemAccess {
        addr: 0xdead_beef,
        pc: 7,
        is_write: true,
        non_mem_instrs: 9,
    };
    let mut arena = vec![sentinel];
    let fast = decode_block_payload_append(payload, record_count, &mut arena);
    assert_eq!(
        checked.is_ok(),
        fast.is_ok(),
        "decoders disagree on accept/reject (reference {checked:?}, fast {fast:?})"
    );
    if checked.is_ok() {
        assert_eq!(arena[0], sentinel);
        assert_eq!(&arena[1..], &reference[..]);
    }
}

proptest! {
    #[test]
    fn random_streams_roundtrip_bit_identically(
        raw in collection::vec(
            (1u64..1 << 48, 0u64..1 << 32, any::<bool>(), 0u32..2000),
            1..400,
        ),
        records_per_block in 1usize..64,
        split in 0usize..7,
        version in 2u16..4,
        checksums in any::<bool>(),
    ) {
        let records: Vec<MemAccess> = raw
            .iter()
            .map(|&(addr, pc, is_write, non_mem_instrs)| MemAccess {
                addr,
                pc,
                is_write,
                non_mem_instrs,
            })
            .collect();
        // Split the stream over 1-2 cores at a random point (both halves non-empty).
        let streams: Vec<Vec<MemAccess>> = if split == 0 || records.len() < 2 {
            vec![records.clone()]
        } else {
            let cut = 1 + (split - 1) * (records.len() - 1) / 6;
            vec![records[..cut].to_vec(), records[cut..].to_vec()]
        };
        let path = tmp("roundtrip");
        write_file(&path, &streams, records_per_block, version, checksums);

        let (header, decoded) = interpret(&path).expect("well-formed file must decode");
        prop_assert_eq!((header.version, header.checksums), (version, checksums));
        prop_assert_eq!(&decoded, &streams);

        // A block-streamed cursor over the mapping must reproduce the pushed records
        // too, and wrapped replay repeats the identical stream.
        let trace = Arc::new(MappedTrace::open(&path).unwrap());
        prop_assert_eq!(trace.header(), &header);
        for (core, expected) in streams.iter().enumerate() {
            let decoder = MappedStreamDecoder::new(trace.clone(), core).unwrap();
            let mut cursor = ArenaReplayTrace::new(Box::new(decoder), Arc::default());
            for pass in 0..2u64 {
                for (i, want) in expected.iter().enumerate() {
                    let got = cursor.next_access();
                    prop_assert_eq!(
                        got, *want,
                        "cursor diverged: core {} pass {} record {}",
                        core, pass, i
                    );
                }
                prop_assert_eq!(cursor.wraps(), pass + 1);
            }
        }
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn random_bit_flips_are_never_silently_absorbed(
        seed_records in collection::vec(
            (1u64..1 << 40, 0u64..1 << 20, any::<bool>(), 0u32..50),
            4..120,
        ),
        records_per_block in 1usize..32,
        version in 2u16..4,
        flip_position in 0usize..1 << 16,
        flip_bit in 0usize..8,
    ) {
        let records: Vec<MemAccess> = seed_records
            .iter()
            .map(|&(addr, pc, is_write, non_mem_instrs)| MemAccess {
                addr,
                pc,
                is_write,
                non_mem_instrs,
            })
            .collect();
        let path = tmp("randflip");
        write_file(&path, &[records], records_per_block, version, true);
        let baseline = interpret(&path).expect("well-formed file must decode");
        let original = std::fs::read(&path).unwrap();
        let mut corrupted = original.clone();
        let target = flip_position % corrupted.len();
        corrupted[target] ^= 1 << flip_bit;
        std::fs::write(&path, &corrupted).unwrap();
        if let Ok(interpretation) = interpret(&path) {
            prop_assert_ne!(
                interpretation,
                baseline,
                "flipping bit {} of byte {} changed the file but not its decoded \
                 interpretation",
                flip_bit,
                target
            );
        }
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn fast_and_reference_block_decoders_agree_on_arbitrary_payloads(
        noise in collection::vec(0u16..256, 0..200),
        noise_records in 0usize..24,
        raw in collection::vec(
            (
                (0u64..u64::MAX, 0u32..64),
                (0u64..u64::MAX, 0u32..64),
                any::<bool>(),
                (0u32..u32::MAX, 0u32..32),
            ),
            1..60,
        ),
        damage in 0usize..4,
        at in 0usize..1 << 16,
        bit in 0usize..8,
        claimed_delta in 0usize..3,
    ) {
        // Arbitrary bytes: almost always rejected, by both or by neither.
        let noise: Vec<u8> = noise.iter().map(|&b| b as u8).collect();
        assert_decoders_agree(&noise, noise_records);

        // A valid encoding whose fields are random bits shifted down by a random amount
        // (so every varint length from 1 to 10 bytes occurs), then damaged: 0 = intact,
        // 1 = truncated, 2 = trailing garbage, 3 = one bit flipped; and a claimed record
        // count one under / equal to / one over the truth.
        let records: Vec<MemAccess> = raw
            .iter()
            .map(|&((addr, addr_shift), (pc, pc_shift), is_write, (gap, gap_shift))| MemAccess {
                addr: addr >> addr_shift,
                pc: pc >> pc_shift,
                is_write,
                non_mem_instrs: gap >> gap_shift,
            })
            .collect();
        let mut payload = Vec::new();
        encode_block_payload(&records, &mut payload);
        let at = at % payload.len();
        match damage {
            1 => payload.truncate(at),
            2 => payload.extend_from_slice(&noise),
            3 => payload[at] ^= 1 << bit,
            _ => {}
        }
        assert_decoders_agree(&payload, records.len() + claimed_delta - 1);
        if damage == 0 && claimed_delta == 1 {
            let mut decoded = Vec::new();
            decode_block_payload_append(&payload, records.len(), &mut decoded).unwrap();
            prop_assert_eq!(decoded, records);
        }
    }
}

/// Exhaustive single-bit-flip sweep over EVERY byte of a small v2 and v3 file: the
/// deterministic backbone behind the sampled proptest above. Covers each byte region —
/// preamble, chunk frames, (compressed) payloads, footer labels/directory, trailing
/// footer offset — asserting that corruption is either rejected outright or visibly
/// changes the decoded result. With checksums on, payload flips specifically must be
/// *rejected* (not merely decode differently).
#[test]
fn every_single_bit_flip_is_detected_or_changes_the_interpretation() {
    for version in [2, 3] {
        let records: Vec<MemAccess> = (0..48)
            .map(|i| MemAccess {
                addr: 0x1000 + i * 64,
                pc: 0x400 + (i % 3) * 4,
                is_write: i % 5 == 0,
                non_mem_instrs: (i % 4) as u32,
            })
            .collect();
        let path = tmp(&format!("flip_v{version}"));
        write_file(&path, &[records], 16, version, true);
        let baseline = interpret(&path).expect("well-formed file must decode");
        let original = std::fs::read(&path).unwrap();
        let header = read_header(&path).unwrap();
        let payload_region = header.preamble_len() as usize..header.data_end as usize;
        let mut checksum_rejections = 0u64;

        for byte in 0..original.len() {
            for bit in 0..8 {
                let mut corrupted = original.clone();
                corrupted[byte] ^= 1 << bit;
                std::fs::write(&path, &corrupted).unwrap();
                if let Ok(interpretation) = interpret(&path) {
                    assert_ne!(
                        interpretation, baseline,
                        "v{}: flipping bit {bit} of byte {byte} was silently absorbed",
                        header.version
                    );
                    // Inside the checksummed data region nothing may even decode
                    // differently: every chunk flip must fail validation. (The region
                    // includes frame fields; those fail structurally.)
                    assert!(
                        !payload_region.contains(&byte),
                        "v{}: flip at data-region byte {byte} bit {bit} decoded \
                         despite per-block checksums",
                        header.version
                    );
                }
                // Checksum-before-decompression: a data-region flip
                // either damages a frame (caught structurally, at open or decode) or a
                // payload (caught by the FNV over the *stored* bytes). Either way the
                // decompressor must never run on garbage, so no flip anywhere may
                // surface as a decompression error.
                if payload_region.contains(&byte) {
                    if let Ok(mapped) = MappedTrace::open(&path) {
                        let err = mapped.decode_core(0).expect_err("flip must not decode");
                        assert!(
                            !err.to_string().contains("decompression failed"),
                            "v{}: data-region flip at byte {byte} bit {bit} reached \
                             the decompressor instead of being rejected first: {err}",
                            header.version
                        );
                        if matches!(err, TraceError::ChecksumMismatch { .. }) {
                            checksum_rejections += 1;
                        }
                    }
                }
            }
        }
        // The FNV gate must actually have fired — most payload-byte flips leave the
        // framing intact and are only distinguishable by checksum.
        assert!(
            checksum_rejections > 0,
            "v{}: no flip was ever rejected by the checksum gate",
            header.version
        );
        std::fs::remove_file(path).ok();
    }
}
