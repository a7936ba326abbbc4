//! Property/fuzz pass for the `.atrc` codec and reader.
//!
//! Two families:
//!
//! * **Round-trip bit-identity** — random record streams × random block/chunk
//!   boundaries × compressed/uncompressed files must decode back to exactly the pushed
//!   records (and wrapped replay must repeat the identical stream). Runs under the
//!   default proptest case count, which CI bumps via `PROPTEST_CASES`.
//! * **Single-bit-flip corruption** — for small v2 and v3 files, every bit of every
//!   byte (preamble, chunk frames, payloads, footer directory, trailing offset) is
//!   flipped in turn; no flip may be silently absorbed. A flip must either be rejected
//!   (checksum/flag/framing error) or change the decoded interpretation — a flipped
//!   file that reads back bit-identically to the original would mean some byte region
//!   carries no meaning and no protection.
//!
//! Both families also lock the zero-copy mapped pipeline (`MappedTrace`,
//! `MappedStreamDecoder`) to the buffered reader: bit-identical on well-formed files
//! across random batch sizes, never more permissive on corrupt ones, and rejecting
//! corrupted compressed blocks on the stored-byte checksum *before* decompression.

use std::path::PathBuf;
use std::sync::Arc;

use proptest::prelude::*;

use adapt_llc::sim::trace::{ArenaReplayTrace, MemAccess, TraceSource};
use adapt_llc::traces::{
    decode_all, decode_all_mapped, read_header, MappedStreamDecoder, MappedTrace,
    TraceCaptureOptions, TraceError, TraceHeader, TraceWriter,
};

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("adapt_atrc_fuzz_{name}.atrc"))
}

fn write_file(
    path: &PathBuf,
    streams: &[Vec<MemAccess>],
    records_per_block: usize,
    compress: bool,
    checksums: bool,
) {
    let opts = TraceCaptureOptions {
        records_per_block,
        checksums,
        llc_sets: 64,
        compress,
    };
    let mut w = TraceWriter::with_options(path, streams.len(), "fuzz", opts).unwrap();
    // Interleave pushes round-robin so chunk boundaries of different cores mix.
    let longest = streams.iter().map(Vec::len).max().unwrap_or(0);
    for i in 0..longest {
        for (core, records) in streams.iter().enumerate() {
            if let Some(r) = records.get(i) {
                w.push(core, *r).unwrap();
            }
        }
    }
    w.finish().unwrap();
}

/// Full interpretation of a trace file: everything a consumer can observe.
fn interpret(path: &PathBuf) -> Result<(TraceHeader, Vec<Vec<MemAccess>>), String> {
    let header = read_header(path).map_err(|e| e.to_string())?;
    let streams = decode_all(path).map_err(|e| e.to_string())?;
    Ok((header, streams))
}

/// [`interpret`] through the zero-copy mapped pipeline. The identity contract: on
/// well-formed files this equals `interpret`; on corrupt files it may only be
/// *stricter* (the eager scan also cross-checks the directory record counts), never
/// accept something the buffered reader rejects, and never absorb a flip silently.
fn interpret_mapped(path: &PathBuf) -> Result<(TraceHeader, Vec<Vec<MemAccess>>), String> {
    let header = read_header(path).map_err(|e| e.to_string())?;
    let streams = decode_all_mapped(path).map_err(|e| e.to_string())?;
    Ok((header, streams))
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
        compress in any::<bool>(),
        checksums in any::<bool>(),
        batch_records in 1usize..96,
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
        write_file(&path, &streams, records_per_block, compress, checksums);

        let (header, decoded) = interpret(&path).expect("well-formed file must decode");
        prop_assert_eq!(header.version, if compress { 3 } else { 2 });
        prop_assert_eq!(&decoded, &streams);

        // Wrapped replay repeats the identical stream.
        let mut reader = adapt_llc::traces::TraceReader::open(&path, 0).unwrap();
        let n = streams[0].len();
        let first: Vec<MemAccess> = (0..n).map(|_| reader.next_access()).collect();
        let second: Vec<MemAccess> = (0..n).map(|_| reader.next_access()).collect();
        prop_assert_eq!(&first, &streams[0]);
        prop_assert_eq!(first, second);

        // Zero-copy identity: the mapped full decode and a batch-streamed cursor over
        // the mapping (random batch size) must reproduce the buffered interpretation
        // bit for bit, wraps included.
        let (mapped_header, mapped) = interpret_mapped(&path)
            .expect("the mapped reader must accept what the buffered reader accepts");
        prop_assert_eq!(&mapped_header, &header);
        prop_assert_eq!(&mapped, &streams);
        let trace = Arc::new(MappedTrace::open(&path).unwrap());
        for (core, expected) in streams.iter().enumerate() {
            let decoder = MappedStreamDecoder::new(trace.clone(), core, batch_records).unwrap();
            let mut cursor = ArenaReplayTrace::new(Box::new(decoder), Arc::default());
            for pass in 0..2u64 {
                for (i, want) in expected.iter().enumerate() {
                    let got = cursor.next_access();
                    prop_assert_eq!(
                        got, *want,
                        "mapped cursor diverged: core {} pass {} record {}",
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
        compress in any::<bool>(),
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
        write_file(&path, &[records], records_per_block, compress, true);
        let baseline = interpret(&path).expect("well-formed file must decode");
        let original = std::fs::read(&path).unwrap();
        let mut corrupted = original.clone();
        let target = flip_position % corrupted.len();
        corrupted[target] ^= 1 << flip_bit;
        std::fs::write(&path, &corrupted).unwrap();
        let buffered = interpret(&path);
        if let Ok(interpretation) = &buffered {
            prop_assert_ne!(
                interpretation,
                &baseline,
                "flipping bit {} of byte {} changed the file but not its decoded \
                 interpretation",
                flip_bit,
                target
            );
        }
        // The mapped path must hold the same line: never absorb the flip, and never
        // accept a file the buffered reader rejects.
        match interpret_mapped(&path) {
            Err(_) => {}
            Ok(interpretation) => {
                prop_assert_ne!(
                    &interpretation,
                    &baseline,
                    "mapped: flipping bit {} of byte {} was silently absorbed",
                    flip_bit,
                    target
                );
                prop_assert!(
                    buffered.is_ok(),
                    "mapped reader accepted a flip (byte {} bit {}) the buffered \
                     reader rejects",
                    target,
                    flip_bit
                );
            }
        }
        std::fs::remove_file(path).ok();
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
    for compress in [false, true] {
        let records: Vec<MemAccess> = (0..48)
            .map(|i| MemAccess {
                addr: 0x1000 + i * 64,
                pc: 0x400 + (i % 3) * 4,
                is_write: i % 5 == 0,
                non_mem_instrs: (i % 4) as u32,
            })
            .collect();
        let path = tmp(if compress { "flip_v3" } else { "flip_v2" });
        write_file(&path, &[records], 16, compress, true);
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
                let buffered = interpret(&path);
                match &buffered {
                    Err(_) => {}
                    Ok(interpretation) => {
                        assert_ne!(
                            interpretation, &baseline,
                            "v{}: flipping bit {bit} of byte {byte} was silently \
                             absorbed",
                            header.version
                        );
                        // Inside the checksummed data region nothing may even decode
                        // differently: every chunk flip must fail validation. (The
                        // region includes frame fields; those fail structurally.)
                        assert!(
                            !payload_region.contains(&byte),
                            "v{}: flip at data-region byte {byte} bit {bit} decoded \
                             despite per-block checksums",
                            header.version
                        );
                    }
                }
                // The mapped pipeline under the same exhaustive sweep: reject or
                // visibly change, and never be more permissive than the buffered
                // reader.
                match interpret_mapped(&path) {
                    Err(_) => {}
                    Ok(interpretation) => {
                        assert_ne!(
                            interpretation, baseline,
                            "v{}: mapped reader silently absorbed bit {bit} of byte \
                             {byte}",
                            header.version
                        );
                        assert!(
                            buffered.is_ok() && !payload_region.contains(&byte),
                            "v{}: mapped reader accepted a data-region flip (byte \
                             {byte} bit {bit}) it must reject",
                            header.version
                        );
                    }
                }
                // Checksum-before-decompression on the mmap path: a data-region flip
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
            "v{}: no flip was ever rejected by the mapped checksum gate",
            header.version
        );
        std::fs::remove_file(path).ok();
    }
}
