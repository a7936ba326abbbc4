//! The one test-side `.atrc` assembler: chunked files the product no longer writes,
//! built from `docs/atrc-format.md`.
//!
//! `trace_io::TraceWriter` emits exactly one format — version 3, checksummed. The readers
//! promise more: version 2 stays readable forever, and so do checksum-less files of either
//! chunked version. Those legs of the fuzz, conformance, truncation and reader tests are
//! assembled here ([`write_file`] picks writer or assembler by layout), from the spec's
//! primitives (`encode_block_payload`, `fnv1a32`, and the data-driven
//! `TraceHeader::{encode_preamble, encode_footer}`), with every block stored raw — which
//! v3 permits per block and v2 requires.
//!
//! Chunks are emitted as a streaming writer emits them: a core's block the moment it
//! fills, partial blocks in core order at the end. That is what makes the golden
//! `tests/data/v2-chunked.atrc` reproducible from here, byte for byte.
//!
//! Included by path from `trace-io`'s own tests too, hence the `trace_io::` /
//! `cache_sim::` paths rather than the facade's.

use std::path::Path;

use cache_sim::trace::MemAccess;
use trace_io::format::{encode_block_payload, fnv1a32, put_u32};
use trace_io::header::{CoreStreamInfo, TraceHeader};
use trace_io::{TraceCaptureOptions, TraceWriter};

/// Which chunked layout to assemble.
#[derive(Debug, Clone, Copy)]
pub struct Layout {
    /// 2 or 3. A v3 file carries the compressed *flag* (mandatory) over raw blocks.
    pub version: u16,
    /// Whether each chunk frame carries the FNV-1a of its payload.
    pub checksums: bool,
    /// Records per block.
    pub records_per_block: usize,
    /// Recorded LLC geometry.
    pub llc_sets: u32,
}

/// Put `pushes` on disk at `path` in `layout`: through [`TraceWriter`] when `layout` is
/// the one it emits (v3, checksummed), so that leg of a test runs on the product's own
/// bytes, and [`assemble`]d otherwise.
pub fn write_file(
    path: &Path,
    layout: Layout,
    label: &str,
    core_labels: &[&str],
    pushes: impl IntoIterator<Item = (usize, MemAccess)>,
) {
    if (layout.version, layout.checksums) != (3, true) {
        std::fs::write(path, assemble(layout, label, core_labels, pushes)).unwrap();
        return;
    }
    let opts = TraceCaptureOptions {
        records_per_block: layout.records_per_block,
        llc_sets: layout.llc_sets,
    };
    let mut writer = TraceWriter::with_options(path, core_labels.len(), label, opts).unwrap();
    for (core, core_label) in core_labels.iter().enumerate() {
        writer.begin_core(core, core_label).unwrap();
    }
    for (core, record) in pushes {
        writer.push(core, record).unwrap();
    }
    writer.finish().unwrap();
}

/// Assemble one file from `pushes` — `(core, record)` in capture order — and return its
/// bytes.
pub fn assemble(
    layout: Layout,
    label: &str,
    core_labels: &[&str],
    pushes: impl IntoIterator<Item = (usize, MemAccess)>,
) -> Vec<u8> {
    let mut header = TraceHeader {
        version: layout.version,
        checksums: layout.checksums,
        chunked: true,
        compressed: layout.version >= 3,
        llc_sets: layout.llc_sets,
        label: label.to_string(),
        cores: core_labels
            .iter()
            .map(|l| CoreStreamInfo {
                label: l.to_string(),
                offset: 0,
                bytes: 0,
                records: 0,
                instructions: 0,
            })
            .collect(),
        data_end: 0,
    };
    let mut out = header.encode_preamble();
    let mut pending: Vec<Vec<MemAccess>> = vec![Vec::new(); core_labels.len()];
    let mut flush = |core: usize, block: &mut Vec<MemAccess>, out: &mut Vec<u8>| {
        let info = &mut header.cores[core];
        if info.records == 0 {
            info.offset = out.len() as u64;
        }
        let start = out.len();
        let mut payload = Vec::new();
        encode_block_payload(block, &mut payload);
        put_u32(out, core as u32);
        put_u32(out, payload.len() as u32);
        put_u32(out, block.len() as u32);
        if layout.checksums {
            put_u32(out, fnv1a32(&payload));
        }
        out.extend_from_slice(&payload);
        info.bytes += (out.len() - start) as u64;
        info.records += block.len() as u64;
        info.instructions += block.iter().map(|r| r.instructions()).sum::<u64>();
        block.clear();
    };
    for (core, access) in pushes {
        pending[core].push(access);
        if pending[core].len() >= layout.records_per_block {
            flush(core, &mut pending[core], &mut out);
        }
    }
    for (core, block) in pending.iter_mut().enumerate() {
        if !block.is_empty() {
            flush(core, block, &mut out);
        }
    }
    header.data_end = out.len() as u64;
    let footer = header.encode_footer(header.data_end);
    out.extend_from_slice(&footer);
    out
}
