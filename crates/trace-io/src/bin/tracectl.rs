//! `tracectl` — capture, inspect, and sanity-check binary trace corpora.
//!
//! ```text
//! tracectl capture --out FILE (--benchmarks A,B,.. | --study CORES [--mix-id K])
//!                  [--accesses N] [--llc-sets N] [--seed N] [--label S]
//! tracectl import  --format champsim|csv (--out FILE | --corpus DIR --mix-id K)
//!                  [--benchmarks A,B,..] [--llc-sets N] [--seed N] [--label S]
//!                  [--limit N] IN [IN..]
//! tracectl inspect FILE [--json]   print the header, directory, and compression ratio;
//!                                  decodes nothing
//! tracectl stats FILE [--json]     decode everything: per-core stats, where the verifying
//!                                  pass's time went (checksum/decompress/decode) and
//!                                  steady-state decode throughput
//! ```
//!
//! `--json` prints machine-readable output (hand-rolled, like the sim-obs exporters).
//! A global `--log-level error|warn|info|debug|trace|off` (or the `REPRO_LOG` environment
//! variable) filters the structured diagnostics; the tool default is `info` so import
//! progress lines stay visible.
//!
//! `capture --benchmarks` records the named Table 4 synthetic models (one per core, in
//! order); `capture --study` records a whole generated workload mix, so the resulting file
//! replays through `experiments::runner::MixSource::replayed_with_id`. Both are the
//! library's `trace_io::capture_benchmarks` / `trace_io::capture_mix`. Every capture and import is
//! written as checksummed `.atrc` v3 (LZ4-compressed blocks, streamed, so it works at
//! any size) and no flag changes that; `inspect` and `stats` read every format version
//! through the one reader, `trace_io::MappedTrace`: a fresh mapping per file (so every
//! checksum is verified), decoded one block at a time — a capture larger than RAM can
//! still be checked.
//!
//! `import` transcodes external traces: ChampSim-style 64-byte binary records (one input
//! file per core) or the documented `core,addr,pc,rw,non_mem` CSV (one file, core
//! column inside). With `--corpus DIR --mix-id K --benchmarks ..` the
//! import lands as `mixNNNN.atrc` inside a corpus directory and is registered in
//! `corpus.manifest`, so `repro sweep --dir` consumes it unchanged. Whole corpus
//! *directories* are materialized by `repro corpus` and swept by `repro sweep` (see
//! `docs/atrc-format.md` for the format spec).

use std::env;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use cache_sim::trace::MemAccess;
use sim_obs::json_escape;
use trace_io::import::{self, ImportFormat, ImportOptions};
use trace_io::{
    capture_benchmarks, capture_mix, compression_stats, DecodeTimings, MappedStreamDecoder,
    MappedTrace, TraceCaptureOptions,
};
use workloads::{generate_mixes, StudyKind};

fn usage() -> &'static str {
    "usage:\n  tracectl capture --out FILE (--benchmarks A,B,.. | --study CORES [--mix-id K])\n  \
     [--accesses N] [--llc-sets N] [--seed N] [--label S]\n  \
     tracectl import --format champsim|csv (--out FILE | --corpus DIR --mix-id K)\n  \
     [--benchmarks A,B,..] [--llc-sets N] [--seed N] [--label S] [--limit N] IN [IN..]\n  \
     tracectl inspect FILE [--json]\n  tracectl stats FILE [--json]\n\
     global: --log-level error|warn|info|debug|trace|off (default info; REPRO_LOG)"
}

struct CaptureArgs {
    out: PathBuf,
    benchmarks: Option<Vec<String>>,
    study: Option<StudyKind>,
    mix_id: usize,
    accesses: u64,
    seed: u64,
    label: Option<String>,
    options: TraceCaptureOptions,
}

fn parse_capture(args: &[String]) -> Result<CaptureArgs, String> {
    let mut parsed = CaptureArgs {
        out: PathBuf::new(),
        benchmarks: None,
        study: None,
        mix_id: 0,
        accesses: 100_000,
        seed: 1,
        label: None,
        options: TraceCaptureOptions {
            llc_sets: 1024,
            ..Default::default()
        },
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .map(String::as_str)
                .ok_or(format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--out" => parsed.out = PathBuf::from(value("--out")?),
            "--benchmarks" => {
                parsed.benchmarks = Some(
                    value("--benchmarks")?
                        .split(',')
                        .map(str::to_string)
                        .collect(),
                )
            }
            "--study" => {
                parsed.study = Some(StudyKind::parse_operand("--study", value("--study")?)?)
            }
            "--mix-id" => {
                parsed.mix_id = value("--mix-id")?
                    .parse()
                    .map_err(|e| format!("--mix-id: {e}"))?
            }
            "--accesses" => {
                parsed.accesses = value("--accesses")?
                    .parse()
                    .map_err(|e| format!("--accesses: {e}"))?
            }
            "--llc-sets" => {
                parsed.options.llc_sets = value("--llc-sets")?
                    .parse()
                    .map_err(|e| format!("--llc-sets: {e}"))?
            }
            "--seed" => {
                parsed.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--label" => parsed.label = Some(value("--label")?.to_string()),
            other => return Err(format!("unknown capture flag {other:?}")),
        }
    }
    if parsed.out.as_os_str().is_empty() {
        return Err("capture requires --out FILE".into());
    }
    match (&parsed.benchmarks, &parsed.study) {
        (Some(_), Some(_)) => Err("--benchmarks and --study are mutually exclusive".into()),
        (None, None) => Err("capture requires --benchmarks or --study".into()),
        _ => Ok(parsed),
    }
}

fn capture(args: CaptureArgs) -> Result<(), String> {
    let (out, label) = (&args.out, args.label.as_deref());
    let summary = if let Some(names) = &args.benchmarks {
        let names: Vec<&str> = names.iter().map(String::as_str).collect();
        capture_benchmarks(out, &names, args.seed, args.accesses, label, args.options)
    } else {
        let study = args.study.expect("validated by parse_capture");
        let mix = generate_mixes(study, args.mix_id + 1, args.seed).remove(args.mix_id);
        capture_mix(out, &mix, args.seed, args.accesses, label, args.options)
    }
    .map_err(|e| format!("capturing to {}: {e}", out.display()))?;

    println!(
        "captured {} records ({} cores × {}) to {}",
        summary.total_records,
        summary.per_core.len(),
        args.accesses,
        summary.path.display()
    );
    println!(
        "  {} bytes on disk, {:.2} bytes/record (fixed layout would need 21)",
        summary.file_bytes,
        summary.bytes_per_record()
    );
    Ok(())
}

struct ImportArgs {
    format: ImportFormat,
    out: Option<PathBuf>,
    corpus: Option<PathBuf>,
    mix_id: usize,
    inputs: Vec<PathBuf>,
    seed: u64,
    options: ImportOptions,
}

fn parse_import(args: &[String]) -> Result<ImportArgs, String> {
    let mut format = None;
    let mut parsed = ImportArgs {
        format: ImportFormat::Csv,
        out: None,
        corpus: None,
        mix_id: 0,
        inputs: Vec::new(),
        seed: 1,
        options: ImportOptions::default(),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .map(String::as_str)
                .ok_or(format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--format" => {
                let name = value("--format")?;
                format = Some(
                    ImportFormat::from_name(name)
                        .ok_or(format!("--format must be champsim or csv, got {name:?}"))?,
                );
            }
            "--out" => parsed.out = Some(PathBuf::from(value("--out")?)),
            "--corpus" => parsed.corpus = Some(PathBuf::from(value("--corpus")?)),
            "--mix-id" => {
                parsed.mix_id = value("--mix-id")?
                    .parse()
                    .map_err(|e| format!("--mix-id: {e}"))?
            }
            "--benchmarks" => {
                parsed.options.core_labels = value("--benchmarks")?
                    .split(',')
                    .map(str::to_string)
                    .collect()
            }
            "--llc-sets" => {
                parsed.options.capture.llc_sets = value("--llc-sets")?
                    .parse()
                    .map_err(|e| format!("--llc-sets: {e}"))?
            }
            "--seed" => {
                parsed.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--label" => parsed.options.label = Some(value("--label")?.to_string()),
            "--limit" => {
                parsed.options.limit = Some(
                    value("--limit")?
                        .parse()
                        .map_err(|e| format!("--limit: {e}"))?,
                )
            }
            other if other.starts_with("--") => {
                return Err(format!("unknown import flag {other:?}"))
            }
            input => parsed.inputs.push(PathBuf::from(input)),
        }
    }
    parsed.format = format.ok_or("import requires --format champsim|csv")?;
    if parsed.inputs.is_empty() {
        return Err("import needs at least one input file".into());
    }
    match (&parsed.out, &parsed.corpus) {
        (Some(_), Some(_)) => Err("--out and --corpus are mutually exclusive".into()),
        (None, None) => Err("import requires --out FILE or --corpus DIR".into()),
        _ => Ok(parsed),
    }
}

fn import_cmd(args: ImportArgs) -> Result<(), String> {
    let stats = if let Some(dir) = &args.corpus {
        let outcome = import::import_into_corpus(
            dir,
            args.mix_id,
            &args.inputs,
            args.format,
            &args.options,
            args.seed,
        )
        .map_err(|e| e.to_string())?;
        println!(
            "imported mix {} into corpus {} ({})",
            outcome.mix_id,
            dir.display(),
            outcome.path.display()
        );
        outcome.stats
    } else {
        let out = args.out.as_ref().expect("validated by parse_import");
        import::import_to_file(&args.inputs, args.format, out, &args.options)
            .map_err(|e| e.to_string())?
    };
    println!(
        "transcoded {} records / {} instructions from {} input bytes ({} lines skipped)",
        stats.records(),
        stats.instructions(),
        stats.input_bytes,
        stats.skipped_lines
    );
    for (core, c) in stats.per_core.iter().enumerate() {
        println!(
            "  core {core} [{}]: {} records, {} instructions",
            c.label, c.records, c.instructions
        );
    }
    println!(
        "  wrote {} ({} bytes, {:.2} bytes/record)",
        stats.summary.path.display(),
        stats.summary.file_bytes,
        stats.summary.bytes_per_record()
    );
    let trace = MappedTrace::open(&stats.summary.path).map_err(|e| e.to_string())?;
    let info = compression_stats(&trace).map_err(|e| e.to_string())?;
    if info.compressed_blocks > 0 {
        println!(
            "  compression: {}/{} blocks, ratio {:.2}x ({} payload bytes saved)",
            info.compressed_blocks,
            info.blocks,
            info.ratio(),
            info.saved_bytes()
        );
    }
    Ok(())
}

/// One full pass over `core`'s stream, one block at a time, each handed to `visit` —
/// decoded-record memory stays one block whatever the stream's length.
fn decode_pass(
    trace: &Arc<MappedTrace>,
    core: usize,
    mut visit: impl FnMut(&[MemAccess]),
) -> Result<(), String> {
    let mut decoder = MappedStreamDecoder::new(trace.clone(), core).map_err(|e| e.to_string())?;
    let mut block = Vec::new();
    loop {
        let ended_pass = decoder
            .try_fill(&mut block)
            .map_err(|e| format!("core {core}: {e}"))?;
        visit(&block);
        if ended_pass {
            return Ok(());
        }
    }
}

fn inspect(path: &Path, json: bool) -> Result<(), String> {
    // The header, the directory and the compression fold: nothing is decoded.
    let trace = MappedTrace::open(path).map_err(|e| e.to_string())?;
    let header = trace.header();
    let compression = if header.compressed {
        Some(compression_stats(&trace).map_err(|e| e.to_string())?)
    } else {
        None
    };
    if json {
        let mut out = String::from("{\n");
        out.push_str(&format!(
            "  \"path\": \"{}\",\n",
            json_escape(&path.display().to_string())
        ));
        out.push_str(&format!("  \"format_version\": {},\n", header.version));
        out.push_str(&format!("  \"chunked\": {},\n", header.chunked));
        out.push_str(&format!("  \"checksums\": {},\n", header.checksums));
        out.push_str(&format!("  \"compressed\": {},\n", header.compressed));
        out.push_str(&format!("  \"llc_sets\": {},\n", header.llc_sets));
        out.push_str(&format!(
            "  \"label\": \"{}\",\n",
            json_escape(&header.label)
        ));
        if let Some(info) = &compression {
            out.push_str(&format!(
                "  \"compression\": {{ \"blocks\": {}, \"compressed_blocks\": {}, \
                 \"disk_payload_bytes\": {}, \"raw_payload_bytes\": {}, \"ratio\": {:.4} }},\n",
                info.blocks,
                info.compressed_blocks,
                info.disk_payload_bytes,
                info.raw_payload_bytes,
                info.ratio()
            ));
        } else {
            out.push_str("  \"compression\": null,\n");
        }
        out.push_str(&format!(
            "  \"total_records\": {},\n  \"total_instructions\": {},\n",
            header.total_records(),
            header.total_instructions()
        ));
        out.push_str("  \"cores\": [\n");
        for (i, core) in header.cores.iter().enumerate() {
            out.push_str(&format!(
                "    {{ \"core\": {i}, \"label\": \"{}\", \"records\": {}, \
                 \"instructions\": {}, \"bytes\": {} }}{}\n",
                json_escape(&core.label),
                core.records,
                core.instructions,
                core.bytes,
                if i + 1 < header.cores.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]\n}");
        println!("{out}");
        return Ok(());
    }
    println!("{}", path.display());
    println!(
        "  format v{}  chunked={}  checksums={}  compressed={}  llc_sets={}  label={:?}",
        header.version,
        header.chunked,
        header.checksums,
        header.compressed,
        header.llc_sets,
        header.label
    );
    if let Some(info) = &compression {
        println!(
            "  compression: {}/{} blocks compressed, {} -> {} payload bytes \
             (ratio {:.2}x, {} saved)",
            info.compressed_blocks,
            info.blocks,
            info.raw_payload_bytes,
            info.disk_payload_bytes,
            info.ratio(),
            info.saved_bytes()
        );
    }
    println!(
        "  {} cores, {} records, {} instructions",
        header.cores.len(),
        header.total_records(),
        header.total_instructions()
    );
    println!(
        "  {:<5} {:<10} {:>12} {:>14} {:>12} {:>8}",
        "core", "label", "records", "instructions", "bytes", "B/rec"
    );
    for (i, core) in header.cores.iter().enumerate() {
        println!(
            "  {:<5} {:<10} {:>12} {:>14} {:>12} {:>8.2}",
            i,
            core.label,
            core.records,
            core.instructions,
            core.bytes,
            core.bytes as f64 / core.records.max(1) as f64
        );
    }
    Ok(())
}

struct CoreStats {
    label: String,
    records: u64,
    writes: u64,
    unique_blocks: u64,
    non_mem: u64,
    verify_secs: f64,
    /// Where the verifying pass's time went.
    verify_split: DecodeTimings,
    decode_secs: f64,
    validations: u64,
}

fn stats(path: &Path, json: bool) -> Result<(), String> {
    // A fresh mapping has validated nothing, so each core's first pass verifies every
    // block checksum; the second is the steady-state decode the rate is quoted for.
    let trace = Arc::new(MappedTrace::open(path).map_err(|e| e.to_string())?);
    let header = trace.header();
    let observing = sim_obs::enabled();
    let mut cores = Vec::with_capacity(header.cores.len());
    for (core, info) in header.cores.iter().enumerate() {
        let validated_before = trace.checksum_validations();
        // Recording is on for the verifying pass only, so the mapping attributes that
        // pass's time to checksum / decompress / decode and the second pays no clock
        // reads.
        sim_obs::enable();
        let start = Instant::now();
        let verified = decode_pass(&trace, core, |_| {});
        let verify_secs = start.elapsed().as_secs_f64();
        if !observing {
            sim_obs::disable();
        }
        verified?;
        let verify_split = trace.decode_timings(core);

        let mut writes = 0u64;
        let mut unique = std::collections::HashSet::new();
        let mut non_mem = 0u64;
        let start = Instant::now();
        decode_pass(&trace, core, |block| {
            for a in block {
                writes += u64::from(a.is_write);
                non_mem += u64::from(a.non_mem_instrs);
                unique.insert(a.addr >> 6);
            }
        })?;
        cores.push(CoreStats {
            label: info.label.clone(),
            records: info.records,
            writes,
            unique_blocks: unique.len() as u64,
            non_mem,
            verify_secs,
            verify_split,
            decode_secs: start.elapsed().as_secs_f64(),
            validations: trace.checksum_validations() - validated_before,
        });
    }
    let total_records: u64 = cores.iter().map(|c| c.records).sum();
    let total_secs: f64 = cores.iter().map(|c| c.decode_secs).sum();
    let aggregate_rate = total_records as f64 / total_secs.max(1e-12);
    if json {
        let mut out = String::from("{\n");
        out.push_str(&format!(
            "  \"path\": \"{}\",\n",
            json_escape(&path.display().to_string())
        ));
        out.push_str(&format!(
            "  \"label\": \"{}\",\n",
            json_escape(&header.label)
        ));
        out.push_str("  \"cores\": [\n");
        for (i, c) in cores.iter().enumerate() {
            out.push_str(&format!(
                "    {{ \"core\": {i}, \"label\": \"{}\", \"records\": {}, \
                 \"write_fraction\": {:.6}, \"unique_blocks\": {}, \"mean_gap\": {:.4}, \
                 \"verify_ms\": {:.3}, \"checksum_ms\": {:.3}, \"decompress_ms\": {:.3}, \
                 \"decode_ms\": {:.3}, \"decode_records_per_s\": {:.1}, \
                 \"checksum_validations\": {} }}{}\n",
                json_escape(&c.label),
                c.records,
                c.writes as f64 / c.records.max(1) as f64,
                c.unique_blocks,
                c.non_mem as f64 / c.records.max(1) as f64,
                c.verify_secs * 1e3,
                ms(c.verify_split.checksum_ns),
                ms(c.verify_split.decompress_ns),
                ms(c.verify_split.decode_ns),
                c.records as f64 / c.decode_secs.max(1e-12),
                c.validations,
                if i + 1 < cores.len() { "," } else { "" }
            ));
        }
        out.push_str("  ],\n");
        out.push_str(&format!(
            "  \"total_records\": {total_records},\n  \
             \"aggregate_records_per_s\": {aggregate_rate:.1}\n}}"
        ));
        println!("{out}");
        return Ok(());
    }
    println!(
        "{}: {} cores, label {:?}",
        path.display(),
        header.cores.len(),
        header.label
    );
    for (core, c) in cores.iter().enumerate() {
        println!(
            "  core {core} [{}]: {} records, {:.1}% writes, {} unique blocks, mean gap {:.2}",
            c.label,
            c.records,
            100.0 * c.writes as f64 / c.records.max(1) as f64,
            c.unique_blocks,
            c.non_mem as f64 / c.records.max(1) as f64
        );
        println!(
            "    verify {:.0} ms (checksum {:.3} ms, decompress {:.3} ms, decode {:.3} ms), \
             decode {:.3e} records/s ({} checksum validations, re-decode skipped them)",
            c.verify_secs * 1e3,
            ms(c.verify_split.checksum_ns),
            ms(c.verify_split.decompress_ns),
            ms(c.verify_split.decode_ns),
            c.records as f64 / c.decode_secs.max(1e-12),
            c.validations
        );
    }
    println!(
        "ok: {total_records} records decode clean at {aggregate_rate:.3e} records/s aggregate"
    );
    Ok(())
}

/// Nanoseconds as milliseconds.
fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Split a `FILE [--json]` argument list: returns the positional path and whether
/// `--json` was present. A refusal carries the usage.
fn parse_inspect_args<'a>(cmd: &str, args: &'a [String]) -> Result<(&'a str, bool), String> {
    let refuse = |why: String| Err(format!("{why}\n{}", usage()));
    let mut path = None;
    let mut json = false;
    for arg in args {
        match arg.as_str() {
            "--json" => json = true,
            other if other.starts_with("--") => {
                return refuse(format!("unknown {cmd} flag {other:?}"))
            }
            positional => {
                if path.replace(positional).is_some() {
                    return refuse(format!("{cmd} takes exactly one FILE"));
                }
            }
        }
    }
    match path {
        Some(path) => Ok((path, json)),
        None => refuse(format!("{cmd} takes exactly one FILE")),
    }
}

fn run() -> Result<(), String> {
    let mut args: Vec<String> = env::args().skip(1).collect();
    // Global --log-level, from any position; CLI tools default to `info`.
    sim_obs::log::take_level_flag(&mut args, sim_obs::Level::Info).map_err(|e| e.to_string())?;
    match args.first().map(String::as_str) {
        Some("capture") => capture(parse_capture(&args[1..])?),
        Some("import") => import_cmd(parse_import(&args[1..])?),
        Some("inspect") => {
            let (path, json) = parse_inspect_args("inspect", &args[1..])?;
            inspect(Path::new(path), json)
        }
        Some("stats") => {
            let (path, json) = parse_inspect_args("stats", &args[1..])?;
            stats(Path::new(path), json)
        }
        Some("help") | Some("--help") | Some("-h") | None => {
            println!("{}", usage());
            Ok(())
        }
        Some(other) => Err(format!("unknown subcommand {other:?}\n{}", usage())),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            sim_obs::obs_error!("tracectl", "{msg}");
            ExitCode::FAILURE
        }
    }
}
