//! Streaming importers: transcode external trace formats into `.atrc`.
//!
//! The paper's evaluation replays real benchmark address streams; everything upstream of
//! this module only replays traces this workspace generated itself. `import` opens that
//! frontier: foreign trace files are transcoded record-by-record into `.atrc` (v3, like
//! every capture), after which they inspect, verify, corpus-join, and sweep exactly like
//! native captures — `experiments::runner` consumes them unchanged.
//!
//! Two input formats are supported (byte-level specs in `docs/atrc-format.md`):
//!
//! * [`ImportFormat::ChampSim`] — a ChampSim-style fixed 64-byte binary instruction
//!   record (`ip`, branch flags, register slots, 2 destination + 4 source memory
//!   operand slots). One file holds one core's stream; pass one file per core.
//!   Instructions without memory operands accumulate into the next access's
//!   `non_mem_instrs`; each populated memory slot becomes one [`MemAccess`] (source
//!   slots are reads, destination slots are writes, slot order preserved).
//! * [`ImportFormat::Csv`] — a documented line-oriented text format,
//!   `core,addr,pc,rw,non_mem` per record, for everything that is not ChampSim: any
//!   tool that can print five columns can produce `.atrc` corpora.
//!
//! Both importers stream: records flow straight into a [`TraceWriter`] (which itself
//! streams chunks to disk), so imports of files larger than RAM work. [`ImportStats`]
//! reports progress totals; [`import_into_corpus`] additionally registers the result in
//! a `corpus.manifest` so imported mixes can join a policy sweep.

use std::fs::File;
use std::io::{BufRead, BufReader, Read};
use std::path::{Path, PathBuf};

use cache_sim::trace::MemAccess;
use workloads::{benchmark_by_name, corpus_file_name, StudyKind};

use crate::corpus::{parse_manifest, write_manifest, CorpusEntry, CorpusMeta, MANIFEST_FILE};
use crate::error::TraceError;
use crate::header::MAX_LABEL_BYTES;
use crate::writer::{TraceCaptureOptions, TraceSummary, TraceWriter};

/// An import logs a progress line every this many records transcoded, counted over every
/// core (imports can be long). The unit tests report every 100 records, so that a small
/// import shows what the reports count.
const PROGRESS_EVERY_RECORDS: u64 = if cfg!(test) { 100 } else { 1_000_000 };

/// Size of one ChampSim-style binary instruction record.
pub const CHAMPSIM_RECORD_BYTES: usize = 64;
/// Destination (written) memory-operand slots per ChampSim record.
pub const CHAMPSIM_DESTINATION_SLOTS: usize = 2;
/// Source (read) memory-operand slots per ChampSim record.
pub const CHAMPSIM_SOURCE_SLOTS: usize = 4;

/// External formats [`import_to_file`] understands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ImportFormat {
    /// ChampSim-style fixed 64-byte binary instruction records, one file per core.
    ChampSim,
    /// `core,addr,pc,rw,non_mem` text records, one file per mix (core column inside).
    Csv,
}

impl ImportFormat {
    /// Parse a CLI name (`champsim` | `csv`).
    pub fn from_name(name: &str) -> Option<ImportFormat> {
        match name.to_ascii_lowercase().as_str() {
            "champsim" => Some(ImportFormat::ChampSim),
            "csv" => Some(ImportFormat::Csv),
            _ => None,
        }
    }
}

/// One ChampSim-style instruction: the fixed 64-byte record layout, little-endian.
///
/// ```text
/// ip                   8 B   instruction pointer
/// is_branch            1 B
/// branch_taken         1 B
/// destination_regs     2 × 1 B
/// source_regs          4 × 1 B
/// destination_memory   2 × 8 B   written addresses; 0 = slot unused
/// source_memory        4 × 8 B   read addresses;    0 = slot unused
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ChampSimInstr {
    /// Instruction pointer (becomes [`MemAccess::pc`] of the record's accesses).
    pub ip: u64,
    /// Non-zero when the instruction is a branch (carried through, not consumed).
    pub is_branch: u8,
    /// Non-zero when the branch was taken (carried through, not consumed).
    pub branch_taken: u8,
    /// Destination register ids (carried through, not consumed).
    pub destination_registers: [u8; CHAMPSIM_DESTINATION_SLOTS],
    /// Source register ids (carried through, not consumed).
    pub source_registers: [u8; CHAMPSIM_SOURCE_SLOTS],
    /// Written memory addresses; 0 marks an unused slot.
    pub destination_memory: [u64; CHAMPSIM_DESTINATION_SLOTS],
    /// Read memory addresses; 0 marks an unused slot.
    pub source_memory: [u64; CHAMPSIM_SOURCE_SLOTS],
}

impl ChampSimInstr {
    /// Serialize to the on-disk 64-byte layout.
    pub fn to_bytes(&self) -> [u8; CHAMPSIM_RECORD_BYTES] {
        let mut out = [0u8; CHAMPSIM_RECORD_BYTES];
        out[0..8].copy_from_slice(&self.ip.to_le_bytes());
        out[8] = self.is_branch;
        out[9] = self.branch_taken;
        out[10..12].copy_from_slice(&self.destination_registers);
        out[12..16].copy_from_slice(&self.source_registers);
        for (i, a) in self.destination_memory.iter().enumerate() {
            out[16 + i * 8..24 + i * 8].copy_from_slice(&a.to_le_bytes());
        }
        for (i, a) in self.source_memory.iter().enumerate() {
            out[32 + i * 8..40 + i * 8].copy_from_slice(&a.to_le_bytes());
        }
        out
    }

    /// Parse one on-disk 64-byte record.
    pub fn from_bytes(bytes: &[u8; CHAMPSIM_RECORD_BYTES]) -> ChampSimInstr {
        let u64_at = |o: usize| {
            u64::from_le_bytes([
                bytes[o],
                bytes[o + 1],
                bytes[o + 2],
                bytes[o + 3],
                bytes[o + 4],
                bytes[o + 5],
                bytes[o + 6],
                bytes[o + 7],
            ])
        };
        ChampSimInstr {
            ip: u64_at(0),
            is_branch: bytes[8],
            branch_taken: bytes[9],
            destination_registers: [bytes[10], bytes[11]],
            source_registers: [bytes[12], bytes[13], bytes[14], bytes[15]],
            destination_memory: [u64_at(16), u64_at(24)],
            source_memory: [u64_at(32), u64_at(40), u64_at(48), u64_at(56)],
        }
    }

    /// The instruction's memory accesses, in operand order: source (read) slots then
    /// destination (write) slots; zero slots are skipped.
    pub fn accesses(&self) -> impl Iterator<Item = (u64, bool)> + '_ {
        self.source_memory
            .iter()
            .filter(|&&a| a != 0)
            .map(|&a| (a, false))
            .chain(
                self.destination_memory
                    .iter()
                    .filter(|&&a| a != 0)
                    .map(|&a| (a, true)),
            )
    }
}

/// Knobs for an import.
#[derive(Debug, Clone, Default)]
pub struct ImportOptions {
    /// Block size and recorded LLC geometry of the produced `.atrc` file.
    pub capture: TraceCaptureOptions,
    /// Whole-file label (default: `import:<format>` plus the input names).
    pub label: Option<String>,
    /// Per-core labels. Required (as Table 4 benchmark names) for corpus imports so
    /// alone-run normalization has a generator to run; defaults to the input file stem
    /// (ChampSim) or `coreN` (CSV) otherwise.
    pub core_labels: Vec<String>,
    /// Stop each core's stream after this many records (caps transcoding cost on
    /// arbitrarily large inputs).
    pub limit: Option<u64>,
}

/// Per-core outcome of an import.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoreImportStats {
    /// Core label recorded in the `.atrc` directory.
    pub label: String,
    /// Records (memory accesses) transcoded onto this core.
    pub records: u64,
    /// Instructions those records account for (`Σ 1 + non_mem_instrs`).
    pub instructions: u64,
}

/// What an import consumed and produced.
#[derive(Debug, Clone)]
pub struct ImportStats {
    /// Bytes read across every input file.
    pub input_bytes: u64,
    /// CSV lines skipped as comments, blanks, or the header line (0 for binary input).
    pub skipped_lines: u64,
    /// Per-core transcoding totals, in core order.
    pub per_core: Vec<CoreImportStats>,
    /// The finished `.atrc` file's capture summary (path, size, record totals).
    pub summary: TraceSummary,
}

impl ImportStats {
    /// Total records transcoded.
    pub fn records(&self) -> u64 {
        self.per_core.iter().map(|c| c.records).sum()
    }

    /// Total instructions represented.
    pub fn instructions(&self) -> u64 {
        self.per_core.iter().map(|c| c.instructions).sum()
    }
}

/// Track pending non-memory instructions and totals while feeding one core.
struct CoreFeed {
    pending_non_mem: u32,
    records: u64,
    instructions: u64,
}

impl CoreFeed {
    fn new() -> CoreFeed {
        CoreFeed {
            pending_non_mem: 0,
            records: 0,
            instructions: 0,
        }
    }

    fn non_mem_instruction(&mut self) {
        self.pending_non_mem = self.pending_non_mem.saturating_add(1);
    }
}

/// An import in flight: the writer, each core's feed, and the records transcoded so far
/// over every core, which the progress line reports.
struct Transcoder {
    writer: TraceWriter,
    feeds: Vec<CoreFeed>,
    records: u64,
}

impl Transcoder {
    /// Append one access to `core`'s stream, carrying the core's pending non-memory
    /// instructions, and count it toward the core's totals and the import's progress.
    fn push(&mut self, core: usize, addr: u64, pc: u64, is_write: bool) -> Result<(), TraceError> {
        let feed = &mut self.feeds[core];
        let access = MemAccess {
            addr,
            pc,
            is_write,
            non_mem_instrs: feed.pending_non_mem,
        };
        feed.pending_non_mem = 0;
        feed.records += 1;
        feed.instructions += access.instructions();
        self.writer.push(core, access).map_err(TraceError::Io)?;
        self.records += 1;
        if self.records.is_multiple_of(PROGRESS_EVERY_RECORDS) {
            sim_obs::obs_info!("import", "{} records transcoded...", self.records);
            #[cfg(test)]
            tests::PROGRESS.with_borrow_mut(|reported| reported.push(self.records));
        }
        Ok(())
    }
}

/// Transcode `inputs` into one `.atrc` file at `out`.
///
/// ChampSim input takes one file per core (in core order); CSV takes exactly one file
/// whose `core` column fans records out. The output is finished atomically — an import
/// error leaves no valid trace behind (the file has no footer).
pub fn import_to_file(
    inputs: &[PathBuf],
    format: ImportFormat,
    out: &Path,
    opts: &ImportOptions,
) -> Result<ImportStats, TraceError> {
    if inputs.is_empty() {
        return Err(TraceError::Corrupt(
            "import needs at least one input".into(),
        ));
    }
    let (num_cores, default_labels): (usize, Vec<String>) = match format {
        ImportFormat::ChampSim => (
            inputs.len(),
            inputs.iter().map(|p| file_stem_label(p)).collect(),
        ),
        ImportFormat::Csv => {
            if inputs.len() != 1 {
                return Err(TraceError::Corrupt(format!(
                    "CSV import takes exactly one input file (its core column selects \
                     the stream), got {}",
                    inputs.len()
                )));
            }
            let cores = if opts.core_labels.is_empty() {
                csv_core_count(&inputs[0])?
            } else {
                opts.core_labels.len()
            };
            (cores, (0..cores).map(|i| format!("core{i}")).collect())
        }
    };
    let labels = if opts.core_labels.is_empty() {
        default_labels
    } else {
        if opts.core_labels.len() != num_cores {
            return Err(TraceError::Corrupt(format!(
                "{} core labels supplied for {num_cores} cores",
                opts.core_labels.len()
            )));
        }
        opts.core_labels.clone()
    };
    let label = opts.label.clone().unwrap_or_else(|| {
        let names: Vec<String> = inputs.iter().map(|p| file_stem_label(p)).collect();
        let mut l = format!(
            "import:{}:{}",
            match format {
                ImportFormat::ChampSim => "champsim",
                ImportFormat::Csv => "csv",
            },
            names.join("+")
        );
        l.truncate(MAX_LABEL_BYTES);
        l
    });

    let mut writer =
        TraceWriter::with_options(out, num_cores, &label, opts.capture).map_err(TraceError::Io)?;
    for (core, core_label) in labels.iter().enumerate() {
        writer
            .begin_core(core, core_label)
            .map_err(TraceError::Io)?;
    }

    let mut input_bytes = 0u64;
    let mut skipped_lines = 0u64;
    let mut transcoder = Transcoder {
        writer,
        feeds: (0..num_cores).map(|_| CoreFeed::new()).collect(),
        records: 0,
    };
    match format {
        ImportFormat::ChampSim => {
            for (core, path) in inputs.iter().enumerate() {
                input_bytes += import_champsim_core(path, core, &mut transcoder, opts)?;
            }
        }
        ImportFormat::Csv => {
            let (bytes, skipped) = import_csv(&inputs[0], &mut transcoder, opts)?;
            input_bytes = bytes;
            skipped_lines = skipped;
        }
    }
    let Transcoder { writer, feeds, .. } = transcoder;
    for (core, feed) in feeds.iter().enumerate() {
        if feed.records == 0 {
            return Err(TraceError::Corrupt(format!(
                "input produced no records for core {core} ({}): empty streams cannot \
                 replay",
                labels[core]
            )));
        }
    }
    let summary = writer.finish().map_err(TraceError::Io)?;
    Ok(ImportStats {
        input_bytes,
        skipped_lines,
        per_core: labels
            .into_iter()
            .zip(&feeds)
            .map(|(label, feed)| CoreImportStats {
                label,
                records: feed.records,
                instructions: feed.instructions,
            })
            .collect(),
        summary,
    })
}

fn file_stem_label(path: &Path) -> String {
    let mut label = path
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| "import".to_string());
    label.truncate(MAX_LABEL_BYTES);
    label
}

/// Stream one ChampSim-style binary file onto `core`. Returns bytes consumed.
fn import_champsim_core(
    path: &Path,
    core: usize,
    out: &mut Transcoder,
    opts: &ImportOptions,
) -> Result<u64, TraceError> {
    let file = File::open(path).map_err(TraceError::Io)?;
    let mut reader = BufReader::new(file);
    let mut buf = [0u8; CHAMPSIM_RECORD_BYTES];
    let mut bytes = 0u64;
    let capped = |out: &Transcoder| {
        opts.limit
            .is_some_and(|limit| out.feeds[core].records >= limit)
    };
    loop {
        if capped(out) {
            return Ok(bytes);
        }
        match reader.read_exact(&mut buf) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => {
                // Distinguish clean EOF from a torn record: read_exact may have
                // consumed a partial tail, so probe for leftover bytes.
                let mut probe = [0u8; 1];
                return match reader.read(&mut probe) {
                    Ok(0) => {
                        let total = std::fs::metadata(path).map_err(TraceError::Io)?.len();
                        if total % CHAMPSIM_RECORD_BYTES as u64 != 0 {
                            Err(TraceError::Corrupt(format!(
                                "{}: {total} bytes is not a whole number of {}-byte \
                                 ChampSim records",
                                path.display(),
                                CHAMPSIM_RECORD_BYTES
                            )))
                        } else {
                            Ok(bytes)
                        }
                    }
                    _ => Err(TraceError::Truncated("ChampSim record")),
                };
            }
            Err(e) => return Err(TraceError::Io(e)),
        }
        bytes += CHAMPSIM_RECORD_BYTES as u64;
        let instr = ChampSimInstr::from_bytes(&buf);
        let mut had_access = false;
        for (addr, is_write) in instr.accesses() {
            if capped(out) {
                break;
            }
            // Only the instruction's first access carries the pending non-mem count;
            // later operands of the same instruction represent zero extra instructions.
            if had_access {
                out.feeds[core].pending_non_mem = 0;
            }
            out.push(core, addr, instr.ip, is_write)?;
            had_access = true;
        }
        if !had_access {
            out.feeds[core].non_mem_instruction();
        }
    }
}

/// Number of distinct cores a CSV file addresses (max core id + 1), found by a cheap
/// pre-scan. Core counts must be known before the `.atrc` preamble can be written.
fn csv_core_count(path: &Path) -> Result<usize, TraceError> {
    let file = File::open(path).map_err(TraceError::Io)?;
    let mut max_core: Option<usize> = None;
    for (idx, line) in BufReader::new(file).lines().enumerate() {
        let line = line.map_err(TraceError::Io)?;
        if let Some(record) = parse_csv_line(&line, idx + 1)? {
            let m = max_core.get_or_insert(record.core);
            *m = (*m).max(record.core);
        }
    }
    let max_core =
        max_core.ok_or_else(|| TraceError::Corrupt(format!("{}: no records", path.display())))?;
    Ok(max_core + 1)
}

struct CsvRecord {
    core: usize,
    addr: u64,
    pc: u64,
    is_write: bool,
    non_mem: u32,
}

/// Parse one CSV line; `Ok(None)` for blanks, `#` comments, and the optional
/// `core,addr,pc,rw,non_mem` header line.
fn parse_csv_line(line: &str, line_no: usize) -> Result<Option<CsvRecord>, TraceError> {
    let trimmed = line.trim();
    if trimmed.is_empty() || trimmed.starts_with('#') {
        return Ok(None);
    }
    let fields: Vec<&str> = trimmed.split(',').map(str::trim).collect();
    if fields.len() != 5 {
        return Err(TraceError::Corrupt(format!(
            "CSV line {line_no}: expected 5 fields (core,addr,pc,rw,non_mem), got {}",
            fields.len()
        )));
    }
    if fields[0].eq_ignore_ascii_case("core") {
        return Ok(None); // header line
    }
    let bad = |what: &str, v: &str| {
        TraceError::Corrupt(format!("CSV line {line_no}: bad {what} value {v:?}"))
    };
    let core = fields[0]
        .parse::<usize>()
        .map_err(|_| bad("core", fields[0]))?;
    let addr = parse_u64_field(fields[1]).ok_or_else(|| bad("addr", fields[1]))?;
    let pc = parse_u64_field(fields[2]).ok_or_else(|| bad("pc", fields[2]))?;
    let is_write = match fields[3] {
        "R" | "r" | "0" => false,
        "W" | "w" | "1" => true,
        other => return Err(bad("rw", other)),
    };
    let non_mem = fields[4]
        .parse::<u32>()
        .map_err(|_| bad("non_mem", fields[4]))?;
    Ok(Some(CsvRecord {
        core,
        addr,
        pc,
        is_write,
        non_mem,
    }))
}

/// Decimal or `0x`-prefixed hex.
fn parse_u64_field(s: &str) -> Option<u64> {
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        s.parse::<u64>().ok()
    }
}

/// Stream one CSV file into the writer. Returns (bytes consumed, lines skipped).
fn import_csv(
    path: &Path,
    out: &mut Transcoder,
    opts: &ImportOptions,
) -> Result<(u64, u64), TraceError> {
    let file = File::open(path).map_err(TraceError::Io)?;
    let mut bytes = 0u64;
    let mut skipped = 0u64;
    for (idx, line) in BufReader::new(file).lines().enumerate() {
        let line = line.map_err(TraceError::Io)?;
        bytes += line.len() as u64 + 1;
        let Some(record) = parse_csv_line(&line, idx + 1)? else {
            skipped += 1;
            continue;
        };
        let num_feeds = out.feeds.len();
        let feed = out.feeds.get_mut(record.core).ok_or_else(|| {
            TraceError::Corrupt(format!(
                "CSV line {}: core {} out of range for {num_feeds} streams",
                idx + 1,
                record.core,
            ))
        })?;
        if opts.limit.is_some_and(|limit| feed.records >= limit) {
            continue;
        }
        feed.pending_non_mem = record.non_mem;
        out.push(record.core, record.addr, record.pc, record.is_write)?;
    }
    Ok((bytes, skipped))
}

/// Serialize `records` as a ChampSim-style binary stream — the exact inverse of the
/// ChampSim importer, used to synthesize external-format fixtures from the in-process
/// generators (each access becomes `non_mem_instrs` empty instructions followed by one
/// memory instruction at its `pc`).
///
/// Fails on zero addresses: the layout uses 0 to mark an unused operand slot, so a zero
/// address is unrepresentable.
pub fn export_champsim(records: &[MemAccess]) -> Result<Vec<u8>, TraceError> {
    let mut out = Vec::with_capacity(records.len() * CHAMPSIM_RECORD_BYTES);
    for r in records {
        if r.addr == 0 {
            return Err(TraceError::Corrupt(
                "address 0 is unrepresentable in the ChampSim layout (0 marks an \
                 unused operand slot)"
                    .into(),
            ));
        }
        for _ in 0..r.non_mem_instrs {
            out.extend_from_slice(
                &ChampSimInstr {
                    ip: r.pc,
                    ..Default::default()
                }
                .to_bytes(),
            );
        }
        let mut instr = ChampSimInstr {
            ip: r.pc,
            ..Default::default()
        };
        if r.is_write {
            instr.destination_memory[0] = r.addr;
        } else {
            instr.source_memory[0] = r.addr;
        }
        out.extend_from_slice(&instr.to_bytes());
    }
    Ok(out)
}

/// Outcome of [`import_into_corpus`].
#[derive(Debug, Clone)]
pub struct CorpusImportOutcome {
    /// The imported trace file inside the corpus directory.
    pub path: PathBuf,
    /// The manifest entry's mix id.
    pub mix_id: usize,
    /// Transcoding totals.
    pub stats: ImportStats,
}

/// Import external traces directly into a corpus directory as mix `mix_id`
/// (`mix{id:04}.atrc`) and create or update `corpus.manifest` so the result sweeps via
/// `repro sweep --dir` unchanged.
///
/// Sweepability is validated up front rather than at sweep time:
///
/// * `opts.core_labels` must name Table 4 benchmarks (one per core) — alone-run
///   normalization replays those generators, so an unknown label cannot be normalized;
/// * the core count must match one of the paper's studies;
/// * the capture's `llc_sets` must agree with any existing manifest (and with the
///   sweeps the corpus is destined for).
///
/// `seed` is recorded in a freshly created manifest (it seeds the alone-run
/// generators); an existing manifest keeps its seed.
pub fn import_into_corpus(
    dir: &Path,
    mix_id: usize,
    inputs: &[PathBuf],
    format: ImportFormat,
    opts: &ImportOptions,
    seed: u64,
) -> Result<CorpusImportOutcome, TraceError> {
    if opts.core_labels.is_empty() {
        return Err(TraceError::Manifest(
            "corpus imports need per-core benchmark labels (Table 4 names) so sweeps \
             can normalize against alone runs; pass core_labels / --benchmarks"
                .into(),
        ));
    }
    for label in &opts.core_labels {
        if benchmark_by_name(label).is_none() {
            return Err(TraceError::Manifest(format!(
                "core label {label:?} is not a Table 4 benchmark; sweeps could not \
                 normalize this mix"
            )));
        }
    }
    StudyKind::by_cores(opts.core_labels.len()).map_err(|e| {
        TraceError::Manifest(format!("{e}; the sweep engine could not consume this mix"))
    })?;
    std::fs::create_dir_all(dir).map_err(TraceError::Io)?;

    // Everything about the existing corpus is validated BEFORE any file is touched —
    // an import that is going to be rejected must not destroy a previously valid mix.
    let manifest_path = dir.join(MANIFEST_FILE);
    let (mut meta, mut entries) = if manifest_path.exists() {
        let text = std::fs::read_to_string(&manifest_path).map_err(TraceError::Io)?;
        let (meta, entries) = parse_manifest(&text)?;
        if meta.llc_sets != opts.capture.llc_sets {
            return Err(TraceError::Manifest(format!(
                "import would be captured for {} LLC sets but the corpus manifest says \
                 {}; pass a matching --llc-sets",
                opts.capture.llc_sets, meta.llc_sets
            )));
        }
        (meta, entries)
    } else {
        (
            CorpusMeta {
                label: opts
                    .label
                    .clone()
                    .unwrap_or_else(|| "imported corpus".to_string()),
                llc_sets: opts.capture.llc_sets,
                seed,
                accesses_per_core: 0,
            },
            Vec::new(),
        )
    };

    // Transcode into a temp name and rename only on success, so a mid-import failure
    // (torn input, malformed CSV line) can never replace a manifest-listed mix with a
    // truncated file — Corpus::load would reject the whole directory otherwise.
    let file_name = corpus_file_name(mix_id);
    let path = dir.join(&file_name);
    let tmp_path = dir.join(format!(".{file_name}.tmp"));
    let mut stats = match import_to_file(inputs, format, &tmp_path, opts) {
        Ok(stats) => stats,
        Err(e) => {
            std::fs::remove_file(&tmp_path).ok();
            return Err(e);
        }
    };
    std::fs::rename(&tmp_path, &path).map_err(TraceError::Io)?;
    stats.summary.path = path.clone();

    let max_core_records = stats.per_core.iter().map(|c| c.records).max().unwrap_or(0);
    meta.accesses_per_core = meta.accesses_per_core.max(max_core_records);
    let entry = CorpusEntry {
        mix_id,
        file: file_name,
        benchmarks: opts.core_labels.clone(),
    };
    entries.retain(|e| e.mix_id != mix_id);
    entries.push(entry);
    entries.sort_by_key(|e| e.mix_id);
    write_manifest(dir, &meta, &entries)?;
    Ok(CorpusImportOutcome {
        path,
        mix_id,
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::Corpus;
    use crate::reader::{decode_all, read_header};

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("trace_io_import_{name}"));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample_records(n: u64, salt: u64) -> Vec<MemAccess> {
        (0..n)
            .map(|i| MemAccess {
                addr: 0x10_0000 + salt * 0x100 + i * 64,
                pc: 0x400 + (i % 7) * 4,
                is_write: i % 3 == 0,
                non_mem_instrs: (i % 5) as u32,
            })
            .collect()
    }

    #[test]
    fn champsim_record_roundtrips_through_bytes() {
        let instr = ChampSimInstr {
            ip: 0x401234,
            is_branch: 1,
            branch_taken: 0,
            destination_registers: [3, 0],
            source_registers: [1, 2, 0, 0],
            destination_memory: [0xdead_beef, 0],
            source_memory: [0x1000, 0x2000, 0, 0],
        };
        let bytes = instr.to_bytes();
        assert_eq!(ChampSimInstr::from_bytes(&bytes), instr);
        let ops: Vec<(u64, bool)> = instr.accesses().collect();
        assert_eq!(
            ops,
            vec![(0x1000, false), (0x2000, false), (0xdead_beef, true)]
        );
    }

    #[test]
    fn champsim_import_reproduces_the_exported_stream() {
        let dir = tmp_dir("champsim_roundtrip");
        let streams: Vec<Vec<MemAccess>> = (0..2).map(|c| sample_records(300, c)).collect();
        let inputs: Vec<PathBuf> = streams
            .iter()
            .enumerate()
            .map(|(c, records)| {
                let p = dir.join(format!("core{c}.champsim"));
                std::fs::write(&p, export_champsim(records).unwrap()).unwrap();
                p
            })
            .collect();
        let out = dir.join("imported.atrc");
        let stats = import_to_file(
            &inputs,
            ImportFormat::ChampSim,
            &out,
            &ImportOptions::default(),
        )
        .unwrap();
        assert_eq!(stats.records(), 600);
        assert_eq!(stats.per_core[0].label, "core0");
        assert_eq!(
            stats.instructions(),
            streams
                .iter()
                .flatten()
                .map(|r| r.instructions())
                .sum::<u64>()
        );
        let header = read_header(&out).unwrap();
        assert_eq!(header.version, 3);
        assert_eq!(decode_all(&out).unwrap(), streams);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn champsim_rejects_torn_records_and_empty_streams() {
        let dir = tmp_dir("champsim_torn");
        let good = export_champsim(&sample_records(10, 0)).unwrap();
        let torn = dir.join("torn.champsim");
        std::fs::write(&torn, &good[..good.len() - 13]).unwrap();
        let err = import_to_file(
            &[torn],
            ImportFormat::ChampSim,
            &dir.join("out.atrc"),
            &ImportOptions::default(),
        )
        .unwrap_err();
        assert!(matches!(err, TraceError::Corrupt(_)));

        // A file of only non-mem instructions yields an empty (unreplayable) stream.
        let empty = dir.join("empty.champsim");
        std::fs::write(&empty, ChampSimInstr::default().to_bytes()).unwrap();
        let err = import_to_file(
            &[empty],
            ImportFormat::ChampSim,
            &dir.join("out2.atrc"),
            &ImportOptions::default(),
        )
        .unwrap_err();
        assert!(matches!(err, TraceError::Corrupt(_)));
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn csv_import_parses_the_documented_format() {
        let dir = tmp_dir("csv");
        let csv = dir.join("trace.csv");
        std::fs::write(
            &csv,
            "# two cores, the documented example\n\
             core,addr,pc,rw,non_mem\n\
             0,0x1000,0x400,R,3\n\
             1,8192,0x500,W,0\n\
             0,0x1040,0x404,w,1\n\
             \n\
             1,0x3000,1280,r,2\n",
        )
        .unwrap();
        let out = dir.join("out.atrc");
        let stats =
            import_to_file(&[csv], ImportFormat::Csv, &out, &ImportOptions::default()).unwrap();
        assert_eq!(stats.records(), 4);
        assert_eq!(stats.skipped_lines, 3, "comment + header + blank");
        let streams = decode_all(&out).unwrap();
        assert_eq!(
            streams[0],
            vec![
                MemAccess {
                    addr: 0x1000,
                    pc: 0x400,
                    is_write: false,
                    non_mem_instrs: 3
                },
                MemAccess {
                    addr: 0x1040,
                    pc: 0x404,
                    is_write: true,
                    non_mem_instrs: 1
                },
            ]
        );
        assert_eq!(
            streams[1],
            vec![
                MemAccess {
                    addr: 8192,
                    pc: 0x500,
                    is_write: true,
                    non_mem_instrs: 0
                },
                MemAccess {
                    addr: 0x3000,
                    pc: 1280,
                    is_write: false,
                    non_mem_instrs: 2
                },
            ]
        );
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn csv_rejects_malformed_lines() {
        let dir = tmp_dir("csv_bad");
        for (name, text) in [
            ("fields", "0,0x1000,0x400,R\n"),
            ("rw", "0,0x1000,0x400,X,0\n"),
            ("addr", "0,zzz,0x400,R,0\n"),
            ("core", "banana,0x1000,0x400,R,0\n"),
        ] {
            let csv = dir.join(format!("{name}.csv"));
            std::fs::write(&csv, text).unwrap();
            let err = import_to_file(
                &[csv],
                ImportFormat::Csv,
                &dir.join("out.atrc"),
                &ImportOptions::default(),
            )
            .unwrap_err();
            assert!(matches!(err, TraceError::Corrupt(_)), "{name}: {err}");
        }
        std::fs::remove_dir_all(dir).ok();
    }

    thread_local! {
        /// The totals this thread's imports reported, in order.
        pub(super) static PROGRESS: std::cell::RefCell<Vec<u64>> = const {
            std::cell::RefCell::new(Vec::new())
        };
    }

    #[test]
    fn champsim_progress_counts_every_core_once() {
        // Two cores of 300 records each, reported every 100: one running total over both
        // cores, never restarting when the second core's file begins, ending at the
        // import's total.
        let dir = tmp_dir("champsim_progress");
        let inputs: Vec<PathBuf> = (0..2)
            .map(|c| {
                let p = dir.join(format!("core{c}.champsim"));
                std::fs::write(&p, export_champsim(&sample_records(300, c)).unwrap()).unwrap();
                p
            })
            .collect();
        PROGRESS.take();
        let out = dir.join("imported.atrc");
        let stats = import_to_file(
            &inputs,
            ImportFormat::ChampSim,
            &out,
            &ImportOptions::default(),
        )
        .unwrap();
        let reported = PROGRESS.take();
        assert!(reported.windows(2).all(|w| w[0] < w[1]), "{reported:?}");
        assert_eq!(reported, [100, 200, 300, 400, 500, 600]);
        assert_eq!(reported.last(), Some(&stats.records()));
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn import_limit_caps_each_core() {
        let dir = tmp_dir("limit");
        let input = dir.join("core0.champsim");
        std::fs::write(&input, export_champsim(&sample_records(500, 0)).unwrap()).unwrap();
        let out = dir.join("out.atrc");
        let opts = ImportOptions {
            limit: Some(100),
            ..Default::default()
        };
        let stats = import_to_file(&[input], ImportFormat::ChampSim, &out, &opts).unwrap();
        assert_eq!(stats.records(), 100);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn corpus_import_registers_a_sweepable_manifest() {
        let dir = tmp_dir("corpus");
        let benchmarks = ["gcc", "lbm", "mcf", "calc"];
        let mut inputs = Vec::new();
        for (c, _) in benchmarks.iter().enumerate() {
            let p = dir.join(format!("in{c}.champsim"));
            std::fs::write(&p, export_champsim(&sample_records(200, c as u64)).unwrap()).unwrap();
            inputs.push(p);
        }
        let corpus_dir = dir.join("corpus");
        let opts = ImportOptions {
            capture: TraceCaptureOptions {
                llc_sets: 64,
                ..Default::default()
            },
            core_labels: benchmarks.iter().map(|s| s.to_string()).collect(),
            ..Default::default()
        };
        let outcome =
            import_into_corpus(&corpus_dir, 0, &inputs, ImportFormat::ChampSim, &opts, 7).unwrap();
        assert_eq!(outcome.mix_id, 0);
        assert!(outcome.path.ends_with("mix0000.atrc"));

        // The written corpus loads and cross-checks like a native one.
        let corpus = Corpus::load(&corpus_dir).unwrap();
        assert_eq!(corpus.meta().llc_sets, 64);
        assert_eq!(corpus.meta().seed, 7);
        assert_eq!(corpus.entries().len(), 1);
        assert_eq!(corpus.entries()[0].benchmarks, benchmarks);
        assert!(corpus.validate_geometry(64).is_ok());

        // A second import appends; re-importing the same mix id replaces.
        import_into_corpus(&corpus_dir, 2, &inputs, ImportFormat::ChampSim, &opts, 7).unwrap();
        import_into_corpus(&corpus_dir, 0, &inputs, ImportFormat::ChampSim, &opts, 7).unwrap();
        let corpus = Corpus::load(&corpus_dir).unwrap();
        let ids: Vec<usize> = corpus.entries().iter().map(|e| e.mix_id).collect();
        assert_eq!(ids, vec![0, 2]);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn corpus_import_rejects_unsweepable_inputs() {
        let dir = tmp_dir("corpus_bad");
        let input = dir.join("in.champsim");
        std::fs::write(&input, export_champsim(&sample_records(50, 0)).unwrap()).unwrap();
        let inputs = vec![input];
        // No labels.
        let err = import_into_corpus(
            &dir.join("c1"),
            0,
            &inputs,
            ImportFormat::ChampSim,
            &ImportOptions::default(),
            1,
        )
        .unwrap_err();
        assert!(matches!(err, TraceError::Manifest(_)));
        // Unknown benchmark label.
        let opts = ImportOptions {
            core_labels: vec!["not-a-benchmark".into()],
            ..Default::default()
        };
        let err = import_into_corpus(
            &dir.join("c2"),
            0,
            &inputs,
            ImportFormat::ChampSim,
            &opts,
            1,
        )
        .unwrap_err();
        assert!(matches!(err, TraceError::Manifest(_)));
        // 1 core matches no study.
        let opts = ImportOptions {
            core_labels: vec!["gcc".into()],
            ..Default::default()
        };
        let err = import_into_corpus(
            &dir.join("c3"),
            0,
            &inputs,
            ImportFormat::ChampSim,
            &opts,
            1,
        )
        .unwrap_err();
        // The message lists every core count a study has, the many-core ones included.
        let TraceError::Manifest(message) = err else {
            panic!("{err:?}")
        };
        assert!(
            message.contains("1 cores") && message.contains("|128|256"),
            "{message}"
        );
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn failed_reimport_never_destroys_an_existing_corpus_mix() {
        let dir = tmp_dir("corpus_preserve");
        let benchmarks: Vec<String> = ["gcc", "lbm", "mcf", "calc"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let inputs: Vec<PathBuf> = (0..4)
            .map(|c| {
                let p = dir.join(format!("in{c}.champsim"));
                std::fs::write(&p, export_champsim(&sample_records(60, c)).unwrap()).unwrap();
                p
            })
            .collect();
        let corpus_dir = dir.join("corpus");
        let opts = |llc_sets: u32| ImportOptions {
            capture: TraceCaptureOptions {
                llc_sets,
                ..Default::default()
            },
            core_labels: benchmarks.clone(),
            ..Default::default()
        };
        import_into_corpus(
            &corpus_dir,
            0,
            &inputs,
            ImportFormat::ChampSim,
            &opts(64),
            7,
        )
        .unwrap();
        let original = std::fs::read(corpus_dir.join("mix0000.atrc")).unwrap();

        // Geometry mismatch must be rejected BEFORE the old mix file is touched.
        let err = import_into_corpus(
            &corpus_dir,
            0,
            &inputs,
            ImportFormat::ChampSim,
            &opts(128),
            7,
        )
        .unwrap_err();
        assert!(matches!(err, TraceError::Manifest(_)));
        assert_eq!(
            std::fs::read(corpus_dir.join("mix0000.atrc")).unwrap(),
            original,
            "a rejected import must leave the existing mix byte-identical"
        );

        // A mid-transcode failure (torn input) must not replace the mix either.
        let torn = dir.join("torn.champsim");
        let good = export_champsim(&sample_records(60, 0)).unwrap();
        std::fs::write(&torn, &good[..good.len() - 9]).unwrap();
        let torn_inputs = vec![
            torn,
            inputs[1].clone(),
            inputs[2].clone(),
            inputs[3].clone(),
        ];
        let err = import_into_corpus(
            &corpus_dir,
            0,
            &torn_inputs,
            ImportFormat::ChampSim,
            &opts(64),
            7,
        )
        .unwrap_err();
        assert!(matches!(err, TraceError::Corrupt(_)));
        assert_eq!(
            std::fs::read(corpus_dir.join("mix0000.atrc")).unwrap(),
            original,
            "a failed transcode must leave the existing mix byte-identical"
        );
        // The corpus as a whole still loads and no temp litter remains.
        Corpus::load(&corpus_dir).unwrap();
        assert!(!corpus_dir.join(".mix0000.atrc.tmp").exists());
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn export_rejects_zero_addresses() {
        let r = MemAccess {
            addr: 0,
            pc: 4,
            is_write: false,
            non_mem_instrs: 0,
        };
        assert!(matches!(export_champsim(&[r]), Err(TraceError::Corrupt(_))));
    }
}
