//! [`Corpus`]: a directory of `.atrc` files plus a manifest, the unit a policy sweep
//! consumes.
//!
//! The paper evaluates many policies over a *fixed* set of workload mixes; a corpus makes
//! that set durable: each mix is captured exactly once ([`Corpus::materialize`], a loop
//! over [`crate::capture_mix`]), and the manifest records the capture parameters
//! (LLC geometry, seed, accesses per core) so a sweep can refuse a corpus that was
//! captured for a different system. `experiments::runner::sweep_policies_on_corpus_with`
//! decodes each file once and fans the (policy × mix) grid out in parallel.
//!
//! # Manifest format (`corpus.manifest`)
//!
//! A deliberately simple line-oriented text file (the workspace has no serialization
//! framework, so the format is hand-rolled and versioned):
//!
//! ```text
//! atrc-corpus 1
//! label <free text to end of line>
//! llc_sets <u32>
//! seed <u64>
//! accesses_per_core <u64>
//! mix <id> <file-name> <benchmark,benchmark,...>
//! mix ...
//! ```
//!
//! One `mix` line per trace file, in sweep order. Benchmark names never contain commas or
//! whitespace (they are Table 4 identifiers), so the encoding is unambiguous.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use workloads::{corpus_file_name, WorkloadMix};

use crate::capture::capture_mix;
use crate::error::TraceError;
use crate::reader::read_header;
use crate::writer::{TraceCaptureOptions, TraceSummary};

/// Name of the manifest file inside a corpus directory.
pub const MANIFEST_FILE: &str = "corpus.manifest";
/// Version of the manifest text format.
pub const MANIFEST_VERSION: u32 = 1;

/// Capture parameters shared by every trace file of a corpus.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorpusMeta {
    /// Human-readable provenance (study, scale, ...).
    pub label: String,
    /// LLC set count the generators were parameterized with; sweeps must match it.
    pub llc_sets: u32,
    /// Seed the mixes and generators were drawn from.
    pub seed: u64,
    /// Accesses captured per core per mix.
    pub accesses_per_core: u64,
}

/// One captured mix inside a corpus.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorpusEntry {
    /// The mix's id (preserved into `MixEvaluation::mix_id` by sweeps).
    pub mix_id: usize,
    /// Trace file name, relative to the corpus directory.
    pub file: String,
    /// Benchmark names, one per core, in core order.
    pub benchmarks: Vec<String>,
}

/// A directory of `.atrc` trace files described by a [`CorpusMeta`] manifest.
#[derive(Debug, Clone)]
pub struct Corpus {
    dir: PathBuf,
    meta: CorpusMeta,
    entries: Vec<CorpusEntry>,
}

impl Corpus {
    /// Capture `mixes` into `dir` (one `.atrc` per mix named by
    /// [`corpus_file_name`], each mix captured exactly once) and write the manifest.
    /// Returns the corpus and, per mix, what its capture cost on disk.
    ///
    /// The directory is created if needed and existing files are overwritten. A previous
    /// manifest is removed *before* the first capture and the new one lands last, by
    /// rename: a re-materialization that dies half way leaves a directory
    /// [`load`](Corpus::load) refuses, never the old manifest's seed over new records.
    pub fn materialize(
        dir: impl AsRef<Path>,
        label: &str,
        mixes: &[WorkloadMix],
        llc_sets: usize,
        seed: u64,
        accesses_per_core: u64,
    ) -> Result<(Corpus, Vec<TraceSummary>), TraceError> {
        let dir = dir.as_ref().to_path_buf();
        if mixes.is_empty() {
            return Err(TraceError::Io(io::Error::new(
                io::ErrorKind::InvalidInput,
                "a corpus needs at least one mix",
            )));
        }
        fs::create_dir_all(&dir).map_err(TraceError::Io)?;
        match fs::remove_file(dir.join(MANIFEST_FILE)) {
            Err(e) if e.kind() != io::ErrorKind::NotFound => return Err(TraceError::Io(e)),
            _ => {}
        }
        let opts = TraceCaptureOptions::for_llc_sets(llc_sets);
        let meta = CorpusMeta {
            label: label.to_string(),
            llc_sets: opts.llc_sets,
            seed,
            accesses_per_core,
        };
        let mut entries = Vec::with_capacity(mixes.len());
        let mut summaries = Vec::with_capacity(mixes.len());
        for mix in mixes {
            let file = corpus_file_name(mix.id);
            let summary = capture_mix(&dir.join(&file), mix, seed, accesses_per_core, None, opts)
                .map_err(TraceError::Io)?;
            summaries.push(summary);
            entries.push(CorpusEntry {
                mix_id: mix.id,
                file,
                benchmarks: mix.benchmarks.clone(),
            });
        }
        write_manifest(&dir, &meta, &entries)?;
        Ok((Corpus { dir, meta, entries }, summaries))
    }

    /// Forwards to [`materialize`](Corpus::materialize), which writes v3 itself. Kept
    /// only because the CI-frozen `benchmark/` package calls this name; its next PR
    /// renames the call and deletes this (ROADMAP, benchmark item (d)).
    #[doc(hidden)]
    pub fn materialize_compressed(
        dir: impl AsRef<Path>,
        label: &str,
        mixes: &[WorkloadMix],
        llc_sets: usize,
        seed: u64,
        accesses_per_core: u64,
    ) -> Result<Corpus, TraceError> {
        Self::materialize(dir, label, mixes, llc_sets, seed, accesses_per_core).map(|(c, _)| c)
    }

    /// Open an existing corpus: parse the manifest and cross-check every trace file's
    /// header against it (existence, LLC geometry, per-core benchmark labels).
    pub fn load(dir: impl AsRef<Path>) -> Result<Corpus, TraceError> {
        let dir = dir.as_ref().to_path_buf();
        let manifest_path = dir.join(MANIFEST_FILE);
        let text = fs::read_to_string(&manifest_path).map_err(|e| {
            TraceError::Manifest(format!("reading {}: {e}", manifest_path.display()))
        })?;
        let (meta, entries) = parse_manifest(&text)?;
        let corpus = Corpus { dir, meta, entries };
        for entry in &corpus.entries {
            let path = corpus.path_for(entry);
            let header = read_header(&path)
                .map_err(|e| TraceError::Manifest(format!("trace file {}: {e}", path.display())))?;
            if header.llc_sets != corpus.meta.llc_sets {
                return Err(TraceError::Manifest(format!(
                    "{} was captured for {} LLC sets but the manifest says {}",
                    path.display(),
                    header.llc_sets,
                    corpus.meta.llc_sets
                )));
            }
            let labels: Vec<String> = header.cores.iter().map(|c| c.label.clone()).collect();
            if labels != entry.benchmarks {
                return Err(TraceError::Manifest(format!(
                    "{}'s core labels {labels:?} do not match the manifest's {:?}",
                    path.display(),
                    entry.benchmarks
                )));
            }
        }
        Ok(corpus)
    }

    /// The corpus directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Shared capture parameters.
    pub fn meta(&self) -> &CorpusMeta {
        &self.meta
    }

    /// Captured mixes, in sweep order.
    pub fn entries(&self) -> &[CorpusEntry] {
        &self.entries
    }

    /// Absolute path of an entry's trace file.
    pub fn path_for(&self, entry: &CorpusEntry) -> PathBuf {
        self.dir.join(&entry.file)
    }

    /// Reject a consumer whose LLC set count differs from the one the corpus was
    /// captured for — replaying such a corpus would quietly realize a different
    /// workload (the generators' footprints are sized per set).
    pub fn validate_geometry(&self, llc_sets: usize) -> Result<(), TraceError> {
        if self.meta.llc_sets as usize != llc_sets {
            return Err(TraceError::Manifest(format!(
                "corpus {} was captured for {} LLC sets but the system has {llc_sets}",
                self.dir.display(),
                self.meta.llc_sets
            )));
        }
        Ok(())
    }
}

/// Serialize a manifest (see the module docs for the format).
pub fn render_manifest(meta: &CorpusMeta, entries: &[CorpusEntry]) -> String {
    let mut out = String::new();
    out.push_str(&format!("atrc-corpus {MANIFEST_VERSION}\n"));
    out.push_str(&format!("label {}\n", meta.label));
    out.push_str(&format!("llc_sets {}\n", meta.llc_sets));
    out.push_str(&format!("seed {}\n", meta.seed));
    out.push_str(&format!("accesses_per_core {}\n", meta.accesses_per_core));
    for e in entries {
        out.push_str(&format!(
            "mix {} {} {}\n",
            e.mix_id,
            e.file,
            e.benchmarks.join(",")
        ));
    }
    out
}

/// Write `dir`'s manifest through a temp file and a rename, so a writer that dies mid-way
/// leaves the previous manifest (or none) — never a truncated one over valid trace files.
pub(crate) fn write_manifest(
    dir: &Path,
    meta: &CorpusMeta,
    entries: &[CorpusEntry],
) -> Result<(), TraceError> {
    let tmp = dir.join(format!(".{MANIFEST_FILE}.tmp"));
    fs::write(&tmp, render_manifest(meta, entries))
        .and_then(|()| fs::rename(&tmp, dir.join(MANIFEST_FILE)))
        .map_err(|e| {
            fs::remove_file(&tmp).ok();
            TraceError::Io(e)
        })
}

/// Parse a manifest produced by [`render_manifest`].
pub fn parse_manifest(text: &str) -> Result<(CorpusMeta, Vec<CorpusEntry>), TraceError> {
    let bad = |why: String| TraceError::Manifest(why);
    let mut lines = text.lines().enumerate();
    let (_, first) = lines
        .next()
        .ok_or_else(|| bad("empty manifest".to_string()))?;
    let version = first
        .strip_prefix("atrc-corpus ")
        .and_then(|v| v.trim().parse::<u32>().ok())
        .ok_or_else(|| bad(format!("bad signature line {first:?}")))?;
    if version == 0 || version > MANIFEST_VERSION {
        return Err(bad(format!("unsupported manifest version {version}")));
    }
    let mut label = None;
    let mut llc_sets = None;
    let mut seed = None;
    let mut accesses = None;
    let mut entries = Vec::new();
    for (n, line) in lines {
        let line_no = n + 1;
        if line.trim().is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("label") {
            label = Some(rest.trim_start().to_string());
        } else if let Some(rest) = line.strip_prefix("llc_sets ") {
            llc_sets = Some(parse_num::<u32>(rest, "llc_sets", line_no)?);
        } else if let Some(rest) = line.strip_prefix("seed ") {
            seed = Some(parse_num::<u64>(rest, "seed", line_no)?);
        } else if let Some(rest) = line.strip_prefix("accesses_per_core ") {
            accesses = Some(parse_num::<u64>(rest, "accesses_per_core", line_no)?);
        } else if let Some(rest) = line.strip_prefix("mix ") {
            let mut fields = rest.split_whitespace();
            let (Some(id), Some(file), Some(benches), None) =
                (fields.next(), fields.next(), fields.next(), fields.next())
            else {
                return Err(bad(format!(
                    "line {line_no}: mix lines need <id> <file> <benchmarks>"
                )));
            };
            let mix_id = parse_num::<usize>(id, "mix id", line_no)?;
            let benchmarks: Vec<String> = benches.split(',').map(str::to_string).collect();
            if benchmarks.iter().any(|b| b.is_empty()) {
                return Err(bad(format!("line {line_no}: empty benchmark name")));
            }
            entries.push(CorpusEntry {
                mix_id,
                file: file.to_string(),
                benchmarks,
            });
        } else {
            return Err(bad(format!("line {line_no}: unknown directive {line:?}")));
        }
    }
    let meta = CorpusMeta {
        label: label.ok_or_else(|| bad("missing label".to_string()))?,
        llc_sets: llc_sets.ok_or_else(|| bad("missing llc_sets".to_string()))?,
        seed: seed.ok_or_else(|| bad("missing seed".to_string()))?,
        accesses_per_core: accesses.ok_or_else(|| bad("missing accesses_per_core".to_string()))?,
    };
    if entries.is_empty() {
        return Err(bad("manifest lists no mixes".to_string()));
    }
    Ok((meta, entries))
}

fn parse_num<T: std::str::FromStr>(s: &str, what: &str, line_no: usize) -> Result<T, TraceError> {
    s.trim()
        .parse::<T>()
        .map_err(|_| TraceError::Manifest(format!("line {line_no}: bad {what} value {s:?}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::{generate_mixes, StudyKind};

    fn sample_meta() -> CorpusMeta {
        CorpusMeta {
            label: "smoke 4-core corpus".to_string(),
            llc_sets: 64,
            seed: 9,
            accesses_per_core: 512,
        }
    }

    #[test]
    fn manifest_roundtrips() {
        let meta = sample_meta();
        let entries = vec![
            CorpusEntry {
                mix_id: 0,
                file: "mix0000.atrc".into(),
                benchmarks: vec!["gcc".into(), "lbm".into()],
            },
            CorpusEntry {
                mix_id: 3,
                file: "mix0003.atrc".into(),
                benchmarks: vec!["mcf".into()],
            },
        ];
        let text = render_manifest(&meta, &entries);
        let (meta2, entries2) = parse_manifest(&text).unwrap();
        assert_eq!(meta2, meta);
        assert_eq!(entries2, entries);
    }

    #[test]
    fn manifest_rejects_garbage_and_missing_fields() {
        assert!(matches!(
            parse_manifest("not a manifest"),
            Err(TraceError::Manifest(_))
        ));
        assert!(matches!(
            parse_manifest("atrc-corpus 99\nlabel x\n"),
            Err(TraceError::Manifest(_))
        ));
        // Missing accesses_per_core.
        let text = "atrc-corpus 1\nlabel x\nllc_sets 64\nseed 1\nmix 0 a.atrc gcc\n";
        assert!(matches!(parse_manifest(text), Err(TraceError::Manifest(_))));
        // No mixes.
        let text = "atrc-corpus 1\nlabel x\nllc_sets 64\nseed 1\naccesses_per_core 10\n";
        assert!(matches!(parse_manifest(text), Err(TraceError::Manifest(_))));
        // Malformed mix line.
        let text =
            "atrc-corpus 1\nlabel x\nllc_sets 64\nseed 1\naccesses_per_core 10\nmix 0 a.atrc\n";
        assert!(matches!(parse_manifest(text), Err(TraceError::Manifest(_))));
    }

    #[test]
    fn materialize_then_load_roundtrips_and_validates() {
        let dir = std::env::temp_dir().join("trace_io_corpus_roundtrip");
        std::fs::remove_dir_all(&dir).ok();
        let mixes = generate_mixes(StudyKind::Cores4, 2, 9);
        let (corpus, summaries) =
            Corpus::materialize(&dir, "test corpus", &mixes, 64, 9, 300).unwrap();
        assert_eq!(corpus.entries().len(), 2);
        for (entry, summary) in corpus.entries().iter().zip(&summaries) {
            assert_eq!(summary.path, corpus.path_for(entry));
            assert_eq!(summary.total_records, 4 * 300);
        }
        assert!(
            Corpus::materialize(&dir, "empty", &[], 64, 9, 300).is_err(),
            "an empty corpus is rejected"
        );

        let loaded = Corpus::load(&dir).unwrap();
        assert_eq!(loaded.meta(), corpus.meta());
        assert_eq!(loaded.entries(), corpus.entries());
        for (entry, mix) in loaded.entries().iter().zip(&mixes) {
            assert_eq!(entry.mix_id, mix.id);
            assert_eq!(entry.benchmarks, mix.benchmarks);
            assert!(loaded.path_for(entry).exists());
        }

        assert!(loaded.validate_geometry(64).is_ok());
        assert!(matches!(
            loaded.validate_geometry(128),
            Err(TraceError::Manifest(_))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_rejects_a_manifest_inconsistent_with_its_files() {
        let dir = std::env::temp_dir().join("trace_io_corpus_inconsistent");
        std::fs::remove_dir_all(&dir).ok();
        let mixes = generate_mixes(StudyKind::Cores4, 1, 3);
        let (corpus, _) = Corpus::materialize(&dir, "c", &mixes, 64, 3, 200).unwrap();

        // Claimed geometry differs from what the trace headers record.
        let mut meta = corpus.meta().clone();
        meta.llc_sets = 4096;
        std::fs::write(
            dir.join(MANIFEST_FILE),
            render_manifest(&meta, corpus.entries()),
        )
        .unwrap();
        assert!(matches!(Corpus::load(&dir), Err(TraceError::Manifest(_))));

        // Benchmarks out of order vs. the file's core labels.
        let mut entries = corpus.entries().to_vec();
        entries[0].benchmarks.reverse();
        std::fs::write(
            dir.join(MANIFEST_FILE),
            render_manifest(corpus.meta(), &entries),
        )
        .unwrap();
        assert!(matches!(Corpus::load(&dir), Err(TraceError::Manifest(_))));

        // Missing trace file.
        std::fs::write(
            dir.join(MANIFEST_FILE),
            render_manifest(corpus.meta(), corpus.entries()),
        )
        .unwrap();
        std::fs::remove_file(corpus.path_for(&corpus.entries()[0])).unwrap();
        assert!(matches!(Corpus::load(&dir), Err(TraceError::Manifest(_))));
        std::fs::remove_dir_all(&dir).ok();
    }
}
