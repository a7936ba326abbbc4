//! Content-addressed result memoization and its on-disk persistence.
//!
//! # The memoization key
//!
//! A served result cell is fully determined by
//! `(corpus hash, policy, geometry, instructions, seed, mix)` — see
//! `docs/serving.md` § "Memoization key" for the normative spec:
//!
//! * **corpus hash** — FNV-1a 64 over the manifest bytes and every trace file's bytes
//!   in manifest order ([`crate::registry::corpus_hash`]). Editing any byte of the
//!   corpus changes the hash and therefore misses every old key; nothing else is
//!   invalidated.
//! * **policy** — the `PolicyKind` label (`experiments::PolicyKind::parse` round-trips
//!   it).
//! * **geometry** — LLC set count and core count the serving config derived from the
//!   corpus study and scale; two daemons at different scales never share cells.
//! * **instructions / seed** — run length per core and the corpus manifest seed the
//!   alone-run normalization uses.
//!
//! A hit returns the exact bytes the cold run produced ([`crate::json::evaluation_json`]
//! is canonical), so memoized and fresh responses are indistinguishable — the
//! memoization test wall compares them with `==`.
//!
//! # Progress files (`sweep.progress`)
//!
//! Every computed cell is appended to a line-oriented progress file next to the
//! corpus's `corpus.manifest`, making sweeps incremental and restart-safe: a daemon
//! that is killed mid-sweep reloads the file at startup, seeds its memo store with the
//! finished cells, and the re-issued sweep completes from where it stopped with
//! bit-identical results. The header pins the corpus hash and geometry; a file whose
//! header no longer matches (the corpus was edited, or the daemon's scale changed) is
//! discarded wholesale — exactly the affected keys and nothing else. Torn trailing
//! lines (a kill mid-append) are skipped, not fatal.

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Version tag of the progress-file format (bump when [`crate::json::evaluation_json`]
/// or the line layout changes — old files are then discarded, never misread).
pub const PROGRESS_VERSION: u32 = 2;

/// File name of the persisted sweep progress, next to `corpus.manifest`.
pub const PROGRESS_FILE: &str = "sweep.progress";

/// The content address of one result cell; see the module docs for field semantics.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct MemoKey {
    /// FNV-1a 64 hash of the corpus (manifest + trace file bytes).
    pub corpus_hash: u64,
    /// Policy label (`PolicyKind::label()`).
    pub policy: String,
    /// LLC set count of the serving configuration.
    pub llc_sets: u32,
    /// Cores per mix (the study width).
    pub cores: u32,
    /// Instructions simulated per core.
    pub instructions: u64,
    /// Corpus manifest seed (alone-run normalization input).
    pub seed: u64,
    /// Mix id within the corpus.
    pub mix_id: usize,
}

/// In-memory memo store: key → canonical result JSON, plus hit/miss counters.
///
/// Counters are only bumped by [`MemoStore::lookup`] — the request-path probe — so
/// `/stats` reflects exactly what clients observed; internal re-checks use
/// [`MemoStore::peek`].
#[derive(Default)]
pub struct MemoStore {
    map: Mutex<HashMap<MemoKey, Arc<String>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl MemoStore {
    /// An empty store.
    pub fn new() -> MemoStore {
        MemoStore::default()
    }

    /// Request-path probe: returns the memoized bytes and counts a hit or miss.
    pub fn lookup(&self, key: &MemoKey) -> Option<Arc<String>> {
        let hit = self.peek(key);
        if hit.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
        hit
    }

    /// Probe without touching the hit/miss counters (worker-side double-check).
    pub fn peek(&self, key: &MemoKey) -> Option<Arc<String>> {
        self.map
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .get(key)
            .cloned()
    }

    /// Insert a computed cell (last writer wins; duplicates carry identical bytes by
    /// construction, so the race is benign).
    pub fn insert(&self, key: MemoKey, value: Arc<String>) {
        self.map
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .insert(key, value);
    }

    /// Number of memoized cells.
    pub fn len(&self) -> usize {
        self.map.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// Whether the store holds no cells.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `(hits, misses)` observed by [`MemoStore::lookup`] since startup.
    pub fn counters(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }

    /// Drop every cell whose corpus hash is `corpus_hash`, returning how many were
    /// removed. (Used when a corpus is reloaded in place with new bytes.)
    pub fn invalidate_corpus(&self, corpus_hash: u64) -> usize {
        let mut map = self.map.lock().unwrap_or_else(|e| e.into_inner());
        let before = map.len();
        map.retain(|k, _| k.corpus_hash != corpus_hash);
        before - map.len()
    }
}

/// The pinned parameters a progress file is valid for (its header).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProgressHeader {
    /// Corpus content hash the cells were computed against.
    pub corpus_hash: u64,
    /// LLC set count of the serving configuration.
    pub llc_sets: u32,
    /// Cores per mix.
    pub cores: u32,
    /// Corpus manifest seed.
    pub seed: u64,
}

/// One persisted cell: the key fields not pinned by the header, plus the result bytes.
#[derive(Debug, Clone, PartialEq)]
pub struct ProgressCell {
    /// Policy label.
    pub policy: String,
    /// Mix id.
    pub mix_id: usize,
    /// Instructions per core the cell was computed with.
    pub instructions: u64,
    /// Canonical result JSON.
    pub json: String,
}

fn render_header(h: &ProgressHeader) -> String {
    format!(
        "sweepd-progress {PROGRESS_VERSION}\ncorpus {:016x} llc_sets {} cores {} seed {}\n",
        h.corpus_hash, h.llc_sets, h.cores, h.seed
    )
}

/// Parse a progress file against the expected header.
///
/// Returns the recoverable cells; `None` if the file does not exist or its header does
/// not match `expected` (stale: the caller starts fresh). Torn or malformed cell lines
/// are skipped — a kill mid-append must not poison the rest of the file.
pub fn load_progress(path: &Path, expected: &ProgressHeader) -> Option<Vec<ProgressCell>> {
    let text = std::fs::read_to_string(path).ok()?;
    let mut lines = text.lines();
    let version_ok = lines
        .next()
        .and_then(|l| l.strip_prefix("sweepd-progress "))
        .and_then(|v| v.trim().parse::<u32>().ok())
        .is_some_and(|v| v == PROGRESS_VERSION);
    if !version_ok {
        return None;
    }
    let header_line = lines.next()?;
    if header_line != render_header(expected).lines().nth(1)? {
        return None;
    }
    let mut cells = Vec::new();
    for line in lines {
        let Some(rest) = line.strip_prefix("cell ") else {
            continue;
        };
        let mut fields = rest.splitn(4, ' ');
        let (Some(policy), Some(mix), Some(instr), Some(json)) =
            (fields.next(), fields.next(), fields.next(), fields.next())
        else {
            continue;
        };
        let (Ok(mix_id), Ok(instructions)) = (mix.parse::<usize>(), instr.parse::<u64>()) else {
            continue;
        };
        // A torn trailing line is detectable because the payload is strict JSON.
        if sim_obs::JsonValue::parse(json).is_err() {
            continue;
        }
        cells.push(ProgressCell {
            policy: policy.to_string(),
            mix_id,
            instructions,
            json: json.to_string(),
        });
    }
    Some(cells)
}

/// Append-only writer for a corpus's progress file.
///
/// [`ProgressWriter::open`] validates or (re)creates the file so its header always
/// matches the daemon's current view of the corpus; each appended cell is flushed
/// *and* `sync_all`ed (flush alone only reaches userspace buffers), so a kill — even
/// one between the write and the sync — loses at most the line being written.
///
/// The first append that fails latches the writer into **degraded, memo-only mode**:
/// no further bytes are written (later appends could glue onto a torn tail and
/// corrupt good lines), serving continues from the in-memory memo store, and the
/// condition is surfaced in `/stats` under `health.progress_degraded`. The latch
/// holds until the corpus is reloaded (restart or `/revalidate`).
pub struct ProgressWriter {
    /// `None` once persistence is lost (degraded mode or a failed open).
    file: Mutex<Option<BufWriter<File>>>,
    path: PathBuf,
    degraded: AtomicBool,
}

impl ProgressWriter {
    /// Open `path` for appending under `header`. A missing or stale file is truncated
    /// and rewritten with a fresh header (stale cells are exactly the invalidated
    /// keys). Returns the writer plus the cells recovered from a matching file.
    pub fn open(
        path: &Path,
        header: &ProgressHeader,
    ) -> std::io::Result<(ProgressWriter, Vec<ProgressCell>)> {
        sim_fault::fail_io("progress.open")?;
        let recovered = load_progress(path, header);
        let (file, cells) = match recovered {
            Some(cells) => {
                let mut f = OpenOptions::new().read(true).append(true).open(path)?;
                // A torn trailing line (kill or fault mid-append) carries no newline;
                // terminate it so the next cell starts on a fresh line instead of
                // gluing onto the torn prefix and corrupting a good cell.
                let len = f.metadata()?.len();
                if len > 0 {
                    f.seek(SeekFrom::End(-1))?;
                    let mut last = [0u8; 1];
                    f.read_exact(&mut last)?;
                    if last[0] != b'\n' {
                        f.write_all(b"\n")?;
                    }
                }
                (f, cells)
            }
            None => {
                let mut f = File::create(path)?;
                f.write_all(render_header(header).as_bytes())?;
                f.flush()?;
                sim_fault::fail_io("progress.sync")?;
                f.sync_all()?;
                // Durability of the *name* too: a freshly created file needs its
                // directory entry synced, or a crash can lose the whole file.
                // Best-effort — not every filesystem lets a directory be opened.
                sync_parent_dir(path);
                (f, Vec::new())
            }
        };
        Ok((
            ProgressWriter {
                file: Mutex::new(Some(BufWriter::new(file))),
                path: path.to_path_buf(),
                degraded: AtomicBool::new(false),
            },
            cells,
        ))
    }

    /// A writer that persists nothing — used when the progress file cannot be
    /// opened, so the corpus still serves (memo-only) instead of failing startup.
    pub fn disabled(path: &Path) -> ProgressWriter {
        ProgressWriter {
            file: Mutex::new(None),
            path: path.to_path_buf(),
            degraded: AtomicBool::new(true),
        }
    }

    /// Whether persistence has been lost (memo-only mode).
    pub fn degraded(&self) -> bool {
        self.degraded.load(Ordering::Relaxed)
    }

    /// Append one computed cell. The result JSON never contains a newline (the
    /// serializer emits none), so the line-oriented format stays unambiguous.
    pub fn append(&self, policy: &str, mix_id: usize, instructions: u64, json: &str) {
        debug_assert!(!json.contains('\n'));
        let mut guard = self.file.lock().unwrap_or_else(|e| e.into_inner());
        let Some(file) = guard.as_mut() else {
            return;
        };
        let line = format!("cell {policy} {mix_id} {instructions} {json}\n");
        if let Err(e) = append_line(file, &line) {
            // A failed append degrades persistence, not serving — and it latches:
            // the file may now end in a torn line, so writing anything further
            // would corrupt it. Serving continues from the memo store alone.
            self.degraded.store(true, Ordering::Relaxed);
            *guard = None;
            sim_obs::obs_warn!(
                "sweepd",
                "progress persistence degraded to memo-only for {}: {e}",
                self.path.display()
            );
        }
    }
}

/// Write one cell line durably: write + flush + `sync_all`.
fn append_line(file: &mut BufWriter<File>, line: &str) -> std::io::Result<()> {
    match sim_fault::fire("progress.write") {
        Some(sim_fault::FaultKind::TornWrite) => {
            // A torn write lands a prefix of the line on disk, then errors.
            file.write_all(&line.as_bytes()[..line.len() / 2])?;
            let _ = file.flush();
            return Err(sim_fault::injected_io_error(
                sim_fault::FaultKind::TornWrite,
                "progress.write",
            ));
        }
        Some(kind) => sim_fault::apply_io(kind, "progress.write")?,
        None => {}
    }
    file.write_all(line.as_bytes())?;
    file.flush()?;
    sim_fault::fail_io("progress.sync")?;
    file.get_ref().sync_all()
}

/// Best-effort fsync of `path`'s containing directory.
fn sync_parent_dir(path: &Path) {
    if let Some(parent) = path.parent() {
        if let Ok(dir) = File::open(parent) {
            if dir.sync_all().is_err() {
                sim_obs::obs_warn!(
                    "sweepd",
                    "could not sync directory {} after creating progress file",
                    parent.display()
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(policy: &str, mix: usize) -> MemoKey {
        MemoKey {
            corpus_hash: 0xabcd,
            policy: policy.to_string(),
            llc_sets: 64,
            cores: 4,
            instructions: 20_000,
            seed: 9,
            mix_id: mix,
        }
    }

    #[test]
    fn lookup_counts_hits_and_misses_but_peek_does_not() {
        let store = MemoStore::new();
        let k = key("TA-DRRIP", 0);
        assert!(store.lookup(&k).is_none());
        store.insert(k.clone(), Arc::new("{}".to_string()));
        assert!(store.peek(&k).is_some());
        assert_eq!(store.lookup(&k).unwrap().as_str(), "{}");
        assert_eq!(store.counters(), (1, 1));
    }

    #[test]
    fn invalidation_removes_exactly_one_corpus() {
        let store = MemoStore::new();
        let mut other = key("LRU", 1);
        other.corpus_hash = 0x1234;
        store.insert(key("LRU", 0), Arc::new("a".into()));
        store.insert(key("LRU", 1), Arc::new("b".into()));
        store.insert(other.clone(), Arc::new("c".into()));
        assert_eq!(store.invalidate_corpus(0xabcd), 2);
        assert_eq!(store.len(), 1);
        assert!(store.peek(&other).is_some());
    }

    #[test]
    fn progress_roundtrips_and_rejects_stale_headers() {
        let dir = std::env::temp_dir().join("sweep_serve_progress_roundtrip");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(PROGRESS_FILE);
        std::fs::remove_file(&path).ok();
        let header = ProgressHeader {
            corpus_hash: 0xfeed,
            llc_sets: 64,
            cores: 4,
            seed: 9,
        };
        let (writer, recovered) = ProgressWriter::open(&path, &header).unwrap();
        assert!(recovered.is_empty());
        writer.append("TA-DRRIP", 0, 20000, "{\"x\":1}");
        writer.append("LRU", 1, 20000, "{\"x\":2}");
        drop(writer);

        let (_, recovered) = ProgressWriter::open(&path, &header).unwrap();
        assert_eq!(recovered.len(), 2);
        assert_eq!(recovered[0].policy, "TA-DRRIP");
        assert_eq!(recovered[1].json, "{\"x\":2}");

        // A different corpus hash discards the file and starts a fresh header.
        let stale = ProgressHeader {
            corpus_hash: 0xdead,
            ..header
        };
        let (_, recovered) = ProgressWriter::open(&path, &stale).unwrap();
        assert!(recovered.is_empty());
        let (_, recovered) = ProgressWriter::open(&path, &stale).unwrap();
        assert!(
            recovered.is_empty(),
            "rewritten header matches the new corpus"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_and_malformed_lines_are_skipped() {
        let dir = std::env::temp_dir().join("sweep_serve_progress_torn");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(PROGRESS_FILE);
        let header = ProgressHeader {
            corpus_hash: 1,
            llc_sets: 64,
            cores: 4,
            seed: 9,
        };
        std::fs::write(
            &path,
            format!(
                "{}cell LRU 0 100 {{\"ok\":true}}\ncell LRU notanumber 100 {{}}\n\
                 cell LRU 1 100 {{\"torn\":tr",
                render_header(&header)
            ),
        )
        .unwrap();
        let cells = load_progress(&path, &header).unwrap();
        assert_eq!(cells.len(), 1);
        assert_eq!(cells[0].json, "{\"ok\":true}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
