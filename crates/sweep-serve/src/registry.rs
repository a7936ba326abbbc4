//! Resident corpus registry: corpora loaded once per daemon lifetime.
//!
//! `sweepd`'s reason to exist is amortization: a one-shot `repro sweep` pays corpus
//! decode (and alone-run normalization) on every invocation, while the daemon maps and
//! materializes each corpus **once** at startup — reusing the zero-copy replay path
//! (mmap + arena decode, [`experiments::runner::ReplayConfig`]) — and then serves any
//! number of evaluation requests against the resident [`MaterializedMixStreams`], which
//! also keep each mix's shared private stages: the L1/L2/prefetcher side of a mix is
//! simulated by the first request that needs it and replayed by every later one, within
//! each mix's memory budget.
//!
//! Each loaded corpus carries its content hash ([`corpus_hash`]), the derived system
//! configuration, and the recovered `sweep.progress` cells, which pre-seed the memo
//! store so a restarted daemon resumes where the killed one stopped.

use std::collections::HashMap;
use std::io::Read;
use std::path::Path;
use std::sync::Arc;

use cache_sim::private::SharedStageUsage;
use experiments::runner::{
    self, evaluate_prepared, warm_alone_cache, MaterializedMixStreams, ReplayConfig,
};
use experiments::{ExperimentScale, PolicyKind};
use trace_io::corpus::MANIFEST_FILE;
use trace_io::Corpus;
use workloads::StudyKind;

use crate::memo::{MemoKey, MemoStore, ProgressHeader, ProgressWriter, PROGRESS_FILE};

/// FNV-1a 64 over the manifest bytes and every trace file's bytes, in manifest order.
///
/// This is the content address in every [`MemoKey`]: editing any byte of the corpus —
/// manifest or trace — changes the hash, so stale memo cells and progress files miss
/// or are discarded, while untouched corpora keep theirs.
pub fn corpus_hash(corpus: &Corpus) -> std::io::Result<u64> {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = FNV_OFFSET;
    let mut buf = vec![0u8; 64 * 1024];
    let mut feed_file = |path: &Path, hash: &mut u64| -> std::io::Result<()> {
        let mut f = std::fs::File::open(path)?;
        loop {
            let n = f.read(&mut buf)?;
            if n == 0 {
                return Ok(());
            }
            for &b in &buf[..n] {
                *hash ^= b as u64;
                *hash = hash.wrapping_mul(FNV_PRIME);
            }
        }
    };
    feed_file(&corpus.dir().join(MANIFEST_FILE), &mut hash)?;
    for entry in corpus.entries() {
        feed_file(&corpus.path_for(entry), &mut hash)?;
    }
    Ok(hash)
}

/// A corpus resident in the daemon: traces materialized once, parameters pinned.
pub struct LoadedCorpus {
    /// Registry name clients address the corpus by (`"corpus"` request field).
    pub name: String,
    /// The manifest-backed corpus on disk.
    pub corpus: Corpus,
    /// Content hash ([`corpus_hash`]) pinning every memo key and the progress file.
    pub hash: u64,
    /// Study matching the corpus's core count.
    pub study: StudyKind,
    /// System configuration derived from the serving scale and the study.
    pub config: cache_sim::config::SystemConfig,
    /// Instructions simulated per core per evaluation.
    pub instructions: u64,
    /// Seed from the corpus manifest (alone-run normalization input).
    pub seed: u64,
    /// Append-only progress persistence for this corpus.
    pub progress: ProgressWriter,
    prepared: Vec<MaterializedMixStreams>,
    mix_index: HashMap<usize, usize>,
}

impl LoadedCorpus {
    /// Load and materialize the corpus at `dir` under `scale`, recover its progress
    /// file, and pre-seed `memo` with the recovered cells. Returns the resident corpus
    /// and how many cells were recovered.
    pub fn load(
        name: &str,
        dir: &Path,
        scale: ExperimentScale,
        replay: &ReplayConfig,
        memo: &MemoStore,
    ) -> Result<(LoadedCorpus, usize), String> {
        let corpus = Corpus::load(dir).map_err(|e| format!("loading corpus {name:?}: {e}"))?;
        let study = runner::corpus_study(&corpus).map_err(|e| format!("corpus {name:?}: {e}"))?;
        let config = scale.system_config(study);
        let llc_sets = config.llc.geometry.num_sets();
        let sources = runner::corpus_sources(&corpus, llc_sets)
            .map_err(|e| format!("corpus {name:?}: {e}"))?;
        let hash = corpus_hash(&corpus).map_err(|e| format!("hashing corpus {name:?}: {e}"))?;
        let seed = corpus.meta().seed;
        let instructions = scale.instructions_per_core();

        // Materialize every mix once for the daemon's lifetime — the amortized decode
        // that makes serving cheap — and warm the alone-run cache so the first request
        // doesn't pay the normalization runs inside its latency budget.
        let mut prepared = Vec::with_capacity(sources.len());
        let mut mix_index = HashMap::new();
        for source in &sources {
            let mix_id = source.mix().id;
            let streams = source
                .materialize_with(llc_sets, seed, replay)
                .map_err(|e| format!("materializing corpus {name:?} mix {mix_id}: {e}"))?;
            mix_index.insert(mix_id, prepared.len());
            prepared.push(streams);
        }
        let mixes: Vec<workloads::WorkloadMix> = prepared.iter().map(|p| p.mix().clone()).collect();
        warm_alone_cache(&config, &mixes, instructions, seed);

        let header = ProgressHeader {
            corpus_hash: hash,
            llc_sets: llc_sets as u32,
            cores: config.num_cores as u32,
            seed,
        };
        // An unwritable progress file costs resumability, not serving: degrade to
        // memo-only mode (flagged in `/stats`) instead of failing startup.
        let progress_path = dir.join(PROGRESS_FILE);
        let (progress, cells) = match ProgressWriter::open(&progress_path, &header) {
            Ok(opened) => opened,
            Err(e) => {
                sim_obs::obs_warn!(
                    "sweepd",
                    "corpus {name:?}: progress file unavailable ({e}); serving memo-only"
                );
                (ProgressWriter::disabled(&progress_path), Vec::new())
            }
        };
        let loaded = LoadedCorpus {
            name: name.to_string(),
            corpus,
            hash,
            study,
            config,
            instructions,
            seed,
            progress,
            prepared,
            mix_index,
        };
        let mut recovered = 0usize;
        for cell in &cells {
            // Only cells matching the serving run length are resumable results.
            if cell.instructions != instructions {
                continue;
            }
            memo.insert(
                loaded.memo_key(&cell.policy, cell.mix_id),
                Arc::new(cell.json.clone()),
            );
            recovered += 1;
        }
        Ok((loaded, recovered))
    }

    /// Mix ids resident in this corpus, in manifest order.
    pub fn mix_ids(&self) -> Vec<usize> {
        self.corpus.entries().iter().map(|e| e.mix_id).collect()
    }

    /// The materialized streams for `mix_id`, if the corpus has that mix.
    pub fn prepared(&self, mix_id: usize) -> Option<&MaterializedMixStreams> {
        self.mix_index.get(&mix_id).map(|&i| &self.prepared[i])
    }

    /// The content-addressed memo key for a `(policy, mix)` cell of this corpus.
    pub fn memo_key(&self, policy_label: &str, mix_id: usize) -> MemoKey {
        MemoKey {
            corpus_hash: self.hash,
            policy: policy_label.to_string(),
            llc_sets: self.config.llc.geometry.num_sets() as u32,
            cores: self.config.num_cores as u32,
            instructions: self.instructions,
            seed: self.seed,
            mix_id,
        }
    }

    /// What the resident mixes' shared private stages hold, summed over mixes and cores
    /// (`cursors` counts one per core and evaluation).
    pub fn stage_usage(&self) -> SharedStageUsage {
        self.prepared.iter().flat_map(|p| p.stage_usage()).sum()
    }

    /// Evaluate one `(policy, mix)` cell on the resident streams — the exact
    /// computation `repro sweep` performs for this cell, so the result is bit-identical
    /// to the batch path.
    pub fn evaluate(
        &self,
        policy: PolicyKind,
        mix_id: usize,
    ) -> Option<experiments::runner::MixEvaluation> {
        let mat = self.prepared(mix_id)?;
        let built = policy.build_dispatch(&self.config, &mat.mix().thrashing_slots());
        Some(evaluate_prepared(
            &self.config,
            mat,
            policy,
            built,
            self.instructions,
            self.seed,
        ))
    }
}

/// The daemon's name → corpus map, built at startup.
///
/// The *name set* is fixed for the daemon's lifetime, but an entry can be
/// **quarantined** — taken out of service with a reason — when its replay path
/// hits corruption mid-evaluation, and later **revalidated**: reloaded from disk
/// and readmitted without a restart. Quarantined corpora answer 503 with a typed
/// body; `/stats` lists them under `health.quarantined`.
pub struct Registry {
    corpora: std::sync::RwLock<HashMap<String, Arc<LoadedCorpus>>>,
    quarantined: std::sync::Mutex<HashMap<String, String>>,
    scale: ExperimentScale,
    replay: ReplayConfig,
}

impl Registry {
    /// Build a registry from `(name, directory)` pairs.
    pub fn load(
        specs: &[(String, std::path::PathBuf)],
        scale: ExperimentScale,
        replay: &ReplayConfig,
        memo: &MemoStore,
    ) -> Result<(Registry, usize), String> {
        let mut corpora = HashMap::new();
        let mut recovered = 0;
        for (name, dir) in specs {
            let (loaded, cells) = LoadedCorpus::load(name, dir, scale, replay, memo)?;
            recovered += cells;
            if corpora.insert(name.clone(), Arc::new(loaded)).is_some() {
                return Err(format!("duplicate corpus name {name:?}"));
            }
        }
        Ok((
            Registry {
                corpora: std::sync::RwLock::new(corpora),
                quarantined: std::sync::Mutex::new(HashMap::new()),
                scale,
                replay: replay.clone(),
            },
            recovered,
        ))
    }

    /// Look a corpus up by registry name (quarantined corpora are still returned;
    /// callers gate on [`Registry::quarantine_reason`]).
    pub fn get(&self, name: &str) -> Option<Arc<LoadedCorpus>> {
        self.corpora
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .get(name)
            .cloned()
    }

    /// All loaded corpora, sorted by name.
    pub fn iter(&self) -> Vec<Arc<LoadedCorpus>> {
        let mut all: Vec<Arc<LoadedCorpus>> = self
            .corpora
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .values()
            .cloned()
            .collect();
        all.sort_by(|a, b| a.name.cmp(&b.name));
        all
    }

    /// Take `name` out of service. The first reason wins (later faults on jobs
    /// already queued don't rewrite history). Returns whether this call newly
    /// quarantined the corpus.
    pub fn quarantine(&self, name: &str, reason: &str) -> bool {
        let mut map = self.quarantined.lock().unwrap_or_else(|e| e.into_inner());
        match map.entry(name.to_string()) {
            std::collections::hash_map::Entry::Occupied(_) => false,
            std::collections::hash_map::Entry::Vacant(slot) => {
                sim_obs::obs_warn!("sweepd", "quarantining corpus {name:?}: {reason}");
                slot.insert(reason.to_string());
                true
            }
        }
    }

    /// Why `name` is out of service, if it is.
    pub fn quarantine_reason(&self, name: &str) -> Option<String> {
        self.quarantined
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .get(name)
            .cloned()
    }

    /// `(name, reason)` of every quarantined corpus, sorted by name.
    pub fn quarantined(&self) -> Vec<(String, String)> {
        let mut all: Vec<(String, String)> = self
            .quarantined
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .map(|(n, r)| (n.clone(), r.clone()))
            .collect();
        all.sort();
        all
    }

    /// Reload `name` from disk and readmit it: re-hash, re-materialize, re-open the
    /// progress file, and clear the quarantine flag. If the bytes changed, every
    /// memo cell of the old corpus is invalidated first. On failure the corpus
    /// stays quarantined with the fresh error as its reason.
    pub fn revalidate(&self, name: &str, memo: &MemoStore) -> Result<usize, String> {
        let existing = self
            .get(name)
            .ok_or_else(|| format!("no corpus named {name:?}"))?;
        let dir = existing.corpus.dir().to_path_buf();
        match LoadedCorpus::load(name, &dir, self.scale, &self.replay, memo) {
            Ok((loaded, recovered)) => {
                if loaded.hash != existing.hash {
                    // The bytes changed under us: the old corpus's cells are stale.
                    memo.invalidate_corpus(existing.hash);
                }
                self.corpora
                    .write()
                    .unwrap_or_else(|e| e.into_inner())
                    .insert(name.to_string(), Arc::new(loaded));
                self.quarantined
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .remove(name);
                sim_obs::obs_info!("sweepd", "corpus {name:?} revalidated and readmitted");
                Ok(recovered)
            }
            Err(e) => {
                self.quarantined
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .insert(name.to_string(), e.clone());
                Err(e)
            }
        }
    }
}
