//! Facts about the host a run was taken on, and the run's scratch directory.

use std::path::{Path, PathBuf};

/// Recorded in every report so a number can be traced to the machine and code it
/// came from.
#[derive(Debug, Clone)]
pub struct HostFacts {
    /// `std::thread::available_parallelism()`.
    pub nproc: usize,
    /// Worker/client threads the run actually uses (sweep workers, sweepd workers and
    /// clients): equal to `nproc`, because nothing else is configured.
    pub workers: usize,
    pub cpu_model: String,
    pub commit: String,
    pub rustc: String,
}

impl HostFacts {
    pub fn gather() -> HostFacts {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        HostFacts {
            nproc,
            workers: nproc,
            cpu_model: cpu_model(),
            commit: commit(),
            rustc: rustc_version(),
        }
    }
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The checked-out commit, read from `.git` without running git; a plain source
/// checkout (what the driver runs in) has none.
fn commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(head) => head.trim().to_string(),
        Err(_) => return "unknown".to_string(),
    };
    match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(Path::new(".git").join(reference))
            .map_or_else(|_| head.clone(), |hash| hash.trim().to_string()),
        None => head,
    }
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Peak resident set size of this process so far, in MB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Environment variables the product (or its stand-in dependencies) would read. They
/// are cleared before anything runs, so no variable changes what is measured.
pub const SCRUBBED_ENV: [&str; 9] = [
    "REPLAY_ARENA_BYTES",
    "REPLAY_PREFETCH",
    "REPLAY_SPILL_DIR",
    "REPLAY_SPILL_ACCESSES",
    "SIM_FAULT_PLAN",
    "REPRO_LOG",
    "REPRO_PROFILE",
    "RAYON_NUM_THREADS",
    "MEMMAP2_FORCE_FALLBACK",
];

/// A per-run scratch directory under `benchmark/out/`, removed when dropped — on
/// success, on a failed check, and while unwinding from a panic.
pub struct TempDir {
    path: PathBuf,
}

impl TempDir {
    pub fn create(out_dir: &Path, workload: &str, seed: u64) -> std::io::Result<TempDir> {
        let path = out_dir.join(format!("tmp.{workload}.{seed}.{}", std::process::id()));
        // A leftover from a killed run with the same pid is stale by definition.
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)?;
        Ok(TempDir { path })
    }

    /// A fresh, empty subdirectory path (any previous content is removed).
    pub fn fresh(&self, name: &str) -> PathBuf {
        let path = self.path.join(name);
        let _ = std::fs::remove_dir_all(&path);
        path
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn temp_dir_is_removed_on_drop_and_on_unwind() {
        let base = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("unit-test-{}", std::process::id()));
        let kept = {
            let tmp = TempDir::create(&base, "unit", 1).unwrap();
            std::fs::write(tmp.path.join("file"), b"x").unwrap();
            tmp.path.clone()
        };
        assert!(!kept.exists());

        let unwound = std::panic::catch_unwind(|| {
            let tmp = TempDir::create(&base, "unit", 2).unwrap();
            let path = tmp.path.clone();
            assert!(path.exists());
            std::panic::panic_any(path);
        })
        .unwrap_err();
        let path = unwound.downcast::<PathBuf>().unwrap();
        assert!(!path.exists());
        let _ = std::fs::remove_dir_all(&base);
    }

    #[test]
    fn peak_rss_is_positive_on_linux() {
        if cfg!(target_os = "linux") {
            assert!(peak_rss_mb().unwrap() > 0.0);
        }
    }
}
