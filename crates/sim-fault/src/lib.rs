//! Deterministic, dependency-free fault injection for the ADAPT stack.
//!
//! A seeded [`FaultPlan`] maps named *sites* (call points such as `atrc.write` or
//! `serve.worker`) to fault schedules. Every decision is a pure function of
//! `(plan seed, site name, rule index, per-site hit counter)`, so a given plan
//! fires the exact same faults on every run — the chaos walls rely on this to
//! assert that a faulted run either fails with a typed error or is bit-identical
//! to the fault-free reference.
//!
//! When no plan is installed the layer is a single relaxed atomic load and a
//! predictable branch per site (the same fast-path discipline as `sim-obs`).
//! The repository's benchmark (`benchmark/README.md`) runs with no plan installed,
//! so that cost is part of every end-to-end number it reports.
//!
//! # Sites
//!
//! | site             | where it fires                                          |
//! |------------------|---------------------------------------------------------|
//! | `atrc.write`     | trace capture, per chunk (supports torn writes)         |
//! | `atrc.sync`      | trace capture, before the final `sync_all`              |
//! | `mmap.open`      | mapping a trace file (`MappedTrace::open`), once each   |
//! | `replay.decode`  | trace chunk decode (surfaces as corruption)             |
//! | `progress.open`  | opening `sweep.progress` at corpus load                 |
//! | `progress.write` | per-cell progress append (supports torn writes)         |
//! | `progress.sync`  | per-cell progress `sync_all`                            |
//! | `serve.worker`   | sweepd worker, per job (supports stall/panic)           |
//! | `bank.schedule`  | DRAM bank scheduling, per access (stall keeps results   |
//! |                  | bit-identical; any other kind panics → typed error)     |
//! | `serve.conn.close` | sweepd connection, before writing a response          |
//!
//! # Plan specs
//!
//! Plans parse from a compact spec (also read from `SIM_FAULT_PLAN` by sweepd):
//!
//! ```text
//! seed=42;progress.write=torn@250;serve.worker=stall:5@200#10
//! ```
//!
//! Grammar per `;`-separated part: `seed=N` or `SITE=KIND[:ARG][@PERMILLE][#MAX_FIRES]`
//! with kinds `io`, `short`, `torn`, `full`, `panic`, `stall:MS`, `close`.
//! `@PERMILLE` defaults to 1000 (always fire); `#MAX_FIRES` defaults to unlimited.

use std::collections::HashMap;
use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Duration;

/// What an armed site does when its schedule fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// A generic I/O error (`io::Error`).
    Io,
    /// A read that returns fewer bytes than asked for (surfaced as an I/O error).
    ShortRead,
    /// A write that persists only a prefix of the intended bytes, then errors.
    TornWrite,
    /// `ENOSPC`-style failure: the device is full.
    DiskFull,
    /// A panic at the fault site (worker crash).
    Panic,
    /// A stall of the given number of milliseconds (latency only, never data).
    Stall(u64),
    /// The connection (or stream) is dropped on the floor.
    Close,
}

impl FaultKind {
    /// Short lowercase label used in injected error messages and specs.
    pub fn label(&self) -> &'static str {
        match self {
            FaultKind::Io => "io",
            FaultKind::ShortRead => "short",
            FaultKind::TornWrite => "torn",
            FaultKind::DiskFull => "full",
            FaultKind::Panic => "panic",
            FaultKind::Stall(_) => "stall",
            FaultKind::Close => "close",
        }
    }
}

/// One site's schedule inside a [`FaultPlan`].
#[derive(Debug, Clone)]
pub struct SiteRule {
    /// The site this rule arms.
    pub site: String,
    /// What happens when the rule fires.
    pub kind: FaultKind,
    /// Fire probability per hit, in permille (1000 = every hit).
    pub prob_permille: u16,
    /// Cap on total fires at this site; 0 means unlimited.
    pub max_fires: u64,
}

/// A seeded set of [`SiteRule`]s. Installing a plan arms the layer; the same plan
/// fires the same faults at the same per-site hit indices on every run.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Seed mixed into every fire decision.
    pub seed: u64,
    /// Site schedules, evaluated in order; the first rule that fires wins.
    pub rules: Vec<SiteRule>,
}

impl FaultPlan {
    /// An empty plan with the given seed.
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            rules: Vec::new(),
        }
    }

    /// Add a rule that fires on every hit of `site`, with no fire cap.
    pub fn always(self, site: &str, kind: FaultKind) -> FaultPlan {
        self.rule(site, kind, 1000, 0)
    }

    /// Add a rule with explicit probability (permille) and fire cap (0 = unlimited).
    pub fn rule(
        mut self,
        site: &str,
        kind: FaultKind,
        prob_permille: u16,
        max_fires: u64,
    ) -> FaultPlan {
        self.rules.push(SiteRule {
            site: site.to_string(),
            kind,
            prob_permille: prob_permille.min(1000),
            max_fires,
        });
        self
    }

    /// Parse a plan spec (see the module docs for the grammar).
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::default();
        for part in spec.split(';').map(str::trim).filter(|p| !p.is_empty()) {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("fault spec part {part:?} is missing '='"))?;
            let (key, value) = (key.trim(), value.trim());
            if key == "seed" {
                plan.seed = value
                    .parse()
                    .map_err(|_| format!("fault spec seed {value:?} is not a u64"))?;
                continue;
            }
            let (value, max_fires) = match value.split_once('#') {
                Some((v, m)) => (
                    v,
                    m.parse::<u64>()
                        .map_err(|_| format!("fault spec max-fires {m:?} is not a u64"))?,
                ),
                None => (value, 0),
            };
            let (value, prob) = match value.split_once('@') {
                Some((v, p)) => (
                    v,
                    p.parse::<u16>()
                        .map_err(|_| format!("fault spec permille {p:?} is not a u16"))?,
                ),
                None => (value, 1000),
            };
            let (kind_name, arg) = match value.split_once(':') {
                Some((k, a)) => (k, Some(a)),
                None => (value, None),
            };
            let kind = match (kind_name, arg) {
                ("io", None) => FaultKind::Io,
                ("short", None) => FaultKind::ShortRead,
                ("torn", None) => FaultKind::TornWrite,
                ("full", None) => FaultKind::DiskFull,
                ("panic", None) => FaultKind::Panic,
                ("close", None) => FaultKind::Close,
                ("stall", Some(ms)) => FaultKind::Stall(
                    ms.parse()
                        .map_err(|_| format!("fault spec stall arg {ms:?} is not milliseconds"))?,
                ),
                _ => return Err(format!("fault spec kind {value:?} is not recognised")),
            };
            plan = plan.rule(key, kind, prob, max_fires);
        }
        Ok(plan)
    }
}

/// Installed plan plus per-site counters. Counters reset on install, so
/// re-installing the same plan replays the same fault schedule.
struct Active {
    plan: FaultPlan,
    counters: Mutex<HashMap<String, SiteCounters>>,
}

#[derive(Default, Clone, Copy)]
struct SiteCounters {
    hits: u64,
    fired: u64,
}

static ENABLED: AtomicBool = AtomicBool::new(false);

fn active_cell() -> &'static Mutex<Option<Arc<Active>>> {
    static CELL: OnceLock<Mutex<Option<Arc<Active>>>> = OnceLock::new();
    CELL.get_or_init(|| Mutex::new(None))
}

fn lock_ignore_poison<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // Injected panics can poison these locks by design; the data is counters only.
    m.lock().unwrap_or_else(|e| e.into_inner())
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv_bytes(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h = (h ^ b as u64).wrapping_mul(FNV_PRIME);
    }
    h
}

/// The pure fire decision: FNV-1a over (seed, site, rule index, hit index).
fn decides(seed: u64, site: &str, rule_idx: usize, hit: u64, prob_permille: u16) -> bool {
    if prob_permille >= 1000 {
        return true;
    }
    if prob_permille == 0 {
        return false;
    }
    let mut h = fnv_bytes(FNV_OFFSET, &seed.to_le_bytes());
    h = fnv_bytes(h, site.as_bytes());
    h = fnv_bytes(h, &(rule_idx as u64).to_le_bytes());
    h = fnv_bytes(h, &hit.to_le_bytes());
    (h % 1000) < prob_permille as u64
}

/// Ask whether `site` faults on this hit. Returns `None` unless a plan is
/// installed *and* one of its rules for this site fires. The disabled path is a
/// single relaxed atomic load and a branch.
#[inline]
pub fn fire(site: &str) -> Option<FaultKind> {
    if !ENABLED.load(Ordering::Relaxed) {
        return None;
    }
    fire_enabled(site)
}

#[cold]
fn fire_enabled(site: &str) -> Option<FaultKind> {
    let active = lock_ignore_poison(active_cell()).clone()?;
    let mut counters = lock_ignore_poison(&active.counters);
    let entry = counters.entry(site.to_string()).or_default();
    let hit = entry.hits;
    entry.hits += 1;
    for (idx, rule) in active.plan.rules.iter().enumerate() {
        if rule.site != site {
            continue;
        }
        if rule.max_fires != 0 && entry.fired >= rule.max_fires {
            continue;
        }
        if decides(active.plan.seed, site, idx, hit, rule.prob_permille) {
            entry.fired += 1;
            return Some(rule.kind);
        }
    }
    None
}

/// The `io::Error` an injected fault reports; the message always carries the
/// site and the word "injected" so logs and tests can recognise it.
pub fn injected_io_error(kind: FaultKind, site: &str) -> io::Error {
    let message = match kind {
        FaultKind::DiskFull => format!("injected fault at {site}: no space left on device"),
        k => format!("injected fault at {site}: {}", k.label()),
    };
    io::Error::other(message)
}

/// Act on a fired fault at an I/O site: stalls sleep and succeed, panics panic,
/// everything else becomes an [`injected_io_error`].
pub fn apply_io(kind: FaultKind, site: &str) -> io::Result<()> {
    match kind {
        FaultKind::Stall(ms) => {
            std::thread::sleep(Duration::from_millis(ms));
            Ok(())
        }
        FaultKind::Panic => panic!("injected fault at {site}: panic"),
        k => Err(injected_io_error(k, site)),
    }
}

/// [`fire`] + [`apply_io`] in one call — the one-liner for plain I/O sites.
#[inline]
pub fn fail_io(site: &str) -> io::Result<()> {
    match fire(site) {
        None => Ok(()),
        Some(kind) => apply_io(kind, site),
    }
}

/// Install `plan` and arm the layer. Per-site counters start from zero.
pub fn install(plan: FaultPlan) {
    let mut slot = lock_ignore_poison(active_cell());
    *slot = Some(Arc::new(Active {
        plan,
        counters: Mutex::new(HashMap::new()),
    }));
    ENABLED.store(true, Ordering::SeqCst);
}

/// Remove any installed plan and disarm the layer.
pub fn clear() {
    let mut slot = lock_ignore_poison(active_cell());
    *slot = None;
    ENABLED.store(false, Ordering::SeqCst);
}

/// Whether a plan is currently installed.
pub fn is_active() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// How many times `site` has fired under the current plan.
pub fn fired_count(site: &str) -> u64 {
    let Some(active) = lock_ignore_poison(active_cell()).clone() else {
        return 0;
    };
    let counters = lock_ignore_poison(&active.counters);
    counters.get(site).map(|c| c.fired).unwrap_or(0)
}

/// Total fires across all sites under the current plan.
pub fn total_fired() -> u64 {
    let Some(active) = lock_ignore_poison(active_cell()).clone() else {
        return 0;
    };
    let counters = lock_ignore_poison(&active.counters);
    counters.values().map(|c| c.fired).sum()
}

/// Install a plan from the `SIM_FAULT_PLAN` environment variable, once per
/// process. Returns `Ok(true)` if a plan was installed, `Ok(false)` if the
/// variable is unset/empty, and `Err` if the spec does not parse.
pub fn init_from_env() -> Result<bool, String> {
    static INIT: OnceLock<Result<bool, String>> = OnceLock::new();
    INIT.get_or_init(|| match std::env::var("SIM_FAULT_PLAN") {
        Err(_) => Ok(false),
        Ok(spec) if spec.trim().is_empty() => Ok(false),
        Ok(spec) => {
            let plan = FaultPlan::parse(&spec)?;
            install(plan);
            Ok(true)
        }
    })
    .clone()
}

/// RAII guard serialising fault-installing tests. The plan store is process
/// global, so tests that install plans must (a) live in dedicated integration
/// test binaries and (b) hold this guard for their whole body — including any
/// server they spawn. Acquiring and dropping the guard both [`clear`] the plan.
pub struct FaultGuard {
    _lock: MutexGuard<'static, ()>,
}

/// Acquire the process-global fault-test lock; see [`FaultGuard`].
pub fn exclusive() -> FaultGuard {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    let lock = LOCK.get_or_init(|| Mutex::new(()));
    let guard = lock.lock().unwrap_or_else(|e| e.into_inner());
    clear();
    FaultGuard { _lock: guard }
}

impl FaultGuard {
    /// Install a plan under the guard.
    pub fn install(&self, plan: FaultPlan) {
        install(plan);
    }

    /// Clear the plan without releasing the guard.
    pub fn clear(&self) {
        clear();
    }
}

impl Drop for FaultGuard {
    fn drop(&mut self) {
        clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_layer_never_fires() {
        let guard = exclusive();
        assert!(!is_active());
        assert_eq!(fire("atrc.write"), None);
        assert!(fail_io("atrc.write").is_ok());
        drop(guard);
    }

    #[test]
    fn always_rules_fire_every_hit_and_respect_max_fires() {
        let guard = exclusive();
        guard.install(FaultPlan::new(1).rule("progress.write", FaultKind::TornWrite, 1000, 2));
        assert_eq!(fire("progress.write"), Some(FaultKind::TornWrite));
        assert_eq!(fire("progress.write"), Some(FaultKind::TornWrite));
        assert_eq!(fire("progress.write"), None, "max_fires caps the schedule");
        assert_eq!(fire("replay.decode"), None, "unarmed sites never fire");
        assert_eq!(fired_count("progress.write"), 2);
        assert_eq!(total_fired(), 2);
        drop(guard);
    }

    #[test]
    fn probabilistic_schedules_are_deterministic_across_reinstalls() {
        let guard = exclusive();
        let plan = FaultPlan::new(42).rule("replay.decode", FaultKind::Io, 300, 0);
        let run = |plan: &FaultPlan| {
            install(plan.clone());
            let fires: Vec<bool> = (0..200).map(|_| fire("replay.decode").is_some()).collect();
            let count = fired_count("replay.decode");
            (fires, count)
        };
        let (a, count_a) = run(&plan);
        let (b, count_b) = run(&plan);
        assert_eq!(a, b, "same plan must replay the same schedule");
        assert_eq!(count_a, count_b);
        assert!(
            count_a > 20 && count_a < 120,
            "300 permille over 200 hits, got {count_a}"
        );
        let other = FaultPlan::new(43).rule("replay.decode", FaultKind::Io, 300, 0);
        let (c, _) = run(&other);
        assert_ne!(a, c, "a different seed must produce a different schedule");
        drop(guard);
    }

    #[test]
    fn spec_round_trips_through_parse() {
        let plan = FaultPlan::parse(
            "seed=42; progress.write=torn@250 ; serve.worker=stall:5@200#10; mmap.open=full",
        )
        .expect("parse");
        assert_eq!(plan.seed, 42);
        assert_eq!(plan.rules.len(), 3);
        assert_eq!(plan.rules[0].site, "progress.write");
        assert_eq!(plan.rules[0].kind, FaultKind::TornWrite);
        assert_eq!(plan.rules[0].prob_permille, 250);
        assert_eq!(plan.rules[0].max_fires, 0);
        assert_eq!(plan.rules[1].kind, FaultKind::Stall(5));
        assert_eq!(plan.rules[1].prob_permille, 200);
        assert_eq!(plan.rules[1].max_fires, 10);
        assert_eq!(plan.rules[2].kind, FaultKind::DiskFull);
        assert_eq!(plan.rules[2].prob_permille, 1000);
        assert!(FaultPlan::parse("seed=x").is_err());
        assert!(FaultPlan::parse("site=warp").is_err());
        assert!(FaultPlan::parse("site").is_err());
        assert!(
            FaultPlan::parse("serve.worker=stall").is_err(),
            "stall needs milliseconds"
        );
    }

    #[test]
    fn two_rules_on_one_site_decide_independently() {
        let guard = exclusive();
        guard.install(
            FaultPlan::new(7)
                .rule("atrc.write", FaultKind::TornWrite, 100, 0)
                .rule("atrc.write", FaultKind::DiskFull, 100, 0),
        );
        let mut kinds = std::collections::HashSet::new();
        for _ in 0..2000 {
            if let Some(k) = fire("atrc.write") {
                kinds.insert(k.label());
            }
        }
        assert!(
            kinds.contains("torn") && kinds.contains("full"),
            "both rules fire: {kinds:?}"
        );
        drop(guard);
    }

    #[test]
    fn injected_errors_name_the_site() {
        let err = injected_io_error(FaultKind::DiskFull, "progress.write");
        let text = err.to_string();
        assert!(
            text.contains("injected") && text.contains("progress.write"),
            "{text}"
        );
    }
}
