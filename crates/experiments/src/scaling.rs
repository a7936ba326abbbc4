//! Many-core scaling study: the paper's policy comparison beyond 24 cores.
//!
//! The paper stops at 24 cores ("the number of cores is equal to or greater than the
//! associativity" being the regime of interest); this module extends the comparison to
//! 32/48/64 cores on the core-count-generic geometry of
//! [`cache_sim::config::SystemConfig::scaled_many_core`] with the cycle-accounted bank
//! contention model of `cache_sim::bank` enabled — finite service ports, bounded
//! per-bank queues and MSHR back-pressure — so policies are differentiated not only by
//! hit rates but by the bank pressure they induce. Following fairness-oriented LLC
//! management work (LFOC/LFOC+, Saez et al.), each policy is scored on three axes:
//!
//! * **throughput** — mean weighted speedup over the workload mixes, plus the geometric
//!   mean of the per-mix speedup over TA-DRRIP (the paper's headline presentation),
//! * **fairness** — mean min/max ratio of normalized IPCs ([`mc_metrics::fairness`]),
//! * **bank-stall share** — the fraction of LLC bank time requests spent queued or
//!   refused admission rather than in service ([`MixEvaluation::bank_stall_share`]).
//!
//! Runs go through the corpus-backed parallel sweep engine
//! ([`runner::sweep_policies_on_sources_with`]) and are bit-identical to the serial
//! reference, which the tests enforce at 64 cores. `repro scale --cores 32,48,64`
//! drives this from the command line; `--flat` re-runs the same geometry under the
//! seed's latency-only banking for an A/B comparison.

use workloads::{generate_mixes, StudyKind};

use crate::policies::PolicyKind;
use crate::report::{amean, gmean, pct, render_table};
use crate::runner::{self, MixEvaluation, MixSource, ReplayConfig};
use crate::scale::{ExperimentScale, MemSystem};

/// One policy's scores at one core count.
#[derive(Debug, Clone)]
pub struct PolicyScalingRow {
    /// Display name of the policy.
    pub policy: String,
    /// Arithmetic mean of the per-mix weighted speedups (raw throughput).
    pub mean_weighted_speedup: f64,
    /// Geometric mean of the per-mix weighted-speedup ratios over TA-DRRIP.
    pub speedup_over_baseline: f64,
    /// Arithmetic mean of the per-mix fairness scores (min/max normalized IPC).
    pub mean_fairness: f64,
    /// Arithmetic mean of the per-mix LLC bank-stall shares.
    pub mean_bank_stall_share: f64,
    /// Arithmetic mean of the per-mix per-core stall imbalance (max/mean attributed
    /// stall cycles; 1.0 = balanced, 0.0 = no memory-system stalls at all).
    pub mean_stall_imbalance: f64,
}

/// Attributed memory-system stall cycles of one core, aggregated over a study's
/// baseline-policy runs (the per-core view `cache_sim::stats::CoreStallAttribution`
/// provides per run).
#[derive(Debug, Clone)]
pub struct CoreStallSummary {
    /// Core index.
    pub core: usize,
    /// Cycles queued behind busy LLC bank ports.
    pub llc_queue_cycles: u64,
    /// Cycles refused admission at full LLC bank queues.
    pub llc_admission_cycles: u64,
    /// Cycles stalled on a full LLC MSHR file.
    pub mshr_stall_cycles: u64,
    /// Cycles queued behind busy DRAM banks (including admission refusals).
    pub dram_stall_cycles: u64,
}

impl CoreStallSummary {
    /// Total attributed stall cycles for this core.
    pub fn total(&self) -> u64 {
        self.llc_queue_cycles
            + self.llc_admission_cycles
            + self.mshr_stall_cycles
            + self.dram_stall_cycles
    }
}

/// Aggregated occupancy/stall picture of one LLC bank across a study's runs.
#[derive(Debug, Clone)]
pub struct BankSummary {
    /// Bank index.
    pub bank: usize,
    /// Requests served, summed over the study's baseline-policy runs.
    pub requests: u64,
    /// Bank utilization: busy cycles as a share of the summed run lengths.
    pub busy_share: f64,
    /// Share of the bank's request time spent stalled rather than in service.
    pub stall_share: f64,
    /// Peak simultaneous waiters observed at this bank across the runs.
    pub peak_waiting: usize,
}

/// The study's results at one core count.
#[derive(Debug, Clone)]
pub struct ScalingPoint {
    /// Cores (= applications per mix).
    pub cores: usize,
    /// LLC banks in the configuration.
    pub banks: usize,
    /// Workload mixes evaluated.
    pub workloads: usize,
    /// One row per policy, baseline (TA-DRRIP) first.
    pub rows: Vec<PolicyScalingRow>,
    /// Per-bank occupancy/stall metrics aggregated over the baseline policy's runs.
    pub per_bank: Vec<BankSummary>,
    /// The most-stalled cores (top 8 by attributed stall cycles) aggregated over the
    /// baseline policy's runs, descending; empty when nothing stalled.
    pub top_stalled_cores: Vec<CoreStallSummary>,
    /// Max/mean imbalance of the aggregated per-core stall cycles (see
    /// [`mc_metrics::stall_imbalance`]).
    pub stall_imbalance: f64,
    /// Total replay wraps reported by the sweep engine (0 for synthetic runs).
    pub replay_wraps: u64,
}

/// The full scaling study: one [`ScalingPoint`] per requested core count.
#[derive(Debug, Clone)]
pub struct ScalingStudyResult {
    /// Scale the study ran at (`smoke`/`scaled`/`paper`).
    pub scale: String,
    /// False when `--flat` disabled the contention model for an A/B run.
    pub contention: bool,
    /// One entry per core count, in request order.
    pub points: Vec<ScalingPoint>,
}

/// The policies compared by the study: the TA-DRRIP baseline plus the Figure 3 lineup.
pub fn scaling_lineup() -> Vec<PolicyKind> {
    let mut policies = vec![PolicyKind::TaDrrip];
    policies.extend(PolicyKind::figure3_lineup());
    policies
}

/// Run the study at one core count. `mixes_override` bounds the workload count (tests
/// and the `--mixes` flag); `contention` selects the cycle-accounted model vs. the flat
/// seed banking on the same geometry.
pub fn run_point(
    scale: ExperimentScale,
    study: StudyKind,
    contention: bool,
    mixes_override: Option<usize>,
) -> ScalingPoint {
    let config = scale.scaling_config(study.num_cores(), contention);
    let count = mixes_override
        .unwrap_or_else(|| scale.mixes_for(study))
        .max(1);
    let mixes = generate_mixes(study, count, scale.seed());
    let sources: Vec<MixSource> = mixes.iter().cloned().map(MixSource::synthetic).collect();
    let policies = scaling_lineup();
    let outcome = runner::sweep_policies_on_sources_with(
        &config,
        &sources,
        &policies,
        scale.instructions_per_core(),
        scale.seed(),
        &ReplayConfig::default(),
    )
    .expect("synthetic sweeps cannot fail to materialize");
    build_point(&config, mixes.len(), &policies, &outcome)
}

fn build_point(
    config: &cache_sim::config::SystemConfig,
    workloads: usize,
    policies: &[PolicyKind],
    outcome: &runner::SweepOutcome,
) -> ScalingPoint {
    let evals = &outcome.evaluations;
    let baseline = policies[0];
    let rows = policies
        .iter()
        .map(|&p| policy_row(evals, p, baseline))
        .collect();

    // Per-bank aggregation over the baseline policy's runs.
    let base_evals: Vec<&MixEvaluation> = evals.iter().filter(|e| e.policy == baseline).collect();
    let total_cycles: u64 = base_evals.iter().map(|e| e.final_cycle).sum();
    let per_bank = (0..config.llc.banks)
        .map(|bank| {
            let mut requests = 0;
            let mut busy = 0;
            let mut stall = 0;
            let mut peak = 0;
            for e in &base_evals {
                let b = &e.llc_banks[bank];
                requests += b.requests;
                busy += b.busy_cycles;
                stall += b.stall_cycles();
                peak = peak.max(b.peak_waiting);
            }
            BankSummary {
                bank,
                requests,
                busy_share: if total_cycles == 0 {
                    0.0
                } else {
                    busy as f64 / total_cycles as f64
                },
                stall_share: cache_sim::bank::stall_share(stall, busy),
                peak_waiting: peak,
            }
        })
        .collect();

    // Per-core stall attribution aggregated over the baseline policy's runs.
    let mut core_totals = vec![
        CoreStallSummary {
            core: 0,
            llc_queue_cycles: 0,
            llc_admission_cycles: 0,
            mshr_stall_cycles: 0,
            dram_stall_cycles: 0,
        };
        config.num_cores
    ];
    for (core, summary) in core_totals.iter_mut().enumerate() {
        summary.core = core;
        for e in &base_evals {
            if let Some(c) = e.core_stalls.get(core) {
                summary.llc_queue_cycles += c.llc_queue_cycles;
                summary.llc_admission_cycles += c.llc_admission_cycles;
                summary.mshr_stall_cycles += c.mshr_stall_cycles;
                summary.dram_stall_cycles += c.dram_queue_cycles + c.dram_admission_cycles;
            }
        }
    }
    let stall_imbalance =
        mc_metrics::stall_imbalance(&core_totals.iter().map(|c| c.total()).collect::<Vec<_>>());
    let mut top_stalled_cores: Vec<CoreStallSummary> =
        core_totals.into_iter().filter(|c| c.total() > 0).collect();
    top_stalled_cores.sort_by(|a, b| b.total().cmp(&a.total()).then(a.core.cmp(&b.core)));
    top_stalled_cores.truncate(8);

    ScalingPoint {
        cores: config.num_cores,
        banks: config.llc.banks,
        workloads,
        rows,
        per_bank,
        top_stalled_cores,
        stall_imbalance,
        replay_wraps: outcome.total_replay_wraps(),
    }
}

/// One policy's scores over a sweep's evaluations, its speedups taken over `baseline`
/// in the same sweep.
fn policy_row(
    evals: &[MixEvaluation],
    policy: PolicyKind,
    baseline: PolicyKind,
) -> PolicyScalingRow {
    let of_policy: Vec<&MixEvaluation> = evals.iter().filter(|e| e.policy == policy).collect();
    let mean = |metric: fn(&MixEvaluation) -> f64| {
        amean(&of_policy.iter().map(|&e| metric(e)).collect::<Vec<_>>())
    };
    PolicyScalingRow {
        policy: policy.label(),
        mean_weighted_speedup: mean(MixEvaluation::weighted_speedup),
        speedup_over_baseline: gmean(&runner::speedups_over_baseline(evals, policy, baseline)),
        mean_fairness: mean(MixEvaluation::fairness),
        mean_bank_stall_share: mean(MixEvaluation::bank_stall_share),
        mean_stall_imbalance: mean(MixEvaluation::stall_imbalance),
    }
}

/// The study of each core count, or an error naming the first count no study has.
fn studies(core_counts: &[usize]) -> Result<Vec<StudyKind>, String> {
    core_counts
        .iter()
        .map(|&cores| {
            StudyKind::by_cores(cores).ok_or_else(|| {
                format!("no study with {cores} cores (4/8/16/20/24/32/48/64/128/256)")
            })
        })
        .collect()
}

/// Run the study over `core_counts` (each must name a known study; 32/48/64 are the
/// intended values, but any Table 6 core count works for comparison points).
pub fn run(
    scale: ExperimentScale,
    core_counts: &[usize],
    contention: bool,
    mixes_override: Option<usize>,
) -> Result<ScalingStudyResult, String> {
    let points = studies(core_counts)?
        .into_iter()
        .map(|study| run_point(scale, study, contention, mixes_override))
        .collect();
    Ok(ScalingStudyResult {
        scale: scale.label().to_string(),
        contention,
        points,
    })
}

/// The table columns of a [`PolicyScalingRow`], in [`row_cells`] order.
const ROW_COLUMNS: [&str; 6] = [
    "policy",
    "wt.speedup",
    "vs TA-DRRIP",
    "fairness",
    "bank-stall share",
    "stall imbalance",
];

fn row_cells(row: &PolicyScalingRow) -> Vec<String> {
    vec![
        row.policy.clone(),
        format!("{:.4}", row.mean_weighted_speedup),
        pct(row.speedup_over_baseline - 1.0),
        format!("{:.4}", row.mean_fairness),
        format!("{:.4}", row.mean_bank_stall_share),
        format!("{:.2}", row.mean_stall_imbalance),
    ]
}

/// Render the study as text tables (one policy table + one bank table per core count).
pub fn render(r: &ScalingStudyResult) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "Many-core scaling study ({} scale, {} banking)\n",
        r.scale,
        if r.contention {
            "cycle-accounted contended"
        } else {
            "flat latency-only"
        }
    ));
    for p in &r.points {
        out.push_str(&format!(
            "\n== {} cores, {} LLC banks, {} workloads",
            p.cores, p.banks, p.workloads
        ));
        if p.replay_wraps > 0 {
            out.push_str(&format!(", replay wraps {}", p.replay_wraps));
        }
        out.push_str(" ==\n");
        out.push_str(&render_table(
            &ROW_COLUMNS,
            &p.rows.iter().map(row_cells).collect::<Vec<_>>(),
        ));
        out.push_str("\nPer-bank occupancy/stalls (TA-DRRIP runs):\n");
        out.push_str(&render_table(
            &[
                "bank",
                "requests",
                "busy share",
                "stall share",
                "peak waiting",
            ],
            &p.per_bank
                .iter()
                .map(|b| {
                    vec![
                        b.bank.to_string(),
                        b.requests.to_string(),
                        format!("{:.4}", b.busy_share),
                        format!("{:.4}", b.stall_share),
                        b.peak_waiting.to_string(),
                    ]
                })
                .collect::<Vec<_>>(),
        ));
        if !p.top_stalled_cores.is_empty() {
            out.push_str(&format!(
                "\nMost-stalled cores (TA-DRRIP runs, stall imbalance {:.2}):\n",
                p.stall_imbalance
            ));
            out.push_str(&render_table(
                &[
                    "core",
                    "llc queue",
                    "llc admission",
                    "mshr",
                    "dram",
                    "total",
                ],
                &p.top_stalled_cores
                    .iter()
                    .map(|c| {
                        vec![
                            c.core.to_string(),
                            c.llc_queue_cycles.to_string(),
                            c.llc_admission_cycles.to_string(),
                            c.mshr_stall_cycles.to_string(),
                            c.dram_stall_cycles.to_string(),
                            c.total().to_string(),
                        ]
                    })
                    .collect::<Vec<_>>(),
            ));
        }
    }
    out
}

/// One (memory system, policy) cell of the head-to-head study.
#[derive(Debug, Clone)]
pub struct MemsysPolicyRow {
    /// Memory-system label (`flat` / `fcfs` / `frfcfs+nuca`).
    pub memsys: String,
    /// The policy's scores under this memory system; its speedup is over TA-DRRIP
    /// under the *same* memory system (each variant is its own baseline frame).
    pub row: PolicyScalingRow,
}

/// The memory-system head-to-head at one core count: every policy of the lineup
/// evaluated under every [`MemSystem`] variant on the same mixes.
#[derive(Debug, Clone)]
pub struct MemsysPoint {
    /// Cores (= applications per mix).
    pub cores: usize,
    /// Workload mixes evaluated per variant.
    pub workloads: usize,
    /// One row per (memory system, policy), grouped by memory system in
    /// [`MemSystem::all`] order, baseline policy first within each group.
    pub rows: Vec<MemsysPolicyRow>,
}

/// The full memory-system head-to-head study.
#[derive(Debug, Clone)]
pub struct MemsysStudyResult {
    /// Scale the study ran at.
    pub scale: String,
    /// One entry per core count, in request order.
    pub points: Vec<MemsysPoint>,
}

/// Run the memory-system head-to-head at one core count: the scaling lineup under
/// flat, FCFS-contended and FR-FCFS+NUCA memory systems on identical mixes, so any
/// ranking shift between rows is attributable to the memory model alone.
pub fn run_memsys_point(
    scale: ExperimentScale,
    study: StudyKind,
    mixes_override: Option<usize>,
) -> MemsysPoint {
    let count = mixes_override
        .unwrap_or_else(|| scale.mixes_for(study))
        .max(1);
    let mixes = generate_mixes(study, count, scale.seed());
    let sources: Vec<MixSource> = mixes.iter().cloned().map(MixSource::synthetic).collect();
    let policies = scaling_lineup();
    let baseline = policies[0];
    let mut rows = Vec::new();
    for memsys in MemSystem::all() {
        let config = scale.scaling_config_memsys(study.num_cores(), memsys);
        let outcome = runner::sweep_policies_on_sources_with(
            &config,
            &sources,
            &policies,
            scale.instructions_per_core(),
            scale.seed(),
            &ReplayConfig::default(),
        )
        .expect("synthetic sweeps cannot fail to materialize");
        rows.extend(policies.iter().map(|&p| MemsysPolicyRow {
            memsys: memsys.label().to_string(),
            row: policy_row(&outcome.evaluations, p, baseline),
        }));
    }
    MemsysPoint {
        cores: study.num_cores(),
        workloads: mixes.len(),
        rows,
    }
}

/// Run the memory-system head-to-head over `core_counts`.
pub fn run_memsys(
    scale: ExperimentScale,
    core_counts: &[usize],
    mixes_override: Option<usize>,
) -> Result<MemsysStudyResult, String> {
    let points = studies(core_counts)?
        .into_iter()
        .map(|study| run_memsys_point(scale, study, mixes_override))
        .collect();
    Ok(MemsysStudyResult {
        scale: scale.label().to_string(),
        points,
    })
}

/// Render the memory-system head-to-head as one table per core count.
pub fn render_memsys(r: &MemsysStudyResult) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "Memory-system head-to-head ({} scale): flat vs FCFS-contended vs FR-FCFS+NUCA\n",
        r.scale
    ));
    for p in &r.points {
        out.push_str(&format!(
            "\n== {} cores, {} workloads per memory system ==\n",
            p.cores, p.workloads
        ));
        out.push_str(&render_table(
            &[&["memsys"][..], &ROW_COLUMNS].concat(),
            &p.rows
                .iter()
                .map(|MemsysPolicyRow { memsys, row }| {
                    let mut cells = vec![memsys.clone()];
                    cells.extend(row_cells(row));
                    cells
                })
                .collect::<Vec<_>>(),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_point_reports_all_policies_and_banks() {
        let point = run_point(ExperimentScale::Smoke, StudyKind::Cores32, true, Some(1));
        assert_eq!(point.cores, 32);
        assert_eq!(point.rows.len(), scaling_lineup().len());
        assert_eq!(point.per_bank.len(), point.banks);
        assert_eq!(point.replay_wraps, 0, "synthetic runs never wrap");
        assert!(point.rows.iter().all(|r| r.mean_weighted_speedup > 0.0));
        assert!(point
            .rows
            .iter()
            .all(|r| (0.0..=1.0).contains(&r.mean_fairness)));
        assert!(
            point.per_bank.iter().any(|b| b.requests > 0),
            "banks must see traffic"
        );
        // TA-DRRIP's speedup over itself is exactly 1.
        assert!((point.rows[0].speedup_over_baseline - 1.0).abs() < 1e-12);
    }

    #[test]
    fn render_includes_metrics_and_banks() {
        let r = run(ExperimentScale::Smoke, &[32], true, Some(1)).unwrap();
        let text = render(&r);
        assert!(text.contains("32 cores"));
        assert!(text.contains("bank-stall share"));
        assert!(text.contains("Per-bank occupancy/stalls"));
        assert!(text.contains("TA-DRRIP"));
    }

    #[test]
    fn unknown_core_count_is_an_error() {
        assert!(run(ExperimentScale::Smoke, &[12], true, Some(1)).is_err());
        assert!(run_memsys(ExperimentScale::Smoke, &[12], Some(1)).is_err());
    }

    #[test]
    fn contended_point_attributes_stalls_to_cores() {
        let point = run_point(ExperimentScale::Smoke, StudyKind::Cores32, true, Some(1));
        assert!(
            !point.top_stalled_cores.is_empty(),
            "a contended 32-core run must attribute some stalls"
        );
        assert!(point.stall_imbalance >= 1.0);
        // Descending by total, tie-broken by core index.
        for w in point.top_stalled_cores.windows(2) {
            assert!(w[0].total() >= w[1].total());
        }
        let text = render(&ScalingStudyResult {
            scale: "smoke".into(),
            contention: true,
            points: vec![point],
        });
        assert!(text.contains("Most-stalled cores"));
        assert!(text.contains("stall imbalance"));
    }

    #[test]
    fn memsys_head_to_head_covers_every_variant_and_policy() {
        let point = run_memsys_point(ExperimentScale::Smoke, StudyKind::Cores4, Some(1));
        let lineup = scaling_lineup().len();
        assert_eq!(point.rows.len(), 3 * lineup);
        for (i, memsys) in MemSystem::all().iter().enumerate() {
            let group = &point.rows[i * lineup..(i + 1) * lineup];
            assert!(group.iter().all(|r| r.memsys == memsys.label()));
            // TA-DRRIP is its own baseline within each memory-system frame.
            assert!((group[0].row.speedup_over_baseline - 1.0).abs() < 1e-12);
            assert!(group.iter().all(|r| r.row.mean_weighted_speedup > 0.0));
        }
        // Shares are well-formed fractions; the flat variant has no admission
        // stalls to attribute, so its imbalance is either 0 (nothing stalled) or
        // a proper max/mean ratio >= 1.
        for MemsysPolicyRow { row: r, .. } in &point.rows {
            assert!((0.0..=1.0).contains(&r.mean_bank_stall_share));
            assert!(r.mean_stall_imbalance == 0.0 || r.mean_stall_imbalance >= 1.0);
        }
        let text = render_memsys(&MemsysStudyResult {
            scale: "smoke".into(),
            points: vec![point],
        });
        assert!(text.contains("frfcfs+nuca"));
        assert!(text.contains("head-to-head"));
    }
}
