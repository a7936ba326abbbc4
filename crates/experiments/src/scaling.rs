//! Many-core scaling study: the paper's policy comparison beyond 24 cores.
//!
//! The paper stops at 24 cores ("the number of cores is equal to or greater than the
//! associativity" being the regime of interest); this module extends the comparison to
//! 32 to 256 cores on the core-count-generic machines of
//! [`ExperimentScale::scaling_config_memsys`] with the cycle-accounted bank contention
//! model of `cache_sim::bank` enabled — finite service ports, bounded per-bank queues and
//! MSHR back-pressure — so policies are differentiated not only by hit rates but by the
//! bank pressure they induce. Following fairness-oriented LLC
//! management work (LFOC/LFOC+, Saez et al.), each policy is scored on three axes:
//!
//! * **throughput** — mean weighted speedup over the workload mixes, plus the geometric
//!   mean of the per-mix speedup over TA-DRRIP (the paper's headline presentation),
//! * **fairness** — mean min/max ratio of normalized IPCs ([`mc_metrics::fairness`]),
//! * **bank-stall share** — the fraction of LLC bank time requests spent queued or
//!   refused admission rather than in service ([`MixEvaluation::bank_stall_share`]).
//!
//! The baseline's runs are also broken down per LLC bank (requests, busy and stall
//! shares, peak waiters) and per core (the eight cores with the most attributed stall
//! cycles, by cause).
//!
//! The study is the registry's `scale` experiment: its runs go through the
//! corpus-backed parallel sweep engine (`runner::sweep_policies_on_sources_with`'s grid)
//! and are bit-identical to the serial reference, which the tests enforce at 64 cores.
//! `repro scale --cores 32,48,64` drives it from the command line; `--flat` re-runs the
//! same geometry under the seed's latency-only banking for an A/B comparison, and
//! `--memsys` runs every [`MemSystem`] on the same mixes instead, one
//! head-to-head table per core count.

use mc_metrics::{arithmetic_mean, geometric_mean};

use crate::experiment::{Experiment, StudyRun, Variant};
use crate::policies::PolicyKind;
use crate::report::{pct, Table};
use crate::runner::{self, MixEvaluation};
use crate::scale::{ExperimentScale, MemSystem};

/// The columns of [`policy_row`].
const ROW_COLUMNS: [&str; 6] = [
    "policy",
    "wt.speedup",
    "vs TA-DRRIP",
    "fairness",
    "bank-stall share",
    "stall imbalance",
];

/// One policy's scores over a sweep's evaluations, its speedup taken over `baseline` in
/// the same sweep: mean weighted speedup, geometric-mean speedup over the baseline, and
/// the mean fairness, bank-stall share and per-core stall imbalance (max/mean attributed
/// stall cycles; 1.0 = balanced, 0.0 = no memory-system stalls at all).
fn policy_row(evals: &[MixEvaluation], policy: PolicyKind, baseline: PolicyKind) -> Vec<String> {
    let of_policy: Vec<&MixEvaluation> = evals.iter().filter(|e| e.policy == policy).collect();
    let mean = |metric: fn(&MixEvaluation) -> f64| {
        arithmetic_mean(&of_policy.iter().map(|&e| metric(e)).collect::<Vec<_>>())
    };
    let speedup = geometric_mean(&runner::speedups_over_baseline(evals, policy, baseline));
    vec![
        policy.label(),
        format!("{:.4}", mean(MixEvaluation::weighted_speedup)),
        pct(speedup - 1.0),
        format!("{:.4}", mean(MixEvaluation::fairness)),
        format!("{:.4}", mean(MixEvaluation::bank_stall_share)),
        format!("{:.2}", mean(MixEvaluation::stall_imbalance)),
    ]
}

/// The memory-system head-to-head: one table per core count whose rows are grouped by
/// memory system, every group its own baseline frame.
pub(crate) fn head_to_head(
    exp: &Experiment,
    scale: ExperimentScale,
    runs: &[StudyRun],
) -> Vec<Table> {
    let (policies, baseline) = (&exp.policies, exp.policies[0]);
    let heading = Table {
        title: format!(
            "Memory-system head-to-head ({} scale): flat vs FCFS-contended vs FR-FCFS+NUCA",
            scale.label()
        ),
        ..Table::default()
    };
    let points = runs.iter().map(|run| {
        let rows = run.variants.iter().flat_map(|(memsys, evals)| {
            policies.iter().map(move |&p| {
                std::iter::once(memsys.clone())
                    .chain(policy_row(evals, p, baseline))
                    .collect()
            })
        });
        Table::new(
            format!(
                "== {} cores, {} workloads per memory system ==",
                run.study.num_cores(),
                run.mixes
            ),
            std::iter::once("memsys").chain(ROW_COLUMNS),
            rows.collect(),
        )
    });
    std::iter::once(heading).chain(points).collect()
}

/// The study's tables under its first memory system: each core count gets its policy
/// scores, the per-bank occupancy/stall table and the most-stalled cores of the
/// baseline's runs.
pub(crate) fn tables(exp: &Experiment, scale: ExperimentScale, runs: &[StudyRun]) -> Vec<Table> {
    let (policies, baseline) = (&exp.policies, exp.policies[0]);
    let flat = matches!(&exp.variant, Variant::MemSys(s) if s.first() == Some(&MemSystem::Flat));
    let heading = format!(
        "Many-core scaling study ({} scale, {} banking)",
        scale.label(),
        if flat {
            "flat latency-only"
        } else {
            "cycle-accounted contended"
        }
    );
    let mut tables = vec![Table {
        title: heading,
        ..Table::default()
    }];
    for run in runs {
        let evals = &run.variants[0].1;
        let (cores, banks) = (run.study.num_cores(), evals[0].llc_banks.len());
        let mut title = format!(
            "== {cores} cores, {banks} LLC banks, {} workloads",
            run.mixes
        );
        if run.wraps > 0 {
            title += &format!(", replay wraps {}", run.wraps);
        }
        let rows = policies.iter().map(|&p| policy_row(evals, p, baseline));
        tables.push(Table::new(title + " ==", ROW_COLUMNS, rows.collect()));

        // Per-bank aggregation over the baseline policy's runs.
        let base_evals: Vec<&MixEvaluation> =
            evals.iter().filter(|e| e.policy == baseline).collect();
        let total_cycles: u64 = base_evals.iter().map(|e| e.final_cycle).sum();
        let per_bank = (0..banks).map(|bank| {
            let stats = base_evals.iter().map(|e| &e.llc_banks[bank]);
            let requests: u64 = stats.clone().map(|b| b.requests).sum();
            let busy: u64 = stats.clone().map(|b| b.busy_cycles).sum();
            let stall: u64 = stats.clone().map(|b| b.stall_cycles()).sum();
            let peak = stats.map(|b| b.peak_waiting).max().unwrap_or(0);
            let busy_share = match total_cycles {
                0 => 0.0,
                total => busy as f64 / total as f64,
            };
            vec![
                bank.to_string(),
                requests.to_string(),
                format!("{busy_share:.4}"),
                format!("{:.4}", cache_sim::bank::stall_share(stall, busy)),
                peak.to_string(),
            ]
        });
        tables.push(Table::new(
            "Per-bank occupancy/stalls (TA-DRRIP runs):",
            [
                "bank",
                "requests",
                "busy share",
                "stall share",
                "peak waiting",
            ],
            per_bank.collect(),
        ));

        // Per-core stall attribution over the baseline policy's runs: LLC bank queue,
        // LLC admission, MSHR and DRAM (queue and admission) cycles.
        let per_core: Vec<[u64; 4]> = (0..cores)
            .map(|core| {
                let mut cycles = [0u64; 4];
                for c in base_evals.iter().filter_map(|e| e.core_stalls.get(core)) {
                    cycles[0] += c.llc_queue_cycles;
                    cycles[1] += c.llc_admission_cycles;
                    cycles[2] += c.mshr_stall_cycles;
                    cycles[3] += c.dram_queue_cycles + c.dram_admission_cycles;
                }
                cycles
            })
            .collect();
        let totals: Vec<u64> = per_core.iter().map(|c| c.iter().sum()).collect();
        let mut stalled: Vec<usize> = (0..per_core.len()).filter(|&c| totals[c] > 0).collect();
        stalled.sort_by(|&a, &b| totals[b].cmp(&totals[a]).then(a.cmp(&b)));
        if !stalled.is_empty() {
            let rows = stalled.iter().take(8).map(|&core| {
                let cells = std::iter::once(core as u64).chain(per_core[core]);
                cells.chain([totals[core]]).map(|v| v.to_string()).collect()
            });
            tables.push(Table::new(
                format!(
                    "Most-stalled cores (TA-DRRIP runs, stall imbalance {:.2}):",
                    mc_metrics::stall_imbalance(&totals)
                ),
                [
                    "core",
                    "llc queue",
                    "llc admission",
                    "mshr",
                    "dram",
                    "total",
                ],
                rows.collect(),
            ));
        }
    }
    tables
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{find, run, Mixes, Sources, Summary};
    use crate::report::{render, Layout};
    use workloads::StudyKind;

    /// The scaling study at smoke scale over one mix per core count, under `systems`,
    /// summarized as `summary`.
    fn smoke(cores: &[StudyKind], systems: &[MemSystem], summary: Summary) -> Vec<Table> {
        let exp = Experiment {
            studies: cores.to_vec(),
            variant: Variant::MemSys(systems.to_vec()),
            summaries: vec![summary],
            mixes: Mixes::Exactly(1),
            ..find("scale").unwrap()
        };
        run(&exp, ExperimentScale::Smoke, &Sources::Generated).unwrap()
    }

    fn cell(row: &[String], column: &str) -> f64 {
        let at = ROW_COLUMNS.iter().position(|c| *c == column).unwrap();
        row[at].trim_end_matches('%').parse().unwrap()
    }

    #[test]
    fn smoke_point_reports_all_policies_and_banks() {
        let tables = smoke(
            &[StudyKind::Cores32],
            &[MemSystem::FcfsContended],
            Summary::Scaling,
        );
        let banks = ExperimentScale::Smoke
            .scaling_config_memsys(32, MemSystem::FcfsContended)
            .llc
            .banks;
        let (policies, per_bank) = (&tables[1], &tables[2]);
        assert_eq!(
            policies.title,
            format!("== 32 cores, {banks} LLC banks, 1 workloads ==")
        );
        assert_eq!(policies.rows.len(), find("scale").unwrap().policies.len());
        assert_eq!(per_bank.rows.len(), banks);
        assert!(policies.rows.iter().all(|r| cell(r, "wt.speedup") > 0.0));
        assert!(policies
            .rows
            .iter()
            .all(|r| (0.0..=1.0).contains(&cell(r, "fairness"))));
        assert!(
            per_bank.rows.iter().any(|b| b[1] != "0"),
            "banks must see traffic"
        );
        // TA-DRRIP's speedup over itself is exactly 1.
        assert_eq!(policies.rows[0][0], "TA-DRRIP");
        assert_eq!(policies.rows[0][2], "+0.00%");
    }

    #[test]
    fn render_includes_metrics_and_banks() {
        let text = render(
            &smoke(
                &[StudyKind::Cores32],
                &[MemSystem::FcfsContended],
                Summary::Scaling,
            ),
            Layout::Spaced,
        );
        assert!(text.starts_with("Many-core scaling study (smoke scale, cycle-accounted"));
        assert!(text.contains("32 cores"));
        assert!(text.contains("bank-stall share"));
        assert!(text.contains("Per-bank occupancy/stalls"));
        assert!(text.contains("TA-DRRIP"));
        let flat = render(
            &smoke(&[StudyKind::Cores32], &[MemSystem::Flat], Summary::Scaling),
            Layout::Spaced,
        );
        assert!(flat.starts_with("Many-core scaling study (smoke scale, flat latency-only"));
    }

    #[test]
    fn unknown_core_count_is_an_error() {
        let err = StudyKind::by_cores(12).unwrap_err();
        assert!(
            err.contains("12 cores") && err.contains("|128|256"),
            "{err}"
        );
    }

    #[test]
    fn contended_point_attributes_stalls_to_cores() {
        let tables = smoke(
            &[StudyKind::Cores32],
            &[MemSystem::FcfsContended],
            Summary::Scaling,
        );
        let stalled = tables
            .iter()
            .find(|t| t.title.starts_with("Most-stalled cores"))
            .expect("a contended 32-core run must attribute some stalls");
        let imbalance: f64 = stalled.title
            ["Most-stalled cores (TA-DRRIP runs, stall imbalance ".len()..]
            .trim_end_matches("):")
            .parse()
            .unwrap();
        assert!(imbalance >= 1.0);
        assert!(stalled.rows.len() <= 8);
        // Descending by total, tie-broken by core index.
        let totals: Vec<(u64, usize)> = stalled
            .rows
            .iter()
            .map(|r| (r[5].parse().unwrap(), r[0].parse().unwrap()))
            .collect();
        for w in totals.windows(2) {
            assert!(w[0].0 > w[1].0 || (w[0].0 == w[1].0 && w[0].1 < w[1].1));
        }
    }

    #[test]
    fn memsys_head_to_head_covers_every_variant_and_policy() {
        let tables = smoke(&[StudyKind::Cores4], &MemSystem::all(), Summary::HeadToHead);
        assert!(tables[0].title.contains("head-to-head"));
        let point = &tables[1];
        let lineup = find("scale").unwrap().policies.len();
        assert_eq!(point.rows.len(), 3 * lineup);
        for (i, memsys) in MemSystem::all().iter().enumerate() {
            let group = &point.rows[i * lineup..(i + 1) * lineup];
            assert!(group.iter().all(|r| r[0] == memsys.label()));
            // TA-DRRIP is its own baseline within each memory-system frame.
            assert_eq!(group[0][3], "+0.00%");
            assert!(group.iter().all(|r| cell(&r[1..], "wt.speedup") > 0.0));
        }
        // Shares are well-formed fractions; the flat variant has no admission stalls to
        // attribute, so its imbalance is either 0 (nothing stalled) or a proper max/mean
        // ratio >= 1.
        for row in &point.rows {
            assert!((0.0..=1.0).contains(&cell(&row[1..], "bank-stall share")));
            let imbalance = cell(&row[1..], "stall imbalance");
            assert!(imbalance == 0.0 || imbalance >= 1.0);
        }
        assert!(render(&tables, Layout::Spaced).contains("frfcfs+nuca"));
    }
}
