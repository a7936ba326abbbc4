//! Every figure, table and study of the reproduction as a value, and the one way to run
//! it.
//!
//! Nearly every result in the paper has one shape: a policy lineup runs over a study's
//! workload mixes, each mix's weighted speedup is normalized to the TA-DRRIP baseline,
//! and the ratios are summarized one way or another. An [`Experiment`] says which
//! studies, which configuration [`Variant`]s, which policies (baseline first) and which
//! [`Summary`] kinds; [`registry`] lists every experiment in paper order, [`run`] runs
//! any of them and returns [`Table`]s, and `report::render` prints those. `repro` is a
//! thin command line over the registry.
//!
//! [`run`] evaluates every (variant, policy) cell of a study over one materialization
//! per mix: Figure 7's larger LLCs, the ablation's ADAPT configurations and the scaling
//! study's memory systems all replay the same shared private stages (see
//! [`runner`]), and a cell that two variants share — the baseline under
//! an unchanged configuration — is evaluated once.

use std::collections::BTreeMap;

use adapt_core::AdaptConfig;
use cache_sim::config::SystemConfig;
use mc_metrics::{arithmetic_mean, relative_improvement, MulticoreMetrics};
use trace_io::{Corpus, TraceError};
use workloads::{generate_mixes, StudyKind};

use crate::ablation::Sweep;
use crate::policies::PolicyKind;
use crate::report::{pct, Layout, Series, Table};
use crate::runner::{self, Cell, MixEvaluation, MixSource, ReplayConfig};
use crate::scale::{ExperimentScale, MemSystem};
use crate::{scaling, table2, table4};

/// One figure, table or study: what to sweep and how to summarize it.
#[derive(Debug, Clone)]
pub struct Experiment {
    /// The `repro` subcommand that runs it.
    pub name: &'static str,
    /// What it reproduces, for `repro`'s usage text.
    pub title: &'static str,
    /// The studies it sweeps, in report order.
    pub studies: Vec<StudyKind>,
    /// The configurations every policy runs under.
    pub variant: Variant,
    /// The policy lineup, baseline first: every speedup is over the baseline on the same
    /// mix and variant.
    pub policies: Vec<PolicyKind>,
    /// How the sweep becomes tables, in print order.
    pub summaries: Vec<Summary>,
    /// How many mixes each study evaluates.
    pub mixes: Mixes,
}

/// The configurations an experiment runs each of its policies under.
#[derive(Debug, Clone)]
pub enum Variant {
    /// The scale's configuration of each study ([`ExperimentScale::system_config`]).
    Paper,
    /// Figure 7: the LLC grown to each (label, paper size in bytes, associativity) with
    /// its set count kept.
    Llc(Vec<(&'static str, u64, usize)>),
    /// The ablation sweeps: ADAPT_bp32 under every configuration of every sweep.
    Adapt(Vec<Sweep>),
    /// The scaling study's memory systems on the core-count-generic geometry
    /// ([`ExperimentScale::scaling_config_memsys`]).
    MemSys(Vec<MemSystem>),
}

/// How the sweep of an experiment is summarized into tables: one kind per table shape.
#[derive(Debug, Clone, PartialEq)]
pub enum Summary {
    /// Per-mix speedups of each policy, sorted into an s-curve, one table per study
    /// (Figure 3).
    SCurve,
    /// [`Summary::SCurve`] with each study's table headed as a panel of Figure 8.
    SCurvePanels,
    /// The mean speedup of each policy on the first study (Figure 1a).
    Figure1a,
    /// The second policy's mean speedup under each (study, LLC) variant (Figure 7).
    LlcSpeedups,
    /// The second policy's mean speedup under each ADAPT configuration of
    /// [`Variant::Adapt`], one table per ablation sweep.
    SweepSpeedups,
    /// The lineup comes in (insertion, bypass) pairs — the baseline is the first
    /// insertion flavour — one row per named family (Figure 6).
    BypassPairs(&'static [&'static str]),
    /// One policy's mean per-application MPKI reduction, thrashing applications and the
    /// rest (Figures 1b and 1c).
    MpkiReduction(PolicyKind),
    /// Every policy's mean per-application MPKI reduction and IPC speedup, thrashing
    /// applications and the rest (Figures 4 and 5).
    PerApp,
    /// The second policy's mean improvement on each multi-core metric, studies as
    /// columns (Table 7).
    MetricImprovements,
    /// Throughput, fairness and bank-stall tables per core count under the first memory
    /// system (`experiments::scaling`).
    Scaling,
    /// Every memory system head to head, one table per core count
    /// (`experiments::scaling`).
    HeadToHead,
    /// Hardware cost (Table 2).
    Cost,
    /// Benchmark classification, paper vs measured (Table 4).
    Classification,
}

/// How many mixes each study of an experiment evaluates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mixes {
    /// The scale's count for the study ([`ExperimentScale::mixes_for`]).
    Scale,
    /// The scale's count, capped.
    AtMost(usize),
    /// Exactly this many (at least one).
    Exactly(usize),
}

impl Mixes {
    fn count(self, scale: ExperimentScale, study: StudyKind) -> usize {
        match self {
            Mixes::Scale => scale.mixes_for(study),
            Mixes::AtMost(n) => n.min(scale.mixes_for(study)).max(1),
            Mixes::Exactly(n) => n.max(1),
        }
    }
}

/// Where an experiment's mixes come from.
pub enum Sources<'a> {
    /// Each study's mixes from the live generators, at the scale's seed.
    Generated,
    /// The mixes of a materialized corpus — one study, whatever the experiment lists —
    /// replayed at the corpus seed under a replay budget.
    Corpus(&'a Corpus, &'a ReplayConfig),
}

impl Experiment {
    /// Whether `repro all` runs it: every experiment on the paper's own studies.
    pub fn in_paper(&self) -> bool {
        self.studies.iter().all(|s| !s.is_scaling())
    }

    /// How its tables follow one another when printed, as its first summary lays them
    /// out.
    pub fn layout(&self) -> Layout {
        match self.summaries.first() {
            Some(Summary::Cost | Summary::SweepSpeedups) => Layout::Packed,
            Some(Summary::SCurvePanels) => Layout::Panels,
            _ => Layout::Spaced,
        }
    }
}

/// Every experiment, the paper's artifacts in paper order and then the scaling study.
pub fn registry() -> Vec<Experiment> {
    use PolicyKind::*;
    use StudyKind::*;
    use Summary::*;
    let lineup = [vec![TaDrrip], PolicyKind::figure3_lineup()].concat();
    let fig1 = vec![TaDrrip, TaDrripSd(64), TaDrripSd(128), TaDrripForced];
    let pairs = vec![
        TaDrrip,
        TaDrripBypass,
        Ship,
        ShipBypass,
        Eaf,
        EafBypass,
        AdaptIns,
        AdaptBp32,
    ];
    let llcs = vec![("24MB/24-way", 24 << 20, 24), ("32MB/32-way", 32 << 20, 32)];
    let adapt = || vec![TaDrrip, AdaptBp32];
    let new = |name, title, studies: &[StudyKind], policies, summary| Experiment {
        name,
        title,
        studies: studies.to_vec(),
        variant: Variant::Paper,
        policies,
        summaries: vec![summary],
        mixes: Mixes::Scale,
    };
    vec![
        new("table2", "Table 2: hardware cost", &[Cores24], vec![], Cost),
        new(
            "table4",
            "Table 4: benchmark classification, paper vs measured",
            &[Cores16],
            vec![],
            Classification,
        ),
        Experiment {
            summaries: vec![Figure1a, MpkiReduction(TaDrripForced)],
            ..new(
                "fig1",
                "Figure 1: forcing BRRIP on thrashing applications",
                &[Cores16],
                fig1,
                Figure1a,
            )
        },
        new(
            "fig3",
            "Figure 3: 16-core weighted-speedup s-curves",
            &[Cores16],
            lineup.clone(),
            SCurve,
        ),
        new(
            "fig45",
            "Figures 4 & 5: per-application MPKI / IPC impact",
            &[Cores16],
            lineup.clone(),
            PerApp,
        ),
        new(
            "fig6",
            "Figure 6: insertion vs bypass",
            &[Cores16],
            pairs,
            BypassPairs(&FAMILIES),
        ),
        Experiment {
            variant: Variant::Llc(llcs),
            ..new(
                "fig7",
                "Figure 7: larger caches (24 MB / 32 MB)",
                &[Cores16, Cores20, Cores24],
                adapt(),
                LlcSpeedups,
            )
        },
        new(
            "fig8",
            "Figure 8: 4/8/20/24-core scalability s-curves",
            &[Cores4, Cores8, Cores20, Cores24],
            lineup.clone(),
            SCurvePanels,
        ),
        new(
            "table7",
            "Table 7: alternative multi-core metrics",
            &StudyKind::paper_studies(),
            adapt(),
            MetricImprovements,
        ),
        Experiment {
            variant: Variant::Adapt(crate::ablation::sweeps()),
            mixes: Mixes::AtMost(4),
            ..new(
                "ablation",
                "Design-parameter sweeps (interval, sampled sets, bypass ratio, ranges)",
                &[Cores16],
                adapt(),
                SweepSpeedups,
            )
        },
        Experiment {
            variant: Variant::MemSys(vec![MemSystem::FcfsContended]),
            ..new(
                "scale",
                "Many-core scaling study beyond the paper (--cores, --mixes, --flat, --memsys)",
                &[Cores32, Cores48, Cores64],
                lineup,
                Scaling,
            )
        },
    ]
}

/// Figure 6's policy families, in the order of their (insertion, bypass) pairs.
const FAMILIES: [&str; 4] = ["TA-DRRIP", "SHiP", "EAF", "ADAPT"];

/// The registered experiment called `name`.
pub fn find(name: &str) -> Option<Experiment> {
    registry().into_iter().find(|e| e.name == name)
}

/// One study's sweep: every variant's evaluations in (mix, policy) order.
pub(crate) struct StudyRun {
    pub study: StudyKind,
    pub mixes: usize,
    /// Replay wraps summed over the mixes (0 unless a corpus ran short).
    pub wraps: u64,
    /// (label, evaluations) per variant, in [`Variant`] order.
    pub variants: Vec<(String, Vec<MixEvaluation>)>,
}

/// Run an experiment at `scale` and summarize it. Fails only on a corpus that cannot be
/// read: generated sources always run.
pub fn run(
    exp: &Experiment,
    scale: ExperimentScale,
    sources: &Sources,
) -> Result<Vec<Table>, TraceError> {
    let studies = match sources {
        Sources::Generated => exp.studies.clone(),
        Sources::Corpus(corpus, _) => vec![runner::corpus_study(corpus)?],
    };
    let runs = if exp.policies.is_empty() {
        Vec::new()
    } else {
        let sweeps = studies
            .into_iter()
            .map(|s| sweep_study(exp, scale, s, sources));
        sweeps.collect::<Result<_, _>>()?
    };
    Ok(exp
        .summaries
        .iter()
        .flat_map(|summary| summarize(summary, exp, scale, &runs))
        .collect())
}

impl Variant {
    /// (label, system configuration, ADAPT configuration) of each variant of `study`.
    fn configs(
        &self,
        scale: ExperimentScale,
        study: StudyKind,
    ) -> Vec<(String, SystemConfig, Option<AdaptConfig>)> {
        match self {
            Variant::Paper => vec![(String::new(), scale.system_config(study), None)],
            Variant::Llc(llcs) => llcs
                .iter()
                .map(|&(label, bytes, ways)| {
                    let config = scale.system_config_with_llc(study, bytes, ways);
                    (label.to_string(), config, None)
                })
                .collect(),
            Variant::Adapt(sweeps) => {
                let base = scale.system_config(study);
                let points = sweeps.iter().flat_map(|sweep| &sweep.points);
                points
                    .map(|(label, adapt, interval)| {
                        let mut config = base.clone();
                        if let Some(multiple) = interval {
                            let misses = (base.interval_misses as f64 * multiple) as u64;
                            config.interval_misses = misses.max(1024);
                        }
                        (label.clone(), config, Some(*adapt))
                    })
                    .collect()
            }
            Variant::MemSys(systems) => systems
                .iter()
                .map(|&m| {
                    let config = scale.scaling_config_memsys(study.num_cores(), m);
                    (m.label().to_string(), config, None)
                })
                .collect(),
        }
    }
}

/// Sweep every (variant, policy) cell of one study over one materialization per mix.
fn sweep_study(
    exp: &Experiment,
    scale: ExperimentScale,
    study: StudyKind,
    sources: &Sources,
) -> Result<StudyRun, TraceError> {
    let variants = exp.variant.configs(scale, study);
    // Distinct configurations and cells; `columns[v][p]` is variant v's policy p.
    let mut configs: Vec<SystemConfig> = Vec::new();
    let mut cells: Vec<Cell> = Vec::new();
    let columns: Vec<Vec<usize>> = variants
        .iter()
        .map(|(_, config, adapt)| {
            let config = index_of(&mut configs, config.clone());
            let cell = |policy| Cell {
                config,
                policy,
                adapt: adapt.filter(|_| policy == PolicyKind::AdaptBp32),
            };
            exp.policies
                .iter()
                .map(|&policy| index_of(&mut cells, cell(policy)))
                .collect()
        })
        .collect();
    let (mixes, seed, replay) = match sources {
        Sources::Generated => {
            let mixes = generate_mixes(study, exp.mixes.count(scale, study), scale.seed());
            let mixes = mixes.into_iter().map(MixSource::synthetic).collect();
            (mixes, scale.seed(), ReplayConfig::default())
        }
        Sources::Corpus(corpus, replay) => {
            let llc_sets = configs[0].llc.geometry.num_sets();
            let mixes = runner::corpus_sources(corpus, llc_sets)?;
            (mixes, corpus.meta().seed, (*replay).clone())
        }
    };
    let instructions = scale.instructions_per_core();
    let outcome = runner::sweep_grid(&configs, &cells, &mixes, instructions, seed, &replay)?;
    let by_mix = outcome.evaluations.chunks(cells.len());
    Ok(StudyRun {
        study,
        mixes: mixes.len(),
        wraps: outcome.total_replay_wraps(),
        variants: variants
            .into_iter()
            .zip(columns)
            .map(|((label, ..), columns)| {
                let evals = by_mix
                    .clone()
                    .flat_map(|mix| columns.iter().map(|&c| mix[c].clone()));
                (label, evals.collect())
            })
            .collect(),
    })
}

/// The index of `item` in `items`, appending it first if it is new.
fn index_of<T: PartialEq>(items: &mut Vec<T>, item: T) -> usize {
    items.iter().position(|i| *i == item).unwrap_or_else(|| {
        items.push(item);
        items.len() - 1
    })
}

/// One multi-core metric of a mix's run (Table 7's rows).
type Metric = fn(&MulticoreMetrics) -> f64;

/// The columns of a table of mean speedups by configuration.
const SPEEDUP_HEADER: [&str; 2] = ["configuration", "speedup over TA-DRRIP"];

/// The tables of one summary kind.
fn summarize(
    summary: &Summary,
    exp: &Experiment,
    scale: ExperimentScale,
    runs: &[StudyRun],
) -> Vec<Table> {
    let mean = |evals: &[MixEvaluation], policy| {
        arithmetic_mean(&runner::speedups_over_baseline(
            evals,
            policy,
            exp.policies[0],
        ))
    };
    match summary {
        Summary::SCurve => runs.iter().map(|run| s_curve(exp, run, false)).collect(),
        Summary::SCurvePanels => runs.iter().map(|run| s_curve(exp, run, true)).collect(),
        Summary::Figure1a => {
            let rows = exp.policies[1..]
                .iter()
                .map(|&p| vec![p.label(), format!("{:.3}", mean(&runs[0].variants[0].1, p))]);
            let cores = runs[0].study.num_cores();
            let title = format!("Figure 1a: speedup over TA-DRRIP ({cores}-core workloads)");
            vec![Table::new(title, SPEEDUP_HEADER, rows.collect())]
        }
        Summary::LlcSpeedups => {
            let rows = runs.iter().flat_map(|run| {
                run.variants.iter().map(move |(label, evals)| {
                    let speedup = mean(evals, exp.policies[1]);
                    let cores = run.study.num_cores().to_string();
                    vec![
                        cores,
                        label.clone(),
                        format!("{speedup:.4}"),
                        pct(speedup - 1.0),
                    ]
                })
            });
            vec![Table::new(
                "Figure 7: ADAPT weighted speedup over TA-DRRIP with larger caches",
                ["cores", "LLC", "speedup", "gain"],
                rows.collect(),
            )]
        }
        Summary::SweepSpeedups => {
            let Variant::Adapt(sweeps) = &exp.variant else {
                panic!("{}: sweep speedups summarize ADAPT variants", exp.name);
            };
            let mut variants = runs[0].variants.iter();
            let tables = sweeps.iter().map(|sweep| {
                let points = variants.by_ref().take(sweep.points.len());
                let rows = points.map(|(label, evals)| {
                    vec![
                        label.clone(),
                        format!("{:.4}", mean(evals, exp.policies[1])),
                    ]
                });
                Table::new(sweep.title, SPEEDUP_HEADER, rows.collect())
            });
            tables.collect()
        }
        Summary::BypassPairs(families) => {
            let evals = &runs[0].variants[0].1;
            let rows = families
                .iter()
                .zip(exp.policies.chunks(2))
                .map(|(family, pair)| {
                    let (insertion, bypass) = (mean(evals, pair[0]), mean(evals, pair[1]));
                    vec![
                        family.to_string(),
                        format!("{insertion:.4}"),
                        format!("{bypass:.4}"),
                        pct(bypass - insertion),
                    ]
                });
            vec![Table::new(
                "Figure 6: weighted speedup over TA-DRRIP, insertion vs bypass",
                ["policy", "insertion", "bypass", "bypass gain"],
                rows.collect(),
            )]
        }
        Summary::MpkiReduction(policy) => {
            let evals = &runs[0].variants[0].1;
            let tables =
                [(true, "1b", ""), (false, "1c", "non-")].map(|(thrashing, panel, group)| {
                    let apps = per_app(evals, &exp.policies, &[*policy], thrashing).into_iter();
                    let rows = apps.map(|((app, _), (mpki, _))| vec![app, format!("{mpki:.1}")]);
                    Table::new(
                        format!(
                            "Figure {panel}: % reduction in MPKI, {group}thrashing applications"
                        ),
                        ["benchmark", "reduction %"],
                        rows.collect(),
                    )
                });
            tables.into()
        }
        Summary::PerApp => {
            let evals = &runs[0].variants[0].1;
            let tables = [(true, 4, ""), (false, 5, "non-")].map(|(thrashing, figure, group)| {
                let apps = per_app(evals, &exp.policies, &exp.policies[1..], thrashing);
                let rows = apps.into_iter().map(|((app, policy), (mpki, ipc))| {
                    vec![app, policy, format!("{mpki:.1}"), format!("{ipc:.3}")]
                });
                Table::new(
                    format!(
                        "Figure {figure}: MPKI / IPC impact on {group}thrashing applications \
                         (vs TA-DRRIP)"
                    ),
                    ["benchmark", "policy", "MPKI reduction %", "IPC speedup"],
                    rows.collect(),
                )
            });
            tables.into()
        }
        Summary::MetricImprovements => {
            let metrics: [(&str, Metric); 5] = [
                ("Wt.Speed-up", |m| m.weighted_speedup),
                ("Norm. HM", |m| m.harmonic_mean_normalized),
                ("GM of IPCs", |m| m.geometric_mean_ipc),
                ("HM of IPCs", |m| m.harmonic_mean_ipc),
                ("AM of IPCs", |m| m.arithmetic_mean_ipc),
            ];
            // Per mix: the second policy's value over the baseline's, less one.
            let improvement = |run: &StudyRun, metric: Metric| {
                let by_mix = run.variants[0].1.chunks(exp.policies.len());
                let per_mix = by_mix.map(|mix| {
                    relative_improvement(metric(&mix[1].metrics), metric(&mix[0].metrics))
                });
                arithmetic_mean(&per_mix.collect::<Vec<_>>())
            };
            let studies = runs.iter().map(|r| format!("{}-core", r.study.num_cores()));
            let rows = metrics.iter().map(|&(name, metric)| {
                let cells = runs.iter().map(|run| pct(improvement(run, metric)));
                std::iter::once(name.to_string()).chain(cells).collect()
            });
            vec![Table::new(
                "Table 7: ADAPT improvement over TA-DRRIP under other metrics",
                std::iter::once("metric".to_string()).chain(studies),
                rows.collect(),
            )]
        }
        Summary::Scaling => scaling::tables(exp, scale, runs),
        Summary::HeadToHead => scaling::head_to_head(exp, scale, runs),
        Summary::Cost => table2::tables(scale, exp.studies[0]),
        Summary::Classification => table4::tables(scale, exp.studies[0]),
    }
}

/// A study's s-curve table: mean and best speedup of each policy, and the sorted
/// per-mix speedups as CSV; a `panel` of a multi-study figure says which study it is.
fn s_curve(exp: &Experiment, run: &StudyRun, panel: bool) -> Table {
    let evals = &run.variants[0].1;
    let curves: Vec<(String, f64, Vec<f64>)> = exp.policies[1..]
        .iter()
        .map(|&p| {
            let speedups = runner::speedups_over_baseline(evals, p, exp.policies[0]);
            (
                p.label(),
                arithmetic_mean(&speedups),
                mc_metrics::s_curve(&speedups),
            )
        })
        .collect();
    let cores = run.study.num_cores();
    let mut title = format!(
        "Figure 3: weighted speedup over TA-DRRIP ({cores}-core, {} workloads)",
        run.mixes
    );
    if panel {
        title = format!("Figure 8 panel: {cores}-core workloads\n{title}");
    }
    let rows: Vec<Vec<String>> = curves
        .iter()
        .map(|(label, mean, sorted)| {
            let max = sorted.last().copied().unwrap_or(0.0);
            vec![
                label.clone(),
                format!("{mean:.4}"),
                pct(mean - 1.0),
                format!("{max:.4}"),
            ]
        })
        .collect();
    let header = ["policy", "mean speedup", "mean gain", "max speedup"];
    let mut table = Table::new(title, header, rows);
    if run.wraps > 0 {
        table.notes.push(format!(
            "note: corpus replay re-executed its streams ({} pass(es), summed over cores and \
             mixes) — capture budget smaller than the run; results follow re-execution \
             semantics (docs/repro-guide.md)",
            run.wraps
        ));
    }
    table.series = Some(Series {
        title: "S-curve series (per-workload speedup over TA-DRRIP, sorted):".into(),
        columns: curves.into_iter().map(|(label, _, s)| (label, s)).collect(),
    });
    table
}

/// Mean MPKI reduction (%, 0 where the baseline has no LLC misses) and mean IPC speedup
/// over the lineup's baseline of every (benchmark, policy label) of `policies`, over the
/// applications whose thrashing class is `thrashing`. `evals` holds each mix's `lineup`
/// in order.
fn per_app(
    evals: &[MixEvaluation],
    lineup: &[PolicyKind],
    policies: &[PolicyKind],
    thrashing: bool,
) -> BTreeMap<(String, String), (f64, f64)> {
    let mut sums: BTreeMap<(String, String), (f64, f64, u64)> = BTreeMap::new();
    for mix in evals.chunks(lineup.len()) {
        for &policy in policies {
            let eval = &mix[lineup.iter().position(|&p| p == policy).unwrap()];
            for (b, p) in mix[0].per_app.iter().zip(&eval.per_app) {
                if b.is_thrashing != thrashing || b.ipc <= 0.0 {
                    continue;
                }
                let reduction = if b.llc_mpki > 0.0 {
                    mc_metrics::mpki_reduction_percent(p.llc_mpki, b.llc_mpki)
                } else {
                    0.0
                };
                let sum = sums.entry((b.name.clone(), policy.label())).or_default();
                sum.0 += reduction;
                sum.1 += p.ipc / b.ipc;
                sum.2 += 1;
            }
        }
    }
    sums.into_iter()
        .map(|(key, (mpki, ipc, n))| (key, (mpki / n as f64, ipc / n as f64)))
        .collect()
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::report::render;

    pub(crate) fn number(cell: &str) -> f64 {
        cell.trim_end_matches('%').parse().unwrap()
    }

    /// `exp` at smoke scale on its own mix count; its tables are well formed and render.
    pub(crate) fn smoke_on(exp: Experiment) -> (Experiment, Vec<Table>) {
        let tables = run(&exp, ExperimentScale::Smoke, &Sources::Generated).unwrap();
        assert!(!tables.is_empty(), "{}", exp.name);
        for table in &tables {
            assert!(table.rows.iter().all(|r| r.len() == table.header.len()));
            assert!(
                table.header.is_empty() || !table.rows.is_empty(),
                "{}",
                exp.name
            );
        }
        assert!(!render(&tables, exp.layout()).is_empty());
        (exp, tables)
    }

    /// A corpus's study is the one its first mix's core count names
    /// (`runner::corpus_study`, which `sweepd` shares): a corpus of 3-core mixes is
    /// refused before anything runs, and an empty manifest never loads.
    #[test]
    fn a_corpus_whose_mixes_name_no_study_is_refused() {
        let scale = ExperimentScale::Smoke;
        let dir = std::env::temp_dir().join("experiment_corpus_without_study");
        std::fs::remove_dir_all(&dir).ok();
        let three = workloads::WorkloadMix {
            id: 0,
            study: StudyKind::Cores4,
            benchmarks: ["gcc", "mcf", "art"].map(String::from).to_vec(),
        };
        let sets = scale
            .system_config(StudyKind::Cores4)
            .llc
            .geometry
            .num_sets();
        let (corpus, _) = Corpus::materialize(&dir, "three", &[three], sets, 1, 1000).unwrap();
        let replay = ReplayConfig::default();
        let fig3 = find("fig3").unwrap();
        let err = run(&fig3, scale, &Sources::Corpus(&corpus, &replay)).unwrap_err();
        assert!(err.to_string().contains("no study has 3 cores"), "{err}");
        let manifest = trace_io::corpus::render_manifest(corpus.meta(), &[]);
        std::fs::write(dir.join(trace_io::corpus::MANIFEST_FILE), manifest).unwrap();
        let err = Corpus::load(&dir).unwrap_err();
        assert!(err.to_string().contains("no mixes"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// What a registered experiment's smoke tables must show.
    type Check = fn(&Experiment, &[Table]);

    /// Each registered experiment's smoke check, in registry order. `None` marks an
    /// experiment whose own module tests its tables (`table2`, `table4`, `ablation`,
    /// `scaling`).
    const CHECKS: [(&str, Option<Check>); 11] = [
        ("table2", None),
        ("table4", None),
        ("fig1", Some(check_fig1)),
        ("fig3", Some(check_fig3)),
        ("fig45", Some(check_fig45)),
        ("fig6", Some(check_fig6)),
        ("fig7", Some(check_fig7)),
        ("fig8", Some(check_fig8)),
        ("table7", Some(check_table7)),
        ("ablation", None),
        ("scale", None),
    ];

    /// Run the registered experiment `name` at smoke scale and apply its check.
    pub(crate) fn check(name: &str) {
        let (_, check) = CHECKS.iter().find(|(n, _)| *n == name).unwrap();
        let (exp, tables) = smoke_on(find(name).unwrap());
        check.expect("a registered check")(&exp, &tables);
    }

    /// The registry and the checks list the same experiments in the same order, so no
    /// entry goes unchecked; each check runs under the test named after the paper
    /// artifact it reproduces (`figure3::tests::…` for `fig3`).
    #[test]
    fn every_registered_experiment_has_a_smoke_check_in_registry_order() {
        let names: Vec<&str> = registry().iter().map(|e| e.name).collect();
        assert_eq!(names, CHECKS.map(|(name, _)| name));
        assert!(registry()
            .iter()
            .filter(|e| e.in_paper())
            .all(|e| e.name != "scale"));
    }

    fn check_fig1(_: &Experiment, tables: &[Table]) {
        let titles: Vec<&str> = tables.iter().map(|t| &t.title[..10]).collect();
        assert_eq!(titles, ["Figure 1a:", "Figure 1b:", "Figure 1c:"]);
        let configurations: Vec<&str> = tables[0].rows.iter().map(|r| &r[0][..]).collect();
        assert_eq!(
            configurations,
            ["TA-DRRIP(SD=64)", "TA-DRRIP(SD=128)", "TA-DRRIP(forced)"]
        );
        // 16-core mixes always hold thrashing applications and others.
        assert!(!tables[1].rows.is_empty() && !tables[2].rows.is_empty());
    }

    fn check_fig3(exp: &Experiment, tables: &[Table]) {
        assert_eq!(exp.policies.len(), 6, "the baseline and five curves");
        let [table] = tables else { panic!() };
        let mixes = exp.mixes.count(ExperimentScale::Smoke, StudyKind::Cores16);
        assert!(table
            .title
            .contains(&format!("(16-core, {mixes} workloads)")));
        check_s_curve(exp, table, mixes);
    }

    /// A curve per policy after the baseline, one point per mix, sorted: its last point
    /// is the row's max speedup.
    pub(crate) fn check_s_curve(exp: &Experiment, table: &Table, mixes: usize) {
        assert!(mixes > 1, "a one-point curve cannot be out of order");
        let series = table.series.as_ref().unwrap();
        assert_eq!(series.columns.len(), exp.policies.len() - 1);
        for ((label, curve), row) in series.columns.iter().zip(&table.rows) {
            assert_eq!(label, &row[0]);
            assert_eq!(curve.len(), mixes);
            assert!(
                curve.windows(2).all(|w| w[0] <= w[1]),
                "s-curve must be sorted"
            );
            assert_eq!(row[3], format!("{:.4}", curve[mixes - 1]));
            assert!(number(&row[1]) > 0.0);
        }
        let text = render(std::slice::from_ref(table), exp.layout());
        assert!(text.contains("ADAPT_bp32") && text.contains("workload_index"));
    }

    fn check_fig45(_: &Experiment, tables: &[Table]) {
        let [thrashing, others] = tables else {
            panic!()
        };
        assert!(thrashing.title.starts_with("Figure 4") && others.title.starts_with("Figure 5"));
        assert!(!thrashing.rows.is_empty() && !others.rows.is_empty());
        for policy in ["ADAPT_bp32", "ADAPT_ins", "LRU", "SHiP", "EAF"] {
            assert!(thrashing.rows.iter().any(|r| r[1] == policy), "{policy}");
        }
    }

    fn check_fig6(_: &Experiment, tables: &[Table]) {
        let [table] = tables else { panic!() };
        let families: Vec<&str> = table.rows.iter().map(|r| &r[0][..]).collect();
        assert_eq!(families, FAMILIES);
        assert!(table
            .rows
            .iter()
            .all(|r| number(&r[1]) > 0.0 && number(&r[2]) > 0.0));
        // The TA-DRRIP insertion flavour is the baseline itself.
        assert_eq!(table.rows[0][1], "1.0000");
    }

    fn check_fig7(exp: &Experiment, tables: &[Table]) {
        let [table] = tables else { panic!() };
        let points: Vec<(&str, &str)> = table.rows.iter().map(|r| (&r[0][..], &r[1][..])).collect();
        let llcs = ["24MB/24-way", "32MB/32-way"];
        let expected: Vec<(&str, &str)> = ["16", "20", "24"]
            .iter()
            .flat_map(|c| llcs.map(|l| (*c, l)))
            .collect();
        assert_eq!(points, expected);
        let text = render(tables, exp.layout());
        for row in &table.rows {
            let speedup = number(&row[2]);
            assert!(speedup > 0.0);
            assert_eq!(row[3], pct(speedup - 1.0));
            let on_one_line = |line: &str| row.iter().all(|cell| line.contains(&cell[..]));
            assert!(text.lines().any(on_one_line), "{row:?}");
        }
    }

    fn check_fig8(exp: &Experiment, tables: &[Table]) {
        let cores: Vec<usize> = exp.studies.iter().map(|s| s.num_cores()).collect();
        assert_eq!(cores, [4, 8, 20, 24]);
        assert_eq!(tables.len(), 4);
        for (table, &study) in tables.iter().zip(&exp.studies) {
            let heading = format!("Figure 8 panel: {}-core workloads\n", study.num_cores());
            assert!(table.title.starts_with(&heading));
            check_s_curve(exp, table, exp.mixes.count(ExperimentScale::Smoke, study));
        }
        assert!(
            render(tables, exp.layout()).ends_with("\n\n"),
            "every panel ends blank"
        );
    }

    fn check_table7(exp: &Experiment, tables: &[Table]) {
        let [table] = tables else { panic!() };
        // The paper's layout: metrics as rows, studies as columns.
        assert_eq!(
            table.header[1..],
            ["4-core", "8-core", "16-core", "20-core", "24-core"]
        );
        let metrics: Vec<&str> = table.rows.iter().map(|r| &r[0][..]).collect();
        assert_eq!(
            metrics,
            [
                "Wt.Speed-up",
                "Norm. HM",
                "GM of IPCs",
                "HM of IPCs",
                "AM of IPCs"
            ]
        );
        assert_eq!(pct(0.047), "+4.70%", "a cell as the paper prints it");
        for cell in table.rows.iter().flat_map(|r| &r[1..]) {
            let improvement = number(cell) / 100.0;
            assert_eq!(*cell, pct(improvement), "signed, two decimals");
            assert!(
                improvement > -1.0 && improvement < 5.0,
                "{cell} outside sane bounds"
            );
        }
        let text = render(tables, exp.layout());
        assert!(text.contains("Wt.Speed-up") && text.contains("16-core"));
    }
}
