//! # experiments
//!
//! Drivers that regenerate every figure and table of the ADAPT paper on top of the
//! simulator substrate (`cache-sim`), the baseline policies (`llc-policies`), ADAPT itself
//! (`adapt-core`), the synthetic workloads (`workloads`) and the multi-core metrics
//! (`mc-metrics`).
//!
//! Every figure, table and study is a value: [`experiment::registry`] lists each
//! [`experiment::Experiment`] — its studies, configuration variants, policy lineup
//! (baseline first) and summary kinds — in paper order, [`experiment::run`] runs any of
//! them into [`report::Table`]s, and [`report::render`] prints those. The `repro` binary (in
//! `src/bin/repro.rs`) dispatches on the registry. The modules `ablation`, `scaling`,
//! `table2` and `table4` hold what is particular to those experiments: the ablation's
//! ADAPT configurations, the scaling study's bank and core tables, and the two tables
//! that are not policy sweeps.
//!
//! [`policies`] is the single home of policy naming, construction and dispatch:
//! [`PolicyKind`] names a policy and `PolicyKind::build_dispatch` builds it as the
//! [`policies::AnyPolicy`] variant of its concrete type.
//!
//! Every sweep runs on the corpus-backed engine in [`runner`]: each workload mix's access
//! streams are materialized exactly once (shared in-memory capture, or an on-disk
//! [`trace_io::Corpus`] via `repro corpus` / `repro sweep`) and the (policy × mix) grid
//! fans out across rayon workers with deterministic result ordering — see
//! `docs/architecture.md` for the full data-flow walkthrough.
//!
//! Absolute performance numbers differ from the paper (our substrate is an approximate
//! trace-driven simulator fed with synthetic workloads, not BADCO running SPEC), so the
//! reproduction target is the *shape* of every result: which policy wins, by roughly what
//! factor, and where the crossovers lie. `docs/repro-guide.md` gives the recipe and an
//! expected-output excerpt for every experiment.

#![warn(missing_docs)]

pub mod ablation;
pub mod experiment;
pub mod policies;
pub mod report;
pub mod runner;
pub mod scale;
pub mod scaling;
mod table2;
mod table4;

pub use policies::PolicyKind;
pub use runner::{MixEvaluation, MixSource, PerAppOutcome, SweepOutcome};
pub use scale::{ExperimentScale, MemSystem};

// The paper artifacts' smoke tests, under the figure or table each one reproduces. Each
// runs its registry entry through the entry's check in `experiment::tests::CHECKS`; the
// single-study and single-point cases run a narrowed entry.
#[cfg(test)]
mod figure1 {
    mod tests {
        #[test]
        fn smoke_run_produces_all_three_panels() {
            crate::experiment::tests::check("fig1");
        }
    }
}

#[cfg(test)]
mod figure3 {
    mod tests {
        #[test]
        fn smoke_run_produces_a_curve_per_policy() {
            crate::experiment::tests::check("fig3");
        }
    }
}

#[cfg(test)]
mod figure45 {
    mod tests {
        #[test]
        fn smoke_run_reports_both_groups_for_every_policy() {
            crate::experiment::tests::check("fig45");
        }
    }
}

#[cfg(test)]
mod figure6 {
    mod tests {
        #[test]
        fn smoke_run_covers_all_four_families() {
            crate::experiment::tests::check("fig6");
        }
    }
}

#[cfg(test)]
mod figure7 {
    mod tests {
        use workloads::StudyKind;

        use crate::experiment::tests::{check, number, smoke_on};
        use crate::experiment::{find, Experiment, Variant};

        #[test]
        fn single_point_smoke_run_works() {
            let fig7 = find("fig7").unwrap();
            let (_, tables) = smoke_on(Experiment {
                studies: vec![StudyKind::Cores16],
                variant: Variant::Llc(vec![("24MB/24-way", 24 << 20, 24)]),
                ..fig7
            });
            let [table] = &tables[..] else { panic!() };
            let [row] = &table.rows[..] else { panic!() };
            assert_eq!(row[..2], ["16", "24MB/24-way"], "the point keeps its label");
            assert!(number(&row[2]) > 0.0);
        }

        #[test]
        fn render_lists_every_point() {
            check("fig7");
        }
    }
}

#[cfg(test)]
mod figure8 {
    mod tests {
        use workloads::StudyKind;

        use crate::experiment::find;
        use crate::experiment::tests::{check, check_s_curve, smoke_on};
        use crate::experiment::Experiment;
        use crate::report::render;
        use crate::scale::ExperimentScale;

        #[test]
        fn single_panel_smoke_run() {
            let fig8 = find("fig8").unwrap();
            let (exp, tables) = smoke_on(Experiment {
                studies: vec![StudyKind::Cores4],
                ..fig8
            });
            let [panel] = &tables[..] else { panic!() };
            assert!(panel
                .title
                .starts_with("Figure 8 panel: 4-core workloads\n"));
            let mixes = ExperimentScale::Smoke.mixes_for(StudyKind::Cores4);
            check_s_curve(&exp, panel, mixes);
            assert!(render(&tables, exp.layout()).contains("4-core"));
        }

        #[test]
        fn figure8_covers_the_paper_studies() {
            check("fig8");
        }
    }
}

#[cfg(test)]
mod table7 {
    mod tests {
        use workloads::StudyKind;

        use crate::experiment::tests::{check, number, smoke_on};
        use crate::experiment::{find, Experiment};

        #[test]
        fn single_study_smoke_run_produces_finite_improvements() {
            let table7 = find("table7").unwrap();
            let (_, tables) = smoke_on(Experiment {
                studies: vec![StudyKind::Cores4],
                ..table7
            });
            let [table] = &tables[..] else { panic!() };
            assert_eq!(table.header, ["metric", "4-core"]);
            assert_eq!(table.rows.len(), 5, "one row per metric");
            for row in &table.rows {
                let improvement = number(&row[1]) / 100.0;
                assert!(improvement.is_finite());
                assert!(
                    improvement > -1.0 && improvement < 5.0,
                    "improvement {improvement} outside sane bounds"
                );
            }
        }

        #[test]
        fn render_places_metrics_in_rows() {
            check("table7");
        }
    }
}
