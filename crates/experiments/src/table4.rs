//! Table 4: benchmark classification — paper values vs. values measured on our substrate.
//!
//! For every synthetic benchmark the experiment measures:
//!
//! * `Fpn(A)` — Footprint-number with every LLC set monitored, computed by streaming the
//!   benchmark's demand-address stream into the ADAPT monitor (footprint is a property of
//!   the address stream: repeated accesses never add uniqueness, so monitoring the raw
//!   stream and monitoring LLC accesses agree over a sufficiently long interval);
//! * `Fpn(S)` — the same with the paper's 40-set sampling;
//! * `L2-MPKI` — from a standalone run of the benchmark on the simulator;
//! * the memory-intensity class obtained by applying Table 5 to the measured values.
//!
//! The render compares each measured value with the paper's published value.

use rayon::prelude::*;

use adapt_core::{AdaptConfig, FootprintMonitor};
use cache_sim::addr::block_of;
use cache_sim::single::run_alone;
use cache_sim::trace::TraceSource;
use llc_policies::SrripPolicy;
use workloads::{all_benchmarks, classify, MemIntensity, StudyKind};

use crate::report::Table;
use crate::scale::ExperimentScale;

/// Measure a benchmark's Footprint-number by streaming its address stream into the monitor.
fn measure_footprint(
    benchmark: &workloads::BenchmarkSpec,
    llc_sets: usize,
    all_sets: bool,
    accesses: u64,
    interval_accesses: u64,
    seed: u64,
) -> f64 {
    let config = if all_sets {
        AdaptConfig::all_sets_profiler()
    } else {
        AdaptConfig::paper()
    };
    let mut monitor = FootprintMonitor::new(config, llc_sets, 1);
    let mut trace = benchmark.trace(0, llc_sets, seed);
    let mut since_interval = 0u64;
    for _ in 0..accesses {
        let a = trace.next_access();
        let block = block_of(a.addr);
        monitor.observe(0, block.set_index(llc_sets), block.0);
        since_interval += 1;
        if since_interval >= interval_accesses {
            monitor.end_interval();
            since_interval = 0;
        }
    }
    if monitor.intervals() == 0 {
        monitor.end_interval();
    }
    monitor.mean_footprint_of(0)
}

/// Table 4 on `study`'s LLC at `scale`: each benchmark's paper values next to ours.
pub(crate) fn tables(scale: ExperimentScale, study: StudyKind) -> Vec<Table> {
    let config = scale.system_config(study);
    let llc_sets = config.llc.geometry.num_sets();
    // Enough accesses for several interval boundaries over the sampled sets.
    let (accesses, interval) = match scale {
        ExperimentScale::Paper => (8_000_000u64, 2_000_000u64),
        ExperimentScale::Scaled => (1_500_000, 400_000),
        ExperimentScale::Smoke => (200_000, 60_000),
    };
    let instructions = scale.instructions_per_core();

    let mut rows: Vec<Vec<String>> = all_benchmarks()
        .par_iter()
        .map(|b| {
            let fpn_all = measure_footprint(b, llc_sets, true, accesses, interval, scale.seed());
            let fpn_sampled =
                measure_footprint(b, llc_sets, false, accesses, interval, scale.seed());
            let trace = Box::new(b.trace(0, llc_sets, scale.seed()));
            let srrip = SrripPolicy::new(llc_sets, config.llc.geometry.ways);
            let l2_mpki = run_alone(&config, trace, srrip, instructions).l2_mpki();
            let measured_class: MemIntensity = classify(fpn_all, l2_mpki);
            let values = [
                b.paper_fpn_all,
                fpn_all,
                b.paper_fpn_sampled,
                fpn_sampled,
                b.paper_l2_mpki,
                l2_mpki,
            ];
            std::iter::once(b.name.to_string())
                .chain(values.iter().map(|v| format!("{v:.2}")))
                .chain([b.paper_class.label(), measured_class.label()].map(String::from))
                .collect()
        })
        .collect();
    rows.sort_by(|a, b| a[0].cmp(&b[0]));
    vec![Table::new(
        "Table 4: benchmark classification (paper vs measured)",
        [
            "benchmark",
            "Fpn(A) paper",
            "Fpn(A) meas",
            "Fpn(S) paper",
            "Fpn(S) meas",
            "MPKI paper",
            "MPKI meas",
            "class paper",
            "class meas",
        ],
        rows,
    )]
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::benchmark_by_name;

    #[test]
    fn footprint_measurement_tracks_paper_classes_for_extremes() {
        // A small-footprint benchmark and a streaming one must land on opposite ends.
        let calc = benchmark_by_name("calc").unwrap();
        let lbm = benchmark_by_name("lbm").unwrap();
        let sets = 256;
        let f_calc = measure_footprint(calc, sets, true, 200_000, 60_000, 1);
        let f_lbm = measure_footprint(lbm, sets, true, 200_000, 60_000, 1);
        assert!(f_calc < 8.0, "calc footprint {f_calc}");
        assert!(f_lbm >= 16.0, "lbm footprint {f_lbm}");
    }

    #[test]
    fn sampled_and_all_sets_measurements_agree_for_uniform_benchmarks() {
        let gob = benchmark_by_name("gob").unwrap();
        let sets = 1024;
        let all = measure_footprint(gob, sets, true, 400_000, 100_000, 1);
        let sampled = measure_footprint(gob, sets, false, 400_000, 100_000, 1);
        assert!((all - sampled).abs() <= 4.0, "all={all} sampled={sampled}");
    }

    #[test]
    fn smoke_table_has_a_row_per_benchmark() {
        let table = &tables(ExperimentScale::Smoke, StudyKind::Cores16)[0];
        assert_eq!(table.rows.len(), all_benchmarks().len());
        let text = crate::report::render_table(table);
        assert!(text.contains("benchmark"));
        assert!(text.contains("lbm"));
    }
}
