//! Metric names and units (the same lists `BENCHMARK.json` declares), the per-run
//! metric store, and the report a run writes and prints.

use std::fmt::Write as _;

use crate::pace::{Interleaved, Paced};
use crate::{stats, Opts};

/// End-to-end metrics: what a user of the system waits for or pays. Every workload
/// reports every one of them from its untraced run; README.md defines each per workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("sim_minstr_per_s", "Minstr/s"),
    ("cell_ms", "ms"),
    ("trace_mrec_per_s", "Mrec/s"),
    ("result_us", "us"),
];

/// Per-layer metrics, reported by the traced run. A layer a workload does not exercise
/// reports 0 for its metrics (it did no work there).
pub const PER_LAYER: &[(&str, &str)] = &[
    // workloads
    ("workloads.gen.records", "count"),
    ("workloads.gen.ns_per_record", "ns"),
    ("workloads.mixgen.ms", "ms"),
    // trace-io
    ("trace_io.capture.records", "count"),
    ("trace_io.capture.mrec_per_s", "Mrec/s"),
    ("trace_io.capture.bytes_per_record", "B"),
    ("trace_io.encode.ns_per_record", "ns"),
    ("trace_io.load.ms", "ms"),
    ("trace_io.open.ms_per_file", "ms"),
    ("trace_io.decode.mrec_per_s", "Mrec/s"),
    ("trace_io.decode_first.ns_per_record", "ns"),
    ("trace_io.decode_steady.ns_per_record", "ns"),
    ("trace_io.replay.records", "count"),
    ("trace_io.replay.ns_per_record", "ns"),
    ("trace_io.replay.wraps", "count"),
    ("trace_io.checksum_validations", "count"),
    ("trace_io.decode.errors", "count"),
    // cache-sim: the real run, with timed sources and a timed policy
    ("cache_sim.run.records", "count"),
    ("cache_sim.run.instructions", "count"),
    ("cache_sim.run.final_cycle", "cycles"),
    ("cache_sim.run.ns_per_record", "ns"),
    ("cache_sim.run.self_ns_per_record", "ns"),
    // cache-sim: the stage drive (bulk loops over the same records, one stage at a time)
    ("cache_sim.l1.accesses", "count"),
    ("cache_sim.l1.hit_share", "share"),
    ("cache_sim.l1.ns_per_access", "ns"),
    ("cache_sim.l2.accesses", "count"),
    ("cache_sim.l2.hit_share", "share"),
    ("cache_sim.l2.ns_per_access", "ns"),
    ("cache_sim.llc.accesses", "count"),
    ("cache_sim.llc.hit_share", "share"),
    ("cache_sim.llc.bypass_share", "share"),
    ("cache_sim.llc.dirty_evictions", "count"),
    ("cache_sim.llc.ns_per_access", "ns"),
    ("cache_sim.dram.accesses", "count"),
    ("cache_sim.dram.row_hit_share", "share"),
    ("cache_sim.dram.ns_per_access", "ns"),
    ("cache_sim.driver.est_ns_per_record", "ns"),
    // cache-sim: simulated stalls of the real run
    ("cache_sim.llc.bank_queue_cycles", "cycles"),
    ("cache_sim.llc.bank_admission_stall_cycles", "cycles"),
    ("cache_sim.llc.mshr_stall_cycles", "cycles"),
    ("cache_sim.llc.nuca_cycles", "cycles"),
    ("cache_sim.dram.queue_cycles", "cycles"),
    ("cache_sim.dram.row_conflicts", "count"),
    ("cache_sim.dram.starvation_pins", "count"),
    ("cache_sim.stall_imbalance", "ratio"),
    // llc-policies: the baseline
    ("llc_policies.tadrrip.on_access.calls", "count"),
    ("llc_policies.tadrrip.on_hit.calls", "count"),
    ("llc_policies.tadrrip.insertion_decision.calls", "count"),
    ("llc_policies.tadrrip.choose_victim.calls", "count"),
    ("llc_policies.tadrrip.on_evict.calls", "count"),
    ("llc_policies.tadrrip.on_fill.calls", "count"),
    ("llc_policies.tadrrip.on_interval.calls", "count"),
    ("llc_policies.tadrrip.ns_per_llc_access", "ns"),
    ("llc_policies.tadrrip.insert_rrpv0", "count"),
    ("llc_policies.tadrrip.insert_rrpv1", "count"),
    ("llc_policies.tadrrip.insert_rrpv2", "count"),
    ("llc_policies.tadrrip.insert_rrpv3", "count"),
    ("llc_policies.tadrrip.bypass", "count"),
    ("llc_policies.tadrrip.boxed_dispatch_share", "share"),
    // adapt-core: the paper's policy
    ("adapt_core.bp32.on_access.calls", "count"),
    ("adapt_core.bp32.on_hit.calls", "count"),
    ("adapt_core.bp32.insertion_decision.calls", "count"),
    ("adapt_core.bp32.choose_victim.calls", "count"),
    ("adapt_core.bp32.on_evict.calls", "count"),
    ("adapt_core.bp32.on_fill.calls", "count"),
    ("adapt_core.bp32.on_interval.calls", "count"),
    ("adapt_core.bp32.ns_per_llc_access", "ns"),
    ("adapt_core.bp32.insert_rrpv0", "count"),
    ("adapt_core.bp32.insert_rrpv1", "count"),
    ("adapt_core.bp32.insert_rrpv2", "count"),
    ("adapt_core.bp32.insert_rrpv3", "count"),
    ("adapt_core.bp32.bypass", "count"),
    // mc-metrics
    ("mc_metrics.compute.calls", "count"),
    ("mc_metrics.compute.ns_per_call", "ns"),
    // experiments
    ("experiments.alone_warm.ms", "ms"),
    ("experiments.materialize.ms_per_mix", "ms"),
    ("experiments.cells", "count"),
    ("experiments.cell.p50_ms", "ms"),
    ("experiments.cell.max_ms", "ms"),
    ("experiments.sweep.parallel_efficiency", "share"),
    // sweep-serve
    ("sweep_serve.capture.ms", "ms"),
    ("sweep_serve.spawn.ms", "ms"),
    ("sweep_serve.registry_load.ms", "ms"),
    ("sweep_serve.registry_evaluate.p50_ms", "ms"),
    ("sweep_serve.json.ns_per_eval", "ns"),
    ("sweep_serve.json.bytes_per_eval", "B"),
    ("sweep_serve.http_parse.ns_per_req", "ns"),
    ("sweep_serve.http_write.ns_per_resp", "ns"),
    ("sweep_serve.memo.lookup_ns", "ns"),
    ("sweep_serve.memo.insert_ns", "ns"),
    ("sweep_serve.queue.push_pop_ns", "ns"),
    ("sweep_serve.memo.hit_share", "share"),
    ("sweep_serve.memo.burst_hit_share", "share"),
    ("sweep_serve.queue.rejected", "count"),
    ("sweep_serve.retries_429", "count"),
    ("sweep_serve.fairness.min_max_ratio", "ratio"),
    ("sweep_serve.client.connect_us", "us"),
    ("sweep_serve.cold.samples", "count"),
    ("sweep_serve.cold.p50_ms", "ms"),
    ("sweep_serve.cold.tail_ms", "ms"),
    ("sweep_serve.cold.tail_pct", "%"),
    ("sweep_serve.cold_overhead.p50_ms", "ms"),
    ("sweep_serve.hot.samples", "count"),
    ("sweep_serve.hot.p50_us", "us"),
    ("sweep_serve.hot.tail_us", "us"),
    ("sweep_serve.hot.tail_pct", "%"),
    ("sweep_serve.hot.rps", "1/s"),
    ("sweep_serve.hot_overhead.p50_us", "us"),
    // tracing itself
    ("trace.bracket_ns", "ns"),
    ("trace.overhead_share", "share"),
    ("trace.spans", "count"),
    ("trace.coverage_share", "share"),
];

/// How a metric's value is taken from its samples.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stat {
    /// Measured once; no samples.
    Once,
    /// The median of the repetitions, each first divided by the host-speed factor
    /// measured around it (see `pace.rs`). The median as measured and the mean factor
    /// are reported beside it.
    Normalised,
    /// As [`Stat::Normalised`], but the mean: for repetitions that are not alike (the
    /// daemon's cold requests are sixteen different cells), so that every one counts.
    NormalisedMean,
    /// The lowest decile of many short units of work, scaled by the lowest decile of
    /// the reference units run between them (see `pace::Interleaved`). The samples
    /// listed are the units as measured.
    QuietDecile,
}

impl Stat {
    fn label(self) -> &'static str {
        match self {
            Stat::Once => "once",
            Stat::Normalised => "normalised median",
            Stat::NormalisedMean => "normalised mean",
            Stat::QuietDecile => "quiet decile",
        }
    }
}

/// One measured metric: its value and the samples behind it.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub stat: Stat,
    /// How many samples `value` was taken from (0 for a metric measured once).
    pub count: usize,
    /// Median of the samples.
    pub median: Option<f64>,
    /// The samples, unless there are more than [`MAX_KEPT_SAMPLES`] of them.
    pub samples: Vec<f64>,
    /// Quartiles of the samples, by the driver's rule.
    pub quartiles: Option<(f64, f64)>,
    /// For a normalised metric: the median before normalisation, and how much slower
    /// than the idle sizing host the reference loop ran around the repetitions.
    pub as_measured: Option<(f64, f64)>,
}

/// Per-request latencies run to 100 k samples; a report lists per-repetition values.
const MAX_KEPT_SAMPLES: usize = 256;

/// The metrics of one run, checked against the declared lists as they are set.
#[derive(Debug, Default)]
pub struct Metrics {
    items: Vec<Metric>,
}

fn declared(name: &str) -> (&'static str, &'static str) {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .copied()
        .unwrap_or_else(|| panic!("metric {name:?} is not declared in report.rs"))
}

impl Metrics {
    /// Set a metric measured once.
    pub fn set(&mut self, name: &str, value: f64) {
        self.put(name, value, Stat::Once, &[]);
    }

    /// Set a metric to the median of its normalised repetitions. `from_seconds` turns
    /// the time of one repetition, in seconds, into the metric's unit (a time scaled,
    /// or an amount of work divided by it).
    pub fn set_paced(&mut self, name: &str, paced: &Paced, from_seconds: impl Fn(f64) -> f64) {
        let median_s = stats::median(&paced.normalised_s());
        self.put_paced(name, paced, Stat::Normalised, median_s, from_seconds);
    }

    /// Set a metric to the mean of its normalised repetitions (see [`Stat::NormalisedMean`]).
    pub fn set_paced_mean(&mut self, name: &str, paced: &Paced, from_seconds: impl Fn(f64) -> f64) {
        let mean_s = paced.normalised_s().iter().sum::<f64>() / paced.len() as f64;
        self.put_paced(name, paced, Stat::NormalisedMean, mean_s, from_seconds);
    }

    fn put_paced(
        &mut self,
        name: &str,
        paced: &Paced,
        stat: Stat,
        centre_s: f64,
        from_seconds: impl Fn(f64) -> f64,
    ) {
        let samples: Vec<f64> = paced
            .normalised_s()
            .into_iter()
            .map(&from_seconds)
            .collect();
        self.put(name, from_seconds(centre_s), stat, &samples);
        let metric = self.items.last_mut().expect("put pushed it");
        metric.as_measured = Some((from_seconds(paced.raw_median_s()), paced.slowdown()));
    }

    /// Set a metric to the quiet decile of its interleaved units; `from_seconds` as in
    /// [`set_paced`](Metrics::set_paced).
    pub fn set_interleaved(
        &mut self,
        name: &str,
        units: &Interleaved,
        from_seconds: impl Fn(f64) -> f64,
    ) {
        let samples: Vec<f64> = units.work_s().iter().map(|&s| from_seconds(s)).collect();
        self.put(
            name,
            from_seconds(units.quiet_s()),
            Stat::QuietDecile,
            &samples,
        );
        let metric = self.items.last_mut().expect("put pushed it");
        metric.as_measured = Some((stats::median(&samples), units.slowdown()));
    }

    fn put(&mut self, name: &str, value: f64, stat: Stat, samples: &[f64]) {
        let (name, unit) = declared(name);
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.items.retain(|m| m.name != name);
        self.items.push(Metric {
            name,
            unit,
            value,
            stat,
            count: samples.len(),
            median: (!samples.is_empty()).then(|| stats::median(samples)),
            samples: if samples.len() <= MAX_KEPT_SAMPLES {
                samples.to_vec()
            } else {
                Vec::new()
            },
            quartiles: stats::quartiles(samples),
            as_measured: None,
        });
    }

    /// The metrics in declaration order of `list`. Every end-to-end metric must have
    /// been measured; a per-layer metric the workload never touched reads 0.
    pub fn ordered(
        &self,
        list: &[(&'static str, &'static str)],
        all_required: bool,
    ) -> Vec<Metric> {
        list.iter()
            .map(|&(name, unit)| {
                self.items
                    .iter()
                    .find(|m| m.name == name)
                    .cloned()
                    .unwrap_or_else(|| {
                        assert!(!all_required, "end-to-end metric {name} was not measured");
                        Metric {
                            name,
                            unit,
                            value: 0.0,
                            stat: Stat::Once,
                            count: 0,
                            median: None,
                            samples: Vec::new(),
                            quartiles: None,
                            as_measured: None,
                        }
                    })
            })
            .collect()
    }
}

/// What a workload hands back: operation counts, metrics, and free-form findings.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    /// Lines for the human-readable report (answers, remainders, refusals).
    pub notes: Vec<String>,
}

impl Outcome {
    /// Count one checked operation; a failure is also noted with its reason.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.notes.push(format!("FAILED: {}", what()));
        }
    }
}

pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).expect("string write"),
            c => out.push(c),
        }
    }
    out
}

/// A float with all its digits (Rust prints the shortest string that round-trips).
fn num(v: f64) -> String {
    format!("{v:?}")
}

/// The last line of standard output: exactly the keys the driver reads.
pub fn result_line(outcome: &Outcome, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                num(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0,
        outcome.attempted.max(1),
        outcome.failed,
        body.join(", ")
    )
}

/// The human-readable report: host facts, then one line per metric with its spread.
pub fn render_text(opts: &Opts, outcome: &Outcome, metrics: &[Metric]) -> String {
    let Opts {
        workload,
        seed,
        traced,
        host,
        ..
    } = opts;
    let mut out = String::new();
    writeln!(
        out,
        "# {workload} seed={seed} traced={traced} nproc={} workers={} cpu=\"{}\" commit={} rustc=\"{}\"",
        host.nproc, host.workers, host.cpu_model, host.commit, host.rustc
    )
    .expect("string write");
    for m in metrics {
        write!(out, "{:<48} {:>16.4} {:<8}", m.name, m.value, m.unit).expect("string write");
        if let Some(median) = m.median {
            write!(
                out,
                " {} of n={} median={median:.4}",
                m.stat.label(),
                m.count
            )
            .expect("string write");
            if let Some((q1, q3)) = m.quartiles {
                write!(out, " q1={q1:.4} q3={q3:.4}").expect("string write");
            }
            if let Some((raw, slowdown)) = m.as_measured {
                write!(
                    out,
                    " as-measured median={raw:.4} host-slowdown={slowdown:.3}"
                )
                .expect("string write");
            }
        }
        out.push('\n');
    }
    for note in &outcome.notes {
        writeln!(out, "note: {note}").expect("string write");
    }
    writeln!(
        out,
        "operations: attempted={} failed={}",
        outcome.attempted, outcome.failed
    )
    .expect("string write");
    out
}

/// The machine-readable report written under `benchmark/out/`: host facts and, per
/// metric, the per-repetition values, median and quartiles.
pub fn render_json(opts: &Opts, outcome: &Outcome, metrics: &[Metric]) -> String {
    let Opts {
        workload,
        seed,
        traced,
        host,
        ..
    } = opts;
    let mut out = String::new();
    write!(
        out,
        "{{\n\"workload\": \"{workload}\", \"seed\": {seed}, \"traced\": {traced},\n\
         \"host\": {{\"nproc\": {}, \"workers\": {}, \"cpu_model\": \"{}\", \"commit\": \"{}\", \
         \"rustc\": \"{}\"}},\n\"attempted\": {}, \"failed\": {},\n\"notes\": [{}],\n\"metrics\": [",
        host.nproc,
        host.workers,
        json_escape(&host.cpu_model),
        json_escape(&host.commit),
        json_escape(&host.rustc),
        outcome.attempted,
        outcome.failed,
        outcome
            .notes
            .iter()
            .map(|n| format!("\"{}\"", json_escape(n)))
            .collect::<Vec<_>>()
            .join(", "),
    )
    .expect("string write");
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let samples: Vec<String> = m.samples.iter().map(|&v| num(v)).collect();
        let (q1, q3) = m
            .quartiles
            .map_or(("null".to_string(), "null".to_string()), |(a, b)| {
                (num(a), num(b))
            });
        write!(
            out,
            "\n{{\"name\": \"{}\", \"unit\": \"{}\", \"value\": {}, \"stat\": \"{}\", \"n\": {}, \
             \"median\": {}, \"q1\": {q1}, \"q3\": {q3}, \"as_measured_median\": {}, \
             \"host_slowdown\": {}, \"samples\": [{}]}}",
            m.name,
            m.unit,
            num(m.value),
            m.stat.label(),
            m.count,
            m.median.map_or("null".to_string(), num),
            m.as_measured
                .map_or("null".to_string(), |(raw, _)| num(raw)),
            m.as_measured
                .map_or("null".to_string(), |(_, slow)| num(slow)),
            samples.join(", ")
        )
        .expect("string write");
    }
    out.push_str("\n]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` and this file declare the same metrics with the same units.
    #[test]
    fn benchmark_json_declares_exactly_these_metrics() {
        let text = include_str!("../../BENCHMARK.json");
        for (section, list) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let start = text
                .find(&format!("\"{section}\""))
                .expect("section present");
            let body = &text[start..];
            let end = body.find(']').expect("section is a list");
            let body = &body[..end];
            assert_eq!(
                body.matches("\"name\"").count(),
                list.len(),
                "{section}: metric count differs"
            );
            for (name, unit) in list {
                let needle = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
                assert!(body.contains(&needle), "{section} lacks {needle}");
            }
        }
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let ok_name = |s: &str| {
            s.len() <= 64
                && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let ok_unit = |s: &str| {
            (1..=16).contains(&s.len())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(ok_name(name), "{name}");
            assert!(ok_unit(unit), "{name}: unit {unit}");
            assert!(seen.insert(*name), "{name} declared twice");
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }

    #[test]
    fn result_line_prints_every_digit_and_only_the_contract_keys() {
        let mut outcome = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        outcome.metrics.set("setup_s", 0.1234567890123);
        let metrics = outcome.metrics.ordered(&END_TO_END[..1], true);
        assert_eq!(
            result_line(&outcome, &metrics),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.1234567890123, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn a_paced_metric_is_the_median_of_its_normalised_repetitions() {
        use crate::pace::{COMPUTE, REFERENCE_UNIT_MS as IDLE};
        let mut paced = Paced::new(COMPUTE);
        paced.push(0.100, IDLE, IDLE);
        paced.push(0.180, 1.5 * IDLE, 1.5 * IDLE); // 0.120 s on an idle host
        paced.push(0.220, 2.0 * IDLE, 2.0 * IDLE); // 0.110 s on an idle host
        let mut metrics = Metrics::default();
        metrics.set_paced("cell_ms", &paced, |s| s * 1e3);
        metrics.set_paced("sim_minstr_per_s", &paced, |s| 11.0 / s);
        let listed = metrics.ordered(&END_TO_END[2..4], true);
        let (rate, time) = (&listed[0], &listed[1]);
        assert!((time.value - 110.0).abs() < 1e-9, "{}", time.value);
        assert!((rate.value - 100.0).abs() < 1e-9, "{}", rate.value);
        let (raw, slowdown) = time.as_measured.unwrap();
        assert!((raw - 180.0).abs() < 1e-9 && (slowdown - 1.5).abs() < 1e-9);
        assert!(listed
            .iter()
            .all(|m| m.stat == Stat::Normalised && m.count == 3));
        metrics.set_paced_mean("cell_ms", &paced, |s| s * 1e3);
        let mean = &metrics.ordered(&END_TO_END[3..4], true)[0];
        assert!((mean.value - 110.0).abs() < 1e-9 && mean.stat == Stat::NormalisedMean);
    }

    #[test]
    fn untouched_layers_read_zero() {
        let metrics = Metrics::default().ordered(PER_LAYER, false);
        assert_eq!(metrics.len(), PER_LAYER.len());
        assert!(metrics.iter().all(|m| m.value == 0.0));
    }
}
