//! The repository's benchmark: one workload per invocation, from trace bytes through
//! the simulator and the sweep engine to the daemon, timed from outside the product.
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! `--trace 0` (the default) runs the workload untraced and reports every end-to-end
//! metric; `--trace 1` (or `--traced`) runs a separate, smaller traced pass and reports
//! every per-layer metric, writing the spans to `benchmark/out/`. The last line of
//! standard output is one JSON object with the keys `correct`, `attempted`, `failed`
//! and `metrics`. See README.md for the workloads, the metrics and how to read them.

mod corpus;
mod host;
mod inputs;
mod pace;
mod report;
mod serve;
mod sim;
mod span;
mod stage;
mod stats;
mod wrap;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use host::{HostFacts, TempDir};
use report::{Outcome, END_TO_END, PER_LAYER};
use sim::LiveSpec;
use span::Tracer;

/// The workloads `BENCHMARK.json` lists.
const WORKLOADS: [&str; 4] = [
    "paper16_live",
    "many128_memsys",
    "corpus16_roundtrip",
    "sweepd_mixed",
];

const DEFAULT_SEED: u64 = 1;

/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: u64 = 25;

/// What one invocation was asked to do, and where.
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub traced: bool,
    pub host: HostFacts,
    /// `benchmark/out/` of the checkout the command was started in.
    pub out_dir: PathBuf,
}

const USAGE: &str =
    "usage: adapt-benchmark --workload <paper16_live|many128_memsys|corpus16_roundtrip|\
sweepd_mixed> [--seed <n>] [--seconds <n>] [--trace <0|1> | --traced]";

fn parse_args(args: &[String]) -> Result<(String, u64, u64, bool), String> {
    let (mut workload, mut seed, mut seconds, mut traced) =
        (None, DEFAULT_SEED, DEFAULT_SECONDS, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => {
                seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes a whole number".to_string())?
            }
            "--seconds" => {
                seconds = value()?
                    .parse()
                    .map_err(|_| "--seconds takes a whole number".to_string())?
            }
            "--trace" => {
                traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--traced" => traced = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; one of {WORKLOADS:?}"
        ));
    }
    if seconds == 0 {
        return Err("--seconds must be at least 1".to_string());
    }
    Ok((workload, seed, seconds, traced))
}

fn run_workload(opts: &Opts, tmp: &TempDir, tracer: &mut Tracer) -> Outcome {
    match (opts.workload.as_str(), opts.traced) {
        ("paper16_live", false) => sim::run_live(&LiveSpec::paper16_live(), opts),
        ("paper16_live", true) => sim::trace_live(&LiveSpec::paper16_live(), opts, tracer),
        ("many128_memsys", false) => sim::run_live(&LiveSpec::many128_memsys(), opts),
        ("many128_memsys", true) => sim::trace_live(&LiveSpec::many128_memsys(), opts, tracer),
        ("corpus16_roundtrip", false) => corpus::run(opts, tmp),
        ("corpus16_roundtrip", true) => corpus::trace(opts, tmp, tracer),
        ("sweepd_mixed", false) => serve::run(opts, tmp),
        ("sweepd_mixed", true) => serve::trace(opts, tmp, tracer),
        (other, _) => unreachable!("workload {other:?} passed validation"),
    }
}

fn run(opts: &Opts) -> Result<(), String> {
    std::fs::create_dir_all(&opts.out_dir)
        .map_err(|e| format!("creating {}: {e}", opts.out_dir.display()))?;
    let tmp = TempDir::create(&opts.out_dir, &opts.workload, opts.seed)
        .map_err(|e| format!("creating the run's scratch directory: {e}"))?;
    let mut tracer = Tracer::new();
    let mut outcome = run_workload(opts, &tmp, &mut tracer);
    drop(tmp);

    let stem = format!("{}.{}", opts.workload, opts.seed);
    let metrics = if opts.traced {
        outcome.metrics.set("trace.spans", tracer.len() as f64);
        let path = opts.out_dir.join(format!("{stem}.trace.json"));
        tracer
            .write_chrome(&path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        outcome.metrics.ordered(PER_LAYER, false)
    } else {
        // Read last: everything the workload allocated is behind us.
        let rss = host::peak_rss_mb().ok_or("reading VmHWM from /proc/self/status")?;
        outcome.metrics.set("peak_rss_mb", rss);
        outcome.metrics.ordered(END_TO_END, true)
    };

    let kind = if opts.traced { "traced" } else { "untraced" };
    let path = opts.out_dir.join(format!("{stem}.{kind}.report.json"));
    let json = report::render_json(opts, &outcome, &metrics);
    std::fs::write(&path, json).map_err(|e| format!("writing {}: {e}", path.display()))?;

    print!("{}", report::render_text(opts, &outcome, &metrics));
    println!("{}", report::result_line(&outcome, &metrics));
    Ok(())
}

fn main() -> ExitCode {
    // No environment variable may change what is measured.
    for name in host::SCRUBBED_ENV {
        std::env::remove_var(name);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, seed, seconds, traced) = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(message) => {
            eprintln!("{message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if !Path::new("benchmark/Cargo.toml").is_file() {
        eprintln!("run from the root of the checkout (benchmark/Cargo.toml not found)");
        return ExitCode::from(2);
    }
    let host = HostFacts::gather();
    if host.nproc < 2 {
        // Sweep throughput, parallel efficiency and closed-loop latency all mean
        // something else with a single worker; refuse rather than print them.
        eprintln!("this host offers 1 hardware thread; the benchmark needs at least 2 and reports nothing");
        return ExitCode::from(3);
    }
    let opts = Opts {
        workload,
        seed,
        seconds,
        traced,
        host,
        out_dir: PathBuf::from("benchmark/out"),
    };
    match run(&opts) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn the_driver_command_line_parses() {
        let parsed = parse_args(&args(
            "--workload sweepd_mixed --seed 42 --seconds 9 --trace 1",
        ))
        .unwrap();
        assert_eq!(parsed, ("sweepd_mixed".to_string(), 42, 9, true));
        let parsed = parse_args(&args("--workload paper16_live")).unwrap();
        assert_eq!(
            parsed,
            (
                "paper16_live".to_string(),
                DEFAULT_SEED,
                DEFAULT_SECONDS,
                false
            )
        );
        assert!(
            parse_args(&args("--workload paper16_live --traced"))
                .unwrap()
                .3
        );
    }

    #[test]
    fn bad_command_lines_are_refused() {
        for line in [
            "",
            "--workload nope",
            "--workload paper16_live --seed x",
            "--workload paper16_live --seconds 0",
            "--workload paper16_live --trace 2",
            "--workload paper16_live --seed",
            "--workload paper16_live --frobnicate",
        ] {
            assert!(
                parse_args(&args(line)).is_err(),
                "{line:?} should be refused"
            );
        }
    }

    /// `BENCHMARK.json` names these workloads and this run length.
    #[test]
    fn benchmark_json_names_the_same_workloads_and_run_length() {
        let text = include_str!("../../BENCHMARK.json");
        for workload in WORKLOADS {
            assert!(
                text.contains(&format!("\"name\": \"{workload}\"")),
                "{workload}"
            );
        }
        assert!(text.contains(&format!("\"run_seconds\": {DEFAULT_SECONDS}")));
    }
}
