//! `repro` — regenerate the ADAPT paper's figures and tables from the command line.
//!
//! ```text
//! repro <experiment> [--scaled | --paper-scale | --smoke] [--mixes N]
//!
//! experiments: every entry of `experiments::experiment::registry` (`repro --help` lists
//!   them with their titles; `--mixes N` runs exactly N mixes per study), plus
//!   mixes    Print the generated workload mixes (Table 6)
//!   diag     Per-application TA-DRRIP vs ADAPT (and SHiP) diagnostic on one 16-core mix
//!   all      Every experiment on the paper's studies, in registry order
//!
//! corpus mode:
//!   corpus --dir DIR [--study 4|8|...|64] [--mixes N]
//!            Materialize the study's workload mixes as a trace corpus: one .atrc per
//!            mix (captured exactly once, written as checksummed v3 with LZ4-compressed
//!            blocks) plus a manifest recording geometry and seed. Prints what the
//!            capture cost on disk.
//!   sweep  --dir DIR [--arena-bytes N]
//!            Run the Figure 3 policy lineup over a materialized corpus: each trace is
//!            mapped once and the (policy x mix) grid fans out in parallel. Every mix is
//!            streamed from the mapping one block at a time within the memory budget
//!            of a materialized mix (default 256 MiB: decode buffers + event memo; every
//!            other command materializes at the default), with identical
//!            results at every budget, and its private caches are simulated once for
//!            all policies. The report includes the replay-wrap count in passes
//!            (non-zero when the capture budget was smaller than the run). A corrupt
//!            block the sweep reads is an error naming file, core and offset, exit 1.
//!
//! scaling study:
//!   scale  [--cores 32,48,64,128,256] [--mixes N] [--flat] [--memsys]
//!            Many-core scaling study beyond the paper's 24 cores, run under the
//!            cycle-accounted bank contention model (finite ports, bounded per-bank
//!            queues, MSHR back-pressure): per-policy throughput, fairness and
//!            bank-stall share plus per-bank occupancy/stall tables. --flat reruns
//!            the same geometry with the seed's latency-only banking.
//! ```
//!
//! The default scale is `--scaled` (minutes); `--paper-scale` selects the paper's full
//! parameters (hours); `--smoke` is a seconds-long sanity run. A study flag (`--dir`,
//! `--study`, `--cores`, `--flat`, `--memsys`, `--mixes`, `--arena-bytes`) given to a
//! command that does not read it is an error. Corpus mode must load a
//! corpus materialized at the same scale (the manifest's geometry is validated).
//!
//! # Profiling and logging
//!
//! `--profile [DIR]` (directory `profile/` by default) turns on the sim-obs flight
//! recorder for the run and exports `trace.json` (Chrome trace-event format —
//! load it in Perfetto), `intervals.csv` (per-interval core/bank/LLC time-series) and
//! `summary.txt` into DIR. Profiling never changes simulation results: the recorder
//! samples at interval rollovers the simulator already performs.
//!
//! `--log-level error|warn|info|debug|trace|off` (or `REPRO_LOG`) filters the
//! structured stderr diagnostics; the repro default is `info`.

use std::env;
use std::path::PathBuf;
use std::process::ExitCode;

use experiments::experiment::{self, find, registry, Experiment, Mixes, Sources, Summary, Variant};
use experiments::report::render;
use experiments::runner::{synthetic_capture_budget, ReplayConfig};
use experiments::{ExperimentScale, MemSystem};
use sim_obs::log::{take_level_flag, LevelFlagError};
use trace_io::Corpus;
use workloads::{generate_mixes, StudyKind};

/// The scale flags every command takes; `--scaled` is the default.
const SCALES: &str = "[--scaled|--paper-scale|--smoke]";

fn usage() -> String {
    let paper = registry()
        .into_iter()
        .filter(|e| e.in_paper())
        .map(|e| e.name);
    let names: Vec<&str> = paper.chain(["mixes", "diag", "all"]).collect();
    let list: String = registry()
        .iter()
        .map(|e| format!("  {:<9}{}\n", e.name, e.title))
        .collect();
    format!(
        "usage: repro <{}> {SCALES} [--mixes N]\n       repro corpus --dir DIR \
         [--study 4|8|...|64] [--mixes N] {SCALES}\n       repro sweep --dir DIR \
         {SCALES}\n         [--arena-bytes N]\n       \
         repro scale [--cores 32,48,64,128,256] [--mixes N] [--flat] [--memsys] \
         {SCALES}\n\nexperiments:\n{list}  \
         mixes    Print the generated workload mixes (Table 6)\n  \
         diag     Per-application TA-DRRIP vs ADAPT (and SHiP) diagnostic on one 16-core mix\n  \
         all      Every experiment above but scale, in order\n\n\
         sweep: --arena-bytes N  memory budget of a materialized mix in bytes (default\n\
                                 256 MiB): decode buffers + event memo. Every mix is\n\
                                 streamed from the mapping one block at a time; results\n\
                                 are identical at every N\n\n\
         scale: many-core scaling study under the cycle-accounted bank contention model\n\
         (throughput / fairness / bank-stall share / per-core stall attribution per policy;\n\
         --flat reruns the same geometry with the latency-only seed banking; --memsys runs\n\
         the flat vs FCFS vs FR-FCFS+NUCA memory-system head-to-head instead)\n\n\
         global: --profile [DIR]   record a sim-obs profile and export trace.json /\n\
                                   intervals.csv / summary.txt into DIR (default 'profile')\n\
                 --log-level LVL   error|warn|info|debug|trace|off (default info; REPRO_LOG)",
        names.join("|")
    )
}

/// Whether `name` is a subcommand — so `--profile`'s optional DIR operand is not
/// mistaken for one.
fn is_command(name: &str) -> bool {
    find(name).is_some() || ["mixes", "diag", "all", "corpus", "sweep"].contains(&name)
}

/// The study flags `command` reads; one given to a command that does not read it is an
/// error rather than silently ignored. `all` and every registry experiment that runs
/// policies read `--mixes`.
fn flags_read_by(command: &str) -> &'static [&'static str] {
    match command {
        "corpus" => &["--dir", "--study", "--mixes"],
        "sweep" => &["--dir", "--arena-bytes"],
        "scale" => &["--cores", "--flat", "--memsys", "--mixes"],
        "mixes" | "diag" => &[],
        name if find(name).is_some_and(|e| e.policies.is_empty()) => &[],
        _ => &["--mixes"],
    }
}

/// Run an experiment on generated mixes and print its tables.
fn print_experiment(exp: &Experiment, scale: ExperimentScale) {
    let tables = experiment::run(exp, scale, &Sources::Generated)
        .expect("generated mixes always materialize");
    print!("{}", render(&tables, exp.layout()));
}

/// Materialize a study's mixes as an on-disk corpus at this scale.
fn corpus_cmd(
    scale: ExperimentScale,
    dir: &PathBuf,
    study: StudyKind,
    mixes_override: Option<usize>,
) -> Result<(), String> {
    let config = scale.system_config(study);
    let llc_sets = config.llc.geometry.num_sets();
    let count = mixes_override
        .unwrap_or_else(|| scale.mixes_for(study))
        .max(1);
    let mixes = generate_mixes(study, count, scale.seed());
    let accesses = synthetic_capture_budget(scale.instructions_per_core());
    let label = format!("{}-core {} corpus", study.num_cores(), scale.label());
    let (corpus, captures) =
        Corpus::materialize(dir, &label, &mixes, llc_sets, scale.seed(), accesses)
            .map_err(|e| format!("materializing corpus: {e}"))?;
    println!(
        "materialized {} mixes ({} cores, {} accesses/core, llc_sets {}) into {}",
        corpus.entries().len(),
        study.num_cores(),
        accesses,
        llc_sets,
        dir.display()
    );
    let bytes: u64 = captures.iter().map(|c| c.file_bytes).sum();
    let records: u64 = captures.iter().map(|c| c.total_records).sum();
    println!(
        "  {bytes} bytes on disk, {:.2} bytes/record (fixed layout would need 21)",
        bytes as f64 / records.max(1) as f64
    );
    Ok(())
}

/// Run Figure 3's experiment over a materialized corpus.
fn sweep_cmd(scale: ExperimentScale, dir: &PathBuf, replay: &ReplayConfig) -> Result<(), String> {
    let corpus = Corpus::load(dir).map_err(|e| format!("loading corpus: {e}"))?;
    let fig3 = find("fig3").expect("Figure 3 is registered");
    // The sweep seed comes from the corpus manifest, so the alone-run normalization
    // matches the generators the traces were captured from.
    let tables = experiment::run(&fig3, scale, &Sources::Corpus(&corpus, replay))
        .map_err(|e| format!("corpus sweep: {e}"))?;
    print!("{}", render(&tables, fig3.layout()));
    Ok(())
}

fn print_mixes(scale: ExperimentScale) {
    for study in StudyKind::paper_studies() {
        let mixes = generate_mixes(study, scale.mixes_for(study), scale.seed());
        println!(
            "# {}-core study: {} mixes (paper uses {})",
            study.num_cores(),
            mixes.len(),
            study.paper_workload_count()
        );
        for m in &mixes {
            println!("mix {:>3}: {}", m.id, m.benchmarks.join(", "));
        }
        println!();
    }
}

/// Diagnostic: run one 16-core mix under TA-DRRIP, ADAPT and SHiP and print each
/// application's view (MPKI, IPC, normalized IPC) side by side; then, per application,
/// ADAPT's final priority, Footprint-number, bypasses and installs, its interval count,
/// and SHiP's share of distant insertions. The mix is materialized once: its private
/// hierarchy is simulated for the first policy and replayed for the other two, as in
/// every sweep.
fn diag(scale: ExperimentScale) {
    use experiments::policies::AnyPolicy;
    use experiments::runner::evaluate_prepared_system;
    use experiments::{MixSource, PolicyKind};

    let study = StudyKind::Cores16;
    let config = scale.system_config(study);
    let (instructions, seed) = (scale.instructions_per_core(), scale.seed());
    let mix = generate_mixes(study, 1, seed).remove(0);
    let llc_sets = config.llc.geometry.num_sets();
    let prepared = MixSource::synthetic(mix)
        .materialize_with(llc_sets, seed, &ReplayConfig::default())
        .expect("generated mixes always materialize");
    let slots = prepared.mix().thrashing_slots();
    let [(base, _), (adapt, adapt_system), (ship, ship_system)] =
        [PolicyKind::TaDrrip, PolicyKind::AdaptBp32, PolicyKind::Ship].map(|policy| {
            let built = policy.build_dispatch(&config, &slots);
            evaluate_prepared_system(&config, &prepared, policy, built, instructions, seed)
        });
    println!(
        "weighted speedup: TA-DRRIP {:.4}  ADAPT_bp32 {:.4}  ratio {:.4}",
        base.weighted_speedup(),
        adapt.weighted_speedup(),
        adapt.weighted_speedup() / base.weighted_speedup()
    );
    println!(
        "{:<8} {:>6} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "app", "thrash", "mpki_base", "mpki_adpt", "ipc_base", "ipc_adpt", "norm_base", "norm_adpt"
    );
    for (b, a) in base.per_app.iter().zip(&adapt.per_app) {
        println!(
            "{:<8} {:>6} {:>10.2} {:>10.2} {:>10.3} {:>10.3} {:>10.3} {:>10.3}",
            b.name,
            if b.is_thrashing { "yes" } else { "" },
            b.llc_mpki,
            a.llc_mpki,
            b.ipc,
            a.ipc,
            b.normalized_ipc(),
            a.normalized_ipc()
        );
    }
    let AnyPolicy::Adapt(policy) = adapt_system.llc().policy() else {
        unreachable!("ADAPT_bp32 builds ADAPT")
    };
    println!("\nADAPT_bp32 after {} intervals:", policy.intervals());
    println!(
        "{:<8} {:>8} {:>9} {:>10} {:>10}",
        "app", "priority", "footprint", "bypasses", "installs"
    );
    for (app, a) in adapt.per_app.iter().enumerate() {
        let (bypasses, installs) = policy.insertion_counts(app);
        println!(
            "{:<8} {:>8} {:>9.2} {:>10} {:>10}",
            a.name,
            policy.priority_of(app).label(),
            policy.footprint_of(app),
            bypasses,
            installs
        );
    }
    let AnyPolicy::Ship(policy) = ship_system.llc().policy() else {
        unreachable!("SHiP builds SHiP")
    };
    println!(
        "\nSHiP: weighted speedup {:.4}  distant insertions {:.4}",
        ship.weighted_speedup(),
        policy.distant_fraction()
    );
}

fn main() -> ExitCode {
    let mut args: Vec<String> = env::args().skip(1).collect();
    if args.is_empty() {
        eprintln!("{}", usage());
        return ExitCode::FAILURE;
    }
    // Global flags, extracted up front so they work in any position.
    let mut profile: Option<PathBuf> = None;
    if let Some(pos) = args.iter().position(|a| a == "--profile") {
        args.remove(pos);
        // Optional DIR operand: consume the next token unless it is a flag or the
        // experiment name itself.
        let dir = match args.get(pos) {
            Some(next) if !next.starts_with('-') && !is_command(next) => {
                PathBuf::from(args.remove(pos))
            }
            _ => PathBuf::from("profile"),
        };
        profile = Some(dir);
    }
    // Default to `info` so the progress lines stay.
    if let Err(e) = take_level_flag(&mut args, sim_obs::Level::Info) {
        match e {
            LevelFlagError::MissingValue => eprintln!("{e}\n{}", usage()),
            LevelFlagError::Unknown(_) => eprintln!("{e}"),
        }
        return ExitCode::FAILURE;
    }
    let mut scale = ExperimentScale::Scaled;
    let mut experiment = None;
    let mut dir: Option<PathBuf> = None;
    let mut study = StudyKind::Cores16;
    let mut mixes_override: Option<usize> = None;
    let mut cores_list: Option<Vec<StudyKind>> = None;
    let mut flat = false;
    let mut memsys = false;
    let mut replay = ReplayConfig::default();
    let mut study_flags: Vec<&str> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        // Every study flag is read by `corpus`, `sweep` or `scale`.
        let reads = |command: &&str| flags_read_by(command).contains(&a.as_str());
        if ["corpus", "sweep", "scale"].iter().any(reads) {
            study_flags.push(a);
        }
        let mut value = |flag: &str| {
            it.next()
                .map(String::as_str)
                .ok_or(format!("{flag} needs a value\n{}", usage()))
        };
        let parsed = match a.as_str() {
            "--paper-scale" => {
                scale = ExperimentScale::Paper;
                Ok(())
            }
            "--smoke" => {
                scale = ExperimentScale::Smoke;
                Ok(())
            }
            "--scaled" => {
                scale = ExperimentScale::Scaled;
                Ok(())
            }
            "--dir" => value("--dir").map(|v| dir = Some(PathBuf::from(v))),
            "--study" => value("--study")
                .and_then(|v| StudyKind::parse_operand("--study", v).map(|s| study = s)),
            "--cores" => value("--cores").and_then(|v| {
                let studies = v.split(',').map(|c| StudyKind::parse_operand("--cores", c));
                studies
                    .collect::<Result<_, _>>()
                    .map(|c| cores_list = Some(c))
            }),
            "--flat" => {
                flat = true;
                Ok(())
            }
            "--memsys" => {
                memsys = true;
                Ok(())
            }
            "--mixes" => value("--mixes").and_then(|v| {
                v.parse::<usize>()
                    .map(|n| mixes_override = Some(n))
                    .map_err(|e| format!("--mixes: {e}"))
            }),
            "--arena-bytes" => value("--arena-bytes").and_then(|v| {
                v.parse::<u64>()
                    .map(|n| replay.arena_budget_bytes = n)
                    .map_err(|e| format!("--arena-bytes: {e}"))
            }),
            "-h" | "--help" => {
                println!("{}", usage());
                return ExitCode::SUCCESS;
            }
            name if !name.starts_with('-') => {
                experiment = Some(name.to_string());
                Ok(())
            }
            other => Err(format!("unknown flag '{other}'\n{}", usage())),
        };
        if let Err(e) = parsed {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    }
    let Some(experiment) = experiment else {
        eprintln!("{}", usage());
        return ExitCode::FAILURE;
    };
    let read = flags_read_by(&experiment);
    if let Some(flag) = study_flags.iter().find(|f| !read.contains(f)) {
        eprintln!("'{experiment}' does not take {flag}\n{}", usage());
        return ExitCode::FAILURE;
    }
    // `--mixes N` evaluates exactly N mixes per study, whatever the experiment.
    let with_mixes = |exp: Experiment| Experiment {
        mixes: mixes_override.map_or(exp.mixes, Mixes::Exactly),
        ..exp
    };
    if let Some(dir) = &profile {
        sim_obs::enable();
        sim_obs::set_thread_name("main");
        sim_obs::obs_info!("repro", "profiling to {}", dir.display());
    }
    sim_obs::obs_info!("repro", "running '{experiment}' at {} scale", scale.label());
    let outcome = match experiment.as_str() {
        "corpus" | "sweep" => {
            let Some(dir) = dir else {
                eprintln!("'{experiment}' requires --dir DIR\n{}", usage());
                return ExitCode::FAILURE;
            };
            if experiment == "corpus" {
                corpus_cmd(scale, &dir, study, mixes_override)
            } else {
                sweep_cmd(scale, &dir, &replay)
            }
        }
        "mixes" => {
            print_mixes(scale);
            Ok(())
        }
        "diag" => {
            diag(scale);
            Ok(())
        }
        "all" => {
            for exp in registry().into_iter().filter(|e| e.in_paper()) {
                println!("==== {} ====", exp.name);
                print_experiment(&with_mixes(exp), scale);
                println!();
            }
            Ok(())
        }
        name => match find(name) {
            Some(exp) => {
                // The scaling study's own flags pick its core counts and memory systems.
                let exp = match name {
                    "scale" => {
                        let (systems, summary) = match (memsys, flat) {
                            (true, _) => (MemSystem::all().to_vec(), Summary::HeadToHead),
                            (false, true) => (vec![MemSystem::Flat], Summary::Scaling),
                            (false, false) => (vec![MemSystem::FcfsContended], Summary::Scaling),
                        };
                        Experiment {
                            studies: cores_list.unwrap_or(exp.studies),
                            variant: Variant::MemSys(systems),
                            summaries: vec![summary],
                            ..exp
                        }
                    }
                    _ => exp,
                };
                print_experiment(&with_mixes(exp), scale);
                Ok(())
            }
            None => Err(format!("unknown experiment '{name}'\n{}", usage())),
        },
    };
    // Export the profile even when the experiment failed: the partial timeline is
    // usually exactly what explains the failure.
    let mut export_failed = false;
    if let Some(dir) = &profile {
        match sim_obs::export_profile(dir) {
            Ok(report) => sim_obs::obs_info!(
                "repro",
                "profile: {} events ({} dropped) -> {} (trace.json {} events, \
                 intervals.csv {} rows)",
                report.events,
                report.dropped,
                dir.display(),
                report.trace_events,
                report.csv_rows
            ),
            Err(e) => {
                sim_obs::obs_error!("repro", "profile export to {} failed: {e}", dir.display());
                export_failed = true;
            }
        }
    }
    match outcome {
        Ok(()) if !export_failed => ExitCode::SUCCESS,
        Ok(()) => ExitCode::FAILURE,
        Err(e) => {
            sim_obs::obs_error!("repro", "{e}");
            ExitCode::FAILURE
        }
    }
}
