//! `sweepd` — the resident policy-evaluation daemon.
//!
//! ```text
//! sweepd --corpus NAME=DIR [--corpus NAME=DIR ...] [options]
//!
//!   --corpus NAME=DIR    load the corpus at DIR under registry name NAME (repeatable)
//!   --addr HOST:PORT     bind address (default 127.0.0.1:7117; port 0 = ephemeral)
//!   --workers N          evaluation worker threads (default: available cores)
//!   --queue N            bound on queued jobs across all clients (default 256)
//!   --paper-scale|--scaled|--smoke
//!                        experiment scale the corpora were materialized at
//!                        (default scaled; sets geometry and run length)
//!   --arena-bytes N      memory budget of a materialized mix in bytes (default
//!                        256 MiB): decode buffers + event memo. Every mix is
//!                        streamed from its mapping one block at a time; served
//!                        results are identical at every N
//! ```
//!
//! The daemon serves until `POST /shutdown` (see `sweepctl shutdown`).

use std::path::PathBuf;
use std::process::ExitCode;

use experiments::ExperimentScale;
use sweep_serve::{Server, ServerConfig};

fn usage() -> String {
    "usage: sweepd --corpus NAME=DIR [--corpus NAME=DIR ...]\n       \
     [--addr HOST:PORT] [--workers N] [--queue N]\n       \
     [--paper-scale|--scaled|--smoke]\n       \
     [--arena-bytes N]"
        .to_string()
}

fn parse_args(args: &[String]) -> Result<Option<ServerConfig>, String> {
    let mut config = ServerConfig {
        addr: "127.0.0.1:7117".to_string(),
        workers: std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        ..ServerConfig::default()
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .map(String::as_str)
                .ok_or(format!("{flag} needs a value\n{}", usage()))
        };
        match a.as_str() {
            "--corpus" => {
                let v = value("--corpus")?;
                let (name, dir) = v
                    .split_once('=')
                    .ok_or(format!("--corpus expects NAME=DIR, got {v:?}"))?;
                if name.is_empty() || dir.is_empty() {
                    return Err(format!("--corpus expects NAME=DIR, got {v:?}"));
                }
                config.corpora.push((name.to_string(), PathBuf::from(dir)));
            }
            "--addr" => config.addr = value("--addr")?.to_string(),
            "--workers" => {
                config.workers = value("--workers")?
                    .parse()
                    .map_err(|e| format!("--workers: {e}"))?
            }
            "--queue" => {
                config.queue_capacity = value("--queue")?
                    .parse()
                    .map_err(|e| format!("--queue: {e}"))?
            }
            "--paper-scale" => config.scale = ExperimentScale::Paper,
            "--scaled" => config.scale = ExperimentScale::Scaled,
            "--smoke" => config.scale = ExperimentScale::Smoke,
            "--arena-bytes" => {
                config.replay.arena_budget_bytes = value("--arena-bytes")?
                    .parse()
                    .map_err(|e| format!("--arena-bytes: {e}"))?
            }
            "-h" | "--help" => {
                println!("{}", usage());
                return Ok(None);
            }
            other => return Err(format!("unknown flag {other:?}\n{}", usage())),
        }
    }
    if config.corpora.is_empty() {
        return Err(format!(
            "at least one --corpus NAME=DIR is required\n{}",
            usage()
        ));
    }
    Ok(Some(config))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let config = match parse_args(&args) {
        Ok(Some(config)) => config,
        Ok(None) => return ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let corpora: Vec<String> = config
        .corpora
        .iter()
        .map(|(name, dir)| format!("{name}={}", dir.display()))
        .collect();
    let mut handle = match Server::spawn(config) {
        Ok(handle) => handle,
        Err(e) => {
            eprintln!("sweepd: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "sweepd listening on {} ({})",
        handle.addr(),
        corpora.join(", ")
    );
    handle.wait();
    println!("sweepd: shut down");
    ExitCode::SUCCESS
}
