//! `sweepctl` — command-line client for a running `sweepd`.
//!
//! ```text
//! sweepctl [--addr HOST:PORT] <command> [options]
//!
//!   health                              GET /healthz
//!   stats                               GET /stats
//!   corpora                             GET /corpora
//!   eval  --corpus C --policy P --mix N POST /eval for one cell
//!   sweep --corpus C [--policies a,b]   POST /sweep (default: repro sweep's lineup)
//!         [--mixes 0,1,...]
//!   shutdown                            POST /shutdown
//! ```
//!
//! Prints the response body to stdout; exits non-zero on any non-200 answer.
//! `eval` and `sweep` absorb `429 Too Many Requests` backpressure with capped
//! exponential backoff (jittered, honoring the server's `Retry-After` hint)
//! before giving up.

use std::net::{SocketAddr, ToSocketAddrs};
use std::process::ExitCode;

use sweep_serve::client;
use sweep_serve::json::json_str;
use sweep_serve::{BackoffPolicy, Client, HttpResponse};

fn usage() -> String {
    "usage: sweepctl [--addr HOST:PORT] <health|stats|corpora|shutdown>\n       \
     sweepctl [--addr HOST:PORT] eval --corpus C --policy P --mix N\n       \
     sweepctl [--addr HOST:PORT] sweep --corpus C [--policies a,b,c] [--mixes 0,1]"
        .to_string()
}

fn run(addr: SocketAddr, command: &str, opts: &Opts) -> Result<HttpResponse, String> {
    let io = |e: std::io::Error| format!("talking to sweepd at {addr}: {e}");
    match command {
        "health" => client::get(addr, "/healthz").map_err(io),
        "stats" => client::get(addr, "/stats").map_err(io),
        "corpora" => client::get(addr, "/corpora").map_err(io),
        "shutdown" => client::post(addr, "/shutdown", "{}", None).map_err(io),
        "eval" => {
            let corpus = opts.corpus.as_deref().ok_or("eval requires --corpus")?;
            let policy = opts.policy.as_deref().ok_or("eval requires --policy")?;
            let mix = opts.mix.ok_or("eval requires --mix")?;
            let body = format!(
                "{{\"corpus\":{},\"policy\":{},\"mix_id\":{mix}}}",
                json_str(corpus),
                json_str(policy)
            );
            let mut client = Client::connect(addr, opts.client.as_deref()).map_err(io)?;
            client
                .eval_with_retry(&body, &BackoffPolicy::default())
                .map(|(resp, _)| resp)
                .map_err(io)
        }
        "sweep" => {
            let corpus = opts.corpus.as_deref().ok_or("sweep requires --corpus")?;
            let mut body = format!("{{\"corpus\":{}", json_str(corpus));
            if let Some(policies) = &opts.policies {
                let labels: Vec<String> = policies.iter().map(|p| json_str(p)).collect();
                body.push_str(&format!(",\"policies\":[{}]", labels.join(",")));
            }
            if let Some(mixes) = &opts.mixes {
                let ids: Vec<String> = mixes.iter().map(usize::to_string).collect();
                body.push_str(&format!(",\"mix_ids\":[{}]", ids.join(",")));
            }
            body.push('}');
            let mut client = Client::connect(addr, opts.client.as_deref()).map_err(io)?;
            client
                .post_with_retry("/sweep", &body, &BackoffPolicy::default())
                .map(|(resp, _)| resp)
                .map_err(io)
        }
        other => Err(format!("unknown command {other:?}\n{}", usage())),
    }
}

#[derive(Default)]
struct Opts {
    corpus: Option<String>,
    policy: Option<String>,
    mix: Option<usize>,
    policies: Option<Vec<String>>,
    mixes: Option<Vec<usize>>,
    client: Option<String>,
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut addr_text = "127.0.0.1:7117".to_string();
    let mut command = None;
    let mut opts = Opts::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .map(String::as_str)
                .ok_or(format!("{flag} needs a value\n{}", usage()))
        };
        let parsed: Result<(), String> = match a.as_str() {
            "--addr" => value("--addr").map(|v| addr_text = v.to_string()),
            "--corpus" => value("--corpus").map(|v| opts.corpus = Some(v.to_string())),
            "--policy" => value("--policy").map(|v| opts.policy = Some(v.to_string())),
            "--client" => value("--client").map(|v| opts.client = Some(v.to_string())),
            "--mix" => value("--mix").and_then(|v| {
                v.parse()
                    .map(|n| opts.mix = Some(n))
                    .map_err(|e| format!("--mix: {e}"))
            }),
            "--policies" => value("--policies").map(|v| {
                opts.policies = Some(v.split(',').map(|s| s.trim().to_string()).collect())
            }),
            "--mixes" => value("--mixes").and_then(|v| {
                v.split(',')
                    .map(|s| {
                        s.trim()
                            .parse::<usize>()
                            .map_err(|e| format!("--mixes: {e}"))
                    })
                    .collect::<Result<Vec<_>, _>>()
                    .map(|ids| opts.mixes = Some(ids))
            }),
            "-h" | "--help" => {
                println!("{}", usage());
                return ExitCode::SUCCESS;
            }
            name if !name.starts_with('-') => {
                command = Some(name.to_string());
                Ok(())
            }
            other => Err(format!("unknown flag {other:?}\n{}", usage())),
        };
        if let Err(e) = parsed {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    }
    let Some(command) = command else {
        eprintln!("{}", usage());
        return ExitCode::FAILURE;
    };
    let addr = match addr_text.to_socket_addrs().ok().and_then(|mut a| a.next()) {
        Some(addr) => addr,
        None => {
            eprintln!("--addr: cannot resolve {addr_text:?}");
            return ExitCode::FAILURE;
        }
    };
    match run(addr, &command, &opts) {
        Ok(resp) => {
            println!("{}", resp.body);
            if resp.status == 200 {
                ExitCode::SUCCESS
            } else {
                eprintln!("sweepctl: sweepd answered {}", resp.status);
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("sweepctl: {e}");
            ExitCode::FAILURE
        }
    }
}
