//! `sweepd`: the resident policy-evaluation server.
//!
//! # Architecture
//!
//! ```text
//!  accept thread ── thread per connection ──> route()
//!                        │                      │ memo hit: answer immediately
//!                        │                      │ memo miss: enqueue Job ──┐
//!                        ▼                      ▼                          ▼
//!                  HTTP parse (bounded)    FairQueue (bounded, per-client round-robin)
//!                                                                          │
//!                                          worker pool: evaluate on resident streams,
//!                                          memoize, append sweep.progress, reply
//! ```
//!
//! Connection threads only parse, route, and wait on reply channels; all simulation
//! happens in the fixed-size worker pool fed by the [`FairQueue`], so a thousand
//! concurrent connections contend for workers through the fairness rotation rather
//! than through the scheduler. Handler and worker bodies are wrapped in
//! `catch_unwind`: a panicking request answers 500 and never wedges a worker.
//!
//! # One cell path
//!
//! `/eval` and `/sweep` parse their bodies into a list of `(policy, mix)` cells of one
//! corpus and hand it to `answer_cells`: memo probe, enqueue of every miss, and one
//! awaited reply per enqueued cell. They differ only in how a miss is enqueued and in
//! the body they wrap the cells in. `/eval` uses [`FairQueue::try_push`]: a full queue
//! answers `429 Too Many Requests` with `Retry-After`, making overload explicit instead
//! of queueing unboundedly. `/sweep` — a bulk producer by design — uses
//! [`FairQueue::push_blocking`] so grids larger than the queue drain through it, still
//! bounded by the push timeout.

use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::Duration;

use experiments::runner::ReplayConfig;
use experiments::{ExperimentScale, PolicyKind};
use sim_obs::JsonValue;

use crate::fairqueue::{FairQueue, PushError};
use crate::http::{read_request, write_response, Limits, ParseError};
use crate::json::{error_body, evaluation_json, fmt_f64, json_str};
use crate::memo::{MemoKey, MemoStore};
use crate::registry::{LoadedCorpus, Registry};

/// How long a connection thread waits for a worker before giving up (a liveness
/// backstop; workers normally answer in milliseconds).
const REPLY_TIMEOUT: Duration = Duration::from_secs(600);

/// Default per-cell bound on `/sweep`'s blocking enqueue
/// ([`ServerConfig::sweep_push_timeout`]).
const SWEEP_PUSH_TIMEOUT: Duration = Duration::from_secs(60);

/// Idle read timeout on accepted sockets: bounds torn-body stalls (408) and reclaims
/// abandoned keep-alive connections.
const READ_TIMEOUT: Duration = Duration::from_secs(30);

/// Write timeout on accepted sockets: a client that accepts its response slower
/// than this (slowloris on the response path) loses the connection instead of
/// pinning a connection thread forever.
const WRITE_TIMEOUT: Duration = Duration::from_secs(30);

/// Stack size for connection threads: they parse, route and block on channels — no
/// simulation — so small stacks let thousands coexist.
const CONNECTION_STACK_BYTES: usize = 256 * 1024;

/// Everything `sweepd` needs to start serving.
pub struct ServerConfig {
    /// Bind address (`127.0.0.1:0` picks an ephemeral port, reported by
    /// [`ServerHandle::addr`]).
    pub addr: String,
    /// Worker threads executing evaluations.
    pub workers: usize,
    /// Bound on queued (accepted but unstarted) jobs across all clients.
    pub queue_capacity: usize,
    /// HTTP parser limits.
    pub limits: Limits,
    /// Experiment scale the corpora were materialized at (geometry + run length).
    pub scale: ExperimentScale,
    /// Arena budget per resident mix: the decode buffers that stream it from its mapping
    /// plus the event memo of its shared private stages.
    pub replay: ReplayConfig,
    /// `(name, directory)` pairs of corpora to load at startup.
    pub corpora: Vec<(String, PathBuf)>,
    /// Per-cell bound on `/sweep`'s blocking enqueue: how long one grid cell may
    /// wait for queue space before the whole sweep answers 429.
    pub sweep_push_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            queue_capacity: 256,
            limits: Limits::default(),
            scale: ExperimentScale::Scaled,
            replay: ReplayConfig::default(),
            corpora: Vec::new(),
            sweep_push_timeout: SWEEP_PUSH_TIMEOUT,
        }
    }
}

/// A unit of work for the pool: one `(corpus, policy, mix)` cell.
struct Job {
    corpus: Arc<LoadedCorpus>,
    policy: PolicyKind,
    key: MemoKey,
    reply: mpsc::Sender<WorkerReply>,
}

enum WorkerReply {
    Done(Arc<String>),
    Panicked,
    /// Replay corruption: the job's corpus has been quarantined with this reason.
    Faulted(String),
}

struct Shared {
    registry: Registry,
    memo: MemoStore,
    queue: FairQueue<Job>,
    limits: Limits,
    running: AtomicBool,
    recovered_cells: usize,
    workers: usize,
    addr: SocketAddr,
    sweep_push_timeout: Duration,
}

/// A running daemon; dropping (or [`ServerHandle::stop`]) shuts it down.
pub struct ServerHandle {
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

/// Daemon entry point: [`Server::spawn`] binds, loads corpora, and starts the pool.
pub struct Server;

impl Server {
    /// Bind `config.addr`, load every corpus (recovering persisted sweep progress into
    /// the memo store), start the worker pool and the accept loop.
    pub fn spawn(config: ServerConfig) -> Result<ServerHandle, String> {
        // Arm the fault-injection layer from `SIM_FAULT_PLAN` if set (no-op and
        // zero-cost otherwise); a malformed spec is a startup error, not a
        // silently fault-free run.
        sim_fault::init_from_env().map_err(|e| format!("SIM_FAULT_PLAN: {e}"))?;
        let memo = MemoStore::new();
        let (registry, recovered_cells) =
            Registry::load(&config.corpora, config.scale, &config.replay, &memo)?;
        let listener =
            TcpListener::bind(&config.addr).map_err(|e| format!("binding {}: {e}", config.addr))?;
        let addr = listener
            .local_addr()
            .map_err(|e| format!("resolving bound address: {e}"))?;
        let workers = config.workers.max(1);
        let shared = Arc::new(Shared {
            registry,
            memo,
            queue: FairQueue::new(config.queue_capacity.max(1)),
            limits: config.limits,
            running: AtomicBool::new(true),
            recovered_cells,
            workers,
            addr,
            sweep_push_timeout: config.sweep_push_timeout,
        });
        let worker_handles = (0..workers)
            .map(|i| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("sweepd-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .map_err(|e| format!("spawning worker: {e}"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let accept = {
            let shared = shared.clone();
            std::thread::Builder::new()
                .name("sweepd-accept".to_string())
                .spawn(move || accept_loop(&shared, listener))
                .map_err(|e| format!("spawning accept loop: {e}"))?
        };
        if recovered_cells > 0 {
            sim_obs::obs_info!(
                "sweepd",
                "recovered {recovered_cells} persisted sweep cell(s) into the memo store"
            );
        }
        Ok(ServerHandle {
            shared,
            accept: Some(accept),
            workers: worker_handles,
        })
    }
}

impl ServerHandle {
    /// The bound address (useful with an ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Block until the daemon shuts down (via `/shutdown` or [`ServerHandle::stop`]).
    pub fn wait(&mut self) {
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }

    /// Initiate shutdown and join the accept loop and worker pool. Queued-but-unstarted
    /// jobs are dropped (their clients get 503); the job a worker is executing finishes
    /// and is persisted, which is what makes kill-and-restart resumable.
    pub fn stop(mut self) {
        initiate_shutdown(&self.shared);
        self.wait();
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        initiate_shutdown(&self.shared);
        self.wait();
    }
}

fn initiate_shutdown(shared: &Shared) {
    if !shared.running.swap(false, Ordering::SeqCst) {
        return;
    }
    shared.queue.close();
    // Wake the accept loop so it observes `running == false`.
    let _ = TcpStream::connect(shared.addr);
}

fn accept_loop(shared: &Arc<Shared>, listener: TcpListener) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => continue,
        };
        if !shared.running.load(Ordering::SeqCst) {
            return;
        }
        let shared = shared.clone();
        let spawned = std::thread::Builder::new()
            .stack_size(CONNECTION_STACK_BYTES)
            .spawn(move || connection_loop(&shared, stream));
        if spawned.is_err() {
            // Out of threads: shed load instead of dying.
            continue;
        }
    }
}

fn connection_loop(shared: &Arc<Shared>, stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
    let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
    let _ = stream.set_nodelay(true);
    let Ok(reader_stream) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(reader_stream);
    let mut writer = stream;
    loop {
        if !shared.running.load(Ordering::SeqCst) {
            let _ = write_response(
                &mut writer,
                503,
                &[],
                &error_body("server is shutting down"),
                true,
            );
            return;
        }
        match read_request(&mut reader, &shared.limits) {
            Ok(req) => {
                let resp = catch_unwind(AssertUnwindSafe(|| route(shared, &req)))
                    .unwrap_or_else(|_| Response::error(500, "internal error"));
                if sim_fault::fire("serve.conn.close").is_some() {
                    // Injected connection drop: the client sees EOF — a visible
                    // failure, never silently wrong bytes.
                    return;
                }
                let Response {
                    status,
                    headers,
                    body,
                    shutdown,
                } = resp;
                if write_response(&mut writer, status, &headers, &body, req.close).is_err() {
                    return;
                }
                if shutdown {
                    initiate_shutdown(shared);
                    return;
                }
                if req.close {
                    return;
                }
            }
            // Clean keep-alive EOF.
            Err(ParseError::Closed) => return,
            // Protocol violation: answer, then drop the (possibly desynchronized)
            // connection. The worker pool never saw this request.
            Err(ParseError::Bad { status, message }) => {
                let _ = write_response(&mut writer, status, &[], &error_body(&message), true);
                return;
            }
            Err(ParseError::Io(_)) => return,
        }
    }
}

fn worker_loop(shared: &Arc<Shared>) {
    while let Some((client, job)) = shared.queue.pop() {
        let reply = execute_job(shared, &job);
        shared.queue.note_completed(&client);
        let _ = job.reply.send(reply);
    }
}

/// Run one job to a reply. The whole execution — including any injected
/// scheduling fault — happens under `catch_unwind`, so no fault or bug can kill a
/// worker thread. A typed `ReplayFault` unwind (mid-replay corruption) quarantines
/// the job's corpus and answers a typed 503; any other panic answers 500.
fn execute_job(shared: &Arc<Shared>, job: &Job) -> WorkerReply {
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        match sim_fault::fire("serve.worker") {
            Some(sim_fault::FaultKind::Stall(ms)) => std::thread::sleep(Duration::from_millis(ms)),
            Some(sim_fault::FaultKind::Panic) => panic!("injected fault at serve.worker: panic"),
            _ => {}
        }
        if let Some(reason) = shared.registry.quarantine_reason(&job.corpus.name) {
            // The corpus was quarantined while this job sat queued: refuse fast
            // instead of re-running the replay that just failed.
            return Err(reason);
        }
        // Another worker (or a restart recovery) may have filled this cell while the
        // job sat queued; the re-check is quiet so /stats counters only reflect what
        // requests observed.
        if let Some(hit) = shared.memo.peek(&job.key) {
            return Ok(Some(hit));
        }
        Ok(job.corpus.evaluate(job.policy, job.key.mix_id).map(|eval| {
            let json = Arc::new(evaluation_json(&eval));
            shared.memo.insert(job.key.clone(), json.clone());
            job.corpus.progress.append(
                &job.key.policy,
                job.key.mix_id,
                job.key.instructions,
                &json,
            );
            json
        }))
    }));
    match outcome {
        Ok(Ok(Some(json))) => WorkerReply::Done(json),
        // The mix disappeared between parse and execution — treated like a crash.
        Ok(Ok(None)) => WorkerReply::Panicked,
        Ok(Err(reason)) => WorkerReply::Faulted(reason),
        Err(payload) => match cache_sim::trace::replay_fault_from(payload.as_ref()) {
            Some(fault) => {
                shared.registry.quarantine(&job.corpus.name, &fault.message);
                WorkerReply::Faulted(fault.message.clone())
            }
            None => WorkerReply::Panicked,
        },
    }
}

struct Response {
    status: u16,
    headers: Vec<(&'static str, String)>,
    body: String,
    shutdown: bool,
}

impl Response {
    fn ok(body: String) -> Response {
        Response {
            status: 200,
            headers: Vec::new(),
            body,
            shutdown: false,
        }
    }

    fn error(status: u16, message: &str) -> Response {
        Response {
            status,
            headers: Vec::new(),
            body: error_body(message),
            shutdown: false,
        }
    }

    fn with_header(mut self, name: &'static str, value: String) -> Response {
        self.headers.push((name, value));
        self
    }
}

fn route(shared: &Arc<Shared>, req: &crate::http::Request) -> Response {
    let client = req.header("x-client").unwrap_or("anon");
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => Response::ok("{\"status\":\"ok\"}".to_string()),
        ("GET", "/stats") => Response::ok(stats_body(shared)),
        ("GET", "/corpora") => Response::ok(corpora_body(shared)),
        ("POST", "/eval") => eval_endpoint(shared, client, &req.body).unwrap_or_else(|e| e),
        ("POST", "/sweep") => sweep_endpoint(shared, client, &req.body).unwrap_or_else(|e| e),
        ("POST", "/revalidate") => revalidate_endpoint(shared, &req.body).unwrap_or_else(|e| e),
        ("POST", "/shutdown") => Response {
            status: 200,
            headers: Vec::new(),
            body: "{\"status\":\"shutting-down\"}".to_string(),
            shutdown: true,
        },
        ("GET", "/eval" | "/sweep" | "/revalidate" | "/shutdown")
        | ("POST", "/healthz" | "/stats" | "/corpora") => {
            Response::error(405, "wrong method for this endpoint")
        }
        _ => Response::error(404, "no such endpoint"),
    }
}

/// The typed 503 a quarantined corpus answers with: machine-readable flag plus the
/// quarantine reason, so clients can tell "broken corpus" from "shutting down".
fn quarantined_response(name: &str, reason: &str) -> Response {
    Response {
        status: 503,
        headers: Vec::new(),
        body: format!(
            "{{\"error\":{},\"quarantined\":true,\"corpus\":{}}}",
            json_str(&format!("corpus {name:?} is quarantined: {reason}")),
            json_str(name)
        ),
        shutdown: false,
    }
}

fn string_field<'a>(body: &'a JsonValue, name: &str) -> Result<&'a str, Response> {
    body.get(name)
        .and_then(JsonValue::as_str)
        .ok_or_else(|| Response::error(400, &format!("missing string field {name:?}")))
}

/// The corpus a request body names in `"corpus"`, quarantined or not.
fn find_corpus(shared: &Shared, body: &JsonValue) -> Result<Arc<LoadedCorpus>, Response> {
    let name = string_field(body, "corpus")?;
    shared
        .registry
        .get(name)
        .ok_or_else(|| Response::error(404, &format!("no corpus named {name:?}")))
}

/// [`find_corpus`], refused with the typed 503 while the corpus is quarantined.
fn serving_corpus(shared: &Shared, body: &JsonValue) -> Result<Arc<LoadedCorpus>, Response> {
    let corpus = find_corpus(shared, body)?;
    match shared.registry.quarantine_reason(&corpus.name) {
        Some(reason) => Err(quarantined_response(&corpus.name, &reason)),
        None => Ok(corpus),
    }
}

fn parse_policy(label: &str) -> Result<PolicyKind, Response> {
    PolicyKind::parse(label)
        .ok_or_else(|| Response::error(400, &format!("unknown policy {label:?}")))
}

/// `raw` as a mix id of `corpus`: a 400 with `malformed` unless it is a non-negative
/// integer, a 404 unless the corpus holds that mix.
fn parse_mix_id(corpus: &LoadedCorpus, raw: f64, malformed: &str) -> Result<usize, Response> {
    if raw < 0.0 || raw.fract() != 0.0 {
        return Err(Response::error(400, malformed));
    }
    let mix_id = raw as usize;
    if corpus.prepared(mix_id).is_none() {
        return Err(Response::error(
            404,
            &format!("corpus {:?} has no mix {mix_id}", corpus.name),
        ));
    }
    Ok(mix_id)
}

fn parse_json_body(body: &[u8]) -> Result<JsonValue, Response> {
    let text = std::str::from_utf8(body)
        .map_err(|_| Response::error(400, "request body is not valid UTF-8"))?;
    JsonValue::parse(text).map_err(|e| Response::error(400, &format!("malformed JSON body: {e}")))
}

/// Answer `cells` of `corpus` in order. A memo hit is answered in place; a miss becomes
/// a [`Job`] handed to `push`, and a full queue answers 429 with `full` (and
/// `Retry-After`), a closed one 503. Every enqueued cell's reply is then awaited once.
/// Returns the bodies in cell order and how many were memo hits.
fn answer_cells(
    shared: &Shared,
    corpus: &Arc<LoadedCorpus>,
    cells: &[(PolicyKind, usize)],
    full: &str,
    mut push: impl FnMut(Job) -> Result<(), PushError>,
) -> Result<(Vec<Arc<String>>, u64), Response> {
    enum Slot {
        Hit(Arc<String>),
        Pending(mpsc::Receiver<WorkerReply>),
    }
    // Probing counts: each cell is one observed request.
    let mut slots = Vec::with_capacity(cells.len());
    let mut hits = 0u64;
    for &(policy, mix_id) in cells {
        let key = corpus.memo_key(&policy.label(), mix_id);
        if let Some(hit) = shared.memo.lookup(&key) {
            hits += 1;
            slots.push(Slot::Hit(hit));
            continue;
        }
        let (reply, rx) = mpsc::channel();
        let job = Job {
            corpus: corpus.clone(),
            policy,
            key,
            reply,
        };
        match push(job) {
            Ok(()) => slots.push(Slot::Pending(rx)),
            Err(PushError::Full) => {
                return Err(Response::error(429, full).with_header("Retry-After", "1".to_string()))
            }
            Err(PushError::Closed) => return Err(Response::error(503, "server is shutting down")),
        }
    }
    let bodies = slots
        .into_iter()
        .map(|slot| match slot {
            Slot::Hit(json) => Ok(json),
            Slot::Pending(rx) => match rx.recv_timeout(REPLY_TIMEOUT) {
                Ok(WorkerReply::Done(json)) => Ok(json),
                Ok(WorkerReply::Panicked) => Err(Response::error(500, "evaluation panicked")),
                Ok(WorkerReply::Faulted(reason)) => {
                    Err(quarantined_response(&corpus.name, &reason))
                }
                Err(_) => Err(Response::error(503, "server is shutting down")),
            },
        })
        .collect::<Result<_, _>>()?;
    Ok((bodies, hits))
}

/// `POST /eval` — one `(corpus, policy, mix)` cell. Memo hits answer immediately
/// (`X-Memo: hit`); misses enqueue fail-fast and answer 429 under backpressure.
fn eval_endpoint(shared: &Shared, client: &str, raw_body: &[u8]) -> Result<Response, Response> {
    let body = parse_json_body(raw_body)?;
    let corpus = serving_corpus(shared, &body)?;
    let policy = parse_policy(string_field(&body, "policy")?)?;
    let raw = body
        .get("mix_id")
        .and_then(JsonValue::as_number)
        .ok_or_else(|| Response::error(400, "missing numeric field \"mix_id\""))?;
    let mix_id = parse_mix_id(&corpus, raw, "\"mix_id\" must be a non-negative integer")?;
    let push = |job| shared.queue.try_push(client, job);
    let (bodies, hits) = answer_cells(
        shared,
        &corpus,
        &[(policy, mix_id)],
        "evaluation queue is full",
        push,
    )?;
    let memo = if hits == 1 { "hit" } else { "miss" };
    Ok(Response::ok(bodies[0].as_str().to_string()).with_header("X-Memo", memo.to_string()))
}

/// `POST /sweep` — a full `(policies × mixes)` grid over one corpus, in the exact
/// `(mix outer, policy inner)` order `repro sweep` evaluates. Misses drain through the
/// bounded queue (blocking push). The response's `results` array concatenates the
/// canonical per-cell JSON bodies, so each element is byte-identical to the
/// corresponding `/eval` response.
fn sweep_endpoint(shared: &Shared, client: &str, raw_body: &[u8]) -> Result<Response, Response> {
    let body = parse_json_body(raw_body)?;
    let corpus = serving_corpus(shared, &body)?;
    // Default lineup = `repro sweep`'s: TA-DRRIP plus the Figure 3 legend.
    let policies: Vec<PolicyKind> = match body.get("policies") {
        None => std::iter::once(PolicyKind::TaDrrip)
            .chain(PolicyKind::figure3_lineup())
            .collect(),
        Some(v) => {
            let not_labels = || Response::error(400, "\"policies\" must be an array of labels");
            let items = v.as_array().ok_or_else(not_labels)?;
            items
                .iter()
                .map(|item| parse_policy(item.as_str().ok_or_else(not_labels)?))
                .collect::<Result<_, _>>()?
        }
    };
    let mix_ids: Vec<usize> = match body.get("mix_ids") {
        None => corpus.mix_ids(),
        Some(v) => {
            let not_integers = "\"mix_ids\" must be an array of integers";
            let items = v
                .as_array()
                .ok_or_else(|| Response::error(400, not_integers))?;
            items
                .iter()
                .map(|item| {
                    let raw = item
                        .as_number()
                        .ok_or_else(|| Response::error(400, not_integers))?;
                    parse_mix_id(&corpus, raw, not_integers)
                })
                .collect::<Result<_, _>>()?
        }
    };
    if policies.is_empty() || mix_ids.is_empty() {
        return Err(Response::error(400, "sweep grid is empty"));
    }
    let cells: Vec<(PolicyKind, usize)> = mix_ids
        .iter()
        .flat_map(|&mix_id| policies.iter().map(move |&policy| (policy, mix_id)))
        .collect();
    let timeout = shared.sweep_push_timeout;
    let push = |job| shared.queue.push_blocking(client, job, timeout);
    let (results, hits) = answer_cells(
        shared,
        &corpus,
        &cells,
        "evaluation queue is saturated",
        push,
    )?;
    let results: Vec<&str> = results.iter().map(|r| r.as_str()).collect();
    Ok(Response::ok(format!(
        "{{\"corpus\":{},\"cells\":{},\"results\":[{}]}}",
        json_str(&corpus.name),
        results.len(),
        results.join(",")
    ))
    .with_header("X-Memo-Hits", hits.to_string()))
}

/// `POST /revalidate` — reload a (typically quarantined) corpus from disk and
/// readmit it without a restart. Answers 200 with the number of progress cells
/// recovered, or the typed quarantine 503 if the reload failed (the corpus stays
/// out of service with the fresh reason).
fn revalidate_endpoint(shared: &Shared, raw_body: &[u8]) -> Result<Response, Response> {
    let body = parse_json_body(raw_body)?;
    let name = &find_corpus(shared, &body)?.name;
    let recovered = shared
        .registry
        .revalidate(name, &shared.memo)
        .map_err(|reason| quarantined_response(name, &reason))?;
    Ok(Response::ok(format!(
        "{{\"status\":\"readmitted\",\"corpus\":{},\"recovered\":{recovered}}}",
        json_str(name)
    )))
}

fn stats_body(shared: &Shared) -> String {
    let (enqueued, completed, rejected) = shared.queue.totals();
    let (hits, misses) = shared.memo.counters();
    let fairness = shared.queue.fairness();
    let mut clients = String::new();
    for (i, (id, s)) in fairness.clients.iter().enumerate() {
        if i > 0 {
            clients.push(',');
        }
        clients.push_str(&format!(
            "{{\"id\":{},\"enqueued\":{},\"dequeued\":{},\"completed\":{}}}",
            json_str(id),
            s.enqueued,
            s.dequeued,
            s.completed
        ));
    }
    // Degraded-mode surface: quarantined corpora (with reasons) and corpora whose
    // progress persistence has latched into memo-only mode.
    let mut quarantined = String::new();
    for (i, (name, reason)) in shared.registry.quarantined().iter().enumerate() {
        if i > 0 {
            quarantined.push(',');
        }
        quarantined.push_str(&format!(
            "{{\"corpus\":{},\"reason\":{}}}",
            json_str(name),
            json_str(reason)
        ));
    }
    let mut degraded = String::new();
    for (i, corpus) in shared
        .registry
        .iter()
        .into_iter()
        .filter(|c| c.progress.degraded())
        .enumerate()
    {
        if i > 0 {
            degraded.push(',');
        }
        degraded.push_str(&json_str(&corpus.name));
    }
    format!(
        "{{\"queue\":{{\"depth\":{},\"capacity\":{}}},\
         \"jobs\":{{\"enqueued\":{enqueued},\"completed\":{completed},\"rejected\":{rejected}}},\
         \"memo\":{{\"entries\":{},\"hits\":{hits},\"misses\":{misses},\"recovered\":{}}},\
         \"workers\":{},\
         \"health\":{{\"quarantined\":[{quarantined}],\"progress_degraded\":[{degraded}]}},\
         \"fairness\":{{\"min_completed\":{},\"max_completed\":{},\"min_max_ratio\":{},\
         \"clients\":[{clients}]}}}}",
        shared.queue.depth(),
        shared.queue.capacity(),
        shared.memo.len(),
        shared.recovered_cells,
        shared.workers,
        fairness.min_completed,
        fairness.max_completed,
        fmt_f64(fairness.min_max_ratio()),
    )
}

fn corpora_body(shared: &Shared) -> String {
    let mut out = String::from("{\"corpora\":[");
    for (i, corpus) in shared.registry.iter().into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let mix_ids = corpus
            .mix_ids()
            .iter()
            .map(|id| id.to_string())
            .collect::<Vec<_>>()
            .join(",");
        // What resident sharing holds: the event memos' bytes, the evaluations that
        // replayed (or extended) them — one cursor per core each — the cursors that ran
        // off a full memo and continued from its checkpoint, the chunks read ahead, those
        // a waiting cursor generated for another stage and the waits for a chunk in
        // flight.
        let stages = corpus.stage_usage();
        out.push_str(&format!(
            "{{\"name\":{},\"hash\":\"{:016x}\",\"label\":{},\"cores\":{},\"llc_sets\":{},\
             \"seed\":{},\"instructions\":{},\"mix_ids\":[{mix_ids}],\
             \"stage_memo_bytes\":{},\"stage_cursors\":{},\"stage_handovers\":{},\
             \"stage_read_aheads\":{},\"stage_helps\":{},\"stage_waits\":{}}}",
            json_str(&corpus.name),
            corpus.hash,
            json_str(&corpus.corpus.meta().label),
            corpus.config.num_cores,
            corpus.config.llc.geometry.num_sets(),
            corpus.seed,
            corpus.instructions,
            stages.memo_bytes,
            stages.cursors / corpus.config.num_cores as u64,
            stages.handovers,
            stages.read_aheads,
            stages.helps,
            stages.waits,
        ));
    }
    out.push_str("]}");
    out
}
