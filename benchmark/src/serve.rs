//! `sweepd_mixed`: the daemon under a closed loop of clients.
//!
//! **Mixed phase** — every cell of the grid is requested exactly twice, the repeat
//! only after the first response has returned, so the memo hit rate is 0.5 by
//! construction: half the requests are cold (almost all `experiments`/`cache-sim`),
//! half are hot. **Burst phase** — only hits: HTTP parse, memo lookup, response write.
//! Closed loop because the daemon's callers (`sweepctl`, scripts) wait for each reply;
//! one persistent connection per client, `nproc` clients, `nproc` workers.

use std::collections::VecDeque;
use std::io::{BufReader, Cursor};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Barrier, Condvar, Mutex};
use std::time::{Duration, Instant};

use experiments::runner::ReplayConfig;
use experiments::{ExperimentScale, PolicyKind};
use sweep_serve::client::BackoffPolicy;
use sweep_serve::fairqueue::FairQueue;
use sweep_serve::http::{read_request, write_response, Limits};
use sweep_serve::json::evaluation_json;
use sweep_serve::memo::MemoStore;
use sweep_serve::registry::LoadedCorpus;
use sweep_serve::{Client, Server, ServerConfig, ServerHandle};
use trace_io::Corpus;
use workloads::{StudyKind, WorkloadMix};

use crate::host::TempDir;
use crate::inputs::{cell_order, pinned_mixes, request_schedule, trace_seed, Scheduled};
use crate::pace::{probe_on, reference_unit, Paced, COMPUTE, SYSTEM};
use crate::report::Outcome;
use crate::sim::minstr_per_s;
use crate::span::Tracer;
use crate::{stats, Opts};

const MIXES: usize = 2;

/// As in `corpus16_roundtrip`: past the 256 MiB arena, so the daemon streams the
/// corpus and every cold cell decodes its records again.
const RECORDS_PER_CORE: u64 = 1_100_000;

const POLICIES: [PolicyKind; 8] = [
    PolicyKind::TaDrrip,
    PolicyKind::Lru,
    PolicyKind::Srrip,
    PolicyKind::Drrip,
    PolicyKind::Ship,
    PolicyKind::Eaf,
    PolicyKind::AdaptIns,
    PolicyKind::AdaptBp32,
];

const CORPUS_NAME: &str = "bench";

/// Set-ups (capture + spawn) timed per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;

/// The untraced burst phase runs in windows of this length in which every client sends
/// requests; between windows every client runs one host-speed reference unit instead.
const BURST_WINDOW: Duration = Duration::from_millis(100);

/// Windows per second of burst (a window, a reference unit, two rendezvous), and the
/// fewest seconds of burst, when the mixed phase has used up `--seconds`.
const BURST_WINDOWS_PER_SECOND: usize = 9;
const MIN_BURST_SECONDS: usize = 3;

/// Cells of the untraced run evaluated directly and compared with the served bytes.
const DIRECT_CHECKS: usize = 2;

/// Burst requests of the traced run.
const TRACED_BURST_REQUESTS: usize = 10_000;

/// Iterations of each direct micro-measurement (parse, write, memo, queue).
const MICRO_ITERATIONS: usize = 20_000;

/// One grid cell and the request that asks for it.
#[derive(Debug, Clone)]
struct Cell {
    policy: PolicyKind,
    mix_id: usize,
    body: String,
}

fn grid(mixes: &[WorkloadMix], policies: &[PolicyKind]) -> Vec<Cell> {
    mixes
        .iter()
        .flat_map(|mix| {
            policies.iter().map(move |&policy| Cell {
                policy,
                mix_id: mix.id,
                body: format!(
                    "{{\"corpus\":\"{CORPUS_NAME}\",\"policy\":\"{}\",\"mix_id\":{}}}",
                    policy.label(),
                    mix.id
                ),
            })
        })
        .collect()
}

/// A captured corpus and the daemon serving it.
struct Served {
    handle: ServerHandle,
    dir: PathBuf,
    capture_s: f64,
    spawn_s: f64,
}

/// Capture `mixes` into a fresh directory and spawn the daemon on it, in-process.
fn serve(tmp: &TempDir, name: &str, mixes: &[WorkloadMix], tseed: u64, workers: usize) -> Served {
    let sets = ExperimentScale::Scaled
        .system_config(StudyKind::Cores16)
        .llc
        .geometry
        .num_sets();
    let dir = tmp.fresh(name);
    let t = Instant::now();
    Corpus::materialize_compressed(
        &dir,
        "benchmark sweepd_mixed",
        mixes,
        sets,
        tseed,
        RECORDS_PER_CORE,
    )
    .expect("capturing into the run's scratch directory succeeds");
    let capture_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let handle = Server::spawn(ServerConfig {
        workers,
        scale: ExperimentScale::Scaled,
        replay: ReplayConfig::default(),
        corpora: vec![(CORPUS_NAME.to_string(), dir.clone())],
        ..ServerConfig::default()
    })
    .expect("the daemon starts on a corpus captured a moment ago");
    Served {
        handle,
        dir,
        capture_s,
        spawn_s: t.elapsed().as_secs_f64(),
    }
}

/// One request as its client saw it.
#[derive(Debug, Clone)]
struct Sample {
    cell: usize,
    repeat: bool,
    started: Instant,
    ended: Instant,
    /// 0 when the request failed below HTTP.
    status: u16,
    memo_hit: bool,
    retries_429: u64,
    body: String,
}

impl Sample {
    fn latency_s(&self) -> f64 {
        self.ended.duration_since(self.started).as_secs_f64()
    }
}

fn request(client: &mut Client, cell: usize, repeat: bool, body: &str) -> Sample {
    let started = Instant::now();
    let reply = client.post_with_retry("/eval", body, &BackoffPolicy::default());
    let ended = Instant::now();
    let (status, memo_hit, retries_429, body) = match reply {
        Ok((resp, retries)) => (
            resp.status,
            resp.header("x-memo") == Some("hit"),
            retries,
            resp.body,
        ),
        Err(e) => (0, false, 0, format!("i/o error: {e}")),
    };
    Sample {
        cell,
        repeat,
        started,
        ended,
        status,
        memo_hit,
        retries_429,
        body,
    }
}

fn connect(addr: SocketAddr, id: usize) -> (Client, f64) {
    let t = Instant::now();
    let client = Client::connect(addr, Some(&format!("client-{id}")))
        .expect("the in-process daemon accepts connections");
    (client, t.elapsed().as_secs_f64() * 1e6)
}

/// Run a stretch of the mixed-phase schedule over `clients` closed-loop connections. A
/// repeat is handed out only once its cell's first response has returned;
/// `first_returned` carries that from one stretch to the next. Returns the samples in
/// completion order per client and the stretch's wall time.
fn mixed_phase(
    addr: SocketAddr,
    clients: usize,
    schedule: &[Scheduled],
    cells: &[Cell],
    first_returned: &mut Vec<bool>,
) -> (Vec<Sample>, f64) {
    struct Pending {
        queue: VecDeque<Scheduled>,
        first_returned: Vec<bool>,
    }
    let shared = Arc::new((
        Mutex::new(Pending {
            queue: schedule.iter().copied().collect(),
            first_returned: std::mem::take(first_returned),
        }),
        Condvar::new(),
    ));
    let started = Instant::now();
    let per_client: Vec<Vec<Sample>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|id| {
                let shared = shared.clone();
                scope.spawn(move || {
                    let (mut client, _) = connect(addr, id);
                    let mut samples = Vec::new();
                    loop {
                        let next = {
                            let (lock, ready) = &*shared;
                            let mut pending =
                                lock.lock().expect("no client panics holding the schedule");
                            loop {
                                if pending.queue.is_empty() {
                                    break None;
                                }
                                let eligible = pending
                                    .queue
                                    .iter()
                                    .position(|s| !s.repeat || pending.first_returned[s.cell]);
                                match eligible {
                                    Some(at) => break pending.queue.remove(at),
                                    None => {
                                        pending = ready
                                            .wait(pending)
                                            .expect("schedule lock is never poisoned")
                                    }
                                }
                            }
                        };
                        let Some(next) = next else { break };
                        let sample =
                            request(&mut client, next.cell, next.repeat, &cells[next.cell].body);
                        if !next.repeat {
                            let (lock, ready) = &*shared;
                            lock.lock()
                                .expect("no client panics holding the schedule")
                                .first_returned[next.cell] = true;
                            ready.notify_all();
                        }
                        samples.push(sample);
                    }
                    samples
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client threads do not panic"))
            .collect()
    });
    let wall = started.elapsed().as_secs_f64();
    *first_returned = std::mem::take(
        &mut shared
            .0
            .lock()
            .expect("no client panics holding the schedule")
            .first_returned,
    );
    (per_client.into_iter().flatten().collect(), wall)
}

/// The schedule cut after every `first_touches`-th first touch: the stretches of the
/// untraced mixed phase, between which the host-speed reference is measured while the
/// daemon is idle.
fn stretches(schedule: &[Scheduled], first_touches: usize) -> Vec<&[Scheduled]> {
    let mut cuts = vec![0];
    let mut seen = 0;
    for (at, s) in schedule.iter().enumerate() {
        seen += usize::from(!s.repeat);
        if !s.repeat && seen % first_touches == 0 {
            cuts.push(at + 1);
        }
    }
    if *cuts.last().expect("starts with 0") != schedule.len() {
        // What follows the last full share (repeats; first touches too when the cells
        // do not divide evenly) rides with it.
        match cuts.len() {
            1 => cuts.push(schedule.len()),
            n => cuts[n - 1] = schedule.len(),
        }
    }
    cuts.windows(2).map(|w| &schedule[w[0]..w[1]]).collect()
}

/// What the burst phase saw: per-request latencies only — 10^5..10^6 of them — plus
/// counts of what was wrong, and the phase's bounds.
struct Burst {
    latencies_us: Vec<f64>,
    /// Responses that were not `200` with `X-Memo: hit`.
    not_hits: u64,
    /// Bodies that differed from the cell's first response.
    differing: u64,
    retries_429: u64,
    started: Instant,
    wall_s: f64,
}

impl Burst {
    fn empty(started: Instant) -> Burst {
        Burst {
            latencies_us: Vec::new(),
            not_hits: 0,
            differing: 0,
            retries_429: 0,
            started,
            wall_s: 0.0,
        }
    }

    /// One closed-loop request for the already-memoized `cell`.
    fn request(&mut self, client: &mut Client, cell: usize, cells: &[Cell], expected: &[String]) {
        let sample = request(client, cell, true, &cells[cell].body);
        self.latencies_us.push(sample.latency_s() * 1e6);
        self.not_hits += u64::from(sample.status != 200 || !sample.memo_hit);
        self.differing += u64::from(sample.body != expected[cell]);
        self.retries_429 += sample.retries_429;
    }

    fn absorb(&mut self, other: Burst) {
        self.latencies_us.extend(other.latencies_us);
        self.not_hits += other.not_hits;
        self.differing += other.differing;
        self.retries_429 += other.retries_429;
    }
}

/// `requests` closed-loop requests for already-memoized cells, split over `clients`,
/// each client visiting the cells in its own seeded order; every body is compared with
/// the cell's `expected` bytes.
fn burst_phase(
    addr: SocketAddr,
    clients: usize,
    requests: usize,
    cells: &[Cell],
    expected: &[String],
    seed: u64,
) -> Burst {
    let started = Instant::now();
    let per_client: Vec<Burst> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|id| {
                scope.spawn(move || {
                    let (mut client, _) = connect(addr, id);
                    let order = cell_order(cells.len(), seed, 10 + id as u64);
                    let mut burst = Burst::empty(started);
                    for i in 0..requests.div_ceil(clients) {
                        burst.request(&mut client, order[i % order.len()], cells, expected);
                    }
                    burst
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client threads do not panic"))
            .collect()
    });
    let mut all = Burst::empty(started);
    all.wall_s = started.elapsed().as_secs_f64();
    for burst in per_client {
        all.absorb(burst);
    }
    all
}

/// The untraced burst: `windows` windows of [`BURST_WINDOW`] in which every client
/// sends requests, closed loop, each followed by one reference unit on every client's
/// thread. Returns the whole burst and, per window, the median latency of its requests
/// with the clients' mean reference unit. (The windows are normalised one by one and
/// their median taken, rather than their quiet decile: a round trip costs 11 µs or
/// 17 µs for seconds at a time, depending on the host, not from burst to burst.)
fn paced_burst(
    addr: SocketAddr,
    clients: usize,
    windows: usize,
    cells: &[Cell],
    expected: &[String],
    seed: u64,
) -> (Burst, Paced) {
    /// One client's share of one window: its latencies up to `to`, and its reference unit.
    struct Share {
        to: usize,
        reference_ms: f64,
    }
    let started = Instant::now();
    let barrier = Barrier::new(clients);
    let per_client: Vec<(Burst, Vec<Share>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|id| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let (mut client, _) = connect(addr, id);
                    let order = cell_order(cells.len(), seed, 10 + id as u64);
                    let mut burst = Burst::empty(started);
                    let mut shares = Vec::with_capacity(windows);
                    let mut i = 0usize;
                    for _ in 0..windows {
                        barrier.wait(); // every client has finished its reference unit
                        let window = Instant::now();
                        while window.elapsed() < BURST_WINDOW {
                            burst.request(&mut client, order[i % order.len()], cells, expected);
                            i += 1;
                        }
                        barrier.wait(); // every client has finished requesting
                        shares.push(Share {
                            to: burst.latencies_us.len(),
                            reference_ms: reference_unit(),
                        });
                    }
                    (burst, shares)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client threads do not panic"))
            .collect()
    });
    let wall_s = started.elapsed().as_secs_f64();

    let mut p50s = Paced::new(SYSTEM);
    for w in 0..windows {
        let mut latencies = Vec::new();
        let mut reference_ms = 0.0;
        for (burst, shares) in &per_client {
            let from = if w == 0 { 0 } else { shares[w - 1].to };
            latencies.extend_from_slice(&burst.latencies_us[from..shares[w].to]);
            reference_ms += shares[w].reference_ms / clients as f64;
        }
        p50s.push(stats::median(&latencies) / 1e6, reference_ms, reference_ms);
    }
    let mut all = Burst::empty(started);
    all.wall_s = wall_s;
    for (burst, _) in per_client {
        all.absorb(burst);
    }
    (all, p50s)
}

/// The number following `key` in a flat JSON body such as `/stats`.
fn json_number(body: &str, key: &str) -> f64 {
    body.find(key)
        .map(|at| &body[at + key.len()..])
        .and_then(|rest| {
            let end = rest
                .find(|c: char| {
                    !(c.is_ascii_digit() || c == '.' || c == 'e' || c == '-' || c == '+')
                })
                .unwrap_or(rest.len());
            rest[..end].parse().ok()
        })
        .unwrap_or_else(|| panic!("/stats has no numeric {key}: {body}"))
}

/// `/stats` counters the phases are read between.
#[derive(Debug, Clone, Copy)]
struct ServerStats {
    hits: f64,
    misses: f64,
    rejected: f64,
    fairness: f64,
}

fn server_stats(addr: SocketAddr) -> ServerStats {
    let body = sweep_serve::client::get(addr, "/stats")
        .expect("the in-process daemon answers /stats")
        .body;
    ServerStats {
        hits: json_number(&body, "\"hits\":"),
        misses: json_number(&body, "\"misses\":"),
        rejected: json_number(&body, "\"rejected\":"),
        fairness: json_number(&body, "\"min_max_ratio\":"),
    }
}

fn hit_share(before: ServerStats, after: ServerStats) -> f64 {
    let (hits, misses) = (after.hits - before.hits, after.misses - before.misses);
    if hits + misses == 0.0 {
        0.0
    } else {
        hits / (hits + misses)
    }
}

/// Status, memo classification and repeat == first, for every mixed-phase sample.
/// Returns each cell's first response body.
fn check_mixed(samples: &[Sample], cells: usize, out: &mut Outcome) -> Vec<String> {
    let mut first = vec![String::new(); cells];
    for s in samples.iter().filter(|s| !s.repeat) {
        first[s.cell] = s.body.clone();
    }
    for s in samples {
        out.check(s.status == 200 && s.memo_hit == s.repeat, || {
            format!(
                "cell {} ({}): status {} memo_hit {} after {} retries: {}",
                s.cell,
                if s.repeat { "repeat" } else { "first touch" },
                s.status,
                s.memo_hit,
                s.retries_429,
                s.body
            )
        });
        if s.repeat && s.status == 200 {
            out.check(s.body == first[s.cell], || {
                format!("cell {}: repeat differs from the first response", s.cell)
            });
        }
    }
    first
}

fn check_burst(burst: &Burst, out: &mut Outcome) {
    out.attempted += burst.latencies_us.len() as u64;
    out.failed += burst.not_hits.max(burst.differing);
    if burst.not_hits + burst.differing > 0 {
        out.notes.push(format!(
            "FAILED: burst phase: {} responses were not 200 memo hits, {} bodies differed",
            burst.not_hits, burst.differing
        ));
    }
}

/// Load the served corpus the way the daemon's registry does, outside the daemon.
/// Returns it and how long loading took.
fn load_direct(dir: &Path) -> (LoadedCorpus, f64) {
    let t = Instant::now();
    let (loaded, _) = LoadedCorpus::load(
        CORPUS_NAME,
        dir,
        ExperimentScale::Scaled,
        &ReplayConfig::default(),
        &MemoStore::new(),
    )
    .expect("the served corpus loads again");
    (loaded, t.elapsed().as_secs_f64())
}

/// The untraced run: every end-to-end metric.
pub fn run(opts: &Opts, tmp: &TempDir) -> Outcome {
    let mut out = Outcome::default();
    let tseed = trace_seed(opts.seed);
    let workers = opts.host.workers;

    // Set-up, repeated; the last daemon is the one measured. Capturing is bound by
    // system calls as much as by computing.
    let (mut setups, mut captures) = (Paced::new(SYSTEM), Paced::new(SYSTEM));
    let mut mixes = Vec::new();
    let mut kept: Option<Served> = None;
    for i in 0..SETUP_REPEATS {
        let before = probe_on(workers);
        let t = Instant::now();
        mixes = pinned_mixes(StudyKind::Cores16, MIXES);
        let served = serve(tmp, &format!("corpus{i}"), &mixes, tseed, workers);
        let wall = t.elapsed().as_secs_f64();
        let after = probe_on(workers);
        setups.push(wall, before, after);
        captures.push(served.capture_s, before, after);
        if let Some(previous) = kept.replace(served) {
            previous.handle.stop();
        }
    }
    let served = kept.expect("SETUP_REPEATS > 0");
    let captured = (RECORDS_PER_CORE * 16 * MIXES as u64) as f64;
    out.metrics.set_paced("setup_s", &setups, |s| s);
    out.metrics
        .set_paced("trace_mrec_per_s", &captures, |s| captured / s / 1e6);
    let addr = served.handle.addr();
    let cells = grid(&mixes, &POLICIES);

    // Mixed phase, in stretches of one first touch per client, the reference measured
    // between them.
    let schedule = request_schedule(cells.len(), opts.seed);
    let before = server_stats(addr);
    let mut first_returned = vec![false; cells.len()];
    let (mut samples, mut cold, mut mixed_wall) = (Vec::new(), Paced::new(COMPUTE), 0.0);
    let mut before_ms = probe_on(workers);
    for stretch in stretches(&schedule, workers) {
        let (stretch_samples, wall) =
            mixed_phase(addr, workers, stretch, &cells, &mut first_returned);
        let after_ms = probe_on(workers);
        for s in stretch_samples.iter().filter(|s| !s.memo_hit) {
            cold.push(s.latency_s(), before_ms, after_ms);
        }
        samples.extend(stretch_samples);
        mixed_wall += wall;
        before_ms = after_ms;
    }
    let after_mixed = server_stats(addr);
    let first = check_mixed(&samples, cells.len(), &mut out);
    out.check((hit_share(before, after_mixed) - 0.5).abs() < 1e-12, || {
        format!(
            "mixed-phase memo hit share is {}, not 0.5",
            hit_share(before, after_mixed)
        )
    });
    // The cold requests are sixteen different cells, so their mean, not their median:
    // every cell counts on every seed. `workers` of them are in flight at a time, one
    // per closed-loop client.
    let instructions = ExperimentScale::Scaled.instructions_per_core();
    out.metrics.set_paced_mean("sim_minstr_per_s", &cold, |s| {
        minstr_per_s(workers, 16, instructions, s)
    });
    out.metrics.set_paced_mean("cell_ms", &cold, |s| s * 1e3);

    // Burst phase: whatever is left of --seconds, all hits.
    let left = (opts.seconds as f64 - mixed_wall).max(0.0) as usize;
    let (burst, hot_p50s) = paced_burst(
        addr,
        workers,
        left.max(MIN_BURST_SECONDS) * BURST_WINDOWS_PER_SECOND,
        &cells,
        &first,
        opts.seed,
    );
    let after_burst = server_stats(addr);
    check_burst(&burst, &mut out);
    out.check(hit_share(after_mixed, after_burst) == 1.0, || {
        format!(
            "burst-phase memo hit share is {}",
            hit_share(after_mixed, after_burst)
        )
    });
    let hot_us = &burst.latencies_us;
    out.metrics.set_paced("result_us", &hot_p50s, |s| s * 1e6);
    let tail = stats::tail(hot_us);
    out.notes.push(format!(
        "as measured — mixed phase: {} cold requests, p50 {:.1} ms, {:.2} cells/s; burst phase: {} requests in \
         {} windows, p50 {:.1} us, {}",
        cold.len(),
        cold.raw_median_s() * 1e3,
        cells.len() as f64 / mixed_wall,
        hot_us.len(),
        hot_p50s.len(),
        stats::median(hot_us),
        tail.map_or("no tail (too few samples)".to_string(), |(pct, v)| format!("p{pct} {v:.1} us")),
    ));

    // The daemon is stopped before the corpus is loaded a second time for the check.
    let dir = served.dir.clone();
    served.handle.stop();
    let (loaded, _) = load_direct(&dir);
    for cell in cell_order(cells.len(), opts.seed, 5)
        .into_iter()
        .take(DIRECT_CHECKS)
    {
        let direct = loaded
            .evaluate(cells[cell].policy, cells[cell].mix_id)
            .map(|eval| evaluation_json(&eval));
        out.check(direct.as_deref() == Some(first[cell].as_str()), || {
            format!("cell {cell}: served bytes differ from the direct evaluation")
        });
    }
    out
}

/// Mean ns per call of `f` over [`MICRO_ITERATIONS`] back-to-back calls.
fn micro_ns(mut f: impl FnMut(usize)) -> f64 {
    let t = Instant::now();
    for i in 0..MICRO_ITERATIONS {
        f(i);
    }
    t.elapsed().as_nanos() as f64 / MICRO_ITERATIONS as f64
}

/// The traced run: mix 0's eight cells requested twice by one client (so served cells
/// and direct evaluations run under the same conditions), a 10 k burst, and every
/// `sweep-serve` layer called directly on the same requests.
pub fn trace(opts: &Opts, tmp: &TempDir, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let tseed = trace_seed(opts.seed);

    let t = Instant::now();
    let mixes = pinned_mixes(StudyKind::Cores16, 1);
    out.metrics
        .set("workloads.mixgen.ms", t.elapsed().as_secs_f64() * 1e3);
    let setup = tracer.begin("set-up", "experiments", None, 900);
    let started = tracer.now_ns();
    let served = serve(tmp, "corpus", &mixes, tseed, opts.host.workers);
    let captured = started + (served.capture_s * 1e9) as u64;
    tracer.add(
        "Corpus::materialize_compressed",
        "trace_io",
        started,
        captured,
        Some(setup),
        900,
    );
    tracer.add(
        "Server::spawn",
        "sweep_serve",
        captured,
        tracer.now_ns(),
        Some(setup),
        900,
    );
    tracer.end(setup);
    let records = RECORDS_PER_CORE * 16;
    let m = &mut out.metrics;
    m.set("sweep_serve.capture.ms", served.capture_s * 1e3);
    m.set("sweep_serve.spawn.ms", served.spawn_s * 1e3);
    m.set("trace_io.capture.records", records as f64);
    m.set(
        "trace_io.capture.mrec_per_s",
        records as f64 / served.capture_s / 1e6,
    );
    let addr = served.handle.addr();
    let cells = grid(&mixes, &POLICIES);

    let connects: Vec<f64> = (0..50).map(|i| connect(addr, 100 + i).1).collect();
    out.metrics
        .set("sweep_serve.client.connect_us", stats::median(&connects));

    // Mixed phase, one client; a span per request, grouped by cell.
    let schedule = request_schedule(cells.len(), opts.seed);
    let before = server_stats(addr);
    let (samples, mixed_wall) =
        mixed_phase(addr, 1, &schedule, &cells, &mut vec![false; cells.len()]);
    let after_mixed = server_stats(addr);
    let first = check_mixed(&samples, cells.len(), &mut out);
    for s in &samples {
        let name = format!(
            "POST /eval {} mix {} ({})",
            cells[s.cell].policy.label(),
            cells[s.cell].mix_id,
            if s.memo_hit { "hit" } else { "miss" }
        );
        tracer.add(
            &name,
            "sweep_serve",
            tracer.ns_at(s.started),
            tracer.ns_at(s.ended),
            None,
            s.cell as u64 + 1,
        );
    }
    let burst = burst_phase(addr, 1, TRACED_BURST_REQUESTS, &cells, &first, opts.seed);
    let after_burst = server_stats(addr);
    check_burst(&burst, &mut out);
    let burst_started = tracer.ns_at(burst.started);
    tracer.add(
        &format!("burst: {} x POST /eval (hits)", burst.latencies_us.len()),
        "sweep_serve",
        burst_started,
        burst_started + (burst.wall_s * 1e9) as u64,
        None,
        800,
    );

    let cold_ms: Vec<f64> = samples
        .iter()
        .filter(|s| !s.memo_hit)
        .map(|s| s.latency_s() * 1e3)
        .collect();
    let hot_us = &burst.latencies_us;
    let (cold_p50, hot_p50) = (stats::median(&cold_ms), stats::median(hot_us));
    let m = &mut out.metrics;
    m.set("sweep_serve.memo.hit_share", hit_share(before, after_mixed));
    m.set(
        "sweep_serve.memo.burst_hit_share",
        hit_share(after_mixed, after_burst),
    );
    m.set("sweep_serve.queue.rejected", after_burst.rejected);
    m.set(
        "sweep_serve.retries_429",
        (samples.iter().map(|s| s.retries_429).sum::<u64>() + burst.retries_429) as f64,
    );
    m.set("sweep_serve.fairness.min_max_ratio", after_burst.fairness);
    m.set("sweep_serve.cold.samples", cold_ms.len() as f64);
    m.set("sweep_serve.cold.p50_ms", cold_p50);
    if let Some((pct, value)) = stats::tail(&cold_ms) {
        m.set("sweep_serve.cold.tail_pct", pct);
        m.set("sweep_serve.cold.tail_ms", value);
    }
    m.set("sweep_serve.hot.samples", hot_us.len() as f64);
    m.set("sweep_serve.hot.p50_us", hot_p50);
    if let Some((pct, value)) = stats::tail(hot_us) {
        m.set("sweep_serve.hot.tail_pct", pct);
        m.set("sweep_serve.hot.tail_us", value);
    }
    m.set("sweep_serve.hot.rps", hot_us.len() as f64 / burst.wall_s);
    m.set("experiments.cells", cells.len() as f64);
    out.notes.push(format!(
        "mixed phase: {:.2} cells/s over {mixed_wall:.1} s with one client",
        cells.len() as f64 / mixed_wall
    ));

    // The layers behind a request, called directly on the same cells.
    let dir = served.dir.clone();
    served.handle.stop();
    let all: Vec<usize> = (0..cells.len()).collect();
    let direct = tracer.begin("direct calls", "experiments", None, 901);
    let span = tracer.begin("LoadedCorpus::load", "sweep_serve", Some(direct), 901);
    let (loaded, load_s) = load_direct(&dir);
    tracer.end(span);
    let (mut evaluate_ms, mut evals) = (vec![], vec![]);
    for &cell in &all {
        let span = tracer.begin(
            &format!("LoadedCorpus::evaluate {}", cells[cell].policy.label()),
            "experiments",
            Some(direct),
            901,
        );
        let t = Instant::now();
        let eval = loaded
            .evaluate(cells[cell].policy, cells[cell].mix_id)
            .expect("the grid only names mixes of the corpus");
        evaluate_ms.push(t.elapsed().as_secs_f64() * 1e3);
        tracer.end(span);
        out.check(evaluation_json(&eval) == first[cell], || {
            format!("cell {cell}: served bytes differ from the direct evaluation")
        });
        evals.push(eval);
    }
    tracer.end(direct);

    let json_ns = micro_ns(|i| {
        std::hint::black_box(evaluation_json(&evals[i % evals.len()]));
    });
    let canned: Vec<Vec<u8>> = cells
        .iter()
        .map(|c| {
            format!(
                "POST /eval HTTP/1.1\r\nHost: sweepd\r\nContent-Length: {}\r\nX-Client: client-0\r\n\r\n{}",
                c.body.len(),
                c.body
            )
            .into_bytes()
        })
        .collect();
    let limits = Limits::default();
    let parse_ns = micro_ns(|i| {
        let mut reader = BufReader::new(Cursor::new(&canned[i % canned.len()]));
        std::hint::black_box(read_request(&mut reader, &limits).expect("canned request parses"));
    });
    let mut sink = Vec::with_capacity(4096);
    let write_ns = micro_ns(|i| {
        sink.clear();
        write_response(
            &mut sink,
            200,
            &[("X-Memo", "hit".to_string())],
            &first[i % first.len()],
            false,
        )
        .expect("writing to a Vec cannot fail");
        std::hint::black_box(&sink);
    });
    let memo = MemoStore::new();
    let keys: Vec<_> = cells
        .iter()
        .map(|c| loaded.memo_key(&c.policy.label(), c.mix_id))
        .collect();
    let values: Vec<Arc<String>> = first.iter().map(|b| Arc::new(b.clone())).collect();
    let insert_ns = micro_ns(|i| {
        memo.insert(
            keys[i % keys.len()].clone(),
            values[i % values.len()].clone(),
        )
    });
    let lookup_ns = micro_ns(|i| {
        std::hint::black_box(memo.lookup(&keys[i % keys.len()]));
    });
    let queue = FairQueue::<usize>::new(256);
    let queue_ns = micro_ns(|i| {
        queue
            .try_push("client-0", i)
            .expect("the queue never fills: each push is popped");
        std::hint::black_box(queue.pop());
    });

    let evaluate_p50 = stats::median(&evaluate_ms);
    let cold_overhead = cold_p50 - evaluate_p50 - json_ns / 1e6;
    let hot_overhead = hot_p50 - (lookup_ns + parse_ns + write_ns) / 1e3;
    let m = &mut out.metrics;
    m.set("sweep_serve.registry_load.ms", load_s * 1e3);
    m.set("sweep_serve.registry_evaluate.p50_ms", evaluate_p50);
    m.set("experiments.cell.p50_ms", evaluate_p50);
    m.set(
        "experiments.cell.max_ms",
        evaluate_ms.iter().copied().fold(0.0, f64::max),
    );
    m.set("sweep_serve.json.ns_per_eval", json_ns);
    m.set(
        "sweep_serve.json.bytes_per_eval",
        first.iter().map(String::len).sum::<usize>() as f64 / first.len() as f64,
    );
    m.set("sweep_serve.http_parse.ns_per_req", parse_ns);
    m.set("sweep_serve.http_write.ns_per_resp", write_ns);
    m.set("sweep_serve.memo.lookup_ns", lookup_ns);
    m.set("sweep_serve.memo.insert_ns", insert_ns);
    m.set("sweep_serve.queue.push_pop_ns", queue_ns);
    m.set("sweep_serve.cold_overhead.p50_ms", cold_overhead);
    m.set("sweep_serve.hot_overhead.p50_us", hot_overhead);
    // What the direct calls explain of a cold request; the rest is the daemon around them.
    m.set(
        "trace.coverage_share",
        ((cold_p50 - cold_overhead.max(0.0)) / cold_p50).clamp(0.0, 1.0),
    );
    out.notes.push(format!(
        "a cold /eval (p50 {cold_p50:.1} ms) is {evaluate_p50:.1} ms of LoadedCorpus::evaluate \
         (experiments + cache-sim + trace-io decode), {:.3} ms of evaluation_json and {cold_overhead:.2} ms of \
         queue, threads, sockets and progress-file append: the cold latency and its tail belong to evaluation",
        json_ns / 1e6
    ));
    out.notes.push(format!(
        "a hot /eval (p50 {hot_p50:.1} us) is {:.2} us of parse, {:.2} us of memo lookup, {:.2} us of response \
         write and {hot_overhead:.1} us of sockets, thread wake-ups and the client's own read",
        parse_ns / 1e3,
        lookup_ns / 1e3,
        write_ns / 1e3
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_numbers_are_found_by_key() {
        let body = "{\"queue\":{\"depth\":0,\"capacity\":256},\"jobs\":{\"enqueued\":16,\"completed\":16,\
                    \"rejected\":3},\"memo\":{\"entries\":16,\"hits\":16,\"misses\":16,\"recovered\":0},\
                    \"fairness\":{\"min_completed\":8,\"max_completed\":8,\"min_max_ratio\":0.875,\"clients\":[]}}";
        assert_eq!(json_number(body, "\"hits\":"), 16.0);
        assert_eq!(json_number(body, "\"rejected\":"), 3.0);
        assert_eq!(json_number(body, "\"min_max_ratio\":"), 0.875);
    }

    #[test]
    fn stretches_cover_the_schedule_with_equal_shares_of_first_touches() {
        for seed in [1, 2, 3] {
            let schedule = request_schedule(16, seed);
            let cut = stretches(&schedule, 2);
            assert_eq!(cut.len(), 8);
            assert_eq!(cut.concat(), schedule);
            assert!(cut
                .iter()
                .all(|s| s.iter().filter(|r| !r.repeat).count() == 2));
        }
        let schedule = request_schedule(3, 1);
        assert_eq!(stretches(&schedule, 2).concat(), schedule);
        assert_eq!(stretches(&schedule, 8), vec![&schedule[..]]);
    }

    #[test]
    fn the_grid_asks_for_every_policy_on_every_mix_by_its_label() {
        let mixes = pinned_mixes(StudyKind::Cores16, 2);
        let cells = grid(&mixes, &POLICIES);
        assert_eq!(cells.len(), 16);
        assert_eq!(
            cells[9].body,
            "{\"corpus\":\"bench\",\"policy\":\"LRU\",\"mix_id\":1}"
        );
        assert!(cells
            .iter()
            .all(|c| PolicyKind::parse(&c.policy.label()) == Some(c.policy)));
    }
}
