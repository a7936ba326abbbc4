//! # sim-obs — zero-overhead instrumentation for the ADAPT reproduction
//!
//! A dependency-free, vendored-style observability layer (same pattern as the
//! `rayon`/`proptest` stand-ins) providing a `tracing`-flavoured API of **spans**,
//! **counters**, **interval samples** and **log lines**, recorded into lock-free
//! per-thread flight-recorder ring buffers and drained into three exporters: Chrome
//! trace-event JSON (loads directly in Perfetto / `chrome://tracing`), a CSV interval
//! time-series, and a human-readable end-of-run summary.
//!
//! ## Zero overhead when disabled
//!
//! The whole crate is gated on one process-global flag. Every recording entry point
//! begins with [`enabled()`] — a single `Relaxed` load of an [`AtomicBool`] followed by
//! a branch. In the disabled state **nothing else happens**: no allocation, no
//! formatting, no clock read, no thread-local initialization. Ring buffers are only
//! allocated lazily, on the first event a thread records *while enabled*. The
//! repository's benchmark (`benchmark/README.md`) runs with the recorder off, so the
//! disabled-mode cost is part of every end-to-end number it reports.
//!
//! ## Bit-identity
//!
//! Instrumentation only *reads* simulator state (timestamps, statistics counters); it
//! never feeds anything back. Simulation results with instrumentation enabled are
//! bit-identical to results with it disabled — enforced by `tests/observability.rs`.
//!
//! ## Flight-recorder rings
//!
//! Each thread records into its own single-producer ring buffer: a plain store into a
//! pre-allocated slot plus a `Release` publish of the head index — no locks and no
//! CAS on the hot path. When a ring fills, the oldest events are overwritten
//! (flight-recorder semantics) and a drop counter increments. [`drain()`] snapshots
//! every ring in the process; it is intended to run at a quiescent point (after
//! worker threads have joined), which the exporters and the `repro --profile` flow
//! guarantee. Events recorded concurrently with a drain may be missed and picked up
//! by the next drain.
//!
//! Event names and categories are `&'static str` so events stay `Copy`; dynamic
//! strings (the per-cell `mix3/DIP` style labels) go through a small interning table
//! via [`push_context`] and ride along as a `u32` id.
//!
//! See `docs/observability.md` for the user-facing guide.

#![warn(missing_docs)]

use std::cell::{Cell, UnsafeCell};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

mod export;
mod json;
pub mod log;

pub use export::{
    chrome_trace, export_profile, intervals_csv, json_escape, summary_text, ProfileReport, SpanStat,
};
pub use json::{validate_chrome_trace, JsonValue};
pub use log::{set_log_level, Level};

/// Maximum number of numeric fields one [`sample`] row can carry.
pub const SAMPLE_WIDTH: usize = 12;

/// Sentinel context id meaning "no context set".
pub const NO_CONTEXT: u32 = u32::MAX;

/// What a recorded [`Event`] represents.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A completed span: `ts_ns` is the start, `dur_ns` the duration.
    Span,
    /// A named scalar (`value`) at a point in time.
    Counter,
    /// One row of a named time-series: `cols` names the fields, `vals[..n_vals]` holds them.
    Sample,
    /// A log line routed through [`log`]; `value` holds the level, `ctx` interns the message.
    Log,
}

/// One fixed-size, `Copy` flight-recorder record.
#[derive(Copy, Clone, Debug)]
pub struct Event {
    /// Discriminates how the payload fields are interpreted.
    pub kind: EventKind,
    /// Static event name (span/counter/series name, or log target).
    pub name: &'static str,
    /// Static category, e.g. `"sweep"`, `"rayon"`, `"sim"`, `"trace-io"`.
    pub cat: &'static str,
    /// Interned dynamic context id ([`NO_CONTEXT`] when unset); see [`push_context`].
    pub ctx: u32,
    /// Nanoseconds since the recording epoch (span start time for spans).
    pub ts_ns: u64,
    /// Span duration in nanoseconds (zero for non-spans).
    pub dur_ns: u64,
    /// Counter value or log level (zero otherwise).
    pub value: f64,
    /// Column names for samples (empty otherwise).
    pub cols: &'static [&'static str],
    /// Sample payload; only `vals[..n_vals]` is meaningful.
    pub vals: [f64; SAMPLE_WIDTH],
    /// Number of valid entries in `vals`.
    pub n_vals: u8,
}

impl Event {
    /// A zero counter with no name, which each recording entry point overwrites.
    fn blank() -> Self {
        Event {
            kind: EventKind::Counter,
            name: "",
            cat: "",
            ctx: NO_CONTEXT,
            ts_ns: 0,
            dur_ns: 0,
            value: 0.0,
            cols: &[],
            vals: [0.0; SAMPLE_WIDTH],
            n_vals: 0,
        }
    }
}

// ---------------------------------------------------------------------------
// Global state
// ---------------------------------------------------------------------------

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_TID: AtomicU32 = AtomicU32::new(1);

/// Default per-thread ring capacity (events). ~64K events ≈ a full profiled
/// acceptance-grid sweep with generous headroom.
pub const DEFAULT_RING_CAPACITY: usize = 1 << 16;

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the process-wide recording epoch (first use wins).
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// Is recording globally enabled? One `Relaxed` atomic load — this is the only cost
/// instrumentation call sites pay in the disabled state.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turn recording on. Also pins the timestamp epoch if this is its first use.
pub fn enable() {
    epoch();
    ENABLED.store(true, Ordering::SeqCst);
}

/// Turn recording off. Already-recorded events stay in their rings until [`drain`].
pub fn disable() {
    ENABLED.store(false, Ordering::SeqCst);
}

// ---------------------------------------------------------------------------
// Context interning
// ---------------------------------------------------------------------------

struct ContextTable {
    by_name: HashMap<String, u32>,
    names: Vec<String>,
}

fn contexts() -> &'static Mutex<ContextTable> {
    static CONTEXTS: OnceLock<Mutex<ContextTable>> = OnceLock::new();
    CONTEXTS.get_or_init(|| {
        Mutex::new(ContextTable {
            by_name: HashMap::new(),
            names: Vec::new(),
        })
    })
}

/// Intern a dynamic string, returning a stable id events can carry by value.
pub fn intern(name: &str) -> u32 {
    let mut table = contexts().lock().expect("context table poisoned");
    if let Some(&id) = table.by_name.get(name) {
        return id;
    }
    let id = table.names.len() as u32;
    table.names.push(name.to_string());
    table.by_name.insert(name.to_string(), id);
    id
}

thread_local! {
    static CURRENT_CTX: Cell<u32> = const { Cell::new(NO_CONTEXT) };
}

/// The current thread's active context id ([`NO_CONTEXT`] when none).
pub fn current_context() -> u32 {
    CURRENT_CTX.with(Cell::get)
}

/// RAII guard restoring the previous thread context on drop; see [`push_context`].
pub struct ContextGuard {
    prev: u32,
    active: bool,
}

impl Drop for ContextGuard {
    fn drop(&mut self) {
        if self.active {
            CURRENT_CTX.with(|c| c.set(self.prev));
        }
    }
}

/// Set the current thread's context label (e.g. `"mix3/DIP"`) for the guard's
/// lifetime. Spans, counters, samples and logs recorded meanwhile carry it. Free
/// (no interning, no TLS write) when recording is disabled.
#[must_use = "the context is cleared when the guard drops"]
pub fn push_context(label: &str) -> ContextGuard {
    if !enabled() {
        return ContextGuard {
            prev: NO_CONTEXT,
            active: false,
        };
    }
    let id = intern(label);
    let prev = CURRENT_CTX.with(|c| c.replace(id));
    ContextGuard { prev, active: true }
}

// ---------------------------------------------------------------------------
// Per-thread flight-recorder rings
// ---------------------------------------------------------------------------

struct Ring {
    tid: u32,
    name: Mutex<String>,
    slots: Box<[UnsafeCell<Event>]>,
    mask: u64,
    /// Next write position (monotonically increasing, masked on access).
    head: AtomicU64,
    /// Next unread position.
    tail: AtomicU64,
    dropped: AtomicU64,
}

// SAFETY: slots are written only by the owning thread; `drain` reads positions below
// the `Release`-published head at quiescent points (see module docs). Events are
// `Copy`, so slot reuse never runs destructors.
unsafe impl Send for Ring {}
unsafe impl Sync for Ring {}

impl Ring {
    fn new(tid: u32, capacity: usize, name: String) -> Self {
        let slots: Vec<UnsafeCell<Event>> = (0..capacity)
            .map(|_| UnsafeCell::new(Event::blank()))
            .collect();
        Ring {
            tid,
            name: Mutex::new(name),
            slots: slots.into_boxed_slice(),
            mask: capacity as u64 - 1,
            head: AtomicU64::new(0),
            tail: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// Owner-thread-only push: overwrite-oldest when full.
    fn push(&self, ev: Event) {
        let head = self.head.load(Ordering::Relaxed);
        let tail = self.tail.load(Ordering::Relaxed);
        if head.wrapping_sub(tail) >= self.slots.len() as u64 {
            self.tail.store(tail + 1, Ordering::Relaxed);
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        let slot = &self.slots[(head & self.mask) as usize];
        // SAFETY: only the owning thread writes; see the `Sync` impl note.
        unsafe { *slot.get() = ev };
        self.head.store(head.wrapping_add(1), Ordering::Release);
    }

    fn drain(&self) -> (Vec<Event>, u64) {
        let head = self.head.load(Ordering::Acquire);
        let mut tail = self.tail.load(Ordering::Relaxed);
        let mut out = Vec::with_capacity(head.wrapping_sub(tail) as usize);
        while tail != head {
            let slot = &self.slots[(tail & self.mask) as usize];
            // SAFETY: positions below the Acquire-loaded head are fully written.
            out.push(unsafe { *slot.get() });
            tail = tail.wrapping_add(1);
        }
        self.tail.store(tail, Ordering::Relaxed);
        (out, self.dropped.swap(0, Ordering::Relaxed))
    }
}

fn registry() -> &'static Mutex<Vec<Arc<Ring>>> {
    static REGISTRY: OnceLock<Mutex<Vec<Arc<Ring>>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

thread_local! {
    static THREAD_RING: OnceLock<Arc<Ring>> = const { OnceLock::new() };
}

fn with_ring(f: impl FnOnce(&Ring)) {
    THREAD_RING.with(|cell| {
        let ring = cell.get_or_init(|| {
            let tid = NEXT_TID.fetch_add(1, Ordering::Relaxed);
            let name = std::thread::current().name().unwrap_or("").to_string();
            let ring = Arc::new(Ring::new(tid, DEFAULT_RING_CAPACITY, name));
            registry()
                .lock()
                .expect("ring registry poisoned")
                .push(Arc::clone(&ring));
            ring
        });
        f(ring);
    });
}

/// Name the current thread's timeline in exported traces (e.g. `"rayon-worker-2"`).
/// No-op when recording is disabled.
pub fn set_thread_name(name: &str) {
    if !enabled() {
        return;
    }
    with_ring(|ring| {
        *ring.name.lock().expect("ring name poisoned") = name.to_string();
    });
}

fn record(ev: Event) {
    with_ring(|ring| ring.push(ev));
}

// ---------------------------------------------------------------------------
// Recording API
// ---------------------------------------------------------------------------

/// RAII span: records one [`EventKind::Span`] event on drop. Inert (no clock read,
/// no ring touch) when recording was disabled at creation.
#[must_use = "a span measures the scope it is alive for"]
pub struct SpanGuard {
    cat: &'static str,
    name: &'static str,
    start_ns: u64,
    active: bool,
}

impl SpanGuard {
    /// An inert guard that records nothing; useful for conditional instrumentation.
    pub fn inert() -> Self {
        SpanGuard {
            cat: "",
            name: "",
            start_ns: 0,
            active: false,
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if self.active && enabled() {
            let start = self.start_ns;
            record(Event {
                kind: EventKind::Span,
                name: self.name,
                cat: self.cat,
                ctx: current_context(),
                ts_ns: start,
                dur_ns: now_ns().saturating_sub(start),
                ..Event::blank()
            });
        }
    }
}

/// Open a span covering the guard's lifetime.
#[inline]
pub fn span(cat: &'static str, name: &'static str) -> SpanGuard {
    if !enabled() {
        return SpanGuard::inert();
    }
    SpanGuard {
        cat,
        name,
        start_ns: now_ns(),
        active: true,
    }
}

/// Record a named scalar at the current time (a Chrome-trace counter track).
#[inline]
pub fn counter(cat: &'static str, name: &'static str, value: f64) {
    if !enabled() {
        return;
    }
    record(Event {
        kind: EventKind::Counter,
        name,
        cat,
        ctx: current_context(),
        ts_ns: now_ns(),
        value,
        ..Event::blank()
    });
}

/// Record one row of the time-series `name`, with `cols` naming the fields of
/// `vals`. At most [`SAMPLE_WIDTH`] fields are kept. Rows land in `intervals.csv`.
#[inline]
pub fn sample(cat: &'static str, name: &'static str, cols: &'static [&'static str], vals: &[f64]) {
    if !enabled() {
        return;
    }
    let n = vals.len().min(SAMPLE_WIDTH).min(cols.len());
    let mut buf = [0.0; SAMPLE_WIDTH];
    buf[..n].copy_from_slice(&vals[..n]);
    record(Event {
        kind: EventKind::Sample,
        name,
        cat,
        ctx: current_context(),
        ts_ns: now_ns(),
        cols,
        vals: buf,
        n_vals: n as u8,
        ..Event::blank()
    });
}

pub(crate) fn record_log(level: Level, target: &'static str, message: &str) {
    record(Event {
        kind: EventKind::Log,
        name: target,
        cat: "log",
        ctx: intern(message),
        ts_ns: now_ns(),
        value: level as u8 as f64,
        ..Event::blank()
    });
}

// ---------------------------------------------------------------------------
// Draining
// ---------------------------------------------------------------------------

/// One thread's drained timeline.
#[derive(Clone, Debug)]
pub struct ThreadEvents {
    /// Stable per-process thread id (assigned at first record).
    pub tid: u32,
    /// Thread display name (empty when never named).
    pub name: String,
    /// Events lost to ring overwrite since the previous drain.
    pub dropped: u64,
    /// Events in record order.
    pub events: Vec<Event>,
}

/// Snapshot of every thread ring plus the context intern table.
#[derive(Clone, Debug, Default)]
pub struct Drained {
    /// Per-thread timelines, sorted by `tid`.
    pub threads: Vec<ThreadEvents>,
    /// Interned context strings, indexed by the `ctx` field of events.
    pub contexts: Vec<String>,
}

impl Drained {
    /// Resolve an event's context id to its string (empty for [`NO_CONTEXT`]).
    pub fn context(&self, id: u32) -> &str {
        if id == NO_CONTEXT {
            ""
        } else {
            self.contexts
                .get(id as usize)
                .map(String::as_str)
                .unwrap_or("")
        }
    }

    /// Total number of events across all threads.
    pub fn total_events(&self) -> usize {
        self.threads.iter().map(|t| t.events.len()).sum()
    }

    /// Total events lost to ring overwrite.
    pub fn total_dropped(&self) -> u64 {
        self.threads.iter().map(|t| t.dropped).sum()
    }
}

/// Drain every ring in the process. Call at a quiescent point (worker threads
/// joined); see the module docs for the concurrency contract.
pub fn drain() -> Drained {
    let rings: Vec<Arc<Ring>> = registry().lock().expect("ring registry poisoned").clone();
    let mut threads: Vec<ThreadEvents> = rings
        .iter()
        .map(|ring| {
            let (events, dropped) = ring.drain();
            ThreadEvents {
                tid: ring.tid,
                name: ring.name.lock().expect("ring name poisoned").clone(),
                dropped,
                events,
            }
        })
        .collect();
    threads.sort_by_key(|t| t.tid);
    let contexts = contexts()
        .lock()
        .expect("context table poisoned")
        .names
        .clone();
    Drained { threads, contexts }
}

/// Disable recording and discard all pending events (used by tests to isolate runs).
pub fn reset() {
    disable();
    for ring in registry().lock().expect("ring registry poisoned").iter() {
        ring.drain();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Recording tests share process-global state; serialize them.
    pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_mode_records_nothing() {
        let _g = test_lock();
        reset();
        let _s = span("t", "should-not-appear");
        counter("t", "nope", 1.0);
        sample("t", "nope", &["a"], &[1.0]);
        drop(_s);
        let d = drain();
        assert_eq!(d.total_events(), 0, "disabled mode must not record");
    }

    #[test]
    fn span_counter_sample_roundtrip() {
        let _g = test_lock();
        reset();
        enable();
        {
            let _ctx = push_context("mix0/LRU");
            let _s = span("sweep", "simulate");
            counter("sweep", "evals", 3.0);
            sample("sim", "interval.core", &["interval", "ipc"], &[1.0, 0.5]);
        }
        disable();
        let d = drain();
        assert_eq!(d.total_events(), 3);
        let events: Vec<&Event> = d.threads.iter().flat_map(|t| &t.events).collect();
        let span_ev = events.iter().find(|e| e.kind == EventKind::Span).unwrap();
        assert_eq!(span_ev.name, "simulate");
        assert_eq!(d.context(span_ev.ctx), "mix0/LRU");
        let samp = events.iter().find(|e| e.kind == EventKind::Sample).unwrap();
        assert_eq!(samp.n_vals, 2);
        assert_eq!(samp.cols, &["interval", "ipc"]);
        assert_eq!(samp.vals[1], 0.5);
        reset();
    }

    #[test]
    fn ring_overwrites_oldest_and_counts_drops() {
        let ring = Ring::new(99, 8, String::new());
        for i in 0..20u64 {
            let mut ev = Event::blank();
            ev.ts_ns = i;
            ring.push(ev);
        }
        let (events, dropped) = ring.drain();
        assert_eq!(events.len(), 8);
        assert_eq!(dropped, 12);
        assert_eq!(events.first().unwrap().ts_ns, 12, "oldest survivors first");
        assert_eq!(events.last().unwrap().ts_ns, 19);
    }

    #[test]
    fn context_guard_restores_previous() {
        let _g = test_lock();
        reset();
        enable();
        let outer = push_context("outer");
        let outer_id = current_context();
        {
            let _inner = push_context("inner");
            assert_ne!(current_context(), outer_id);
        }
        assert_eq!(current_context(), outer_id);
        drop(outer);
        assert_eq!(current_context(), NO_CONTEXT);
        reset();
    }

    #[test]
    fn drain_is_incremental() {
        let _g = test_lock();
        reset();
        enable();
        counter("t", "one", 1.0);
        let first = drain();
        assert_eq!(first.total_events(), 1);
        counter("t", "two", 2.0);
        disable();
        let second = drain();
        assert_eq!(
            second.total_events(),
            1,
            "already-drained events do not repeat"
        );
        assert_eq!(
            second
                .threads
                .iter()
                .flat_map(|t| &t.events)
                .next()
                .unwrap()
                .name,
            "two"
        );
        reset();
    }
}
