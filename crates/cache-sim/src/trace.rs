//! Trace abstraction: the simulator consumes per-core streams of memory accesses.
//!
//! Sources are infinite (they wrap around / keep generating), mirroring the paper's
//! methodology where an application that finishes its 300M-instruction slice is re-executed
//! from the beginning so that contention on the shared cache persists until every
//! application reaches its instruction target.
//!
//! The `workloads` crate provides the synthetic SPEC/PARSEC-like generators; this module
//! only defines the interface plus a few simple sources used by tests and examples.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One memory instruction plus the count of non-memory instructions preceding it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemAccess {
    /// Byte address accessed.
    pub addr: u64,
    /// Program counter of the memory instruction (used for SHiP-style signatures).
    pub pc: u64,
    /// True for stores.
    pub is_write: bool,
    /// Number of non-memory instructions executed since the previous memory access.
    pub non_mem_instrs: u32,
}

// What a decode buffer holds per record, which sizes replay's decode buffers against their
// budget.
const _: () = assert!(std::mem::size_of::<MemAccess>() == 24);

impl MemAccess {
    /// Instructions this access accounts for: the memory instruction itself plus the
    /// non-memory instructions preceding it.
    pub fn instructions(&self) -> u64 {
        1 + u64::from(self.non_mem_instrs)
    }
}

/// An infinite stream of memory accesses for one core.
pub trait TraceSource: Send {
    /// Produce the next access. Must never terminate.
    fn next_access(&mut self) -> MemAccess;

    /// Restart the stream from the beginning (used when re-running an application).
    ///
    /// # Contract
    ///
    /// `reset` must restore the *exact* initial stream: the sequence of accesses produced
    /// after a `reset` must be identical to the sequence produced by a freshly constructed
    /// source, including any internal randomness (sources must re-seed their RNGs). Trace
    /// capture (`trace-io`) and the capture↔replay equivalence tests rely on this — a
    /// source whose reset drifts would make a captured corpus unrepresentative of the live
    /// generator.
    fn reset(&mut self);

    /// Short human-readable name for reports.
    fn label(&self) -> String {
        "trace".to_string()
    }

    /// Full passes completed over a finite stream that is replayed in a loop (the
    /// paper's re-execution methodology), counted eagerly: serving the last record of a
    /// pass completes it. `None` for a source that has no end to wrap at, which a
    /// generator is.
    fn passes(&self) -> Option<u64> {
        None
    }
}

impl TraceSource for Box<dyn TraceSource> {
    fn next_access(&mut self) -> MemAccess {
        (**self).next_access()
    }
    fn reset(&mut self) {
        (**self).reset()
    }
    fn label(&self) -> String {
        (**self).label()
    }
    fn passes(&self) -> Option<u64> {
        (**self).passes()
    }
}

/// A strided (streaming) access pattern over a fixed-size region, wrapping around.
#[derive(Debug, Clone)]
pub struct StridedTrace {
    base: u64,
    stride: u64,
    region_bytes: u64,
    non_mem_instrs: u32,
    offset: u64,
    pc: u64,
}

impl StridedTrace {
    /// `base`: starting byte address, `stride`: bytes between accesses, `region_bytes`:
    /// wrap-around length, `non_mem_instrs`: compute instructions between accesses.
    pub fn new(base: u64, stride: u64, region_bytes: u64, non_mem_instrs: u32) -> Self {
        assert!(stride > 0 && region_bytes >= stride);
        StridedTrace {
            base,
            stride,
            region_bytes,
            non_mem_instrs,
            offset: 0,
            pc: 0x4000_0000 + base,
        }
    }
}

impl TraceSource for StridedTrace {
    fn next_access(&mut self) -> MemAccess {
        let addr = self.base + self.offset;
        self.offset = (self.offset + self.stride) % self.region_bytes;
        MemAccess {
            addr,
            pc: self.pc,
            is_write: false,
            non_mem_instrs: self.non_mem_instrs,
        }
    }

    fn reset(&mut self) {
        self.offset = 0;
    }

    fn label(&self) -> String {
        format!("strided({:#x},{})", self.base, self.stride)
    }
}

/// Replays a shared, immutable access buffer in a loop, wrapping at the end (the paper's
/// re-execution methodology) with the same eager wrap count as [`ArenaReplayTrace`].
///
/// The buffer is behind an [`Arc`], so one record vector can back any number of cursors
/// without copying. It is the in-memory source of the simulator's tests and of the
/// test-side references a replayed corpus is held against; the sweep engine itself
/// replays a corpus file through [`ArenaReplayTrace`].
#[derive(Debug, Clone)]
pub struct SharedReplayTrace {
    records: Arc<Vec<MemAccess>>,
    pos: usize,
    wraps: u64,
    name: String,
}

impl SharedReplayTrace {
    /// Wrap a shared record buffer. Panics on an empty buffer: a [`TraceSource`] must
    /// never terminate, and an empty loop cannot produce anything.
    pub fn new(name: impl Into<String>, records: Arc<Vec<MemAccess>>) -> Self {
        assert!(!records.is_empty(), "shared replay trace must not be empty");
        SharedReplayTrace {
            records,
            pos: 0,
            wraps: 0,
            name: name.into(),
        }
    }

    /// Test convenience: read-only accesses over the given byte addresses with a fixed
    /// gap of non-memory instructions between them, counting wraps on its own.
    #[cfg(test)]
    pub(crate) fn from_addrs(name: &str, addrs: &[u64], non_mem_instrs: u32) -> Self {
        let accesses = addrs
            .iter()
            .enumerate()
            .map(|(i, &addr)| MemAccess {
                addr,
                pc: 0x1000 + (i as u64 % 17) * 4,
                is_write: false,
                non_mem_instrs,
            })
            .collect();
        Self::new(name, Arc::new(accesses))
    }

    /// This cursor standing at record `at` of the endless stream: what it serves, and
    /// the passes it reports, are those of a cursor that has served `at` records.
    pub fn seek(mut self, at: u64) -> Self {
        let len = self.records.len() as u64;
        self.pos = (at % len) as usize;
        self.wraps = at / len;
        self
    }

    /// How many times the cursor wrapped past the end of the buffer. Zero means the
    /// consumer never outran the captured records, i.e. the replay was equivalent to an
    /// infinite source over the same prefix.
    pub fn wraps(&self) -> u64 {
        self.wraps
    }
}

impl TraceSource for SharedReplayTrace {
    fn next_access(&mut self) -> MemAccess {
        let a = self.records[self.pos];
        self.pos += 1;
        if self.pos == self.records.len() {
            self.pos = 0;
            self.wraps += 1;
        }
        a
    }

    fn reset(&mut self) {
        self.pos = 0;
        self.wraps = 0;
    }

    fn label(&self) -> String {
        self.name.clone()
    }

    fn passes(&self) -> Option<u64> {
        Some(self.wraps)
    }
}

/// Produces a wrapping record stream one caller-owned batch at a time — the streaming
/// counterpart of handing out an `Arc<Vec<MemAccess>>`.
///
/// Implementations decode (or generate) the *next* run of records into the arena the
/// caller passes in, reusing its capacity; nothing about the whole stream is ever
/// resident at once. `trace_io`'s zero-copy mapped decoder is the main implementor; the
/// consumer side is [`ArenaReplayTrace`].
pub trait BatchSource: Send {
    /// Replace `arena`'s contents with the next batch of the stream (at least one
    /// record — a [`TraceSource`] must never terminate, so neither may a batch stream).
    ///
    /// Returns `true` when this batch *ends a full pass* over the stream: the record
    /// following the batch's last is the stream's first again. Consumers use it to
    /// count wraps with the same eager semantics as [`SharedReplayTrace`].
    fn fill(&mut self, arena: &mut Vec<MemAccess>) -> bool;

    /// Restart the stream: the next [`fill`](BatchSource::fill) produces the first
    /// batch again, bit-identical to a freshly constructed source (the same exact-reset
    /// contract as [`TraceSource::reset`]).
    fn rewind(&mut self);

    /// Short human-readable name for reports.
    fn label(&self) -> String;
}

/// Typed unwind payload for replay infrastructure that hits corruption *after* its
/// sources were validated.
///
/// The [`TraceSource`]/[`BatchSource`] contracts are infallible by design — the
/// simulator hot loop cannot plumb `Result` — so a decode failure discovered
/// mid-replay can only surface as a panic. Raising it with
/// [`raise_replay_fault`] makes the panic *typed*: an unwind boundary downcasts
/// the payload with [`replay_fault_from`] to tell recoverable replay corruption
/// apart from arbitrary bugs. The sweep engine
/// (`experiments::runner::sweep_policies_on_sources_with`) is one — `repro sweep`
/// and every corpus sweep through the library get a `TraceError` back, and any
/// other panic is resumed; sweepd's worker `catch_unwind` is the other
/// (quarantine the corpus and answer a typed 503, against a 500 for a bug). A
/// caller that drives a replayed source itself installs its own boundary or
/// keeps plain panic-on-corruption semantics.
#[derive(Debug, Clone)]
pub struct ReplayFault {
    /// Label of the stream that failed (see [`BatchSource::label`]).
    pub stream: String,
    /// Human-readable description of the corruption.
    pub message: String,
}

impl std::fmt::Display for ReplayFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "replay fault on stream {}: {}",
            self.stream, self.message
        )
    }
}

/// Unwind with a [`ReplayFault`] payload. The message is written to stderr here and
/// the panic hook is passed over (`resume_unwind`): it could only render the payload
/// as `Box<dyn Any>`, with a backtrace into code that has no bug.
pub fn raise_replay_fault(stream: &str, message: String) -> ! {
    eprintln!("replay fault on stream {stream}: {message}");
    std::panic::resume_unwind(Box::new(ReplayFault {
        stream: stream.to_string(),
        message,
    }))
}

/// Downcast a `catch_unwind` payload to the [`ReplayFault`] it carries, if any.
pub fn replay_fault_from(payload: &(dyn std::any::Any + Send)) -> Option<&ReplayFault> {
    payload.downcast_ref::<ReplayFault>()
}

/// Process-wide accounting of live replay-arena bytes (see [`ArenaTracker`]).
static ARENA_CURRENT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
/// High-water mark of [`ARENA_CURRENT`]; read by [`arena_peak_bytes`].
static ARENA_PEAK: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// Bytes currently held by live replay arenas (all [`ArenaTracker`]s).
pub fn arena_current_bytes() -> u64 {
    ARENA_CURRENT.load(std::sync::atomic::Ordering::Relaxed)
}

/// High-water mark of [`arena_current_bytes`] since process start or the last
/// [`reset_arena_peak`]. The constant-memory sweep tests and the decode benchmark
/// assert against this.
pub fn arena_peak_bytes() -> u64 {
    ARENA_PEAK.load(std::sync::atomic::Ordering::Relaxed)
}

/// Reset the peak to the *currently live* arena bytes, so a test can bracket one run.
pub fn reset_arena_peak() {
    ARENA_PEAK.store(arena_current_bytes(), std::sync::atomic::Ordering::Relaxed);
}

/// RAII registration of one replay buffer's bytes in the process-wide arena accounting.
///
/// Holders call [`set_bytes`](ArenaTracker::set_bytes) with the buffer's current
/// capacity after each refill; dropping the tracker releases its contribution. The
/// global peak ([`arena_peak_bytes`]) is what constant-memory tests cap.
#[derive(Debug, Default)]
pub struct ArenaTracker {
    registered: u64,
}

impl ArenaTracker {
    /// A tracker contributing zero bytes until the first `set_bytes`.
    pub fn new() -> Self {
        ArenaTracker::default()
    }

    /// Update this tracker's contribution to the live total (and the peak).
    pub fn set_bytes(&mut self, bytes: u64) {
        if bytes == self.registered {
            return;
        }
        let now = if bytes >= self.registered {
            ARENA_CURRENT.fetch_add(bytes - self.registered, Ordering::Relaxed) + bytes
                - self.registered
        } else {
            ARENA_CURRENT.fetch_sub(self.registered - bytes, Ordering::Relaxed) + bytes
                - self.registered
        };
        self.registered = bytes;
        ARENA_PEAK.fetch_max(now, Ordering::Relaxed);
    }
}

impl Drop for ArenaTracker {
    fn drop(&mut self) {
        self.set_bytes(0);
    }
}

/// Adapts a [`BatchSource`] into an infinite [`TraceSource`]: serves records from a
/// reused fixed-size arena, refilling from the source when the arena is drained.
///
/// A batch that both started and ended a pass is the whole stream: the arena then
/// replays it in place — no refill, nothing asked of the source again until
/// [`reset`](TraceSource::reset) — so a stream shorter than one batch loops at the cost
/// of an index, however many passes a run makes over it. Over `trace_io`'s decoder,
/// which fills one block at a time, that is a stream of one block.
///
/// Wrap counting is *eager*, exactly like [`SharedReplayTrace`]: serving the last record
/// of a pass-ending batch increments [`wraps`](ArenaReplayTrace::wraps) immediately.
/// Arena capacity is registered with the process-wide accounting
/// ([`arena_peak_bytes`]) after every refill.
///
/// A cursor may also start mid-pass ([`resume`](Self::resume)), over a source positioned
/// on the block that holds its first record.
pub struct ArenaReplayTrace {
    source: Box<dyn BatchSource>,
    arena: Vec<MemAccess>,
    pos: usize,
    /// Leading records of the next batch that are not served: the rest of the block a
    /// resumed cursor's first record lies in. 0 after the first batch.
    skip: usize,
    /// The next batch starts a pass.
    pass_starts: bool,
    /// The current arena contents end a full pass (wrap fires on its last record).
    end_of_pass: bool,
    /// The current arena contents also started that pass: the stream is resident.
    whole_stream: bool,
    wraps: u64,
    stream_wraps: Arc<AtomicU64>,
    tracker: ArenaTracker,
}

impl ArenaReplayTrace {
    /// Wrap `source`; no records are pulled until the first `next_access`.
    ///
    /// `stream_wraps` is the counter shared by everything that reads the same stream; it
    /// holds the most passes any one reader completed: this cursor folds its own
    /// [`wraps`](Self::wraps) into it with `fetch_max` as they happen (never lowering it,
    /// not even on [`reset`](TraceSource::reset)), so the count does not grow with the
    /// number of cursors. A cursor that feeds a shared private stage gets a counter of
    /// its own instead — the stage draws ahead of its consumers, and
    /// `cache_sim::private::StageCursor` folds in what each consumer actually reached.
    pub fn new(source: Box<dyn BatchSource>, stream_wraps: Arc<AtomicU64>) -> Self {
        ArenaReplayTrace {
            pass_starts: true,
            ..Self::resume(source, stream_wraps, 0, 0)
        }
    }

    /// A cursor that continues mid-pass, as one that has completed `passes` passes and
    /// served the first `skip` records of the batch `source` fills next: it serves from
    /// there, and its [`passes`](TraceSource::passes) and eager wrap count continue from
    /// `passes`. Its first batch does not count as starting a pass, so a stream that
    /// fits one batch loops in place only from the first batch that both starts and
    /// ends one.
    pub fn resume(
        source: Box<dyn BatchSource>,
        stream_wraps: Arc<AtomicU64>,
        passes: u64,
        skip: usize,
    ) -> Self {
        ArenaReplayTrace {
            source,
            arena: Vec::new(),
            pos: 0,
            skip,
            pass_starts: false,
            end_of_pass: false,
            whole_stream: false,
            wraps: passes,
            stream_wraps,
            tracker: ArenaTracker::new(),
        }
    }

    /// How many times the stream wrapped past its end (eager count, matching
    /// [`SharedReplayTrace::wraps`]).
    pub fn wraps(&self) -> u64 {
        self.wraps
    }
}

impl TraceSource for ArenaReplayTrace {
    fn next_access(&mut self) -> MemAccess {
        if self.pos >= self.arena.len() {
            if !self.whole_stream {
                self.end_of_pass = self.source.fill(&mut self.arena);
                assert!(
                    self.skip < self.arena.len(),
                    "BatchSource::fill must produce at least one record, and a resumed \
                     cursor's first batch the record it resumes at"
                );
                self.whole_stream = self.pass_starts && self.end_of_pass;
                // The batch after one that ended a pass starts the next.
                self.pass_starts = self.end_of_pass;
                self.tracker
                    .set_bytes((self.arena.capacity() * std::mem::size_of::<MemAccess>()) as u64);
            }
            self.pos = std::mem::take(&mut self.skip);
        }
        let a = self.arena[self.pos];
        self.pos += 1;
        if self.end_of_pass && self.pos == self.arena.len() {
            self.wraps += 1;
            self.stream_wraps.fetch_max(self.wraps, Ordering::Relaxed);
        }
        a
    }

    fn reset(&mut self) {
        self.source.rewind();
        self.arena.clear();
        self.pos = 0;
        self.skip = 0;
        self.pass_starts = true;
        self.end_of_pass = false;
        self.whole_stream = false;
        self.wraps = 0;
    }

    fn label(&self) -> String {
        self.source.label()
    }

    fn passes(&self) -> Option<u64> {
        Some(self.wraps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn strided_trace_wraps_around_region() {
        let mut t = StridedTrace::new(0x1000, 64, 256, 5);
        let addrs: Vec<u64> = (0..5).map(|_| t.next_access().addr).collect();
        assert_eq!(addrs, vec![0x1000, 0x1040, 0x1080, 0x10c0, 0x1000]);
    }

    #[test]
    fn strided_trace_reset_restarts() {
        let mut t = StridedTrace::new(0, 64, 1 << 20, 0);
        t.next_access();
        t.next_access();
        t.reset();
        assert_eq!(t.next_access().addr, 0);
    }

    #[test]
    fn shared_replay_trace_wraps_and_counts() {
        let mut a = SharedReplayTrace::from_addrs("a", &[1, 2, 3], 0);
        // A second cursor over the same buffer.
        let mut b = SharedReplayTrace::new("b", a.records.clone());
        let seq: Vec<u64> = (0..7).map(|_| a.next_access().addr).collect();
        assert_eq!(seq, vec![1, 2, 3, 1, 2, 3, 1]);
        assert_eq!((a.wraps(), a.passes()), (2, Some(2)));
        // Cursors over the same buffer are independent.
        assert_eq!(b.next_access().addr, 1);
        assert_eq!(b.wraps(), 0);
        a.reset();
        assert_eq!(a.wraps(), 0);
        assert_eq!(a.next_access().addr, 1);
    }

    #[test]
    #[should_panic]
    fn empty_shared_replay_trace_panics() {
        let _ = SharedReplayTrace::new("empty", Arc::new(Vec::new()));
    }

    /// Test double: serves a fixed record vector in batches of `batch` records.
    struct VecBatchSource {
        records: Vec<MemAccess>,
        batch: usize,
        pos: usize,
        fills: Arc<AtomicUsize>,
    }

    impl BatchSource for VecBatchSource {
        fn fill(&mut self, arena: &mut Vec<MemAccess>) -> bool {
            self.fills.fetch_add(1, Ordering::Relaxed);
            arena.clear();
            let end = (self.pos + self.batch).min(self.records.len());
            arena.extend_from_slice(&self.records[self.pos..end]);
            self.pos = end;
            if self.pos == self.records.len() {
                self.pos = 0;
                true
            } else {
                false
            }
        }

        fn rewind(&mut self) {
            self.pos = 0;
        }

        fn label(&self) -> String {
            "vec-batch".to_string()
        }
    }

    fn fixture_records(n: u64) -> Vec<MemAccess> {
        (0..n)
            .map(|i| MemAccess {
                addr: i * 64,
                pc: 0x100 + i,
                is_write: i % 3 == 0,
                non_mem_instrs: (i % 5) as u32,
            })
            .collect()
    }

    /// An arena cursor over `n` records in batches of `batch`, the same records as a
    /// shared cursor, and the fills the arena's source has served.
    fn batch_fixture(
        n: u64,
        batch: usize,
    ) -> (ArenaReplayTrace, SharedReplayTrace, Arc<AtomicUsize>) {
        let records = fixture_records(n);
        let fills = Arc::new(AtomicUsize::new(0));
        let arena = ArenaReplayTrace::new(
            Box::new(VecBatchSource {
                records: records.clone(),
                batch,
                pos: 0,
                fills: fills.clone(),
            }),
            Arc::default(),
        );
        let shared = SharedReplayTrace::new("vec-batch", Arc::new(records));
        (arena, shared, fills)
    }

    /// [`batch_fixture`]'s arena cursor resumed at record `at` of the endless stream: its
    /// source stands on the batch that holds record `at % n`, as a seeking decoder's
    /// stands on the block.
    fn resumed_fixture(n: u64, batch: usize, at: u64) -> (ArenaReplayTrace, Arc<AtomicUsize>) {
        let offset = (at % n) as usize;
        let fills = Arc::new(AtomicUsize::new(0));
        let source = VecBatchSource {
            records: fixture_records(n),
            batch,
            pos: offset / batch * batch,
            fills: fills.clone(),
        };
        let arena =
            ArenaReplayTrace::resume(Box::new(source), Arc::default(), at / n, offset % batch);
        (arena, fills)
    }

    #[test]
    fn a_resumed_cursor_continues_like_one_driven_there() {
        // Batches smaller than, equal to and larger than the ten-record stream; `block`
        // is the first batch boundary.
        for batch in [3usize, 10, 64] {
            let block = batch.min(10) as u64;
            for at in [0, 1, block - 1, block, block + 1, 9, 10, 11, 29] {
                let (_, mut driven, _) = batch_fixture(10, batch);
                for _ in 0..at {
                    driven.next_access();
                }
                let mut seeked =
                    SharedReplayTrace::new("s", Arc::new(fixture_records(10))).seek(at);
                let (mut resumed, _) = resumed_fixture(10, batch, at);
                assert_eq!(resumed.passes(), driven.passes(), "batch {batch}, at {at}");
                assert_eq!(seeked.passes(), driven.passes(), "batch {batch}, at {at}");
                for step in 0..37 {
                    let want = driven.next_access();
                    let what = format!("batch {batch}, at {at}, step {step}");
                    assert_eq!(resumed.next_access(), want, "{what}");
                    assert_eq!(seeked.next_access(), want, "{what}");
                    assert_eq!(resumed.wraps(), driven.wraps(), "{what}");
                    assert_eq!(seeked.wraps(), driven.wraps(), "{what}");
                }
            }
        }
        // A stream that fits one batch, resumed mid-pass: the first batch did not start
        // the pass, so the next is taken too, and that one loops in place.
        for batch in [10usize, 64] {
            let (mut resumed, fills) = resumed_fixture(10, batch, 3);
            for _ in 0..53 {
                resumed.next_access();
            }
            assert_eq!((resumed.wraps(), fills.load(Ordering::Relaxed)), (5, 2));
        }
    }

    #[test]
    fn arena_replay_matches_shared_replay_across_wraps() {
        // Batch sizes that divide the stream, don't, and exceed it.
        for batch in [1usize, 3, 7, 10, 64] {
            let (mut arena, mut shared, _) = batch_fixture(10, batch);
            assert_eq!(arena.label(), shared.label());
            for step in 0..53 {
                assert_eq!(
                    arena.next_access(),
                    shared.next_access(),
                    "batch {batch} diverged at step {step}"
                );
                assert_eq!(
                    arena.wraps(),
                    shared.wraps(),
                    "batch {batch}: wrap counting diverged at step {step} \
                     (both sides must count eagerly)"
                );
            }
        }
    }

    #[test]
    fn a_stream_that_fits_one_batch_loops_in_place() {
        // Batch equal to the stream and larger: the one batch both starts and ends a
        // pass, so five passes and a bit cost one fill; `reset` costs one more.
        for batch in [10usize, 64] {
            let (mut arena, mut shared, fills) = batch_fixture(10, batch);
            let stream_wraps = arena.stream_wraps.clone();
            for step in 0..53 {
                assert_eq!(arena.next_access(), shared.next_access(), "step {step}");
                assert_eq!(arena.wraps(), shared.wraps(), "eager at step {step}");
            }
            assert_eq!(fills.load(Ordering::Relaxed), 1, "batch {batch}");
            arena.reset();
            shared.reset();
            assert_eq!(arena.wraps(), 0);
            for _ in 0..25 {
                assert_eq!(arena.next_access(), shared.next_access());
            }
            assert_eq!(fills.load(Ordering::Relaxed), 2, "batch {batch}: reset");
            // The stream counter holds the most passes the cursor completed, and
            // survives the reset.
            assert_eq!(
                (arena.wraps(), stream_wraps.load(Ordering::Relaxed)),
                (2, 5)
            );
        }
        // A stream longer than the batch refills all the way: 3 + 3 + 3 + 1 a pass.
        let (mut arena, _, fills) = batch_fixture(10, 3);
        for _ in 0..53 {
            arena.next_access();
        }
        assert_eq!(fills.load(Ordering::Relaxed), 5 * 4 + 1);
    }

    #[test]
    fn arena_replay_reset_restores_the_initial_stream() {
        let (mut arena, _, _) = batch_fixture(10, 4);
        let first: Vec<MemAccess> = (0..17).map(|_| arena.next_access()).collect();
        arena.reset();
        assert_eq!(arena.wraps(), 0);
        let second: Vec<MemAccess> = (0..17).map(|_| arena.next_access()).collect();
        assert_eq!(first, second);
    }

    #[test]
    fn arena_tracker_accounts_live_and_peak_bytes() {
        // Tracker contributions are never negative, so the global counters are bounded
        // below by what *our* trackers hold — sound even with other tests' trackers
        // coming and going concurrently.
        let mut a = ArenaTracker::new();
        let mut b = ArenaTracker::new();
        a.set_bytes(1000);
        b.set_bytes(500);
        assert!(arena_current_bytes() >= 1500);
        assert!(arena_peak_bytes() >= 1500);
        a.set_bytes(200);
        drop(b);
        assert!(arena_current_bytes() >= 200);
        drop(a);
        let (mut arena, _, _) = batch_fixture(10, 4);
        arena.next_access();
        assert!(
            arena_current_bytes() >= 4 * std::mem::size_of::<MemAccess>() as u64,
            "a filled arena must register its capacity"
        );
        drop(arena);
    }

    #[test]
    fn boxed_trace_source_dispatches() {
        let mut boxed: Box<dyn TraceSource> = Box::new(SharedReplayTrace::from_addrs("b", &[9], 1));
        assert_eq!(boxed.next_access().addr, 9);
        assert_eq!(boxed.label(), "b");
        boxed.reset();
    }
}
