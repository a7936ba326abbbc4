//! Timed wrappers around the two public traits the simulator is generic over.
//!
//! The product is not instrumented from inside in this benchmark, so the time spent
//! producing trace records and inside policy callbacks is measured by wrapping what the
//! simulator calls. Each wrapper accumulates into plain fields on the hot path and
//! hands its totals to a shared sink when it is dropped — the simulator owns the
//! wrapped values and offers no way to get them back.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use cache_sim::replacement::{AccessContext, InsertionDecision, LineView, LlcReplacementPolicy};
use cache_sim::trace::{MemAccess, TraceSource};

/// Calls and measured time of one per-call site.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Busy {
    pub calls: u64,
    pub ns: u64,
}

impl Busy {
    fn merge(&mut self, other: Busy) {
        self.calls += other.calls;
        self.ns += other.ns;
    }
}

/// Shared accumulator a wrapper flushes into on drop.
pub type Sink<T> = Arc<Mutex<T>>;

pub fn sink<T: Default>() -> Sink<T> {
    Arc::new(Mutex::new(T::default()))
}

/// Read a sink after every wrapper feeding it has been dropped.
pub fn drain<T: Copy>(sink: &Sink<T>) -> T {
    *sink.lock().expect("no wrapper panics while flushing")
}

/// A [`TraceSource`] that times every `next_access` of the source it wraps.
pub struct TimedSource {
    inner: Box<dyn TraceSource>,
    busy: Busy,
    sink: Sink<Busy>,
}

impl TimedSource {
    pub fn wrap(inner: Box<dyn TraceSource>, sink: &Sink<Busy>) -> Box<dyn TraceSource> {
        Box::new(TimedSource {
            inner,
            busy: Busy::default(),
            sink: sink.clone(),
        })
    }
}

impl TraceSource for TimedSource {
    #[inline]
    fn next_access(&mut self) -> MemAccess {
        let t = Instant::now();
        let access = self.inner.next_access();
        self.busy.ns += t.elapsed().as_nanos() as u64;
        self.busy.calls += 1;
        access
    }

    fn reset(&mut self) {
        self.inner.reset();
    }

    fn label(&self) -> String {
        self.inner.label()
    }
}

impl Drop for TimedSource {
    fn drop(&mut self) {
        if let Ok(mut sink) = self.sink.lock() {
            sink.merge(self.busy);
        }
    }
}

/// The policy callbacks, in the order the LLC fires them.
pub const CALLBACKS: [&str; 7] = [
    "on_access",
    "on_hit",
    "insertion_decision",
    "choose_victim",
    "on_evict",
    "on_fill",
    "on_interval",
];

/// What a [`TimedPolicy`] saw: calls per callback, time across all of them, and the
/// paper's discrete outcome of every miss (insertion priority 0..=3, or bypass).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PolicyCounts {
    /// Indexed like [`CALLBACKS`].
    pub calls: [u64; 7],
    pub ns: u64,
    pub insert_rrpv: [u64; 4],
    pub bypass: u64,
}

impl PolicyCounts {
    pub fn total_calls(&self) -> u64 {
        self.calls.iter().sum()
    }

    fn merge(&mut self, other: PolicyCounts) {
        for (a, b) in self.calls.iter_mut().zip(other.calls) {
            *a += b;
        }
        self.ns += other.ns;
        for (a, b) in self.insert_rrpv.iter_mut().zip(other.insert_rrpv) {
            *a += b;
        }
        self.bypass += other.bypass;
    }
}

/// An [`LlcReplacementPolicy`] that times and counts every callback of the policy it
/// wraps, and forwards arguments and results unchanged.
pub struct TimedPolicy<P: LlcReplacementPolicy> {
    inner: P,
    counts: PolicyCounts,
    sink: Sink<PolicyCounts>,
}

impl<P: LlcReplacementPolicy> TimedPolicy<P> {
    pub fn wrap(inner: P, sink: &Sink<PolicyCounts>) -> Self {
        TimedPolicy {
            inner,
            counts: PolicyCounts::default(),
            sink: sink.clone(),
        }
    }

    #[inline]
    fn timed<R>(&mut self, callback: usize, f: impl FnOnce(&mut P) -> R) -> R {
        let t = Instant::now();
        let out = f(&mut self.inner);
        self.counts.ns += t.elapsed().as_nanos() as u64;
        self.counts.calls[callback] += 1;
        out
    }
}

impl<P: LlcReplacementPolicy> LlcReplacementPolicy for TimedPolicy<P> {
    fn name(&self) -> String {
        self.inner.name()
    }

    #[inline]
    fn on_access(&mut self, ctx: &AccessContext) {
        self.timed(0, |p| p.on_access(ctx))
    }

    #[inline]
    fn on_hit(&mut self, ctx: &AccessContext, way: usize) {
        self.timed(1, |p| p.on_hit(ctx, way))
    }

    #[inline]
    fn insertion_decision(&mut self, ctx: &AccessContext) -> InsertionDecision {
        let decision = self.timed(2, |p| p.insertion_decision(ctx));
        match decision {
            InsertionDecision::Insert { rrpv } => {
                self.counts.insert_rrpv[rrpv.min(3) as usize] += 1
            }
            InsertionDecision::Bypass => self.counts.bypass += 1,
        }
        decision
    }

    #[inline]
    fn choose_victim(&mut self, ctx: &AccessContext, lines: &[LineView]) -> usize {
        self.timed(3, |p| p.choose_victim(ctx, lines))
    }

    #[inline]
    fn on_evict(&mut self, ctx: &AccessContext, evicted_block: u64, owner: usize) {
        self.timed(4, |p| p.on_evict(ctx, evicted_block, owner))
    }

    #[inline]
    fn on_fill(&mut self, ctx: &AccessContext, way: usize, decision: &InsertionDecision) {
        self.timed(5, |p| p.on_fill(ctx, way, decision))
    }

    #[inline]
    fn on_interval(&mut self) {
        self.timed(6, |p| p.on_interval())
    }
}

impl<P: LlcReplacementPolicy> Drop for TimedPolicy<P> {
    fn drop(&mut self) {
        if let Ok(mut sink) = self.sink.lock() {
            sink.merge(self.counts);
        }
    }
}

/// Cost of one timer bracket (`Instant::now()` … `elapsed()` around nothing).
#[derive(Debug, Clone, Copy)]
pub struct Bracket {
    /// Wall time one bracket adds to whatever encloses it.
    pub wall_ns: f64,
    /// Time an empty bracket reports; subtracted per call from accumulated busy time.
    pub reported_ns: f64,
}

impl Bracket {
    /// Measure the bracket on this host: the median of several batches.
    pub fn calibrate() -> Bracket {
        const BATCH: u64 = 200_000;
        let mut wall = Vec::new();
        let mut reported = Vec::new();
        for _ in 0..7 {
            let mut acc = 0u64;
            let outer = Instant::now();
            for _ in 0..BATCH {
                let t = Instant::now();
                acc += std::hint::black_box(t.elapsed().as_nanos() as u64);
            }
            wall.push(outer.elapsed().as_nanos() as f64 / BATCH as f64);
            reported.push(std::hint::black_box(acc) as f64 / BATCH as f64);
        }
        Bracket {
            wall_ns: crate::stats::median(&wall),
            reported_ns: crate::stats::median(&reported),
        }
    }

    /// Busy time of a per-call site with the bracket's own reading taken out.
    pub fn busy_ns(&self, busy: Busy) -> f64 {
        (busy.ns as f64 - busy.calls as f64 * self.reported_ns).max(0.0)
    }

    /// Wall time of a section that enclosed `calls` brackets, with their cost taken out.
    pub fn enclosing_ns(&self, wall_ns: f64, calls: u64) -> f64 {
        (wall_ns - calls as f64 * self.wall_ns).max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cache_sim::config::SystemConfig;
    use cache_sim::system::MultiCoreSystem;
    use experiments::PolicyKind;
    use workloads::{generate_mixes, StudyKind};

    /// The wrappers must be invisible to the simulation: same `SystemResults`, bit for
    /// bit, with and without them.
    #[test]
    fn timed_wrappers_leave_system_results_bit_identical() {
        let cfg = SystemConfig::tiny(4);
        let sets = cfg.llc.geometry.num_sets();
        let mix = generate_mixes(StudyKind::Cores4, 1, 11).remove(0);
        for kind in [PolicyKind::TaDrrip, PolicyKind::AdaptBp32] {
            let plain = {
                let policy = kind.build_dispatch(&cfg, &mix.thrashing_slots());
                let mut system =
                    MultiCoreSystem::new(cfg.clone(), mix.trace_sources(sets, 5), policy);
                system.run(30_000)
            };
            let sources = sink::<Busy>();
            let policy_counts = sink::<PolicyCounts>();
            let wrapped = {
                let policy = TimedPolicy::wrap(
                    kind.build_dispatch(&cfg, &mix.thrashing_slots()),
                    &policy_counts,
                );
                let traces = mix
                    .trace_sources(sets, 5)
                    .into_iter()
                    .map(|s| TimedSource::wrap(s, &sources))
                    .collect();
                let mut system = MultiCoreSystem::new(cfg.clone(), traces, policy);
                system.run(30_000)
            };
            assert_eq!(format!("{plain:?}"), format!("{wrapped:?}"), "{kind:?}");

            // And the counts they hand back describe that run.
            let counts = drain(&policy_counts);
            let llc_accesses: u64 = wrapped.per_core.iter().map(|c| c.llc.demand_accesses).sum();
            assert!(drain(&sources).calls > 0);
            assert!(
                counts.calls[0] >= llc_accesses,
                "on_access fires per demand access"
            );
            let decided: u64 = counts.insert_rrpv.iter().sum::<u64>() + counts.bypass;
            assert_eq!(
                decided, counts.calls[2],
                "every decision lands in the histogram"
            );
            if kind == PolicyKind::TaDrrip {
                assert_eq!(counts.bypass, 0, "TA-DRRIP never bypasses");
            }
        }
    }

    #[test]
    fn bracket_correction_never_goes_negative() {
        let b = Bracket {
            wall_ns: 40.0,
            reported_ns: 20.0,
        };
        assert_eq!(b.busy_ns(Busy { calls: 10, ns: 150 }), 0.0);
        assert_eq!(b.busy_ns(Busy { calls: 10, ns: 500 }), 300.0);
        assert_eq!(b.enclosing_ns(1_000.0, 10), 600.0);
    }
}
