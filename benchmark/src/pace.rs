//! Host-speed normalisation: a reference loop timed around every repetition.
//!
//! The hosts this benchmark runs on are small VMs whose hardware threads share a
//! physical core with a co-tenant. While the co-tenant computes, code that retires
//! several instructions per cycle — the simulator, the codecs, the serialiser — runs
//! about 1.6× slower, for milliseconds or for minutes at a time; neither the fastest
//! repetition of a run nor the median survives that (spreads of 20–45 % between runs
//! of the same code were measured with both). What does survive is the *ratio* of a
//! repetition's time to the time of a fixed loop run immediately before and after it
//! on the same threads: the loop slows by the same factor as the product (1.64 against
//! 1.63–1.68 on the sizing host), so the ratio reads the same under either condition.
//!
//! Every timed repetition is therefore bracketed by two [`probe`]s; its time is divided
//! by the mean duration of the loop in those probes and multiplied by
//! [`REFERENCE_UNIT_MS`], the loop's duration on the idle sizing host. A metric is the
//! median of its normalised repetitions, so times read as wall-clock time on the
//! sizing host when nothing disturbs it, on whichever host they were taken.
//!
//! Work that can be cut into units of a few milliseconds (serialising results, draining
//! generators) is measured as [`Interleaved`] units instead, which needs the ratio only
//! when the host is disturbed without a pause.
//!
//! Sections that spend their time in system calls — writing a corpus through the page
//! cache, socket round trips — slow by about half as much as the loop does; they are
//! normalised with a [`SYSTEM`] sensitivity instead of [`COMPUTE`].

use std::hint::black_box;
use std::time::Instant;

use crate::stats;

/// Iterations of the reference loop in one unit.
const UNIT_ITERATIONS: u64 = 3_000_000;

/// Duration of one unit on the sizing host (2.1 GHz Xeon VM) when idle: the fastest of
/// many thousand units, which 60 s windows reproduce within 1 %.
pub const REFERENCE_UNIT_MS: f64 = 2.75;

/// Share of a section's time that slows as the reference loop does: all of it for the
/// simulator, the codecs and the serialiser (their time against the loop's, over five
/// minutes of a disturbed host, has an elasticity of 0.9–0.95) …
pub const COMPUTE: f64 = 1.0;

/// … and half of it for sections bound by system calls (corpus capture took 1.2 s idle
/// and 1.6 s where the loop took 1.7× as long; a memo-hit round trip 11 µs and 17 µs).
pub const SYSTEM: f64 = 0.5;

/// How much longer a section of the given sensitivity takes while a reference unit
/// takes `reference_ms`, relative to the idle sizing host.
fn slowdown_of(sensitivity: f64, reference_ms: f64) -> f64 {
    1.0 + sensitivity * (reference_ms / REFERENCE_UNIT_MS - 1.0)
}

/// Units per probe. Interference comes in bursts of a few milliseconds as well as in
/// long stretches, so a probe spans several.
const PROBE_UNITS: usize = 6;

/// Six independent integer chains: like the product's hot loops, it keeps several
/// execution ports busy, which is what makes it as sensitive to a busy sibling thread.
#[inline(never)]
fn unit(iterations: u64) -> u64 {
    let (mut a, mut b, mut c, mut d, mut e, mut f) = (1u64, 2u64, 3u64, 4u64, 5u64, 6u64);
    for i in 0..iterations {
        a = a.wrapping_mul(3).wrapping_add(i);
        b = b.wrapping_add(a ^ i);
        c = (c ^ i).rotate_left(7);
        d = d.wrapping_add(i << 1);
        e ^= i.wrapping_mul(5);
        f = f.wrapping_add(c & d);
    }
    a ^ b ^ c ^ d ^ e ^ f
}

/// Mean duration of a reference unit on this thread right now, in ms.
fn probe() -> f64 {
    (0..PROBE_UNITS).map(|_| reference_unit()).sum::<f64>() / PROBE_UNITS as f64
}

/// [`probe`] on `threads` threads at once (this one included), averaged: the reference
/// for a section that keeps that many workers busy.
pub fn probe_on(threads: usize) -> f64 {
    let sum: f64 = std::thread::scope(|scope| {
        let others: Vec<_> = (1..threads).map(|_| scope.spawn(probe)).collect();
        let here = probe();
        others
            .into_iter()
            .map(|h| h.join().expect("the reference loop does not panic"))
            .sum::<f64>()
            + here
    });
    sum / threads.max(1) as f64
}

/// The repetitions of one timed section, each with the reference measured around it.
#[derive(Debug, Clone)]
pub struct Paced {
    sensitivity: f64,
    /// Wall time of each repetition, s.
    wall_s: Vec<f64>,
    /// Mean reference unit around each repetition, ms.
    reference_ms: Vec<f64>,
}

impl Paced {
    /// For a section of the given sensitivity, [`COMPUTE`] or [`SYSTEM`].
    pub fn new(sensitivity: f64) -> Paced {
        Paced {
            sensitivity,
            wall_s: Vec::new(),
            reference_ms: Vec::new(),
        }
    }

    /// Record a repetition that took `wall_s`, with the probes taken before and after.
    pub fn push(&mut self, wall_s: f64, before_ms: f64, after_ms: f64) {
        self.wall_s.push(wall_s);
        self.reference_ms.push((before_ms + after_ms) / 2.0);
    }

    /// Time `work` on this thread between two probes on `threads` threads.
    pub fn time<T>(&mut self, threads: usize, work: impl FnOnce() -> T) -> T {
        let before = probe_on(threads);
        let t = Instant::now();
        let result = work();
        let wall = t.elapsed().as_secs_f64();
        self.push(wall, before, probe_on(threads));
        result
    }

    pub fn len(&self) -> usize {
        self.wall_s.len()
    }

    /// Each repetition's time as it would read on the idle sizing host, s.
    pub fn normalised_s(&self) -> Vec<f64> {
        self.wall_s
            .iter()
            .zip(&self.reference_ms)
            .map(|(wall, reference)| wall / slowdown_of(self.sensitivity, *reference))
            .collect()
    }

    /// Median wall time as measured, s.
    pub fn raw_median_s(&self) -> f64 {
        stats::median(&self.wall_s)
    }

    /// How much slower than the idle sizing host this host ran the reference loop
    /// around these repetitions (1.0 = as fast), on average.
    pub fn slowdown(&self) -> f64 {
        self.reference_ms.iter().sum::<f64>() / self.reference_ms.len() as f64 / REFERENCE_UNIT_MS
    }
}

/// Short units of one piece of work — a few milliseconds each — alternated with
/// reference units on the same thread. Interference comes in bursts, so even on a
/// busy host a good share of such units runs undisturbed: the estimate is the lowest
/// decile of the work units, scaled by the lowest decile of the reference units (which
/// reads [`REFERENCE_UNIT_MS`] unless the host was disturbed without a pause).
#[derive(Debug, Clone)]
pub struct Interleaved {
    sensitivity: f64,
    /// Wall time of each unit of work, s.
    work_s: Vec<f64>,
    /// Wall time of the reference unit after each, ms.
    reference_ms: Vec<f64>,
}

/// The decile read from each series.
const QUIET_PERCENTILE: f64 = 10.0;

fn quiet(values: &[f64]) -> f64 {
    let mut ascending = values.to_vec();
    ascending.sort_by(|a, b| a.partial_cmp(b).expect("timings are never NaN"));
    stats::percentile(&ascending, QUIET_PERCENTILE)
}

/// One reference unit on this thread, timed, in ms.
pub fn reference_unit() -> f64 {
    let t = Instant::now();
    black_box(unit(black_box(UNIT_ITERATIONS)));
    t.elapsed().as_secs_f64() * 1e3
}

impl Interleaved {
    /// For units of the given sensitivity, [`COMPUTE`] or [`SYSTEM`].
    pub fn new(sensitivity: f64) -> Interleaved {
        Interleaved {
            sensitivity,
            work_s: Vec::new(),
            reference_ms: Vec::new(),
        }
    }

    /// Time `work` as one unit, then one reference unit.
    pub fn time<T>(&mut self, work: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let result = work();
        let work_s = t.elapsed().as_secs_f64();
        self.push(work_s, reference_unit());
        result
    }

    /// Record a unit measured elsewhere, with the reference unit that followed it.
    pub fn push(&mut self, work_s: f64, reference_ms: f64) {
        self.work_s.push(work_s);
        self.reference_ms.push(reference_ms);
    }

    /// The units of work as measured, s.
    pub fn work_s(&self) -> &[f64] {
        &self.work_s
    }

    /// One unit of work as it would read on the idle sizing host, s.
    pub fn quiet_s(&self) -> f64 {
        quiet(&self.work_s) / slowdown_of(self.sensitivity, quiet(&self.reference_ms))
    }

    /// Median reference unit over [`REFERENCE_UNIT_MS`]: how disturbed the host was.
    pub fn slowdown(&self) -> f64 {
        stats::median(&self.reference_ms) / REFERENCE_UNIT_MS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_repetition_is_scaled_by_the_reference_around_it() {
        let mut paced = Paced::new(COMPUTE);
        // Idle: the reference reads its nominal value, the time stands.
        paced.push(0.100, REFERENCE_UNIT_MS, REFERENCE_UNIT_MS);
        // Disturbed: everything, the reference included, takes 1.6× as long.
        paced.push(0.160, 1.6 * REFERENCE_UNIT_MS, 1.6 * REFERENCE_UNIT_MS);
        // Disturbed half of the time.
        paced.push(0.130, REFERENCE_UNIT_MS, 1.6 * REFERENCE_UNIT_MS);
        for s in paced.normalised_s() {
            assert!((s - 0.100).abs() < 1e-12, "{s}");
        }
        assert_eq!(paced.len(), 3);
        assert!((paced.raw_median_s() - 0.130).abs() < 1e-12);
        assert!((paced.slowdown() - (1.0 + 1.6 + 1.3) / 3.0).abs() < 1e-12);

        // A section bound by system calls slows half as much as the reference does.
        let mut capture = Paced::new(SYSTEM);
        capture.push(1.3, 1.6 * REFERENCE_UNIT_MS, 1.6 * REFERENCE_UNIT_MS);
        assert!((capture.normalised_s()[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn interleaved_units_read_their_quiet_decile() {
        // Twenty units of a 4 ms piece of work; four of every five disturbed (x1.6), and
        // the reference units beside them likewise.
        let mut busy = Interleaved::new(COMPUTE);
        for i in 0..20 {
            let factor = if i % 5 == 0 { 1.0 } else { 1.6 };
            busy.push(0.004 * factor, REFERENCE_UNIT_MS * factor);
        }
        assert!((busy.quiet_s() - 0.004).abs() < 1e-12);
        assert!((busy.slowdown() - 1.6).abs() < 1e-12);
        // Disturbed without a pause: the reference's decile carries the correction.
        let mut pegged = Interleaved::new(COMPUTE);
        for _ in 0..20 {
            pegged.push(0.004 * 1.6, REFERENCE_UNIT_MS * 1.6);
        }
        assert!((pegged.quiet_s() - 0.004).abs() < 1e-12);
        assert_eq!(pegged.work_s().len(), 20);
    }

    #[test]
    fn probes_measure_a_positive_duration_on_every_thread() {
        assert!(probe() > 0.0);
        assert!(probe_on(2) > 0.0);
        let mut paced = Paced::new(COMPUTE);
        assert_eq!(paced.time(1, || 7), 7);
        assert_eq!(paced.len(), 1);
        assert!(paced.normalised_s().iter().all(|&s| s >= 0.0));
        let mut units = Interleaved::new(COMPUTE);
        assert_eq!(units.time(|| 10), 10);
        assert!(units.quiet_s() >= 0.0 && units.slowdown() > 0.0);
    }
}
