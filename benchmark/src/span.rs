//! Spans recorded by the benchmark around its calls into each product layer.
//!
//! Spans are kept in memory and written once, at exit, in Chrome trace-event form
//! (`chrome://tracing`, Perfetto). Sites that fire millions of times per cell
//! (`next_access`, policy callbacks) do not record a span per call: the wrappers in
//! [`crate::wrap`] accumulate a count and busy time, and one aggregated child span per
//! (cell, layer) is added afterwards with [`Tracer::add_busy`].

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// Index of a recorded span.
pub type SpanId = usize;

#[derive(Debug, Clone)]
struct Span {
    name: String,
    /// The product crate the time belongs to (`cache_sim`, `trace_io`, ...).
    layer: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<SpanId>,
    /// Shared by every span of one cell or request (the Chrome `tid`).
    group: u64,
}

/// In-memory span store for one traced run.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the tracer was created.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Nanoseconds between the tracer's creation and `at`.
    pub fn ns_at(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Open a span now; close it with [`Tracer::end`].
    pub fn begin(
        &mut self,
        name: &str,
        layer: &'static str,
        parent: Option<SpanId>,
        group: u64,
    ) -> SpanId {
        let now = self.now_ns();
        self.add(name, layer, now, now, parent, group)
    }

    /// Close a span opened by [`Tracer::begin`] now.
    pub fn end(&mut self, id: SpanId) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Record a span with explicit bounds (used for spans timed on another thread).
    pub fn add(
        &mut self,
        name: &str,
        layer: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<SpanId>,
        group: u64,
    ) -> SpanId {
        self.spans.push(Span {
            name: name.to_string(),
            layer,
            start_ns,
            end_ns: end_ns.max(start_ns),
            parent,
            group,
        });
        self.spans.len() - 1
    }

    /// Record the aggregated busy time of a per-call site as one child of `parent`.
    /// The calls were interleaved with the parent's own work, so the child is laid out
    /// from `offset_ns` after the parent's start — after any sibling added before it —
    /// and clipped to the parent; only its duration is meaningful.
    pub fn add_busy(
        &mut self,
        name: &str,
        layer: &'static str,
        parent: SpanId,
        offset_ns: u64,
        busy_ns: u64,
    ) -> SpanId {
        let p = &self.spans[parent];
        let (p_start, p_end, group) = (p.start_ns, p.end_ns, p.group);
        let start = (p_start + offset_ns).min(p_end);
        let end = (start + busy_ns).min(p_end);
        self.add(name, layer, start, end, Some(parent), group)
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    pub fn duration_ns(&self, id: SpanId) -> u64 {
        self.spans[id].end_ns - self.spans[id].start_ns
    }

    /// A span's duration minus the part of its interval that its direct children cover
    /// (children may overlap each other and may stick out of the parent).
    pub fn self_ns(&self, id: SpanId) -> u64 {
        let span = &self.spans[id];
        let mut covered: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|c| c.parent == Some(id))
            .map(|c| {
                (
                    c.start_ns.clamp(span.start_ns, span.end_ns),
                    c.end_ns.clamp(span.start_ns, span.end_ns),
                )
            })
            .filter(|(s, e)| e > s)
            .collect();
        covered.sort_unstable();
        let mut total = 0u64;
        let mut cursor = span.start_ns;
        for (s, e) in covered {
            let s = s.max(cursor);
            if e > s {
                total += e - s;
                cursor = e;
            }
        }
        self.duration_ns(id) - total
    }

    /// Self time summed per layer over `root` and all its descendants, largest first.
    pub fn self_by_layer(&self, root: SpanId) -> Vec<(&'static str, u64)> {
        let mut out: Vec<(&'static str, u64)> = Vec::new();
        let mut stack = vec![root];
        while let Some(id) = stack.pop() {
            let layer = self.spans[id].layer;
            let ns = self.self_ns(id);
            match out.iter_mut().find(|(l, _)| *l == layer) {
                Some(entry) => entry.1 += ns,
                None => out.push((layer, ns)),
            }
            stack.extend(
                self.spans
                    .iter()
                    .enumerate()
                    .filter(|(_, c)| c.parent == Some(id))
                    .map(|(i, _)| i),
            );
        }
        out.sort_by_key(|&(_, ns)| std::cmp::Reverse(ns));
        out
    }

    /// Write every span as a Chrome trace-event JSON document.
    pub fn write_chrome(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::with_capacity(64 + self.spans.len() * 160);
        out.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
        for (id, s) in self.spans.iter().enumerate() {
            if id > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            write!(
                out,
                "\n{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{id},\"parent\":{parent},\
                 \"self_ns\":{}}}}}",
                crate::report::json_escape(&s.name),
                s.layer,
                s.group,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                self.self_ns(id),
            )
            .expect("writing to a String cannot fail");
        }
        out.push_str("\n]}\n");
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_nested_and_overlapping_children_once() {
        let mut t = Tracer::new();
        let root = t.add("cell", "experiments", 0, 1_000, None, 1);
        // Two overlapping children cover [100, 500); a third sticks out past the end
        // and only its [900, 1000) part counts; a grandchild must not count twice.
        let a = t.add("a", "cache_sim", 100, 400, Some(root), 1);
        t.add("b", "trace_io", 300, 500, Some(root), 1);
        t.add("c", "llc_policies", 900, 1_200, Some(root), 1);
        t.add("a.inner", "workloads", 150, 250, Some(a), 1);
        assert_eq!(t.self_ns(root), 1_000 - 400 - 100);
        assert_eq!(t.self_ns(a), 300 - 100);
        // A child identical to its parent leaves no self time.
        let whole = t.add("whole", "cache_sim", 0, 1_000, Some(root), 1);
        assert_eq!(t.self_ns(root), 0);
        assert_eq!(t.self_ns(whole), 1_000);
    }

    #[test]
    fn layer_self_times_add_up_to_the_root_when_children_are_disjoint() {
        let mut t = Tracer::new();
        let root = t.add("cell", "experiments", 0, 1_000, None, 7);
        let run = t.add("run", "cache_sim", 100, 900, Some(root), 7);
        t.add_busy("sources", "workloads", run, 0, 200);
        t.add_busy("policy", "llc_policies", run, 200, 100);
        let by_layer = t.self_by_layer(root);
        let total: u64 = by_layer.iter().map(|(_, ns)| ns).sum();
        assert_eq!(total, 1_000);
        assert_eq!(by_layer[0], ("cache_sim", 500));
        assert!(by_layer.contains(&("experiments", 200)));
        assert!(by_layer.contains(&("workloads", 200)));
        assert!(by_layer.contains(&("llc_policies", 100)));
    }

    #[test]
    fn busy_children_are_clipped_to_their_parent() {
        let mut t = Tracer::new();
        let root = t.add("run", "cache_sim", 1_000, 2_000, None, 1);
        let busy = t.add_busy("sources", "workloads", root, 800, 500);
        assert_eq!(t.duration_ns(busy), 200);
        assert_eq!(t.self_ns(root), 800);
    }
}
