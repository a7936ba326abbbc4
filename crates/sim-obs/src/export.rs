//! Exporters draining the flight recorder into files: Chrome trace-event JSON
//! (Perfetto-loadable), a CSV interval time-series, and a human-readable summary.
//! All serialization is hand-rolled.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;
use std::path::Path;

use crate::{drain, Drained, Event, EventKind, Level};

/// Escape `text` for embedding inside a JSON string literal (quotes not included), per
/// RFC 8259: quote, backslash and every control character. Every hand-rolled JSON
/// writer in the workspace goes through this one escaper.
pub fn json_escape(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    for ch in text.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1_000.0
}

/// Render a drained snapshot as Chrome trace-event JSON (an array of events).
///
/// Spans become `"X"` complete events, counters `"C"`, samples one
/// multi-series `"C"` counter event per row, and log lines `"i"` markers carrying the
/// message. Each recording thread gets a `thread_name` metadata event. Open the
/// result in <https://ui.perfetto.dev> or `chrome://tracing`.
pub fn chrome_trace(drained: &Drained) -> String {
    let mut lines: Vec<String> = Vec::with_capacity(drained.total_events() + drained.threads.len());
    for thread in &drained.threads {
        if !thread.name.is_empty() {
            let name = json_escape(&thread.name);
            lines.push(format!(
                r#"{{"ph":"M","pid":0,"tid":{},"name":"thread_name","args":{{"name":"{name}"}}}}"#,
                thread.tid
            ));
        }
        for event in &thread.events {
            let tid = thread.tid;
            let ctx = json_escape(drained.context(event.ctx));
            let line = match event.kind {
                EventKind::Span => format!(
                    r#"{{"ph":"X","pid":0,"tid":{tid},"name":"{}","cat":"{}","ts":{:.3},"dur":{:.3},"args":{{"ctx":"{ctx}"}}}}"#,
                    event.name,
                    event.cat,
                    us(event.ts_ns),
                    us(event.dur_ns),
                ),
                EventKind::Counter => format!(
                    r#"{{"ph":"C","pid":0,"tid":{tid},"name":"{}","cat":"{}","ts":{:.3},"args":{{"value":{}}}}}"#,
                    event.name,
                    event.cat,
                    us(event.ts_ns),
                    fmt_num(event.value),
                ),
                EventKind::Sample => {
                    let mut args = String::new();
                    for (i, col) in event.cols.iter().take(event.n_vals as usize).enumerate() {
                        if i > 0 {
                            args.push(',');
                        }
                        let _ = write!(args, r#""{col}":{}"#, fmt_num(event.vals[i]));
                    }
                    format!(
                        r#"{{"ph":"C","pid":0,"tid":{tid},"name":"{}","cat":"{}","ts":{:.3},"args":{{{args}}}}}"#,
                        event.name,
                        event.cat,
                        us(event.ts_ns),
                    )
                }
                EventKind::Log => format!(
                    r#"{{"ph":"i","pid":0,"tid":{tid},"name":"{}","cat":"log","ts":{:.3},"s":"t","args":{{"level":"{}","message":"{ctx}"}}}}"#,
                    event.name,
                    us(event.ts_ns),
                    Level::from_index(event.value as u8).label(),
                ),
            };
            lines.push(line);
        }
    }
    let mut out = String::with_capacity(4096 + lines.iter().map(|l| l.len() + 4).sum::<usize>());
    out.push_str("[\n  ");
    out.push_str(&lines.join(",\n  "));
    out.push_str("\n]\n");
    out
}

fn fmt_num(value: f64) -> String {
    if value.fract() == 0.0 && value.abs() < 1e15 {
        format!("{}", value as i64)
    } else {
        // Shortest round-trip representation; keeps CSV/JSON output compact.
        format!("{value}")
    }
}

/// Render every [`EventKind::Sample`] row as one CSV table.
///
/// Different series carry different fields, so the header is the union of all column
/// names (sorted), prefixed by `context,series,tid,ts_us`; cells a series does not
/// define are left empty. Rows are ordered by timestamp.
pub fn intervals_csv(drained: &Drained) -> String {
    let mut columns: Vec<&'static str> = Vec::new();
    let mut rows: Vec<(u64, u32, &Event)> = Vec::new();
    for thread in &drained.threads {
        for event in &thread.events {
            if event.kind == EventKind::Sample {
                for col in event.cols.iter().take(event.n_vals as usize) {
                    if !columns.contains(col) {
                        columns.push(col);
                    }
                }
                rows.push((event.ts_ns, thread.tid, event));
            }
        }
    }
    columns.sort_unstable();
    rows.sort_by_key(|(ts, tid, _)| (*ts, *tid));
    let mut out = String::new();
    out.push_str("context,series,tid,ts_us");
    for col in &columns {
        let _ = write!(out, ",{col}");
    }
    out.push('\n');
    for (ts, tid, event) in rows {
        let ctx = drained.context(event.ctx);
        let _ = write!(out, "{ctx},{},{tid},{:.3}", event.name, us(ts));
        for col in &columns {
            out.push(',');
            if let Some(i) = event
                .cols
                .iter()
                .take(event.n_vals as usize)
                .position(|c| c == col)
            {
                let _ = write!(out, "{}", fmt_num(event.vals[i]));
            }
        }
        out.push('\n');
    }
    out
}

/// Aggregate statistics for one span name, used by the summary exporter.
#[derive(Clone, Debug, Default)]
pub struct SpanStat {
    /// Number of completed spans.
    pub count: u64,
    /// Summed duration in nanoseconds.
    pub total_ns: u64,
    /// Longest single span in nanoseconds.
    pub max_ns: u64,
}

fn span_stats(drained: &Drained) -> BTreeMap<(&'static str, &'static str), SpanStat> {
    let mut stats: BTreeMap<(&'static str, &'static str), SpanStat> = BTreeMap::new();
    for thread in &drained.threads {
        for event in &thread.events {
            if event.kind == EventKind::Span {
                let entry = stats.entry((event.cat, event.name)).or_default();
                entry.count += 1;
                entry.total_ns += event.dur_ns;
                entry.max_ns = entry.max_ns.max(event.dur_ns);
            }
        }
    }
    stats
}

/// Render the human-readable end-of-run summary: span aggregates, counter totals,
/// sample-series row counts, log volume and per-thread ring health.
pub fn summary_text(drained: &Drained) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "sim-obs profile summary");
    let _ = writeln!(out, "=======================");
    let _ = writeln!(
        out,
        "threads: {}   events: {}   dropped: {}",
        drained.threads.len(),
        drained.total_events(),
        drained.total_dropped()
    );

    let spans = span_stats(drained);
    if !spans.is_empty() {
        let _ = writeln!(out, "\nspans (cat/name: count, total ms, mean ms, max ms)");
        for ((cat, name), stat) in &spans {
            let total_ms = stat.total_ns as f64 / 1e6;
            let mean_ms = total_ms / stat.count as f64;
            let label = format!("{cat}/{name}");
            let _ = writeln!(
                out,
                "  {label:<30} {:>6}  {:>10.3}  {:>9.3}  {:>9.3}",
                stat.count,
                total_ms,
                mean_ms,
                stat.max_ns as f64 / 1e6
            );
        }
    }

    let mut counters: BTreeMap<(&'static str, &'static str), (u64, f64)> = BTreeMap::new();
    let mut series: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut logs: BTreeMap<&'static str, u64> = BTreeMap::new();
    for thread in &drained.threads {
        for event in &thread.events {
            match event.kind {
                EventKind::Counter => {
                    let entry = counters.entry((event.cat, event.name)).or_insert((0, 0.0));
                    entry.0 += 1;
                    entry.1 += event.value;
                }
                EventKind::Sample => *series.entry(event.name).or_insert(0) += 1,
                EventKind::Log => *logs.entry(event.name).or_insert(0) += 1,
                _ => {}
            }
        }
    }
    if !counters.is_empty() {
        let _ = writeln!(out, "\ncounters (cat/name: records, sum)");
        for ((cat, name), (count, sum)) in &counters {
            let label = format!("{cat}/{name}");
            let _ = writeln!(out, "  {label:<30} {count:>6}  {}", fmt_num(*sum));
        }
    }
    if !series.is_empty() {
        let _ = writeln!(out, "\nsample series (name: rows)");
        for (name, rows) in &series {
            let _ = writeln!(out, "  {name:<28} {rows:>6}");
        }
    }
    if !logs.is_empty() {
        let _ = writeln!(out, "\nlog events (target: lines)");
        for (target, lines) in &logs {
            let _ = writeln!(out, "  {target:<28} {lines:>6}");
        }
    }

    let _ = writeln!(out, "\nthreads (tid, name, events, dropped)");
    for thread in &drained.threads {
        let name = if thread.name.is_empty() {
            "(unnamed)"
        } else {
            &thread.name
        };
        let _ = writeln!(
            out,
            "  {:>3}  {name:<24} {:>7}  {:>6}",
            thread.tid,
            thread.events.len(),
            thread.dropped
        );
    }
    out
}

/// What [`export_profile`] wrote.
#[derive(Clone, Debug)]
pub struct ProfileReport {
    /// Events exported (across all threads).
    pub events: usize,
    /// Events lost to ring overwrite.
    pub dropped: u64,
    /// Events in the validated `trace.json` (includes thread metadata records).
    pub trace_events: usize,
    /// Rows written to `intervals.csv` (excluding the header).
    pub csv_rows: usize,
}

/// Drain the flight recorder and write `trace.json`, `intervals.csv` and
/// `summary.txt` into `dir` (created if missing). The Chrome trace is re-parsed
/// through [`crate::validate_chrome_trace`] before being reported as written, so a
/// profile directory never contains a trace Perfetto would reject.
pub fn export_profile(dir: &Path) -> io::Result<ProfileReport> {
    let drained = drain();
    std::fs::create_dir_all(dir)?;
    let trace = chrome_trace(&drained);
    let trace_events = crate::validate_chrome_trace(&trace)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("chrome trace: {e}")))?;
    std::fs::write(dir.join("trace.json"), &trace)?;
    let csv = intervals_csv(&drained);
    let csv_rows = csv.lines().count().saturating_sub(1);
    std::fs::write(dir.join("intervals.csv"), &csv)?;
    std::fs::write(dir.join("summary.txt"), summary_text(&drained))?;
    Ok(ProfileReport {
        events: drained.total_events(),
        dropped: drained.total_dropped(),
        trace_events,
        csv_rows,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{NO_CONTEXT, SAMPLE_WIDTH};

    fn event(kind: EventKind, name: &'static str) -> Event {
        Event {
            kind,
            name,
            cat: "test",
            ctx: NO_CONTEXT,
            ts_ns: 1_500,
            dur_ns: 2_000,
            value: 3.0,
            cols: &[],
            vals: [0.0; SAMPLE_WIDTH],
            n_vals: 0,
        }
    }

    fn drained_with(events: Vec<Event>) -> Drained {
        Drained {
            threads: vec![crate::ThreadEvents {
                tid: 1,
                name: "main".to_string(),
                dropped: 0,
                events,
            }],
            contexts: vec!["mix0/LRU".to_string()],
        }
    }

    #[test]
    fn chrome_trace_validates_and_round_trips_fields() {
        let mut span = event(EventKind::Span, "simulate");
        span.ctx = 0;
        let mut samp = event(EventKind::Sample, "interval.core");
        samp.cols = &["interval", "ipc"];
        samp.vals[0] = 2.0;
        samp.vals[1] = 0.75;
        samp.n_vals = 2;
        let drained = drained_with(vec![span, event(EventKind::Counter, "evals"), samp]);
        let json = chrome_trace(&drained);
        let count = crate::validate_chrome_trace(&json).expect("schema-valid");
        assert_eq!(count, 4, "3 events + 1 thread_name metadata record");
        let doc = crate::JsonValue::parse(&json).unwrap();
        let events = doc.as_array().unwrap();
        let span_ev = events
            .iter()
            .find(|e| e.get("ph").and_then(crate::JsonValue::as_str) == Some("X"))
            .unwrap();
        assert_eq!(span_ev.get("dur").unwrap().as_number().unwrap(), 2.0);
        assert_eq!(
            span_ev
                .get("args")
                .unwrap()
                .get("ctx")
                .unwrap()
                .as_str()
                .unwrap(),
            "mix0/LRU"
        );
    }

    #[test]
    fn csv_unions_columns_across_series() {
        let mut a = event(EventKind::Sample, "interval.core");
        a.cols = &["interval", "ipc"];
        a.vals[0] = 1.0;
        a.vals[1] = 0.5;
        a.n_vals = 2;
        let mut b = event(EventKind::Sample, "interval.bank");
        b.cols = &["bank", "interval"];
        b.vals[0] = 3.0;
        b.vals[1] = 1.0;
        b.n_vals = 2;
        b.ts_ns = 900;
        let csv = intervals_csv(&drained_with(vec![a, b]));
        let mut lines = csv.lines();
        assert_eq!(
            lines.next().unwrap(),
            "context,series,tid,ts_us,bank,interval,ipc"
        );
        // Rows sort by timestamp: the bank row (900ns) precedes the core row (1500ns).
        assert_eq!(lines.next().unwrap(), ",interval.bank,1,0.900,3,1,");
        assert_eq!(lines.next().unwrap(), ",interval.core,1,1.500,,1,0.5");
    }

    #[test]
    fn summary_lists_spans_and_threads() {
        let text = summary_text(&drained_with(vec![
            event(EventKind::Span, "simulate"),
            event(EventKind::Span, "simulate"),
            event(EventKind::Counter, "evals"),
        ]));
        assert!(text.contains("test/simulate"), "{text}");
        assert!(text.contains("threads: 1"), "{text}");
        assert!(text.contains("test/evals"), "{text}");
    }
}
