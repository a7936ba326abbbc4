//! Canonical JSON serialization for the serving layer.
//!
//! The workspace has no serialization framework, so the wire format is hand-rolled,
//! like `sim-obs`'s exporters and the corpus manifest. Two properties matter here
//! beyond well-formedness:
//!
//! * **Byte determinism.** [`evaluation_json`] is the *only* serializer for a served
//!   result cell, and every float goes through [`fmt_f64`] (Rust's shortest-roundtrip
//!   `Display`), so two bit-identical [`MixEvaluation`]s always serialize to the same
//!   bytes. The determinism and memoization test walls compare served bodies with `==`
//!   on the raw bytes.
//! * **Strict escaping.** Benchmark names and corpus labels are caller-controlled; they
//!   are escaped per RFC 8259 ([`sim_obs::json_escape`], the workspace's one escaper) so
//!   no input can break out of a string literal.
//!
//! Parsing of request bodies reuses [`sim_obs::JsonValue`], the same strict
//! recursive-descent parser that validates exported Chrome traces.

use experiments::runner::MixEvaluation;
use sim_obs::json_escape;

/// A quoted, escaped JSON string literal.
pub fn json_str(s: &str) -> String {
    format!("\"{}\"", json_escape(s))
}

/// Canonical float formatting: Rust's shortest round-trip representation, `null` for
/// non-finite values (JSON has no NaN/Inf). Deterministic per bit pattern, so
/// bit-identical simulations serialize to byte-identical JSON.
pub fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        let s = format!("{v}");
        // `Display` prints integral floats without a dot ("2" for 2.0); keep the type
        // visible so parsers that distinguish integers round-trip the value as a float.
        if s.contains('.') || s.contains('e') || s.contains('E') {
            s
        } else {
            format!("{s}.0")
        }
    } else {
        "null".to_string()
    }
}

/// Serialize one evaluated (mix, policy) cell — the canonical result body served by
/// `/eval` and `/sweep`, the value memoized by the memo store, and the payload
/// persisted into `sweep.progress` files.
///
/// The byte layout is part of the serving contract (`docs/serving.md`): results are
/// compared with raw `==` by the determinism tests and the benchmark, so any change
/// here invalidates persisted progress files (bump
/// [`crate::memo::PROGRESS_VERSION`] when changing it).
pub fn evaluation_json(e: &MixEvaluation) -> String {
    let mut out = String::with_capacity(256 + e.per_app.len() * 160);
    out.push_str(&format!(
        "{{\"mix_id\":{},\"policy\":{},\"per_app\":[",
        e.mix_id,
        json_str(&e.policy_label)
    ));
    for (i, app) in e.per_app.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"name\":{},\"core_id\":{},\"ipc\":{},\"ipc_alone\":{},\"l2_mpki\":{},\
             \"llc_mpki\":{},\"is_thrashing\":{}}}",
            json_str(&app.name),
            app.core_id,
            fmt_f64(app.ipc),
            fmt_f64(app.ipc_alone),
            fmt_f64(app.l2_mpki),
            fmt_f64(app.llc_mpki),
            app.is_thrashing
        ));
    }
    out.push_str(&format!(
        "],\"metrics\":{{\"weighted_speedup\":{},\"harmonic_mean_normalized\":{},\
         \"fairness\":{}}},\"final_cycle\":{}}}",
        fmt_f64(e.metrics.weighted_speedup),
        fmt_f64(e.metrics.harmonic_mean_normalized),
        fmt_f64(e.metrics.fairness),
        e.final_cycle
    ));
    out
}

/// A `{"error": "..."}` body for non-2xx responses.
pub fn error_body(message: &str) -> String {
    format!("{{\"error\":{}}}", json_str(message))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escaping_covers_quotes_backslashes_and_controls() {
        assert_eq!(json_escape("plain"), "plain");
        assert_eq!(json_escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(json_escape("x\n\t\r"), "x\\n\\t\\r");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
        assert_eq!(json_str("q\"q"), "\"q\\\"q\"");
    }

    #[test]
    fn float_formatting_is_canonical_and_json_safe() {
        assert_eq!(fmt_f64(1.5), "1.5");
        assert_eq!(fmt_f64(2.0), "2.0");
        assert_eq!(fmt_f64(0.1), "0.1");
        assert_eq!(fmt_f64(f64::NAN), "null");
        assert_eq!(fmt_f64(f64::INFINITY), "null");
        // Round-trips through the strict parser.
        let v = sim_obs::JsonValue::parse(&fmt_f64(0.30000000000000004)).unwrap();
        assert_eq!(v.as_number(), Some(0.30000000000000004));
    }

    #[test]
    fn error_body_is_strict_json() {
        let body = error_body("bad \"thing\"\n");
        let v = sim_obs::JsonValue::parse(&body).unwrap();
        assert_eq!(
            v.get("error").and_then(|e| e.as_str()),
            Some("bad \"thing\"\n")
        );
    }
}
