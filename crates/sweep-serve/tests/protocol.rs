//! Protocol-robustness wall: malformed, torn, and oversized requests must answer a
//! clean 4xx/5xx — never a panic, a hang, or a wedged worker — and the daemon must
//! keep serving afterwards. Table-driven over raw byte payloads sent straight to the
//! socket, bypassing any well-formed client.

mod common;

use sweep_serve::client::{self, raw_roundtrip};

struct Case {
    name: &'static str,
    payload: Vec<u8>,
    /// Shut the write side after sending, so truncated bodies present as torn
    /// requests instead of stalling until the server's read timeout.
    half_close: bool,
    expect_status: u16,
}

fn case(name: &'static str, payload: impl Into<Vec<u8>>, expect_status: u16) -> Case {
    Case {
        name,
        payload: payload.into(),
        half_close: false,
        expect_status,
    }
}

fn torn(name: &'static str, payload: impl Into<Vec<u8>>, expect_status: u16) -> Case {
    Case {
        half_close: true,
        ..case(name, payload, expect_status)
    }
}

fn post(path: &str, body: &str) -> Vec<u8> {
    format!(
        "POST {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

#[test]
fn hostile_payloads_get_clean_errors_and_never_wedge_the_daemon() {
    let dir = common::test_dir("protocol");
    common::materialize_corpus(&dir, "protocol corpus", 1);
    let handle = common::spawn_server(vec![("c".to_string(), dir)], 2);
    let addr = handle.addr();

    let huge_header = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(10_000));
    let mut many_headers = String::from("GET /healthz HTTP/1.1\r\n");
    for i in 0..80 {
        many_headers.push_str(&format!("X-Filler-{i}: v\r\n"));
    }
    many_headers.push_str("\r\n");

    let cases = vec![
        // HTTP-layer violations.
        case("garbage request line", &b"GARBAGE\r\n\r\n"[..], 400),
        case("empty target", &b"GET  HTTP/1.1\r\n\r\n"[..], 400),
        case("relative target", &b"GET stats HTTP/1.1\r\n\r\n"[..], 400),
        case(
            "unsupported version",
            &b"GET /healthz HTTP/9.9\r\n\r\n"[..],
            505,
        ),
        case(
            "forbidden method",
            &b"DELETE /eval HTTP/1.1\r\n\r\n"[..],
            405,
        ),
        case(
            "post without length",
            &b"POST /eval HTTP/1.1\r\n\r\n"[..],
            411,
        ),
        case(
            "unparsable content-length",
            &b"POST /eval HTTP/1.1\r\nContent-Length: zebra\r\n\r\n"[..],
            400,
        ),
        case(
            "oversized declared body",
            &b"POST /eval HTTP/1.1\r\nContent-Length: 99999999999\r\n\r\n"[..],
            413,
        ),
        torn(
            "torn body (shorter than declared)",
            &b"POST /eval HTTP/1.1\r\nContent-Length: 500\r\n\r\n{\"corpus\""[..],
            400,
        ),
        case(
            "header line without a colon",
            &b"GET /healthz HTTP/1.1\r\nnot-a-header\r\n\r\n"[..],
            400,
        ),
        case(
            "transfer-encoding",
            &b"POST /eval HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"[..],
            501,
        ),
        case("oversized header line", huge_header.into_bytes(), 431),
        case("too many headers", many_headers.into_bytes(), 431),
        case(
            "get with a body",
            &b"GET /healthz HTTP/1.1\r\nContent-Length: 3\r\n\r\nabc"[..],
            400,
        ),
        // Routing and body-validation errors.
        case("unknown endpoint", &b"GET /nope HTTP/1.1\r\n\r\n"[..], 404),
        case(
            "wrong method for /eval",
            &b"GET /eval HTTP/1.1\r\n\r\n"[..],
            405,
        ),
        case(
            "wrong method for /stats",
            &b"POST /stats HTTP/1.1\r\nContent-Length: 0\r\n\r\n"[..],
            405,
        ),
        case(
            "malformed json body",
            post("/eval", "{\"corpus\": unquoted}"),
            400,
        ),
        case(
            "non-utf8 body",
            {
                let mut p = b"POST /eval HTTP/1.1\r\nContent-Length: 4\r\n\r\n".to_vec();
                p.extend_from_slice(&[0xff, 0xfe, 0x80, 0x81]);
                p
            },
            400,
        ),
        case("missing fields", post("/eval", "{}"), 400),
        case(
            "unknown corpus",
            post(
                "/eval",
                "{\"corpus\":\"ghost\",\"policy\":\"LRU\",\"mix_id\":0}",
            ),
            404,
        ),
        case(
            "unknown policy",
            post(
                "/eval",
                "{\"corpus\":\"c\",\"policy\":\"MAGIC\",\"mix_id\":0}",
            ),
            400,
        ),
        case(
            "dueling-set count no cache could host",
            post(
                "/eval",
                "{\"corpus\":\"c\",\"policy\":\"TA-DRRIP(SD=18446744073709551615)\",\"mix_id\":0}",
            ),
            400,
        ),
        case(
            "fractional mix id",
            post(
                "/eval",
                "{\"corpus\":\"c\",\"policy\":\"LRU\",\"mix_id\":0.5}",
            ),
            400,
        ),
        case(
            "negative mix id",
            post(
                "/eval",
                "{\"corpus\":\"c\",\"policy\":\"LRU\",\"mix_id\":-1}",
            ),
            400,
        ),
        case(
            "unknown mix id",
            post(
                "/eval",
                "{\"corpus\":\"c\",\"policy\":\"LRU\",\"mix_id\":99}",
            ),
            404,
        ),
        case(
            "empty sweep grid",
            post("/sweep", "{\"corpus\":\"c\",\"policies\":[]}"),
            400,
        ),
        case(
            "sweep with bad policy array",
            post("/sweep", "{\"corpus\":\"c\",\"policies\":[7]}"),
            400,
        ),
        case(
            "sweep with unknown mix",
            post("/sweep", "{\"corpus\":\"c\",\"mix_ids\":[99]}"),
            404,
        ),
    ];

    for c in cases {
        let resp = raw_roundtrip(addr, &c.payload, c.half_close)
            .unwrap_or_else(|e| panic!("case {:?}: no response: {e}", c.name));
        assert_eq!(
            resp.status, c.expect_status,
            "case {:?}: expected {}, got {} (body {})",
            c.name, c.expect_status, resp.status, resp.body
        );
        // Every error body is strict JSON with an "error" field.
        let parsed = sim_obs::JsonValue::parse(&resp.body)
            .unwrap_or_else(|e| panic!("case {:?}: non-JSON error body: {e}", c.name));
        assert!(
            parsed.get("error").is_some(),
            "case {:?}: error body missing \"error\": {}",
            c.name,
            resp.body
        );
        // The daemon must still be fully alive after every hostile exchange.
        let health = client::get(addr, "/healthz")
            .unwrap_or_else(|e| panic!("case {:?} wedged the daemon: {e}", c.name));
        assert_eq!(health.status, 200, "case {:?} broke /healthz", c.name);
    }

    // The worker pool survived the gauntlet: a real evaluation still completes, and
    // the body names the policy that was asked for (the instance's own name would say
    // plain "TA-DRRIP" here).
    let resp = client::post(
        addr,
        "/eval",
        "{\"corpus\":\"c\",\"policy\":\"TA-DRRIP(SD=64)\",\"mix_id\":0}",
        Some("prober"),
    )
    .expect("post-gauntlet /eval");
    assert_eq!(resp.status, 200, "workers wedged: {}", resp.body);
    assert_eq!(resp.header("x-memo"), Some("miss"));
    let body = sim_obs::JsonValue::parse(&resp.body).expect("result body is JSON");
    assert_eq!(
        body.get("policy").and_then(|p| p.as_str()),
        Some("TA-DRRIP(SD=64)")
    );
    handle.stop();
}

/// `/eval` and `/sweep` answer cells through one path: the same bad cell is refused
/// with the same status and bytes on both, and a cell `/eval` computed is a memo hit
/// for `/sweep`, byte for byte.
#[test]
fn eval_and_sweep_refuse_alike_and_share_the_memo() {
    let dir = common::test_dir("protocol_one_path");
    common::materialize_corpus(&dir, "one-path corpus", 1);
    let handle = common::spawn_server(vec![("c".to_string(), dir)], 1);
    let addr = handle.addr();
    let eval = |corpus: &str, policy: &str, mix_id: usize| {
        let body =
            format!("{{\"corpus\":\"{corpus}\",\"policy\":\"{policy}\",\"mix_id\":{mix_id}}}");
        client::post(addr, "/eval", &body, None).expect("/eval roundtrip")
    };
    let sweep = |corpus: &str, policy: &str, mix_id: usize| {
        let body = format!(
            "{{\"corpus\":\"{corpus}\",\"policies\":[\"{policy}\"],\"mix_ids\":[{mix_id}]}}"
        );
        client::post(addr, "/sweep", &body, None).expect("/sweep roundtrip")
    };

    for (name, corpus, policy, mix_id, status) in [
        ("unknown corpus", "ghost", "LRU", 0, 404),
        ("unknown policy", "c", "MAGIC", 0, 400),
        ("absent mix id", "c", "LRU", 99, 404),
    ] {
        let (e, s) = (eval(corpus, policy, mix_id), sweep(corpus, policy, mix_id));
        assert_eq!(e.status, status, "{name}: /eval answered {}", e.body);
        assert_eq!(s.status, status, "{name}: /sweep answered {}", s.body);
        assert_eq!(e.body, s.body, "{name}: the error bodies differ");
    }

    let cold = eval("c", "LRU", 0);
    assert_eq!(cold.status, 200, "cold /eval: {}", cold.body);
    assert_eq!(cold.header("x-memo"), Some("miss"));
    let grid = sweep("c", "LRU", 0);
    assert_eq!(grid.status, 200, "one-cell /sweep: {}", grid.body);
    assert_eq!(grid.header("x-memo-hits"), Some("1"));
    assert_eq!(
        grid.body,
        format!(
            "{{\"corpus\":\"c\",\"cells\":1,\"results\":[{}]}}",
            cold.body
        )
    );
    handle.stop();
}

#[test]
fn keep_alive_connections_survive_many_requests_and_pipeline_cleanly() {
    let dir = common::test_dir("protocol_keepalive");
    common::materialize_corpus(&dir, "keepalive corpus", 1);
    let handle = common::spawn_server(vec![("c".to_string(), dir)], 1);
    let mut client = sweep_serve::Client::connect(handle.addr(), Some("ka")).unwrap();
    for _ in 0..50 {
        let resp = client.get("/healthz").expect("keep-alive GET");
        assert_eq!(resp.status, 200);
        assert_eq!(resp.header("connection"), Some("keep-alive"));
    }
    let stats = client.get("/stats").unwrap();
    assert_eq!(stats.status, 200);
    handle.stop();
}
