//! A minimal HTTP/1.1 client for `sweepctl`, the test walls, and the repository's
//! benchmark (`benchmark/README.md`).
//!
//! Keep-alive by default ([`Client`] reuses one connection across requests — what the
//! benchmark's closed-loop clients hold open); [`raw_roundtrip`] sends arbitrary
//! bytes for the protocol-robustness tests, including torn requests via half-close.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A parsed HTTP response.
#[derive(Debug, Clone)]
pub struct HttpResponse {
    /// Status code from the response line.
    pub status: u16,
    /// Header `(name, value)` pairs, names lower-cased.
    pub headers: Vec<(String, String)>,
    /// Response body (assumed UTF-8; the server only emits JSON).
    pub body: String,
}

impl HttpResponse {
    /// First value of header `name` (lower-case), if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }
}

fn read_line(reader: &mut impl BufRead) -> io::Result<String> {
    let mut line = String::new();
    if reader.read_line(&mut line)? == 0 {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed mid-response",
        ));
    }
    Ok(line.trim_end_matches(['\r', '\n']).to_string())
}

/// Parse one response off `reader` (status line, headers, `Content-Length` body).
pub fn read_response(reader: &mut impl BufRead) -> io::Result<HttpResponse> {
    let status_line = read_line(reader)?;
    let status = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("malformed status line {status_line:?}"),
            )
        })?;
    let mut headers = Vec::new();
    let mut content_length = 0usize;
    loop {
        let line = read_line(reader)?;
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            let name = name.trim().to_ascii_lowercase();
            let value = value.trim().to_string();
            if name == "content-length" {
                content_length = value.parse().map_err(|_| {
                    io::Error::new(io::ErrorKind::InvalidData, "bad Content-Length")
                })?;
            }
            headers.push((name, value));
        }
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    let body = String::from_utf8(body)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "non-UTF-8 body"))?;
    Ok(HttpResponse {
        status,
        headers,
        body,
    })
}

/// A keep-alive connection to the daemon.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    client_id: Option<String>,
}

impl Client {
    /// Connect to `addr`. `client_id`, when set, is sent as `X-Client` on every
    /// request (the fairness-scheduling identity).
    pub fn connect(addr: SocketAddr, client_id: Option<&str>) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(700)))?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client {
            reader,
            writer: stream,
            client_id: client_id.map(str::to_string),
        })
    }

    fn id_header(&self) -> String {
        match &self.client_id {
            Some(id) => format!("X-Client: {id}\r\n"),
            None => String::new(),
        }
    }

    /// `GET path` on the persistent connection.
    pub fn get(&mut self, path: &str) -> io::Result<HttpResponse> {
        let req = format!(
            "GET {path} HTTP/1.1\r\nHost: sweepd\r\n{}\r\n",
            self.id_header()
        );
        self.writer.write_all(req.as_bytes())?;
        self.writer.flush()?;
        read_response(&mut self.reader)
    }

    /// `POST path` with a JSON body on the persistent connection.
    pub fn post(&mut self, path: &str, body: &str) -> io::Result<HttpResponse> {
        let req = format!(
            "POST {path} HTTP/1.1\r\nHost: sweepd\r\nContent-Length: {}\r\n{}\r\n{body}",
            body.len(),
            self.id_header()
        );
        self.writer.write_all(req.as_bytes())?;
        self.writer.flush()?;
        read_response(&mut self.reader)
    }

    /// `POST path`, absorbing `429 Too Many Requests` backpressure per `policy`.
    /// Returns the final response (the last 429 if retries ran out) plus how many
    /// 429s were absorbed. I/O errors are not retried — on this keep-alive client a
    /// broken connection needs a reconnect, not a resend.
    pub fn post_with_retry(
        &mut self,
        path: &str,
        body: &str,
        policy: &BackoffPolicy,
    ) -> io::Result<(HttpResponse, u64)> {
        // Jitter stream seeded per client identity so synchronized clients spread.
        let mut jitter = policy.jitter_seed;
        if let Some(id) = &self.client_id {
            for b in id.bytes() {
                jitter = (jitter ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        let mut retries = 0u64;
        loop {
            let resp = self.post(path, body)?;
            if resp.status != 429 || retries >= policy.max_retries as u64 {
                return Ok((resp, retries));
            }
            let hint = resp
                .header("retry-after")
                .and_then(|v| v.trim().parse::<u64>().ok());
            std::thread::sleep(policy.wait(retries as u32, hint, &mut jitter));
            retries += 1;
        }
    }

    /// [`Client::post_with_retry`] against `/eval` — the common cell-evaluation
    /// request shape `sweepctl` sends.
    pub fn eval_with_retry(
        &mut self,
        body: &str,
        policy: &BackoffPolicy,
    ) -> io::Result<(HttpResponse, u64)> {
        self.post_with_retry("/eval", body, policy)
    }
}

/// Capped exponential backoff with deterministic jitter for 429 responses,
/// honoring the server's `Retry-After` hint.
#[derive(Debug, Clone)]
pub struct BackoffPolicy {
    /// Maximum 429 retries before the last response is returned as-is.
    pub max_retries: u32,
    /// Backoff before the first retry; doubles on each subsequent retry.
    pub base: Duration,
    /// Upper bound on any single wait (also caps the `Retry-After` hint).
    pub cap: Duration,
    /// Seed of the deterministic jitter stream.
    pub jitter_seed: u64,
}

impl Default for BackoffPolicy {
    fn default() -> Self {
        BackoffPolicy {
            max_retries: 8,
            base: Duration::from_millis(200),
            cap: Duration::from_secs(5),
            jitter_seed: 0x5eed_cafe,
        }
    }
}

impl BackoffPolicy {
    /// The wait before retry `attempt` (0-based): exponential from `base`, raised
    /// to the server's `Retry-After` hint when larger, capped at `cap`, then
    /// jittered into the upper half `[w/2, w]` so synchronized clients spread out.
    pub fn wait(
        &self,
        attempt: u32,
        retry_after_secs: Option<u64>,
        jitter_state: &mut u64,
    ) -> Duration {
        let exp = self.base.saturating_mul(1u32 << attempt.min(16));
        let hinted = retry_after_secs
            .map(Duration::from_secs)
            .unwrap_or(Duration::ZERO);
        let capped = exp.max(hinted).min(self.cap);
        // xorshift64: cheap, deterministic, never zero.
        let mut x = *jitter_state | 1;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *jitter_state = x;
        let half_ns = (capped.as_nanos() / 2) as u64;
        let jitter_ns = if half_ns == 0 { 0 } else { x % (half_ns + 1) };
        Duration::from_nanos(half_ns + jitter_ns)
    }
}

/// One-shot `GET` on a fresh connection.
pub fn get(addr: SocketAddr, path: &str) -> io::Result<HttpResponse> {
    Client::connect(addr, None)?.get(path)
}

/// One-shot `POST` on a fresh connection.
pub fn post(
    addr: SocketAddr,
    path: &str,
    body: &str,
    client_id: Option<&str>,
) -> io::Result<HttpResponse> {
    Client::connect(addr, client_id)?.post(path, body)
}

/// Send `bytes` verbatim on a fresh connection and read one response — the protocol
/// test wall's probe. With `half_close`, the write side is shut down after sending
/// (so a body shorter than its `Content-Length` presents as a torn request rather
/// than stalling until the server's read timeout).
pub fn raw_roundtrip(addr: SocketAddr, bytes: &[u8], half_close: bool) -> io::Result<HttpResponse> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_secs(60)))?;
    stream.write_all(bytes)?;
    stream.flush()?;
    if half_close {
        stream.shutdown(std::net::Shutdown::Write)?;
    }
    read_response(&mut BufReader::new(stream))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_exponentially_honors_hints_and_caps() {
        let p = BackoffPolicy::default();
        let mut j = 1u64;
        let w0 = p.wait(0, None, &mut j);
        assert!(
            w0 >= p.base / 2 && w0 <= p.base,
            "attempt 0 jitters within [base/2, base]: {w0:?}"
        );
        let w1 = p.wait(1, None, &mut j);
        assert!(
            w1 >= p.base && w1 <= p.base * 2,
            "attempt 1 doubles: {w1:?}"
        );
        let hinted = p.wait(0, Some(3), &mut j);
        assert!(
            hinted >= Duration::from_millis(1500) && hinted <= Duration::from_secs(3),
            "a larger Retry-After hint raises the wait: {hinted:?}"
        );
        let capped = p.wait(30, Some(9999), &mut j);
        assert!(
            capped <= p.cap && capped >= p.cap / 2,
            "the cap bounds every wait: {capped:?}"
        );
    }

    #[test]
    fn jitter_stream_is_deterministic() {
        let p = BackoffPolicy::default();
        let run = || {
            let mut j = p.jitter_seed;
            (0..6).map(|a| p.wait(a, None, &mut j)).collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }
}
