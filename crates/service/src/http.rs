//! A deliberately small HTTP/1.1 layer over `std::net::TcpStream`.
//!
//! The service speaks exactly the subset its endpoints need: request line +
//! headers + `Content-Length` body in, status + headers + body out, one
//! request per connection (`Connection: close`). No chunked encoding, no
//! keep-alive, no TLS — the daemon is designed to sit behind whatever the
//! datacenter fronts services with.

use serde::Serialize;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Maximum accepted header block, bytes.
const MAX_HEAD: usize = 16 * 1024;

/// A parsed request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Uppercase method ("GET", "POST", ...).
    pub method: String,
    /// Path without the query string ("/v1/plan").
    pub path: String,
    /// Decoded query parameters, in order of appearance.
    pub query: Vec<(String, String)>,
    /// Request body (empty unless `Content-Length` was sent).
    pub body: Vec<u8>,
}

impl Request {
    /// First value of query parameter `name`.
    pub fn query_param(&self, name: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Why a request could not be read.
#[derive(Debug)]
pub enum HttpError {
    /// Socket error or premature close.
    Io(std::io::Error),
    /// Malformed request (bad request line, oversized head, bad length).
    Malformed(String),
    /// Body larger than the configured cap.
    BodyTooLarge(usize),
}

impl From<std::io::Error> for HttpError {
    fn from(e: std::io::Error) -> Self {
        HttpError::Io(e)
    }
}

/// Reads one request from the stream. `max_body` caps the accepted
/// `Content-Length`.
pub fn read_request(stream: &mut TcpStream, max_body: usize) -> Result<Request, HttpError> {
    // Accumulate until the blank line ending the head.
    let mut head = Vec::with_capacity(512);
    let mut byte = [0u8; 1];
    let head_end = loop {
        let n = stream.read(&mut byte)?;
        if n == 0 {
            return Err(HttpError::Malformed("connection closed mid-head".into()));
        }
        head.push(byte[0]);
        if head.len() > MAX_HEAD {
            return Err(HttpError::Malformed("head exceeds 16 KiB".into()));
        }
        if head.ends_with(b"\r\n\r\n") {
            break head.len();
        }
    };
    let head_str = std::str::from_utf8(&head[..head_end])
        .map_err(|_| HttpError::Malformed("head is not UTF-8".into()))?;
    let mut lines = head_str.split("\r\n");
    let request_line = lines
        .next()
        .ok_or_else(|| HttpError::Malformed("empty head".into()))?;
    let mut parts = request_line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| HttpError::Malformed("missing method".into()))?
        .to_ascii_uppercase();
    let target = parts
        .next()
        .ok_or_else(|| HttpError::Malformed("missing request target".into()))?;
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), parse_query(q)),
        None => (target.to_string(), Vec::new()),
    };

    // The one header the service reads; the rest are only checked for shape.
    let mut content_length = 0usize;
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| HttpError::Malformed(format!("bad header line {line:?}")))?;
        if name.trim().eq_ignore_ascii_case("content-length") {
            content_length = value
                .trim()
                .parse()
                .map_err(|_| HttpError::Malformed("bad content-length".into()))?;
        }
    }
    if content_length > max_body {
        return Err(HttpError::BodyTooLarge(content_length));
    }
    let mut body = vec![0u8; content_length];
    stream.read_exact(&mut body)?;
    Ok(Request {
        method,
        path,
        query,
        body,
    })
}

/// Parses an `application/x-www-form-urlencoded`-style query string
/// (`a=1&b=two`). `%XX` escapes and `+` are decoded; malformed escapes pass
/// through literally.
fn parse_query(q: &str) -> Vec<(String, String)> {
    q.split('&')
        .filter(|pair| !pair.is_empty())
        .map(|pair| match pair.split_once('=') {
            Some((k, v)) => (decode_component(k), decode_component(v)),
            None => (decode_component(pair), String::new()),
        })
        .collect()
}

fn decode_component(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b'%' => match (hex_val(bytes.get(i + 1)), hex_val(bytes.get(i + 2))) {
                (Some(h), Some(l)) => {
                    out.push(h * 16 + l);
                    i += 3;
                }
                _ => {
                    out.push(b'%');
                    i += 1;
                }
            },
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

fn hex_val(b: Option<&u8>) -> Option<u8> {
    match b? {
        c @ b'0'..=b'9' => Some(c - b'0'),
        c @ b'a'..=b'f' => Some(c - b'a' + 10),
        c @ b'A'..=b'F' => Some(c - b'A' + 10),
        _ => None,
    }
}

/// An outgoing response.
#[derive(Debug, Clone)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Extra headers (Content-Type etc. are set by the constructors).
    pub headers: Vec<(String, String)>,
    /// Response body.
    pub body: Vec<u8>,
}

impl Response {
    /// A plain-text response.
    pub fn text(status: u16, body: impl Into<String>) -> Self {
        Self {
            status,
            headers: vec![("Content-Type".into(), "text/plain; charset=utf-8".into())],
            body: body.into().into_bytes(),
        }
    }

    /// A JSON response serializing `value` (pretty-printed, matching the
    /// CLI's output style).
    pub fn json<T: Serialize>(status: u16, value: &T) -> Self {
        let body = serde_json::to_string_pretty(value)
            .unwrap_or_else(|e| format!("{{\"error\":\"serialization failed: {e}\"}}"));
        Self::raw_json(status, body.into_bytes())
    }

    /// A JSON response whose body bytes are already rendered (used for the
    /// byte-exact plan documents).
    pub fn raw_json(status: u16, body: Vec<u8>) -> Self {
        Self {
            status,
            headers: vec![("Content-Type".into(), "application/json".into())],
            body,
        }
    }

    /// Adds a header.
    pub fn with_header(mut self, name: impl Into<String>, value: impl Into<String>) -> Self {
        self.headers.push((name.into(), value.into()));
        self
    }

    /// Writes the response and flushes. The connection is always marked
    /// `Connection: close`.
    pub fn write_to(&self, stream: &mut TcpStream) -> std::io::Result<()> {
        let mut head = format!(
            "HTTP/1.1 {} {}\r\nContent-Length: {}\r\nConnection: close\r\n",
            self.status,
            status_reason(self.status),
            self.body.len()
        );
        for (name, value) in &self.headers {
            head.push_str(name);
            head.push_str(": ");
            head.push_str(value);
            head.push_str("\r\n");
        }
        head.push_str("\r\n");
        stream.write_all(head.as_bytes())?;
        stream.write_all(&self.body)?;
        stream.flush()
    }
}

/// Writes the head of a chunked streaming response (the SSE path). Unlike
/// [`Response::write_to`] there is no `Content-Length`: the body arrives as
/// chunks via [`write_chunk`] until [`finish_chunked`] closes it.
pub fn write_chunked_head(
    stream: &mut TcpStream,
    status: u16,
    headers: &[(&str, &str)],
) -> std::io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {} {}\r\nTransfer-Encoding: chunked\r\nConnection: close\r\n",
        status,
        status_reason(status)
    );
    for (name, value) in headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes())
}

/// Writes one chunk and flushes, so subscribers see events as they happen.
/// Empty data is skipped: a zero-length chunk would terminate the stream.
pub fn write_chunk(stream: &mut TcpStream, data: &[u8]) -> std::io::Result<()> {
    if data.is_empty() {
        return Ok(());
    }
    stream.write_all(format!("{:x}\r\n", data.len()).as_bytes())?;
    stream.write_all(data)?;
    stream.write_all(b"\r\n")?;
    stream.flush()
}

/// Terminates a chunked response.
pub fn finish_chunked(stream: &mut TcpStream) -> std::io::Result<()> {
    stream.write_all(b"0\r\n\r\n")?;
    stream.flush()
}

/// Canonical reason phrases for the statuses the service emits.
fn status_reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Unknown",
    }
}

/// Applies the per-connection socket timeouts.
pub fn configure_stream(stream: &TcpStream, timeout: Duration) -> std::io::Result<()> {
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    stream.set_nodelay(true)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_query_decodes_pairs() {
        let q = parse_query("theta=0.8&alpha=0.25&planner=dp&flag");
        assert_eq!(q.len(), 4);
        assert_eq!(q[0], ("theta".into(), "0.8".into()));
        assert_eq!(q[2], ("planner".into(), "dp".into()));
        assert_eq!(q[3], ("flag".into(), String::new()));
        let enc = parse_query("name=a%20b+c&pct=100%25");
        assert_eq!(enc[0].1, "a b c");
        assert_eq!(enc[1].1, "100%");
    }

    #[test]
    fn malformed_percent_passes_through() {
        assert_eq!(decode_component("50%"), "50%");
        assert_eq!(decode_component("%zz"), "%zz");
        assert_eq!(decode_component("%"), "%");
        assert_eq!(decode_component("%4"), "%4");
        assert_eq!(decode_component("%4g"), "%4g");
        assert_eq!(decode_component("%41"), "A");
        assert_eq!(decode_component("%e2%82%ac"), "€");
        assert_eq!(decode_component("%ff"), "\u{fffd}");
    }

    #[test]
    fn request_roundtrip_over_loopback() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let req = read_request(&mut stream, 1024).unwrap();
            Response::text(200, format!("{} {}", req.method, req.path))
                .with_header("X-Echo-Body", String::from_utf8_lossy(&req.body))
                .write_to(&mut stream)
                .unwrap();
            req
        });
        let mut client = TcpStream::connect(addr).unwrap();
        client
            .write_all(
                b"POST /v1/plan?wait=0 HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\n\r\nhello",
            )
            .unwrap();
        let mut reply = String::new();
        client.read_to_string(&mut reply).unwrap();
        let req = server.join().unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/plan");
        assert_eq!(req.query_param("wait"), Some("0"));
        assert_eq!(req.body, b"hello");
        assert!(reply.starts_with("HTTP/1.1 200 OK\r\n"), "{reply}");
        assert!(reply.contains("X-Echo-Body: hello"));
        assert!(reply.ends_with("POST /v1/plan"));
    }

    #[test]
    fn oversized_body_is_rejected() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            read_request(&mut stream, 4)
        });
        let mut client = TcpStream::connect(addr).unwrap();
        client
            .write_all(b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\n0123456789")
            .unwrap();
        assert!(matches!(
            server.join().unwrap(),
            Err(HttpError::BodyTooLarge(10))
        ));
    }
}
