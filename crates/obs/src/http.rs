//! Minimal HTTP/1.1 request/response plumbing shared by the embedded
//! servers in this workspace ([`crate::server::MetricsServer`] and the
//! `qpinn-serve` inference plane).
//!
//! Both servers follow the same shape — `std::net::TcpListener`, one
//! response per connection, `Connection: close` — so the socket-level
//! code lives here exactly once: request-line/header parsing (including
//! `Content-Length`-bounded bodies for POSTs, and the `400`/`413` verdict
//! on a head that cannot be served, [`ReadError::status`]) and
//! status-line/header formatting. Notably the `Content-Length` header is
//! computed in a single place ([`Response::write_to`]); the two servers
//! used to duplicate that formatting.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;

/// Largest request body accepted by [`read_request`] (1 MiB). Bounds
/// memory per connection; a batched eval of tens of thousands of points
/// fits comfortably.
pub const MAX_BODY_BYTES: usize = 1 << 20;

/// A parsed HTTP request: method, split path/query, and the raw body.
#[derive(Clone, Debug, Default)]
pub struct Request {
    /// Uppercase method token as sent (`GET`, `POST`, …).
    pub method: String,
    /// Path with any `?query` suffix removed.
    pub path: String,
    /// The query string after `?`, when present (undecoded).
    pub query: Option<String>,
    /// All request headers as `(lowercased-name, trimmed-value)` pairs,
    /// in arrival order (the serve plane reads `x-qpinn-trace` from here
    /// to adopt an upstream trace id).
    pub headers: Vec<(String, String)>,
    /// Raw request body (empty unless `Content-Length` was sent).
    pub body: Vec<u8>,
}

impl Request {
    /// Body as UTF-8, for JSON request payloads.
    pub fn body_str(&self) -> Result<&str, String> {
        std::str::from_utf8(&self.body).map_err(|e| format!("body is not UTF-8: {e}"))
    }

    /// First header value with the given name (case-insensitive).
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }
}

/// Why [`read_request`] returned no request.
#[derive(Debug)]
pub enum ReadError {
    /// The socket failed or the peer stopped sending (timeout, reset, a
    /// body cut short): there is nobody left to answer.
    Io(std::io::Error),
    /// The head is malformed: a line that is not UTF-8, too many headers,
    /// or a `Content-Length` that is not a number. Answer
    /// `400 Bad Request`.
    Malformed(String),
    /// The declared body (bytes) exceeds [`MAX_BODY_BYTES`]. Answer
    /// `413 Payload Too Large`.
    TooLarge(usize),
}

impl ReadError {
    /// The status line to answer with, or `None` when the socket itself
    /// failed.
    pub fn status(&self) -> Option<&'static str> {
        match self {
            ReadError::Io(_) => None,
            ReadError::Malformed(_) => Some("400 Bad Request"),
            ReadError::TooLarge(_) => Some("413 Payload Too Large"),
        }
    }
}

impl std::fmt::Display for ReadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReadError::Io(e) => write!(f, "{e}"),
            ReadError::Malformed(msg) => f.write_str(msg),
            ReadError::TooLarge(n) => {
                write!(f, "body of {n} bytes exceeds the {MAX_BODY_BYTES} byte limit")
            }
        }
    }
}

impl From<std::io::Error> for ReadError {
    /// A head that is not UTF-8 surfaces from `read_line` as
    /// `InvalidData`; every other I/O error is the socket's.
    fn from(e: std::io::Error) -> Self {
        if e.kind() == std::io::ErrorKind::InvalidData {
            ReadError::Malformed(e.to_string())
        } else {
            ReadError::Io(e)
        }
    }
}

impl From<ReadError> for std::io::Error {
    fn from(e: ReadError) -> Self {
        match e {
            ReadError::Io(e) => e,
            other => std::io::Error::new(std::io::ErrorKind::InvalidData, other.to_string()),
        }
    }
}

/// Read and parse one request from `stream`. The caller keeps the stream
/// to answer on, including when the head is refused (see
/// [`ReadError::status`]).
pub fn read_request(stream: &TcpStream) -> Result<Request, ReadError> {
    let mut reader = BufReader::new(stream);
    let mut request_line = String::new();
    reader.read_line(&mut request_line)?;
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("").to_string();
    let target = parts.next().unwrap_or("");
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), Some(q.to_string())),
        None => (target.to_string(), None),
    };
    // Collect headers; the only one that changes framing is
    // Content-Length, but the rest are kept (lowercased names) for
    // routes that read them, e.g. trace-id propagation.
    let mut content_length = 0usize;
    let mut headers = Vec::new();
    let mut line = String::new();
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 || line == "\r\n" || line == "\n" {
            break;
        }
        if headers.len() >= 100 {
            return Err(ReadError::Malformed("too many headers".into()));
        }
        if let Some((name, value)) = line.split_once(':') {
            let name = name.trim().to_ascii_lowercase();
            let value = value.trim().to_string();
            if name == "content-length" {
                content_length = value
                    .parse()
                    .map_err(|_| ReadError::Malformed("bad Content-Length".into()))?;
            }
            headers.push((name, value));
        }
    }
    if content_length > MAX_BODY_BYTES {
        return Err(ReadError::TooLarge(content_length));
    }
    let mut body = vec![0u8; content_length];
    if content_length > 0 {
        reader.read_exact(&mut body)?;
    }
    Ok(Request {
        method,
        path,
        query,
        headers,
        body,
    })
}

/// A response ready to serialize: status line, content type, optional
/// extra headers, body.
#[derive(Clone, Debug)]
pub struct Response {
    /// Full status, e.g. `"200 OK"` or `"429 Too Many Requests"`.
    pub status: &'static str,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Additional `(name, value)` headers (e.g. `Retry-After`).
    pub extra_headers: Vec<(&'static str, String)>,
    /// Response body.
    pub body: String,
}

impl Response {
    /// A `200 OK` JSON response.
    pub fn json(body: impl Into<String>) -> Self {
        Response {
            status: "200 OK",
            content_type: "application/json",
            extra_headers: Vec::new(),
            body: body.into(),
        }
    }

    /// A JSON response with an explicit status.
    pub fn json_status(status: &'static str, body: impl Into<String>) -> Self {
        Response {
            status,
            content_type: "application/json",
            extra_headers: Vec::new(),
            body: body.into(),
        }
    }

    /// A plain-text response with an explicit status.
    pub fn text(status: &'static str, body: impl Into<String>) -> Self {
        Response {
            status,
            content_type: "text/plain; charset=utf-8",
            extra_headers: Vec::new(),
            body: body.into(),
        }
    }

    /// Append an extra header.
    pub fn header(mut self, name: &'static str, value: impl Into<String>) -> Self {
        self.extra_headers.push((name, value.into()));
        self
    }

    /// Serialize onto `stream`: status line, `Content-Type`, the one
    /// shared `Content-Length`, extra headers, `Connection: close`, body.
    pub fn write_to(&self, stream: &mut TcpStream) -> std::io::Result<()> {
        let mut head = format!(
            "HTTP/1.1 {}\r\nContent-Type: {}\r\nContent-Length: {}\r\n",
            self.status,
            self.content_type,
            self.body.len()
        );
        for (name, value) in &self.extra_headers {
            head.push_str(name);
            head.push_str(": ");
            head.push_str(value);
            head.push_str("\r\n");
        }
        head.push_str("Connection: close\r\n\r\n");
        stream.write_all(head.as_bytes())?;
        stream.write_all(self.body.as_bytes())?;
        stream.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// Round-trip a request and response over a real socket pair.
    fn exchange(raw_request: &str, response: Response) -> (Request, String) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let raw = raw_request.to_string();
        let client = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(raw.as_bytes()).unwrap();
            let mut buf = String::new();
            s.read_to_string(&mut buf).unwrap();
            buf
        });
        let (mut conn, _) = listener.accept().unwrap();
        let req = read_request(&conn).unwrap();
        response.write_to(&mut conn).unwrap();
        drop(conn);
        (req, client.join().unwrap())
    }

    #[test]
    fn parses_get_with_query() {
        let (req, raw) = exchange(
            "GET /v1/models?full=1 HTTP/1.1\r\nHost: t\r\n\r\n",
            Response::json("{\"ok\":true}"),
        );
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/v1/models");
        assert_eq!(req.query.as_deref(), Some("full=1"));
        assert_eq!(req.header("Host"), Some("t"));
        assert!(req.header("x-qpinn-trace").is_none());
        assert!(req.body.is_empty());
        assert!(raw.starts_with("HTTP/1.1 200 OK\r\n"), "{raw}");
        assert!(raw.contains("Content-Length: 11\r\n"), "{raw}");
        assert!(raw.ends_with("{\"ok\":true}"), "{raw}");
    }

    #[test]
    fn parses_post_body_by_content_length() {
        let body = "{\"points\":[[0.5,0.1]]}";
        let (req, _) = exchange(
            &format!(
                "POST /v1/eval HTTP/1.1\r\nContent-Type: application/json\r\n\
                 Content-Length: {}\r\n\r\n{body}",
                body.len()
            ),
            Response::json("{}"),
        );
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/eval");
        assert_eq!(req.body_str().unwrap(), body);
    }

    #[test]
    fn extra_headers_and_status_render() {
        let (_, raw) = exchange(
            "GET / HTTP/1.1\r\n\r\n",
            Response::json_status("429 Too Many Requests", "{\"error\":\"shed\"}")
                .header("Retry-After", "1"),
        );
        assert!(raw.starts_with("HTTP/1.1 429 Too Many Requests\r\n"), "{raw}");
        assert!(raw.contains("Retry-After: 1\r\n"), "{raw}");
        assert!(raw.contains("Connection: close\r\n"), "{raw}");
    }

    #[test]
    fn oversized_body_is_rejected() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            write!(
                s,
                "POST /v1/eval HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
                MAX_BODY_BYTES + 1
            )
            .unwrap();
            // Leave the body unsent; the server must bail on the header.
            let mut buf = String::new();
            let _ = s.read_to_string(&mut buf);
        });
        let (conn, _) = listener.accept().unwrap();
        let err = read_request(&conn).unwrap_err();
        assert!(matches!(err, ReadError::TooLarge(n) if n == MAX_BODY_BYTES + 1), "{err}");
        assert_eq!(err.status(), Some("413 Payload Too Large"));
        drop(conn);
        client.join().unwrap();
    }
}
