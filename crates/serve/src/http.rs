//! Minimal hand-rolled HTTP/1.1 plumbing (pure `std`, no TLS).
//!
//! `gsu-serve` speaks exactly the subset Prometheus scrapers, `curl`, health
//! probes, and the `gsu-bench loadgen` client need: body-less `GET`s with an
//! explicit `Content-Length` on every response, and HTTP/1.1 persistent
//! connections — bounded by [`KEEPALIVE_MAX_REQUESTS`] per connection and an
//! [`KEEPALIVE_IDLE_TIMEOUT`] between requests so half-open clients cannot
//! pin a worker. No pipelining: a client must read each response before
//! sending the next request (which is how every client here behaves).
//! Anything fancier (chunked bodies, TLS) belongs to a reverse proxy in
//! front, per the workspace dependency policy (see DESIGN.md).

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// How long a connection may sit idle before we give up on it; guards the
/// worker pool against half-open clients.
pub const IO_TIMEOUT: Duration = Duration::from_secs(5);

/// Requests served over a single keep-alive connection before the server
/// closes it — bounds how long one client can monopolise a pool worker.
pub const KEEPALIVE_MAX_REQUESTS: usize = 100;

/// How long a keep-alive connection may sit idle *between* requests before
/// the server closes it (deliberately shorter than [`IO_TIMEOUT`]: an idle
/// persistent connection holds a worker hostage, a mid-request stall is the
/// client's own latency problem).
pub const KEEPALIVE_IDLE_TIMEOUT: Duration = Duration::from_secs(2);

/// Cap on the bytes of one request head (request line plus headers): a
/// longer head is answered `400` instead of being buffered, so no client
/// can grow a worker's memory without bound.
pub const MAX_REQUEST_HEAD_BYTES: u64 = 8192;

/// A parsed request line plus the connection-management headers (all other
/// headers are read and discarded).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Request method (`GET`, …).
    pub method: String,
    /// Path component of the target, percent-decoded.
    pub path: String,
    /// Query pairs in order of appearance, percent-decoded.
    pub query: Vec<(String, String)>,
    /// Whether the client asked to keep the connection open: HTTP/1.1
    /// default unless `Connection: close`, HTTP/1.0 only with an explicit
    /// `Connection: keep-alive`.
    pub keep_alive: bool,
}

impl Request {
    /// First value of query parameter `key`, if present.
    pub fn query_value(&self, key: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// A response ready for [`write_response`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Response body.
    pub body: String,
}

impl Response {
    /// A `text/plain` response.
    pub fn text(status: u16, body: impl Into<String>) -> Self {
        Response {
            status,
            content_type: "text/plain; charset=utf-8",
            body: body.into(),
        }
    }

    /// An `application/json` response.
    pub fn json(status: u16, body: impl Into<String>) -> Self {
        Response {
            status,
            content_type: "application/json",
            body: body.into(),
        }
    }
}

/// Reads and parses one request from `stream` (the header block only; the
/// endpoints are all body-less `GET`s). Returns `Ok(None)` when the client
/// closed the connection cleanly before sending anything — the normal end
/// of a keep-alive exchange, not an error.
///
/// `first` selects the read timeout: [`IO_TIMEOUT`] for the first request
/// on a connection, the shorter [`KEEPALIVE_IDLE_TIMEOUT`] for follow-ups.
///
/// # Errors
///
/// I/O failures, timeouts, malformed request lines, and heads longer than
/// [`MAX_REQUEST_HEAD_BYTES`] (all [`std::io::ErrorKind::InvalidData`]
/// except the I/O ones).
pub fn read_request(stream: &mut TcpStream, first: bool) -> std::io::Result<Option<Request>> {
    let read_timeout = if first {
        IO_TIMEOUT
    } else {
        KEEPALIVE_IDLE_TIMEOUT
    };
    stream.set_read_timeout(Some(read_timeout))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    let mut reader = BufReader::new((&mut *stream).take(MAX_REQUEST_HEAD_BYTES));
    let mut line = String::new();
    if read_head_line(&mut reader, &mut line)? == 0 {
        return Ok(None); // clean EOF before a request line
    }
    let mut request = parse_request_line(&line).ok_or_else(|| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("malformed request line: {line:?}"),
        )
    })?;
    // Drain headers until the blank line; only `Connection:` matters to the
    // routes we serve.
    loop {
        let mut header = String::new();
        let n = read_head_line(&mut reader, &mut header)?;
        if n == 0 || header == "\r\n" || header == "\n" {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.trim().eq_ignore_ascii_case("connection") {
                let value = value.trim();
                if value.eq_ignore_ascii_case("close") {
                    request.keep_alive = false;
                } else if value.eq_ignore_ascii_case("keep-alive") {
                    request.keep_alive = true;
                }
            }
        }
    }
    Ok(Some(request))
}

/// One line of a request head. A line cut short by the
/// [`MAX_REQUEST_HEAD_BYTES`] cap, rather than by the client closing, is an
/// `InvalidData` error.
fn read_head_line(
    reader: &mut BufReader<std::io::Take<&mut TcpStream>>,
    line: &mut String,
) -> std::io::Result<usize> {
    let n = reader.read_line(line)?;
    if !line.ends_with('\n') && reader.get_ref().limit() == 0 {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("request head exceeds {MAX_REQUEST_HEAD_BYTES} bytes"),
        ));
    }
    Ok(n)
}

/// Parses `"GET /path?query HTTP/1.1"`. The HTTP version sets the
/// keep-alive default (1.1: on, anything else: off); `Connection:` headers
/// override it in [`read_request`].
fn parse_request_line(line: &str) -> Option<Request> {
    let mut parts = line.split_whitespace();
    let method = parts.next()?.to_string();
    let target = parts.next()?;
    let version = parts.next()?;
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    Some(Request {
        method,
        path: percent_decode(path),
        query: parse_query(query),
        keep_alive: version.eq_ignore_ascii_case("HTTP/1.1"),
    })
}

/// Splits `a=1&b=2` into decoded pairs; keys without `=` get empty values.
fn parse_query(query: &str) -> Vec<(String, String)> {
    query
        .split('&')
        .filter(|part| !part.is_empty())
        .map(|part| match part.split_once('=') {
            Some((k, v)) => (percent_decode(k), percent_decode(v)),
            None => (percent_decode(part), String::new()),
        })
        .collect()
}

/// Decodes `%XX` escapes and `+`-as-space; invalid escapes pass through
/// verbatim.
fn percent_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b'%' => match (hex(bytes.get(i + 1)), hex(bytes.get(i + 2))) {
                (Some(hi), Some(lo)) => {
                    out.push(hi * 16 + lo);
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

fn hex(b: Option<&u8>) -> Option<u8> {
    (*b? as char).to_digit(16).map(|d| d as u8)
}

/// Writes `response` with an exact `Content-Length` and an explicit
/// `Connection: keep-alive` / `Connection: close` header (`close` when
/// `close` is true, so the client knows not to reuse the connection).
///
/// # Errors
///
/// Propagates write failures (a disconnected scraper, typically).
pub fn write_response(
    stream: &mut TcpStream,
    response: &Response,
    close: bool,
) -> std::io::Result<()> {
    let reason = match response.status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    };
    let connection = if close { "close" } else { "keep-alive" };
    // One buffered write: `write!` straight at the socket would emit each
    // format fragment as its own small segment.
    let payload = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n\r\n{}",
        response.status,
        reason,
        response.content_type,
        response.body.len(),
        connection,
        response.body
    );
    stream.write_all(payload.as_bytes())?;
    stream.flush()
}

/// Blocking one-shot HTTP GET against `addr` (the smoke test and the
/// integration tests double as the reference client).
///
/// # Errors
///
/// Connection/read failures and responses without a parsable status line.
pub fn http_get(addr: SocketAddr, target: &str) -> std::io::Result<(u16, String)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    write!(
        stream,
        "GET {target} HTTP/1.1\r\nHost: gsu-serve\r\nConnection: close\r\n\r\n"
    )?;
    stream.flush()?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw)?;
    let (head, body) = raw.split_once("\r\n\r\n").ok_or_else(|| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "response without header block",
        )
    })?;
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::InvalidData, "unparsable status line")
        })?;
    Ok((status, body.to_string()))
}

/// A persistent-connection HTTP client: issues sequential `GET`s over one
/// keep-alive connection, reconnecting transparently when the server closes
/// it (per-connection request cap, idle timeout) or the first write after a
/// long pause hits a dead socket. This is the transport `gsu-bench loadgen`
/// drives; [`http_get`] remains the one-shot (`Connection: close`) client.
#[derive(Debug)]
pub struct HttpClient {
    addr: SocketAddr,
    keep_alive: bool,
    reader: Option<BufReader<TcpStream>>,
    connects: u64,
}

impl HttpClient {
    /// A client for `addr`. With `keep_alive` false every request opens a
    /// fresh connection and sends `Connection: close` — the mode loadgen
    /// uses to quantify the keep-alive win.
    pub fn new(addr: SocketAddr, keep_alive: bool) -> Self {
        HttpClient {
            addr,
            keep_alive,
            reader: None,
            connects: 0,
        }
    }

    /// Connections opened so far (1 for a fully-reused keep-alive session;
    /// grows as the server rotates the connection).
    pub fn connects(&self) -> u64 {
        self.connects
    }

    /// Issues `GET target` and returns `(status, body)`.
    ///
    /// # Errors
    ///
    /// Connection failures and malformed responses. A failure on a *reused*
    /// connection is retried once on a fresh one (the server may have
    /// closed it between requests); a failure on a fresh connection is
    /// returned as-is.
    pub fn get(&mut self, target: &str) -> std::io::Result<(u16, String)> {
        let reused = self.reader.is_some();
        match self.try_get(target) {
            Err(_) if reused => {
                self.reader = None;
                self.try_get(target)
            }
            result => result,
        }
    }

    fn try_get(&mut self, target: &str) -> std::io::Result<(u16, String)> {
        if self.reader.is_none() {
            let stream = TcpStream::connect(self.addr)?;
            stream.set_read_timeout(Some(IO_TIMEOUT))?;
            stream.set_write_timeout(Some(IO_TIMEOUT))?;
            stream.set_nodelay(true)?;
            self.connects += 1;
            self.reader = Some(BufReader::new(stream));
        }
        let result = self.exchange(target);
        if let Err(_) | Ok((_, _, true)) = &result {
            self.reader = None; // server said close, or the exchange died
        }
        result.map(|(status, body, _)| (status, body))
    }

    /// One request/response over the current connection; the third element
    /// reports whether the server asked to close it.
    fn exchange(&mut self, target: &str) -> std::io::Result<(u16, String, bool)> {
        let reader = self.reader.as_mut().ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::NotConnected, "no connection")
        })?;
        let connection = if self.keep_alive {
            "keep-alive"
        } else {
            "close"
        };
        let request =
            format!("GET {target} HTTP/1.1\r\nHost: gsu-serve\r\nConnection: {connection}\r\n\r\n");
        reader.get_mut().write_all(request.as_bytes())?;
        reader.get_mut().flush()?;

        let mut status_line = String::new();
        if reader.read_line(&mut status_line)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "connection closed before status line",
            ));
        }
        let status: u16 = status_line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| {
                std::io::Error::new(std::io::ErrorKind::InvalidData, "unparsable status line")
            })?;

        let mut content_length: Option<usize> = None;
        let mut server_close = !self.keep_alive;
        loop {
            let mut header = String::new();
            let n = reader.read_line(&mut header)?;
            if n == 0 || header == "\r\n" || header == "\n" {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                let name = name.trim();
                let value = value.trim();
                if name.eq_ignore_ascii_case("content-length") {
                    content_length = value.parse().ok();
                } else if name.eq_ignore_ascii_case("connection")
                    && value.eq_ignore_ascii_case("close")
                {
                    server_close = true;
                }
            }
        }
        let len = content_length.ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "response without Content-Length",
            )
        })?;
        let mut body = vec![0u8; len];
        reader.read_exact(&mut body)?;
        Ok((
            status,
            String::from_utf8_lossy(&body).into_owned(),
            server_close,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_line_parses_paths_and_queries() {
        let r = parse_request_line("GET /eval?phi=7000&x=a%20b HTTP/1.1\r\n").unwrap();
        assert_eq!(r.method, "GET");
        assert_eq!(r.path, "/eval");
        assert_eq!(r.query_value("phi"), Some("7000"));
        assert_eq!(r.query_value("x"), Some("a b"));
        assert_eq!(r.query_value("missing"), None);
    }

    #[test]
    fn bare_paths_and_empty_queries() {
        let r = parse_request_line("GET / HTTP/1.0\n").unwrap();
        assert_eq!(r.path, "/");
        assert!(r.query.is_empty());
        let r = parse_request_line("GET /metrics? HTTP/1.1\n").unwrap();
        assert!(r.query.is_empty());
    }

    #[test]
    fn keep_alive_defaults_follow_the_http_version() {
        assert!(parse_request_line("GET / HTTP/1.1\r\n").unwrap().keep_alive);
        assert!(!parse_request_line("GET / HTTP/1.0\r\n").unwrap().keep_alive);
    }

    #[test]
    fn malformed_lines_rejected() {
        assert!(parse_request_line("").is_none());
        assert!(parse_request_line("GET\r\n").is_none());
        assert!(parse_request_line("GET /x").is_none());
    }

    #[test]
    fn percent_decoding() {
        assert_eq!(percent_decode("a%2Fb+c"), "a/b c");
        assert_eq!(percent_decode("100%"), "100%");
        assert_eq!(percent_decode("%zz"), "%zz");
        assert_eq!(percent_decode("plain"), "plain");
    }
}
