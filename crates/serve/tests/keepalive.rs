//! Keep-alive framing test: one connection serves multiple sequential
//! requests, each response is exactly `Content-Length` bytes with the right
//! `Connection:` header, and both the explicit-`close` and HTTP/1.0 paths
//! still close after one exchange. Also exercises the persistent
//! [`HttpClient`] against a live server, and checks that a request head
//! over [`MAX_REQUEST_HEAD_BYTES`] gets a `400` without harming the server.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::Path;

use gsu_serve::http::{HttpClient, MAX_REQUEST_HEAD_BYTES};
use gsu_serve::{Server, SCENARIOS_DIR};
use telemetry::Collector;

/// Reads one full response off `reader` and returns
/// `(status, connection_header, body)`.
fn read_response(reader: &mut BufReader<TcpStream>) -> (u16, String, String) {
    let mut status_line = String::new();
    reader.read_line(&mut status_line).expect("status line");
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .expect("status code")
        .parse()
        .expect("numeric status");
    let mut content_length = 0usize;
    let mut connection = String::new();
    loop {
        let mut header = String::new();
        let n = reader.read_line(&mut header).expect("header line");
        if n == 0 || header == "\r\n" || header == "\n" {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            match name.trim().to_ascii_lowercase().as_str() {
                "content-length" => content_length = value.trim().parse().expect("length"),
                "connection" => connection = value.trim().to_string(),
                _ => {}
            }
        }
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).expect("exact body");
    (
        status,
        connection,
        String::from_utf8(body).expect("utf8 body"),
    )
}

/// Sends `head` on a fresh connection from a writer thread (the server
/// stops reading at the cap, so the tail of the write may fail) and returns
/// the status of the response.
fn status_for_head(addr: std::net::SocketAddr, head: Vec<u8>) -> u16 {
    let stream = TcpStream::connect(addr).expect("connect");
    let mut writer = stream.try_clone().expect("clone stream");
    let sending = std::thread::spawn(move || {
        let _ = writer.write_all(&head);
    });
    let (status, connection, _) = read_response(&mut BufReader::new(stream));
    assert_eq!(
        connection, "close",
        "an oversized head closes the connection"
    );
    sending.join().expect("writer thread");
    status
}

#[test]
fn keep_alive_serves_multiple_requests_with_exact_framing() {
    let collector = Collector::install();
    let server = Server::bind("127.0.0.1:0", collector, Path::new(SCENARIOS_DIR))
        .expect("bind ephemeral port");
    let addr = server.local_addr();
    let handle = server.handle();
    let serving = std::thread::spawn(move || server.run(2));

    // Three sequential requests over ONE raw connection. If the server
    // mis-framed any response (wrong Content-Length, closed early), the
    // next read_response would desynchronise and fail loudly.
    let stream = TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(stream);
    for i in 0..3 {
        write!(
            reader.get_mut(),
            "GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: keep-alive\r\n\r\n"
        )
        .expect("write request");
        reader.get_mut().flush().expect("flush");
        let (status, connection, body) = read_response(&mut reader);
        assert_eq!(status, 200, "request {i}");
        assert_eq!(connection, "keep-alive", "request {i}");
        assert_eq!(body, "ok\n", "request {i}");
    }
    // An explicit close is honoured: the response says close and the server
    // hangs up (EOF on the next read).
    write!(
        reader.get_mut(),
        "GET /version HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"
    )
    .expect("write request");
    reader.get_mut().flush().expect("flush");
    let (status, connection, body) = read_response(&mut reader);
    assert_eq!(status, 200);
    assert_eq!(connection, "close");
    assert!(body.contains("\"name\":\"gsu-serve\""), "{body}");
    let mut probe = String::new();
    assert_eq!(
        reader.read_line(&mut probe).expect("post-close read"),
        0,
        "server must close after Connection: close"
    );

    // HTTP/1.0 without a keep-alive header defaults to close.
    let stream = TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(stream);
    write!(reader.get_mut(), "GET /healthz HTTP/1.0\r\nHost: t\r\n\r\n").expect("write");
    reader.get_mut().flush().expect("flush");
    let (status, connection, _) = read_response(&mut reader);
    assert_eq!(status, 200);
    assert_eq!(connection, "close");

    // The persistent client sees the same framing: many requests, one
    // connection.
    let mut client = HttpClient::new(addr, true);
    for _ in 0..5 {
        let (status, body) = client.get("/healthz").expect("client get");
        assert_eq!((status, body.as_str()), (200, "ok\n"));
    }
    let (status, body) = client.get("/stats").expect("client stats");
    assert_eq!(status, 200);
    assert!(body.starts_with("{\"schema\":\"gsu-stats-v1\""), "{body}");
    assert_eq!(client.connects(), 1, "keep-alive client must reuse");

    // In close mode every request opens a fresh connection.
    let mut oneshot = HttpClient::new(addr, false);
    for _ in 0..3 {
        let (status, _) = oneshot.get("/healthz").expect("close-mode get");
        assert_eq!(status, 200);
    }
    assert_eq!(oneshot.connects(), 3, "close mode must not reuse");

    // A well-formed request whose head runs past the cap is a 400, whether
    // through a 1 MiB request line or 10,000 headers, and the server keeps
    // serving.
    let mut long_line = b"GET /healthz?pad=".to_vec();
    long_line.resize(1 << 20, b'a');
    long_line.extend_from_slice(b" HTTP/1.1\r\n\r\n");
    assert_eq!(status_for_head(addr, long_line), 400);
    let mut many_headers = b"GET /healthz HTTP/1.1\r\n".to_vec();
    for i in 0..10_000 {
        many_headers.extend_from_slice(format!("X-Pad-{i}: a\r\n").as_bytes());
    }
    many_headers.extend_from_slice(b"\r\n");
    assert!(many_headers.len() as u64 > MAX_REQUEST_HEAD_BYTES);
    assert_eq!(status_for_head(addr, many_headers), 400);
    let (status, body) = HttpClient::new(addr, false)
        .get("/healthz")
        .expect("healthz after oversized heads");
    assert_eq!((status, body.as_str()), (200, "ok\n"));

    handle.shutdown();
    serving.join().expect("server thread");
    telemetry::clear_sink();
}
