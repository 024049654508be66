//! Backpressure test of the accept loop: while every worker is held by an
//! idle keep-alive connection, at most [`ACCEPT_QUEUE_CAPACITY`] accepted
//! connections (plus the one being handed off) wait in server memory; the
//! rest wait in the kernel's listen backlog. Once the holders close, every
//! waiting connection is served.
//!
//! One `#[test]` because the telemetry sink is process-global.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::time::{Duration, Instant};

use gsu_serve::http::HttpClient;
use gsu_serve::{Server, ACCEPT_QUEUE_CAPACITY, SCENARIOS_DIR};
use telemetry::Collector;

const WORKERS: usize = 2;

#[test]
fn held_workers_bound_the_accept_queue() {
    let collector = Collector::install();
    let server = Server::bind("127.0.0.1:0", collector.clone(), Path::new(SCENARIOS_DIR))
        .expect("bind ephemeral port");
    let addr = server.local_addr();
    let handle = server.handle();
    let serving = std::thread::spawn(move || server.run(WORKERS));

    // One keep-alive exchange per worker; the handler then idles on the
    // connection waiting for a next request that does not come.
    let holders: Vec<HttpClient> = (0..WORKERS)
        .map(|_| {
            let mut holder = HttpClient::new(addr, true);
            assert_eq!(holder.get("/healthz").expect("holder").0, 200);
            holder
        })
        .collect();
    let waiting: Vec<TcpStream> = (0..ACCEPT_QUEUE_CAPACITY + 8)
        .map(|_| {
            let mut conn = TcpStream::connect(addr).expect("connect");
            conn.write_all(b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n")
                .expect("write request");
            conn
        })
        .collect();

    // The accept loop fills the queue, blocks handing off one more, and
    // accepts nothing further while the holders keep the workers (the
    // window waits longer for a slow accept loop to fill the queue).
    let full = (WORKERS + ACCEPT_QUEUE_CAPACITY + 1) as u64;
    let accepted = || collector.counter_value("serve.connections.accepted");
    let depth = || collector.gauge_value("serve.queue_depth").unwrap_or(0.0);
    let mut deepest = 0.0f64;
    let start = Instant::now();
    let window = |ms| start.elapsed() < Duration::from_millis(ms);
    while window(500) || (accepted() < Some(full) && window(1500)) {
        deepest = deepest.max(depth());
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(
        accepted(),
        Some(full),
        "the accept loop stops at a full queue"
    );
    assert!(
        deepest <= (ACCEPT_QUEUE_CAPACITY + 1) as f64,
        "queue depth reached {deepest}, capacity {ACCEPT_QUEUE_CAPACITY}"
    );

    drop(holders);
    for (i, mut conn) in waiting.into_iter().enumerate() {
        let mut response = String::new();
        conn.read_to_string(&mut response).expect("read response");
        assert!(
            response.starts_with("HTTP/1.1 200"),
            "connection {i}: {response}"
        );
    }
    assert_eq!(depth(), 0.0, "every queued connection was picked up");

    handle.shutdown();
    serving.join().expect("server thread");
    telemetry::clear_sink();
}
