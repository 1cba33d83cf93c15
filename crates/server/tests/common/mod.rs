//! Helpers shared by the server integration tests: a compact stream, test
//! options, a TCP client, and a `/metrics` scraper.
#![allow(dead_code)] // each test binary uses its own subset

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::time::{Duration, Instant};

use morphstream_common::protocol::WireFormat;
use morphstream_common::WorkloadConfig;
use morphstream_server::{encode_event, write_preamble, ServeOptions, Server};
use morphstream_workloads::{SlEvent, StreamingLedgerApp};

/// A compact but non-trivial stream: several punctuations, transfers that
/// abort, and keys drawn Zipf-skewed from a small space.
pub fn test_events(count: usize, config: &WorkloadConfig) -> Vec<SlEvent> {
    StreamingLedgerApp::generate(config, count, 0.5)
}

pub fn test_options(data_dir: Option<PathBuf>) -> ServeOptions {
    let mut opts = ServeOptions::default();
    opts.workload = opts
        .workload
        .with_key_space(10_000)
        .with_txns_per_batch(1_000);
    // Keep the emulated UDF cost out of test wall-clock.
    opts.workload.udf_complexity_us = 0;
    opts.data_dir = data_dir;
    opts
}

pub fn temp_dir(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("morph-serve-{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Send `events` over one TCP connection in `format`, then half-close (the
/// server reads EOF whether or not the socket is then dropped).
pub fn send_stream(addr: SocketAddr, events: &[SlEvent], format: WireFormat) {
    let mut stream = TcpStream::connect(addr).expect("connect to server");
    stream.set_nodelay(true).unwrap();
    let mut wire = Vec::new();
    let mut scratch = Vec::new();
    write_preamble(format, &mut wire);
    for event in events {
        encode_event(event, format, &mut scratch, &mut wire).expect("encode event");
    }
    stream.write_all(&wire).expect("write stream");
    stream.flush().unwrap();
    stream
        .shutdown(std::net::Shutdown::Write)
        .expect("half-close");
}

/// Block until the server has pushed `expected` events into the engine.
/// `Server::shutdown` stops *accepting* — a connection still sitting in the
/// kernel backlog would be dropped — so every test drains first.
pub fn wait_for_ingest(server: &Server, expected: u64) {
    let deadline = Instant::now() + Duration::from_secs(60);
    while server.events_ingested() < expected {
        assert!(
            Instant::now() < deadline,
            "server ingested {} of {expected} events before the deadline",
            server.events_ingested()
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// `GET path`; returns `(head, body)`.
pub fn http_get(addr: SocketAddr, path: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect to metrics");
    write!(stream, "GET {path} HTTP/1.1\r\nHost: test\r\n\r\n").unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let (head, body) = response
        .split_once("\r\n\r\n")
        .expect("response has a header/body split");
    (head.to_string(), body.to_string())
}

/// Parse the value of a non-comment sample line, e.g.
/// `morphstream_events_total 500`.
pub fn metric_value(body: &str, name: &str) -> Option<f64> {
    body.lines()
        .filter(|line| !line.starts_with('#'))
        .find_map(|line| {
            let (sample, value) = line.rsplit_once(' ')?;
            (sample == name).then(|| value.parse().expect("numeric sample"))
        })
}
