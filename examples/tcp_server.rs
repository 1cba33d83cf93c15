//! End-to-end network demo: an in-process `morphstream serve` instance fed
//! by the loadgen client over real TCP, scraped over HTTP, and drained
//! gracefully — the same path `morphstream serve` / `morphstream loadgen`
//! exercise as separate processes.
//!
//! Run with `cargo run --release --example tcp_server`.

use std::io::{Read, Write};
use std::net::TcpStream;

use morphstream_server::{run_loadgen, LoadgenOptions, ServeOptions, Server};

fn main() {
    // A server on ephemeral ports: the Streaming Ledger entry operator
    // feeding an `audit` operator over a bounded channel.
    let mut opts = ServeOptions::default();
    opts.workload = opts
        .workload
        .with_key_space(100_000)
        .with_txns_per_batch(2_000);
    opts.workload.udf_complexity_us = 0;
    let server = Server::start(opts).expect("start server");
    println!("serving events on {}", server.event_addr());
    println!("metrics on http://{}/metrics", server.metrics_addr());

    // Drive a Zipf-skewed bursty stream at it over a real socket.
    let load = LoadgenOptions {
        addr: server.event_addr().to_string(),
        events: 100_000,
        key_space: 100_000,
        zipf_theta: 0.8,
        ..LoadgenOptions::default()
    };
    let report = run_loadgen(&load).expect("loadgen run");
    println!("loadgen: {}", report.render());

    // The run returned once the server closed the connection, which it
    // does only after ingesting the whole stream; take one scrape.
    assert_eq!(server.events_ingested(), load.events as u64);
    let metrics = http_get(server.metrics_addr(), "/metrics");
    for line in metrics.lines().filter(|l| !l.starts_with('#')).take(12) {
        println!("scrape: {line}");
    }

    let summary = server.shutdown();
    println!(
        "drained: {} events ({} committed, {} aborted) in {} batches over {} frames",
        summary.snapshot.events,
        summary.snapshot.committed,
        summary.snapshot.aborted,
        summary.snapshot.batches,
        summary.frames,
    );
    assert_eq!(summary.snapshot.events, load.events as u64);
}

fn http_get(addr: std::net::SocketAddr, path: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect metrics");
    write!(stream, "GET {path} HTTP/1.1\r\nHost: example\r\n\r\n").expect("send request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    response
        .split_once("\r\n\r\n")
        .map(|(_, body)| body.to_string())
        .unwrap_or(response)
}
