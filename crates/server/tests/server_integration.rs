//! End-to-end tests of `morphstream serve`: a real TCP server in-process,
//! real sockets, and the three acceptance properties of the issue —
//! TCP-fed runs are digest-identical to `push_iter` runs (serial and
//! concurrent runtimes, with and without a data directory), a flooded slow consumer back-pressures with bounded
//! memory and nonzero `queue_full_waits`, and `/metrics` serves Prometheus
//! text whose counters sum to the final report.

mod common;

use std::io::Write;
use std::net::TcpStream;
use std::time::{Duration, Instant};

use common::{
    http_get, metric_value, send_stream, temp_dir, test_events, test_options, wait_for_ingest,
};
use morphstream_common::protocol::WireFormat;
use morphstream_server::{reference_run, ServeOptions, Server};

#[test]
fn tcp_fed_run_matches_push_iter_on_both_runtimes_and_formats() {
    for concurrent in [false, true] {
        let mut opts = test_options(None);
        opts.concurrent = concurrent;
        let events = test_events(5_000, &opts.workload);
        let expected = reference_run(&opts, events.clone()).expect("reference run");
        assert_eq!(expected.snapshot.events, 5_000, "reference run sanity");
        assert!(expected.snapshot.aborted > 0, "stream exercises aborts");

        // The same door with and without a disk: only the log differs.
        for data_dir in [None, Some(temp_dir("tcp-fed"))] {
            let on_disk = data_dir.is_some();
            for format in [WireFormat::Binary, WireFormat::JsonLines] {
                let cell = format!("concurrent={concurrent}, on_disk={on_disk}, {format:?}");
                if let Some(dir) = data_dir.as_ref() {
                    let _ = std::fs::remove_dir_all(dir);
                }
                let server = Server::start(ServeOptions {
                    data_dir: data_dir.clone(),
                    ..opts.clone()
                })
                .expect("server starts");
                send_stream(server.event_addr(), &events, format);
                wait_for_ingest(&server, 5_000);
                let (_, scrape) = http_get(server.metrics_addr(), "/metrics");
                for family in ["morphstream_wal_", "morphstream_checkpoint"] {
                    assert_eq!(
                        scrape.contains(family),
                        on_disk,
                        "{family}* families are scraped exactly when on disk ({cell})"
                    );
                }
                let summary = server.shutdown();

                assert_eq!(
                    summary.ledger_digest, expected.ledger_digest,
                    "ledger state diverged ({cell})"
                );
                assert_eq!(
                    summary.audit_digest, expected.audit_digest,
                    "audit state diverged ({cell})"
                );
                assert_eq!(
                    summary.output_digest, expected.output_digest,
                    "output stream diverged ({cell})"
                );
                assert_eq!(summary.snapshot.events, expected.snapshot.events);
                assert_eq!(summary.snapshot.committed, expected.snapshot.committed);
                assert_eq!(summary.snapshot.aborted, expected.snapshot.aborted);
                assert_eq!(summary.frames, 5_000);
                assert_eq!(summary.decode_errors, 0);
            }
            if let Some(dir) = data_dir {
                let _ = std::fs::remove_dir_all(dir);
            }
        }
    }
}

#[test]
fn slow_consumer_back_pressures_with_bounded_memory() {
    let mut opts = test_options(None);
    opts.workload = opts.workload.with_txns_per_batch(128);
    // Concurrent runtime, minimal channel, and an audit operator that is
    // deliberately slower than the ledger: the ledger→audit channel must
    // fill and block.
    opts.concurrent = true;
    opts.channel_capacity = 1;
    opts.audit_cost_us = 50;
    opts.threads = 1;

    let events = test_events(10_000, &opts.workload);
    let server = Server::start(opts).expect("server starts");
    send_stream(server.event_addr(), &events, WireFormat::Binary);
    // A scrape while the audit stage is flooded serves the published
    // totals: it never waits behind the dataflow, nor runs ahead of it.
    let (head, flooded) = http_get(server.metrics_addr(), "/metrics");
    wait_for_ingest(&server, 10_000);
    let summary = server.shutdown();

    assert!(
        head.starts_with("HTTP/1.1 200"),
        "scrape under load: {head}"
    );
    let scraped = metric_value(&flooded, "morphstream_events_total").expect("events scraped");
    assert!(
        scraped <= summary.snapshot.events as f64,
        "a scrape counted {scraped} events, the summary {}",
        summary.snapshot.events
    );
    assert_eq!(summary.snapshot.events, 10_000, "nothing lost under load");
    let waits: u64 = summary
        .snapshot
        .edges
        .iter()
        .map(|edge| edge.queue_full_waits)
        .sum();
    assert!(
        waits > 0,
        "a flooded slow consumer must block on the bounded channel, edges: {:?}",
        summary.snapshot.edges
    );
    // Memory stays bounded: the retained footprint is on the order of the
    // state tables plus punctuation-sized in-flight batches — far below the
    // raw stream (10k events of versioned state would dwarf this if the
    // channel were unbounded).
    assert!(
        summary.snapshot.peak_bytes_retained < 64 * 1024 * 1024,
        "peak_bytes_retained {} exceeds the bounded-memory expectation",
        summary.snapshot.peak_bytes_retained
    );
}

#[test]
fn metrics_endpoint_serves_prometheus_that_sums_to_the_final_report() {
    let mut opts = test_options(None);
    // Exactly 4 punctuations, so everything is processed without a flush.
    opts.workload = opts.workload.with_txns_per_batch(250);
    let events = test_events(1_000, &opts.workload);
    let server = Server::start(opts).expect("server starts");

    let (head, body) = http_get(server.metrics_addr(), "/healthz");
    assert!(head.starts_with("HTTP/1.1 200"), "healthz: {head}");
    assert_eq!(body, "ok\n");

    send_stream(server.event_addr(), &events, WireFormat::Binary);

    // Poll until the stream is fully processed, then take one scrape.
    let deadline = Instant::now() + Duration::from_secs(30);
    let scrape = loop {
        let (head, body) = http_get(server.metrics_addr(), "/metrics");
        assert!(head.starts_with("HTTP/1.1 200"), "metrics: {head}");
        assert!(
            head.contains("text/plain; version=0.0.4"),
            "prometheus content type: {head}"
        );
        if metric_value(&body, "morphstream_events_total") == Some(1_000.0) {
            break body;
        }
        assert!(
            Instant::now() < deadline,
            "server never processed the stream; last scrape:\n{body}"
        );
        std::thread::sleep(Duration::from_millis(50));
    };

    let (head, _) = http_get(server.metrics_addr(), "/nope");
    assert!(head.starts_with("HTTP/1.1 404"), "unknown path: {head}");

    let summary = server.shutdown();
    assert_eq!(summary.snapshot.events, 1_000);

    // The scrape taken while live must agree with the final report: same
    // cumulative counters, per-operator rows summing to the totals.
    for (name, expected) in [
        ("morphstream_events_total", summary.snapshot.events),
        ("morphstream_committed_total", summary.snapshot.committed),
        ("morphstream_aborted_total", summary.snapshot.aborted),
        ("morphstream_batches_total", summary.snapshot.batches),
        ("morphstream_connections_total", 1),
        ("morphstream_frames_total", 1_000),
        ("morphstream_decode_errors_total", 0),
    ] {
        assert_eq!(
            metric_value(&scrape, name),
            Some(expected as f64),
            "{name} diverged from the final report"
        );
    }
    // The served operators declare no UDF work, so every batch runs on the
    // thread that cut it, however many threads the server was given.
    assert_eq!(
        metric_value(&scrape, "morphstream_batch_workers"),
        Some(1.0)
    );
    assert_eq!(summary.snapshot.batch_workers, 1);
    let per_operator: f64 = summary
        .snapshot
        .operators
        .iter()
        .map(|op| {
            metric_value(
                &scrape,
                &format!(
                    "morphstream_operator_committed_total{{operator=\"{}\"}}",
                    op.name
                ),
            )
            .unwrap_or_else(|| panic!("operator row {} missing from scrape", op.name))
        })
        .sum();
    assert_eq!(
        per_operator, summary.snapshot.committed as f64,
        "operator rows must sum to the top-level committed counter"
    );
}

#[test]
fn malformed_connection_errors_without_taking_the_server_down() {
    let opts = test_options(None);
    let events = test_events(500, &opts.workload);
    let server = Server::start(opts).expect("server starts");

    // A garbage connection: neither `{` nor the MSB1 magic.
    let mut bad = TcpStream::connect(server.event_addr()).expect("connect");
    bad.write_all(b"GARBAGE STREAM").unwrap();
    bad.shutdown(std::net::Shutdown::Write).unwrap();

    // A valid connection right after must still be served in full.
    send_stream(server.event_addr(), &events, WireFormat::JsonLines);
    wait_for_ingest(&server, 500);
    let summary = server.shutdown();
    assert_eq!(summary.snapshot.events, 500);
    assert_eq!(summary.decode_errors, 1);
    assert_eq!(summary.connections, 2);
}

#[test]
fn session_rotation_preserves_lifetime_totals() {
    let mut opts = test_options(None);
    opts.workload = opts.workload.with_txns_per_batch(100);
    // Rotate every ~256 events: a 2_000-event stream crosses several
    // sessions, and the folded totals must still account for every event.
    opts.session_events = 256;
    let events = test_events(2_000, &opts.workload);
    let expected = reference_run(&test_options_like(&opts), events.clone()).expect("reference run");

    let server = Server::start(opts).expect("server starts");
    send_stream(server.event_addr(), &events, WireFormat::Binary);
    wait_for_ingest(&server, 2_000);
    let summary = server.shutdown();

    assert_eq!(summary.snapshot.events, 2_000);
    assert_eq!(summary.snapshot.committed, expected.snapshot.committed);
    assert_eq!(summary.snapshot.aborted, expected.snapshot.aborted);
    // State is carried across session rotations — digests still match a
    // single uninterrupted run.
    assert_eq!(summary.ledger_digest, expected.ledger_digest);
    assert_eq!(summary.output_digest, expected.output_digest);
}

#[test]
fn shutdown_does_not_depend_on_reaching_the_metrics_listener() {
    // The responder is told to stop through its flag, never through its own
    // socket, so a wildcard listen address is as good as loopback.
    let mut opts = test_options(None);
    opts.metrics_addr = "0.0.0.0:0".into();
    let server = Server::start(opts).expect("server starts");
    let started = Instant::now();
    let summary = server.shutdown();
    assert_eq!(summary.snapshot.events, 0);
    assert!(
        started.elapsed() < Duration::from_secs(2),
        "shutdown took {:?}",
        started.elapsed()
    );
}

/// The same options without rotation, for the reference side.
fn test_options_like(opts: &ServeOptions) -> ServeOptions {
    let mut reference = opts.clone();
    reference.session_events = 0;
    reference
}
