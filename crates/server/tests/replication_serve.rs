//! End-to-end replication through the server layer: a `--replicate-to`
//! primary ships its WAL to a [`StandbyHandle`], both sides expose the
//! replication families on `/metrics`, the `/promote` admin endpoint flips
//! the promote flag, and a promoted standby serves the rest of the stream
//! to digests identical to one uninterrupted run.

mod common;

use morphstream_common::protocol::WireFormat;

use std::time::{Duration, Instant};

use common::{
    http_get, metric_value, send_stream, temp_dir, test_events, test_options, wait_for_ingest,
};
use morphstream_server::{promote_requested, reference_run, AckMode, Server, StandbyHandle};

fn wait_for_durable(standby: &StandbyHandle, expected: u64) {
    let deadline = Instant::now() + Duration::from_secs(60);
    while standby.durable_index() < expected {
        assert!(
            Instant::now() < deadline,
            "standby replicated {} of {expected} events before the deadline",
            standby.durable_index()
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// The full failover story through the public server API: replicate under
/// sync acks, observe lag reach zero on both `/metrics` endpoints, promote
/// the standby, serve the rest of the stream there, and match the digests
/// of one uninterrupted reference run.
#[test]
fn replicated_serve_fails_over_to_a_promoted_standby_with_identical_digests() {
    const EVENTS: usize = 4_000;
    const HANDOFF: usize = 2_500;
    let primary_dir = temp_dir("primary");
    let standby_dir = temp_dir("standby");
    let events = test_events(EVENTS, &test_options(None).workload);
    let expected = reference_run(&test_options(None), events.clone()).expect("reference run");

    let standby = StandbyHandle::start(
        test_options(Some(standby_dir.clone())),
        "127.0.0.1:0".into(),
    )
    .expect("standby starts");
    assert!(standby.recovery().is_none(), "fresh standby data dir");

    let mut primary_opts = test_options(Some(primary_dir.clone()));
    primary_opts.replicate_to = Some(standby.listen_addr().to_string());
    primary_opts.ack = AckMode::Sync;
    let primary = Server::start(primary_opts).expect("primary starts");

    send_stream(primary.event_addr(), &events[..HANDOFF], WireFormat::Binary);
    wait_for_ingest(&primary, HANDOFF as u64);
    wait_for_durable(&standby, HANDOFF as u64);

    // Both sides expose the replication families, and the link is caught up.
    let (_, primary_scrape) = http_get(primary.metrics_addr(), "/metrics");
    assert_eq!(
        metric_value(&primary_scrape, "morphstream_standby_connected"),
        Some(1.0)
    );
    assert!(
        metric_value(
            &primary_scrape,
            "morphstream_replication_shipped_records_total"
        )
        .expect("primary exposes shipped records")
            >= HANDOFF as f64
    );
    assert_eq!(
        metric_value(&primary_scrape, "morphstream_replication_lag_records"),
        Some(0.0),
        "sync acks leave no lag after ingest finishes"
    );
    let (_, standby_scrape) = http_get(standby.metrics_addr(), "/metrics");
    assert_eq!(
        metric_value(&standby_scrape, "morphstream_standby_connected"),
        Some(1.0)
    );
    assert_eq!(
        metric_value(
            &standby_scrape,
            "morphstream_replication_shipped_records_total"
        ),
        Some(HANDOFF as f64)
    );
    assert_eq!(
        metric_value(&standby_scrape, "morphstream_replication_lag_records"),
        Some(0.0)
    );
    assert!(
        metric_value(&standby_scrape, "morphstream_replication_last_ack_seconds")
            .expect("standby exposes ack age")
            >= 0.0
    );
    assert_eq!(http_get(standby.metrics_addr(), "/healthz").1, "ok\n");

    // The admin endpoint flips the same flag SIGUSR1 does.
    assert!(!promote_requested());
    assert_eq!(
        http_get(standby.metrics_addr(), "/promote").1,
        "promoting\n"
    );
    assert!(promote_requested(), "/promote raises the promote flag");

    // Lose the primary, promote, and serve the rest of the stream there.
    primary.shutdown();
    let promoted = standby.promote().expect("promotion succeeds");
    send_stream(
        promoted.event_addr(),
        &events[HANDOFF..],
        WireFormat::Binary,
    );
    wait_for_ingest(&promoted, (EVENTS - HANDOFF) as u64);
    let summary = promoted.shutdown();

    assert_eq!(
        summary.ledger_digest, expected.ledger_digest,
        "ledger state diverged across failover"
    );
    assert_eq!(
        summary.audit_digest, expected.audit_digest,
        "audit state diverged across failover"
    );
    assert_eq!(
        summary.output_digest, expected.output_digest,
        "output stream diverged across failover"
    );
    let _ = std::fs::remove_dir_all(&primary_dir);
    let _ = std::fs::remove_dir_all(&standby_dir);
}
