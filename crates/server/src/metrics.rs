//! Live observability: lifetime metric state and the `/metrics` endpoint.
//!
//! [`ServerMetrics`] holds the server's lifetime totals as a folded
//! [`ReportSnapshot`] (sessions rotate to bound report memory; each finished
//! session's snapshot is folded in) plus socket-layer counters maintained by
//! the connection handlers. A scrape combines the folded base with a live
//! snapshot of the current session and renders Prometheus text exposition
//! format — every number a scrape reports therefore sums to exactly what the
//! final [`RunReport`](morphstream::RunReport) would say if the server shut
//! down at that instant.
//!
//! The HTTP side is a deliberately small single-threaded responder: scrapes
//! are rare, the response is one string, and pulling in an HTTP stack for
//! two GET routes would dwarf the server itself.

use std::fmt::Write as _;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use morphstream::{OperatorCounters, ReportSnapshot};
use morphstream_durability::DurableStats;
use morphstream_replication::ReplicationStats;

/// Durability counters as the ingest path last mirrored them from its
/// [`DurableEngine`](morphstream_durability::DurableEngine) (which owns the
/// real ones), behind a lock of their own so that scrapes never wait for
/// the engine lock.
#[derive(Default)]
pub struct DurabilityStats(Mutex<Mirrored>);

#[derive(Default, Clone, Copy)]
struct Mirrored {
    enabled: bool,
    stats: DurableStats,
    /// When the checkpoint count last moved, on the metrics clock.
    last_checkpoint_at: Option<Duration>,
    recoveries: u64,
    recovered_events: u64,
}

impl DurabilityStats {
    fn lock(&self) -> std::sync::MutexGuard<'_, Mirrored> {
        self.0.lock().expect("metrics lock")
    }

    /// Mark durability as configured: scrapes expose the family even while
    /// all counters are still zero.
    pub fn enable(&self) {
        self.lock().enabled = true;
    }

    /// Record a crash recovery that replayed `replayed` WAL events.
    pub fn record_recovery(&self, replayed: u64) {
        let mut m = self.lock();
        m.enabled = true;
        m.recoveries += 1;
        m.recovered_events += replayed;
    }

    /// Mirror the engine's cumulative counters. `now` is the current reading
    /// of the metrics clock (see [`ServerMetrics::clock`]); it becomes the
    /// last-checkpoint time when the count moved.
    pub fn mirror(&self, stats: DurableStats, now: Duration) {
        let mut m = self.lock();
        if stats.checkpoints != m.stats.checkpoints {
            m.last_checkpoint_at = Some(now);
        }
        m.stats = stats;
    }

    /// Append the checkpoint/WAL metric families to a scrape body; nothing
    /// unless durability is configured. `now` is the current reading of the
    /// metrics clock, for the last-checkpoint age.
    fn render(&self, out: &mut String, now: Duration) {
        let m = *self.lock();
        if !m.enabled {
            return;
        }
        counter(
            out,
            "morphstream_checkpoints_total",
            "Checkpoints published.",
            m.stats.checkpoints,
        );
        counter(
            out,
            "morphstream_checkpoint_bytes_total",
            "Bytes written by published checkpoints.",
            m.stats.checkpoint_bytes,
        );
        counter(
            out,
            "morphstream_wal_records_total",
            "Records appended to the write-ahead log (events + punctuation markers).",
            m.stats.wal_records,
        );
        counter(
            out,
            "morphstream_wal_bytes_total",
            "Bytes appended to the write-ahead log, including framing.",
            m.stats.wal_bytes,
        );
        counter(
            out,
            "morphstream_recoveries_total",
            "Crash recoveries performed at startup.",
            m.recoveries,
        );
        counter(
            out,
            "morphstream_recovered_events_total",
            "Events replayed from the write-ahead log during recovery.",
            m.recovered_events,
        );
        gauge(
            out,
            "morphstream_wal_segments",
            "Write-ahead log segment files currently on disk.",
            m.stats.wal_segments as f64,
        );
        gauge(
            out,
            "morphstream_durable_events",
            "Events durably logged (the WAL's next index); a resuming client skips this many.",
            m.stats.next_index as f64,
        );
        gauge(
            out,
            "morphstream_last_checkpoint_seconds",
            "Duration of the most recent checkpoint.",
            m.stats.last_checkpoint.as_secs_f64(),
        );
        gauge(
            out,
            "morphstream_last_checkpoint_age_seconds",
            "Seconds since the most recent checkpoint (-1 = none yet).",
            m.last_checkpoint_at
                .map_or(-1.0, |at| now.as_secs_f64() - at.as_secs_f64()),
        );
    }
}

/// Shared metric state: folded lifetime totals plus socket-layer counters.
pub struct ServerMetrics {
    /// Totals of every *finished* session, folded.
    base: Mutex<ReportSnapshot>,
    /// Last coherent lifetime total (base + live), served when the engine
    /// lock is contended at scrape time (e.g. blocked in back-pressure).
    cached: Mutex<ReportSnapshot>,
    /// Connections accepted over the server's lifetime.
    pub connections: AtomicU64,
    /// Frames/lines decoded over the server's lifetime.
    pub frames: AtomicU64,
    /// Connections closed by a protocol error.
    pub decode_errors: AtomicU64,
    /// Checkpoint/WAL counters (zero and hidden unless durability is on).
    pub durability: DurabilityStats,
    /// Replication counters (primary's sender or standby's receiver);
    /// hidden from scrapes until attached with
    /// [`ServerMetrics::set_replication`].
    replication: Mutex<Option<Arc<ReplicationStats>>>,
    /// Epoch of the gauges' time axis (checkpoint age).
    started: Instant,
}

impl Default for ServerMetrics {
    fn default() -> Self {
        Self::new()
    }
}

impl ServerMetrics {
    /// Fresh, all-zero metric state.
    pub fn new() -> Self {
        Self {
            base: Mutex::new(ReportSnapshot::default()),
            cached: Mutex::new(ReportSnapshot::default()),
            connections: AtomicU64::new(0),
            frames: AtomicU64::new(0),
            decode_errors: AtomicU64::new(0),
            durability: DurabilityStats::default(),
            replication: Mutex::new(None),
            started: Instant::now(),
        }
    }

    /// Attach the replication counters this server should expose (the
    /// sender's on a replicating primary, the receiver's on a standby).
    pub fn set_replication(&self, stats: Arc<ReplicationStats>) {
        *self.replication.lock().expect("metrics lock") = Some(stats);
    }

    /// The attached replication counters, if any.
    pub fn replication(&self) -> Option<Arc<ReplicationStats>> {
        self.replication.lock().expect("metrics lock").clone()
    }

    /// Current reading of the metrics clock (feeds
    /// [`DurabilityStats::mirror`] and the age gauge).
    pub fn clock(&self) -> Duration {
        self.started.elapsed()
    }

    /// [`DurabilityStats::mirror`] at the current clock reading.
    pub fn mirror_durable(&self, stats: DurableStats) {
        self.durability.mirror(stats, self.clock());
    }

    /// Fold a finished session's snapshot into the lifetime base.
    pub fn fold_session(&self, snapshot: &ReportSnapshot) {
        self.base.lock().expect("metrics lock").fold(snapshot);
    }

    /// Lifetime totals given a live snapshot of the current session; also
    /// refreshes the stale-scrape cache.
    pub fn total_with_live(&self, live: &ReportSnapshot) -> ReportSnapshot {
        let mut total = self.base.lock().expect("metrics lock").clone();
        total.fold(live);
        *self.cached.lock().expect("metrics lock") = total.clone();
        total
    }

    /// The last coherent lifetime total, for scrapes that cannot take the
    /// engine lock without blocking behind back-pressure. (The durability
    /// families a scrape renders are live either way: their mirror has a
    /// lock of its own.)
    pub fn cached_total(&self) -> ReportSnapshot {
        self.cached.lock().expect("metrics lock").clone()
    }
}

fn counter(out: &mut String, name: &str, help: &str, value: u64) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} counter");
    let _ = writeln!(out, "{name} {value}");
}

fn gauge(out: &mut String, name: &str, help: &str, value: f64) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} gauge");
    let _ = writeln!(out, "{name} {value}");
}

/// Render a lifetime snapshot as Prometheus text exposition format
/// (version 0.0.4): `# HELP`/`# TYPE` headers, counters suffixed `_total`,
/// label values escaped per the spec. Latency is exposed as a proper
/// histogram (`_bucket`/`_sum`/`_count`). The engine families come from
/// `total`; the socket, durability and replication ones from `metrics`.
pub fn render_prometheus(total: &ReportSnapshot, metrics: &ServerMetrics) -> String {
    render_at(total, metrics, metrics.clock())
}

/// [`render_prometheus`] at the metrics-clock reading `now`.
fn render_at(total: &ReportSnapshot, metrics: &ServerMetrics, now: Duration) -> String {
    let mut out = String::with_capacity(2048);
    counter(
        &mut out,
        "morphstream_events_total",
        "Events processed (committed + aborted transactions).",
        total.events,
    );
    counter(
        &mut out,
        "morphstream_committed_total",
        "Committed transactions.",
        total.committed,
    );
    counter(
        &mut out,
        "morphstream_aborted_total",
        "Aborted transactions.",
        total.aborted,
    );
    counter(
        &mut out,
        "morphstream_redone_ops_total",
        "Operations redone because of upstream aborts.",
        total.redone_ops,
    );
    counter(
        &mut out,
        "morphstream_coarse_unit_builds_total",
        "Coarse scheduling-unit partitions built (0 per batch the TD/PD test sends to fine-grained scheduling).",
        total.coarse_unit_builds,
    );
    counter(
        &mut out,
        "morphstream_reclaim_keys_visited_total",
        "Version chains visited by after-batch reclaims (keys written since their last reclaim, not keys held).",
        total.reclaim_keys_visited,
    );
    counter(
        &mut out,
        "morphstream_batches_total",
        "Punctuation batches processed.",
        total.batches,
    );
    counter(
        &mut out,
        "morphstream_connections_total",
        "TCP event connections accepted.",
        metrics.connections.load(Ordering::Relaxed),
    );
    counter(
        &mut out,
        "morphstream_frames_total",
        "Wire frames (binary) or lines (JSON) decoded.",
        metrics.frames.load(Ordering::Relaxed),
    );
    counter(
        &mut out,
        "morphstream_decode_errors_total",
        "Connections closed by a protocol error.",
        metrics.decode_errors.load(Ordering::Relaxed),
    );

    gauge(
        &mut out,
        "morphstream_processing_seconds",
        "Engine-occupancy processing time summed over batches.",
        total.processing_seconds,
    );
    gauge(
        &mut out,
        "morphstream_events_per_second",
        "Throughput implied by the lifetime counters.",
        total.events_per_second(),
    );
    gauge(
        &mut out,
        "morphstream_peak_bytes_retained",
        "Largest state-store footprint observed.",
        total.peak_bytes_retained as f64,
    );
    gauge(
        &mut out,
        "morphstream_batch_workers",
        "Workers the newest batch engaged: what its declared UDF work pays for, at most --threads.",
        total.batch_workers as f64,
    );

    // End-to-end latency as a real histogram: cumulative buckets, quantiles
    // computable server-side with histogram_quantile().
    let _ = writeln!(
        out,
        "# HELP morphstream_latency_ms End-to-end event latency in milliseconds."
    );
    let _ = writeln!(out, "# TYPE morphstream_latency_ms histogram");
    for (bound, cumulative) in total.latency.cumulative_buckets() {
        if bound.is_finite() {
            let _ = writeln!(
                out,
                "morphstream_latency_ms_bucket{{le=\"{bound}\"}} {cumulative}"
            );
        } else {
            let _ = writeln!(
                out,
                "morphstream_latency_ms_bucket{{le=\"+Inf\"}} {cumulative}"
            );
        }
    }
    let _ = writeln!(out, "morphstream_latency_ms_sum {}", total.latency.sum_ms);
    let _ = writeln!(out, "morphstream_latency_ms_count {}", total.latency.count);

    metrics.durability.render(&mut out, now);

    if let Some(repl) = metrics.replication() {
        gauge(
            &mut out,
            "morphstream_standby_connected",
            "Whether the replication link is currently established (1 = yes).",
            repl.is_connected() as u64 as f64,
        );
        counter(
            &mut out,
            "morphstream_replication_shipped_records_total",
            "WAL records shipped over the replication link (sent on the primary, received on the standby).",
            repl.shipped_records(),
        );
        counter(
            &mut out,
            "morphstream_replication_shipped_bytes_total",
            "WAL payload bytes shipped over the replication link.",
            repl.shipped_bytes(),
        );
        gauge(
            &mut out,
            "morphstream_replication_lag_records",
            "Events the standby's acknowledged durable position trails the primary's WAL tip by.",
            repl.lag_records() as f64,
        );
        gauge(
            &mut out,
            "morphstream_replication_lag_seconds",
            "Seconds of replication lag (0 when fully acknowledged).",
            repl.lag_seconds(),
        );
        gauge(
            &mut out,
            "morphstream_replication_last_ack_seconds",
            "Seconds since the last replication acknowledgement (-1 = none yet).",
            repl.last_ack_seconds(),
        );
    }

    type Column = (&'static str, &'static str, fn(&OperatorCounters) -> u64);
    const OPERATOR_COLUMNS: [Column; 4] = [
        ("events", "Events processed", |op| op.events),
        ("committed", "Committed transactions", |op| op.committed),
        ("aborted", "Aborted transactions", |op| op.aborted),
        ("batches", "Punctuation batches", |op| op.batches),
    ];
    if !total.operators.is_empty() {
        for (column, help, value) in OPERATOR_COLUMNS {
            let name = format!("morphstream_operator_{column}_total");
            let _ = writeln!(out, "# HELP {name} {help} per operator instance.");
            let _ = writeln!(out, "# TYPE {name} counter");
            for op in &total.operators {
                let operator = escape_label(&op.name);
                let _ = writeln!(out, "{name}{{operator=\"{operator}\"}} {}", value(op));
            }
        }
    }
    if !total.edges.is_empty() {
        let _ = writeln!(
            out,
            "# HELP morphstream_edge_queue_full_waits_total Sender blocks on a full bounded channel, per dataflow edge."
        );
        let _ = writeln!(
            out,
            "# TYPE morphstream_edge_queue_full_waits_total counter"
        );
        for edge in &total.edges {
            let _ = writeln!(
                out,
                "morphstream_edge_queue_full_waits_total{{from=\"{}\",to=\"{}\"}} {}",
                escape_label(&edge.from),
                escape_label(&edge.to),
                edge.queue_full_waits
            );
        }
    }
    out
}

/// Escape a Prometheus label value (backslash, quote, newline).
fn escape_label(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Serve `/metrics` and `/healthz` on `listener` until `running` reports
/// false. Requests are handled one at a time; `scrape` produces the metrics
/// body on demand.
pub(crate) fn serve_http(
    listener: TcpListener,
    running: impl Fn() -> bool,
    scrape: impl Fn() -> String,
) {
    serve_http_with(listener, running, scrape, |_| None);
}

/// [`serve_http`] plus an extra route hook: `extra` sees the request path
/// first and may claim it with a `(status, content_type, body)` response
/// (the standby's `/promote` admin endpoint rides on this).
///
/// The listener is polled rather than blocked on, so the loop leaves within
/// a poll of `running` turning false whatever the listen address is; the
/// idle tick is 1 ms because it is also the floor under every scrape's
/// latency.
pub(crate) fn serve_http_with(
    listener: TcpListener,
    running: impl Fn() -> bool,
    scrape: impl Fn() -> String,
    extra: impl Fn(&str) -> Option<(&'static str, &'static str, String)>,
) {
    listener
        .set_nonblocking(true)
        .expect("metrics listener nonblocking");
    while running() {
        match listener.accept() {
            Ok((stream, _)) => handle_http(stream, &scrape, &extra),
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(1));
            }
            // Out of descriptors or the like: give it a moment to pass.
            Err(_) => std::thread::sleep(Duration::from_millis(20)),
        }
    }
}

fn handle_http(
    mut stream: std::net::TcpStream,
    scrape: &impl Fn() -> String,
    extra: &impl Fn(&str) -> Option<(&'static str, &'static str, String)>,
) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
    let _ = stream.set_nodelay(true);
    // Read until the end of the request headers (or timeout); only the
    // request line matters for routing.
    let mut request = Vec::new();
    let mut chunk = [0u8; 1024];
    while !request.windows(4).any(|w| w == b"\r\n\r\n") && request.len() < 8192 {
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => request.extend_from_slice(&chunk[..n]),
            Err(_) => break,
        }
    }
    let request_line = request
        .split(|&b| b == b'\r' || b == b'\n')
        .next()
        .unwrap_or(b"");
    let path = std::str::from_utf8(request_line)
        .ok()
        .and_then(|line| line.split_whitespace().nth(1))
        .unwrap_or("");
    let (status, content_type, body) = match extra(path) {
        Some(response) => response,
        None => match path {
            "/metrics" => (
                "200 OK",
                "text/plain; version=0.0.4; charset=utf-8",
                scrape(),
            ),
            "/healthz" => ("200 OK", "text/plain; charset=utf-8", "ok\n".to_string()),
            _ => (
                "404 Not Found",
                "text/plain; charset=utf-8",
                "not found\n".to_string(),
            ),
        },
    };
    let response = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    let _ = stream.write_all(response.as_bytes());
    let _ = stream.shutdown(std::net::Shutdown::Both);
}

/// Bind the metrics listener, returning it with its resolved address
/// (`addr` may use port 0 for an ephemeral port in tests).
pub(crate) fn bind(addr: &str) -> std::io::Result<(TcpListener, SocketAddr)> {
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    Ok((listener, local))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prometheus_text_is_well_formed_and_carries_the_counters() {
        let metrics = ServerMetrics::new();
        metrics.connections.store(2, Ordering::Relaxed);
        metrics.frames.store(100, Ordering::Relaxed);
        let mut total = ReportSnapshot {
            events: 100,
            committed: 95,
            aborted: 5,
            batches: 10,
            coarse_unit_builds: 3,
            reclaim_keys_visited: 1_234,
            processing_seconds: 0.5,
            ..Default::default()
        };
        total.edges.push(morphstream::EdgeReport {
            from: "ledger".into(),
            to: "audit".into(),
            queue_full_waits: 7,
        });
        let text = render_prometheus(&total, &metrics);
        assert!(text.contains("morphstream_events_total 100\n"));
        assert!(text.contains("morphstream_committed_total 95\n"));
        assert!(text.contains("morphstream_connections_total 2\n"));
        assert!(text.contains("morphstream_coarse_unit_builds_total 3\n"));
        assert!(text.contains("morphstream_reclaim_keys_visited_total 1234\n"));
        assert!(text
            .contains("morphstream_edge_queue_full_waits_total{from=\"ledger\",to=\"audit\"} 7\n"));
        // every exposed family carries HELP and TYPE headers
        for line in text.lines() {
            if line.starts_with('#') {
                assert!(
                    line.starts_with("# HELP ") || line.starts_with("# TYPE "),
                    "stray comment: {line}"
                );
            }
        }
    }

    #[test]
    fn latency_is_a_histogram() {
        let metrics = ServerMetrics::new();
        let mut total = ReportSnapshot::default();
        total.latency.observe_micros(700); // 0.7ms → le="1" bucket
        total.latency.observe_micros(30_000); // 30ms → le="50" bucket

        let text = render_prometheus(&total, &metrics);
        assert!(text.contains("# TYPE morphstream_latency_ms histogram\n"));
        assert!(text.contains("morphstream_latency_ms_bucket{le=\"0.5\"} 0\n"));
        assert!(text.contains("morphstream_latency_ms_bucket{le=\"1\"} 1\n"));
        assert!(text.contains("morphstream_latency_ms_bucket{le=\"50\"} 2\n"));
        assert!(text.contains("morphstream_latency_ms_bucket{le=\"+Inf\"} 2\n"));
        assert!(text.contains("morphstream_latency_ms_count 2\n"));
        assert!(!text.contains("morphstream_p50_latency_ms"));
        // the bucket sequence is monotonically non-decreasing
        let counts: Vec<u64> = text
            .lines()
            .filter(|l| l.starts_with("morphstream_latency_ms_bucket"))
            .map(|l| l.rsplit(' ').next().unwrap().parse().unwrap())
            .collect();
        assert!(counts.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn durability_family_appears_once_enabled() {
        let metrics = ServerMetrics::new();
        let total = ReportSnapshot::default();
        let silent = render_prometheus(&total, &metrics);
        assert!(!silent.contains("morphstream_checkpoints_total"));

        metrics.durability.record_recovery(17);
        metrics.mirror_durable(DurableStats {
            next_index: 38,
            wal_records: 40,
            wal_bytes: 2048,
            wal_segments: 2,
            checkpoints: 1,
            checkpoint_bytes: 4096,
            last_checkpoint: Duration::from_millis(3),
        });
        let text = render_prometheus(&total, &metrics);
        assert!(text.contains("morphstream_checkpoints_total 1\n"));
        assert!(text.contains("morphstream_checkpoint_bytes_total 4096\n"));
        assert!(text.contains("morphstream_wal_records_total 40\n"));
        assert!(text.contains("morphstream_recovered_events_total 17\n"));
        assert!(text.contains("morphstream_durable_events 38\n"));
        assert!(text.contains("morphstream_wal_segments 2\n"));
        assert!(text.contains("morphstream_last_checkpoint_seconds 0.003"));
    }

    /// The durability families moved from a struct inside the snapshot to
    /// the mirror itself, and the per-operator families into one loop; what
    /// a scrape says did not change. The fixture is an earlier rendering of
    /// this same input; a scrape may gain families (as it gained
    /// `morphstream_batch_workers`), never change or lose one.
    #[test]
    fn a_durable_scrape_is_byte_identical_to_the_parent_commits() {
        let metrics = ServerMetrics::new();
        metrics.connections.store(2, Ordering::Relaxed);
        metrics.frames.store(100, Ordering::Relaxed);
        metrics.durability.record_recovery(17);
        metrics.durability.mirror(
            DurableStats {
                next_index: 38,
                wal_records: 40,
                wal_bytes: 2048,
                wal_segments: 2,
                checkpoints: 1,
                checkpoint_bytes: 4096,
                last_checkpoint: Duration::from_millis(3),
            },
            Duration::from_millis(2_000),
        );
        let mut total = ReportSnapshot {
            events: 100,
            committed: 95,
            aborted: 5,
            redone_ops: 4,
            coarse_unit_builds: 3,
            reclaim_keys_visited: 1_234,
            batches: 10,
            processing_seconds: 0.5,
            peak_bytes_retained: 4_096,
            batch_workers: 2,
            ..Default::default()
        };
        total.latency.observe_micros(700);
        total.latency.observe_micros(30_000);
        for (name, events) in [("ledger", 100), ("au\"dit#1", 60)] {
            total.operators.push(OperatorCounters {
                name: name.into(),
                events,
                committed: events - 2,
                aborted: 2,
                batches: 10,
            });
        }
        total.edges.push(morphstream::EdgeReport {
            from: "ledger".into(),
            to: "au\"dit".into(),
            queue_full_waits: 7,
        });
        let text = render_at(&total, &metrics, Duration::from_millis(5_500));
        assert_eq!(text, include_str!("../tests/fixtures/durable_scrape.prom"));
    }

    #[test]
    fn replication_family_appears_once_attached() {
        let metrics = ServerMetrics::new();
        let total = ReportSnapshot::default();
        let silent = render_prometheus(&total, &metrics);
        assert!(!silent.contains("morphstream_standby_connected"));

        let stats = Arc::new(ReplicationStats::new());
        stats.set_connected(true);
        stats.set_wal_next(120);
        stats.add_shipped(100, 3200);
        stats.record_ack(100);
        metrics.set_replication(Arc::clone(&stats));
        let text = render_prometheus(&total, &metrics);
        assert!(text.contains("morphstream_standby_connected 1\n"));
        assert!(text.contains("morphstream_replication_shipped_records_total 100\n"));
        assert!(text.contains("morphstream_replication_shipped_bytes_total 3200\n"));
        assert!(text.contains("morphstream_replication_lag_records 20\n"));
        assert!(text.contains("morphstream_replication_lag_seconds"));
        assert!(text.contains("morphstream_replication_last_ack_seconds"));
    }

    #[test]
    fn label_escaping_covers_quotes_and_backslashes() {
        assert_eq!(escape_label(r#"a"b\c"#), r#"a\"b\\c"#);
    }
}
