//! `morphstream loadgen`: a reproducible heavy-traffic client.
//!
//! Generates the Streaming Ledger event stream (millions of distinct keys,
//! Zipf-skewed via `common::zipf`, deterministic per seed), encodes it in
//! either wire format, and sends it in bursts — `burst` events back to back,
//! then a pause — so arrival is bursty rather than a smooth drip. Every
//! burst's socket write is timed: under server back-pressure the write
//! blocks (TCP flow control reaching the client), so the write-latency tail
//! *is* the back-pressure signal, reported alongside the achieved rate.
//!
//! `--reconnect` makes the client survive a failover window: failed
//! connects and mid-stream write errors are retried with capped exponential
//! backoff against the same address, re-sending the wire preamble and the
//! interrupted burst on the new connection. Events of that burst which the
//! old server had already ingested are sent again — delivery under
//! reconnection is at-least-once, which is why failover flows restart the
//! client with `--skip <morphstream_durable_events>` instead.
//!
//! A run ends by half-closing the connection and reading it to EOF. The
//! server closes its side only after its engine has ingested the last chunk
//! it read, so `Ok` means a live server ingested the whole stream; a reset
//! or read error (a server that died, or stopped reading) is an `Err`, and
//! the process exits non-zero.

use std::io::{self, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use morphstream_common::json::JsonObject;
use morphstream_common::metrics::LatencyRecorder;
use morphstream_common::protocol::WireFormat;
use morphstream_common::WorkloadConfig;
use morphstream_workloads::{SlEvent, StreamingLedgerApp};

use crate::codec::{encode_event, write_preamble};

/// Load-generation knobs; [`Default`] is the documented smoke profile.
#[derive(Debug, Clone)]
pub struct LoadgenOptions {
    /// Server event address to connect to.
    pub addr: String,
    /// Total events to send.
    pub events: usize,
    /// Generate but do not send the first N events of the deterministic
    /// stream — resume past what a recovered server already ingested.
    pub skip: usize,
    /// Distinct account keys the stream draws from.
    pub key_space: u64,
    /// Zipf skew of key popularity (0.0 = uniform).
    pub zipf_theta: f64,
    /// Fraction of transfer (vs deposit) events.
    pub transfer_ratio: f64,
    /// Wire format to send in.
    pub format: WireFormat,
    /// Events per burst (written back to back in one buffered flush).
    pub burst: usize,
    /// Pause between bursts.
    pub burst_pause: Duration,
    /// Workload generator seed, for reproducible streams.
    pub seed: u64,
    /// Retry failed connects and mid-stream write errors with capped
    /// exponential backoff instead of giving up.
    pub reconnect: bool,
}

impl Default for LoadgenOptions {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:7878".into(),
            events: 100_000,
            skip: 0,
            key_space: 2_000_000,
            zipf_theta: 0.6,
            transfer_ratio: 0.5,
            format: WireFormat::Binary,
            burst: 1024,
            burst_pause: Duration::ZERO,
            seed: 0xD5EE_D001,
            reconnect: false,
        }
    }
}

/// Consecutive failed attempts before `--reconnect` gives up.
const RECONNECT_ATTEMPTS: u32 = 20;
/// First reconnect backoff; doubles per failure up to the cap.
const RECONNECT_BACKOFF: Duration = Duration::from_millis(50);
const RECONNECT_BACKOFF_CAP: Duration = Duration::from_secs(2);

/// What the run achieved, as observed from the client side.
#[derive(Debug, Clone)]
pub struct LoadgenReport {
    /// Events sent — and, the run having ended `Ok`, ingested.
    pub sent: usize,
    /// Wall-clock duration of the whole run, up to the server's close.
    pub elapsed: Duration,
    /// Median per-burst socket write latency.
    pub p50_write_ms: f64,
    /// 95th-percentile per-burst socket write latency.
    pub p95_write_ms: f64,
    /// 99th-percentile per-burst socket write latency (the back-pressure
    /// tail).
    pub p99_write_ms: f64,
    /// Times the connection was (re-)established after a failure — failed
    /// connect attempts retried plus mid-stream reconnections. Always 0
    /// without `--reconnect`.
    pub reconnects: u64,
}

impl LoadgenReport {
    /// Achieved send rate in thousands of events per second.
    pub fn k_events_per_second(&self) -> f64 {
        if self.elapsed.is_zero() {
            0.0
        } else {
            self.sent as f64 / self.elapsed.as_secs_f64() / 1000.0
        }
    }

    /// One JSON object, for `BENCH_serve_smoke.json`-style artifacts.
    pub fn to_json(&self) -> String {
        JsonObject::new()
            .unsigned("sent", self.sent as u64)
            .fixed("elapsed_s", self.elapsed.as_secs_f64(), 4)
            .fixed("k_events_per_second", self.k_events_per_second(), 3)
            .fixed("p50_write_ms", self.p50_write_ms, 4)
            .fixed("p95_write_ms", self.p95_write_ms, 4)
            .fixed("p99_write_ms", self.p99_write_ms, 4)
            .unsigned("reconnects", self.reconnects)
            .build()
    }

    /// Human-readable one-paragraph summary.
    pub fn render(&self) -> String {
        let mut line = format!(
            "sent {} events in {:.2}s ({:.1}k events/s); burst write latency p50 {:.3}ms  p95 {:.3}ms  p99 {:.3}ms",
            self.sent,
            self.elapsed.as_secs_f64(),
            self.k_events_per_second(),
            self.p50_write_ms,
            self.p95_write_ms,
            self.p99_write_ms,
        );
        if self.reconnects > 0 {
            line.push_str(&format!("; {} reconnects", self.reconnects));
        }
        line
    }
}

/// Generate and send the stream; returns the client-side report.
pub fn run_loadgen(opts: &LoadgenOptions) -> io::Result<LoadgenReport> {
    let config = WorkloadConfig::streaming_ledger()
        .with_zipf_theta(opts.zipf_theta)
        .with_key_space(opts.key_space)
        .with_seed(opts.seed);
    let mut source = StreamingLedgerApp::source(&config, opts.events, opts.transfer_ratio);

    // Skip by generating and discarding: the generator is deterministic per
    // seed, so event `skip` here is byte-identical to event `skip` of a
    // run that sent the whole stream.
    source.by_ref().take(opts.skip).for_each(drop);

    let mut reconnects = 0u64;
    let mut stream = establish(opts, &mut reconnects)?;

    let burst = opts.burst.max(1);
    let mut events: Vec<SlEvent> = Vec::with_capacity(burst);
    let mut wire: Vec<u8> = Vec::with_capacity(burst * 32);
    let mut scratch: Vec<u8> = Vec::new();

    let mut writes = LatencyRecorder::new();
    let mut sent = 0usize;
    let started = Instant::now();
    loop {
        events.clear();
        events.extend(source.by_ref().take(burst));
        if events.is_empty() {
            break;
        }
        wire.clear();
        for event in &events {
            encode_event(event, opts.format, &mut scratch, &mut wire)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        }
        let mut burst_failures = 0u32;
        loop {
            let write_started = Instant::now();
            match stream.write_all(&wire) {
                Ok(()) => {
                    writes.record(write_started.elapsed());
                    break;
                }
                Err(e) if opts.reconnect && burst_failures < RECONNECT_ATTEMPTS => {
                    burst_failures += 1;
                    // The interrupted burst is re-sent whole on the new
                    // connection: at-least-once across the failure.
                    eprintln!("morphstream loadgen: write failed ({e}), reconnecting");
                    reconnects += 1;
                    stream = establish(opts, &mut reconnects)?;
                }
                Err(e) => return Err(e),
            }
        }
        sent += events.len();
        if !opts.burst_pause.is_zero() {
            std::thread::sleep(opts.burst_pause);
        }
    }
    stream.flush()?;
    // Half-close tells the server the stream is complete; it closes its side
    // once everything it read is ingested (see the module docs).
    stream.shutdown(std::net::Shutdown::Write)?;
    io::copy(&mut stream, &mut io::sink())?;
    let elapsed = started.elapsed();

    let pct = |p: f64| {
        writes
            .percentile(p)
            .map(|d| d.as_secs_f64() * 1000.0)
            .unwrap_or(0.0)
    };
    Ok(LoadgenReport {
        sent,
        elapsed,
        p50_write_ms: pct(50.0),
        p95_write_ms: pct(95.0),
        p99_write_ms: pct(99.0),
        reconnects,
    })
}

/// Connect and send the wire-format preamble. With `--reconnect`, failed
/// connect attempts are retried with capped exponential backoff (surviving
/// the window where a promoted standby is not yet listening); each retry
/// counts toward the report's `reconnects`.
fn establish(opts: &LoadgenOptions, reconnects: &mut u64) -> io::Result<TcpStream> {
    let mut backoff = RECONNECT_BACKOFF;
    let mut failures = 0u32;
    loop {
        let attempt = TcpStream::connect(&opts.addr).and_then(|stream| {
            stream.set_nodelay(true)?;
            let mut preamble = Vec::new();
            write_preamble(opts.format, &mut preamble);
            (&stream).write_all(&preamble)?;
            Ok(stream)
        });
        match attempt {
            Ok(stream) => return Ok(stream),
            Err(e) => {
                failures += 1;
                if !opts.reconnect || failures >= RECONNECT_ATTEMPTS {
                    return Err(e);
                }
                *reconnects += 1;
                std::thread::sleep(backoff);
                backoff = (backoff * 2).min(RECONNECT_BACKOFF_CAP);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;
    use std::net::TcpListener;

    #[test]
    fn reconnect_survives_a_dropped_connection() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let server = std::thread::spawn(move || {
            // First connection: accept and drop immediately — the client's
            // writes hit a reset mid-stream.
            let (first, _) = listener.accept().expect("accept first");
            drop(first);
            // Second connection: drain to EOF like a healthy server.
            let (mut second, _) = listener.accept().expect("accept second");
            let mut sink = Vec::new();
            second.read_to_end(&mut sink).expect("drain");
            sink.len()
        });

        let report = run_loadgen(&LoadgenOptions {
            addr: addr.to_string(),
            events: 20_000,
            burst: 256,
            reconnect: true,
            ..LoadgenOptions::default()
        })
        .expect("loadgen with --reconnect succeeds across the drop");
        assert_eq!(report.sent, 20_000);
        assert!(report.reconnects >= 1, "no reconnect was recorded");
        assert!(report.to_json().contains("\"reconnects\":"));
        assert!(report.render().contains("reconnects"));

        let drained = server.join().expect("server thread");
        assert!(drained > 0, "second connection saw no data");
    }

    /// A server that stops reading part-way and closes with bytes unread
    /// resets the connection: the client reports that as a failure, not as
    /// a stream sent.
    #[test]
    fn a_server_that_drops_the_stream_part_way_fails_the_run() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let server = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().expect("accept");
            let mut head = [0u8; 1024];
            conn.read_exact(&mut head)
                .expect("read the head of the stream");
            // Give the client time to write the whole stream into the
            // socket buffers and half-close, then drop it unread: the kernel
            // resets the connection. (A run that fails regardless of this
            // wait; a client that stops at its half-close would pass.)
            std::thread::sleep(Duration::from_millis(300));
        });
        let run = run_loadgen(&LoadgenOptions {
            addr: addr.to_string(),
            events: 20_000,
            ..LoadgenOptions::default()
        });
        server.join().expect("server thread");
        assert!(run.is_err(), "a dropped stream was reported as sent");
    }

    /// Against a real server, `Ok` means ingested: the count covers the
    /// stream the moment the run returns, without polling.
    #[test]
    fn an_ok_run_has_been_ingested_when_it_returns() {
        let mut opts = crate::ServeOptions::default();
        opts.workload.udf_complexity_us = 0;
        let server = crate::Server::start(opts).expect("server starts");
        let events = 50_000;
        let report = run_loadgen(&LoadgenOptions {
            addr: server.event_addr().to_string(),
            events,
            key_space: 10_000,
            ..LoadgenOptions::default()
        })
        .expect("loadgen against a live server");
        assert_eq!(report.sent, events);
        assert_eq!(server.events_ingested(), events as u64);
        assert_eq!(server.shutdown().snapshot.events, events as u64);
    }

    #[test]
    fn without_reconnect_a_dead_address_fails_fast() {
        // Bind then drop: the port is (momentarily) closed.
        let addr = {
            let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
            listener.local_addr().expect("addr").to_string()
        };
        let err = run_loadgen(&LoadgenOptions {
            addr,
            events: 16,
            ..LoadgenOptions::default()
        });
        assert!(err.is_err());
    }
}
