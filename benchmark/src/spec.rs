//! What the benchmark measures: workloads, metrics, units, regression bounds.
//!
//! This table is the single source of `BENCHMARK.json` (`bench spec` prints
//! it; a unit test keeps the checked-in file equal), of the names `bench run`
//! reports, and of the bounds `bench compare` applies.

use crate::json::Json;
use Better::{Higher, Lower};

/// Default `--seed` (the Streaming Ledger generator's own default).
pub const DEFAULT_SEED: u64 = 0xD5EE_D001;
/// Default `--seconds`, and `run_seconds` in `BENCHMARK.json`.
pub const RUN_SECONDS: u64 = 10;

/// Offered rate of the open-loop phase of the serve workloads, in thousands
/// of events per second. A frozen constant, never adapted at run time: on
/// the seed it is under 60 % of `serve_durable`'s saturation rate, so the
/// backlog stays flat and latency is queueing-free unless a change stalls
/// the ingest path.
pub const RATE_FIXED_KEPS: f64 = 40.0;
/// Events per generator burst in the open-loop phase (one latency sample).
/// Deliberately not a divisor of the served punctuation interval: bursts then
/// land on every offset within a batch, so batch-fill wait is spread evenly
/// and the median does not sit on the edge between two clusters of bursts.
pub const BURST: usize = 160;
/// An open-loop burst slower than this counts as failed. Twenty times the
/// seed's tail: a stall of the shared host (a slow fsync, a descheduled
/// vCPU) stays under it, an offered rate the server cannot sustain does not.
pub const LATENCY_LIMIT_MS: f64 = 1_000.0;
/// Events a restart has to catch up with before `recovery_s` stops: the WAL
/// tail of `serve_durable`'s crash image, the events after the checkpoint a
/// library workload restores, the events `serve_mem`'s client sends again.
pub const CRASH_TAIL_EVENTS: u64 = 25_000;
/// Checkpoint interval of `serve_durable`, in events. Half the server's
/// default on purpose: at 40 keps a ~25 ms checkpoint pause every 100 000
/// events delays exactly 1 % of the bursts, so `latency_p99_ms` sat on the
/// edge of the pause and flipped between runs (52 ↔ 62 ms on the seed); at
/// 50 000 it delays 2 % and the p99 lies inside it.
pub const CHECKPOINT_INTERVAL: u64 = 50_000;

/// The six workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Streaming Ledger at the paper's Table-6 defaults.
    SlPaper,
    /// Streaming Ledger with no UDF cost and small batches.
    SlOverhead,
    /// Streaming Ledger, skewed, multi-key, aborting.
    SlContended,
    /// The fraud topology on the concurrent runtime.
    TopoFraud,
    /// The TCP server, in memory.
    ServeMem,
    /// The TCP server with WAL and checkpoints.
    ServeDurable,
}

/// Shape of a Streaming Ledger stream (the knobs of the paper's Table 6).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SlShape {
    /// Zipf skew θ of the account distribution.
    pub theta: f64,
    /// Share of transfers generated to abort.
    pub abort_ratio: f64,
    /// Emulated UDF cost C per operation, µs.
    pub udf_us: u64,
    /// Punctuation interval T, events.
    pub punctuation: usize,
    /// Number of accounts.
    pub key_space: u64,
    /// Share of transfers (two-key transactions); the rest deposit.
    pub transfer_ratio: f64,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 6] = [
        Workload::SlPaper,
        Workload::SlOverhead,
        Workload::SlContended,
        Workload::TopoFraud,
        Workload::ServeMem,
        Workload::ServeDurable,
    ];

    /// The name used on the command line and in every report.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SlPaper => "sl_paper",
            Workload::SlOverhead => "sl_overhead",
            Workload::SlContended => "sl_contended",
            Workload::TopoFraud => "topo_fraud",
            Workload::ServeMem => "serve_mem",
            Workload::ServeDurable => "serve_durable",
        }
    }

    /// Look a workload up by [`Workload::name`].
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload exists: which layers it stresses and which it
    /// bypasses (one line, recorded in `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::SlPaper => "paper fig11 point (theta 0.2, abort 1%, C=10us, T=10240, 100k keys): UDF work dominates, so execution moves it and TPG construction does not",
            Workload::SlOverhead => "paper fig16 shape (C=0, T=1024): the engine's own construct/explore/storage work is the cost; server and durability changes show nothing",
            Workload::SlContended => "theta 1.0, abort 20%, 10k keys, all transfers: long dependency chains, abort, redo and rollback; a fast path paid for by aborts loses here",
            Workload::TopoFraud => "two feeds -> enrichment -> keyed scoring x2 -> settlement on the concurrent runtime: route, order-restoring merge and bounded channels dominate",
            Workload::ServeMem => "socket -> decode -> engine lock -> push -> output, closed then open loop at 40 keps, no data dir: ingest changes show, WAL and checkpoint changes must not",
            Workload::ServeDurable => "serve_mem plus WAL (fsync per punctuation), checkpoints every 50k events and a crash-image restart: the delta to serve_mem is the durable cost",
        }
    }

    /// The Streaming Ledger stream the workload runs — or, for
    /// `topo_fraud`, the served shape its SL-typed layer probes (codec, WAL,
    /// checkpoint) replay, since scenario events have no wire form.
    pub fn sl_shape(self) -> SlShape {
        let served = SlShape {
            theta: 0.2,
            abort_ratio: 0.01,
            udf_us: 0,
            punctuation: 1_024,
            key_space: 100_000,
            transfer_ratio: 0.6,
        };
        match self {
            Workload::SlPaper => SlShape {
                udf_us: 10,
                punctuation: 10_240,
                ..served
            },
            Workload::SlContended => SlShape {
                theta: 1.0,
                abort_ratio: 0.2,
                key_space: 10_000,
                transfer_ratio: 1.0,
                ..served
            },
            Workload::SlOverhead
            | Workload::TopoFraud
            | Workload::ServeMem
            | Workload::ServeDurable => served,
        }
    }

    /// True for the two workloads that drive the TCP server.
    pub fn is_serve(self) -> bool {
        matches!(self, Workload::ServeMem | Workload::ServeDurable)
    }
}

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

impl Better {
    fn name(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One reported metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricSpec {
    /// Name, final: later issues cite it.
    pub name: &'static str,
    /// Unit, printed with every value.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse
    /// before `bench compare` (and the driver) call it a regression.
    /// `0.0` for per-layer metrics, which explain but never gate.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricSpec {
    e2e(name, unit, better, 0.0)
}

/// What a user of the system sees. Every workload reports every one of
/// these; README.md defines each per workload family.
///
/// One bound per metric has to hold on the noisiest workload it is measured
/// on, and the benchmark is only accepted while the run-to-run spread (the
/// interquartile range of ten runs over their median) of every metric on
/// every workload stays inside its bound. On the 2-core shared box the seed
/// was measured on, that depends on the hour (README.md, "Steadiness"): ten
/// runs per workload in a quiet one spread by at most 7 % (throughput), 5 %
/// (median latency), 11 % (tail latency) and 14 % (restart); in a noisy one,
/// when memory-bound work and threads that wait for each other
/// (`sl_overhead`, `sl_contended`, `topo_fraud`) ran up to 1.6 times slower
/// for minutes at a time, by 18 %, 17 % and 19 %, while `sl_paper`, which
/// spins on its cores, stayed within 6 % throughout. So every bound sits at
/// the contract's cap of 25 %, and `bench compare` prints next to each
/// verdict by how much the second file is worse and the spread it sees in
/// the two files, so that on the steady workloads a difference inside the
/// bound but outside the spread is there to read.
pub const END_TO_END: &[MetricSpec] = &[
    e2e("throughput_keps", "kevents/s", Higher, 0.25),
    e2e("latency_p50_ms", "ms", Lower, 0.25),
    e2e("latency_p99_ms", "ms", Lower, 0.25),
    e2e("recovery_s", "s", Lower, 0.25),
    e2e("setup_s", "s", Lower, 0.25),
];

/// What single layers do, measured in the traced run (`--trace 1`).
pub const PER_LAYER: &[MetricSpec] = &[
    layer("server.codec.decode_bin_ns_per_event", "ns/event", Lower),
    layer("server.codec.decode_json_ns_per_event", "ns/event", Lower),
    layer("server.codec.encode_bin_ns_per_event", "ns/event", Lower),
    layer("server.engine_only_keps", "kevents/s", Higher),
    layer("server.ingest.write_blocked_share", "ratio", Lower),
    layer("server.ingest.backlog_max_events", "events", Lower),
    layer("server.gen.late_share", "ratio", Lower),
    layer("server.metrics.scrape_p50_ms", "ms", Lower),
    layer("server.frames", "count", Higher),
    layer("server.decode_errors", "count", Lower),
    layer(
        "durability.wal.append_interval_ns_per_event",
        "ns/event",
        Lower,
    ),
    layer(
        "durability.wal.append_never_ns_per_event",
        "ns/event",
        Lower,
    ),
    layer(
        "durability.wal.append_always_us_per_event",
        "us/event",
        Lower,
    ),
    layer("durability.wal.bytes_per_event", "bytes/event", Lower),
    layer("durability.checkpoint.capture_ms", "ms", Lower),
    layer("durability.checkpoint.capture_incr_ms", "ms", Lower),
    layer("durability.checkpoint.encode_ms", "ms", Lower),
    layer("durability.checkpoint.save_ms", "ms", Lower),
    layer("durability.checkpoint.bytes", "bytes", Lower),
    layer("durability.serve.checkpoints_total", "count", Lower),
    layer("durability.serve.wal_segments", "count", Lower),
    layer("durability.recovery.load_chain_ms", "ms", Lower),
    layer(
        "durability.recovery.read_wal_ms_per_kevent",
        "ms/kevent",
        Lower,
    ),
    layer(
        "durability.recovery.replay_ms_per_kevent",
        "ms/kevent",
        Lower,
    ),
    layer("tpg.decompose_ns_per_event", "ns/event", Lower),
    layer("tpg.build_ns_per_op", "ns/op", Lower),
    layer("tpg.build_allocs_per_event", "allocs/event", Lower),
    layer("tpg.build_alloc_bytes_per_event", "bytes/event", Lower),
    layer("tpg.edges_per_op", "edges/op", Lower),
    layer("scheduler.decide_ns_per_batch", "ns/batch", Lower),
    layer("scheduler.share_coarse", "ratio", Higher),
    layer("scheduler.share_lazy_abort", "ratio", Higher),
    layer("scheduler.share_nonstructured", "ratio", Higher),
    layer("executor.execute_ns_per_op", "ns/op", Lower),
    layer("executor.execute_1t_ns_per_op", "ns/op", Lower),
    layer("executor.redone_ops_per_kevent", "ops/kevent", Lower),
    layer("executor.abort_share", "ratio", Lower),
    layer("executor.breakdown.useful_share", "ratio", Higher),
    layer("executor.breakdown.sync_share", "ratio", Lower),
    layer("executor.breakdown.lock_share", "ratio", Lower),
    layer("executor.breakdown.explore_share", "ratio", Lower),
    layer("executor.breakdown.abort_share", "ratio", Lower),
    layer("executor.allocs_per_event", "allocs/event", Lower),
    layer("storage.write_ns", "ns/op", Lower),
    layer("storage.read_before_ns", "ns/op", Lower),
    layer("storage.window_ns", "ns/op", Lower),
    layer("storage.rollback_ns", "ns/op", Lower),
    layer("storage.truncate_ns_per_version", "ns/version", Lower),
    layer("storage.write_allocs_per_op", "allocs/op", Lower),
    layer("storage.peak_bytes_retained", "bytes", Lower),
    layer("engine.batch_p50_ms", "ms", Lower),
    layer("engine.batch_tail_ms", "ms", Lower),
    layer("engine.keps_1t", "kevents/s", Higher),
    layer("engine.glue_share", "ratio", Lower),
    layer("engine.construct_overlap_share", "ratio", Higher),
    layer("engine.topology.concurrent_keps", "kevents/s", Higher),
    layer("engine.topology.serial_keps", "kevents/s", Higher),
    layer("engine.topology.queue_full_waits", "count", Lower),
    layer("engine.topology.busy_share.enrichment", "ratio", Lower),
    layer("engine.topology.busy_share.scoring", "ratio", Lower),
    layer("engine.topology.busy_share.settlement", "ratio", Lower),
    layer("dataflow.load_ms", "ms", Lower),
    layer("replication.ship_keps", "kevents/s", Higher),
    layer("replication.ship_ack_us_per_batch", "us/batch", Lower),
    layer("process.rss_growth_mb", "MB", Lower),
    layer("trace.overhead_share", "ratio", Lower),
];

/// Look an end-to-end or per-layer metric up by name.
pub fn metric(name: &str) -> Option<&'static MetricSpec> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

/// The contents of `BENCHMARK.json`.
pub fn benchmark_json() -> Json {
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--bin",
        "bench",
        "--",
        "run",
    ];
    let metric_json = |m: &MetricSpec, bounded: bool| {
        let mut pairs = vec![
            ("name", Json::from(m.name)),
            ("unit", Json::from(m.unit)),
            ("better", Json::from(m.better.name())),
        ];
        if bounded {
            pairs.push(("bound", Json::Num(m.bound)));
        }
        Json::object(pairs)
    };
    Json::object([
        (
            "command",
            Json::Arr(command.into_iter().map(Json::from).collect()),
        ),
        ("paths", Json::Arr(vec![Json::from("benchmark")])),
        ("run_seconds", Json::from(RUN_SECONDS)),
        (
            "workloads",
            Json::Arr(
                Workload::ALL
                    .into_iter()
                    .map(|w| {
                        Json::object([("name", Json::from(w.name())), ("why", Json::from(w.why()))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(END_TO_END.iter().map(|m| metric_json(m, true)).collect()),
        ),
        (
            "per_layer",
            Json::Arr(PER_LAYER.iter().map(|m| metric_json(m, false)).collect()),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn is_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn is_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn the_table_meets_the_benchmark_contract() {
        let mut names = BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(is_name(m.name), "bad metric name {}", m.name);
            assert!(is_unit(m.unit), "bad unit {} on {}", m.unit, m.name);
            assert!(names.insert(m.name), "duplicate metric {}", m.name);
        }
        for w in Workload::ALL {
            assert!(is_name(w.name()));
            assert!(names.insert(w.name()), "name {} used twice", w.name());
            assert!(w.why().len() <= 200 && !w.why().contains('\n'));
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = metric("setup_s").expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!(benchmark_json().to_string().len() < 64 * 1024);
    }

    #[test]
    fn the_checked_in_benchmark_json_is_this_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            Json::parse(&text).expect("BENCHMARK.json parses"),
            benchmark_json(),
            "regenerate with `bench spec > BENCHMARK.json`"
        );
    }
}
