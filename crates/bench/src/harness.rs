//! Shared helpers for the figure harnesses: build a system under test, run a
//! workload through it, and report throughput/latency in the paper's units.

use morphstream::storage::StateStore;
use morphstream::{EngineConfig, MorphStream, RunReport, TxnEngine};
use morphstream_baselines::{LockedSpeEngine, SStoreEngine, SystemUnderTest, TStreamEngine};
use morphstream_common::json::JsonObject;
use morphstream_common::WorkloadConfig;
use morphstream_workloads::{SlEvent, StreamingLedgerApp};

/// How big to run an experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// A few thousand events: the `fig*` binaries' default and CI smoke runs.
    Smoke,
    /// Tens of thousands of events: closer to the paper's batch sizes; used
    /// by the `fig*` binaries when `--full` is passed.
    Full,
}

impl Scale {
    /// Parse from command-line arguments: `--full` selects [`Scale::Full`].
    pub fn from_args() -> Self {
        if std::env::args().any(|a| a == "--full") {
            Scale::Full
        } else {
            Scale::Smoke
        }
    }

    /// Multiplier applied to event counts.
    pub fn factor(self) -> usize {
        match self {
            Scale::Smoke => 1,
            Scale::Full => 8,
        }
    }

    /// Stable lowercase name, used in machine-readable output.
    pub fn name(self) -> &'static str {
        match self {
            Scale::Smoke => "smoke",
            Scale::Full => "full",
        }
    }
}

/// Condensed result of running one system on one workload.
#[derive(Debug, Clone)]
pub struct SystemReport {
    /// Which system ran.
    pub system: SystemUnderTest,
    /// Throughput in thousands of events per second.
    pub k_events_per_second: f64,
    /// Median end-to-end latency in milliseconds.
    pub p50_latency_ms: f64,
    /// 95th-percentile latency in milliseconds.
    pub p95_latency_ms: f64,
    /// Committed / aborted transaction counts.
    pub committed: usize,
    /// Aborted transaction count.
    pub aborted: usize,
    /// Peak bytes retained by the state store during the run (the memory
    /// axis of Figures 16/17).
    pub peak_bytes_retained: u64,
    /// Total TPG-construction wall time across batches (seconds).
    pub construct_seconds: f64,
}

impl SystemReport {
    /// Build from a run report.
    pub fn from_run<O>(system: SystemUnderTest, report: RunReport<O>) -> Self {
        let p50 = report
            .latency
            .percentile(50.0)
            .map(|d| d.as_secs_f64() * 1e3)
            .unwrap_or(0.0);
        let p95 = report
            .latency
            .percentile(95.0)
            .map(|d| d.as_secs_f64() * 1e3)
            .unwrap_or(0.0);
        Self {
            system,
            k_events_per_second: report.k_events_per_second(),
            p50_latency_ms: p50,
            p95_latency_ms: p95,
            committed: report.committed,
            aborted: report.aborted,
            peak_bytes_retained: report.memory.peak_bytes(),
            construct_seconds: report.stage_timings.construct.as_secs_f64(),
        }
    }

    /// One formatted table row.
    pub fn row(&self) -> String {
        format!(
            "{:<28} {:>12.2} {:>12.2} {:>12.2} {:>10} {:>10}",
            self.system.to_string(),
            self.k_events_per_second,
            self.p50_latency_ms,
            self.p95_latency_ms,
            self.committed,
            self.aborted
        )
    }

    /// Table header matching [`SystemReport::row`].
    pub fn header() -> String {
        format!(
            "{:<28} {:>12} {:>12} {:>12} {:>10} {:>10}",
            "system", "k events/s", "p50 ms", "p95 ms", "committed", "aborted"
        )
    }

    /// One JSON object row, rendered through the workspace-shared
    /// [`morphstream_common::json`] path (serde is feature-gated off in
    /// offline builds).
    pub fn json(&self) -> String {
        JsonObject::new()
            .string("system", &self.system.to_string())
            .fixed("k_events_per_second", self.k_events_per_second, 3)
            .fixed("p50_latency_ms", self.p50_latency_ms, 4)
            .fixed("p95_latency_ms", self.p95_latency_ms, 4)
            .unsigned("committed", self.committed as u64)
            .unsigned("aborted", self.aborted as u64)
            .unsigned("peak_bytes_retained", self.peak_bytes_retained)
            .fixed("construct_s", self.construct_seconds, 6)
            .build()
    }
}

pub(crate) use morphstream_common::json::escape as json_escape;

/// Parse `--json PATH` from the command line of a `fig*` binary. Exits with
/// an error if `--json` is present without a following path, so a malformed
/// invocation cannot silently skip writing the file.
pub fn json_path_from_args() -> Option<std::path::PathBuf> {
    let mut args = std::env::args();
    while let Some(arg) = args.next() {
        if arg == "--json" {
            return match args.next() {
                Some(path) => Some(std::path::PathBuf::from(path)),
                None => {
                    eprintln!("error: --json requires a path argument");
                    std::process::exit(2);
                }
            };
        }
    }
    None
}

/// Write `reports` to `path` as one JSON document, tagging the benchmark name
/// and scale. This is what the CI smoke-bench job uploads to seed the
/// `BENCH_*.json` perf trajectory.
pub fn write_json(
    path: &std::path::Path,
    bench: &str,
    scale: Scale,
    reports: &[SystemReport],
) -> std::io::Result<()> {
    let rows: Vec<String> = reports.iter().map(SystemReport::json).collect();
    let doc = format!(
        "{{\"bench\":\"{}\",\"scale\":\"{}\",\"rows\":[\n  {}\n]}}\n",
        json_escape(bench),
        scale.name(),
        rows.join(",\n  ")
    );
    std::fs::write(path, doc)
}

/// Benchmark engine configuration: all available cores, paper-style
/// punctuation interval.
pub fn bench_engine_config(threads: usize, punctuation: usize) -> EngineConfig {
    EngineConfig::with_threads(threads).with_punctuation_interval(punctuation)
}

/// Drive any engine through the unified [`TxnEngine`] trait and condense its
/// report. The single driver loop shared by every figure and every system
/// under test.
pub fn drive<E, I>(system: SystemUnderTest, engine: &mut E, events: I) -> SystemReport
where
    E: TxnEngine,
    I: IntoIterator<Item = E::Event>,
{
    SystemReport::from_run(system, engine.run(events))
}

/// Run the Streaming Ledger workload on one system and return its condensed
/// report. This is the core comparison reused by Figures 11, 12, 16 and 21.
/// Engine construction is per-system; the driving happens once, in [`drive`].
pub fn run_sl_on(
    system: SystemUnderTest,
    config: &WorkloadConfig,
    engine_config: EngineConfig,
    events: Vec<SlEvent>,
) -> SystemReport {
    let store = StateStore::new();
    let app = StreamingLedgerApp::new(&store, config);
    match system {
        SystemUnderTest::MorphStream => {
            let mut engine = MorphStream::new(app, store, engine_config);
            drive(system, &mut engine, events)
        }
        SystemUnderTest::TStream => {
            let mut engine = TStreamEngine::new(app, store, engine_config);
            drive(system, &mut engine, events)
        }
        SystemUnderTest::SStore => {
            let mut engine = SStoreEngine::new(app, store, engine_config);
            drive(system, &mut engine, events)
        }
        SystemUnderTest::LockedSpeWithLocks => {
            let mut cfg = engine_config;
            cfg.remote_state_latency_us = cfg.remote_state_latency_us.max(20);
            let mut engine = LockedSpeEngine::with_locks(app, store, cfg);
            drive(system, &mut engine, events)
        }
        SystemUnderTest::LockedSpeWithoutLocks => {
            let mut cfg = engine_config;
            cfg.remote_state_latency_us = cfg.remote_state_latency_us.max(20);
            let mut engine = LockedSpeEngine::without_locks(app, store, cfg);
            drive(system, &mut engine, events)
        }
        SystemUnderTest::Topology => {
            // The degenerate single-operator dataflow: measures the topology
            // wrapper's overhead over the bare engine on the same workload.
            let mut builder = morphstream::TopologyBuilder::new();
            let op = builder.add_operator("streaming-ledger", app, store, engine_config);
            let mut engine = builder
                .build(op, op, morphstream::TopologyConfig::default())
                .expect("a single operator is a valid dataflow");
            drive(system, &mut engine, events)
        }
    }
}

/// Streaming Ledger configuration used by the benchmarks: Table 6 defaults
/// shrunk to a size that runs in seconds on a laptop-class container.
pub fn bench_sl_config(scale: Scale) -> (WorkloadConfig, usize) {
    let config = WorkloadConfig::streaming_ledger()
        .with_key_space(20_000)
        .with_udf_complexity_us(1)
        .with_txns_per_batch(1_024);
    let events = 4_096 * scale.factor();
    (config, events)
}

/// Number of worker threads used by default in the harness.
pub fn bench_threads() -> usize {
    morphstream_common::config::default_parallelism().min(8)
}

/// Print a figure banner.
pub fn banner(figure: &str, description: &str) {
    println!("==============================================================");
    println!("{figure}: {description}");
    println!("==============================================================");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> SystemReport {
        SystemReport {
            system: SystemUnderTest::LockedSpeWithLocks,
            k_events_per_second: 12.5,
            p50_latency_ms: 1.25,
            p95_latency_ms: 2.5,
            committed: 10,
            aborted: 2,
            peak_bytes_retained: 4_096,
            construct_seconds: 0.5,
        }
    }

    #[test]
    fn json_row_carries_every_field() {
        let json = sample_report().json();
        for needle in [
            r#""system":"Flink+Redis (w/ locks)""#,
            r#""k_events_per_second":12.500"#,
            r#""p50_latency_ms":1.2500"#,
            r#""p95_latency_ms":2.5000"#,
            r#""committed":10"#,
            r#""aborted":2"#,
            r#""peak_bytes_retained":4096"#,
            r#""construct_s":0.500000"#,
        ] {
            assert!(json.contains(needle), "{json} missing {needle}");
        }
    }

    #[test]
    fn json_escape_handles_quotes_and_controls() {
        assert_eq!(json_escape(r#"a"b\c"#), r#"a\"b\\c"#);
        assert_eq!(json_escape("x\ny"), "x\\u000ay");
    }

    #[test]
    fn write_json_produces_one_row_per_report() {
        let dir = std::env::temp_dir().join("morphstream_bench_json_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_test.json");
        let reports = vec![sample_report(), sample_report()];
        write_json(&path, "fig11_spe_comparison", Scale::Smoke, &reports).unwrap();
        let doc = std::fs::read_to_string(&path).unwrap();
        assert!(doc.starts_with(r#"{"bench":"fig11_spe_comparison","scale":"smoke","#));
        assert_eq!(doc.matches(r#""system":"#).count(), 2);
        std::fs::remove_file(&path).ok();
    }
}
