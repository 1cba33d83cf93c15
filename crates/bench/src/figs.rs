//! One module per figure of the evaluation (Section 8). Every `run(scale)`
//! prints the rows/series of the corresponding figure.

use morphstream::storage::StateStore;
use morphstream::{
    AbortHandling, EngineConfig, ExplorationStrategy, Granularity, MorphStream, SchedulingDecision,
    TxnEngine,
};
use morphstream_baselines::{SStoreEngine, SystemUnderTest, TStreamEngine};
use morphstream_common::metrics::BreakdownBucket;
use morphstream_common::WorkloadConfig;
use morphstream_workloads::{
    DynamicWorkload, GrepSumApp, OsedApp, OsedReport, SeaApp, SeaGenerator, StreamingLedgerApp,
    TollProcessingApp, TpEvent, TweetGenerator,
};

use crate::harness::{
    banner, bench_engine_config, bench_sl_config, bench_threads, drive, run_sl_on, Scale,
    SystemReport,
};

fn gs_config(scale: Scale) -> (WorkloadConfig, usize) {
    let config = WorkloadConfig::grep_sum()
        .with_key_space(20_000)
        .with_udf_complexity_us(1)
        .with_txns_per_batch(1_024);
    (config, 4_096 * scale.factor())
}

fn fixed(
    exploration: ExplorationStrategy,
    granularity: Granularity,
    abort: AbortHandling,
) -> SchedulingDecision {
    SchedulingDecision {
        exploration,
        granularity,
        abort_handling: abort,
    }
}

fn run_gs_fixed(
    config: &WorkloadConfig,
    events: Vec<morphstream_workloads::GsEvent>,
    engine_config: EngineConfig,
    decision: Option<SchedulingDecision>,
) -> f64 {
    let store = StateStore::new();
    let app = GrepSumApp::new(&store, config);
    let mut engine = MorphStream::new(app, store, engine_config);
    if let Some(decision) = decision {
        engine = engine.with_fixed_decision(decision);
    }
    engine.run(events).k_events_per_second()
}

/// Figure 11: SL throughput comparison across systems on all cores.
pub mod fig11 {
    use super::*;

    /// Run the comparison and return `(system, k events/s)` rows.
    pub fn measure(scale: Scale) -> Vec<SystemReport> {
        let (config, events) = bench_sl_config(scale);
        let engine_config = bench_engine_config(bench_threads(), config.txns_per_batch);
        let events_vec = StreamingLedgerApp::generate(&config, events, 0.6);
        [
            SystemUnderTest::MorphStream,
            SystemUnderTest::TStream,
            SystemUnderTest::SStore,
            SystemUnderTest::LockedSpeWithoutLocks,
            SystemUnderTest::LockedSpeWithLocks,
        ]
        .into_iter()
        .map(|system| run_sl_on(system, &config, engine_config, events_vec.clone()))
        .collect()
    }

    /// Print the figure and return the measured rows (so callers like the CI
    /// smoke-bench wrapper can persist them without re-measuring).
    pub fn run(scale: Scale) -> Vec<SystemReport> {
        banner(
            "Figure 11",
            "SL throughput: MorphStream vs TSPEs vs conventional SPE",
        );
        println!("{}", SystemReport::header());
        let reports = measure(scale);
        for report in &reports {
            println!("{}", report.row());
        }
        reports
    }
}

/// Figure 12: dynamic 4-phase workload — throughput over phases and latency.
pub mod fig12 {
    use super::*;
    use morphstream_workloads::DynamicPhase;

    /// Per-phase `(phase, k events/s, p95 latency ms)` rows.
    pub type PhaseSeries = Vec<(DynamicPhase, f64, f64)>;

    /// Per-system, per-phase throughput (k events/s).
    pub fn measure(scale: Scale) -> Vec<(SystemUnderTest, PhaseSeries)> {
        let (config, events) = bench_sl_config(scale);
        let workload = DynamicWorkload::new(config, events / 2);
        let engine_config = bench_engine_config(bench_threads(), config.txns_per_batch);
        let mut out = Vec::new();
        for system in [
            SystemUnderTest::MorphStream,
            SystemUnderTest::TStream,
            SystemUnderTest::SStore,
        ] {
            let mut rows = Vec::new();
            for (phase, events) in workload.all_phases() {
                let report = run_sl_on(system, &config, engine_config, events);
                rows.push((phase, report.k_events_per_second, report.p95_latency_ms));
            }
            out.push((system, rows));
        }
        out
    }

    /// Print the figure.
    pub fn run(scale: Scale) {
        banner(
            "Figure 12",
            "dynamic workload: per-phase throughput and tail latency",
        );
        println!(
            "{:<28} {:<18} {:>12} {:>12}",
            "system", "phase", "k events/s", "p95 ms"
        );
        for (system, rows) in measure(scale) {
            for (phase, kps, p95) in rows {
                println!(
                    "{:<28} {:<18} {:>12.2} {:>12.2}",
                    system.to_string(),
                    format!("{phase:?}"),
                    kps,
                    p95
                );
            }
        }
    }
}

/// Figure 13: single vs multiple (nested) scheduling strategies on TP.
pub mod fig13 {
    use super::*;

    /// `(configuration, k events/s, p95 ms)` rows.
    pub fn measure(scale: Scale) -> Vec<(String, f64, f64)> {
        let config = WorkloadConfig::toll_processing()
            .with_key_space(20_000)
            .with_udf_complexity_us(1)
            .with_txns_per_batch(2_048);
        let count = 4_096 * scale.factor();
        let events = TollProcessingApp::generate_two_groups(&config, count, 0.5, 0.3, 0.9);
        let engine_config = bench_engine_config(bench_threads(), config.txns_per_batch);

        let plain1 = fixed(
            ExplorationStrategy::NonStructured,
            Granularity::Coarse,
            AbortHandling::Lazy,
        );
        let plain2 = fixed(
            ExplorationStrategy::StructuredBfs,
            Granularity::Coarse,
            AbortHandling::Eager,
        );

        let mut rows = Vec::new();
        // Nested: adaptive per-group decisions.
        {
            let store = StateStore::new();
            let app = TollProcessingApp::new(&store, &config);
            let mut engine =
                MorphStream::new(app, store, engine_config).with_group_fn(|e: &TpEvent| e.group);
            let r = drive(SystemUnderTest::MorphStream, &mut engine, events.clone());
            rows.push((
                "Nested".to_string(),
                r.k_events_per_second,
                r.p95_latency_ms,
            ));
        }
        for (label, decision) in [("Plain-1", plain1), ("Plain-2", plain2)] {
            let store = StateStore::new();
            let app = TollProcessingApp::new(&store, &config);
            let mut engine =
                MorphStream::new(app, store, engine_config).with_fixed_decision(decision);
            let r = drive(SystemUnderTest::MorphStream, &mut engine, events.clone());
            rows.push((label.to_string(), r.k_events_per_second, r.p95_latency_ms));
        }
        // Baselines.
        {
            let store = StateStore::new();
            let app = TollProcessingApp::new(&store, &config);
            let mut engine = TStreamEngine::new(app, store, engine_config);
            let r = drive(SystemUnderTest::TStream, &mut engine, events.clone());
            rows.push((
                "TStream".to_string(),
                r.k_events_per_second,
                r.p95_latency_ms,
            ));
        }
        {
            let store = StateStore::new();
            let app = TollProcessingApp::new(&store, &config);
            let mut engine = SStoreEngine::new(app, store, engine_config);
            let r = drive(SystemUnderTest::SStore, &mut engine, events);
            rows.push((
                "S-Store".to_string(),
                r.k_events_per_second,
                r.p95_latency_ms,
            ));
        }
        rows
    }

    /// Print the figure.
    pub fn run(scale: Scale) {
        banner("Figure 13", "TP: nested vs plain strategies vs baselines");
        println!("{:<12} {:>12} {:>12}", "config", "k events/s", "p95 ms");
        for (label, kps, p95) in measure(scale) {
            println!("{label:<12} {kps:>12.2} {p95:>12.2}");
        }
    }
}

/// Figure 14: tumbling window queries — window size and trigger period.
pub mod fig14 {
    use super::*;

    /// `(window size, k events/s)` series.
    pub type WindowSeries = Vec<(u64, f64)>;
    /// `(trigger period, k events/s)` series.
    pub type TriggerSeries = Vec<(usize, f64)>;

    /// `(window size, k events/s)` and `(trigger period, k events/s)` series.
    pub fn measure(scale: Scale) -> (WindowSeries, TriggerSeries) {
        let (config, count) = gs_config(scale);
        let config = config.with_abort_ratio(0.0);
        let engine_config = bench_engine_config(bench_threads(), config.txns_per_batch);

        let window_sizes = [100u64, 1_000, 10_000];
        let by_window = window_sizes
            .iter()
            .map(|&window| {
                let events = GrepSumApp::generate_windowed(&config, count, 100, 20, window);
                let mut cfg = engine_config;
                cfg.reclaim_after_batch = false;
                (window, run_gs_fixed(&config, events, cfg, None))
            })
            .collect();

        let trigger_periods = [10usize, 100, 1_000];
        let by_period = trigger_periods
            .iter()
            .map(|&period| {
                let events = GrepSumApp::generate_windowed(&config, count, period, 20, 1_000);
                let mut cfg = engine_config;
                cfg.reclaim_after_batch = false;
                (period, run_gs_fixed(&config, events, cfg, None))
            })
            .collect();
        (by_window, by_period)
    }

    /// Print the figure.
    pub fn run(scale: Scale) {
        banner(
            "Figure 14",
            "GS window queries: window size & trigger period",
        );
        let (by_window, by_period) = measure(scale);
        println!("{:<20} {:>12}", "window size (ts)", "k events/s");
        for (w, kps) in by_window {
            println!("{w:<20} {kps:>12.2}");
        }
        println!("{:<20} {:>12}", "trigger period", "k events/s");
        for (p, kps) in by_period {
            println!("{p:<20} {kps:>12.2}");
        }
    }
}

/// Figure 15: non-deterministic queries.
pub mod fig15 {
    use super::*;

    /// `(system, #non-det accesses, k events/s)` rows.
    pub fn measure(scale: Scale) -> Vec<(SystemUnderTest, usize, f64)> {
        let (config, count) = gs_config(scale);
        let config = config.with_abort_ratio(0.0);
        let engine_config = bench_engine_config(bench_threads(), config.txns_per_batch);
        let sweep = [50usize, 100, 200, 400];
        let mut rows = Vec::new();
        for &non_det in &sweep {
            let events = GrepSumApp::generate_non_deterministic(&config, count, non_det);
            // MorphStream
            rows.push((
                SystemUnderTest::MorphStream,
                non_det,
                run_gs_fixed(&config, events.clone(), engine_config, None),
            ));
            // TStream
            {
                let store = StateStore::new();
                let app = GrepSumApp::new(&store, &config);
                let mut engine = TStreamEngine::new(app, store, engine_config);
                rows.push((
                    SystemUnderTest::TStream,
                    non_det,
                    engine.run(events.clone()).k_events_per_second(),
                ));
            }
            // S-Store
            {
                let store = StateStore::new();
                let app = GrepSumApp::new(&store, &config);
                let mut engine = SStoreEngine::new(app, store, engine_config);
                rows.push((
                    SystemUnderTest::SStore,
                    non_det,
                    engine.run(events).k_events_per_second(),
                ));
            }
        }
        rows
    }

    /// Print the figure.
    pub fn run(scale: Scale) {
        banner("Figure 15", "GS non-deterministic state accesses");
        println!("{:<28} {:>12} {:>12}", "system", "#non-det", "k events/s");
        for (system, non_det, kps) in measure(scale) {
            println!("{:<28} {non_det:>12} {kps:>12.2}", system.to_string());
        }
    }
}

/// Figure 16: runtime breakdown, memory footprint, and the wall time of the
/// construction and execution stages (the construction-overhead axis of 16a).
pub mod fig16 {
    use super::*;

    /// Fraction of runtime spent per breakdown bucket.
    pub type BucketFractions = Vec<(BreakdownBucket, f64)>;

    /// One measured configuration of Figure 16.
    #[derive(Debug, Clone)]
    pub struct Fig16Row {
        /// System / configuration label.
        pub system: String,
        /// Per-bucket runtime fractions (Figure 16a).
        pub fractions: BucketFractions,
        /// Peak auxiliary memory in bytes (Figure 16b).
        pub peak_bytes: u64,
        /// Total TPG-construction wall time (seconds).
        pub construct_s: f64,
        /// Wall time of the execution stage (seconds).
        pub execute_s: f64,
    }

    impl Fig16Row {
        fn from_report<O>(system: &str, report: &morphstream::RunReport<O>) -> Self {
            let timings = report.stage_timings;
            Self {
                system: system.to_string(),
                fractions: BreakdownBucket::ALL
                    .iter()
                    .map(|&b| (b, report.breakdown.fraction(b)))
                    .collect(),
                peak_bytes: report.memory.peak_bytes(),
                construct_s: timings.construct.as_secs_f64(),
                execute_s: timings.execute.as_secs_f64(),
            }
        }

        /// One JSON object row, via the shared [`morphstream_common::json`]
        /// path (serde is offline-gated).
        pub fn json(&self) -> String {
            let mut row =
                morphstream_common::json::JsonObject::new().string("system", &self.system);
            for (bucket, fraction) in &self.fractions {
                row = row.fixed(bucket.label(), *fraction, 4);
            }
            row.unsigned("peak_bytes", self.peak_bytes)
                .fixed("construct_s", self.construct_s, 6)
                .fixed("execute_s", self.execute_s, 6)
                .build()
        }
    }

    /// Write the measured rows as one JSON document (the CI smoke-bench
    /// uploads this as `BENCH_fig16_smoke.json` so breakdown and stage-time
    /// regressions show up in artifacts).
    pub fn write_json(
        path: &std::path::Path,
        scale: Scale,
        rows: &[Fig16Row],
    ) -> std::io::Result<()> {
        let body: Vec<String> = rows.iter().map(Fig16Row::json).collect();
        let doc = format!(
            "{{\"bench\":\"fig16_overhead\",\"scale\":\"{}\",\"rows\":[\n  {}\n]}}\n",
            scale.name(),
            body.join(",\n  ")
        );
        std::fs::write(path, doc)
    }

    /// Per-system breakdown fractions, peak memory and stage timings.
    pub fn measure(scale: Scale) -> Vec<Fig16Row> {
        let (config, events) = bench_sl_config(scale);
        let workload = DynamicWorkload::new(config, events / 2);
        let mut all_events = Vec::new();
        for (_, phase_events) in workload.all_phases() {
            all_events.extend(phase_events);
        }
        let mut engine_config = bench_engine_config(bench_threads(), config.txns_per_batch);
        engine_config.reclaim_after_batch = false;

        // One fresh store + app per row, one shared driver for every engine.
        let fresh_app = || {
            let store = StateStore::new();
            let app = StreamingLedgerApp::new(&store, &config);
            (store, app)
        };
        fn row<E: TxnEngine>(label: &str, mut engine: E, events: Vec<E::Event>) -> Fig16Row {
            Fig16Row::from_report(label, &engine.run(events))
        }

        let (store, app) = fresh_app();
        let morph = row(
            "MorphStream",
            MorphStream::new(app, store, engine_config),
            all_events.clone(),
        );
        let (store, app) = fresh_app();
        let tstream = row(
            "TStream",
            TStreamEngine::new(app, store, engine_config),
            all_events.clone(),
        );
        let (store, app) = fresh_app();
        let sstore = row(
            "S-Store",
            SStoreEngine::new(app, store, engine_config),
            all_events,
        );
        vec![morph, tstream, sstore]
    }

    /// Print the figure and return the measured rows (so the CI smoke-bench
    /// wrapper can persist them without re-measuring).
    pub fn run(scale: Scale) -> Vec<Fig16Row> {
        banner(
            "Figure 16",
            "runtime breakdown, memory footprint, stage times (dynamic SL)",
        );
        let rows = measure(scale);
        for row in &rows {
            println!("{}:", row.system);
            for (bucket, fraction) in &row.fractions {
                println!("    {:<10} {:>6.1}%", bucket.label(), fraction * 100.0);
            }
            println!(
                "    peak auxiliary memory: {:.1} MiB",
                row.peak_bytes as f64 / (1024.0 * 1024.0)
            );
            println!(
                "    construct {:.3}s / execute {:.3}s",
                row.construct_s, row.execute_s
            );
        }
        rows
    }
}

/// Figure 17: impact of clean-up (version reclamation).
pub mod fig17 {
    use super::*;

    /// `(label, k events/s, peak MiB)` rows.
    pub fn measure(scale: Scale) -> Vec<(String, f64, f64)> {
        let (config, events) = bench_sl_config(scale);
        let events_vec = StreamingLedgerApp::generate(&config, events, 0.6);
        let mut rows = Vec::new();
        for (label, reclaim) in [("w/o clean-up", false), ("w/ clean-up", true)] {
            let store = StateStore::new();
            let app = StreamingLedgerApp::new(&store, &config);
            let engine_config = bench_engine_config(bench_threads(), config.txns_per_batch)
                .with_reclaim_after_batch(reclaim);
            let mut engine = MorphStream::new(app, store, engine_config);
            let report = engine.run(events_vec.clone());
            rows.push((
                label.to_string(),
                report.k_events_per_second(),
                report.memory.peak_bytes() as f64 / (1024.0 * 1024.0),
            ));
        }
        rows
    }

    /// Print the figure.
    pub fn run(scale: Scale) {
        banner("Figure 17", "clean-up impact: throughput and memory");
        println!("{:<16} {:>12} {:>12}", "config", "k events/s", "peak MiB");
        for (label, kps, mib) in measure(scale) {
            println!("{label:<16} {kps:>12.2} {mib:>12.2}");
        }
    }
}

/// Figure 18: exploration strategy decision.
pub mod fig18 {
    use super::*;

    /// `(strategy, punctuation interval, k events/s)` and
    /// `(strategy, zipf θ, k events/s)` series.
    #[allow(clippy::type_complexity)]
    pub fn measure(scale: Scale) -> (Vec<(String, usize, f64)>, Vec<(String, f64, f64)>) {
        let (config, count) = gs_config(scale);
        let strategies = [
            ("ns-explore", ExplorationStrategy::NonStructured),
            ("s-explore(BFS)", ExplorationStrategy::StructuredBfs),
            ("s-explore(DFS)", ExplorationStrategy::StructuredDfs),
        ];
        let mut by_interval = Vec::new();
        for &interval in &[512usize, 1_024, 4_096] {
            let cfg = config.with_txns_per_batch(interval);
            let events = GrepSumApp::generate(&cfg.with_abort_ratio(0.0), count);
            for (label, strategy) in strategies {
                let decision = fixed(strategy, Granularity::Fine, AbortHandling::Eager);
                let kps = run_gs_fixed(
                    &cfg,
                    events.clone(),
                    bench_engine_config(bench_threads(), interval),
                    Some(decision),
                );
                by_interval.push((label.to_string(), interval, kps));
            }
        }
        let mut by_skew = Vec::new();
        for &theta in &[0.0f64, 0.5, 1.0] {
            let cfg = config.with_zipf_theta(theta).with_abort_ratio(0.0);
            let events = GrepSumApp::generate(&cfg, count);
            for (label, strategy) in strategies {
                let decision = fixed(strategy, Granularity::Fine, AbortHandling::Eager);
                let kps = run_gs_fixed(
                    &cfg,
                    events.clone(),
                    bench_engine_config(bench_threads(), cfg.txns_per_batch),
                    Some(decision),
                );
                by_skew.push((label.to_string(), theta, kps));
            }
        }
        (by_interval, by_skew)
    }

    /// Print the figure.
    pub fn run(scale: Scale) {
        banner(
            "Figure 18",
            "exploration strategies vs punctuation interval & skew",
        );
        let (by_interval, by_skew) = measure(scale);
        println!(
            "{:<16} {:>14} {:>12}",
            "strategy", "punct interval", "k events/s"
        );
        for (label, interval, kps) in by_interval {
            println!("{label:<16} {interval:>14} {kps:>12.2}");
        }
        println!(
            "{:<16} {:>14} {:>12}",
            "strategy", "zipf theta", "k events/s"
        );
        for (label, theta, kps) in by_skew {
            println!("{label:<16} {theta:>14.2} {kps:>12.2}");
        }
    }
}

/// Figure 19: scheduling granularity decision.
pub mod fig19 {
    use super::*;

    /// Three series: cyclic/acyclic, punctuation interval, multi-access ratio.
    #[allow(clippy::type_complexity)]
    pub fn measure(
        scale: Scale,
    ) -> (
        Vec<(String, String, f64)>,
        Vec<(String, usize, f64)>,
        Vec<(String, usize, f64)>,
    ) {
        let (config, count) = gs_config(scale);
        let granularities = [
            ("f-schedule", Granularity::Fine),
            ("c-schedule", Granularity::Coarse),
        ];

        // (a) cyclic (multi-state writes create interleaved chains) vs acyclic
        let mut by_cycles = Vec::new();
        for (case, states_per_op) in [("acyclic", 1usize), ("cyclic", 3usize)] {
            let cfg = config
                .with_states_per_op(states_per_op)
                .with_abort_ratio(0.0);
            let events = GrepSumApp::generate(&cfg, count);
            for (label, granularity) in granularities {
                let decision = fixed(
                    ExplorationStrategy::NonStructured,
                    granularity,
                    AbortHandling::Eager,
                );
                let kps = run_gs_fixed(
                    &cfg,
                    events.clone(),
                    bench_engine_config(bench_threads(), cfg.txns_per_batch),
                    Some(decision),
                );
                by_cycles.push((label.to_string(), case.to_string(), kps));
            }
        }

        // (b) punctuation interval sweep with single-state accesses
        let mut by_interval = Vec::new();
        for &interval in &[512usize, 1_024, 4_096] {
            let cfg = config
                .with_states_per_op(1)
                .with_abort_ratio(0.0)
                .with_txns_per_batch(interval);
            let events = GrepSumApp::generate(&cfg, count);
            for (label, granularity) in granularities {
                let decision = fixed(
                    ExplorationStrategy::NonStructured,
                    granularity,
                    AbortHandling::Eager,
                );
                let kps = run_gs_fixed(
                    &cfg,
                    events.clone(),
                    bench_engine_config(bench_threads(), interval),
                    Some(decision),
                );
                by_interval.push((label.to_string(), interval, kps));
            }
        }

        // (c) ratio of multi-state accesses
        let mut by_ratio = Vec::new();
        for &ratio in &[10usize, 50, 90] {
            let cfg = config.with_abort_ratio(0.0);
            // mix single-state and multi-state updates at the requested ratio
            let multi = GrepSumApp::generate(&cfg.with_states_per_op(3), count);
            let single = GrepSumApp::generate(&cfg.with_states_per_op(1), count);
            let events: Vec<_> = (0..count)
                .map(|i| {
                    if i % 100 < ratio {
                        multi[i].clone()
                    } else {
                        single[i].clone()
                    }
                })
                .collect();
            for (label, granularity) in granularities {
                let decision = fixed(
                    ExplorationStrategy::NonStructured,
                    granularity,
                    AbortHandling::Eager,
                );
                let kps = run_gs_fixed(
                    &cfg,
                    events.clone(),
                    bench_engine_config(bench_threads(), cfg.txns_per_batch),
                    Some(decision),
                );
                by_ratio.push((label.to_string(), ratio, kps));
            }
        }
        (by_cycles, by_interval, by_ratio)
    }

    /// Print the figure.
    pub fn run(scale: Scale) {
        banner("Figure 19", "scheduling granularities");
        let (by_cycles, by_interval, by_ratio) = measure(scale);
        println!(
            "{:<14} {:>10} {:>12}",
            "granularity", "workload", "k events/s"
        );
        for (label, case, kps) in by_cycles {
            println!("{label:<14} {case:>10} {kps:>12.2}");
        }
        println!(
            "{:<14} {:>10} {:>12}",
            "granularity", "interval", "k events/s"
        );
        for (label, interval, kps) in by_interval {
            println!("{label:<14} {interval:>10} {kps:>12.2}");
        }
        println!(
            "{:<14} {:>10} {:>12}",
            "granularity", "multi %", "k events/s"
        );
        for (label, ratio, kps) in by_ratio {
            println!("{label:<14} {ratio:>10} {kps:>12.2}");
        }
    }
}

/// Figure 20: abort handling decision.
pub mod fig20 {
    use super::*;

    /// `(mechanism, udf µs, k events/s)` and `(mechanism, abort %, k events/s)`.
    #[allow(clippy::type_complexity)]
    pub fn measure(scale: Scale) -> (Vec<(String, u64, f64)>, Vec<(String, usize, f64)>) {
        let (config, count) = gs_config(scale);
        let mechanisms = [
            ("e-abort", AbortHandling::Eager),
            ("l-abort", AbortHandling::Lazy),
        ];

        let mut by_complexity = Vec::new();
        for &cost in &[0u64, 20, 50] {
            let cfg = config.with_udf_complexity_us(cost).with_abort_ratio(0.4);
            let events = GrepSumApp::generate(&cfg, count);
            for (label, abort) in mechanisms {
                let decision = fixed(ExplorationStrategy::NonStructured, Granularity::Fine, abort);
                let kps = run_gs_fixed(
                    &cfg,
                    events.clone(),
                    bench_engine_config(bench_threads(), cfg.txns_per_batch),
                    Some(decision),
                );
                by_complexity.push((label.to_string(), cost, kps));
            }
        }

        let mut by_abort_ratio = Vec::new();
        for &ratio in &[10usize, 50, 90] {
            let cfg = config
                .with_udf_complexity_us(0)
                .with_abort_ratio(ratio as f64 / 100.0);
            let events = GrepSumApp::generate(&cfg, count);
            for (label, abort) in mechanisms {
                let decision = fixed(ExplorationStrategy::NonStructured, Granularity::Fine, abort);
                let kps = run_gs_fixed(
                    &cfg,
                    events.clone(),
                    bench_engine_config(bench_threads(), cfg.txns_per_batch),
                    Some(decision),
                );
                by_abort_ratio.push((label.to_string(), ratio, kps));
            }
        }
        (by_complexity, by_abort_ratio)
    }

    /// Print the figure.
    pub fn run(scale: Scale) {
        banner("Figure 20", "abort handling mechanisms");
        let (by_complexity, by_ratio) = measure(scale);
        println!("{:<10} {:>10} {:>12}", "abort", "udf µs", "k events/s");
        for (label, cost, kps) in by_complexity {
            println!("{label:<10} {cost:>10} {kps:>12.2}");
        }
        println!("{:<10} {:>10} {:>12}", "abort", "abort %", "k events/s");
        for (label, ratio, kps) in by_ratio {
            println!("{label:<10} {ratio:>10} {kps:>12.2}");
        }
    }
}

/// Figure 21: hardware interaction — clock-tick breakdown and scalability.
pub mod fig21 {
    use super::*;

    /// `(system, total busy seconds, memory-wait fraction)` rows and
    /// `(system, cores, k events/s)` scalability series.
    #[allow(clippy::type_complexity)]
    pub fn measure(
        scale: Scale,
    ) -> (
        Vec<(SystemUnderTest, f64, f64)>,
        Vec<(SystemUnderTest, usize, f64)>,
    ) {
        let (config, events) = bench_sl_config(scale);
        let events_vec = StreamingLedgerApp::generate(&config, events, 0.6);
        let systems = [
            SystemUnderTest::MorphStream,
            SystemUnderTest::TStream,
            SystemUnderTest::SStore,
        ];

        let engine_config = bench_engine_config(bench_threads(), config.txns_per_batch);
        let mut ticks = Vec::new();
        for system in systems {
            let store = StateStore::new();
            let app = StreamingLedgerApp::new(&store, &config);
            let report = match system {
                SystemUnderTest::MorphStream => {
                    MorphStream::new(app, store, engine_config).run(events_vec.clone())
                }
                SystemUnderTest::TStream => {
                    TStreamEngine::new(app, store, engine_config).run(events_vec.clone())
                }
                _ => SStoreEngine::new(app, store, engine_config).run(events_vec.clone()),
            };
            let total = report.breakdown.total().as_secs_f64();
            // "memory bound" stand-in: share of busy time spent waiting on
            // state access coordination rather than computing.
            let waiting = report.breakdown.fraction(BreakdownBucket::Sync)
                + report.breakdown.fraction(BreakdownBucket::Lock)
                + report.breakdown.fraction(BreakdownBucket::Explore);
            ticks.push((system, total, waiting));
        }

        let max_threads = bench_threads();
        let mut scalability = Vec::new();
        for &threads in &[1usize, 2, max_threads] {
            let engine_config = bench_engine_config(threads, config.txns_per_batch);
            for system in systems {
                let report = run_sl_on(system, &config, engine_config, events_vec.clone());
                scalability.push((system, threads, report.k_events_per_second));
            }
        }
        (ticks, scalability)
    }

    /// Print the figure.
    pub fn run(scale: Scale) {
        banner(
            "Figure 21",
            "clock-tick breakdown and multicore scalability (SL)",
        );
        let (ticks, scalability) = measure(scale);
        println!(
            "{:<28} {:>16} {:>16}",
            "system", "busy seconds", "waiting share"
        );
        for (system, total, waiting) in ticks {
            println!(
                "{:<28} {total:>16.3} {:>15.1}%",
                system.to_string(),
                waiting * 100.0
            );
        }
        println!("{:<28} {:>8} {:>12}", "system", "cores", "k events/s");
        for (system, cores, kps) in scalability {
            println!("{:<28} {cores:>8} {kps:>12.2}", system.to_string());
        }
    }
}

/// Figure 23: Online Social Event Detection case study.
pub mod fig23 {
    use super::*;
    use morphstream_common::Timestamp;

    /// Returns the OSED report plus throughput in k tweets/s.
    pub fn measure(scale: Scale) -> (OsedReport, f64) {
        let generator = TweetGenerator {
            tweets: 3_000 * scale.factor(),
            window: 200,
            ..TweetGenerator::default()
        };
        let (tweets, expected) = generator.generate();
        let store = StateStore::new();
        let app = OsedApp::new(&store, generator.window as Timestamp + 1);
        let mut engine = MorphStream::new(
            app,
            store,
            bench_engine_config(bench_threads(), generator.window + 1)
                .with_reclaim_after_batch(false),
        );
        let report = engine.run(tweets);
        let kps = report.k_events_per_second();
        (OsedReport::from_outputs(expected, &report.outputs), kps)
    }

    /// Print the figure.
    pub fn run(scale: Scale) {
        banner("Figure 23", "OSED: expected vs detected event popularity");
        let (report, kps) = measure(scale);
        println!("throughput: {kps:.2} k tweets/s");
        println!(
            "detection accuracy (±10 tweets): {:.1}%",
            report.detection_accuracy(10) * 100.0
        );
        for (event, series) in report.expected.iter().enumerate() {
            let detected = &report.detected[event];
            println!("event {event}: expected {series:?}");
            println!("event {event}: detected {detected:?}");
        }
    }
}

/// Figure 25: Stock Exchange Analysis case study.
pub mod fig25 {
    use super::*;

    /// Returns `(expected total matches, actual total matches, k events/s)`.
    pub fn measure(scale: Scale) -> (u64, i64, f64) {
        let generator = SeaGenerator {
            events: 4_000 * scale.factor(),
            stocks: 200,
            ..SeaGenerator::default()
        };
        let events = generator.generate();
        let window = 200u64;
        let expected = generator.expected_accumulated_matches(&events, window);
        let store = StateStore::new();
        let app = SeaApp::new(&store, generator.stocks, window);
        let mut engine = MorphStream::new(
            app,
            store,
            bench_engine_config(bench_threads(), 1_000).with_reclaim_after_batch(false),
        );
        let report = engine.run(events);
        let actual: i64 = report.outputs.iter().sum();
        (
            *expected.last().unwrap_or(&0),
            actual,
            report.k_events_per_second(),
        )
    }

    /// Print the figure.
    pub fn run(scale: Scale) {
        banner("Figure 25", "SEA: expected vs actual accumulated matches");
        let (expected, actual, kps) = measure(scale);
        println!("throughput: {kps:.2} k events/s");
        println!("expected accumulated matches: {expected}");
        println!("actual accumulated matches:   {actual}");
    }
}

/// Operator-topology benchmark (beyond the paper): the fused single-operator
/// TP application against its two-operator split driven as one dataflow
/// through the same generic `TxnEngine` loop, with per-operator
/// throughput/latency sub-rows.
pub mod fig_topology {
    use super::*;
    use crate::harness::json_escape;
    use morphstream_workloads::TollProcessingApp;

    /// How the benchmark drives the topology: set from the command line
    /// (`--concurrent` adds the concurrent-runtime rows, `--parallelism N`
    /// runs the keyed statistics stage with `N` parallel instances).
    #[derive(Debug, Clone, Copy)]
    pub struct TopologyOptions {
        /// Also measure the concurrent (per-operator-thread) runtime.
        pub concurrent: bool,
        /// Parallel instances of the keyed road-statistics stage.
        pub parallelism: usize,
    }

    impl Default for TopologyOptions {
        fn default() -> Self {
            Self {
                concurrent: false,
                parallelism: 1,
            }
        }
    }

    impl TopologyOptions {
        /// Parse `--concurrent` / `--parallelism N` from the command line.
        /// A `--parallelism` flag with a missing, unparsable, or zero operand
        /// is fatal (like `--json` without a path): silently falling back to
        /// 1 would record single-instance numbers under a multi-instance
        /// artifact name.
        pub fn from_args() -> Self {
            let args: Vec<String> = std::env::args().collect();
            let concurrent = args.iter().any(|a| a == "--concurrent");
            let parallelism = match args.iter().position(|a| a == "--parallelism") {
                None => 1,
                Some(i) => match args.get(i + 1).and_then(|v| v.parse::<usize>().ok()) {
                    Some(n) if n >= 1 => n,
                    _ => {
                        eprintln!("error: --parallelism requires a positive integer argument");
                        std::process::exit(2);
                    }
                },
            };
            Self {
                concurrent,
                parallelism,
            }
        }
    }

    /// One measured row: a whole system, or one operator instance inside the
    /// topology (`operator` set).
    #[derive(Debug, Clone)]
    pub struct TopologyRow {
        /// System label.
        pub system: String,
        /// Operator (instance) name for per-operator sub-rows; `None` for
        /// system rows.
        pub operator: Option<String>,
        /// Throughput in thousands of events per second.
        pub k_events_per_second: f64,
        /// Median end-to-end latency in milliseconds.
        pub p50_latency_ms: f64,
        /// 95th-percentile latency in milliseconds.
        pub p95_latency_ms: f64,
        /// Committed transactions.
        pub committed: usize,
        /// Aborted transactions.
        pub aborted: usize,
        /// End-to-end wall-clock of the whole run in seconds (0 for
        /// per-operator sub-rows) — the serial-vs-concurrent comparison axis.
        pub wall_s: f64,
        /// Total times a bounded edge channel was found full (back-pressure
        /// observability; 0 under the inline driver).
        pub queue_full_waits: u64,
        /// Incremental checkpoints taken during the run (0 for renditions
        /// that run without durability).
        pub checkpoints: u64,
        /// Bytes those checkpoints published.
        pub checkpoint_bytes: u64,
    }

    impl TopologyRow {
        fn percentiles(latency: &morphstream_common::metrics::LatencyRecorder) -> (f64, f64) {
            let ms = |p: f64| {
                latency
                    .percentile(p)
                    .map(|d| d.as_secs_f64() * 1e3)
                    .unwrap_or(0.0)
            };
            (ms(50.0), ms(95.0))
        }

        fn from_report(
            system: &str,
            report: &mut morphstream::RunReport<bool>,
            wall_s: f64,
        ) -> Self {
            let (p50, p95) = Self::percentiles(&report.latency);
            let queue_full_waits = report.edges.iter().map(|e| e.queue_full_waits).sum();
            Self {
                system: system.to_string(),
                operator: None,
                k_events_per_second: report.k_events_per_second(),
                p50_latency_ms: p50,
                p95_latency_ms: p95,
                committed: report.committed,
                aborted: report.aborted,
                wall_s,
                queue_full_waits,
                checkpoints: 0,
                checkpoint_bytes: 0,
            }
        }

        fn from_operator(system: &str, op: &morphstream::OperatorReport) -> Self {
            let (p50, p95) = Self::percentiles(&op.latency);
            Self {
                system: system.to_string(),
                operator: Some(op.name.clone()),
                k_events_per_second: op.k_events_per_second(),
                p50_latency_ms: p50,
                p95_latency_ms: p95,
                committed: op.committed,
                aborted: op.aborted,
                wall_s: 0.0,
                queue_full_waits: 0,
                checkpoints: 0,
                checkpoint_bytes: 0,
            }
        }

        /// One JSON object row, via the shared [`morphstream_common::json`]
        /// path (serde is offline-gated).
        pub fn json(&self) -> String {
            let operator = match &self.operator {
                Some(name) => format!(r#""{}""#, json_escape(name)),
                None => "null".to_string(),
            };
            morphstream_common::json::JsonObject::new()
                .string("system", &self.system)
                .raw("operator", operator)
                .fixed("k_events_per_second", self.k_events_per_second, 3)
                .fixed("p50_latency_ms", self.p50_latency_ms, 4)
                .fixed("p95_latency_ms", self.p95_latency_ms, 4)
                .unsigned("committed", self.committed as u64)
                .unsigned("aborted", self.aborted as u64)
                .fixed("wall_s", self.wall_s, 4)
                .unsigned("queue_full_waits", self.queue_full_waits)
                .unsigned("checkpoints", self.checkpoints)
                .unsigned("checkpoint_bytes", self.checkpoint_bytes)
                .build()
        }
    }

    /// Write the measured rows as one JSON document (uploaded by the CI
    /// smoke-bench as `BENCH_topology_smoke.json`).
    pub fn write_json(
        path: &std::path::Path,
        scale: Scale,
        rows: &[TopologyRow],
    ) -> std::io::Result<()> {
        let body: Vec<String> = rows.iter().map(TopologyRow::json).collect();
        let doc = format!(
            "{{\"bench\":\"fig_topology\",\"scale\":\"{}\",\"rows\":[\n  {}\n]}}\n",
            scale.name(),
            body.join(",\n  ")
        );
        std::fs::write(path, doc)
    }

    /// Run one topology rendition and return `(rows, wall_s, digest)`.
    fn measure_topology(
        label: &str,
        config: &WorkloadConfig,
        engine_config: morphstream::EngineConfig,
        topology_config: morphstream::TopologyConfig,
        parallelism: usize,
        events: &[TpEvent],
    ) -> (Vec<TopologyRow>, f64, u64) {
        let store = StateStore::new();
        let mut topology = TollProcessingApp::topology_with(
            &store,
            config,
            engine_config,
            topology_config,
            parallelism,
        );
        let started = std::time::Instant::now();
        let mut report = topology.run(events.to_vec());
        let wall_s = started.elapsed().as_secs_f64();
        let mut rows = vec![TopologyRow::from_report(label, &mut report, wall_s)];
        for op in &report.operators {
            rows.push(TopologyRow::from_operator(label, op));
        }
        (rows, wall_s, store.state_digest())
    }

    /// Run the serial topology with incremental checkpoints every
    /// `interval` events (into a throwaway directory) and return `(rows,
    /// wall_s, digest, checkpoint_count, checkpoint_bytes)`. The wall-clock
    /// delta against the plain serial row is the durability overhead.
    fn measure_checkpointed(
        label: &str,
        config: &WorkloadConfig,
        engine_config: morphstream::EngineConfig,
        parallelism: usize,
        events: &[TpEvent],
        interval: usize,
    ) -> (Vec<TopologyRow>, f64, u64) {
        use morphstream_durability::{CheckpointBuilder, CheckpointStore};

        let dir = std::env::temp_dir().join(format!("morph-bench-chk-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut checkpoints = CheckpointStore::open(&dir).expect("open checkpoint store");
        let store = StateStore::new();
        let mut topology = TollProcessingApp::topology_with(
            &store,
            config,
            engine_config,
            morphstream::TopologyConfig::default(),
            parallelism,
        );
        let mut applied = 0u64;
        let mut checkpoint_bytes = 0u64;
        let mut count = 0u64;
        let started = std::time::Instant::now();
        for chunk in events.chunks(interval) {
            {
                let mut pipeline = topology.pipeline();
                for event in chunk {
                    pipeline.push(event.clone());
                }
            }
            applied += chunk.len() as u64;
            let mut builder = CheckpointBuilder::new();
            TxnEngine::checkpoint(&mut topology, &mut builder);
            let checkpoint = builder.build(checkpoints.next_id(), applied, 0);
            let saved = checkpoints.save(&checkpoint).expect("save checkpoint");
            checkpoint_bytes += saved.bytes;
            count += 1;
        }
        let mut report = topology.finish();
        let wall_s = started.elapsed().as_secs_f64();
        let mut system_row = TopologyRow::from_report(label, &mut report, wall_s);
        system_row.checkpoints = count;
        system_row.checkpoint_bytes = checkpoint_bytes;
        let mut rows = vec![system_row];
        for op in &report.operators {
            rows.push(TopologyRow::from_operator(label, op));
        }
        let digest = store.state_digest();
        let _ = std::fs::remove_dir_all(&dir);
        (rows, wall_s, digest)
    }

    /// Measure the fused TP app and the two-operator topology — inline
    /// driver and (with `--concurrent`) the threaded driver with
    /// `--parallelism N` keyed statistics instances — on the same event
    /// stream; topology renditions contribute per-operator-instance
    /// sub-rows. Every rendition must agree on the final state digest — the
    /// measurement asserts it, so the benchmark doubles as a correctness
    /// canary for the threaded driver and keyed parallelism.
    pub fn measure(scale: Scale, options: TopologyOptions) -> Vec<TopologyRow> {
        let config = WorkloadConfig::toll_processing()
            .with_key_space(20_000)
            .with_udf_complexity_us(1)
            .with_txns_per_batch(1_024)
            .with_abort_ratio(0.05);
        let events = TollProcessingApp::generate(&config, 4_096 * scale.factor());
        let engine_config = bench_engine_config(bench_threads(), config.txns_per_batch);

        let fused_store = StateStore::new();
        let fused_app = TollProcessingApp::new(&fused_store, &config);
        let mut fused_engine = MorphStream::new(fused_app, fused_store.clone(), engine_config);
        let fused_started = std::time::Instant::now();
        let mut fused_report = fused_engine.run(events.clone());
        let fused_wall = fused_started.elapsed().as_secs_f64();

        let fused_label = SystemUnderTest::MorphStream.to_string();
        let topology_label = SystemUnderTest::Topology.to_string();
        let mut rows = vec![TopologyRow::from_report(
            &format!("{fused_label} (fused TP)"),
            &mut fused_report,
            fused_wall,
        )];

        let serial_label = format!("{topology_label} (serial)");
        let (serial_rows, _, serial_digest) = measure_topology(
            &serial_label,
            &config,
            engine_config,
            morphstream::TopologyConfig::default(),
            options.parallelism,
            &events,
        );
        assert_eq!(
            fused_store.state_digest(),
            serial_digest,
            "the fused app and its topology split diverged"
        );
        rows.extend(serial_rows);

        // The same serial topology with an incremental checkpoint every 4
        // punctuation batches: the wall-clock delta against the plain serial
        // row is the durability overhead, and the digest must not move.
        let checkpoint_interval = config.txns_per_batch * 4;
        let checkpointed_label = format!("{topology_label} (serial + checkpoints)");
        let (checkpointed_rows, _, checkpointed_digest) = measure_checkpointed(
            &checkpointed_label,
            &config,
            engine_config,
            options.parallelism,
            &events,
            checkpoint_interval,
        );
        assert_eq!(
            fused_store.state_digest(),
            checkpointed_digest,
            "taking checkpoints changed the computation"
        );
        rows.extend(checkpointed_rows);

        if options.concurrent {
            let concurrent_label =
                format!("{topology_label} (concurrent ×{})", options.parallelism);
            let (concurrent_rows, _, concurrent_digest) = measure_topology(
                &concurrent_label,
                &config,
                engine_config,
                morphstream::TopologyConfig::default().with_concurrent(true),
                options.parallelism,
                &events,
            );
            assert_eq!(
                fused_store.state_digest(),
                concurrent_digest,
                "the concurrent topology runtime diverged"
            );
            rows.extend(concurrent_rows);
        }
        rows
    }

    /// Print the figure and return the measured rows.
    pub fn run(scale: Scale, options: TopologyOptions) -> Vec<TopologyRow> {
        banner(
            "Topology",
            "fused TP operator vs two-operator dataflow (serial vs concurrent runtime)",
        );
        println!(
            "{:<38} {:>12} {:>10} {:>10} {:>10} {:>9} {:>9} {:>7}",
            "system / operator",
            "k events/s",
            "p50 ms",
            "p95 ms",
            "committed",
            "aborted",
            "wall s",
            "q-full"
        );
        let rows = measure(scale, options);
        for row in &rows {
            let label = match &row.operator {
                Some(op) => format!("  └ {op}"),
                None => row.system.clone(),
            };
            println!(
                "{:<38} {:>12.2} {:>10.2} {:>10.2} {:>10} {:>9} {:>9.3} {:>7}",
                label,
                row.k_events_per_second,
                row.p50_latency_ms,
                row.p95_latency_ms,
                row.committed,
                row.aborted,
                row.wall_s,
                row.queue_full_waits
            );
        }
        let wall_of = |needle: &str| {
            rows.iter()
                .find(|r| r.operator.is_none() && r.system.contains(needle))
                .map(|r| r.wall_s)
        };
        if let (Some(serial), Some(concurrent)) = (wall_of("(serial)"), wall_of("(concurrent")) {
            println!(
                "\nconcurrent / serial wall-clock: {:.3}s / {:.3}s = {:.2}x",
                concurrent,
                serial,
                concurrent / serial.max(f64::EPSILON)
            );
        }
        let checkpointed_row = rows
            .iter()
            .find(|r| r.operator.is_none() && r.system.contains("(serial + checkpoints)"));
        if let (Some(serial), Some(row)) = (wall_of("(serial)"), checkpointed_row) {
            println!(
                "checkpoint overhead: {:.3}s vs {:.3}s = {:+.1}% wall-clock \
                 ({} checkpoints, {} bytes)",
                row.wall_s,
                serial,
                (row.wall_s / serial.max(f64::EPSILON) - 1.0) * 100.0,
                row.checkpoints,
                row.checkpoint_bytes
            );
        }
        rows
    }
}
