//! One module per figure of the evaluation (Section 8). Every `measure(scale)`
//! runs the figure's experiment and returns its rows; every `run(scale)`
//! prints them. [`FIGURES`] maps a figure number to its `run`.

use morphstream::storage::StateStore;
use morphstream::{
    AbortHandling, EngineConfig, ExplorationStrategy, Granularity, MorphStream, SchedulingDecision,
    TxnEngine,
};
use morphstream_common::metrics::BreakdownBucket;
use morphstream_common::WorkloadConfig;
use morphstream_workloads::{
    DynamicWorkload, GrepSumApp, GsEvent, OsedApp, OsedReport, SeaApp, SeaGenerator,
    StreamingLedgerApp, TollProcessingApp, TpEvent, TweetGenerator,
};

use crate::harness::{
    banner, bench_engine_config, bench_sl_config, bench_threads, drive, engine, run_sl_on, Scale,
    SystemReport,
};
use crate::SystemUnderTest;

/// A figure's number and the `run` that prints it.
pub type Figure = (&'static str, fn(Scale));

/// Every figure the `figs` binary regenerates, by number, in order.
pub const FIGURES: [Figure; 13] = [
    ("11", fig11::run),
    ("12", fig12::run),
    ("13", fig13::run),
    ("14", fig14::run),
    ("15", fig15::run),
    ("16", fig16::run),
    ("17", fig17::run),
    ("18", fig18::run),
    ("19", fig19::run),
    ("20", fig20::run),
    ("21", fig21::run),
    ("23", fig23::run),
    ("25", fig25::run),
];

/// Grep&Sum over 20 000 keys at 1 024 events per punctuation, with Table 6's
/// UDF cost C = 10 µs: `(config, event count)`. At that cost a batch of 512
/// events declares ≈ 5 ms of work, which engages two workers, so the
/// decisions Figures 18 and 19 compare act on a multi-worker schedule.
pub fn gs_config(scale: Scale) -> (WorkloadConfig, usize) {
    let config = WorkloadConfig::grep_sum()
        .with_key_space(20_000)
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

/// Run Grep&Sum `events` on MorphStream, fixed to `decision` when one is
/// given.
fn run_gs(
    config: &WorkloadConfig,
    events: Vec<GsEvent>,
    engine_config: EngineConfig,
    decision: Option<SchedulingDecision>,
) -> SystemReport {
    let store = StateStore::new();
    let mut engine = MorphStream::new(GrepSumApp::new(&store, config), store, engine_config);
    if let Some(decision) = decision {
        engine = engine.with_fixed_decision(decision);
    }
    drive(SystemUnderTest::MorphStream, engine, events)
}

/// One row of a decision sweep: `(decision label, swept value, report)`.
pub type SweepRow<P> = (&'static str, P, SystemReport);

/// A point of a decision sweep: `(swept value, config, events)`.
pub type SweepPoint<P> = (P, WorkloadConfig, Vec<GsEvent>);

/// Run every point's events on MorphStream under every labelled decision.
fn sweep<P: Copy>(
    points: Vec<SweepPoint<P>>,
    decisions: &[(&'static str, SchedulingDecision)],
) -> Vec<SweepRow<P>> {
    let mut rows = Vec::new();
    for (value, config, events) in points {
        let engine_config = bench_engine_config(bench_threads(), config.txns_per_batch);
        for &(label, decision) in decisions {
            let report = run_gs(&config, events.clone(), engine_config, Some(decision));
            rows.push((label, value, report));
        }
    }
    rows
}

/// Figure 11: SL throughput comparison across systems on all cores.
pub mod fig11 {
    use super::*;

    /// One report per system.
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

    /// Print the figure.
    pub fn run(scale: Scale) {
        banner(
            "Figure 11",
            "SL throughput: MorphStream vs TSPEs vs conventional SPE",
        );
        println!("{}", SystemReport::header());
        for report in measure(scale) {
            println!("{}", report.row());
        }
    }
}

/// Figure 12: dynamic 4-phase workload — throughput over phases and latency.
pub mod fig12 {
    use super::*;
    use morphstream_workloads::DynamicPhase;

    /// One report per phase, in phase order.
    pub type PhaseSeries = Vec<(DynamicPhase, SystemReport)>;

    /// Per-system, per-phase reports.
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
            let rows = workload
                .all_phases()
                .into_iter()
                .map(|(phase, events)| (phase, run_sl_on(system, &config, engine_config, events)))
                .collect();
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
            for (phase, report) in rows {
                println!(
                    "{:<28} {:<18} {:>12.2} {:>12.2}",
                    system.to_string(),
                    format!("{phase:?}"),
                    report.k_events_per_second,
                    report.p95_latency_ms
                );
            }
        }
    }
}

/// Figure 13: single vs multiple (nested) scheduling strategies on TP.
pub mod fig13 {
    use super::*;

    /// `(configuration, report)` rows.
    pub fn measure(scale: Scale) -> Vec<(&'static str, SystemReport)> {
        let config = WorkloadConfig::toll_processing()
            .with_key_space(20_000)
            .with_udf_complexity_us(1)
            .with_txns_per_batch(2_048);
        let count = 4_096 * scale.factor();
        let events = TollProcessingApp::generate_two_groups(&config, count, 0.5, 0.3, 0.9);
        let engine_config = bench_engine_config(bench_threads(), config.txns_per_batch);
        let tp = |system| {
            let store = StateStore::new();
            engine(
                system,
                TollProcessingApp::new(&store, &config),
                store,
                engine_config,
            )
        };

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
        let morph = SystemUnderTest::MorphStream;
        [
            // Nested: adaptive per-group decisions.
            (
                "Nested",
                morph,
                tp(morph).with_group_fn(|e: &TpEvent| e.group),
            ),
            ("Plain-1", morph, tp(morph).with_fixed_decision(plain1)),
            ("Plain-2", morph, tp(morph).with_fixed_decision(plain2)),
            (
                "TStream",
                SystemUnderTest::TStream,
                tp(SystemUnderTest::TStream),
            ),
            (
                "S-Store",
                SystemUnderTest::SStore,
                tp(SystemUnderTest::SStore),
            ),
        ]
        .into_iter()
        .map(|(label, system, engine)| (label, drive(system, engine, events.clone())))
        .collect()
    }

    /// Print the figure.
    pub fn run(scale: Scale) {
        banner("Figure 13", "TP: nested vs plain strategies vs baselines");
        println!("{:<12} {:>12} {:>12}", "config", "k events/s", "p95 ms");
        for (label, report) in measure(scale) {
            println!(
                "{label:<12} {:>12.2} {:>12.2}",
                report.k_events_per_second, report.p95_latency_ms
            );
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
        let engine_config = bench_engine_config(bench_threads(), config.txns_per_batch)
            .with_reclaim_after_batch(false);
        let kps = |period: usize, window: u64| {
            let events = GrepSumApp::generate_windowed(&config, count, period, 20, window);
            run_gs(&config, events, engine_config, None).k_events_per_second
        };
        let by_window = [100u64, 1_000, 10_000]
            .into_iter()
            .map(|window| (window, kps(100, window)))
            .collect();
        let by_period = [10usize, 100, 1_000]
            .into_iter()
            .map(|period| (period, kps(period, 1_000)))
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
        let mut rows = Vec::new();
        for non_det in [50usize, 100, 200, 400] {
            let events = GrepSumApp::generate_non_deterministic(&config, count, non_det);
            for system in [
                SystemUnderTest::MorphStream,
                SystemUnderTest::TStream,
                SystemUnderTest::SStore,
            ] {
                let store = StateStore::new();
                let app = GrepSumApp::new(&store, &config);
                let engine = engine(system, app, store, engine_config);
                let report = drive(system, engine, events.clone());
                rows.push((system, non_det, report.k_events_per_second));
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

    /// One measured system of Figure 16.
    #[derive(Debug, Clone)]
    pub struct Fig16Row {
        /// The system.
        pub system: SystemUnderTest,
        /// Per-bucket runtime fractions (Figure 16a).
        pub fractions: BucketFractions,
        /// Peak auxiliary memory in bytes (Figure 16b).
        pub peak_bytes: u64,
        /// Total TPG-construction wall time (seconds).
        pub construct_s: f64,
        /// Wall time of the execution stage (seconds).
        pub execute_s: f64,
    }

    /// Per-system breakdown fractions, peak memory and stage timings.
    pub fn measure(scale: Scale) -> Vec<Fig16Row> {
        let (config, events) = bench_sl_config(scale);
        let workload = DynamicWorkload::new(config, events / 2);
        let mut all_events = Vec::new();
        for (_, phase_events) in workload.all_phases() {
            all_events.extend(phase_events);
        }
        let engine_config = bench_engine_config(bench_threads(), config.txns_per_batch)
            .with_reclaim_after_batch(false);
        [
            SystemUnderTest::MorphStream,
            SystemUnderTest::TStream,
            SystemUnderTest::SStore,
        ]
        .into_iter()
        .map(|system| {
            let store = StateStore::new();
            let app = StreamingLedgerApp::new(&store, &config);
            let report = engine(system, app, store, engine_config).run(all_events.clone());
            Fig16Row {
                system,
                fractions: BreakdownBucket::ALL
                    .iter()
                    .map(|&b| (b, report.breakdown.fraction(b)))
                    .collect(),
                peak_bytes: report.memory.peak_bytes(),
                construct_s: report.stage_timings.construct.as_secs_f64(),
                execute_s: report.stage_timings.execute.as_secs_f64(),
            }
        })
        .collect()
    }

    /// Print the figure.
    pub fn run(scale: Scale) {
        banner(
            "Figure 16",
            "runtime breakdown, memory footprint, stage times (dynamic SL)",
        );
        for row in measure(scale) {
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
    }
}

/// Figure 17: impact of clean-up (version reclamation).
pub mod fig17 {
    use super::*;

    /// `(label, report)` rows: without, then with clean-up.
    pub fn measure(scale: Scale) -> Vec<(&'static str, SystemReport)> {
        let (config, events) = bench_sl_config(scale);
        let events_vec = StreamingLedgerApp::generate(&config, events, 0.6);
        [("w/o clean-up", false), ("w/ clean-up", true)]
            .into_iter()
            .map(|(label, reclaim)| {
                let engine_config = bench_engine_config(bench_threads(), config.txns_per_batch)
                    .with_reclaim_after_batch(reclaim);
                let system = SystemUnderTest::MorphStream;
                let report = run_sl_on(system, &config, engine_config, events_vec.clone());
                (label, report)
            })
            .collect()
    }

    /// Print the figure.
    pub fn run(scale: Scale) {
        banner("Figure 17", "clean-up impact: throughput and memory");
        println!("{:<16} {:>12} {:>12}", "config", "k events/s", "peak MiB");
        for (label, report) in measure(scale) {
            let mib = report.peak_bytes_retained as f64 / (1024.0 * 1024.0);
            println!(
                "{label:<16} {:>12.2} {mib:>12.2}",
                report.k_events_per_second
            );
        }
    }
}

/// Figure 18: exploration strategy decision.
pub mod fig18 {
    use super::*;

    const STRATEGIES: [(&str, ExplorationStrategy); 3] = [
        ("ns-explore", ExplorationStrategy::NonStructured),
        ("s-explore(BFS)", ExplorationStrategy::StructuredBfs),
        ("s-explore(DFS)", ExplorationStrategy::StructuredDfs),
    ];

    /// Punctuation-interval and zipf-θ series, every strategy at every
    /// point.
    pub fn measure(scale: Scale) -> (Vec<SweepRow<usize>>, Vec<SweepRow<f64>>) {
        let (config, count) = gs_config(scale);
        let config = config.with_abort_ratio(0.0);
        let decisions = STRATEGIES.map(|(label, strategy)| {
            (
                label,
                fixed(strategy, Granularity::Fine, AbortHandling::Eager),
            )
        });
        let by_interval = [512usize, 1_024, 4_096]
            .into_iter()
            .map(|interval| {
                let config = config.with_txns_per_batch(interval);
                (interval, config, GrepSumApp::generate(&config, count))
            })
            .collect();
        let by_skew = [0.0f64, 0.5, 1.0]
            .into_iter()
            .map(|theta| {
                let config = config.with_zipf_theta(theta);
                (theta, config, GrepSumApp::generate(&config, count))
            })
            .collect();
        (sweep(by_interval, &decisions), sweep(by_skew, &decisions))
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
        for (label, interval, report) in by_interval {
            let kps = report.k_events_per_second;
            println!("{label:<16} {interval:>14} {kps:>12.2}");
        }
        println!(
            "{:<16} {:>14} {:>12}",
            "strategy", "zipf theta", "k events/s"
        );
        for (label, theta, report) in by_skew {
            let kps = report.k_events_per_second;
            println!("{label:<16} {theta:>14.2} {kps:>12.2}");
        }
    }
}

/// Figure 19: scheduling granularity decision.
pub mod fig19 {
    use super::*;

    const GRANULARITIES: [(&str, Granularity); 2] = [
        ("f-schedule", Granularity::Fine),
        ("c-schedule", Granularity::Coarse),
    ];

    /// The cyclic / acyclic points: single-state updates, and three-state
    /// updates whose interleaved reads tie the operation chains into
    /// cycles.
    pub fn cycle_points(scale: Scale) -> Vec<SweepPoint<&'static str>> {
        let (config, count) = gs_config(scale);
        [("acyclic", 1usize), ("cyclic", 3)]
            .into_iter()
            .map(|(case, states_per_op)| {
                let config = config
                    .with_states_per_op(states_per_op)
                    .with_abort_ratio(0.0);
                (case, config, GrepSumApp::generate(&config, count))
            })
            .collect()
    }

    /// Three series: cyclic/acyclic, punctuation interval, multi-access
    /// ratio; every granularity at every point.
    #[allow(clippy::type_complexity)]
    pub fn measure(
        scale: Scale,
    ) -> (
        Vec<SweepRow<&'static str>>,
        Vec<SweepRow<usize>>,
        Vec<SweepRow<usize>>,
    ) {
        let (config, count) = gs_config(scale);
        let config = config.with_abort_ratio(0.0);
        let decisions = GRANULARITIES.map(|(label, granularity)| {
            let decision = fixed(
                ExplorationStrategy::NonStructured,
                granularity,
                AbortHandling::Eager,
            );
            (label, decision)
        });

        // punctuation interval sweep with single-state accesses
        let by_interval = [512usize, 1_024, 4_096]
            .into_iter()
            .map(|interval| {
                let config = config.with_states_per_op(1).with_txns_per_batch(interval);
                (interval, config, GrepSumApp::generate(&config, count))
            })
            .collect();

        // single- and multi-state updates mixed at a ratio
        let multi = GrepSumApp::generate(&config.with_states_per_op(3), count);
        let single = GrepSumApp::generate(&config.with_states_per_op(1), count);
        let by_ratio = [10usize, 50, 90]
            .into_iter()
            .map(|ratio| {
                let events = (0..count)
                    .map(|i| {
                        if i % 100 < ratio {
                            multi[i].clone()
                        } else {
                            single[i].clone()
                        }
                    })
                    .collect();
                (ratio, config, events)
            })
            .collect();
        (
            sweep(cycle_points(scale), &decisions),
            sweep(by_interval, &decisions),
            sweep(by_ratio, &decisions),
        )
    }

    /// Print the figure.
    pub fn run(scale: Scale) {
        banner("Figure 19", "scheduling granularities");
        let (by_cycles, by_interval, by_ratio) = measure(scale);
        println!(
            "{:<14} {:>10} {:>12}",
            "granularity", "workload", "k events/s"
        );
        for (label, case, report) in by_cycles {
            let kps = report.k_events_per_second;
            println!("{label:<14} {case:>10} {kps:>12.2}");
        }
        println!(
            "{:<14} {:>10} {:>12}",
            "granularity", "interval", "k events/s"
        );
        for (label, interval, report) in by_interval {
            let kps = report.k_events_per_second;
            println!("{label:<14} {interval:>10} {kps:>12.2}");
        }
        println!(
            "{:<14} {:>10} {:>12}",
            "granularity", "multi %", "k events/s"
        );
        for (label, ratio, report) in by_ratio {
            let kps = report.k_events_per_second;
            println!("{label:<14} {ratio:>10} {kps:>12.2}");
        }
    }
}

/// Figure 20: abort handling decision.
pub mod fig20 {
    use super::*;

    /// UDF-cost and abort-ratio series, both mechanisms at every point.
    pub fn measure(scale: Scale) -> (Vec<SweepRow<u64>>, Vec<SweepRow<usize>>) {
        let (config, count) = gs_config(scale);
        let decisions = [
            ("e-abort", AbortHandling::Eager),
            ("l-abort", AbortHandling::Lazy),
        ]
        .map(|(label, abort)| {
            let decision = fixed(ExplorationStrategy::NonStructured, Granularity::Fine, abort);
            (label, decision)
        });
        let by_complexity = [0u64, 20, 50]
            .into_iter()
            .map(|cost| {
                let config = config.with_udf_complexity_us(cost).with_abort_ratio(0.4);
                (cost, config, GrepSumApp::generate(&config, count))
            })
            .collect();
        let by_abort_ratio = [10usize, 50, 90]
            .into_iter()
            .map(|ratio| {
                let config = config
                    .with_udf_complexity_us(0)
                    .with_abort_ratio(ratio as f64 / 100.0);
                (ratio, config, GrepSumApp::generate(&config, count))
            })
            .collect();
        (
            sweep(by_complexity, &decisions),
            sweep(by_abort_ratio, &decisions),
        )
    }

    /// Print the figure.
    pub fn run(scale: Scale) {
        banner("Figure 20", "abort handling mechanisms");
        let (by_complexity, by_ratio) = measure(scale);
        println!("{:<10} {:>10} {:>12}", "abort", "udf µs", "k events/s");
        for (label, cost, report) in by_complexity {
            let kps = report.k_events_per_second;
            println!("{label:<10} {cost:>10} {kps:>12.2}");
        }
        println!("{:<10} {:>10} {:>12}", "abort", "abort %", "k events/s");
        for (label, ratio, report) in by_ratio {
            let kps = report.k_events_per_second;
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
            let report = engine(system, app, store, engine_config).run(events_vec.clone());
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
