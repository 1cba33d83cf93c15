//! The claims of the paper's evaluation (§8, Figures 11–25), asserted on the
//! rows `figs::figN::measure` returns at smoke scale. An assertion reads a
//! quantity that does not depend on the host — a digest, an output list, a
//! decision, a worker count, a byte count — except Figure 11's, a throughput
//! ratio asserted with ≥ 5× headroom in a debug build. A claim that is timing
//! alone, or does not hold today, is an `#[ignore]`d test that asserts it and
//! records what release `figs N` measured on a 2-core VM.
//!
//! Figure → where its claim is checked:
//!
//! | Fig | Test |
//! |---|---|
//! | 11 | [`fig11_morphstream_outruns_the_locked_spe`]; every engine reaches the oracle's state: `tests/engines_agree.rs` at the workspace root |
//! | 12 | does not hold: [`fig12_the_decision_changes_across_the_phases`] (ignored); timing: [`fig12_morphstream_wins_every_phase`] (ignored) |
//! | 13 | timing: [`fig13_nested_beats_both_plain_strategies`] (ignored) |
//! | 14, 15 | [`fig14_15_engines_agree_on_windowed_and_non_deterministic_streams`]; planning stays linear in non-det accesses: [`fig15_planned_edges_do_not_grow_with_non_deterministic_accesses`] |
//! | 16 | [`fig16_every_system_pays_for_construction`]; the baselines' half: `tstream_and_sstore_charge_planning_to_construct_and_report_their_decision` in `crates/baselines` |
//! | 17 | [`fig17_clean_up_retains_less_and_changes_nothing`] |
//! | 18, 19 | [`fig18_19_every_configuration_engages_two_workers`]; does not hold: [`fig19_only_the_cyclic_workload_has_coarse_cycles`] (ignored); timing: [`fig18_ns_explore_wins_under_skew`], [`fig19_c_schedule_wins_only_without_cycles`] (ignored) |
//! | 20 | a one-worker batch redoes nothing under either abort handling: `tests/one_worker_runs_in_timestamp_order.rs` at the workspace root; timing: [`fig20_l_abort_wins_only_on_cheap_udfs`] (ignored) |
//! | 21 | timing: [`fig21_morphstream_scales_with_cores`] (ignored) |
//! | 23 | `osed::tests::detected_popularity_tracks_expected_popularity` in `crates/workloads` |
//! | 25 | `sea::tests::join_matches_track_the_analytical_expectation` in `crates/workloads` |

use morphstream::storage::StateStore;
use morphstream::{
    SchedulingDecision, StreamApp, Transaction, TransactionBatch, TxnBuilder, TxnEngine,
};
use morphstream_bench::figs::{fig11, fig12, fig13, fig16, fig17, fig18, fig19, fig20, fig21};
use morphstream_bench::figs::{gs_config, SweepRow};
use morphstream_bench::harness::{bench_engine_config, engine};
use morphstream_bench::{Scale, SystemReport, SystemUnderTest};
use morphstream_common::metrics::BreakdownBucket;
use morphstream_common::Timestamp;
use morphstream_tpg::{SchedulingUnits, Tpg, TpgBuilder};
use morphstream_workloads::{DynamicPhase, GrepSumApp, GsEvent};

const ENGINES: [SystemUnderTest; 3] = [
    SystemUnderTest::MorphStream,
    SystemUnderTest::TStream,
    SystemUnderTest::SStore,
];

fn kps(rows: &[SystemReport], system: SystemUnderTest) -> f64 {
    let row = rows.iter().find(|r| r.system == system).expect("row");
    row.k_events_per_second
}

/// Throughput of the sweep row labelled `label` at `value`.
fn sweep_kps<P: PartialEq>(rows: &[SweepRow<P>], label: &str, value: P) -> f64 {
    let (_, _, report) = rows
        .iter()
        .find(|(l, v, _)| *l == label && *v == value)
        .expect("sweep row");
    report.k_events_per_second
}

/// Measured in debug on the 2-core VM: MorphStream 97.5 k events/s against
/// 11.6 for the locked SPE (8.4×); in release 325 against 12.4 (26×).
#[test]
fn fig11_morphstream_outruns_the_locked_spe() {
    let rows = fig11::measure(Scale::Smoke);
    let morph = kps(&rows, SystemUnderTest::MorphStream);
    let locked = kps(&rows, SystemUnderTest::LockedSpeWithLocks);
    assert!(
        morph > locked,
        "MorphStream {morph:.1} vs locked SPE {locked:.1}"
    );
}

/// `system`'s reports of the four phases.
fn phases(
    rows: &[(SystemUnderTest, fig12::PhaseSeries)],
    system: SystemUnderTest,
) -> &[(DynamicPhase, SystemReport)] {
    let (_, phases) = rows.iter().find(|(s, _)| *s == system).expect("series");
    phases
}

/// Does not hold: all 8 batches of MorphStream's four phases run
/// ns-explore / f-schedule / e-abort. The abort rule reads the app's
/// configured abort ratio (1 %), not the phase's.
#[test]
#[ignore = "does not hold today (ROADMAP item 4)"]
fn fig12_the_decision_changes_across_the_phases() {
    let rows = fig12::measure(Scale::Smoke);
    let decisions: Vec<SchedulingDecision> = phases(&rows, SystemUnderTest::MorphStream)
        .iter()
        .flat_map(|(_, report)| report.batches.iter().map(|b| b.decision))
        .collect();
    assert!(
        decisions.windows(2).any(|w| w[0] != w[1]),
        "one decision for every phase: {:?} ({} batches)",
        decisions[0],
        decisions.len()
    );
}

/// Release `figs 12` (k events/s, MorphStream / TStream): Deposits 574 / 437,
/// RisingSkew 509 / 376, RisingTransfers 404 / 341, RisingAborts 319 / 134.
/// It held in this run; over three runs before, TStream won Deposits in two
/// and RisingSkew and RisingTransfers flipped between runs.
#[test]
#[ignore = "timing (ROADMAP item 9)"]
fn fig12_morphstream_wins_every_phase() {
    let rows = fig12::measure(Scale::Smoke);
    let morph = phases(&rows, SystemUnderTest::MorphStream);
    let tstream = phases(&rows, SystemUnderTest::TStream);
    for ((phase, morph), (_, tstream)) in morph.iter().zip(tstream) {
        let (morph, tstream) = (morph.k_events_per_second, tstream.k_events_per_second);
        assert!(
            morph > tstream,
            "{phase:?}: {morph:.1} vs TStream {tstream:.1}"
        );
    }
}

/// Release `figs 13` (k events/s): Nested 246, Plain-1 141, Plain-2 169.
#[test]
#[ignore = "timing (ROADMAP item 9)"]
fn fig13_nested_beats_both_plain_strategies() {
    let rows = fig13::measure(Scale::Smoke);
    let kps = |label: &str| {
        let (_, report) = rows.iter().find(|(l, _)| *l == label).expect("row");
        report.k_events_per_second
    };
    assert!(kps("Nested") > kps("Plain-1"));
    assert!(kps("Nested") > kps("Plain-2"));
}

/// Final state digest and outputs of `events` on `system` at `threads`, with
/// every batch's worker count.
fn gs_run(
    system: SystemUnderTest,
    events: &[GsEvent],
    threads: usize,
) -> ((u64, Vec<Option<i64>>), Vec<usize>) {
    let (config, _) = gs_config(Scale::Smoke);
    let config = config.with_abort_ratio(0.0);
    let store = StateStore::new();
    let app = GrepSumApp::new(&store, &config);
    let engine_config = bench_engine_config(threads, config.txns_per_batch);
    let report = engine(system, app, store.clone(), engine_config).run(events.to_vec());
    let workers = report.batches.iter().map(|b| b.workers).collect();
    ((store.state_digest(), report.outputs), workers)
}

#[test]
fn fig14_15_engines_agree_on_windowed_and_non_deterministic_streams() {
    let (config, _) = gs_config(Scale::Smoke);
    let config = config.with_abort_ratio(0.0);
    let streams = [
        (
            "windowed",
            GrepSumApp::generate_windowed(&config, 2_048, 100, 20, 1_000),
        ),
        (
            "non-deterministic",
            GrepSumApp::generate_non_deterministic(&config, 2_048, 50),
        ),
    ];
    for (stream, events) in streams {
        let (expected, _) = gs_run(SystemUnderTest::MorphStream, &events, 1);
        for system in ENGINES {
            for threads in [1, 2] {
                let (result, workers) = gs_run(system, &events, threads);
                let label = format!("{stream} stream, {system} at {threads} threads");
                assert!(result == expected, "{label}: digest or outputs diverged");
                // S-Store runs each merged group of partitions as one loop,
                // and every batch here spans both: a window read of 20 keys
                // or a non-deterministic access, which names every partition.
                if threads == 2 && system == SystemUnderTest::SStore {
                    assert!(workers.iter().all(|&w| w == 1), "{label}: {workers:?}");
                } else if threads == 2 {
                    assert!(workers.iter().all(|&w| w >= 2), "{label}: {workers:?}");
                }
            }
        }
    }
}

/// Planned TD + PD edges per operation on Figure 15's GS streams stay within
/// 1.25× from 50 to 400 non-deterministic accesses: each access is ordered
/// against its own table's lists without entering them, so planning is
/// linear in the accesses. Measured: 1.96 at 50 and 1.97 at 400; with a
/// placeholder for every access in every list, 11.95 and 83.54.
#[test]
fn fig15_planned_edges_do_not_grow_with_non_deterministic_accesses() {
    let (config, count) = gs_config(Scale::Smoke);
    let app = GrepSumApp::new(&StateStore::new(), &config);
    let edges_per_op = |non_det| {
        let events = GrepSumApp::generate_non_deterministic(&config, count, non_det);
        let tpgs = plan(&app, &events, config.txns_per_batch);
        let edges: usize = tpgs
            .iter()
            .map(|t| t.stats().td_edges + t.stats().pd_edges)
            .sum();
        let ops: usize = tpgs.iter().map(|t| t.num_ops()).sum();
        edges as f64 / ops as f64
    };
    let (few, many) = (edges_per_op(50), edges_per_op(400));
    assert!(
        many <= 1.25 * few,
        "{many:.2} edges per op at 400 vs {few:.2} at 50"
    );
}

#[test]
fn fig16_every_system_pays_for_construction() {
    let rows = fig16::measure(Scale::Smoke);
    assert_eq!(rows.len(), ENGINES.len());
    for row in rows {
        let (_, construct) = row
            .fractions
            .iter()
            .find(|(bucket, _)| *bucket == BreakdownBucket::Construct)
            .expect("construct bucket");
        assert!(*construct > 0.0, "{}: construct share 0", row.system);
    }
}

#[test]
fn fig17_clean_up_retains_less_and_changes_nothing() {
    let rows = fig17::measure(Scale::Smoke);
    let [(_, off), (_, on)] = &rows[..] else {
        panic!("two rows")
    };
    assert!(
        on.peak_bytes_retained < off.peak_bytes_retained,
        "peak bytes with clean-up {} vs without {}",
        on.peak_bytes_retained,
        off.peak_bytes_retained
    );
    assert_eq!(on.state_digest, off.state_digest);
}

fn assert_two_workers<P: std::fmt::Debug>(figure: &str, rows: &[SweepRow<P>]) {
    for (label, value, report) in rows {
        let workers: Vec<usize> = report.batches.iter().map(|b| b.workers).collect();
        assert!(
            workers.iter().all(|&w| w >= 2),
            "{figure} {label} at {value:?}: workers {workers:?}"
        );
    }
}

/// A decision changes a schedule only from two workers on: a one-worker
/// batch runs its transactions serially, in timestamp order, whatever the
/// decision.
#[test]
fn fig18_19_every_configuration_engages_two_workers() {
    let (by_interval, by_skew) = fig18::measure(Scale::Smoke);
    assert_two_workers("fig18", &by_interval);
    assert_two_workers("fig18", &by_skew);
    let (by_cycles, by_interval, by_ratio) = fig19::measure(Scale::Smoke);
    assert_two_workers("fig19", &by_cycles);
    assert_two_workers("fig19", &by_interval);
    assert_two_workers("fig19", &by_ratio);
}

/// The TPG of every batch of `events`, planned as the engine plans it.
fn plan<A: StreamApp>(app: &A, events: &[A::Event], punctuation: usize) -> Vec<Tpg> {
    let planner = TpgBuilder::new();
    let mut tpgs = Vec::new();
    for (index, chunk) in events.chunks(punctuation).enumerate() {
        let ts_base = (index * punctuation) as Timestamp + 1;
        let mut batch = TransactionBatch::new();
        for (i, event) in chunk.iter().enumerate() {
            let mut txn = TxnBuilder::new();
            app.state_access(event, &mut txn);
            batch.push(Transaction::new(ts_base + i as Timestamp, txn.into_ops()));
        }
        tpgs.push(planner.build(batch));
    }
    tpgs
}

/// Per batch of `events`, whether the coarse partition of its TPG has cycles.
fn coarse_cycles<A: StreamApp>(app: &A, events: &[A::Event], punctuation: usize) -> Vec<bool> {
    let tpgs = plan(app, events, punctuation);
    tpgs.iter()
        .map(|tpg| SchedulingUnits::coarse(tpg).had_cycles)
        .collect()
}

/// Does not hold: neither case's coarse partition has a cycle in any of its
/// four batches. Over 20 000 keys at θ = 0.2 a batch of 1 024 updates rarely
/// writes both ends of a read, whether it reads one state or three.
#[test]
#[ignore = "does not hold today (ROADMAP item 4)"]
fn fig19_only_the_cyclic_workload_has_coarse_cycles() {
    for (case, config, events) in fig19::cycle_points(Scale::Smoke) {
        let app = GrepSumApp::new(&StateStore::new(), &config);
        let cycles = coarse_cycles(&app, &events, config.txns_per_batch);
        let expected = case == "cyclic";
        assert!(cycles.iter().all(|&c| c == expected), "{case}: {cycles:?}");
    }
}

/// Release `figs 18` (k events/s, ns / BFS / DFS), two runs: at θ = 1.0
/// 79.5 / 75.6 / 78.9 and 132.7 / 110.9 / 124.8; at θ = 0 115.5 / 139.2 /
/// 133.9 and 147.5 / 140.3 / 138.4.
#[test]
#[ignore = "timing (ROADMAP item 9)"]
fn fig18_ns_explore_wins_under_skew() {
    let (_, by_skew) = fig18::measure(Scale::Smoke);
    let ns = sweep_kps(&by_skew, "ns-explore", 1.0);
    let bfs = sweep_kps(&by_skew, "s-explore(BFS)", 1.0);
    assert!(ns > bfs, "θ = 1.0: ns {ns:.1} vs BFS {bfs:.1}");
}

/// Release `figs 19` (k events/s, f / c), two runs: acyclic 80.3 / 80.6 and
/// 140.7 / 142.4; cyclic 76.2 / 75.4 and 141.5 / 128.1. The margins are
/// within the spread, and the cyclic case has no cycles (above).
#[test]
#[ignore = "timing (ROADMAP item 9)"]
fn fig19_c_schedule_wins_only_without_cycles() {
    let (by_cycles, _, _) = fig19::measure(Scale::Smoke);
    let f = |case| sweep_kps(&by_cycles, "f-schedule", case);
    let c = |case| sweep_kps(&by_cycles, "c-schedule", case);
    assert!(c("acyclic") > f("acyclic"));
    assert!(f("cyclic") > c("cyclic"));
}

/// Release `figs 20` (k events/s, e / l): C = 50 µs at 40 % aborts 36.8 /
/// 36.6; C = 0 at 90 % aborts 1 004 / 991.
#[test]
#[ignore = "timing (ROADMAP item 9)"]
fn fig20_l_abort_wins_only_on_cheap_udfs() {
    let (by_complexity, by_ratio) = fig20::measure(Scale::Smoke);
    let e = sweep_kps(&by_complexity, "e-abort", 50);
    let l = sweep_kps(&by_complexity, "l-abort", 50);
    assert!(e > l, "C = 50 µs: e-abort {e:.1} vs l-abort {l:.1}");
    let e = sweep_kps(&by_ratio, "e-abort", 90);
    let l = sweep_kps(&by_ratio, "l-abort", 90);
    assert!(
        l > e,
        "90 % aborts, C = 0: l-abort {l:.1} vs e-abort {e:.1}"
    );
}

/// Release `figs 21` on 2 cores (k events/s, MorphStream): 325.8 at one core,
/// 329.7 at two. At C = 1 µs a 1 024-event batch declares ≈ 1.6 ms of work,
/// which engages one worker whatever the core count.
#[test]
#[ignore = "timing (ROADMAP item 5)"]
fn fig21_morphstream_scales_with_cores() {
    let (_, scalability) = fig21::measure(Scale::Smoke);
    let at = |cores: usize| {
        scalability
            .iter()
            .find(|(s, c, _)| *s == SystemUnderTest::MorphStream && *c == cores)
            .map(|(_, _, kps)| *kps)
            .expect("row")
    };
    assert!(at(2) > at(1), "2 cores {:.1} vs 1 core {:.1}", at(2), at(1));
}
