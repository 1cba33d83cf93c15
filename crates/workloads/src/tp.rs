//! Toll Processing (TP): the Linear-Road-inspired workload.
//!
//! Vehicles report positions; the application maintains per-segment road
//! statistics and charges tolls to per-vehicle accounts. The configuration
//! used by the multiple-scheduling-strategy experiment (Section 8.2.3) splits
//! the input into two groups with very different characteristics:
//!
//! * **group 0** — skewed segment accesses and a high abort ratio;
//! * **group 1** — uniform accesses with (almost) no aborts.

use morphstream::storage::StateStore;
use morphstream::{
    udfs, EngineConfig, Route, StreamApp, Topology, TopologyBuilder, TopologyConfig, TxnBuilder,
    TxnOutcome,
};
use morphstream_common::rng::DetRng;
use morphstream_common::zipf::Zipf;
use morphstream_common::{StateRef, TableId, Value, WorkloadConfig};

/// A toll-processing input event: one position report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TpEvent {
    /// Road segment the vehicle is on.
    pub segment: u64,
    /// Vehicle account charged for the toll.
    pub vehicle: u64,
    /// Toll amount.
    pub toll: Value,
    /// Which transaction group the event belongs to (0 or 1).
    pub group: usize,
    /// Whether the event violates the consistency rule (insufficient prepaid
    /// balance) and aborts.
    pub inject_abort: bool,
}

/// The Toll Processing application.
pub struct TollProcessingApp {
    segments: TableId,
    vehicles: TableId,
    cost_us: u64,
    expected_abort_ratio: f64,
}

/// Initial prepaid balance of every vehicle account.
pub const PREPAID_BALANCE: Value = 10_000;

impl TollProcessingApp {
    /// Create the application and its `segments`/`vehicles` tables.
    pub fn new(store: &StateStore, config: &WorkloadConfig) -> Self {
        let segments = store.create_table("segments", 0, false);
        let vehicles = store.create_table("vehicles", PREPAID_BALANCE, false);
        store
            .preallocate_range(segments, config.key_space)
            .expect("segments table exists");
        store
            .preallocate_range(vehicles, config.key_space)
            .expect("vehicles table exists");
        Self {
            segments,
            vehicles,
            cost_us: config.udf_complexity_us,
            expected_abort_ratio: config.abort_ratio,
        }
    }

    /// Table of per-segment statistics.
    pub fn segments_table(&self) -> TableId {
        self.segments
    }

    /// Table of per-vehicle prepaid accounts.
    pub fn vehicles_table(&self) -> TableId {
        self.vehicles
    }

    /// Generate `count` events split between the two groups: `group0_ratio`
    /// of the events belong to the skewed, abort-heavy group 0; the rest to
    /// the uniform, clean group 1.
    ///
    /// The two groups model different road regions, so they operate on
    /// disjoint halves of the key space — which is also what makes them safe
    /// to schedule with independent strategies (the nested configuration of
    /// Section 8.2.3).
    pub fn generate_two_groups(
        config: &WorkloadConfig,
        count: usize,
        group0_ratio: f64,
        group0_abort_ratio: f64,
        group0_theta: f64,
    ) -> Vec<TpEvent> {
        let half = (config.key_space / 2).max(1);
        let skewed = Zipf::new(half, group0_theta, config.seed);
        let uniform = Zipf::new(config.key_space - half, 0.0, config.seed.wrapping_add(1));
        let mut rng = DetRng::new(config.seed ^ 0x7011);
        (0..count)
            .map(|_| {
                if rng.next_bool(group0_ratio) {
                    TpEvent {
                        segment: skewed.sample(&mut rng),
                        vehicle: skewed.sample(&mut rng),
                        toll: rng.next_range(1, 5) as Value,
                        group: 0,
                        inject_abort: rng.next_bool(group0_abort_ratio),
                    }
                } else {
                    TpEvent {
                        segment: half + uniform.sample(&mut rng),
                        vehicle: half + uniform.sample(&mut rng),
                        toll: rng.next_range(1, 5) as Value,
                        group: 1,
                        inject_abort: rng.next_bool(0.001),
                    }
                }
            })
            .collect()
    }

    /// Generate a single-group workload following `config` directly.
    pub fn generate(config: &WorkloadConfig, count: usize) -> Vec<TpEvent> {
        Self::generate_two_groups(config, count, 1.0, config.abort_ratio, config.zipf_theta)
    }
}

/// The event routed between the two operators of the split TP dataflow: the
/// original position report plus whether the toll charge committed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TpCharged {
    /// Road segment the vehicle reported from.
    pub segment: u64,
    /// Vehicle whose account was charged.
    pub vehicle: u64,
    /// Toll amount requested.
    pub toll: Value,
    /// Whether the charge committed (false when the prepaid balance was
    /// insufficient — including the injected violations).
    pub charged: bool,
}

/// Operator 1 of the split TP dataflow: charge the toll against the
/// per-vehicle prepaid account. This is the abort-prone half of the fused
/// [`TollProcessingApp`] transaction — splitting it *first* preserves the
/// fused semantics, because a failed charge then suppresses the downstream
/// segment-statistics update exactly like the fused transaction's rollback
/// undoes its segment write.
pub struct TollChargeApp {
    vehicles: TableId,
    cost_us: u64,
    expected_abort_ratio: f64,
}

impl TollChargeApp {
    /// Create the charging operator. Creates (or reuses) the same
    /// `segments`/`vehicles` tables as [`TollProcessingApp::new`], in the
    /// same order, so a split run over a shared store is table-for-table
    /// comparable with a fused run.
    pub fn new(store: &StateStore, config: &WorkloadConfig) -> Self {
        let _segments = store.create_table("segments", 0, false);
        let vehicles = store.create_table("vehicles", PREPAID_BALANCE, false);
        store
            .preallocate_range(_segments, config.key_space)
            .expect("segments table exists");
        store
            .preallocate_range(vehicles, config.key_space)
            .expect("vehicles table exists");
        Self {
            vehicles,
            cost_us: config.udf_complexity_us,
            expected_abort_ratio: config.abort_ratio,
        }
    }
}

impl StreamApp for TollChargeApp {
    type Event = TpEvent;
    type Output = TpCharged;

    fn state_access(&self, event: &TpEvent, txn: &mut TxnBuilder) {
        txn.set_cost_us(self.cost_us);
        let toll = if event.inject_abort {
            PREPAID_BALANCE * 100
        } else {
            event.toll
        };
        txn.write(self.vehicles, event.vehicle, udfs::withdraw(toll));
    }

    fn post_process(&self, event: &TpEvent, outcome: &TxnOutcome) -> TpCharged {
        TpCharged {
            segment: event.segment,
            vehicle: event.vehicle,
            toll: event.toll,
            charged: outcome.committed,
        }
    }

    fn expected_abort_ratio(&self) -> f64 {
        self.expected_abort_ratio
    }
}

/// Operator 2 of the split TP dataflow: maintain the per-segment road
/// statistics. Counts only *charged* reports, mirroring the fused
/// transaction, where an aborted charge rolls the segment update back; the
/// uncharged reports still flow through (with a no-op delta) so the dataflow
/// emits one output per input event, in order.
pub struct RoadStatsApp {
    segments: TableId,
    cost_us: u64,
}

impl RoadStatsApp {
    /// Create the statistics operator over the shared `segments` table (see
    /// [`TollChargeApp::new`] for the table-layout contract).
    pub fn new(store: &StateStore, config: &WorkloadConfig) -> Self {
        let segments = store.create_table("segments", 0, false);
        store
            .preallocate_range(segments, config.key_space)
            .expect("segments table exists");
        Self {
            segments,
            cost_us: config.udf_complexity_us,
        }
    }
}

impl StreamApp for RoadStatsApp {
    type Event = TpCharged;
    type Output = bool;

    fn state_access(&self, event: &TpCharged, txn: &mut TxnBuilder) {
        txn.set_cost_us(self.cost_us);
        let delta = if event.charged { 1 } else { 0 };
        txn.write(self.segments, event.segment, udfs::add_delta(delta));
    }

    fn post_process(&self, event: &TpCharged, _outcome: &TxnOutcome) -> bool {
        // The end-to-end outcome of the position report is whether the toll
        // was charged; the statistics update itself cannot abort.
        event.charged
    }
}

impl TollProcessingApp {
    /// Assemble the two-operator split of the TP workload: a toll-charging
    /// operator routed into a road-statistics operator over one shared
    /// store. The topology ingests the same [`TpEvent`] stream as the fused
    /// app and emits the same per-event `bool` outputs, so the two renditions
    /// are interchangeable behind [`morphstream::TxnEngine`]. Equivalent to
    /// [`TollProcessingApp::topology_with`] with the default (serial)
    /// topology configuration and a single statistics instance.
    pub fn topology(
        store: &StateStore,
        config: &WorkloadConfig,
        engine_config: EngineConfig,
    ) -> Topology<TpEvent, bool> {
        Self::topology_with(store, config, engine_config, TopologyConfig::default(), 1)
    }

    /// The two-operator TP split with explicit runtime choices: the
    /// statistics stage is *keyed by road segment* and runs
    /// `stats_parallelism` parallel instances — every segment's statistics
    /// stay on one instance, so digests and outputs are identical for any
    /// parallelism — and `topology_config` selects the inline or the
    /// per-operator-thread driver.
    pub fn topology_with(
        store: &StateStore,
        config: &WorkloadConfig,
        engine_config: EngineConfig,
        topology_config: TopologyConfig,
        stats_parallelism: usize,
    ) -> Topology<TpEvent, bool> {
        let mut builder = TopologyBuilder::new();
        let charge = builder.add_operator(
            "toll-charge",
            TollChargeApp::new(store, config),
            store.clone(),
            engine_config,
        );
        let stats = builder
            .add_operator(
                "road-stats",
                RoadStatsApp::new(store, config),
                store.clone(),
                engine_config,
            )
            .with_parallelism(stats_parallelism);
        builder.connect(
            charge,
            stats,
            Route::keyed(
                |charged: &TpCharged| charged.segment,
                |charged: &TpCharged| Some(charged.clone()),
            ),
        );
        builder
            .build(charge, stats, topology_config)
            .expect("the two-operator TP chain is a valid DAG")
    }
}

impl StreamApp for TollProcessingApp {
    type Event = TpEvent;
    type Output = bool;

    fn state_access(&self, event: &TpEvent, txn: &mut TxnBuilder) {
        txn.set_cost_us(self.cost_us);
        // update the segment's vehicle counter
        txn.write(self.segments, event.segment, udfs::add_delta(1));
        // charge the toll against the prepaid balance, aborting when the
        // balance would go negative (injected aborts charge an impossible
        // toll)
        let toll = if event.inject_abort {
            PREPAID_BALANCE * 100
        } else {
            event.toll
        };
        txn.write_with_params(
            self.vehicles,
            event.vehicle,
            vec![StateRef::new(self.segments, event.segment)],
            udfs::withdraw(toll),
        );
    }

    fn post_process(&self, _event: &TpEvent, outcome: &TxnOutcome) -> bool {
        outcome.committed
    }

    fn expected_abort_ratio(&self) -> f64 {
        self.expected_abort_ratio
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use morphstream::{EngineConfig, MorphStream, TxnEngine};

    fn config() -> WorkloadConfig {
        WorkloadConfig::toll_processing()
            .with_key_space(256)
            .with_udf_complexity_us(0)
    }

    #[test]
    fn two_group_generator_produces_both_groups() {
        let events = TollProcessingApp::generate_two_groups(&config(), 1000, 0.5, 0.3, 0.8);
        let group0 = events.iter().filter(|e| e.group == 0).count();
        assert!((300..700).contains(&group0));
        let aborts0 = events
            .iter()
            .filter(|e| e.group == 0 && e.inject_abort)
            .count();
        let aborts1 = events
            .iter()
            .filter(|e| e.group == 1 && e.inject_abort)
            .count();
        assert!(aborts0 > aborts1);
    }

    #[test]
    fn split_topology_matches_the_fused_app() {
        let cfg = config();
        let events = TollProcessingApp::generate(&cfg, 500);

        let fused_store = StateStore::new();
        let fused_app = TollProcessingApp::new(&fused_store, &cfg);
        let mut fused = MorphStream::new(
            fused_app,
            fused_store.clone(),
            EngineConfig::with_threads(2).with_punctuation_interval(100),
        );
        let expected = fused.run(events.clone());

        let split_store = StateStore::new();
        let mut topology = TollProcessingApp::topology(
            &split_store,
            &cfg,
            EngineConfig::with_threads(2).with_punctuation_interval(100),
        );
        let report = topology.run(events);

        assert_eq!(report.outputs, expected.outputs);
        assert_eq!(split_store.state_digest(), fused_store.state_digest());
        assert_eq!(report.operators.len(), 2);
        assert_eq!(
            report.operators[0].committed + report.operators[1].committed,
            report.committed
        );
    }

    #[test]
    fn keyed_parallel_stats_stage_matches_the_fused_app() {
        let cfg = config();
        let events = TollProcessingApp::generate(&cfg, 600);

        let fused_store = StateStore::new();
        let fused_app = TollProcessingApp::new(&fused_store, &cfg);
        let mut fused = MorphStream::new(
            fused_app,
            fused_store.clone(),
            EngineConfig::with_threads(2).with_punctuation_interval(100),
        );
        let expected = fused.run(events.clone());

        for concurrent in [false, true] {
            let split_store = StateStore::new();
            let mut topology = TollProcessingApp::topology_with(
                &split_store,
                &cfg,
                EngineConfig::with_threads(2).with_punctuation_interval(100),
                TopologyConfig::default().with_concurrent(concurrent),
                4,
            );
            let report = topology.run(events.clone());
            assert_eq!(report.outputs, expected.outputs);
            assert_eq!(split_store.state_digest(), fused_store.state_digest());
            // per-instance rows: toll-charge + road-stats#0..#3
            assert_eq!(report.operators.len(), 5);
            assert_eq!(report.operators[0].name, "toll-charge");
            assert_eq!(report.operators[1].name, "road-stats#0");
            let committed: usize = report.operators.iter().map(|op| op.committed).sum();
            assert_eq!(report.committed, committed);
            let stats_events: usize = report.operators[1..].iter().map(|op| op.events).sum();
            assert_eq!(stats_events, 600);
        }
    }

    #[test]
    fn toll_processing_runs_grouped_and_plain() {
        let cfg = config();
        let store = StateStore::new();
        let app = TollProcessingApp::new(&store, &cfg);
        let segments = app.segments_table();
        let events = TollProcessingApp::generate_two_groups(&cfg, 400, 0.5, 0.2, 0.8);
        let committed_expected = events.iter().filter(|e| !e.inject_abort).count();
        let mut engine = MorphStream::new(
            app,
            store.clone(),
            EngineConfig::with_threads(4).with_punctuation_interval(100),
        )
        .with_group_fn(|e: &TpEvent| e.group);
        let report = engine.run(events);
        assert_eq!(report.committed, committed_expected);
        // committed events each incremented one segment counter
        let total_counts: Value = store.snapshot_latest(segments).unwrap().values().sum();
        assert_eq!(total_counts, committed_expected as Value);
    }
}
