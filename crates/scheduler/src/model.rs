//! The lightweight heuristic decision model (Section 5.4, Figure 7).
//!
//! The model reads the properties of the constructed TPG (Table 2) plus the
//! cyclic-dependency flag of the coarse unit partition and picks one decision
//! per dimension. The flag is the one input that is not free — it takes
//! building the coarse partition — and it can only veto `c-schedule`, so the
//! model asks for it last, and only when the free inputs leave the choice
//! open ([`DecisionModel::decide_with`]):
//!
//! * **Exploration** — `s-explore` when there are many dependencies to
//!   resolve *and* the vertex degree distribution is uniform enough that the
//!   strata keep the threads balanced; `ns-explore` otherwise.
//! * **Granularity** — `c-schedule` when coarse units form no cycles, the
//!   number of temporal dependencies is high, and the number of parametric
//!   dependencies is low; `f-schedule` otherwise.
//! * **Abort handling** — `l-abort` when UDFs are cheap and aborts are
//!   frequent (batched clean-up is cheaper than fine-grained rollback);
//!   `e-abort` otherwise.
//!
//! The concrete thresholds are configurable ([`ModelThresholds`]); the
//! defaults were tuned on the micro-benchmarks of Section 8.4, mirroring how
//! the paper derives its bracketed threshold numbers experimentally.

use morphstream_tpg::TpgStats;

use crate::decision::{AbortHandling, ExplorationStrategy, Granularity, SchedulingDecision};

/// Observation of the current batch handed to the decision model: the TPG
/// statistics plus whether coarse grouping would produce cyclic dependencies.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadObservation {
    /// TPG properties of the batch.
    pub stats: TpgStats,
    /// Whether the coarse unit partition contains (merged) cycles.
    pub coarse_cycles: bool,
}

impl WorkloadObservation {
    /// Build an observation from parts.
    pub fn new(stats: TpgStats, coarse_cycles: bool) -> Self {
        Self {
            stats,
            coarse_cycles,
        }
    }
}

/// `edges` per operation of the batch; 0 for an empty batch.
fn per_op(stats: &TpgStats, edges: usize) -> f64 {
    if stats.num_ops == 0 {
        0.0
    } else {
        edges as f64 / stats.num_ops as f64
    }
}

/// Tunable thresholds of the decision model (the bracketed numbers of
/// Figure 7).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModelThresholds {
    /// Dependencies per operation above which the batch counts as having a
    /// "high" number of dependencies.
    pub deps_per_op_high: f64,
    /// Degree skew (max out-degree / mean out-degree) above which the state
    /// access distribution counts as skewed.
    pub degree_skew_high: f64,
    /// Temporal dependencies per operation above which TD count is "high".
    pub td_per_op_high: f64,
    /// Parametric dependencies per operation above which PD count is "high".
    pub pd_per_op_high: f64,
    /// Mean UDF cost (µs) above which vertex computation is "complex".
    pub complexity_high_us: f64,
    /// Abort ratio above which aborts are "frequent".
    pub abort_ratio_high: f64,
}

impl Default for ModelThresholds {
    fn default() -> Self {
        Self {
            deps_per_op_high: 0.6,
            degree_skew_high: 8.0,
            td_per_op_high: 0.6,
            pd_per_op_high: 0.15,
            complexity_high_us: 50.0,
            abort_ratio_high: 0.25,
        }
    }
}

/// The heuristic decision model.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DecisionModel {
    thresholds: ModelThresholds,
}

impl DecisionModel {
    /// Model with default thresholds.
    pub fn new() -> Self {
        Self::default()
    }

    /// Model with custom thresholds.
    pub fn with_thresholds(thresholds: ModelThresholds) -> Self {
        Self { thresholds }
    }

    /// Thresholds currently in use.
    pub fn thresholds(&self) -> &ModelThresholds {
        &self.thresholds
    }

    /// Pick the exploration strategy (dimension I of Figure 7).
    pub fn decide_exploration(&self, obs: &WorkloadObservation) -> ExplorationStrategy {
        self.exploration_for(&obs.stats)
    }

    fn exploration_for(&self, stats: &TpgStats) -> ExplorationStrategy {
        let t = &self.thresholds;
        if per_op(stats, stats.td_edges + stats.pd_edges) >= t.deps_per_op_high {
            if stats.degree_skew <= t.degree_skew_high {
                // Many dependencies, balanced degree distribution: strata keep
                // threads busy and synchronisation is cheap relative to the
                // number of resolved dependencies.
                ExplorationStrategy::StructuredBfs
            } else {
                ExplorationStrategy::NonStructured
            }
        } else {
            ExplorationStrategy::NonStructured
        }
    }

    /// Pick the scheduling granularity (dimension II of Figure 7).
    pub fn decide_granularity(&self, obs: &WorkloadObservation) -> Granularity {
        self.granularity_for(&obs.stats, || obs.coarse_cycles)
    }

    /// The granularity rule, cheapest conjunct first: `coarse_cycles` is
    /// called only when the TD and PD counts already favour `c-schedule`.
    fn granularity_for(
        &self,
        stats: &TpgStats,
        coarse_cycles: impl FnOnce() -> bool,
    ) -> Granularity {
        let t = &self.thresholds;
        if per_op(stats, stats.td_edges) >= t.td_per_op_high
            && per_op(stats, stats.pd_edges) < t.pd_per_op_high
            && !coarse_cycles()
        {
            Granularity::Coarse
        } else {
            Granularity::Fine
        }
    }

    /// Pick the abort handling mechanism (dimension III of Figure 7).
    pub fn decide_abort_handling(&self, obs: &WorkloadObservation) -> AbortHandling {
        self.abort_handling_for(&obs.stats)
    }

    fn abort_handling_for(&self, stats: &TpgStats) -> AbortHandling {
        let t = &self.thresholds;
        if stats.mean_cost_us < t.complexity_high_us
            && stats.expected_abort_ratio >= t.abort_ratio_high
        {
            AbortHandling::Lazy
        } else {
            AbortHandling::Eager
        }
    }

    /// Full decision across the three dimensions.
    pub fn decide(&self, obs: &WorkloadObservation) -> SchedulingDecision {
        self.decide_with(&obs.stats, || obs.coarse_cycles)
    }

    /// Full decision from the TPG statistics, asking for the coarse
    /// partition's cyclic-dependency flag only if it can change the outcome:
    /// `coarse_cycles` (typically "build the coarse units and look") runs at
    /// most once, and not at all for a batch whose TD/PD counts already rule
    /// `c-schedule` out. Equals
    /// `decide(&WorkloadObservation::new(stats, coarse_cycles()))` always.
    pub fn decide_with(
        &self,
        stats: &TpgStats,
        coarse_cycles: impl FnOnce() -> bool,
    ) -> SchedulingDecision {
        SchedulingDecision {
            exploration: self.exploration_for(stats),
            granularity: self.granularity_for(stats, coarse_cycles),
            abort_handling: self.abort_handling_for(stats),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(
        num_ops: usize,
        td: usize,
        pd: usize,
        skew: f64,
        cost_us: f64,
        abort_ratio: f64,
    ) -> TpgStats {
        TpgStats {
            num_ops,
            num_txns: num_ops,
            td_edges: td,
            pd_edges: pd,
            ld_edges: 0,
            degree_skew: skew,
            mean_cost_us: cost_us,
            expected_abort_ratio: abort_ratio,
            ..TpgStats::default()
        }
    }

    #[test]
    fn many_uniform_dependencies_pick_structured_exploration() {
        let obs = WorkloadObservation::new(stats(1000, 900, 100, 2.0, 10.0, 0.0), false);
        assert_eq!(
            DecisionModel::new().decide_exploration(&obs),
            ExplorationStrategy::StructuredBfs
        );
    }

    #[test]
    fn skewed_dependencies_pick_non_structured_exploration() {
        let obs = WorkloadObservation::new(stats(1000, 900, 100, 50.0, 10.0, 0.0), false);
        assert_eq!(
            DecisionModel::new().decide_exploration(&obs),
            ExplorationStrategy::NonStructured
        );
    }

    #[test]
    fn few_dependencies_pick_non_structured_exploration() {
        let obs = WorkloadObservation::new(stats(1000, 50, 10, 1.5, 10.0, 0.0), false);
        assert_eq!(
            DecisionModel::new().decide_exploration(&obs),
            ExplorationStrategy::NonStructured
        );
    }

    #[test]
    fn coarse_granularity_requires_acyclic_many_td_few_pd() {
        let model = DecisionModel::new();
        let good = WorkloadObservation::new(stats(1000, 900, 20, 2.0, 10.0, 0.0), false);
        assert_eq!(model.decide_granularity(&good), Granularity::Coarse);

        let cyclic = WorkloadObservation::new(stats(1000, 900, 20, 2.0, 10.0, 0.0), true);
        assert_eq!(model.decide_granularity(&cyclic), Granularity::Fine);

        let many_pd = WorkloadObservation::new(stats(1000, 900, 400, 2.0, 10.0, 0.0), false);
        assert_eq!(model.decide_granularity(&many_pd), Granularity::Fine);

        let few_td = WorkloadObservation::new(stats(1000, 100, 20, 2.0, 10.0, 0.0), false);
        assert_eq!(model.decide_granularity(&few_td), Granularity::Fine);
    }

    #[test]
    fn the_cycle_flag_is_asked_for_only_when_td_and_pd_leave_coarse_open() {
        let model = DecisionModel::new();
        let ask = |stats: &TpgStats, cycles: bool| {
            let mut asked = false;
            let decision = model.decide_with(stats, || {
                asked = true;
                cycles
            });
            let eager = model.decide(&WorkloadObservation::new(stats.clone(), cycles));
            assert_eq!(decision, eager);
            asked
        };
        let open = stats(1000, 900, 20, 2.0, 10.0, 0.0);
        let many_pd = stats(1000, 900, 400, 2.0, 10.0, 0.0);
        let few_td = stats(1000, 100, 20, 2.0, 10.0, 0.0);
        for cycles in [false, true] {
            assert!(ask(&open, cycles));
            assert!(!ask(&many_pd, cycles));
            assert!(!ask(&few_td, cycles));
            assert!(!ask(&TpgStats::default(), cycles));
        }
    }

    #[test]
    fn abort_handling_follows_cost_and_abort_ratio() {
        let model = DecisionModel::new();
        let cheap_aborty = WorkloadObservation::new(stats(100, 0, 0, 1.0, 5.0, 0.5), false);
        assert_eq!(
            model.decide_abort_handling(&cheap_aborty),
            AbortHandling::Lazy
        );

        let cheap_clean = WorkloadObservation::new(stats(100, 0, 0, 1.0, 5.0, 0.01), false);
        assert_eq!(
            model.decide_abort_handling(&cheap_clean),
            AbortHandling::Eager
        );

        let expensive_aborty = WorkloadObservation::new(stats(100, 0, 0, 1.0, 90.0, 0.5), false);
        assert_eq!(
            model.decide_abort_handling(&expensive_aborty),
            AbortHandling::Eager
        );
    }

    #[test]
    fn full_decision_combines_all_three_dimensions() {
        let model = DecisionModel::new();
        // Phase-1-like workload of Figure 12: many scattered deposits — lots
        // of TDs/LDs, few PDs, uniform distribution, no aborts.
        let obs = WorkloadObservation::new(stats(10_000, 9_000, 100, 2.0, 10.0, 0.0), false);
        let d = model.decide(&obs);
        assert_eq!(d.exploration, ExplorationStrategy::StructuredBfs);
        assert_eq!(d.granularity, Granularity::Coarse);
        assert_eq!(d.abort_handling, AbortHandling::Eager);

        // Phase-4-like workload: rising abort ratio with cheap UDFs morphs
        // abort handling to lazy.
        let obs = WorkloadObservation::new(stats(10_000, 9_000, 100, 2.0, 10.0, 0.6), false);
        assert_eq!(model.decide(&obs).abort_handling, AbortHandling::Lazy);
    }

    #[test]
    fn custom_thresholds_change_decisions() {
        let strict = DecisionModel::with_thresholds(ModelThresholds {
            deps_per_op_high: 10.0,
            ..ModelThresholds::default()
        });
        let obs = WorkloadObservation::new(stats(1000, 900, 100, 2.0, 10.0, 0.0), false);
        assert_eq!(
            strict.decide_exploration(&obs),
            ExplorationStrategy::NonStructured
        );
        assert_eq!(strict.thresholds().deps_per_op_high, 10.0);
    }

    #[test]
    fn empty_batch_degenerates_gracefully() {
        let obs = WorkloadObservation::new(TpgStats::default(), false);
        let d = DecisionModel::new().decide(&obs);
        assert_eq!(d.exploration, ExplorationStrategy::NonStructured);
        assert_eq!(d.granularity, Granularity::Fine);
        assert_eq!(d.abort_handling, AbortHandling::Eager);
    }
}
