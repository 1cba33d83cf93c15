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
//! The thresholds are constants tuned on the micro-benchmarks of Section
//! 8.4, mirroring how the paper derives its bracketed threshold numbers
//! experimentally.

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

// The bracketed numbers of Figure 7.

/// Dependencies per operation from which a batch has "many" dependencies.
const DEPS_PER_OP_HIGH: f64 = 0.6;
/// Degree skew (max out-degree / mean out-degree) above which the state
/// access distribution is skewed.
const DEGREE_SKEW_HIGH: f64 = 8.0;
/// Temporal dependencies per operation from which the TD count is "high".
const TD_PER_OP_HIGH: f64 = 0.6;
/// Parametric dependencies per operation from which the PD count is "high".
const PD_PER_OP_HIGH: f64 = 0.15;
/// Mean UDF cost (µs) from which vertex computation is "complex".
const COMPLEXITY_HIGH_US: f64 = 50.0;
/// Abort ratio from which aborts are "frequent".
const ABORT_RATIO_HIGH: f64 = 0.25;

/// Exploration strategy (dimension I of Figure 7).
fn exploration_for(stats: &TpgStats) -> ExplorationStrategy {
    if per_op(stats, stats.td_edges + stats.pd_edges) >= DEPS_PER_OP_HIGH
        && stats.degree_skew <= DEGREE_SKEW_HIGH
    {
        // Many dependencies, balanced degree distribution: strata keep
        // threads busy and synchronisation is cheap relative to the number
        // of resolved dependencies.
        ExplorationStrategy::StructuredBfs
    } else {
        ExplorationStrategy::NonStructured
    }
}

/// Scheduling granularity (dimension II of Figure 7), cheapest conjunct
/// first: `coarse_cycles` is called only when the TD and PD counts already
/// favour `c-schedule`.
fn granularity_for(stats: &TpgStats, coarse_cycles: impl FnOnce() -> bool) -> Granularity {
    if per_op(stats, stats.td_edges) >= TD_PER_OP_HIGH
        && per_op(stats, stats.pd_edges) < PD_PER_OP_HIGH
        && !coarse_cycles()
    {
        Granularity::Coarse
    } else {
        Granularity::Fine
    }
}

/// Abort handling mechanism (dimension III of Figure 7).
fn abort_handling_for(stats: &TpgStats) -> AbortHandling {
    if stats.mean_cost_us < COMPLEXITY_HIGH_US && stats.expected_abort_ratio >= ABORT_RATIO_HIGH {
        AbortHandling::Lazy
    } else {
        AbortHandling::Eager
    }
}

/// The heuristic decision model.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DecisionModel;

impl DecisionModel {
    /// The model.
    pub fn new() -> Self {
        Self
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
            exploration: exploration_for(stats),
            granularity: granularity_for(stats, coarse_cycles),
            abort_handling: abort_handling_for(stats),
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

    fn decide(stats: TpgStats, coarse_cycles: bool) -> SchedulingDecision {
        DecisionModel::new().decide(&WorkloadObservation::new(stats, coarse_cycles))
    }

    #[test]
    fn many_uniform_dependencies_pick_structured_exploration() {
        assert_eq!(
            decide(stats(1000, 900, 100, 2.0, 10.0, 0.0), false).exploration,
            ExplorationStrategy::StructuredBfs
        );
    }

    #[test]
    fn skewed_dependencies_pick_non_structured_exploration() {
        assert_eq!(
            decide(stats(1000, 900, 100, 50.0, 10.0, 0.0), false).exploration,
            ExplorationStrategy::NonStructured
        );
    }

    #[test]
    fn few_dependencies_pick_non_structured_exploration() {
        assert_eq!(
            decide(stats(1000, 50, 10, 1.5, 10.0, 0.0), false).exploration,
            ExplorationStrategy::NonStructured
        );
    }

    #[test]
    fn coarse_granularity_requires_acyclic_many_td_few_pd() {
        let granularity = |stats, cycles| decide(stats, cycles).granularity;
        let good = stats(1000, 900, 20, 2.0, 10.0, 0.0);
        assert_eq!(granularity(good.clone(), false), Granularity::Coarse);
        assert_eq!(granularity(good, true), Granularity::Fine);

        let many_pd = stats(1000, 900, 400, 2.0, 10.0, 0.0);
        assert_eq!(granularity(many_pd, false), Granularity::Fine);

        let few_td = stats(1000, 100, 20, 2.0, 10.0, 0.0);
        assert_eq!(granularity(few_td, false), Granularity::Fine);
    }

    #[test]
    fn the_cycle_flag_is_asked_for_only_when_td_and_pd_leave_coarse_open() {
        let ask = |stats: &TpgStats, cycles: bool| {
            let mut asked = false;
            let decision = DecisionModel::new().decide_with(stats, || {
                asked = true;
                cycles
            });
            assert_eq!(decision, decide(stats.clone(), cycles));
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
        let abort_handling = |stats| decide(stats, false).abort_handling;
        let cheap_aborty = stats(100, 0, 0, 1.0, 5.0, 0.5);
        assert_eq!(abort_handling(cheap_aborty), AbortHandling::Lazy);

        let cheap_clean = stats(100, 0, 0, 1.0, 5.0, 0.01);
        assert_eq!(abort_handling(cheap_clean), AbortHandling::Eager);

        let expensive_aborty = stats(100, 0, 0, 1.0, 90.0, 0.5);
        assert_eq!(abort_handling(expensive_aborty), AbortHandling::Eager);
    }

    #[test]
    fn full_decision_combines_all_three_dimensions() {
        // Phase-1-like workload of Figure 12: many scattered deposits — lots
        // of TDs/LDs, few PDs, uniform distribution, no aborts.
        let d = decide(stats(10_000, 9_000, 100, 2.0, 10.0, 0.0), false);
        assert_eq!(d.exploration, ExplorationStrategy::StructuredBfs);
        assert_eq!(d.granularity, Granularity::Coarse);
        assert_eq!(d.abort_handling, AbortHandling::Eager);

        // Phase-4-like workload: rising abort ratio with cheap UDFs morphs
        // abort handling to lazy.
        let d = decide(stats(10_000, 9_000, 100, 2.0, 10.0, 0.6), false);
        assert_eq!(d.abort_handling, AbortHandling::Lazy);
    }

    #[test]
    fn each_rule_flips_at_its_threshold() {
        // Exploration: 0.6 dependencies per op, degree skew 8.
        let explore = |td, skew| decide(stats(1000, td, 0, skew, 0.0, 0.0), false).exploration;
        assert_eq!(explore(600, 8.0), ExplorationStrategy::StructuredBfs);
        assert_eq!(explore(599, 8.0), ExplorationStrategy::NonStructured);
        assert_eq!(explore(600, 8.001), ExplorationStrategy::NonStructured);
        // Granularity: 0.6 TDs per op, fewer than 0.15 PDs per op.
        let granularity = |td, pd| decide(stats(1000, td, pd, 1.0, 0.0, 0.0), false).granularity;
        assert_eq!(granularity(600, 149), Granularity::Coarse);
        assert_eq!(granularity(599, 149), Granularity::Fine);
        assert_eq!(granularity(600, 150), Granularity::Fine);
        // Abort handling: cost under 50 µs, abort ratio 0.25.
        let abort = |cost, ratio| decide(stats(100, 0, 0, 1.0, cost, ratio), false).abort_handling;
        assert_eq!(abort(49.9, 0.25), AbortHandling::Lazy);
        assert_eq!(abort(50.0, 0.25), AbortHandling::Eager);
        assert_eq!(abort(49.9, 0.249), AbortHandling::Eager);
    }

    #[test]
    fn empty_batch_degenerates_gracefully() {
        let d = decide(TpgStats::default(), false);
        assert_eq!(d.exploration, ExplorationStrategy::NonStructured);
        assert_eq!(d.granularity, Granularity::Fine);
        assert_eq!(d.abort_handling, AbortHandling::Eager);
    }
}
