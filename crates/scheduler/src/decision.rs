//! The three scheduling dimensions and their possible decisions (Table 1).

use std::fmt;

/// How worker threads traverse the TPG to find operations to execute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExplorationStrategy {
    /// Structured exploration, breadth-first: all threads process one stratum
    /// of the TPG, synchronise on a barrier, and advance together. Minimal
    /// coordination, but sensitive to workload imbalance inside a stratum.
    StructuredBfs,
    /// Structured exploration, depth-first: each thread owns a slice of the
    /// operations across strata and advances as soon as the dependencies of
    /// its own operations resolve. Less synchronisation, more repeated
    /// dependency checks.
    StructuredDfs,
    /// Non-structured exploration: threads pull any ready operation from a
    /// shared pool; completing an operation asynchronously notifies its
    /// dependents. Maximum flexibility, highest message-passing overhead.
    NonStructured,
}

impl ExplorationStrategy {
    /// Whether this is one of the structured (stratum-based) variants.
    pub fn is_structured(self) -> bool {
        matches!(
            self,
            ExplorationStrategy::StructuredBfs | ExplorationStrategy::StructuredDfs
        )
    }
}

impl fmt::Display for ExplorationStrategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            ExplorationStrategy::StructuredBfs => "s-explore(BFS)",
            ExplorationStrategy::StructuredDfs => "s-explore(DFS)",
            ExplorationStrategy::NonStructured => "ns-explore",
        };
        f.write_str(name)
    }
}

/// The size of the unit handed to a worker thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Granularity {
    /// `f-schedule`: a single operation per scheduling unit. Maximum
    /// parallelism, highest context-switching overhead.
    Fine,
    /// `c-schedule`: all operations targeting the same state form one unit
    /// (an operation chain). Lower overhead, but cyclic unit dependencies
    /// must be merged and load imbalance hurts more.
    Coarse,
}

impl fmt::Display for Granularity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Granularity::Fine => "f-schedule",
            Granularity::Coarse => "c-schedule",
        })
    }
}

/// When transaction aborts are processed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AbortHandling {
    /// `e-abort`: abort the failing transaction immediately, roll back and
    /// redo affected operations right away. Less wasted work, more context
    /// switching.
    Eager,
    /// `l-abort`: log failures and clean them all up after the TPG has been
    /// fully explored. Simple and cheap per abort, but wasted downstream
    /// computation.
    Lazy,
}

impl fmt::Display for AbortHandling {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            AbortHandling::Eager => "e-abort",
            AbortHandling::Lazy => "l-abort",
        })
    }
}

/// A complete scheduling decision: one choice per dimension.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SchedulingDecision {
    /// Exploration strategy.
    pub exploration: ExplorationStrategy,
    /// Scheduling unit granularity.
    pub granularity: Granularity,
    /// Abort handling mechanism.
    pub abort_handling: AbortHandling,
}

impl SchedulingDecision {
    /// Every possible decision, for exhaustive sweeps (2 × 3 × 2 = 12).
    pub fn all() -> Vec<Self> {
        let mut out = Vec::with_capacity(12);
        for exploration in [
            ExplorationStrategy::StructuredBfs,
            ExplorationStrategy::StructuredDfs,
            ExplorationStrategy::NonStructured,
        ] {
            for granularity in [Granularity::Fine, Granularity::Coarse] {
                for abort_handling in [AbortHandling::Eager, AbortHandling::Lazy] {
                    out.push(Self {
                        exploration,
                        granularity,
                        abort_handling,
                    });
                }
            }
        }
        out
    }
}

impl Default for SchedulingDecision {
    fn default() -> Self {
        Self {
            exploration: ExplorationStrategy::StructuredBfs,
            granularity: Granularity::Coarse,
            abort_handling: AbortHandling::Eager,
        }
    }
}

impl fmt::Display for SchedulingDecision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} + {} + {}",
            self.exploration, self.granularity, self.abort_handling
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_matches_paper_terminology() {
        assert_eq!(ExplorationStrategy::NonStructured.to_string(), "ns-explore");
        assert_eq!(
            ExplorationStrategy::StructuredBfs.to_string(),
            "s-explore(BFS)"
        );
        assert_eq!(Granularity::Fine.to_string(), "f-schedule");
        assert_eq!(Granularity::Coarse.to_string(), "c-schedule");
        assert_eq!(AbortHandling::Eager.to_string(), "e-abort");
        assert_eq!(AbortHandling::Lazy.to_string(), "l-abort");
        let d = SchedulingDecision::default();
        assert!(d.to_string().contains("s-explore"));
    }

    #[test]
    fn structured_classification() {
        assert!(ExplorationStrategy::StructuredBfs.is_structured());
        assert!(ExplorationStrategy::StructuredDfs.is_structured());
        assert!(!ExplorationStrategy::NonStructured.is_structured());
    }

    #[test]
    fn all_enumerates_every_combination_once() {
        let all = SchedulingDecision::all();
        assert_eq!(all.len(), 12);
        let mut dedup = all.clone();
        dedup.sort_by_key(|d| format!("{d}"));
        dedup.dedup();
        assert_eq!(dedup.len(), 12);
    }
}
