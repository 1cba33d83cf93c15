//! Scheduling units: the granularity dimension of the scheduling decision.
//!
//! Fine-grained scheduling (`f-schedule`) treats every operation as its own
//! unit; coarse-grained scheduling (`c-schedule`) groups the operations that
//! target the same state into one unit (an *operation chain*), which
//! amortises context switching but can create circular dependencies between
//! units (Figure 6). When cycles appear, the involved units are merged into a
//! single unit, as the paper prescribes.

use std::collections::HashMap;

use morphstream_common::hash::SeededState;
use morphstream_common::OpId;

use crate::flat::FlatLists;
use crate::graph::{DepKind, Tpg};

/// The partition of a TPG into scheduling units plus the unit-level
/// dependency graph. A unit is a set of operations scheduled and dispatched
/// together, in timestamp order.
///
/// The operations, parents and children of all units are each kept in one
/// flat array, so the fine partition — one unit per operation — costs a
/// constant number of allocations however large the batch. The coarse
/// partition builds per-unit lists and flattens them once at the end.
#[derive(Debug, Clone)]
pub struct SchedulingUnits {
    ops: FlatLists<OpId>,
    unit_of: Vec<usize>,
    parents: FlatLists<usize>,
    children: FlatLists<usize>,
    /// Whether coarse grouping produced circular dependencies that had to be
    /// merged away. This feeds the decision model's `Cyclic Dependency`
    /// input.
    pub had_cycles: bool,
}

impl SchedulingUnits {
    /// Fine-grained units: one operation per unit, unit `i` holding op `i`;
    /// the unit graph is the TPG's TD/PD graph.
    pub fn fine(tpg: &Tpg) -> Self {
        let n = tpg.num_ops();
        Self {
            ops: FlatLists::from_parts((0..n).collect(), (0..=n).collect()),
            unit_of: (0..n).collect(),
            parents: op_edges(tpg, Tpg::parents),
            children: op_edges(tpg, Tpg::children),
            had_cycles: false,
        }
    }

    /// Coarse-grained units: group operations by target state (operation
    /// chains); operations without a planning-time key (non-deterministic
    /// accesses) form singleton units. Units participating in a dependency
    /// cycle are merged.
    pub fn coarse(tpg: &Tpg) -> Self {
        let n = tpg.num_ops();
        // --- initial grouping ---
        let mut group_of = vec![usize::MAX; n];
        let mut groups: Vec<Vec<OpId>> = Vec::new();
        // Groups are numbered in op order, so the map's hasher reaches no
        // unit id.
        let mut by_target: HashMap<(u32, u64), usize, SeededState> = HashMap::default();
        for (op, slot) in group_of.iter_mut().enumerate() {
            let operation = tpg.op(op);
            let target = operation
                .known_key()
                .map(|key| (operation.spec.table.0, key));
            let group = match target {
                Some(target) => *by_target.entry(target).or_insert_with(|| {
                    groups.push(Vec::new());
                    groups.len() - 1
                }),
                None => {
                    groups.push(Vec::new());
                    groups.len() - 1
                }
            };
            *slot = group;
            groups[group].push(op);
        }

        // --- unit-level edges ---
        let g = groups.len();
        let mut edge_set: Vec<Vec<usize>> = vec![Vec::new(); g];
        for op in 0..n {
            for (p, _) in tpg.parents(op) {
                let (from, to) = (group_of[*p], group_of[op]);
                if from != to && !edge_set[from].contains(&to) {
                    edge_set[from].push(to);
                }
            }
        }

        // --- strongly connected components (iterative Kosaraju) ---
        let sccs = strongly_connected_components(g, &edge_set);
        let had_cycles = sccs.iter().any(|scc| scc.len() > 1);

        // --- merge SCCs into final units ---
        let mut units: Vec<Vec<OpId>> = sccs
            .iter()
            .map(|scc| {
                let mut ops: Vec<OpId> = scc.iter().flat_map(|&grp| groups[grp].clone()).collect();
                ops.sort_by_key(|&op| (tpg.op(op).ts, tpg.op(op).stmt, op));
                ops
            })
            .collect();
        // Drop empty units (possible when the TPG is empty).
        units.retain(|ops| !ops.is_empty());

        let mut unit_of = vec![usize::MAX; n];
        for (unit, ops) in units.iter().enumerate() {
            for &op in ops {
                unit_of[op] = unit;
            }
        }
        // Recompute unit-level adjacency after merging.
        let u = units.len();
        let mut parents: Vec<Vec<usize>> = vec![Vec::new(); u];
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); u];
        for op in 0..n {
            for (p, _) in tpg.parents(op) {
                let (from, to) = (unit_of[*p], unit_of[op]);
                if from != to {
                    if !children[from].contains(&to) {
                        children[from].push(to);
                    }
                    if !parents[to].contains(&from) {
                        parents[to].push(from);
                    }
                }
            }
        }

        Self {
            ops: FlatLists::from_lists(&units),
            unit_of,
            parents: FlatLists::from_lists(&parents),
            children: FlatLists::from_lists(&children),
            had_cycles,
        }
    }

    /// Number of units.
    pub fn num_units(&self) -> usize {
        self.ops.num_lists()
    }

    /// Operations of `unit` in execution (timestamp) order.
    pub fn unit_ops(&self, unit: usize) -> &[OpId] {
        self.ops.list(unit)
    }

    /// The unit an operation belongs to.
    pub fn unit_of(&self, op: OpId) -> usize {
        self.unit_of[op]
    }

    /// Units that must complete before `unit` can be dispatched.
    pub fn parents(&self, unit: usize) -> &[usize] {
        self.parents.list(unit)
    }

    /// Units that wait for `unit`.
    pub fn children(&self, unit: usize) -> &[usize] {
        self.children.list(unit)
    }

    /// Check that the unit graph (after merging) is acyclic; returns an error
    /// message when it is not. Used by tests.
    pub fn validate_acyclic(&self) -> Result<(), String> {
        // Kahn's algorithm: if we cannot pop every unit the graph has a cycle.
        let n = self.num_units();
        let mut indegree: Vec<usize> = (0..n).map(|u| self.parents(u).len()).collect();
        let mut queue: Vec<usize> = (0..n).filter(|&u| indegree[u] == 0).collect();
        let mut visited = 0usize;
        while let Some(u) = queue.pop() {
            visited += 1;
            for &c in self.children(u) {
                indegree[c] -= 1;
                if indegree[c] == 0 {
                    queue.push(c);
                }
            }
        }
        if visited == n {
            Ok(())
        } else {
            Err(format!("unit graph has a cycle: visited {visited} of {n}"))
        }
    }
}

/// One side of the TPG's TD/PD adjacency, kinds dropped: the unit graph of
/// the fine partition.
fn op_edges(tpg: &Tpg, adjacency: fn(&Tpg, OpId) -> &[(OpId, DepKind)]) -> FlatLists<usize> {
    let n = tpg.num_ops();
    FlatLists::group(n, || {
        (0..n).flat_map(|op| {
            adjacency(tpg, op)
                .iter()
                .map(move |&(other, _)| (op, other))
        })
    })
}

/// Iterative Kosaraju SCC over an adjacency-list graph.
fn strongly_connected_components(n: usize, children: &[Vec<usize>]) -> Vec<Vec<usize>> {
    // reverse graph
    let mut reverse: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (from, tos) in children.iter().enumerate() {
        for &to in tos {
            reverse[to].push(from);
        }
    }
    // first pass: finish order on the forward graph
    let mut visited = vec![false; n];
    let mut order = Vec::with_capacity(n);
    for start in 0..n {
        if visited[start] {
            continue;
        }
        // iterative DFS with an explicit "exit" marker
        let mut stack = vec![(start, false)];
        while let Some((node, processed)) = stack.pop() {
            if processed {
                order.push(node);
                continue;
            }
            if visited[node] {
                continue;
            }
            visited[node] = true;
            stack.push((node, true));
            for &next in &children[node] {
                if !visited[next] {
                    stack.push((next, false));
                }
            }
        }
    }
    // second pass: components on the reverse graph, in reverse finish order
    let mut component = vec![usize::MAX; n];
    let mut sccs: Vec<Vec<usize>> = Vec::new();
    for &start in order.iter().rev() {
        if component[start] != usize::MAX {
            continue;
        }
        let id = sccs.len();
        let mut members = Vec::new();
        let mut stack = vec![start];
        component[start] = id;
        while let Some(node) = stack.pop() {
            members.push(node);
            for &next in &reverse[node] {
                if component[next] == usize::MAX {
                    component[next] = id;
                    stack.push(next);
                }
            }
        }
        sccs.push(members);
    }
    sccs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::TpgBuilder;
    use crate::operation::{udfs, OperationSpec};
    use crate::txn::{Transaction, TransactionBatch};
    use morphstream_common::{StateRef, TableId};

    const T: TableId = TableId(0);

    fn chain_batch() -> TransactionBatch {
        // Three transactions all writing key 0, plus one writing key 1.
        let mut batch = TransactionBatch::new();
        for ts in 1..=3u64 {
            batch.push(Transaction::new(
                ts,
                vec![OperationSpec::write(T, 0, vec![], udfs::add_delta(1))],
            ));
        }
        batch.push(Transaction::new(
            4,
            vec![OperationSpec::write(T, 1, vec![], udfs::add_delta(1))],
        ));
        batch
    }

    #[test]
    fn fine_units_are_one_op_each() {
        let tpg = TpgBuilder::new().build(chain_batch());
        let units = SchedulingUnits::fine(&tpg);
        assert_eq!(units.num_units(), tpg.num_ops());
        assert!(!units.had_cycles);
        units.validate_acyclic().unwrap();
        for op in 0..tpg.num_ops() {
            assert_eq!(units.unit_of(op), op);
            assert_eq!(units.unit_ops(op), &[op]);
            let parents: Vec<OpId> = tpg.parents(op).iter().map(|(p, _)| *p).collect();
            let children: Vec<OpId> = tpg.children(op).iter().map(|(c, _)| *c).collect();
            assert_eq!(units.parents(op), parents.as_slice());
            assert_eq!(units.children(op), children.as_slice());
        }
        // the key-0 chain 0 -> 1 -> 2; op 3 stands alone
        assert_eq!(units.parents(1), &[0]);
        assert_eq!(units.children(1), &[2]);
        assert!(units.parents(3).is_empty() && units.children(3).is_empty());
    }

    #[test]
    fn fine_unit_adjacency_keeps_the_tpg_order() {
        // op 3 reads keys 0, 1 and 2 written by ops 0, 1 and 2: three parents,
        // listed by source; op 0 has children 3 and 4, listed by target.
        let mut batch = TransactionBatch::new();
        for key in 0..3u64 {
            batch.push(Transaction::new(
                key + 1,
                vec![OperationSpec::write(T, key, vec![], udfs::add_delta(1))],
            ));
        }
        let params = (0..3).rev().map(|k| StateRef::new(T, k)).collect();
        batch.push(Transaction::new(
            4,
            vec![OperationSpec::write(T, 9, params, udfs::sum_params())],
        ));
        batch.push(Transaction::new(
            5,
            vec![OperationSpec::write(T, 0, vec![], udfs::add_delta(1))],
        ));
        let tpg = TpgBuilder::new().build(batch);
        let units = SchedulingUnits::fine(&tpg);
        assert_eq!(units.parents(3), &[0, 1, 2]);
        assert_eq!(units.children(0), &[3, 4]);
        assert_eq!(units.parents(4), &[0]);
        assert!(units.children(4).is_empty());
    }

    #[test]
    fn coarse_units_group_by_target_key() {
        let tpg = TpgBuilder::new().build(chain_batch());
        let units = SchedulingUnits::coarse(&tpg);
        assert_eq!(units.num_units(), 2);
        assert!(!units.had_cycles);
        units.validate_acyclic().unwrap();
        let key0_unit = units.unit_of(0);
        // ops inside a unit are ordered by timestamp
        assert_eq!(units.unit_ops(key0_unit), &[0, 1, 2]);
        assert_eq!(units.unit_ops(units.unit_of(3)), &[3]);
    }

    #[test]
    fn circular_unit_dependencies_are_merged() {
        // Build the Figure 6 situation: unit A (key 0) and unit B (key 1)
        // depend on each other through interleaved parametric dependencies.
        //   ts1: write k0
        //   ts2: write k1 = f(k0)   (B depends on A)
        //   ts3: write k0 = f(k1)   (A depends on B)
        let mut batch = TransactionBatch::new();
        batch.push(Transaction::new(
            1,
            vec![OperationSpec::write(T, 0, vec![], udfs::add_delta(1))],
        ));
        batch.push(Transaction::new(
            2,
            vec![OperationSpec::write(
                T,
                1,
                vec![StateRef::new(T, 0)],
                udfs::sum_params(),
            )],
        ));
        batch.push(Transaction::new(
            3,
            vec![OperationSpec::write(
                T,
                0,
                vec![StateRef::new(T, 1)],
                udfs::sum_params(),
            )],
        ));
        let tpg = TpgBuilder::new().build(batch);
        let units = SchedulingUnits::coarse(&tpg);
        assert!(
            units.had_cycles,
            "interleaved chains must be detected as a cycle"
        );
        units.validate_acyclic().unwrap();
        // all three ops end up in one merged unit
        assert_eq!(units.num_units(), 1);
        assert_eq!(units.unit_ops(0), &[0, 1, 2]);
    }

    #[test]
    fn unit_adjacency_mirrors_op_dependencies() {
        let mut batch = TransactionBatch::new();
        batch.push(Transaction::new(
            1,
            vec![OperationSpec::write(T, 0, vec![], udfs::add_delta(1))],
        ));
        batch.push(Transaction::new(
            2,
            vec![OperationSpec::write(
                T,
                1,
                vec![StateRef::new(T, 0)],
                udfs::sum_params(),
            )],
        ));
        let tpg = TpgBuilder::new().build(batch);
        let units = SchedulingUnits::coarse(&tpg);
        assert_eq!(units.num_units(), 2);
        let u0 = units.unit_of(0);
        let u1 = units.unit_of(1);
        assert_eq!(units.children(u0), &[u1]);
        assert_eq!(units.parents(u1), &[u0]);
        assert!(units.parents(u0).is_empty());
    }

    #[test]
    fn scc_handles_disconnected_graphs() {
        let sccs = strongly_connected_components(4, &[vec![1], vec![0], vec![], vec![]]);
        assert_eq!(sccs.iter().filter(|s| s.len() == 2).count(), 1);
        assert_eq!(sccs.iter().filter(|s| s.len() == 1).count(), 2);
    }

    #[test]
    fn empty_tpg_has_no_units() {
        let tpg = TpgBuilder::new().build(TransactionBatch::new());
        for units in [SchedulingUnits::fine(&tpg), SchedulingUnits::coarse(&tpg)] {
            assert_eq!(units.num_units(), 0);
            assert!(!units.had_cycles);
            units.validate_acyclic().unwrap();
        }
    }
}
