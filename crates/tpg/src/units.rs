//! Scheduling units: the granularity dimension of the scheduling decision.
//!
//! Fine-grained scheduling (`f-schedule`) treats every operation as its own
//! unit; coarse-grained scheduling (`c-schedule`) groups the operations that
//! target the same state into one unit (an *operation chain*), which
//! amortises context switching but can create circular dependencies between
//! units (Figure 6). When cycles appear, the involved units are merged into a
//! single unit, as the paper prescribes.

use std::collections::HashMap;

use morphstream_common::OpId;

use crate::graph::Tpg;

/// Grouping key used by the unit constructors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum GroupKey {
    /// Group by target state (operation chains).
    State(u32, u64),
    /// Group by owning transaction (S-Store-style whole-transaction units).
    Txn(usize),
}

/// One scheduling unit: a set of operations scheduled and dispatched
/// together, in timestamp order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Unit {
    /// Unit index.
    pub id: usize,
    /// Operations of the unit in execution (timestamp) order.
    pub ops: Vec<OpId>,
}

/// The partition of a TPG into scheduling units plus the unit-level
/// dependency graph.
#[derive(Debug, Clone)]
pub struct SchedulingUnits {
    units: Vec<Unit>,
    unit_of: Vec<usize>,
    parents: Vec<Vec<usize>>,
    children: Vec<Vec<usize>>,
    /// Whether coarse grouping produced circular dependencies that had to be
    /// merged away. This feeds the decision model's `Cyclic Dependency`
    /// input.
    pub had_cycles: bool,
}

impl SchedulingUnits {
    /// Fine-grained units: one operation per unit.
    pub fn fine(tpg: &Tpg) -> Self {
        let n = tpg.num_ops();
        let units = (0..n)
            .map(|id| Unit { id, ops: vec![id] })
            .collect::<Vec<_>>();
        let unit_of = (0..n).collect::<Vec<_>>();
        let mut parents = vec![Vec::new(); n];
        let mut children = vec![Vec::new(); n];
        for (op, op_parents) in parents.iter_mut().enumerate() {
            for (p, _) in tpg.parents(op) {
                op_parents.push(*p);
                children[*p].push(op);
            }
        }
        Self {
            units,
            unit_of,
            parents,
            children,
            had_cycles: false,
        }
    }

    /// Coarse-grained units: group operations by target state (operation
    /// chains); operations without a planning-time key (non-deterministic
    /// accesses) form singleton units. Units participating in a dependency
    /// cycle are merged.
    pub fn coarse(tpg: &Tpg) -> Self {
        Self::grouped(tpg, |tpg, op| {
            let operation = tpg.op(op);
            operation
                .known_key()
                .map(|key| GroupKey::State(operation.spec.table.0, key))
        })
    }

    /// Transaction-granularity units: every state transaction is one unit, the
    /// scheduling model of S-Store (whole transactions are the unit of
    /// scheduling, executed serially when they conflict).
    pub fn by_transaction(tpg: &Tpg) -> Self {
        Self::grouped(tpg, |tpg, op| Some(GroupKey::Txn(tpg.op(op).txn)))
    }

    /// Partition-granularity transaction units: every transaction is one unit
    /// and, in addition, transactions are conflict-checked at the granularity
    /// of `num_partitions` key partitions rather than individual keys. This
    /// models S-Store's partitioned stores: two transactions touching the
    /// same partition are ordered even when they touch different keys.
    pub fn by_partitioned_transaction(tpg: &Tpg, num_partitions: usize) -> Self {
        let num_partitions = num_partitions.max(1);
        let mut units = Self::grouped(tpg, |tpg, op| Some(GroupKey::Txn(tpg.op(op).txn)));
        // Add partition-conflict edges between transaction units.
        let mut last_unit_of_partition: HashMap<u64, usize> = HashMap::new();
        // Iterate units in timestamp order of their first op.
        let mut order: Vec<usize> = (0..units.units.len()).collect();
        order.sort_by_key(|&u| {
            let first = units.units[u].ops[0];
            (tpg.op(first).ts, first)
        });
        for &unit in &order {
            let mut partitions: Vec<u64> = units.units[unit]
                .ops
                .iter()
                .filter_map(|&op| tpg.op(op).known_key())
                .map(|key| key % num_partitions as u64)
                .collect();
            partitions.sort_unstable();
            partitions.dedup();
            for p in partitions {
                if let Some(&prev) = last_unit_of_partition.get(&p) {
                    if prev != unit && !units.children[prev].contains(&unit) {
                        units.children[prev].push(unit);
                        units.parents[unit].push(prev);
                    }
                }
                last_unit_of_partition.insert(p, unit);
            }
        }
        units
    }

    fn grouped(tpg: &Tpg, group_key: impl Fn(&Tpg, OpId) -> Option<GroupKey>) -> Self {
        let n = tpg.num_ops();
        // --- initial grouping ---
        let mut group_of = vec![usize::MAX; n];
        let mut groups: Vec<Vec<OpId>> = Vec::new();
        let mut by_target: HashMap<GroupKey, usize> = HashMap::new();
        for (op, slot) in group_of.iter_mut().enumerate() {
            let group = match group_key(tpg, op) {
                Some(key) => *by_target.entry(key).or_insert_with(|| {
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
        let mut units: Vec<Unit> = sccs
            .iter()
            .enumerate()
            .map(|(id, scc)| {
                let mut ops: Vec<OpId> = scc.iter().flat_map(|&grp| groups[grp].clone()).collect();
                ops.sort_by_key(|&op| (tpg.op(op).ts, tpg.op(op).stmt, op));
                Unit { id, ops }
            })
            .collect();
        // Drop empty units (possible when the TPG is empty).
        units.retain(|u| !u.ops.is_empty());
        for (idx, unit) in units.iter_mut().enumerate() {
            unit.id = idx;
        }

        let mut unit_of = vec![usize::MAX; n];
        for unit in &units {
            for &op in &unit.ops {
                unit_of[op] = unit.id;
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
            units,
            unit_of,
            parents,
            children,
            had_cycles,
        }
    }

    /// Number of units.
    pub fn num_units(&self) -> usize {
        self.units.len()
    }

    /// All units.
    pub fn units(&self) -> &[Unit] {
        &self.units
    }

    /// The unit an operation belongs to.
    pub fn unit_of(&self, op: OpId) -> usize {
        self.unit_of[op]
    }

    /// Units that must complete before `unit` can be dispatched.
    pub fn parents(&self, unit: usize) -> &[usize] {
        &self.parents[unit]
    }

    /// Units that wait for `unit`.
    pub fn children(&self, unit: usize) -> &[usize] {
        &self.children[unit]
    }

    /// Check that the unit graph (after merging) is acyclic; returns an error
    /// message when it is not. Used by tests.
    pub fn validate_acyclic(&self) -> Result<(), String> {
        // Kahn's algorithm: if we cannot pop every unit the graph has a cycle.
        let n = self.units.len();
        let mut indegree: Vec<usize> = (0..n).map(|u| self.parents[u].len()).collect();
        let mut queue: Vec<usize> = (0..n).filter(|&u| indegree[u] == 0).collect();
        let mut visited = 0usize;
        while let Some(u) = queue.pop() {
            visited += 1;
            for &c in &self.children[u] {
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
            assert_eq!(units.units()[units.unit_of(op)].ops, vec![op]);
        }
    }

    #[test]
    fn coarse_units_group_by_target_key() {
        let tpg = TpgBuilder::new().build(chain_batch());
        let units = SchedulingUnits::coarse(&tpg);
        assert_eq!(units.num_units(), 2);
        assert!(!units.had_cycles);
        units.validate_acyclic().unwrap();
        let key0_unit = units.unit_of(0);
        assert_eq!(units.units()[key0_unit].ops.len(), 3);
        // ops inside a unit are ordered by timestamp
        let ts: Vec<_> = units.units()[key0_unit]
            .ops
            .iter()
            .map(|&op| tpg.op(op).ts)
            .collect();
        assert!(ts.windows(2).all(|w| w[0] <= w[1]));
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
        assert_eq!(units.units()[0].ops.len(), 3);
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
    fn transaction_units_group_whole_transactions() {
        let mut batch = TransactionBatch::new();
        batch.push(Transaction::new(
            1,
            vec![
                OperationSpec::write(T, 0, vec![], udfs::add_delta(1)),
                OperationSpec::write(T, 1, vec![], udfs::add_delta(1)),
            ],
        ));
        batch.push(Transaction::new(
            2,
            vec![OperationSpec::write(T, 0, vec![], udfs::add_delta(1))],
        ));
        let tpg = TpgBuilder::new().build(batch);
        let units = SchedulingUnits::by_transaction(&tpg);
        assert_eq!(units.num_units(), 2);
        units.validate_acyclic().unwrap();
        // the second transaction's unit depends on the first (shared key 0)
        let u0 = units.unit_of(0);
        let u2 = units.unit_of(2);
        assert_ne!(u0, u2);
        assert!(units.parents(u2).contains(&u0));
        assert_eq!(units.units()[u0].ops.len(), 2);
    }

    #[test]
    fn partitioned_transactions_add_partition_conflict_edges() {
        // keys 0 and 4 collide in a 4-partition layout even though they are
        // different keys, so the two transactions become ordered.
        let mut batch = TransactionBatch::new();
        batch.push(Transaction::new(
            1,
            vec![OperationSpec::write(T, 0, vec![], udfs::add_delta(1))],
        ));
        batch.push(Transaction::new(
            2,
            vec![OperationSpec::write(T, 4, vec![], udfs::add_delta(1))],
        ));
        let tpg = TpgBuilder::new().build(batch);
        let plain = SchedulingUnits::by_transaction(&tpg);
        assert!(plain.parents(plain.unit_of(1)).is_empty());
        let partitioned = SchedulingUnits::by_partitioned_transaction(&tpg, 4);
        let u1 = partitioned.unit_of(1);
        assert_eq!(partitioned.parents(u1).len(), 1);
        partitioned.validate_acyclic().unwrap();
    }

    #[test]
    fn empty_tpg_has_no_units() {
        let tpg = TpgBuilder::new().build(TransactionBatch::new());
        let fine = SchedulingUnits::fine(&tpg);
        let coarse = SchedulingUnits::coarse(&tpg);
        assert_eq!(fine.num_units(), 0);
        assert_eq!(coarse.num_units(), 0);
        fine.validate_acyclic().unwrap();
        coarse.validate_acyclic().unwrap();
    }
}
