//! Property-based tests for the multi-version state table.
//!
//! These check the storage invariants the executor relies on:
//! * version chains stay ordered regardless of insertion order;
//! * rollback of a writer restores exactly the state visible before it wrote;
//! * windowed reads return precisely the versions inside the window;
//! * the sequence of visible values at increasing timestamps is consistent
//!   with replaying the writes in timestamp order.

use proptest::prelude::*;

use morphstream_common::TableId;
use morphstream_storage::{MvTable, Version, VersionChain};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn chain_stays_sorted_under_arbitrary_insertion_order(
        mut entries in proptest::collection::vec((1u64..1000, 0u32..4, 0i64..100), 1..60)
    ) {
        let mut chain = VersionChain::with_initial(0);
        for (i, (ts, stmt, value)) in entries.drain(..).enumerate() {
            chain.insert(Version { ts, stmt, writer: i as u64, value });
        }
        let versions = chain.versions();
        for w in versions.windows(2) {
            prop_assert!((w[0].ts, w[0].stmt) <= (w[1].ts, w[1].stmt));
        }
    }

    #[test]
    fn read_before_matches_linear_scan(
        entries in proptest::collection::vec((1u64..200, 0i64..100), 1..50),
        probe_ts in 1u64..220
    ) {
        let mut chain = VersionChain::with_initial(7);
        for (i, (ts, value)) in entries.iter().enumerate() {
            chain.insert(Version { ts: *ts, stmt: 0, writer: i as u64, value: *value });
        }
        // Oracle: newest version with ts < probe_ts, ties broken by insertion
        // order among equal (ts, stmt) pairs — which matches append order.
        let expected = chain
            .versions()
            .iter()
            .rev()
            .find(|v| v.ts < probe_ts)
            .map(|v| v.value);
        let got = chain.read_before(probe_ts, 0).map(|v| v.value);
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn rollback_restores_pre_writer_visibility(
        writes in proptest::collection::vec((1u64..100, 0i64..1000), 1..40),
        victim_idx in 0usize..40
    ) {
        let table = MvTable::new(TableId(0), "t", 0, false);
        table.preallocate_range(1);
        for (i, (ts, value)) in writes.iter().enumerate() {
            table.write(0, *ts, 0, i as u64, *value).unwrap();
        }
        let victim = (victim_idx % writes.len()) as u64;
        // Oracle table: replay every write except the victim's.
        let oracle = MvTable::new(TableId(1), "o", 0, false);
        oracle.preallocate_range(1);
        for (i, (ts, value)) in writes.iter().enumerate() {
            if i as u64 != victim {
                oracle.write(0, *ts, 0, i as u64, *value).unwrap();
            }
        }
        table.rollback_writer_at(0, victim, writes[victim as usize].0);
        prop_assert_eq!(table.read_latest(0).unwrap(), oracle.read_latest(0).unwrap());
        // Visibility at every probe timestamp matches as well.
        for probe in [1u64, 25, 50, 75, 100, 101] {
            prop_assert_eq!(
                table.read_before(0, probe, 0).unwrap(),
                oracle.read_before(0, probe, 0).unwrap()
            );
        }
    }

    #[test]
    fn window_reads_return_exactly_in_range_versions(
        writes in proptest::collection::vec((1u64..100, 0i64..1000), 0..40),
        lo in 0u64..100,
        span in 0u64..100
    ) {
        let table = MvTable::new(TableId(0), "t", 0, false);
        table.preallocate_range(1);
        for (i, (ts, value)) in writes.iter().enumerate() {
            table.write(0, *ts, 0, i as u64, *value).unwrap();
        }
        let hi = lo.saturating_add(span);
        let got: Vec<i64> = table.window(0, lo, hi).unwrap().iter().map(|v| v.value).collect();
        let mut expected: Vec<(u64, i64)> = writes
            .iter()
            .filter(|(ts, _)| *ts >= lo && *ts <= hi)
            .map(|(ts, v)| (*ts, *v))
            .collect();
        if lo == 0 {
            // the initial seed version lives at timestamp 0
            expected.insert(0, (0, 0));
        }
        expected.sort_by_key(|(ts, _)| *ts);
        // Compare multisets of values at each timestamp: equal timestamps may
        // be ordered by insertion, so compare sorted pairs.
        let mut got_sorted = got.clone();
        got_sorted.sort_unstable();
        let mut exp_values: Vec<i64> = expected.iter().map(|(_, v)| *v).collect();
        exp_values.sort_unstable();
        prop_assert_eq!(got_sorted, exp_values);
    }

    #[test]
    fn truncation_never_changes_the_latest_visible_value(
        writes in proptest::collection::vec((1u64..100, 0i64..1000), 1..40),
        cut in 1u64..120
    ) {
        let table = MvTable::new(TableId(0), "t", 0, false);
        table.preallocate_range(1);
        for (i, (ts, value)) in writes.iter().enumerate() {
            table.write(0, *ts, 0, i as u64, *value).unwrap();
        }
        let latest_before = table.read_latest(0).unwrap();
        table.truncate_before(cut);
        prop_assert_eq!(table.read_latest(0).unwrap(), latest_before);
    }
}
