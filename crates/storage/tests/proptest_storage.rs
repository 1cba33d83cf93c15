//! Property-based tests for the multi-version state table.
//!
//! These check the storage invariants the executor relies on:
//! * version chains stay ordered regardless of insertion order;
//! * rollback of a writer restores exactly the state visible before it wrote;
//! * windowed reads return precisely the versions inside the window;
//! * the sequence of visible values at increasing timestamps is consistent
//!   with replaying the writes in timestamp order;
//! * the table's versions, running totals (`version_count`,
//!   `bytes_retained`) and the keys its reclaims visit are, after every step
//!   of any history, what a model of plain sorted `Vec`s finds — not the
//!   table's own `VersionChain`, which keeps its first versions inline.

use std::collections::{BTreeMap, BTreeSet};

use proptest::prelude::*;

use morphstream_common::{Key, TableId, Timestamp, Value};
use morphstream_storage::{MvTable, Version, VersionChain, INITIAL_WRITER};

/// One step of a table history.
#[derive(Debug, Clone)]
enum Step {
    Write(Key, Timestamp, u64, Value),
    Rollback(Key, u64, Timestamp),
    Seed(Key, Value),
    Preallocate(Key, u64),
    Read(Key, Timestamp),
    Truncate(Timestamp),
    Pin,
}

/// Steps over a small key and timestamp space, so chains grow, shrink and
/// regrow, writers and timestamps recur, and reads and writes fall on keys
/// that do not exist yet. Weighted towards writes; pinning is rare because
/// it ends reclamation for good.
fn step() -> impl Strategy<Value = Step> {
    let key = || 0u64..12;
    let ts = || 1u64..40;
    let write =
        || (key(), ts(), 0u64..5, -50i64..50).prop_map(|(k, t, w, v)| Step::Write(k, t, w, v));
    let truncate = || (0u64..45).prop_map(Step::Truncate);
    prop_oneof![
        write(),
        write(),
        write(),
        write(),
        (key(), 0u64..5, ts()).prop_map(|(k, w, t)| Step::Rollback(k, w, t)),
        (key(), 0u64..5, ts()).prop_map(|(k, w, t)| Step::Rollback(k, w, t)),
        (key(), -50i64..50).prop_map(|(k, v)| Step::Seed(k, v)),
        (key(), 1u64..4).prop_map(|(k, n)| Step::Preallocate(k, n)),
        (key(), ts()).prop_map(|(k, t)| Step::Read(k, t)),
        truncate(),
        truncate(),
        truncate(),
        (0u64..12).prop_filter_map("pin one time in twelve", |n| (n == 0).then_some(Step::Pin)),
    ]
}

/// One key's versions as a plain sorted `Vec`, each operation written the
/// simplest way that keeps `(ts, stmt)` order.
struct ModelChain {
    versions: Vec<Version>,
    /// Most versions held since the key was created or seeded: the heap
    /// capacity a chain keeps after spilling must cover it.
    peak: usize,
}

impl ModelChain {
    fn with_initial(value: Value) -> Self {
        let initial = Version {
            ts: 0,
            stmt: 0,
            writer: INITIAL_WRITER,
            value,
        };
        Self {
            versions: vec![initial],
            peak: 1,
        }
    }

    fn insert(&mut self, version: Version) {
        let key = (version.ts, version.stmt);
        let idx = self.versions.partition_point(|v| (v.ts, v.stmt) <= key);
        self.versions.insert(idx, version);
        self.peak = self.peak.max(self.versions.len());
    }

    fn remove_writer_at(&mut self, writer: u64, ts: Timestamp) {
        self.versions.retain(|v| v.writer != writer || v.ts != ts);
    }

    fn truncate_before(&mut self, ts: Timestamp) {
        let keep_from = self.versions.partition_point(|v| v.ts <= ts);
        self.versions.drain(..keep_from.saturating_sub(1));
    }

    /// Bounds on the bytes the table may account for this key: its key and
    /// inline slots, plus — once it has spilled — a heap capacity of at
    /// least its peak and at most twice that.
    fn bytes_bounds(&self) -> (u64, u64) {
        let version = std::mem::size_of::<Version>();
        let slots = VersionChain::default().bytes_retained() as usize;
        let fixed = (std::mem::size_of::<Key>() + slots) as u64;
        if self.peak * version <= slots {
            (fixed, fixed)
        } else {
            let spilled = (self.peak * version) as u64;
            (fixed + spilled, fixed + 2 * spilled)
        }
    }
}

/// The table as plain `Vec` chains, every figure found by walking them.
struct Model {
    default_value: Value,
    auto_create: bool,
    chains: BTreeMap<Key, ModelChain>,
    /// Keys whose chain outgrew one version since a reclaim last found it
    /// at one: what the next reclaim has to visit.
    outgrown: BTreeSet<Key>,
    pinned: bool,
    visited: u64,
}

impl Model {
    fn create(&mut self, key: Key) {
        let value = self.default_value;
        self.chains
            .entry(key)
            .or_insert_with(|| ModelChain::with_initial(value));
    }

    fn apply(&mut self, step: &Step) {
        match *step {
            Step::Write(key, ts, writer, value) => {
                if self.auto_create {
                    self.create(key);
                }
                if let Some(chain) = self.chains.get_mut(&key) {
                    chain.insert(Version {
                        ts,
                        stmt: 0,
                        writer,
                        value,
                    });
                    if chain.versions.len() > 1 {
                        self.outgrown.insert(key);
                    }
                }
            }
            Step::Rollback(key, writer, ts) => {
                if let Some(chain) = self.chains.get_mut(&key) {
                    chain.remove_writer_at(writer, ts);
                }
            }
            Step::Seed(key, value) => {
                self.chains.insert(key, ModelChain::with_initial(value));
            }
            Step::Preallocate(key, n) => (key..key + n).for_each(|key| self.create(key)),
            Step::Read(key, _) => {
                if self.auto_create {
                    self.create(key);
                }
            }
            Step::Truncate(ts) => {
                if !self.pinned {
                    self.visited += self.outgrown.len() as u64;
                    for chain in self.chains.values_mut() {
                        chain.truncate_before(ts);
                    }
                    let chains = &self.chains;
                    self.outgrown.retain(|key| chains[key].versions.len() > 1);
                }
            }
            Step::Pin => self.pinned = true,
        }
    }
}

fn apply_to_table(table: &MvTable, step: &Step) {
    match *step {
        Step::Write(key, ts, writer, value) => {
            let _ = table.write(key, ts, 0, writer, value);
        }
        Step::Rollback(key, writer, ts) => {
            table.rollback_writer_at(key, writer, ts);
        }
        Step::Seed(key, value) => table.seed(key, value),
        Step::Preallocate(key, n) => table.preallocate(key..key + n),
        Step::Read(key, ts) => {
            let _ = table.read_before(key, ts, 0);
        }
        Step::Truncate(ts) => table.truncate_before(ts),
        Step::Pin => table.pin(),
    }
}

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

    #[test]
    fn totals_and_reclaim_visits_match_a_model_that_walks_every_chain(
        steps in proptest::collection::vec(step(), 1..120),
        auto_create in prop_oneof![Just(false), Just(true)],
    ) {
        let table = MvTable::new(TableId(0), "t", 3, auto_create);
        let mut model = Model {
            default_value: 3,
            auto_create,
            chains: BTreeMap::new(),
            outgrown: BTreeSet::new(),
            pinned: false,
            visited: 0,
        };
        let preallocated = Step::Preallocate(0, 6);
        for step in std::iter::once(&preallocated).chain(&steps) {
            apply_to_table(&table, step);
            model.apply(step);

            prop_assert_eq!(table.key_count(), model.chains.len(), "after {:?}", step);
            for (key, chain) in &model.chains {
                let surviving = table.window(*key, 0, Timestamp::MAX).unwrap();
                prop_assert_eq!(&surviving, &chain.versions, "key {} after {:?}", key, step);
            }
            let versions: usize = model.chains.values().map(|c| c.versions.len()).sum();
            prop_assert_eq!(table.version_count(), versions as u64, "after {:?}", step);
            let (low, high) = model
                .chains
                .values()
                .map(ModelChain::bytes_bounds)
                .fold((0, 0), |(low, high), (l, h)| (low + l, high + h));
            let bytes = table.bytes_retained();
            prop_assert!((low..=high).contains(&bytes), "{} bytes after {:?}", bytes, step);
            prop_assert_eq!(table.reclaim_keys_visited(), model.visited, "after {:?}", step);
            prop_assert!(model.outgrown.len() <= model.chains.len());
        }
    }
}
