//! `EngineConfig::num_threads` is a ceiling: a MorphStream batch engages the
//! workers its declared UDF work pays for (`effective_workers`), for the
//! sharded TPG build and exploration alike. Stated as counts and thread ids,
//! so the gate means the same on any host: a punctuation that declares no
//! work runs every UDF on the thread that cut it and reports one worker,
//! under the adaptive model and under every fixed decision; one that declares
//! a second worker's worth reports two.

use std::collections::HashSet;
use std::sync::{Arc, Mutex};
use std::thread::{self, ThreadId};

use morphstream::storage::StateStore;
use morphstream::{
    EngineConfig, MorphStream, SchedulingDecision, StreamApp, TxnBuilder, TxnEngine, TxnOutcome,
    Udf, UdfInput, UdfOutcome,
};
use morphstream_common::{TableId, WORK_PER_WORKER_US};

const EVENTS: u64 = 64;

/// Counters over 16 keys whose UDF records the thread it runs on; every
/// operation declares `cost_us` of work.
struct ThreadProbe {
    table: TableId,
    cost_us: u64,
    threads: Arc<Mutex<HashSet<ThreadId>>>,
}

impl StreamApp for ThreadProbe {
    type Event = u64;
    type Output = ();

    fn state_access(&self, event: &u64, txn: &mut TxnBuilder) {
        let threads = self.threads.clone();
        let udf: Udf = Arc::new(move |input: &UdfInput| {
            threads
                .lock()
                .expect("a UDF panicked while recording its thread")
                .insert(thread::current().id());
            Ok(UdfOutcome::Value(input.target + 1))
        });
        txn.set_cost_us(self.cost_us)
            .write(self.table, event % 16, udf);
    }

    fn post_process(&self, _event: &u64, _outcome: &TxnOutcome) {}
}

/// Run one `EVENTS`-event punctuation, each operation declaring `cost_us`,
/// at two threads under `decision` (adaptive when `None`); return the
/// workers the batch reported and the threads its UDFs ran on.
fn one_punctuation(
    decision: Option<SchedulingDecision>,
    cost_us: u64,
) -> (usize, HashSet<ThreadId>) {
    let store = StateStore::new();
    let table = store.create_table("counters", 0, false);
    store.preallocate_range(table, 16).unwrap();
    let threads = Arc::new(Mutex::new(HashSet::new()));
    let app = ThreadProbe {
        table,
        cost_us,
        threads: threads.clone(),
    };
    let config = EngineConfig::with_threads(2).with_punctuation_interval(EVENTS as usize);
    let mut engine = MorphStream::new(app, store, config);
    if let Some(decision) = decision {
        engine = engine.with_fixed_decision(decision);
    }
    let report = engine.run(0..EVENTS);
    assert_eq!(report.committed, EVENTS as usize);
    assert_eq!(report.batches.len(), 1);
    let seen = threads.lock().unwrap().clone();
    (report.batches[0].workers, seen)
}

fn every_mode() -> Vec<Option<SchedulingDecision>> {
    std::iter::once(None)
        .chain(SchedulingDecision::all().into_iter().map(Some))
        .collect()
}

fn label(decision: Option<SchedulingDecision>) -> String {
    decision.map_or("adaptive MorphStream".into(), |d| {
        format!("MorphStream under {d}")
    })
}

#[test]
fn a_zero_cost_punctuation_runs_on_the_caller_alone() {
    let caller = thread::current().id();
    for decision in every_mode() {
        let (workers, threads) = one_punctuation(decision, 0);
        assert_eq!(workers, 1, "{} engaged {workers} workers", label(decision));
        assert_eq!(
            threads,
            HashSet::from([caller]),
            "{} ran a UDF off the calling thread",
            label(decision)
        );
    }
}

#[test]
fn a_punctuation_that_declares_a_share_of_work_engages_a_second_worker() {
    // The smallest per-operation cost that puts the batch at one share.
    let cost_us = WORK_PER_WORKER_US.div_ceil(EVENTS);
    for decision in every_mode() {
        let (workers, threads) = one_punctuation(decision, cost_us);
        assert_eq!(workers, 2, "{} engaged {workers} workers", label(decision));
        assert!(threads.len() <= 2, "{}: {threads:?}", label(decision));
    }
    // One microsecond less per operation stays under the share.
    let (workers, _) = one_punctuation(None, cost_us - 1);
    assert_eq!(workers, 1);
}
