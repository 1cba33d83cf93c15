//! Scaffolding shared by the recovery matrix (here) and the failover matrix
//! (`crates/replication/tests/failover_matrix.rs`, which includes this file
//! by path): the keyed ledger → tally topology, its stream, and the
//! uninterrupted reference run both compare against. None of it touches the
//! durability layer.
#![allow(dead_code)] // each matrix uses its own subset

use std::path::PathBuf;

use morphstream::storage::StateStore;
use morphstream::{
    udfs, EngineConfig, OutputDigest, Pipeline, Route, StreamApp, Topology, TopologyBuilder,
    TopologyConfig, TxnBuilder, TxnEngine, TxnOutcome,
};
use morphstream_common::hash::Fnv1a;
use morphstream_common::{StateRef, TableId, WorkloadConfig};
use morphstream_workloads::{SlEvent, StreamingLedgerApp};

pub const PUNCTUATION: usize = 50;
pub const EVENTS: usize = 600;
/// Mid-batch: 230 is not a multiple of the punctuation interval, so the
/// checkpoint's flush cuts a partial batch.
pub const CHECKPOINT_AT: usize = 230;

/// The entry operator: Streaming Ledger semantics, but the output carries
/// the primary account key so the downstream edge can partition by it.
pub struct LedgerApp {
    accounts: TableId,
}

impl LedgerApp {
    fn new(store: &StateStore) -> Self {
        Self {
            accounts: store.create_table("accounts", 0, true),
        }
    }
}

impl StreamApp for LedgerApp {
    type Event = SlEvent;
    /// `account << 1 | committed`.
    type Output = u64;

    fn state_access(&self, event: &SlEvent, txn: &mut TxnBuilder) {
        match event {
            SlEvent::Deposit { account, amount } => {
                txn.write(self.accounts, *account, udfs::add_delta(*amount));
            }
            SlEvent::Transfer { from, to, amount } => {
                txn.write(self.accounts, *from, udfs::withdraw(*amount));
                txn.write_with_params(
                    self.accounts,
                    *to,
                    vec![StateRef::new(self.accounts, *from)],
                    udfs::credit_if_param_at_least(*amount, *amount),
                );
            }
        }
    }

    fn post_process(&self, event: &SlEvent, outcome: &TxnOutcome) -> u64 {
        let account = match event {
            SlEvent::Deposit { account, .. } => *account,
            SlEvent::Transfer { from, .. } => *from,
        };
        (account << 1) | outcome.committed as u64
    }
}

/// The downstream operator: per-account event tally, keyed by the same
/// account the route partitions on, so parallel instances own disjoint keys.
pub struct TallyApp {
    tallies: TableId,
}

impl StreamApp for TallyApp {
    type Event = u64;
    type Output = u64;

    fn state_access(&self, event: &u64, txn: &mut TxnBuilder) {
        txn.write(self.tallies, event >> 1, udfs::add_delta(1));
    }

    fn post_process(&self, event: &u64, _outcome: &TxnOutcome) -> u64 {
        *event
    }
}

#[derive(Clone, Copy)]
pub struct Shape {
    pub concurrent: bool,
    pub parallelism: usize,
    pub threads: usize,
}

pub type Engine = Topology<SlEvent, u64>;

/// The ledger → tally topology of one cell, with its two stores.
pub fn build(shape: Shape) -> (Engine, [StateStore; 2]) {
    let ledger_store = StateStore::new();
    let tally_store = StateStore::new();
    let config = EngineConfig::with_threads(shape.threads).with_punctuation_interval(PUNCTUATION);
    let mut builder = TopologyBuilder::new();
    let ledger = builder.add_operator(
        "ledger",
        LedgerApp::new(&ledger_store),
        ledger_store.clone(),
        config,
    );
    let tally = builder
        .add_operator(
            "tally",
            TallyApp {
                tallies: tally_store.create_table("tallies", 0, true),
            },
            tally_store.clone(),
            config,
        )
        .with_parallelism(shape.parallelism);
    builder.connect(
        ledger,
        tally,
        Route::keyed(|routed: &u64| routed >> 1, |out: &u64| Some(*out)),
    );
    let topology = builder
        .build(
            ledger,
            tally,
            TopologyConfig::default().with_concurrent(shape.concurrent),
        )
        .expect("ledger -> tally is a valid dataflow");
    (topology, [ledger_store, tally_store])
}

#[derive(Debug, PartialEq)]
pub struct Digests {
    pub ledger: u64,
    pub tally: u64,
    pub outputs: u64,
}

pub fn test_dir(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("morph-matrix-{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The reference: one uninterrupted run of the whole stream, on the bare
/// engine.
pub fn reference(shape: Shape, events: &[SlEvent]) -> Digests {
    let (mut topology, [ledger, tally]) = build(shape);
    let outputs = OutputDigest::install(&mut topology, Fnv1a::new());
    {
        let mut pipeline = Pipeline::new(&mut topology);
        for event in events {
            pipeline.push(event.clone());
        }
    }
    topology.flush();
    topology.finish();
    Digests {
        ledger: ledger.state_digest(),
        tally: tally.state_digest(),
        outputs: outputs.finish(),
    }
}

/// The stream every matrix test runs.
pub fn test_events() -> Vec<SlEvent> {
    let workload = WorkloadConfig::streaming_ledger()
        .with_key_space(64)
        .with_txns_per_batch(PUNCTUATION);
    StreamingLedgerApp::generate(&workload, EVENTS, 0.5)
}
