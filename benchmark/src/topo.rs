//! `topo_fraud`: the benchmark-owned fraud scenario, loaded with
//! `morphstream_dataflow::load_str` and driven closed-loop on the concurrent
//! runtime; the serial runtime is the reference.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use morphstream::storage::StateStore;
use morphstream::{FnSink, Topology, TxnEngine};
use morphstream_common::hash::Fnv1a;
use morphstream_common::rng::splitmix64;
use morphstream_dataflow::{build_events, load_str, LoadOverrides, ScenarioEvent};

use crate::library::{checkpoint_restart, drive, report, RESTART_DIVERGED};
use crate::rig::{self, Outcome, Scratch, POOL_EVENTS};
use crate::spec::CRASH_TAIL_EVENTS;

/// Events of the verified prefix (see [`rig::PREFIX_EVENTS`]); half the
/// library workloads', since this reference runs a whole topology.
const PREFIX_EVENTS: usize = rig::PREFIX_EVENTS / 2;

/// The scenario document.
pub const SCENARIO: &str = include_str!("../scenarios/fraud_bench.toml");

/// Count and order-sensitive digest of the outputs a topology emitted.
#[derive(Clone, Default)]
pub struct OutputTally(Arc<Mutex<(u64, Fnv1a)>>);

impl OutputTally {
    /// `(outputs seen, digest of them)`.
    pub fn get(&self) -> (u64, u64) {
        let guard = self.0.lock().expect("tally lock");
        (guard.0, guard.1.finish())
    }
}

/// The loaded scenario: topology (outputs drained into a tally), its shared
/// store, and the seeded event pool.
pub struct Fraud {
    /// The dataflow.
    pub topology: Topology<ScenarioEvent, ScenarioEvent>,
    /// The one store every stage writes.
    pub store: StateStore,
    /// What the terminal stage emitted so far.
    pub outputs: OutputTally,
    /// Entry punctuation interval.
    pub punctuation: usize,
    /// Seconds `load_str` took (parse, validate, assemble).
    pub load_seconds: f64,
}

impl Fraud {
    /// Load the scenario on the runtime the file names, or on the one
    /// `concurrent` overrides it to.
    pub fn load(concurrent: Option<bool>) -> Fraud {
        let started = Instant::now();
        let overrides = LoadOverrides {
            threads: None,
            concurrent,
        };
        let mut loaded =
            load_str(SCENARIO, "fraud_bench.toml", &overrides).expect("fraud_bench.toml loads");
        let load_seconds = started.elapsed().as_secs_f64();
        let outputs = OutputTally::default();
        let tally = outputs.clone();
        loaded
            .topology
            .set_output_sink(Some(Box::new(FnSink(move |ev: ScenarioEvent| {
                let mut guard = tally.0.lock().expect("tally lock");
                guard.0 += 1;
                guard.1.update(&ev.digest().to_le_bytes());
            }))));
        Fraud {
            topology: loaded.topology,
            store: loaded.store,
            outputs,
            punctuation: loaded.spec.punctuation,
            load_seconds,
        }
    }

    /// State and outputs folded into one digest.
    pub fn digest(&self) -> u64 {
        self.store.state_digest() ^ self.outputs.get().1.rotate_left(1)
    }
}

/// The seeded event pool: the scenario's feeds, resized to `count` events in
/// total and reseeded from `seed`, merged as the loader merges them.
pub fn pool(seed: u64, count: usize) -> Vec<ScenarioEvent> {
    let mut spec = morphstream_dataflow::ScenarioSpec::parse(SCENARIO, "fraud_bench.toml")
        .expect("fraud_bench.toml parses");
    let feeds = spec.feeds.len();
    let mut state = seed;
    for feed in &mut spec.feeds {
        feed.events = count / feeds;
        feed.seed = splitmix64(&mut state);
    }
    build_events(&spec).expect("feeds generate")
}

/// Run `topo_fraud` end to end.
pub fn run(seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let ((events, mut fraud), setup_s) =
        rig::set_up(|| (pool(seed, POOL_EVENTS), Fraud::load(None)));

    let (store, outputs) = (fraud.store.clone(), fraud.outputs.clone());
    let run = drive(
        &mut fraud.topology,
        &events,
        fraud.punctuation,
        seconds,
        PREFIX_EVENTS,
        || store.state_digest() ^ outputs.get().1.rotate_left(1),
    );

    // Gate 1: one terminal output per event pushed.
    let emitted = fraud.outputs.get().0.min(run.pushed as u64);
    out.attempted = run.pushed as u64;
    out.failed = run.pushed as u64 - emitted;
    out.require(run.report.events() == run.pushed, || {
        format!(
            "{} events pushed, {} outputs",
            run.pushed,
            run.report.events()
        )
    });
    // Gate 2, verified prefix: state, outputs and counts equal the serial
    // runtime's.
    let mut reference = Fraud::load(Some(false));
    let ref_report = reference
        .topology
        .run(rig::cycled(&events, 0, PREFIX_EVENTS));
    let expected = (
        rig::reference_digest(reference.digest()),
        ref_report.committed,
        ref_report.aborted,
    );
    out.require(run.prefix == expected, || {
        format!(
            "after {PREFIX_EVENTS} events (digest, committed, aborted) = {:x?}, serial runtime {:x?}",
            run.prefix, expected
        )
    });

    let scratch = Scratch::new("topo_fraud");
    let (recovery_s, caught_up) = checkpoint_restart(
        &mut fraud.topology,
        &fraud.store,
        &scratch.path().join("checkpoints"),
        &rig::cycled(&events, run.pushed, CRASH_TAIL_EVENTS as usize).collect::<Vec<_>>(),
        || {
            let fresh = Fraud::load(None);
            (fresh.topology, fresh.store)
        },
    );
    out.require(caught_up, || RESTART_DIVERGED.into());

    report(&mut out, &run, recovery_s, setup_s);
    out
}
