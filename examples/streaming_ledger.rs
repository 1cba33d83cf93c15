//! Streaming Ledger benchmark: compares MorphStream against the
//! reconstructed TStream and S-Store baselines on the paper's SL workload
//! (Figure 11 in miniature).
//!
//! Every system is driven through the unified [`TxnEngine`] trait by one
//! generic runner, and events are pushed straight from the lazy
//! [`StreamingLedgerApp::source`] — the stream is never materialised as a
//! `Vec`.
//!
//! ```text
//! cargo run --release --example streaming_ledger
//! ```

use morphstream::storage::StateStore;
use morphstream::{EngineConfig, MorphStream, TxnEngine};
use morphstream_baselines::{SStore, TStream};
use morphstream_common::WorkloadConfig;
use morphstream_workloads::{SlEvent, StreamingLedgerApp};

const EVENTS: usize = 8_192;
const TRANSFER_RATIO: f64 = 0.6;

/// Drive one engine through the unified trait, feeding it lazily from the
/// deterministic source, and print its row.
fn run_system<E>(name: &str, engine: &mut E, config: &WorkloadConfig)
where
    E: TxnEngine<Event = SlEvent, Output = bool>,
{
    let mut pipeline = engine.pipeline();
    pipeline.push_iter(StreamingLedgerApp::source(config, EVENTS, TRANSFER_RATIO));
    let report = pipeline.finish();
    println!(
        "{:<14} {:>14.2} {:>12.2} {:>10}",
        name,
        report.k_events_per_second(),
        report
            .latency
            .percentile(95.0)
            .unwrap_or_default()
            .as_secs_f64()
            * 1e3,
        report.aborted
    );
}

fn main() {
    let config = WorkloadConfig::streaming_ledger()
        .with_key_space(10_000)
        .with_udf_complexity_us(2)
        .with_txns_per_batch(1_024);
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    let engine_config =
        EngineConfig::with_threads(threads).with_punctuation_interval(config.txns_per_batch);

    println!("Streaming Ledger, {EVENTS} events, {threads} threads");
    println!(
        "{:<14} {:>14} {:>12} {:>10}",
        "system", "k events/s", "p95 ms", "aborted"
    );

    {
        let store = StateStore::new();
        let app = StreamingLedgerApp::new(&store, &config);
        let mut engine = MorphStream::new(app, store, engine_config);
        run_system("MorphStream", &mut engine, &config);
    }
    {
        let store = StateStore::new();
        let app = StreamingLedgerApp::new(&store, &config);
        let mut engine = TStream::engine(app, store, engine_config);
        run_system("TStream", &mut engine, &config);
    }
    {
        let store = StateStore::new();
        let app = StreamingLedgerApp::new(&store, &config);
        let mut engine = SStore::engine(app, store, engine_config);
        run_system("S-Store", &mut engine, &config);
    }
}
