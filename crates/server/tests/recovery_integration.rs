//! End-to-end durability tests of `morphstream serve`: a server with a
//! `--data-dir` survives restarts — resuming from its final checkpoint after
//! a graceful shutdown, and replaying the write-ahead log after a simulated
//! crash — to state and output digests identical to one uninterrupted run of
//! the same stream.

mod common;

use morphstream_common::protocol::WireFormat;

use common::{
    http_get, metric_value, send_stream, temp_dir, test_events, test_options, wait_for_ingest,
};
use morphstream_durability::{
    decode_segment, Checkpoint, CheckpointStore, DurableEngine, FsyncPolicy, WalLog,
};
use morphstream_server::{build_topology, reference_run, Server};
use morphstream_workloads::SlEvent;

/// Graceful restart: stop a durable server mid-stream, start a second one on
/// the same data directory, feed it the rest. The second lifetime resumes
/// from the shutdown checkpoint (nothing to replay) and the combined run is
/// digest-identical to one uninterrupted run.
#[test]
fn graceful_restart_resumes_from_checkpoint_to_identical_digests() {
    let dir = temp_dir("graceful");
    let opts = test_options(Some(dir.clone()));
    let events = test_events(4_000, &opts.workload);
    let expected = reference_run(&test_options(None), events.clone()).expect("reference run");

    let first = Server::start(opts.clone()).expect("first server starts");
    assert!(
        first.recovery().is_none(),
        "fresh data dir: nothing to recover"
    );
    send_stream(first.event_addr(), &events[..2_500], WireFormat::Binary);
    wait_for_ingest(&first, 2_500);
    first.shutdown();

    let second = Server::start(opts).expect("second server starts");
    let recovery = second.recovery().expect("second lifetime recovers").clone();
    assert!(recovery.checkpoint_id.is_some(), "restored a checkpoint");
    assert_eq!(
        recovery.events_applied, 2_500,
        "checkpoint covered the prefix"
    );
    assert_eq!(
        recovery.replayed_events, 0,
        "graceful shutdown leaves no WAL tail"
    );
    assert!(!recovery.torn_tail);
    send_stream(second.event_addr(), &events[2_500..], WireFormat::Binary);
    wait_for_ingest(&second, 1_500);
    let summary = second.shutdown();

    assert_eq!(
        summary.ledger_digest, expected.ledger_digest,
        "ledger state diverged"
    );
    assert_eq!(
        summary.audit_digest, expected.audit_digest,
        "audit state diverged"
    );
    assert_eq!(
        summary.output_digest, expected.output_digest,
        "output stream diverged"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Crash recovery: a data directory holding only a write-ahead log (the
/// shape a kill leaves when it lands before the first checkpoint) is fully
/// replayed through the topology at startup, then the stream continues over
/// TCP — digest-identical to the uninterrupted run, with the durability
/// metrics visible on `/metrics`.
#[test]
fn crash_recovery_replays_wal_tail_through_the_server() {
    let dir = temp_dir("crash");
    let opts = test_options(Some(dir.clone()));
    let events = test_events(3_000, &opts.workload);
    let expected = reference_run(&test_options(None), events.clone()).expect("reference run");

    // Simulate the crashed first lifetime: its WAL recorded the prefix, but
    // it died before any checkpoint was taken.
    {
        let mut wal = WalLog::open(dir.join("wal"), FsyncPolicy::Always, 0).expect("open WAL");
        for event in &events[..1_700] {
            wal.append_event(event).expect("append");
        }
    }

    let server = Server::start(opts).expect("server recovers and starts");
    let recovery = server
        .recovery()
        .expect("WAL tail triggers recovery")
        .clone();
    assert_eq!(recovery.checkpoint_id, None, "no checkpoint existed");
    assert_eq!(recovery.replayed_events, 1_700, "the whole WAL is the tail");
    assert!(!recovery.torn_tail);

    let (_, scrape) = http_get(server.metrics_addr(), "/metrics");
    assert_eq!(
        metric_value(&scrape, "morphstream_recovered_events_total"),
        Some(1_700.0)
    );
    assert_eq!(
        metric_value(&scrape, "morphstream_recoveries_total"),
        Some(1.0)
    );
    assert!(
        metric_value(&scrape, "morphstream_checkpoints_total").unwrap_or(0.0) >= 1.0,
        "recovery re-anchors with a fresh checkpoint"
    );
    assert!(
        metric_value(&scrape, "morphstream_durable_events").unwrap_or(0.0) >= 1_700.0,
        "durable_events tells a resuming client where to skip to"
    );

    send_stream(server.event_addr(), &events[1_700..], WireFormat::Binary);
    wait_for_ingest(&server, 1_300);
    let summary = server.shutdown();

    assert_eq!(
        summary.ledger_digest, expected.ledger_digest,
        "ledger state diverged"
    );
    assert_eq!(
        summary.audit_digest, expected.audit_digest,
        "audit state diverged"
    );
    assert_eq!(
        summary.output_digest, expected.output_digest,
        "output stream diverged"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Durability on a TOML-declared dataflow: a server started with
/// `--topology` recovers a WAL-only data directory (the crash signature) by
/// replaying every event through the *loaded* topology, then continues over
/// TCP — digest-identical to an uninterrupted reference run of the same
/// scenario file.
#[test]
fn crash_recovery_works_on_a_toml_loaded_topology() {
    const SCENARIO: &str = r#"
[topology]
name = "served-ledger"
terminal = "audit"
punctuation = 500

[[stages]]
id = "accounts"
app = "ledger"

[[stages]]
id = "audit"
app = "tally"
inputs = ["accounts"]
"#;
    let dir = temp_dir("toml-crash");
    std::fs::create_dir_all(&dir).expect("create data dir");
    let scenario_path = dir.join("served.toml");
    std::fs::write(&scenario_path, SCENARIO).expect("write scenario");

    let mut opts = test_options(Some(dir.clone()));
    opts.topology = Some(scenario_path.clone());
    let events = test_events(3_000, &opts.workload);
    let mut reference_opts = test_options(None);
    reference_opts.topology = Some(scenario_path);
    let expected = reference_run(&reference_opts, events.clone()).expect("reference run");
    // The loaded dataflow shares one store, returned in both digest slots.
    assert_eq!(expected.ledger_digest, expected.audit_digest);

    // Simulate the crashed first lifetime: WAL prefix, no checkpoint.
    {
        let mut wal = WalLog::open(dir.join("wal"), FsyncPolicy::Always, 0).expect("open WAL");
        for event in &events[..1_800] {
            wal.append_event(event).expect("append");
        }
    }

    let server = Server::start(opts).expect("server recovers the TOML topology");
    let recovery = server
        .recovery()
        .expect("WAL tail triggers recovery")
        .clone();
    assert_eq!(recovery.checkpoint_id, None, "no checkpoint existed");
    assert_eq!(recovery.replayed_events, 1_800, "the whole WAL is the tail");
    assert!(!recovery.torn_tail);

    send_stream(server.event_addr(), &events[1_800..], WireFormat::Binary);
    wait_for_ingest(&server, 1_200);
    let summary = server.shutdown();

    assert_eq!(
        summary.ledger_digest, expected.ledger_digest,
        "scenario state diverged"
    );
    assert_eq!(
        summary.output_digest, expected.output_digest,
        "output stream diverged"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A torn record at the WAL tail — the signature of a kill mid-write — is
/// dropped and reported; everything before it still replays.
#[test]
fn torn_wal_tail_is_dropped_and_reported() {
    let dir = temp_dir("torn");
    let opts = test_options(Some(dir.clone()));
    let events = test_events(900, &opts.workload);

    {
        let mut wal = WalLog::open(dir.join("wal"), FsyncPolicy::Always, 0).expect("open WAL");
        for event in &events {
            wal.append_event(event).expect("append");
        }
    }
    // Half a record: a valid event tag, then a length field with no payload
    // behind it.
    let segment = std::fs::read_dir(dir.join("wal"))
        .expect("wal dir")
        .map(|entry| entry.expect("entry").path())
        .max()
        .expect("one segment");
    let mut bytes = std::fs::read(&segment).expect("read segment");
    bytes.extend_from_slice(&[1, 0xFF, 0xFF, 0xFF]);
    std::fs::write(&segment, bytes).expect("tear the tail");

    let server = Server::start(opts).expect("server tolerates the torn tail");
    let recovery = server.recovery().expect("recovers").clone();
    assert!(recovery.torn_tail, "the torn record is reported");
    assert_eq!(recovery.replayed_events, 900, "the intact prefix replays");

    // Recovery also repaired the segment on disk: new appends will seal it
    // behind a newer segment, where leftover damage would refuse startup.
    let repaired = std::fs::read(&segment).expect("re-read segment");
    let decoded = decode_segment::<SlEvent>(&repaired).expect("decodes");
    assert!(!decoded.torn, "the torn tail was truncated away");
    assert_eq!(decoded.events.len(), 900);

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Served on `scenarios/fraud.toml`, whose `audit` table stops changing
/// after the first batches: every checkpoint still captures all five
/// tables and supersedes the one before it, so however long the server
/// runs the manifest holds one live checkpoint, and a crash restarts from
/// it (plus the WAL tail) to the digests of the uninterrupted run.
#[test]
fn every_served_checkpoint_holds_every_table_and_supersedes_the_last() {
    const EVENTS: usize = 20_000;
    let dir = temp_dir("fraud-whole");
    let mut opts = test_options(Some(dir.clone()));
    let scenario =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scenarios/fraud.toml");
    opts.topology = Some(scenario);
    opts.checkpoint_interval = 2_000;
    let events = test_events(EVENTS + 1_000, &opts.workload);
    let mut reference_opts = opts.clone();
    reference_opts.data_dir = None;
    let expected = reference_run(&reference_opts, events.clone()).expect("reference run");

    // What `serve` does with the same options, in the same 256-event
    // chunks; superseded checkpoints are kept as history so each can be
    // read. Dropping the engine is the `kill -9` image.
    let open = |opts: &morphstream_server::ServeOptions| {
        let (engine, store, _) = build_topology(opts).expect("scenario loads");
        let (durable, recovery) = DurableEngine::open(
            Some(&dir),
            engine,
            FsyncPolicy::Never,
            opts.checkpoint_interval,
            usize::MAX,
            opts.workload.txns_per_batch as u64,
        )
        .expect("open durable engine");
        (durable, store, recovery)
    };
    let published = {
        let (mut durable, _, recovery) = open(&opts);
        assert!(recovery.is_none(), "fresh data dir");
        for chunk in events[..EVENTS].chunks(256) {
            durable.ingest(chunk.iter().cloned()).expect("ingest");
        }
        durable.stats().checkpoints
    };
    // A checkpoint falls due every eight chunks (2 048 events).
    assert_eq!(published, 9);

    let checkpoints = CheckpointStore::open(dir.join("checkpoints")).expect("manifest");
    assert_eq!(checkpoints.entries().len(), 1, "one live checkpoint");
    assert_eq!(checkpoints.retained_entries().len(), 8);
    let mut names = None;
    for entry in checkpoints
        .retained_entries()
        .iter()
        .chain(checkpoints.entries())
    {
        let bytes = std::fs::read(dir.join("checkpoints").join(&entry.file)).expect("read");
        let checkpoint = Checkpoint::decode(&bytes).expect("decodes");
        let tables: Vec<String> = checkpoint
            .stores
            .iter()
            .flat_map(|store| store.tables.iter().map(|t| t.name.clone()))
            .collect();
        assert_eq!(tables.len(), 5, "{}: {tables:?}", entry.file);
        assert_eq!(names.get_or_insert_with(|| tables.clone()), &tables);
    }

    let live = checkpoints.entries()[0].clone();
    let (mut durable, store, recovery) = open(&opts);
    let recovery = recovery.expect("the crash image recovers");
    assert_eq!(recovery.checkpoint_id, Some(live.id));
    assert_eq!(recovery.events_applied, live.events_applied);
    assert_eq!(
        recovery.replayed_events,
        EVENTS as u64 - live.events_applied
    );
    durable
        .ingest(events[EVENTS..].iter().cloned())
        .expect("ingest the rest");
    durable.finish_session();
    assert_eq!(
        store.state_digest(),
        expected.ledger_digest,
        "scenario state diverged"
    );
    assert_eq!(
        durable.output_digest(),
        expected.output_digest,
        "output stream diverged"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
