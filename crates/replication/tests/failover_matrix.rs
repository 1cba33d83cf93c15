//! The failover matrix: kill the primary and promote the standby, and the
//! completed stream must be digest-identical to a run that never failed
//! over — across {serial, concurrent} topologies × {sync, async} acks, with
//! the kill landing both on a punctuation boundary and mid-batch.
//!
//! Each cell runs a real [`StandbyServer`] on localhost and a real
//! [`ReplicationSender`] tailing the primary's WAL files, so the whole
//! `MSR1` path is exercised: handshake, live tailing, punctuation frames,
//! acks, and (in the bootstrap test) checkpoint transfer to a fresh
//! standby whose position the primary's truncated WAL can no longer serve.
//!
//! The primary side is the production [`DurableEngine`] driven in-process
//! the way the recovery matrix drives it: ingest a prefix, checkpoint
//! part-way (rotating and truncating the WAL), then drop it without a final
//! checkpoint or `finish` — exactly what `kill -9` leaves behind.

#[path = "../../durability/tests/support/mod.rs"]
mod support;

use std::path::Path;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use morphstream_durability::{DurableEngine, FsyncPolicy};
use morphstream_replication::{
    AckMode, Frame, FrameReader, Promoted, ReplicaEngine, ReplicationSender, SenderOptions,
    StandbyEngine, StandbyOptions, StandbyServer, REPL_MAGIC, REPL_VERSION,
};
use morphstream_workloads::SlEvent;
use support::{test_dir, test_events, Digests, Shape, CHECKPOINT_AT, EVENTS, PUNCTUATION};

/// These tests run real senders that retry fixed localhost ports with
/// backoff; run them one at a time so a retrying sender from one scenario
/// can never reach an ephemeral listener of another.
static SERIAL: Mutex<()> = Mutex::new(());

const DEADLINE: Duration = Duration::from_secs(30);

fn shape(concurrent: bool) -> Shape {
    Shape {
        concurrent,
        parallelism: 2,
        threads: 2,
    }
}

fn build_engine(concurrent: bool) -> ReplicaEngine {
    let (engine, stores) = support::build(shape(concurrent));
    ReplicaEngine {
        engine,
        stores: stores.to_vec(),
    }
}

/// A primary: the durable engine over `dir` plus a live sender tailing its
/// WAL files.
struct Primary {
    durable: DurableEngine<StandbyEngine>,
    sender: ReplicationSender,
}

impl Primary {
    fn start(dir: &Path, concurrent: bool, target: String, ack: AckMode) -> Primary {
        let (durable, _) = DurableEngine::open(
            Some(dir),
            build_engine(concurrent).engine,
            FsyncPolicy::Never,
            0,
            0,
            PUNCTUATION as u64,
        )
        .expect("open the primary's data directory");
        let sender = ReplicationSender::start(
            SenderOptions {
                target,
                wal_dir: dir.join("wal"),
                checkpoint_dir: dir.join("checkpoints"),
                punctuation: PUNCTUATION as u64,
                ack,
            },
            durable.next_index(),
        );
        Primary { durable, sender }
    }

    /// Ingest `slice` an event at a time, nudging the sender like `serve`
    /// does; in sync mode, wait for the standby's ack once per punctuation.
    fn push_replicated(&mut self, slice: &[SlEvent]) {
        for event in slice {
            self.durable.ingest([event.clone()]).expect("WAL append");
            let tip = self.durable.next_index();
            self.sender.notify(tip);
            if self.sender.ack_mode() == AckMode::Sync && tip.is_multiple_of(PUNCTUATION as u64) {
                self.wait_acked(tip);
            }
        }
    }

    fn wait_acked(&self, index: u64) {
        let deadline = Instant::now() + DEADLINE;
        let acked = self
            .sender
            .wait_for_ack(index, &|| Instant::now() > deadline);
        assert!(acked, "standby never acknowledged index {index}");
    }

    fn checkpoint(&mut self) {
        self.durable.checkpoint_now().expect("checkpoint");
    }

    /// `kill -9`: the engine, log handles, and sender vanish; nothing is
    /// flushed or finished.
    fn kill(self) {
        self.sender.shutdown();
    }
}

fn standby_options(dir: &Path) -> StandbyOptions {
    StandbyOptions {
        listen: "127.0.0.1:0".into(),
        data_dir: dir.to_path_buf(),
        fsync: FsyncPolicy::Never,
        checkpoint_interval: 200,
        checkpoint_retain: 1,
    }
}

/// Finish the stream on the promoted engine and digest everything.
fn finish_promoted(mut promoted: Promoted, rest: &[SlEvent]) -> Digests {
    promoted
        .durable
        .ingest(rest.iter().cloned())
        .expect("WAL append");
    promoted.durable.finish_session();
    Digests {
        ledger: promoted.stores[0].state_digest(),
        tally: promoted.stores[1].state_digest(),
        outputs: promoted.durable.output_digest(),
    }
}

#[test]
fn killed_primary_and_promoted_standby_match_the_uninterrupted_reference() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let events = test_events();

    for concurrent in [false, true] {
        let expected = support::reference(shape(concurrent), &events);
        for ack in [AckMode::Sync, AckMode::Async] {
            // 300 = a punctuation boundary; 323 = mid-batch.
            for kill_at in [300usize, 323] {
                let primary_dir = test_dir("primary");
                let standby_dir = test_dir("standby");
                let standby = StandbyServer::start(
                    standby_options(&standby_dir),
                    Box::new(move || Ok(build_engine(concurrent))),
                )
                .expect("standby starts");
                let mut primary = Primary::start(
                    &primary_dir,
                    concurrent,
                    standby.listen_addr().to_string(),
                    ack,
                );
                primary.push_replicated(&events[..CHECKPOINT_AT]);
                primary.checkpoint();
                primary.push_replicated(&events[CHECKPOINT_AT..kill_at]);
                if ack == AckMode::Sync {
                    // Sync acks: everything ingested before the kill is
                    // durable on the standby — the failover loses nothing.
                    primary.wait_acked(kill_at as u64);
                }
                primary.kill();

                let promoted = standby.promote().expect("standby promotes");
                if ack == AckMode::Sync {
                    assert_eq!(
                        promoted.durable.next_index(),
                        kill_at as u64,
                        "sync acks guarantee durability to the kill point"
                    );
                }
                let durable = promoted.durable.next_index() as usize;
                assert!(durable <= kill_at, "standby cannot be ahead of the primary");
                let recovered = finish_promoted(promoted, &events[durable..]);
                assert_eq!(
                    recovered,
                    expected,
                    "digests diverged: concurrent={concurrent} ack={} kill_at={kill_at}",
                    ack.name()
                );
                let _ = std::fs::remove_dir_all(&primary_dir);
                let _ = std::fs::remove_dir_all(&standby_dir);
            }
        }
    }
}

#[test]
fn fresh_standby_bootstraps_from_the_checkpoint_chain_over_the_wire() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let events = test_events();
    let concurrent = false;
    let expected = support::reference(shape(concurrent), &events);

    let primary_dir = test_dir("boot-primary");
    let standby_dir = test_dir("boot-standby");

    // The address the standby will listen on, reserved while nothing does.
    let standby_addr = std::net::TcpListener::bind("127.0.0.1:0")
        .and_then(|listener| listener.local_addr())
        .expect("reserve a port")
        .to_string();

    // Build primary history *before* any standby exists: two checkpoints,
    // the second superseding the first, with the WAL truncated behind them
    // — a fresh standby's position 0 is unservable. Nothing listens
    // yet; the sender retries with backoff until the standby comes up,
    // which is itself part of the scenario.
    let mut primary = Primary::start(
        &primary_dir,
        concurrent,
        standby_addr.clone(),
        AckMode::Async,
    );
    primary.push_replicated(&events[..100]);
    primary.checkpoint();
    primary.push_replicated(&events[100..CHECKPOINT_AT]);
    primary.checkpoint();

    // Now the standby comes up and the sender reaches it: the newest
    // checkpoint must ship over the wire before live tailing begins.
    let mut options = standby_options(&standby_dir);
    options.listen = standby_addr;
    let standby = StandbyServer::start(options, Box::new(move || Ok(build_engine(concurrent))))
        .expect("standby starts");
    assert!(standby.recovery().is_none(), "fresh standby starts empty");
    primary.push_replicated(&events[CHECKPOINT_AT..]);
    primary.wait_acked(EVENTS as u64);

    // The standby was served the checkpoint, not WAL-from-zero: the sender only
    // ever shipped the live tail.
    let sender_stats = primary.sender.stats();
    assert_eq!(
        sender_stats.shipped_records(),
        (EVENTS - CHECKPOINT_AT) as u64,
        "bootstrap covered the checkpointed prefix"
    );
    assert_eq!(sender_stats.lag_records(), 0, "standby fully caught up");
    assert_eq!(standby.durable_index(), EVENTS as u64);
    primary.kill();

    let promoted = standby.promote().expect("standby promotes");
    assert_eq!(promoted.durable.next_index(), EVENTS as u64);
    let recovered = finish_promoted(promoted, &[]);
    assert_eq!(recovered, expected, "bootstrapped standby diverged");

    let _ = std::fs::remove_dir_all(&primary_dir);
    let _ = std::fs::remove_dir_all(&standby_dir);
}

#[test]
fn standby_recovers_its_own_directory_across_restarts() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let events = test_events();
    let concurrent = false;
    let expected = support::reference(shape(concurrent), &events);

    let primary_dir = test_dir("restart-primary");
    let standby_dir = test_dir("restart-standby");

    // First standby lifetime replicates a prefix, then stops (not promoted):
    // its WAL + checkpoints stay on disk.
    let standby = StandbyServer::start(
        standby_options(&standby_dir),
        Box::new(move || Ok(build_engine(concurrent))),
    )
    .expect("standby starts");
    let mut primary = Primary::start(
        &primary_dir,
        concurrent,
        standby.listen_addr().to_string(),
        AckMode::Sync,
    );
    primary.push_replicated(&events[..300]);
    primary.wait_acked(300);
    let standby_addr = standby.listen_addr().to_string();
    standby.shutdown();

    // Second lifetime recovers locally and resumes from index 300 — the
    // primary's sender reconnects on its own (same address, so the restart
    // rebinds the first lifetime's port) and ships only the rest.
    let mut restart_options = standby_options(&standby_dir);
    restart_options.listen = standby_addr;
    let standby = StandbyServer::start(
        restart_options,
        Box::new(move || Ok(build_engine(concurrent))),
    )
    .expect("standby restarts");
    assert_eq!(
        standby.durable_index(),
        300,
        "local recovery lands on the replicated prefix"
    );
    assert!(standby.recovery().is_some(), "recovery report present");
    primary.push_replicated(&events[300..]);
    primary.wait_acked(EVENTS as u64);
    primary.kill();

    let promoted = standby.promote().expect("standby promotes");
    let recovered = finish_promoted(promoted, &[]);
    assert_eq!(recovered, expected, "restarted standby diverged");

    let _ = std::fs::remove_dir_all(&primary_dir);
    let _ = std::fs::remove_dir_all(&standby_dir);
}

/// A primary ships its newest checkpoint and nothing else, so a
/// `BeginBootstrap` announcing more than one is a protocol error: the
/// standby drops the connection instead of waiting for a chain, and its
/// state is untouched.
#[test]
fn a_bootstrap_announcing_more_than_one_checkpoint_is_refused() {
    use std::io::{Read, Write};

    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let standby_dir = test_dir("chain-refused");
    let standby = StandbyServer::start(
        standby_options(&standby_dir),
        Box::new(|| Ok(build_engine(false))),
    )
    .expect("standby starts");

    let mut primary = std::net::TcpStream::connect(standby.listen_addr()).expect("connect");
    let mut wire = REPL_MAGIC.to_vec();
    Frame::Hello {
        version: REPL_VERSION,
        punctuation: PUNCTUATION as u64,
        wal_next: 0,
    }
    .encode(&mut wire);
    primary.write_all(&wire).expect("send hello");
    primary.set_read_timeout(Some(DEADLINE)).unwrap();
    let mut reader = FrameReader::new();
    let mut buf = [0u8; 256];
    let position = loop {
        if let Some(frame) = reader.next().expect("well-formed reply") {
            break frame;
        }
        let n = primary.read(&mut buf).expect("position arrives");
        assert!(n > 0, "standby closed before replying");
        reader.extend(&buf[..n]);
    };
    assert!(matches!(position, Frame::Position { next_index: 0, .. }));

    primary
        .write_all(
            &Frame::BeginBootstrap {
                chain_len: 2,
                events_applied: 0,
            }
            .to_bytes(),
        )
        .expect("send bootstrap");
    // The standby hangs up (EOF or reset); a timeout would mean it is
    // waiting for checkpoint chunks.
    match primary.read(&mut buf) {
        Ok(n) => assert_eq!(n, 0, "no reply to a refused bootstrap"),
        Err(e) => assert!(
            !matches!(
                e.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            ),
            "standby kept the connection open: {e}"
        ),
    }
    assert_eq!(standby.durable_index(), 0);
    standby.shutdown();
    let _ = std::fs::remove_dir_all(&standby_dir);
}
